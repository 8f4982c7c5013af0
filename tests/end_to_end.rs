//! Cross-crate integration tests: the full MEGsim stack on miniature
//! workloads, checking the invariants that tie the crates together.

use megsim_core::evaluate::{simulate, FrameStart, MegsimRun};
use megsim_core::flow::{self, Flow, FlowError};
use megsim_core::pipeline::{MegsimConfig, StreamClusterConfig};
use megsim_core::{sequence_totals, FrameCache};
use megsim_funcsim::{RenderConfig, Renderer};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_timing::{DispatchMode, FrameStats, Gpu, GpuConfig, MultiGpuConfig, Topology};
use megsim_workloads::{build, by_alias, Workload, BENCHMARKS};

fn small_gpu() -> GpuConfig {
    GpuConfig::small(256, 256)
}

/// Every frame on its own fresh single GPU.
fn simulate_cold(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu: &GpuConfig,
) -> Vec<FrameStats> {
    let start = FrameStart::Cold(None);
    simulate(frames, shaders, gpu, MultiGpuConfig::single(), start).0
}

/// The flow's single-GPU ground truth on `w`: the per-frame statistics
/// and MEGsim's run against them.
fn ground_truth(w: &Workload, gpu: &GpuConfig, cfg: MegsimConfig) -> (Vec<FrameStats>, MegsimRun) {
    let source = (w.shaders(), || w.iter_frames());
    let truth = flow::ground_truth(&source, &Flow::new(gpu, cfg)).expect("frames");
    let run = truth.run();
    (truth.per_frame, run)
}

#[test]
fn trace_and_activity_agree_for_every_benchmark() {
    let gpu = small_gpu();
    for info in &BENCHMARKS {
        let w = build(info, 0.003, 5);
        let renderer = Renderer::new(RenderConfig::tbr(gpu.viewport));
        for i in (0..w.frames()).step_by(7) {
            let frame = w.frame(i);
            let trace = renderer.render_frame(&frame, w.shaders());
            assert_eq!(
                trace.visible_fragments(),
                trace.activity.fragments_shaded,
                "{} frame {i}: trace quads disagree with counters",
                info.alias
            );
            let vs_total: u64 = trace.activity.vertex_shader_invocations.iter().sum();
            assert_eq!(vs_total, trace.activity.vertices_shaded);
            let fs_total: u64 = trace.activity.fragment_shader_invocations.iter().sum();
            assert_eq!(fs_total, trace.activity.fragments_shaded);
            assert!(trace.activity.fragments_rasterized >= trace.activity.fragments_shaded);
            assert!(trace.activity.tile_bin_entries >= trace.activity.primitives_emitted.min(1));
        }
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let gpu = small_gpu();
    let w = by_alias("pvz", 0.01, 3).expect("known alias");
    let cfg = MegsimConfig::default().with_seed(17);
    let a = ground_truth(&w, &gpu, cfg).1;
    let b = ground_truth(&by_alias("pvz", 0.01, 3).expect("known alias"), &gpu, cfg).1;
    assert_eq!(a.selection, b.selection);
    assert_eq!(a.estimated.cycles, b.estimated.cycles);
    assert_eq!(a.actual.cycles, b.actual.cycles);
}

#[test]
fn megsim_estimate_tracks_ground_truth_on_every_benchmark() {
    let gpu = small_gpu();
    for info in &BENCHMARKS {
        // ~40-75 frames per benchmark keeps this test quick.
        let w = build(info, 0.012, 21);
        let cfg = MegsimConfig::default().with_seed(1);
        let run = ground_truth(&w, &gpu, cfg).1;
        assert!(
            run.errors.cycles < 0.10,
            "{}: cycles error {:.3}",
            info.alias,
            run.errors.cycles
        );
        assert!(run.frames_simulated() <= w.frames());
        assert!(run.frames_simulated() >= 1);
        // Cluster sizes partition the sequence.
        let total: usize = run
            .selection
            .representatives
            .iter()
            .map(|r| r.cluster_size)
            .sum();
        assert_eq!(total, w.frames(), "{}", info.alias);
    }
}

#[test]
fn standalone_representative_simulation_matches_full_run_closely() {
    let gpu = small_gpu();
    let w = by_alias("hcr", 0.02, 9).expect("known alias");
    let cfg = MegsimConfig::default();
    let (pf, run) = ground_truth(&w, &gpu, cfg);
    let reps = &run.selection.representatives;
    let rep_stats = simulate_cold(
        reps.iter().map(|r| w.frame(r.frame_index)),
        w.shaders(),
        &gpu,
    );
    assert_eq!(rep_stats.len(), run.frames_simulated());
    for (standalone, rep) in rep_stats.iter().zip(&run.selection.representatives) {
        let in_full = &pf[rep.frame_index];
        let ratio = standalone.cycles as f64 / in_full.cycles as f64;
        // Cache/DRAM state differs between the two runs (cold standalone
        // GPU vs mid-sequence state), so per-frame cycles legitimately
        // differ by tens of percent; they must stay the same order.
        assert!(
            (0.5..2.0).contains(&ratio),
            "frame {}: standalone {} vs in-sequence {}",
            rep.frame_index,
            standalone.cycles,
            in_full.cycles
        );
    }
}

#[test]
fn sequence_totals_equal_sum_of_frames() {
    let gpu = small_gpu();
    let w = by_alias("jjo", 0.005, 2).expect("known alias");
    let pf = simulate_cold(w.iter_frames(), w.shaders(), &gpu);
    let totals = sequence_totals(&pf);
    assert_eq!(totals.cycles, pf.iter().map(|f| f.cycles).sum::<u64>());
    assert_eq!(
        totals.dram_accesses(),
        pf.iter().map(|f| f.dram_accesses()).sum::<u64>()
    );
}

#[test]
fn gpu_clock_equals_sum_of_frame_cycles() {
    let gpu_config = small_gpu();
    let w = by_alias("pvz", 0.004, 8).expect("known alias");
    let renderer = Renderer::new(RenderConfig::tbr(gpu_config.viewport));
    let mut gpu = Gpu::new(gpu_config);
    let mut sum = 0u64;
    for frame in w.iter_frames() {
        let trace = renderer.render_frame(&frame, w.shaders());
        sum += gpu.simulate_frame(&trace, w.shaders()).cycles;
    }
    assert_eq!(gpu.now(), sum);
}

#[test]
fn ground_truth_reports_the_same_estimate_on_every_rig() {
    let gpu = GpuConfig::small(192, 192);
    let w = by_alias("jjo", 0.01, 12).expect("known alias"); // 50 frames
    let source = (w.shaders(), || w.iter_frames());
    let afr = MultiGpuConfig::new(2, DispatchMode::AlternateFrame, Topology::Private);
    let sfr = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared);
    for rig in [None, Some(afr), Some(sfr)] {
        for cache in [None, Some(FrameCache::new())] {
            let flow = Flow {
                rig,
                cache: cache.as_ref(),
                ..Flow::new(&gpu, MegsimConfig::default().with_seed(5))
            };
            let estimate = flow::estimate(&source, &flow).expect("frames");
            let truth = flow::ground_truth(&source, &flow).expect("frames");
            let context = format!("rig {rig:?}, cache {}", cache.is_some());
            assert_eq!(truth.estimate.selection, estimate.selection, "{context}");
            assert_eq!(truth.estimate.estimated, estimate.estimated, "{context}");
            assert_eq!(truth.actual, sequence_totals(&truth.per_frame));
            assert_eq!(rig.is_some(), truth.report.transfers() > 0, "{context}");
        }
    }
}

#[test]
fn exact_streaming_estimate_matches_the_two_pass_flow() {
    let gpu = GpuConfig::small(192, 192);
    let w = by_alias("hcr", 0.01, 7).expect("known alias");
    let source = (w.shaders(), || w.iter_frames());
    let two_pass = Flow::new(&gpu, MegsimConfig::default().with_seed(3));
    let streamed = Flow {
        stream: Some(StreamClusterConfig::exact()),
        ..two_pass
    };
    let a = flow::estimate(&source, &two_pass).expect("frames");
    let b = flow::estimate(&source, &streamed).expect("frames");
    assert_eq!(a.selection.selection, b.selection.selection);
    assert_eq!(a.estimated, b.estimated);
    assert_eq!(b.selection.reservoir_len, w.frames());
    let truth = flow::ground_truth(&source, &streamed).expect("frames");
    assert_eq!(truth.estimate.estimated, a.estimated);
    assert!(truth.matrix.is_none(), "a streamed run keeps no features");
}

#[test]
fn a_source_without_frames_is_an_error() {
    let gpu = small_gpu();
    let shaders = ShaderTable::new();
    let source = (&shaders, std::iter::empty::<Frame>);
    let sfr = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared);
    for stream in [None, Some(StreamClusterConfig::default())] {
        for rig in [None, Some(sfr)] {
            let flow = Flow {
                rig,
                stream,
                ..Flow::new(&gpu, MegsimConfig::default())
            };
            assert_eq!(
                flow::estimate(&source, &flow).unwrap_err(),
                FlowError::NoFrames
            );
            let err = flow::ground_truth(&source, &flow).unwrap_err();
            assert_eq!(err, FlowError::NoFrames);
        }
    }
}
