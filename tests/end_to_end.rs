//! Cross-crate integration tests: the full MEGsim stack on miniature
//! workloads, checking the invariants that tie the crates together.

use megsim_core::evaluate::{characterize_sequence, evaluate_megsim, simulate, FrameStart};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::sequence_totals;
use megsim_funcsim::{RenderConfig, Renderer};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_timing::{FrameStats, Gpu, GpuConfig, MultiGpuConfig};
use megsim_workloads::{build, by_alias, BENCHMARKS};

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
    let run = |seed_offset: u64| {
        let w2 = by_alias("pvz", 0.01, 3 + seed_offset).expect("known alias");
        let m = characterize_sequence(w2.iter_frames(), w2.shaders(), &gpu, &cfg, None);
        let pf = simulate_cold(w2.iter_frames(), w2.shaders(), &gpu);
        evaluate_megsim(&m, &pf, &cfg)
    };
    let a = run(0);
    let b = run(0);
    assert_eq!(a.selection, b.selection);
    assert_eq!(a.estimated.cycles, b.estimated.cycles);
    assert_eq!(a.actual.cycles, b.actual.cycles);
    let _ = w;
}

#[test]
fn megsim_estimate_tracks_ground_truth_on_every_benchmark() {
    let gpu = small_gpu();
    for info in &BENCHMARKS {
        // ~40-75 frames per benchmark keeps this test quick.
        let w = build(info, 0.012, 21);
        let cfg = MegsimConfig::default().with_seed(1);
        let m = characterize_sequence(w.iter_frames(), w.shaders(), &gpu, &cfg, None);
        let pf = simulate_cold(w.iter_frames(), w.shaders(), &gpu);
        let run = evaluate_megsim(&m, &pf, &cfg);
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
    let m = characterize_sequence(w.iter_frames(), w.shaders(), &gpu, &cfg, None);
    let pf = simulate_cold(w.iter_frames(), w.shaders(), &gpu);
    let run = evaluate_megsim(&m, &pf, &cfg);
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
