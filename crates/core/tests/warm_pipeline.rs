//! Determinism tests for the pipelined warm-sequence simulator: the
//! bounded ordered pipeline must produce statistics bit-identical to
//! the plain sequential loop at every thread count, because the timing
//! model consumes traces strictly in frame order on one thread.

use megsim_core::{simulate, FrameStart};
use megsim_funcsim::{RenderConfig, Renderer};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_timing::{DispatchMode, FrameStats, Gpu, GpuConfig, MultiGpuConfig, Topology};
use megsim_workloads::by_alias;

/// The plain single-threaded warm loop on one [`Gpu`], with the
/// end-of-sequence L2 drain counted on the last frame — the oracle the
/// pipelined `simulate(.., FrameStart::Warm)` is asserted bit-identical
/// to.
fn simulate_sequence_warm_sequential(
    frames: impl Iterator<Item = Frame>,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
) -> Vec<FrameStats> {
    let renderer = Renderer::new(RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    });
    let mut gpu = Gpu::new(gpu_config.clone());
    let mut stats: Vec<FrameStats> = frames
        .map(|f| {
            let trace = renderer.render_frame(&f, shaders);
            gpu.simulate_frame(&trace, shaders)
        })
        .collect();
    let writebacks = gpu.drain_l2();
    if let Some(last) = stats.last_mut() {
        last.memory.l2.writebacks += writebacks;
    }
    stats
}

#[test]
fn pipelined_warm_sequence_is_bit_identical_across_thread_counts() {
    let workload = by_alias("jjo", 0.01, 5).expect("known alias");
    let cfg = GpuConfig::small(192, 192);
    let baseline =
        simulate_sequence_warm_sequential(workload.iter_frames(), workload.shaders(), &cfg);
    assert!(baseline.len() > 4, "workload produced a trivial sequence");
    for threads in [1, 2, 8] {
        let (piped, _) = megsim_exec::with_threads(threads, || {
            simulate(
                workload.iter_frames(),
                workload.shaders(),
                &cfg,
                MultiGpuConfig::single(),
                FrameStart::Warm,
            )
        });
        assert_eq!(piped, baseline, "threads = {threads}");
    }
}

#[test]
fn single_gpu_rig_sequence_is_the_warm_ground_truth() {
    let workload = by_alias("jjo", 0.01, 4).expect("known alias"); // 50 frames
    let cfg = GpuConfig::small(192, 192);
    let warm = simulate_sequence_warm_sequential(workload.iter_frames(), workload.shaders(), &cfg);
    for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
        for topology in [Topology::Shared, Topology::Private] {
            let (stats, report) = simulate(
                workload.iter_frames(),
                workload.shaders(),
                &cfg,
                MultiGpuConfig::new(1, dispatch, topology),
                FrameStart::Warm,
            );
            assert_eq!(stats, warm, "{dispatch:?} {topology:?} N=1");
            assert_eq!(report.transfers(), 0);
        }
    }
}

#[test]
fn warm_sequence_counts_idle_l2_drain_on_last_frame() {
    let workload = by_alias("pvz", 0.01, 4).expect("known alias");
    let cfg = GpuConfig::small(192, 192);
    let (stats, _) = simulate(
        workload.iter_frames(),
        workload.shaders(),
        &cfg,
        MultiGpuConfig::single(),
        FrameStart::Warm,
    );
    let last = stats.last().expect("non-empty sequence");
    // The device went idle with dirty frame-buffer lines still in the
    // L2; their writebacks are attributed to the final frame, so the
    // sequence's total writeback count matches what a full drain of the
    // hierarchy would observe.
    assert!(
        last.memory.l2.writebacks > 0,
        "end-of-sequence drain produced no writebacks"
    );
}
