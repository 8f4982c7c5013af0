//! Timing-simulator benchmarks: cycle-level `simulate_frame` throughput
//! across the three rendering architectures for the retained scalar
//! reference model vs the coalesced fast path, plus the warm-sequence
//! pipeline (render ahead while timing consumes in order). Timing is
//! the expensive pass MEGsim only runs on representative frames, so its
//! throughput sets the cost of every ground-truth and validation run.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use megsim_core::{simulate, FrameStart};
use megsim_funcsim::{FrameTrace, RenderConfig, RenderMode, Renderer};
use megsim_timing::{Gpu, GpuConfig, MultiGpuConfig, ReferenceGpu};
use megsim_workloads::by_alias;

const MODES: [(&str, RenderMode); 3] = [
    ("tbr", RenderMode::TileBased),
    ("tbdr", RenderMode::TileBasedDeferred),
    ("imr", RenderMode::Immediate),
];

fn config_for(mode: RenderMode) -> GpuConfig {
    let mut cfg = GpuConfig::mali450_like();
    cfg.render_mode = mode;
    cfg
}

/// `Gpu::simulate_frame` at one worker thread (the direct route; more
/// workers take the sharded one).
fn bench_simulate_frame_modes(c: &mut Criterion) {
    megsim_exec::with_threads(1, || simulate_frame_modes(c));
}

fn simulate_frame_modes(c: &mut Criterion) {
    let workload = by_alias("bbr1", 0.02, 7).expect("known alias");
    let shaders = workload.shaders();
    let frame = workload.frame(workload.frames() / 2);

    let mut group = c.benchmark_group("timing_simulate_frame_modes");
    group.sample_size(10);
    for (name, mode) in MODES {
        let cfg = config_for(mode);
        let renderer = Renderer::new(RenderConfig {
            viewport: cfg.viewport,
            mode,
        });
        let trace = renderer.render_frame(&frame, shaders);
        group.bench_function(name, |b| {
            let mut gpu = Gpu::new(cfg.clone());
            b.iter(|| black_box(gpu.simulate_frame(&trace, shaders).cycles));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulate_frame_modes
}

/// Best-of-five wall-clock seconds for `f` (after one warm-up pass).
fn secs(mut f: impl FnMut()) -> f64 {
    f();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures single-thread frames/sec of the retained scalar reference
/// timing model vs the coalesced fast path across the three rendering
/// modes, plus the sequential-vs-pipelined warm-sequence throughput,
/// and prints the numbers.
fn print_bench_summary() {
    // One worker: `Gpu::simulate_frame` takes its direct route, the one
    // the reference model mirrors.
    megsim_exec::with_threads(1, print_model_speedups);
    print_warm_sequence();
}

/// The reference-vs-optimized timing model rows, at the calling
/// thread's worker count.
fn print_model_speedups() {
    let workload = by_alias("bbr1", 0.02, 7).expect("known alias");
    let shaders = workload.shaders();
    let mut total_reference = 0.0;
    let mut total_optimized = 0.0;
    for (name, mode) in MODES {
        let cfg = config_for(mode);
        let renderer = Renderer::new(RenderConfig {
            viewport: cfg.viewport,
            mode,
        });
        let traces: Vec<FrameTrace> = workload
            .iter_frames()
            .map(|f| renderer.render_frame(&f, shaders))
            .collect();
        let n = traces.len() as f64;
        // The two models stay bit-identical per frame over the same
        // cold-to-warm trajectory: checked once here, then each timed
        // pass runs a fresh GPU.
        let mut reference_gpu = ReferenceGpu::new(cfg.clone());
        let mut gpu = Gpu::new(cfg.clone());
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(
                gpu.simulate_frame(t, shaders),
                reference_gpu.simulate_frame(t, shaders),
                "timing {name}: frame {i} differs from the reference model"
            );
        }
        let reference = secs(|| {
            let mut gpu = ReferenceGpu::new(cfg.clone());
            for t in &traces {
                black_box(gpu.simulate_frame(t, shaders).cycles);
            }
        });
        let optimized = secs(|| {
            let mut gpu = Gpu::new(cfg.clone());
            for t in &traces {
                black_box(gpu.simulate_frame(t, shaders).cycles);
            }
        });
        total_reference += reference;
        total_optimized += optimized;
        println!(
            "timing {name}: reference {:.1} frames/s, optimized {:.1} frames/s ({:.2}x)",
            n / reference,
            n / optimized,
            reference / optimized
        );
    }
    let overall = total_reference / total_optimized;
    println!("timing overall single-thread speedup: {overall:.2}x");
}

/// The sequential-vs-pipelined warm-sequence row.
fn print_warm_sequence() {
    // Warm-sequence pipeline: functional rendering of frame N + 1
    // overlaps timing of frame N. At one thread the pipeline runs as the
    // inline sequential loop; the pipelined run uses two workers (one
    // rendering, one timing). Both use the optimized timing model
    // and produce bit-identical statistics, so the delta is pure
    // render/timing overlap. The gain is largest when the two per-frame
    // costs are comparable — bbr1's 3-D frames render and time at
    // similar rates on the Table I machine.
    let workload = by_alias("bbr1", 0.02, 7).expect("known alias");
    let cfg = GpuConfig::mali450_like();
    let frames = workload.frames() as f64;
    let warm = || {
        black_box(simulate(
            workload.iter_frames(),
            workload.shaders(),
            &cfg,
            MultiGpuConfig::single(),
            FrameStart::Warm,
        ));
    };
    let sequential = megsim_exec::with_threads(1, || secs(warm));
    let pipelined = megsim_exec::with_threads(2, || secs(warm));
    // The overlap needs at least two hardware threads (one rendering,
    // one timing); on a single-CPU box the producer thread only adds
    // context switches, so the recorded core count qualifies the ratio
    // and the printed note keeps a ~1.0x reading from looking like a
    // regression.
    let cores = megsim_bench::report::available_cores();
    println!(
        "warm sequence bbr1: sequential (1 thread) {:.1} frames/s, pipelined (2 threads) {:.1} frames/s ({:.2}x on {cores} core(s)){}",
        frames / sequential,
        frames / pipelined,
        sequential / pipelined,
        megsim_bench::report::core_note(cores)
    );
}

fn main() {
    benches();
    print_bench_summary();
}
