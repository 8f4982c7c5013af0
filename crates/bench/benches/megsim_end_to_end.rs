//! The headline comparison: full-sequence cycle simulation vs the
//! MEGsim flow (functional characterization + clustering + simulating
//! only the representatives). The wall-clock ratio is the simulation
//! speedup the paper reports as 126x at full scale.
//!
//! Both flows are additionally swept across worker-pool sizes
//! (`--threads 1/2/N` equivalent) to measure how the deterministic
//! execution layer scales; results are bit-identical at every size.

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use megsim_core::evaluate::{characterize_sequence, simulate, FrameStart};
use megsim_core::pipeline::Selection;
use megsim_core::pipeline::{select_representatives, MegsimConfig};
use megsim_core::FrameCache;
use megsim_gfx::shader::ShaderTable;
use megsim_timing::{FrameStats, GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;
use megsim_workloads::Workload;

fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, usize::from);
    let mut sweep = vec![1];
    if max >= 2 {
        sweep.push(2);
    }
    if max > 2 {
        sweep.push(max);
    }
    sweep
}

/// Cold single-GPU simulation of `frames`.
fn simulate_cold(
    frames: impl Iterator<Item = megsim_gfx::draw::Frame> + Send,
    shaders: &ShaderTable,
    gpu: &GpuConfig,
    cache: Option<&FrameCache>,
) -> Vec<FrameStats> {
    let start = FrameStart::Cold(cache);
    simulate(frames, shaders, gpu, MultiGpuConfig::single(), start).0
}

/// Simulates only the selected representative frames.
fn simulate_reps(
    workload: &Workload,
    selection: &Selection,
    gpu: &GpuConfig,
    cache: Option<&FrameCache>,
) -> Vec<FrameStats> {
    let reps = selection.representatives.iter();
    simulate_cold(
        reps.map(|r| workload.frame(r.frame_index)),
        workload.shaders(),
        gpu,
        cache,
    )
}

fn bench_end_to_end(c: &mut Criterion) {
    let workload = by_alias("pvz", 0.02, 7).expect("known alias"); // 100 frames
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();

    let mut full = c.benchmark_group("full_sequence_simulation_pvz100");
    for threads in thread_sweep() {
        full.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                megsim_exec::set_threads(threads);
                b.iter(|| simulate_cold(workload.iter_frames(), workload.shaders(), &gpu, None));
            },
        );
    }
    full.finish();

    let mut flow = c.benchmark_group("megsim_flow_pvz100");
    for threads in thread_sweep() {
        flow.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                megsim_exec::set_threads(threads);
                b.iter(|| {
                    let matrix = characterize_sequence(
                        workload.iter_frames(),
                        workload.shaders(),
                        &gpu,
                        &config,
                        None,
                    );
                    let selection = select_representatives(&matrix, &config);
                    simulate_reps(&workload, &selection, &gpu, None)
                });
            },
        );
    }
    flow.finish();
    megsim_exec::set_threads(0);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_end_to_end
}

/// Times the single-thread MEGsim flow twice over one frame cache —
/// cold, then warm — and prints end-to-end frames/sec plus the cache's
/// tier counts.
fn print_cache_summary() {
    megsim_exec::set_threads(1);
    let workload = by_alias("pvz", 0.02, 7).expect("known alias");
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();
    let cache = FrameCache::new();
    let flow = || {
        let matrix = characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu,
            &config,
            Some(&cache),
        );
        let selection = select_representatives(&matrix, &config);
        simulate_reps(&workload, &selection, &gpu, Some(&cache))
    };
    let start = Instant::now();
    black_box(flow());
    let cold = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(flow());
    let warm = start.elapsed().as_secs_f64();
    println!("{}", cache.summary());
    println!(
        "megsim flow (pvz, {} frames, 1 thread): cold {cold:.3} s, warm {warm:.3} s",
        workload.frames()
    );
    let n = workload.frames() as f64;
    println!(
        "megsim flow end to end: cold {:.1} frames/s, warm {:.1} frames/s",
        n / cold,
        n / warm
    );
    megsim_exec::set_threads(0);
}

fn main() {
    // The criterion groups compare full simulation against the MEGsim
    // flow without a frame cache, so repeated `iter` calls keep
    // measuring simulation rather than cache lookups.
    benches();
    print_cache_summary();
}
