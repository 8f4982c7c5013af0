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
use megsim_core::evaluate::{simulate, FrameStart};
use megsim_core::flow::{estimate, Estimate, Flow};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::FrameCache;
use megsim_timing::{GpuConfig, MultiGpuConfig};
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

/// The MEGsim flow over `workload`'s in-memory frames: characterize,
/// select, then simulate only the representatives.
fn megsim_flow(workload: &Workload, flow: &Flow<'_>) -> Estimate {
    let source = (
        workload.shaders(),
        || workload.iter_frames(),
        |i| workload.frame(i),
    );
    estimate(&source, flow).expect("a workload has frames")
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
                megsim_exec::with_threads(threads, || {
                    b.iter(|| {
                        let frames = workload.iter_frames();
                        let start = FrameStart::Cold(None);
                        simulate(
                            frames,
                            workload.shaders(),
                            &gpu,
                            MultiGpuConfig::single(),
                            start,
                        )
                    })
                });
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
                megsim_exec::with_threads(threads, || {
                    b.iter(|| megsim_flow(&workload, &Flow::new(&gpu, config)))
                });
            },
        );
    }
    flow.finish();
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
    let workload = by_alias("pvz", 0.02, 7).expect("known alias");
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();
    let cache = FrameCache::new();
    let flow = || {
        let flow = Flow {
            cache: Some(&cache),
            ..Flow::new(&gpu, config)
        };
        megsim_flow(&workload, &flow)
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
}

fn main() {
    // The criterion groups compare full simulation against the MEGsim
    // flow without a frame cache, so repeated `iter` calls keep
    // measuring simulation rather than cache lookups.
    benches();
    megsim_exec::with_threads(1, print_cache_summary);
}
