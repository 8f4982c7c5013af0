//! Workload-generation benchmarks: the retained seed frame generator
//! (`ReferenceWorkload`) vs the memoized-geometry-template fast path,
//! across the full Table II benchmark suite. Generation runs before
//! every characterize/simulate pass, so its cost serializes in front of
//! every other stage PRs 2–4 optimized.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use megsim_core::frame_cache::frame_fingerprint;
use megsim_workloads::{suite, ReferenceWorkload, Workload};

/// Frame scale used for the suite: large enough that per-frame work
/// dominates setup, small enough for a CI smoke run.
const FRAME_SCALE: f64 = 0.05;
const SEED: u64 = 42;

fn bench_generation(c: &mut Criterion) {
    let workloads = suite(FRAME_SCALE, SEED);
    let mut group = c.benchmark_group("workload_generation");
    group.sample_size(10);
    for w in &workloads {
        group.bench_function(format!("reference/{}", w.alias), |b| {
            let r = ReferenceWorkload(w);
            b.iter(|| black_box(r.iter_frames().map(|f| f.draws.len()).sum::<usize>()));
        });
        group.bench_function(format!("optimized/{}", w.alias), |b| {
            b.iter(|| black_box(w.iter_frames().map(|f| f.draws.len()).sum::<usize>()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generation
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

/// Asserts the fast path reproduces the seed generator bit for bit
/// (via 128-bit frame fingerprints) before any timing is recorded.
fn assert_identical(w: &Workload) {
    let r = ReferenceWorkload(w);
    for (i, (fast, seed)) in w.iter_frames().zip(r.iter_frames()).enumerate() {
        assert_eq!(
            frame_fingerprint(&fast),
            frame_fingerprint(&seed),
            "{} frame {i}: fast path diverged from the seed generator",
            w.alias
        );
    }
}

/// Measures seed-vs-fast generation single-threaded per benchmark (so
/// the ratio is pure algorithmic gain: placement memoization, static
/// draw skeletons, exact-capacity draw lists — no thread-count
/// dependence), then the parallel `generate_frames` fan-out, and prints
/// the numbers.
fn print_bench_summary() {
    let workloads = suite(FRAME_SCALE, SEED);
    let mut ref_total = 0.0;
    let mut opt_total = 0.0;
    for w in &workloads {
        assert_identical(w);
        let r = ReferenceWorkload(w);
        let reference = secs(|| {
            black_box(r.iter_frames().map(|f| f.draws.len()).sum::<usize>());
        });
        let optimized = secs(|| {
            black_box(w.iter_frames().map(|f| f.draws.len()).sum::<usize>());
        });
        println!(
            "workload {} ({} frames): reference {:.4}s, optimized {:.4}s ({:.2}x)",
            w.alias,
            w.frames(),
            reference,
            optimized,
            reference / optimized
        );
        ref_total += reference;
        opt_total += optimized;
    }
    println!(
        "workload suite total: reference {:.4}s, optimized {:.4}s ({:.2}x)",
        ref_total,
        opt_total,
        ref_total / opt_total
    );

    // Parallel batch synthesis: thread sweep of `generate_frames` over
    // the whole suite. On a 1-core container the ratio is ~1; recorded
    // with the core count so multi-core runs are interpretable.
    let serial = secs(|| {
        for w in &workloads {
            black_box(w.generate_frames().len());
        }
    });
    // 0: the default count (all cores).
    let parallel = megsim_exec::with_threads(0, || {
        secs(|| {
            for w in &workloads {
                black_box(w.generate_frames().len());
            }
        })
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload batch generation: 1 thread {:.4}s, {} cores {:.4}s ({:.2}x)",
        serial,
        cores,
        parallel,
        serial / parallel
    );
}

fn main() {
    benches();
    megsim_exec::with_threads(1, print_bench_summary);
}
