//! Frame-cache tier benchmark: one characterize + simulate campaign
//! timed cold, warm from the in-process memory tier, and warm from the
//! persistent disk store (a fresh-process start simulated by a new
//! cache over the same store), plus the batch service's in-flight
//! dedup factor when identical campaigns race.
//!
//! The acceptance bar pinned by `tests/persistent_cache.rs` is
//! warm-disk ≥ 3× cold with bit-identical results; this bench prints
//! the actual ratio.

use std::time::Instant;

use megsim_bench::report::available_cores;
use megsim_core::evaluate::{characterize_sequence, simulate, FrameStart};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::{run_batch, BatchJob, BatchOp, FrameCache};
use megsim_timing::{GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

/// Wall-clock seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The fastest of three reps, each returning its own timed seconds (so
/// a rep can set up its cache outside the timed region).
fn best_of_three(mut rep: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| rep()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let cores = available_cores();
    println!("cache bench: {cores} available core(s)");
    let workload = by_alias("pvz", 0.02, 42).expect("known alias"); // 100 frames
    let gpu = GpuConfig::small(192, 192);
    let config = MegsimConfig::default();
    let n = workload.frames() as f64 * 2.0; // two passes per campaign
    let campaign = |cache: &FrameCache| {
        let matrix = characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu,
            &config,
            Some(cache),
        );
        std::hint::black_box(matrix);
        let stats = simulate(
            workload.iter_frames(),
            workload.shaders(),
            &gpu,
            MultiGpuConfig::single(),
            FrameStart::Cold(Some(cache)),
        );
        std::hint::black_box(stats);
    };

    // Cold: a fresh cache for every rep, no store attached.
    let cold = best_of_three(|| {
        let cache = FrameCache::new();
        timed(|| campaign(&cache))
    });
    println!("cache cold: {:.1} frames/s", n / cold);

    // Warm memory: one cache, populated before the timed reps.
    let warm = FrameCache::new();
    campaign(&warm);
    let warm_mem = best_of_three(|| timed(|| campaign(&warm)));
    println!(
        "cache warm-memory: {:.1} frames/s ({:.1}x over cold)",
        n / warm_mem,
        cold / warm_mem
    );

    // Warm disk: populate a store, then time a fresh cache over it for
    // every rep, so every hit is a disk read + decode.
    let dir = std::env::temp_dir().join(format!("megsim_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let filled = FrameCache::open(&dir).expect("open bench store");
    campaign(&filled);
    filled.flush().expect("seal bench store");
    drop(filled);
    let reopen = || FrameCache::open(&dir).expect("reopen bench store");
    let warm_disk = best_of_three(|| {
        let cache = reopen();
        timed(|| campaign(&cache))
    });
    let counted = reopen(); // one counted run for the hit rate
    campaign(&counted);
    let t = counted.counts();
    drop(counted);
    let disk_rate = t.disk_hits() as f64
        / (t.disk_hits() + t.activity_computed + t.stats_computed).max(1) as f64;
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "cache warm-disk: {:.1} frames/s ({:.1}x over cold, {:.0}% disk hits)",
        n / warm_disk,
        cold / warm_disk,
        disk_rate * 100.0
    );

    // Batch dedup: identical campaigns racing on the pool share
    // in-flight results instead of recomputing.
    megsim_exec::set_threads(cores.clamp(2, 4));
    let jobs: Vec<BatchJob> = (0..4)
        .map(|i| BatchJob {
            name: format!("race{i}"),
            op: BatchOp::Characterize,
            trace: String::new(),
            seed: 42,
            out: None,
            ground_truth: false,
        })
        .collect();
    let cache = FrameCache::new();
    let batch = run_batch(&jobs, Some(&cache), |_, scope| {
        let matrix = characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu,
            &config,
            scope,
        );
        std::hint::black_box(matrix);
        Ok(String::new())
    });
    megsim_exec::set_threads(0);
    println!(
        "cache batch: {} identical campaigns, dedup {:.2}x on {} core(s)",
        jobs.len(),
        batch.dedup_factor(),
        cores
    );
}
