//! Frame-cache tier benchmark: one characterize + simulate campaign
//! timed cold, warm from the in-process memory tier, and warm from the
//! persistent disk store (a fresh-process start simulated by clearing
//! memory and reopening the store), plus the batch service's in-flight
//! dedup factor when identical campaigns race.
//!
//! Readings merge into `BENCH_8.json` at the repo root. The acceptance
//! bar pinned by `tests/persistent_cache.rs` is warm-disk ≥ 3× cold
//! with bit-identical results; this bench records the actual ratio.

use std::time::Instant;

use megsim_bench::report::{available_cores, merge_bench_json};
use megsim_core::evaluate::{characterize_sequence, simulate, FrameStart};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::{frame_cache, run_batch, BatchJob, BatchOp};
use megsim_timing::{GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

/// Best-of-three wall-clock seconds for `f`, running `prepare` before
/// every rep (outside the timed region) to pin the starting tier state.
fn secs(mut prepare: impl FnMut(), mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            prepare();
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let cores = available_cores();
    let workload = by_alias("pvz", 0.02, 42).expect("known alias"); // 100 frames
    let gpu = GpuConfig::small(192, 192);
    let config = MegsimConfig::default();
    let n = workload.frames() as f64 * 2.0; // two passes per campaign
    let campaign = || {
        let matrix =
            characterize_sequence(workload.iter_frames(), workload.shaders(), &gpu, &config);
        std::hint::black_box(matrix);
        let stats = simulate(
            workload.iter_frames(),
            workload.shaders(),
            &gpu,
            MultiGpuConfig::single(),
            FrameStart::Cold,
        );
        std::hint::black_box(stats);
    };

    frame_cache::set_enabled(true);
    frame_cache::detach_store();
    let mut entries: Vec<(String, f64)> =
        vec![("cache_available_parallelism".to_string(), cores as f64)];

    // Cold: memory cleared before every rep, no store attached.
    let cold = secs(frame_cache::clear, campaign);
    entries.push(("cache_cold_frames_per_sec".to_string(), n / cold));
    println!("cache cold: {:.1} frames/s", n / cold);

    // Warm memory: the cold reps left the cache populated; don't clear.
    let warm_mem = secs(|| {}, campaign);
    entries.push(("cache_warm_memory_frames_per_sec".to_string(), n / warm_mem));
    entries.push(("cache_warm_memory_speedup".to_string(), cold / warm_mem));
    println!(
        "cache warm-memory: {:.1} frames/s ({:.1}x over cold)",
        n / warm_mem,
        cold / warm_mem
    );

    // Warm disk: populate a store, then time with the memory tier
    // cleared before every rep so every hit is a disk read + decode.
    let dir = std::env::temp_dir().join(format!("megsim_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    frame_cache::set_store_dir(&dir).expect("open bench store");
    frame_cache::clear();
    campaign();
    frame_cache::flush_store().expect("seal bench store");
    frame_cache::detach_store();
    frame_cache::set_store_dir(&dir).expect("reopen bench store");
    let warm_disk = secs(frame_cache::clear, campaign);
    frame_cache::clear();
    campaign(); // one counted run for the hit rate
    let report = frame_cache::report();
    let disk_hits = report.activity_disk_hits + report.stats_disk_hits;
    let disk_rate =
        disk_hits as f64 / (disk_hits + report.activity_misses + report.stats_misses).max(1) as f64;
    frame_cache::detach_store();
    let _ = std::fs::remove_dir_all(&dir);
    entries.push(("cache_warm_disk_frames_per_sec".to_string(), n / warm_disk));
    entries.push(("cache_warm_disk_speedup".to_string(), cold / warm_disk));
    entries.push(("cache_warm_disk_hit_rate".to_string(), disk_rate));
    println!(
        "cache warm-disk: {:.1} frames/s ({:.1}x over cold, {:.0}% disk hits)",
        n / warm_disk,
        cold / warm_disk,
        disk_rate * 100.0
    );

    // Batch dedup: identical campaigns racing on the pool share
    // in-flight results instead of recomputing.
    megsim_exec::set_threads(cores.clamp(2, 4));
    frame_cache::clear();
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
    let batch = run_batch(&jobs, |_| {
        let matrix =
            characterize_sequence(workload.iter_frames(), workload.shaders(), &gpu, &config);
        std::hint::black_box(matrix);
        Ok(String::new())
    });
    megsim_exec::set_threads(0);
    frame_cache::clear();
    entries.push(("cache_batch_dedup_factor".to_string(), batch.dedup_factor()));
    println!(
        "cache batch: {} identical campaigns, dedup {:.2}x on {} core(s)",
        jobs.len(),
        batch.dedup_factor(),
        cores
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_8.json");
    if let Err(e) = merge_bench_json(&path, &entries) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
