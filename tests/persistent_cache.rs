//! The persistent disk tier is, like the memory tier above it, a pure
//! wall-clock optimization: results must be **bit-identical** with the
//! store attached or not, warm or cold, corrupted or pristine — and a
//! disk-warm re-run must be dramatically faster than computing.
//!
//! Everything lives in ONE `#[test]` because the attached store, the
//! cache-enabled flag and the tier counters are process-global.

use std::time::Instant;

use megsim_core::evaluate::{characterize_sequence, simulate, FrameStart};
use megsim_core::frame_cache;
use megsim_core::pipeline::MegsimConfig;
use megsim_timing::{FrameStats, GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

/// Both heavy passes, flattened for exact comparison.
#[derive(PartialEq, Debug)]
struct Artifacts {
    features: Vec<f64>,
    per_frame: Vec<FrameStats>,
}

fn run_campaign() -> Artifacts {
    let workload = by_alias("pvz", 0.01, 42).expect("known alias"); // 50 frames
    let gpu = GpuConfig::small(192, 192);
    let config = MegsimConfig::default();
    let matrix = characterize_sequence(workload.iter_frames(), workload.shaders(), &gpu, &config);
    let (per_frame, _) = simulate(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        MultiGpuConfig::single(),
        FrameStart::Cold,
    );
    Artifacts {
        features: matrix.rows.as_slice().to_vec(),
        per_frame,
    }
}

fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("megsim_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_tier_is_transparent_fast_and_corruption_tolerant() {
    let dir = unique_temp_dir("t1");
    frame_cache::set_enabled(true);

    // --- Cold run: everything computes, results are written behind.
    frame_cache::set_store_dir(&dir).expect("store opens on a fresh dir");
    frame_cache::clear();
    let t0 = Instant::now();
    let cold = run_campaign();
    let cold_secs = t0.elapsed().as_secs_f64();
    let report = frame_cache::report();
    assert_eq!(report.activity_disk_hits + report.stats_disk_hits, 0);
    assert!(report.activity_misses > 0 && report.stats_misses > 0);
    let sealed = frame_cache::flush_store().expect("flush");
    assert!(sealed > 0, "cold run must persist its computed results");

    // --- Warm-disk run: a fresh process is simulated by dropping the
    // memory tier and reopening the store from its files.
    frame_cache::detach_store();
    frame_cache::set_store_dir(&dir).expect("store reopens");
    frame_cache::clear();
    let t1 = Instant::now();
    let warm = run_campaign();
    let warm_secs = t1.elapsed().as_secs_f64();
    assert_eq!(cold, warm, "disk-served results diverged from computed");
    let report = frame_cache::report();
    let disk = report.activity_disk_hits + report.stats_disk_hits;
    let computed = report.activity_misses + report.stats_misses;
    assert!(
        disk >= 9 * (disk + computed) / 10,
        "warm run should be >=90% disk hits: {}",
        report.summary()
    );
    assert!(
        warm_secs * 3.0 < cold_secs,
        "warm-disk run not >=3x faster: cold {cold_secs:.3}s vs warm {warm_secs:.3}s"
    );

    // --- Corruption: truncate one segment mid-record, bit-flip
    // another, and drop in a garbage file. Reopening must succeed and
    // the campaign must still be bit-identical (corrupt entries just
    // recompute).
    frame_cache::detach_store();
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("list store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "expected several shard segments");
    let torn = &segments[0];
    let bytes = std::fs::read(torn).expect("read segment");
    std::fs::write(torn, &bytes[..bytes.len() - bytes.len() / 3]).expect("truncate");
    let flipped = &segments[1];
    let mut bytes = std::fs::read(flipped).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(flipped, bytes).expect("bit-flip");
    std::fs::write(dir.join("junk.seg"), b"not a segment at all").expect("junk");

    frame_cache::set_store_dir(&dir).expect("corrupt store still opens");
    frame_cache::clear();
    let after_corruption = run_campaign();
    assert_eq!(
        cold, after_corruption,
        "corruption must degrade to recompute, never change results"
    );
    let report = frame_cache::report();
    // The untouched shards still serve; the damaged ones recompute.
    assert!(
        report.activity_misses + report.stats_misses > 0,
        "some recompute expected after corruption: {}",
        report.summary()
    );

    // --- A store over a path that cannot be a directory refuses to
    // open (the caller then runs cold) instead of panicking.
    frame_cache::detach_store();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"file").expect("write blocker");
    assert!(frame_cache::set_store_dir(&blocker.join("sub")).is_err());
    assert!(!frame_cache::has_store());

    frame_cache::clear();
    let _ = std::fs::remove_dir_all(&dir);
}
