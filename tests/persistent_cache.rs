//! The persistent disk tier is, like the memory tier above it, a pure
//! wall-clock optimization: results must be **bit-identical** with the
//! store attached or not, warm or cold, corrupted or pristine — and a
//! disk-warm re-run must be dramatically faster than computing.
//!
//! Each step opens its own `FrameCache` over the store directory, the
//! way a fresh process would. The steps share one `#[test]` only
//! because they run in sequence over that one directory; no cache
//! state is process-global.

use std::time::Instant;

use megsim_core::evaluate::{characterize_sequence, simulate, FrameStart};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::FrameCache;
use megsim_timing::{FrameStats, GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

/// Both heavy passes, flattened for exact comparison.
#[derive(PartialEq, Debug)]
struct Artifacts {
    features: Vec<f64>,
    per_frame: Vec<FrameStats>,
}

fn run_campaign(cache: &FrameCache) -> Artifacts {
    let workload = by_alias("pvz", 0.01, 42).expect("known alias"); // 50 frames
    let gpu = GpuConfig::small(192, 192);
    let config = MegsimConfig::default();
    let matrix = characterize_sequence(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        &config,
        Some(cache),
    );
    let (per_frame, _) = simulate(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        MultiGpuConfig::single(),
        FrameStart::Cold(Some(cache)),
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

    // --- Cold run: everything computes, results are written behind.
    let cache = FrameCache::open(&dir).expect("store opens on a fresh dir");
    let t0 = Instant::now();
    let cold = run_campaign(&cache);
    let cold_secs = t0.elapsed().as_secs_f64();
    let counts = cache.counts();
    assert_eq!(counts.disk_hits(), 0);
    assert!(counts.activity_computed > 0 && counts.stats_computed > 0);
    let sealed = cache.flush().expect("flush");
    assert!(sealed > 0, "cold run must persist its computed results");
    drop(cache);

    // --- Warm-disk run: a fresh process is simulated by a new cache,
    // with an empty memory tier, over the store's files.
    let cache = FrameCache::open(&dir).expect("store reopens");
    let t1 = Instant::now();
    let warm = run_campaign(&cache);
    let warm_secs = t1.elapsed().as_secs_f64();
    assert_eq!(cold, warm, "disk-served results diverged from computed");
    let counts = cache.counts();
    let disk = counts.disk_hits();
    let computed = counts.activity_computed + counts.stats_computed;
    assert!(
        disk >= 9 * (disk + computed) / 10,
        "warm run should be >=90% disk hits: {}",
        cache.summary()
    );
    assert!(
        warm_secs * 3.0 < cold_secs,
        "warm-disk run not >=3x faster: cold {cold_secs:.3}s vs warm {warm_secs:.3}s"
    );

    // --- Corruption: truncate one segment mid-record, bit-flip
    // another, and drop in a garbage file. Reopening must succeed and
    // the campaign must still be bit-identical (corrupt entries just
    // recompute).
    drop(cache);
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

    let cache = FrameCache::open(&dir).expect("corrupt store still opens");
    let after_corruption = run_campaign(&cache);
    assert_eq!(
        cold, after_corruption,
        "corruption must degrade to recompute, never change results"
    );
    let counts = cache.counts();
    // The untouched shards still serve; the damaged ones recompute.
    assert!(
        counts.activity_computed + counts.stats_computed > 0,
        "some recompute expected after corruption: {}",
        cache.summary()
    );
    drop(cache);

    // --- A store over a path that cannot be a directory refuses to
    // open (the caller then runs cold) instead of panicking.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"file").expect("write blocker");
    assert!(FrameCache::open(&blocker.join("sub")).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}
