//! The content-addressed frame cache is a pure wall-clock optimization:
//! every pipeline output must be **bit-identical** with the cache on or
//! off, cold or warm, at any worker-pool thread count — and a warm
//! re-run must actually hit. The cache key covers the rig shape: the
//! same frames simulated cold on three rigs in one process must each
//! match their cache-off results, so a key shared between rigs would
//! surface as a bit difference.
//!
//! Everything lives in ONE `#[test]` because the worker-pool size is
//! process-global: parallel test functions setting it would race each
//! other. The cache itself is a value each run is handed (or not).

use megsim_core::evaluate::{characterize_sequence, evaluate_megsim, simulate, FrameStart};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::FrameCache;
use megsim_timing::{DispatchMode, FrameStats, GpuConfig, MultiGpuConfig, Topology};
use megsim_workloads::by_alias;

/// Everything the flow produces, flattened for exact comparison.
#[derive(PartialEq, Debug)]
struct FlowArtifacts {
    features: Vec<f64>,
    per_frame: Vec<FrameStats>,
    representatives: Vec<(usize, usize)>,
    rep_stats: Vec<FrameStats>,
    estimated: FrameStats,
    /// Cold per-frame statistics on an N=2 SFR shared-memory rig and an
    /// N=2 AFR private-memory rig, over the single GPU's frames.
    rig_frames: Vec<Vec<FrameStats>>,
}

fn run_flow(cache: Option<&FrameCache>) -> FlowArtifacts {
    let workload = by_alias("pvz", 0.01, 42).expect("known alias"); // 50 frames
    let gpu = GpuConfig::small(192, 192);
    let config = MegsimConfig::default();
    let matrix = characterize_sequence(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        &config,
        cache,
    );
    let shaders = workload.shaders();
    let single = MultiGpuConfig::single();
    let cold = FrameStart::Cold(cache);
    let per_frame = simulate(workload.iter_frames(), shaders, &gpu, single, cold).0;
    let run = evaluate_megsim(&matrix, &per_frame, &config);
    let reps = run.selection.representatives.iter();
    let rep_frames = reps.map(|r| workload.frame(r.frame_index));
    let rep_stats = simulate(rep_frames, shaders, &gpu, single, cold).0;
    let rigs = [
        MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared),
        MultiGpuConfig::new(2, DispatchMode::AlternateFrame, Topology::Private),
    ];
    let rig_frames = rigs
        .into_iter()
        .map(|rig| simulate(workload.iter_frames(), shaders, &gpu, rig, cold).0)
        .collect();
    FlowArtifacts {
        features: matrix.rows.as_slice().to_vec(),
        per_frame,
        representatives: run
            .selection
            .representatives
            .iter()
            .map(|r| (r.frame_index, r.cluster_size))
            .collect(),
        rep_stats,
        estimated: run.estimated,
        rig_frames,
    }
}

#[test]
fn cache_state_and_thread_count_never_change_results() {
    let mut runs = Vec::new();
    for enabled in [false, true] {
        for threads in [1usize, 8] {
            let cache = enabled.then(FrameCache::new);
            megsim_exec::set_threads(threads);
            runs.push(((enabled, threads), run_flow(cache.as_ref())));
        }
    }

    let ((_, _), baseline) = &runs[0];
    for ((enabled, threads), r) in &runs[1..] {
        assert_eq!(
            baseline, r,
            "pipeline output differs with cache={enabled} at {threads} threads"
        );
    }
    // The rig rows can only expose a shared key if the rigs disagree:
    // split-frame duplicates geometry and ships band pixels, so it
    // differs from the single GPU. A cold alternate-frame rig runs every
    // frame as frame 0 on the display GPU, so it equals the single GPU
    // while still being keyed apart from it.
    let [sfr, afr] = &baseline.rig_frames[..] else {
        panic!("one row per rig");
    };
    assert_ne!(sfr, &baseline.per_frame, "SFR rig must differ from one GPU");
    assert_eq!(afr, &baseline.per_frame, "cold AFR frames run on GPU 0");

    // A cold enabled run already hits: the representatives simulated
    // standalone were cached during the full-sequence pass.
    let cache = FrameCache::new();
    let cold = run_flow(Some(&cache));
    let counts = cache.counts();
    assert!(
        counts.stats_memory > 0,
        "representative re-simulation should hit the stats cache: {}",
        cache.summary()
    );
    assert!(counts.stats_computed > 0 && counts.activity_computed > 0);
    assert!(cache.entries() > 0);

    // A warm re-run hits on both caches and still matches bit-for-bit.
    let warm = run_flow(Some(&cache));
    assert_eq!(&cold, &warm, "warm cache run diverged from cold run");
    let counts = cache.counts();
    assert!(
        counts.activity_memory > 0,
        "warm characterization should hit the activity cache: {}",
        cache.summary()
    );
    assert!(counts.hit_rate() > 0.0);

    megsim_exec::set_threads(0);
}
