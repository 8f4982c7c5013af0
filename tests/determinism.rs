//! End-to-end determinism of the parallel execution layer: the full
//! MEGsim pipeline (functional characterization → normalization →
//! similarity → k-means/BIC clustering → representative simulation →
//! estimation) must produce **bit-identical** results at every
//! worker-pool size. Parallelism is an execution detail, never an
//! input to the methodology.

use megsim_core::evaluate::{characterize_sequence, evaluate_megsim, simulate, FrameStart};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::{normalize, SimilarityMatrix};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_timing::{FrameStats, GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

/// `frames` on one GPU, each cold (`start = Cold`) or warm from the
/// previous frame (`start = Warm`).
fn simulate_single(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu: &GpuConfig,
    start: FrameStart<'_>,
) -> Vec<FrameStats> {
    simulate(frames, shaders, gpu, MultiGpuConfig::single(), start).0
}

/// Runs `f` with `threads` pool workers and checks after the work that
/// the count still holds, so each pin compares runs at the counts it
/// names.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    megsim_exec::with_threads(threads, || {
        let out = f();
        assert_eq!(
            megsim_exec::thread_count(),
            threads,
            "ran at another thread count"
        );
        out
    })
}

/// Everything the pipeline produces, flattened for exact comparison.
struct PipelineArtifacts {
    features: Vec<f64>,
    normalized: Vec<f64>,
    distances: Vec<f64>,
    per_frame: Vec<FrameStats>,
    labels: Vec<usize>,
    representatives: Vec<(usize, usize)>,
    bic_scores: Vec<f64>,
    rep_stats: Vec<FrameStats>,
    estimated: FrameStats,
}

fn run_pipeline() -> PipelineArtifacts {
    let workload = by_alias("pvz", 0.02, 42).expect("known alias"); // 100 frames
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();

    let matrix = characterize_sequence(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        &config,
        None,
    );
    let normalized = normalize(&matrix, &config.weights);
    let sim = SimilarityMatrix::from_points(&normalized);
    let n = sim.len();
    let mut distances = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            distances.push(sim.distance(i, j));
        }
    }

    let shaders = workload.shaders();
    let per_frame = simulate_single(
        workload.iter_frames(),
        shaders,
        &gpu,
        FrameStart::Cold(None),
    );
    let run = evaluate_megsim(&matrix, &per_frame, &config);
    let reps = run.selection.representatives.iter();
    let rep_frames = reps.map(|r| workload.frame(r.frame_index));
    let rep_stats = simulate_single(rep_frames, shaders, &gpu, FrameStart::Cold(None));

    PipelineArtifacts {
        features: matrix.rows.as_slice().to_vec(),
        normalized: normalized.as_slice().to_vec(),
        distances,
        per_frame,
        labels: run.selection.labels.clone(),
        representatives: run
            .selection
            .representatives
            .iter()
            .map(|r| (r.frame_index, r.cluster_size))
            .collect(),
        bic_scores: run.selection.bic_scores.clone(),
        rep_stats,
        estimated: run.estimated,
    }
}

/// Parallel batch frame synthesis is bit-identical to sequential
/// per-frame generation at every worker-pool size: same draw-call
/// fingerprints in the same order.
#[test]
fn frame_generation_is_bit_identical_at_any_thread_count() {
    use megsim_core::frame_cache::frame_fingerprint;

    let workload = by_alias("hwh", 0.02, 42).expect("known alias");
    let sequential: Vec<u128> = workload
        .iter_frames()
        .map(|f| frame_fingerprint(&f))
        .collect();

    for threads in [1usize, 2, 8] {
        let batch: Vec<u128> = at_threads(threads, || {
            workload
                .generate_frames()
                .iter()
                .map(frame_fingerprint)
                .collect()
        });
        assert_eq!(
            sequential, batch,
            "batch frame synthesis differs at {threads} threads"
        );
    }
}

/// Intra-frame tile sharding is bit-identical to the sequential raster
/// loop at every thread count, in every render mode, on both an even
/// tile grid and a 33×33 viewport whose right column and bottom row are
/// 1-px partial tiles (the shard-boundary regression case). One worker
/// thread runs the sequential loop; two and eight run the sharded
/// record/replay path, over warm multi-frame state.
#[test]
fn tile_sharded_timing_is_bit_identical_at_any_thread_count() {
    use megsim_funcsim::{RenderConfig, RenderMode, Renderer};
    use megsim_gfx::draw::Viewport;
    use megsim_timing::Gpu;

    let workload = by_alias("pvz", 0.02, 7).expect("known alias");
    let frames: Vec<_> = (0..4).map(|i| workload.frame(i)).collect();
    let shaders = workload.shaders();

    let run = |mode: RenderMode, viewport: Viewport| {
        let mut cfg = GpuConfig::small(viewport.width, viewport.height);
        cfg.viewport = viewport;
        cfg.render_mode = mode;
        let renderer = Renderer::new(RenderConfig { viewport, mode });
        let mut gpu = Gpu::new(cfg);
        let stats: Vec<FrameStats> = frames
            .iter()
            .map(|f| gpu.simulate_frame(&renderer.render_frame(f, shaders), shaders))
            .collect();
        (stats, gpu.now())
    };

    for viewport in [Viewport::new(128, 128, 16), Viewport::new(33, 33, 16)] {
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let baseline = at_threads(1, || run(mode, viewport));
            for threads in [2usize, 8] {
                let sharded = at_threads(threads, || run(mode, viewport));
                assert_eq!(
                    sharded, baseline,
                    "sharded timing differs: {mode:?} {}x{} at {threads} threads",
                    viewport.width, viewport.height
                );
            }
        }
    }
}

/// Streamed replay — frames decoded incrementally off the trace bytes
/// and piped straight into the warm decode → render → timing pipeline —
/// is bit-identical to materialized replay (decode-all, play, then
/// simulate) in every render mode, on both wire versions, at every
/// worker-pool size.
#[test]
fn streamed_replay_is_bit_identical_to_materialized() {
    use megsim_funcsim::RenderMode;
    use megsim_gl::{decode, encode_with_version, play, record_sequence, FrameIter};

    let workload = by_alias("pvz", 0.02, 11).expect("known alias");
    let frames: Vec<_> = (0..12).map(|i| workload.frame(i)).collect();
    let stream = record_sequence(workload.shaders(), &frames);

    for version in [1u16, 2] {
        let bytes = encode_with_version(&stream, version).expect("supported version");
        let replay = play(&decode(&bytes).expect("valid trace")).expect("valid stream");
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let mut cfg = GpuConfig::small(128, 128);
            cfg.render_mode = mode;
            let baseline = at_threads(1, || {
                simulate_single(
                    replay.frames.iter().cloned(),
                    &replay.shaders,
                    &cfg,
                    FrameStart::Warm,
                )
            });
            for threads in [1usize, 2, 8] {
                let streamed = at_threads(threads, || {
                    let iter =
                        FrameIter::new(std::io::Cursor::new(&bytes[..])).expect("valid header");
                    let shaders = iter.shaders().clone();
                    simulate_single(
                        iter.map(|f| f.expect("valid frame")),
                        &shaders,
                        &cfg,
                        FrameStart::Warm,
                    )
                });
                assert_eq!(
                    streamed, baseline,
                    "streamed replay differs: v{version} {mode:?} at {threads} threads"
                );
            }
        }
    }
}

/// The fused single-pass characterize+cluster path in its exact mode
/// (unbounded reservoir) is bit-identical to the two-pass pipeline —
/// same labels, representatives and BIC curve — at every worker-pool
/// size. This is the streaming path's oracle, pinned in the CI
/// determinism matrix.
#[test]
fn exact_streaming_selection_is_bit_identical_to_batch() {
    use megsim_core::evaluate::characterize_stream;
    use megsim_core::pipeline::{select_representatives, StreamClusterConfig};

    let workload = by_alias("pvz", 0.02, 42).expect("known alias"); // 100 frames
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();
    let stream = StreamClusterConfig::exact();

    let matrix = at_threads(1, || {
        characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu,
            &config,
            None,
        )
    });
    let batch = at_threads(1, || select_representatives(&matrix, &config));

    for threads in [1usize, 2, 8] {
        let streamed = at_threads(threads, || {
            characterize_stream(
                workload.iter_frames(),
                workload.shaders(),
                &gpu,
                &config,
                &stream,
                None,
            )
        });
        assert_eq!(
            streamed.selection, batch,
            "exact streaming selection differs at {threads} threads"
        );
        assert_eq!(
            streamed.reservoir_len,
            matrix.frames(),
            "exact mode must retain every frame"
        );
    }
}

/// The N-GPU rig is bit-identical at every worker-pool size for every
/// (N, dispatch, topology) configuration — the only parallel stage is
/// the pure tile-record fan-out — and the N = 1 rig is bit-identical
/// to the warm single-GPU ground truth in both dispatch modes and both
/// topologies (the degenerate-rig oracle the multi-GPU axis is pinned
/// against).
#[test]
fn multi_gpu_rig_is_bit_identical_at_any_thread_count() {
    use megsim_funcsim::{RenderConfig, Renderer};
    use megsim_timing::{DispatchMode, Gpu, Topology};

    let workload = by_alias("pvz", 0.02, 9).expect("known alias");
    let frames: Vec<_> = (0..8).map(|i| workload.frame(i)).collect();
    let shaders = workload.shaders();
    let gpu = GpuConfig::small(192, 192);

    // The oracle: one plain `Gpu` warmed across the frames, with the
    // idle L2 drain counted on the last frame.
    let warm: Vec<FrameStats> = at_threads(1, || {
        let renderer = Renderer::new(RenderConfig {
            viewport: gpu.viewport,
            mode: gpu.render_mode,
        });
        let mut single = Gpu::new(gpu.clone());
        let mut warm: Vec<FrameStats> = frames
            .iter()
            .map(|f| single.simulate_frame(&renderer.render_frame(f, shaders), shaders))
            .collect();
        warm.last_mut().expect("frames").memory.l2.writebacks += single.drain_l2();
        warm
    });

    for n in [1usize, 2, 4] {
        for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
            for topology in [Topology::Shared, Topology::Private] {
                let multi = MultiGpuConfig::new(n, dispatch, topology);
                let run = || {
                    simulate(
                        frames.iter().cloned(),
                        shaders,
                        &gpu,
                        multi,
                        FrameStart::Warm,
                    )
                };
                let baseline = at_threads(1, run);
                if n == 1 {
                    assert_eq!(
                        baseline.0, warm,
                        "N=1 {dispatch:?} {topology:?} differs from the single-GPU ground truth"
                    );
                    assert_eq!(baseline.1.transfers(), 0, "N=1 must not touch a link");
                }
                for threads in [2usize, 8] {
                    assert_eq!(
                        at_threads(threads, run),
                        baseline,
                        "N={n} {dispatch:?} {topology:?} differs at {threads} threads"
                    );
                }
            }
        }
    }
}

/// The feature matrix read off a simulation's per-frame statistics is
/// bit-identical to the functional characterization pass in every
/// render mode, for cold and warm runs, on one GPU and on a 2-GPU
/// split-frame shared-memory rig, at every worker-pool size — the
/// oracle that lets a ground-truth run skip its own characterize pass.
#[test]
fn features_from_simulation_are_bit_identical_to_characterization() {
    use megsim_core::evaluate::characterize_simulated;
    use megsim_funcsim::RenderMode;
    use megsim_timing::{DispatchMode, Topology};

    let workload = by_alias("pvz", 0.02, 5).expect("known alias");
    let frames: Vec<_> = (0..10).map(|i| workload.frame(i)).collect();
    let shaders = workload.shaders();
    let config = MegsimConfig::default();
    let bits = |m: &megsim_core::FeatureMatrix| {
        let rows = m.rows.as_slice().iter().map(|x| x.to_bits()).collect();
        (rows, m.vscv_len, m.fscv_len)
    };
    let sfr_shared = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared);

    for mode in [
        RenderMode::TileBased,
        RenderMode::TileBasedDeferred,
        RenderMode::Immediate,
    ] {
        let mut gpu = GpuConfig::small(128, 128);
        gpu.render_mode = mode;
        let oracle: (Vec<u64>, usize, usize) = at_threads(1, || {
            bits(&characterize_sequence(
                frames.iter().cloned(),
                shaders,
                &gpu,
                &config,
                None,
            ))
        });
        for threads in [1usize, 8] {
            for rig in [MultiGpuConfig::single(), sfr_shared] {
                for start in [FrameStart::Cold(None), FrameStart::Warm] {
                    let matrix = at_threads(threads, || {
                        let (per_frame, _) =
                            simulate(frames.iter().cloned(), shaders, &gpu, rig, start);
                        characterize_simulated(&per_frame, shaders, &config)
                    });
                    assert_eq!(
                        bits(&matrix),
                        oracle,
                        "{mode:?} {start:?} on {} GPU(s) at {threads} threads",
                        rig.gpus
                    );
                }
            }
        }
    }
}

#[test]
fn pipeline_is_bit_identical_at_any_thread_count() {
    let runs: Vec<(usize, PipelineArtifacts)> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| (threads, at_threads(threads, run_pipeline)))
        .collect();

    let (_, baseline) = &runs[0];
    for (threads, r) in &runs[1..] {
        assert_eq!(
            baseline.features, r.features,
            "feature matrix differs at {threads} threads"
        );
        assert_eq!(
            baseline.normalized, r.normalized,
            "normalized matrix differs at {threads} threads"
        );
        assert_eq!(
            baseline.distances, r.distances,
            "similarity matrix differs at {threads} threads"
        );
        assert_eq!(
            baseline.per_frame, r.per_frame,
            "ground-truth frame stats differ at {threads} threads"
        );
        assert_eq!(
            baseline.labels, r.labels,
            "cluster labels differ at {threads} threads"
        );
        assert_eq!(
            baseline.representatives, r.representatives,
            "representatives differ at {threads} threads"
        );
        assert_eq!(
            baseline.bic_scores, r.bic_scores,
            "BIC curve differs at {threads} threads"
        );
        assert_eq!(
            baseline.rep_stats, r.rep_stats,
            "representative simulations differ at {threads} threads"
        );
        assert_eq!(
            baseline.estimated, r.estimated,
            "estimated totals differ at {threads} threads"
        );
    }
}
