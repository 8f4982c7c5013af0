//! End-to-end drivers tying the whole toolchain together: functional
//! characterization, cycle-level simulation, MEGsim selection and
//! accuracy evaluation — the §IV/§V experimental flow.
//!
//! The cycle-level simulator runs through one entry point, [`simulate`],
//! in one of two ways ([`FrameStart`]). Cold gives every frame its own
//! fresh rig, so frames are independent: they fan out across the
//! `megsim-exec` worker pool like [`characterize_sequence`] does, every
//! frame's result depends only on its content, outputs are
//! bit-identical at any thread count, and a frame's statistics are the
//! same whether it is simulated inside a full sequence (the paper's
//! ground truth) or standalone as a representative. Warm threads one
//! rig through the sequence; timing is then order-dependent but still
//! overlaps rendering through a bounded ordered pipeline. A single GPU
//! is the one-instance rig, [`MultiGpuConfig::single`].
//!
//! Every pass consumes its frames through a bounded
//! [`megsim_exec::iter_pipeline`] rather than collecting them first, so
//! a streaming source — `megsim-gl`'s frame-granular trace
//! decoder — flows through decode → render → timing with only a
//! window of frames resident, regardless of trace length.
//!
//! Every simulated frame's [`FrameStats`] carries the functional
//! activity its frame was timed from, so [`characterize_simulated`]
//! reads the §III-B feature matrix off a finished simulation, cold or
//! warm, on any rig, bit-identical to [`characterize_sequence`]. So
//! [`crate::flow::ground_truth`] renders each frame once: it clusters
//! the simulation's own features, and on a single GPU the cold full run
//! already holds every representative's standalone statistics, so
//! nothing is re-simulated.
//!
//! The independence of cold frames makes them memoizable: characterize
//! and cold simulation take an optional [`FrameCache`], the
//! content-addressed run state of [`crate::frame_cache`], so a frame
//! that reappears — across random-sampling trials, repeated sweeps, or
//! separate characterize and estimate passes — is simulated once. `None`
//! computes every frame. Warm runs take no cache (their results depend
//! on simulation order, not just frame content), which is why only
//! [`FrameStart::Cold`] carries one.

use megsim_funcsim::{FrameActivity, RenderConfig, Renderer};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_timing::{FrameStats, GpuConfig, MultiGpu, MultiGpuConfig, MultiGpuReport};

use megsim_cluster::StreamClusterer;

use crate::estimate::{estimate_totals, metric_errors, sequence_totals, MetricErrors};
use crate::features::{characterize_frame_into, feature_matrix, FeatureMatrix};
use crate::frame_cache::{self, FrameCache};
use crate::normalize::RunningGroupMass;
use crate::pipeline::{
    finish_stream, select_representatives, MegsimConfig, Selection, StreamClusterConfig,
    StreamSelection,
};

/// How many frames the streaming passes let the source (e.g. a trace
/// decoder) run ahead of the slowest stage. Frames are the large
/// buffered intermediate, so the window stays modest while still
/// keeping every worker fed.
const STREAM_PIPELINE_DEPTH: usize = 16;

/// Fast functional characterization pass (paper §III-B): renders every
/// frame functionally (in parallel across frames) and returns the
/// `N × D` feature matrix.
///
/// Frames are pulled off the iterator incrementally and never
/// materialized as a whole sequence: a streaming source (a trace
/// decoder) is characterized in O(window) frame memory via
/// [`megsim_exec::iter_pipeline`]. With a `cache`, each frame's
/// activity is looked up there first.
pub fn characterize_sequence(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    config: &MegsimConfig,
    cache: Option<&FrameCache>,
) -> FeatureMatrix {
    let render_config = RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    };
    let renderer = Renderer::new(render_config);
    let config_fp = frame_cache::activity_config_fingerprint(&render_config, shaders);
    let mut activities = Vec::new();
    megsim_exec::iter_pipeline(
        frames,
        STREAM_PIPELINE_DEPTH,
        |_, f: Frame| activity(cache, config_fp, &renderer, &f, shaders),
        |_, activity| activities.push(activity),
    );
    feature_matrix(activities.iter(), shaders, &config.characterization)
}

/// The `N × D` feature matrix of an already-simulated sequence, built
/// from the activity each frame's statistics carry instead of a render
/// pass of its own.
///
/// Bit-identical to [`characterize_sequence`] over the same frames and
/// [`GpuConfig`], whichever [`FrameStart`] and rig produced `per_frame`:
/// the timing model copies the functional renderer's counters through
/// unchanged.
pub fn characterize_simulated(
    per_frame: &[FrameStats],
    shaders: &ShaderTable,
    config: &MegsimConfig,
) -> FeatureMatrix {
    let activities = per_frame.iter().map(|s| &*s.activity);
    feature_matrix(activities, shaders, &config.characterization)
}

/// True single-pass MEGsim selection: frames flow decoder → functional
/// characterization → online clusterer in one bounded pipeline, and the
/// whole-sequence barrier of the two-pass flow (materialize the feature
/// matrix, then cluster it) disappears.
///
/// Characterization fans out on the worker pool
/// ([`megsim_exec::iter_fold`]); the caller thread folds each frame's
/// feature row — in strict arrival order — into the running §III-C
/// group masses and the [`StreamClusterer`]. Peak feature memory is the
/// clusterer's reservoir plus one mini-batch plus the pipeline window,
/// independent of sequence length.
///
/// With `stream.reservoir_capacity == 0` the returned selection is
/// **bitwise** what [`characterize_sequence`] +
/// [`crate::pipeline::select_representatives`] produce, at any thread
/// count — the oracle the proptest suite and the CI determinism matrix
/// pin. `cache` serves activities as in [`characterize_sequence`].
///
/// # Panics
///
/// Panics if the sequence is empty.
pub fn characterize_stream(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    config: &MegsimConfig,
    stream: &StreamClusterConfig,
    cache: Option<&FrameCache>,
) -> StreamSelection {
    let render_config = RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    };
    let renderer = Renderer::new(render_config);
    let config_fp = frame_cache::activity_config_fingerprint(&render_config, shaders);
    let dim = shaders.vertex_count() + shaders.fragment_count() + 1;
    let clusterer = StreamClusterer::new(dim, stream.to_stream_config(&config.search));
    let characterization = config.characterization;
    struct Fold {
        clusterer: StreamClusterer,
        mass: RunningGroupMass,
        scales: Vec<f64>,
    }
    let fold = megsim_exec::iter_fold(
        frames,
        STREAM_PIPELINE_DEPTH,
        // Map stage: render + characterize, pure per frame (cache hits
        // are content-addressed, so results are order-independent).
        |_, f: Frame| {
            let activity = activity(cache, config_fp, &renderer, &f, shaders);
            let mut row = Vec::with_capacity(dim);
            characterize_frame_into(&activity, shaders, &characterization, &mut row);
            row
        },
        Fold {
            clusterer,
            mass: RunningGroupMass::new(shaders.vertex_count(), shaders.fragment_count()),
            scales: Vec::new(),
        },
        // Fold stage: strict arrival order on the caller thread — the
        // exact FP fold of the batch normalization pass.
        |state, _, row| {
            state.mass.add_row(&row);
            state
                .mass
                .column_scales_into(&config.weights, &mut state.scales);
            state.clusterer.set_scales(&state.scales);
            state.clusterer.push(&row);
        },
    );
    finish_stream(fold.clusterer)
}

/// A frame's functional activity, through `cache` when there is one.
fn activity(
    cache: Option<&FrameCache>,
    config_fp: u128,
    renderer: &Renderer,
    frame: &Frame,
    shaders: &ShaderTable,
) -> FrameActivity {
    let compute = || renderer.frame_activity(frame, shaders);
    match cache {
        Some(cache) => cache.activity_or_else(config_fp, frame, compute),
        None => compute(),
    }
}

/// How each simulated frame finds the rig's state.
#[derive(Debug, Clone, Copy)]
pub enum FrameStart<'a> {
    /// Every frame runs on its own freshly built rig (cold caches). This
    /// is the paper's per-frame ground truth and how MEGsim simulates
    /// its representatives. Each frame's result is looked up in the
    /// cache first, if one is given.
    Cold(Option<&'a FrameCache>),
    /// One rig carries its cache, DRAM and clock state from each frame
    /// into the next — the ground truth for cache warm-up and
    /// multi-GPU studies.
    Warm,
}

/// How many rendered traces the warm pipeline buffers ahead of the
/// timing model. Traces are the large intermediate here, so the window
/// is kept smaller than [`STREAM_PIPELINE_DEPTH`]; it only needs to
/// cover render-time jitter.
const WARM_PIPELINE_DEPTH: usize = 4;

/// Cycle-level simulation of `frames` on an N-GPU rig ([`MultiGpu`]):
/// frames are dispatched whole (alternate-frame) or as tile bands
/// (split-frame) across `rig.gpus` instances over a shared or private
/// memory topology, with interconnect transfers to the display GPU
/// modeled per link. [`MultiGpuConfig::single`] is the single GPU,
/// bit-identical to [`megsim_timing::Gpu`].
///
/// Returns the per-frame statistics in frame order and the rig's
/// cumulative [`MultiGpuReport`] (frames per GPU, link traffic).
///
/// * [`FrameStart::Cold`] simulates each frame on a throwaway rig, as
///   frame 0 of a sequence. Frames fan out on the worker pool and, with
///   a cache, are memoized under a key covering the GPU config, the rig
///   shape and the shaders. The report is empty.
///   MEGsim's representative run is Cold over just the representative
///   frames, in selection order.
/// * [`FrameStart::Warm`] threads one rig through the sequence. Pool
///   workers pull (e.g. decode) and render frames `N + 1`, `N + 2`, …
///   while frame `N` runs through the timing model on the caller
///   thread, strictly in frame order, so results are bit-identical at
///   every thread count. At the end of the sequence the
///   device goes idle and every back end's L2 drains: the remaining
///   dirty lines are written back and counted on the last frame's L2
///   counters (idle-time writebacks).
///
/// # Panics
///
/// Panics if `rig.gpus` is zero or above [`megsim_timing::MAX_GPUS`].
pub fn simulate(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    rig: MultiGpuConfig,
    start: FrameStart<'_>,
) -> (Vec<FrameStats>, MultiGpuReport) {
    let renderer = Renderer::new(RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    });
    let mut stats = Vec::new();
    match start {
        FrameStart::Cold(cache) => {
            let config_fp = frame_cache::stats_config_fingerprint(gpu_config, &rig, shaders);
            megsim_exec::iter_pipeline(
                frames,
                STREAM_PIPELINE_DEPTH,
                |_, f: Frame| {
                    let compute = || {
                        let trace = renderer.render_frame(&f, shaders);
                        MultiGpu::new(gpu_config.clone(), rig).simulate_frame(&trace, shaders)
                    };
                    match cache {
                        Some(cache) => cache.stats_or_else(config_fp, &f, compute),
                        None => compute(),
                    }
                },
                |_, s| stats.push(s),
            );
            (stats, MultiGpuReport::default())
        }
        FrameStart::Warm => {
            let mut gpus = MultiGpu::new(gpu_config.clone(), rig);
            megsim_exec::iter_pipeline(
                frames,
                WARM_PIPELINE_DEPTH,
                |_, f: Frame| renderer.render_frame(&f, shaders),
                |_, trace| stats.push(gpus.simulate_frame(&trace, shaders)),
            );
            let writebacks = gpus.drain_l2();
            if let Some(last) = stats.last_mut() {
                last.memory.l2.writebacks += writebacks;
            }
            (stats, gpus.report())
        }
    }
}

/// Result of one full MEGsim accuracy experiment on one workload.
#[derive(Debug, Clone)]
pub struct MegsimRun {
    /// The clustering outcome.
    pub selection: Selection,
    /// MEGsim's estimated sequence totals.
    pub estimated: FrameStats,
    /// Ground-truth sequence totals.
    pub actual: FrameStats,
    /// Relative errors of the four Fig. 7 metrics.
    pub errors: MetricErrors,
}

impl MegsimRun {
    /// A run from its selection, estimate and ground-truth totals.
    pub(crate) fn new(selection: Selection, estimated: FrameStats, actual: FrameStats) -> Self {
        let errors = metric_errors(&estimated, &actual);
        Self {
            selection,
            estimated,
            actual,
            errors,
        }
    }

    /// Frames MEGsim simulates.
    pub fn frames_simulated(&self) -> usize {
        self.selection.k()
    }

    /// Table III reduction factor.
    pub fn reduction_factor(&self) -> f64 {
        self.selection.reduction_factor()
    }
}

/// Evaluates MEGsim against an already-simulated ground truth: selects
/// representatives from `matrix`, estimates totals from the per-frame
/// statistics and computes the Fig. 7 errors.
///
/// This is the single-GPU step of [`crate::flow::ground_truth`]. Over
/// one stored ground truth it re-runs the selection alone, e.g. to
/// sweep seeds or configurations.
///
/// # Panics
///
/// Panics if `matrix` and `per_frame` disagree in length.
pub fn evaluate_megsim(
    matrix: &FeatureMatrix,
    per_frame: &[FrameStats],
    config: &MegsimConfig,
) -> MegsimRun {
    assert_eq!(
        matrix.frames(),
        per_frame.len(),
        "feature matrix and statistics disagree in frame count"
    );
    let selection = select_representatives(matrix, config);
    let estimated = estimate_totals(&selection.representatives, |i| &per_frame[i]);
    MegsimRun::new(selection, estimated, sequence_totals(per_frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_workloads::{build, BENCHMARKS};

    #[test]
    fn single_pass_bounded_stream_is_fenced_and_sane() {
        let info = &BENCHMARKS[5]; // jjo
        let workload = build(info, 0.02, 8); // 100 frames
        let gpu_config = GpuConfig::small(192, 192);
        let megsim = MegsimConfig::default().with_seed(13);
        let streamed = characterize_stream(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            &megsim,
            &StreamClusterConfig::default()
                .with_reservoir_capacity(40)
                .with_batch_size(20),
            None,
        );
        assert!(
            streamed.peak_rows_retained <= 40 + 20,
            "peak = {}",
            streamed.peak_rows_retained
        );
        assert_eq!(streamed.selection.labels.len(), workload.frames());
        let total: usize = streamed
            .selection
            .representatives
            .iter()
            .map(|r| r.cluster_size)
            .sum();
        assert_eq!(total, workload.frames());
    }
}
