//! # megsim-core
//!
//! The MEGsim methodology (ISPASS 2022): characterize every frame of a
//! graphics workload by per-shader execution counts and primitive
//! counts, cluster similar frames with k-means scored by BIC, and
//! simulate only one representative frame per cluster — cutting
//! cycle-accurate simulation time by two orders of magnitude at ~1 %
//! error.
//!
//! The crate maps one-to-one onto paper §III:
//!
//! * [`features`] — the vector of characteristics (§III-B, Fig. 2)
//! * [`normalize`](mod@normalize) — power-derived group weights (§III-C, Fig. 4)
//! * [`similarity`] — the frame Similarity Matrix (§III-D, Fig. 5)
//! * [`pipeline`] — clustering and representative selection (§III-E/F)
//! * [`estimate`] — statistic scaling and accuracy metrics (§V-B)
//! * [`random_sampling`] — the §V-C baseline
//! * [`evaluate`] — the passes over `megsim-funcsim` + `megsim-timing`:
//!   characterization and cycle-level simulation
//! * [`flow`] — the paper's flow end to end over a [`flow::FrameSource`]:
//!   select, simulate the representatives, scale and, if asked, the
//!   ground truth
//! * [`batch`] — many campaigns on one worker pool and one frame cache
//! * [`frame_cache`] — the run's content-addressed [`FrameCache`],
//!   passed to every pass that may reuse a frame result
//!
//! ```no_run
//! use megsim_core::flow::{self, Flow};
//! use megsim_core::pipeline::MegsimConfig;
//! use megsim_core::FrameCache;
//! use megsim_timing::GpuConfig;
//! use megsim_workloads::by_alias;
//!
//! let workload = by_alias("jjo", 0.1, 42).expect("known benchmark");
//! let gpu = GpuConfig::mali450_like();
//! // One cache for the run: later passes reuse earlier frame results.
//! let cache = FrameCache::new();
//! let flow = Flow {
//!     cache: Some(&cache),
//!     ..Flow::new(&gpu, MegsimConfig::default())
//! };
//! // Any (shaders, frame iterator factory) pair is a frame source.
//! let source = (workload.shaders(), || workload.iter_frames());
//! // One full simulation: the estimate and the error it would make.
//! let run = flow::ground_truth(&source, &flow).expect("frames").run();
//! println!(
//!     "simulate {} of {} frames ({}x), cycles error {:.2}%",
//!     run.frames_simulated(),
//!     workload.frames(),
//!     run.reduction_factor(),
//!     run.errors.cycles * 100.0
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod estimate;
pub mod evaluate;
pub mod features;
pub mod flow;
pub mod frame_cache;
pub mod normalize;
pub mod pipeline;
pub mod random_sampling;
pub mod similarity;

pub use batch::{parse_manifest, run_batch, BatchJob, BatchOp, BatchReport, CampaignReport};
pub use estimate::{estimate_totals, metric_errors, scaled_totals, sequence_totals, MetricErrors};
pub use evaluate::{
    characterize_sequence, characterize_simulated, characterize_stream, evaluate_megsim, simulate,
    FrameStart, MegsimRun,
};
pub use features::{
    characterize_frame, characterize_frame_into, feature_matrix, CharacterizationConfig,
    FeatureMatrix,
};
pub use frame_cache::{FrameCache, TierCounts};
pub use normalize::{normalize, GroupWeights};
pub use pipeline::{
    select_representatives, select_representatives_stream, MegsimConfig, Representative, Selection,
    StreamClusterConfig, StreamSelection,
};
pub use similarity::SimilarityMatrix;
