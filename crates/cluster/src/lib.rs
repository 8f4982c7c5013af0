//! # megsim-cluster
//!
//! Clustering engine of the MEGsim reproduction: Lloyd's k-means with
//! k-means++ initialization (paper §III-E), BIC scoring in the
//! Pelleg/Moore x-means formulation the paper cites (Eq. 5–6), and the
//! BIC-threshold search loop of §III-F that picks the number of
//! clusters.
//!
//! Observations live in a contiguous row-major [`PointMatrix`] so the
//! distance kernels stream cache lines instead of pointer-chasing
//! per-row allocations, and the heavy stages (label assignment on large
//! inputs, multi-seed restarts) fan out on the deterministic
//! `megsim-exec` worker pool — results are bit-identical at any thread
//! count.
//!
//! ```
//! use megsim_cluster::{search_clusters, PointMatrix, SearchConfig};
//!
//! // Two obvious groups of 1-D points.
//! let data = PointMatrix::from_rows(
//!     (0..20)
//!         .map(|i| vec![if i % 2 == 0 { 0.0 } else { 100.0 } + (i as f64) * 0.1])
//!         .collect(),
//! );
//! let found = search_clusters(&data, &SearchConfig::default());
//! assert_eq!(found.k, 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bic;
pub mod kmeans;
/// The original (seed) clustering engine, retained verbatim as the
/// bit-exactness oracle and benchmark baseline for the bound-pruned
/// fast path.
#[cfg(any(test, feature = "reference"))]
pub mod kmeans_reference;
pub mod matrix;
pub mod search;
pub mod silhouette;
pub mod stream;

pub use bic::bic_score;
pub use kmeans::{
    euclidean_distance, kmeans, kmeans_best_of, restart_seed, squared_distance, InitMethod,
    KMeansConfig, KMeansResult,
};
#[cfg(any(test, feature = "reference"))]
pub use kmeans_reference::ReferenceKMeans;
pub use matrix::{PointMatrix, SoaPoints};
pub use search::{candidate_seed, search_clusters, SearchConfig, SearchResult, SearchScratch};
pub use silhouette::{
    best_by_silhouette, silhouette_score, try_best_by_silhouette, try_silhouette_score,
    SilhouetteError,
};
pub use stream::{reservoir_seed, StreamClusterer, StreamConfig, StreamOutcome};
