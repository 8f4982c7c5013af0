//! The MEGsim selection pipeline: characteristic vectors → normalization
//! → k-means/BIC search → cluster representatives (paper §III).

use serde::{Deserialize, Serialize};

use megsim_cluster::{search_clusters, SearchConfig, StreamClusterer, StreamConfig};

use crate::features::{CharacterizationConfig, FeatureMatrix};
use crate::normalize::{normalize, GroupWeights, RunningGroupMass};

/// Full configuration of the MEGsim methodology.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MegsimConfig {
    /// Characterization options (§III-B).
    pub characterization: CharacterizationConfig,
    /// Group weights (§III-C).
    pub weights: GroupWeights,
    /// Cluster-search options (§III-E/F).
    pub search: SearchConfig,
}

impl MegsimConfig {
    /// The paper's exact configuration: T = 0.85 and the strict
    /// "stop at the first BIC decrease" rule of §III-F.
    #[cfg(test)]
    fn paper() -> Self {
        let mut cfg = Self::default();
        cfg.search = cfg.search.with_patience(1);
        cfg
    }

    /// Sets the k-means/BIC seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.search.seed = seed;
        self
    }
}

/// One selected representative frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Representative {
    /// Frame index within the sequence.
    pub frame_index: usize,
    /// Number of frames in the representative's cluster — the scaling
    /// factor applied to its simulated statistics.
    pub cluster_size: usize,
}

/// Output of the selection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// One representative per cluster, in cluster order.
    pub representatives: Vec<Representative>,
    /// Cluster label of every frame.
    pub labels: Vec<usize>,
    /// BIC score of every evaluated `k` (diagnostics / Fig. 6 dumps).
    pub bic_scores: Vec<f64>,
}

impl Selection {
    /// Number of clusters (= frames MEGsim will simulate).
    pub fn k(&self) -> usize {
        self.representatives.len()
    }

    /// The paper's Table III "reduction factor": total frames divided by
    /// simulated frames.
    pub fn reduction_factor(&self) -> f64 {
        self.labels.len() as f64 / self.k() as f64
    }
}

/// Memory knobs of the streaming selection path (the §III-E/F search
/// itself comes from [`MegsimConfig::search`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamClusterConfig {
    /// Raw feature rows retained in the reservoir; `0` = unbounded
    /// (the exact mode, bitwise [`select_representatives`]).
    pub reservoir_capacity: usize,
    /// Rows per mini-batch micro-centroid update.
    pub batch_size: usize,
    /// Micro-centroids sketching evicted frames.
    pub micro_clusters: usize,
}

impl Default for StreamClusterConfig {
    fn default() -> Self {
        let d = StreamConfig::default();
        Self {
            reservoir_capacity: d.reservoir_capacity,
            batch_size: d.batch_size,
            micro_clusters: d.micro_clusters,
        }
    }
}

impl StreamClusterConfig {
    /// The exact (unbounded-reservoir) mode — the bit-identity oracle.
    pub fn exact() -> Self {
        Self {
            reservoir_capacity: 0,
            ..Self::default()
        }
    }

    /// Sets the reservoir capacity (builder style; `0` = unbounded).
    pub fn with_reservoir_capacity(mut self, capacity: usize) -> Self {
        self.reservoir_capacity = capacity;
        self
    }

    /// Sets the mini-batch size (builder style).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch_size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// The cluster-crate configuration with the search options filled
    /// in from `search`.
    pub(crate) fn to_stream_config(self, search: &SearchConfig) -> StreamConfig {
        StreamConfig::default()
            .with_reservoir_capacity(self.reservoir_capacity)
            .with_batch_size(self.batch_size)
            .with_micro_clusters(self.micro_clusters)
            .with_search(*search)
    }
}

/// Output of the streaming selection path: the batch-shaped
/// [`Selection`] plus streaming diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSelection {
    /// The selection, same shape as the batch path's.
    pub selection: Selection,
    /// Rows retained in the reservoir at finish time.
    pub reservoir_len: usize,
    /// High-water mark of raw feature rows retained at any instant —
    /// the bounded-memory fence (reservoir + one mini-batch window).
    pub peak_rows_retained: usize,
}

/// Streaming counterpart of [`select_representatives`]: one pass over
/// the rows, feeding the running §III-C group masses and the online
/// clusterer together, with peak memory bounded by the reservoir plus
/// one mini-batch (never the full matrix — this entry point takes one
/// only for API symmetry and the oracle tests; the truly single-pass
/// producer is `characterize_stream`).
///
/// With an unbounded reservoir the output selection is **bitwise**
/// [`select_representatives`]: the running masses reproduce the batch
/// normalization fold exactly, the reservoir holds every row in
/// arrival order, and the finishing pass is the same §III-F search.
///
/// # Panics
///
/// Panics if the matrix is empty.
pub fn select_representatives_stream(
    matrix: &FeatureMatrix,
    config: &MegsimConfig,
    stream: &StreamClusterConfig,
) -> StreamSelection {
    assert!(matrix.frames() > 0, "cannot select from zero frames");
    let mut clusterer = StreamClusterer::new(matrix.dim(), stream.to_stream_config(&config.search));
    let mut mass = RunningGroupMass::new(matrix.vscv_len, matrix.fscv_len);
    let mut scales = Vec::new();
    for row in matrix.rows.iter_rows() {
        mass.add_row(row);
        mass.column_scales_into(&config.weights, &mut scales);
        clusterer.set_scales(&scales);
        clusterer.push(row);
    }
    finish_stream(clusterer)
}

/// Converts a finished [`StreamClusterer`] into a [`StreamSelection`].
pub(crate) fn finish_stream(clusterer: StreamClusterer) -> StreamSelection {
    let outcome = clusterer.finish();
    let representatives = outcome
        .representatives
        .into_iter()
        .map(|(frame_index, cluster_size)| Representative {
            frame_index,
            cluster_size,
        })
        .collect();
    StreamSelection {
        selection: Selection {
            representatives,
            labels: outcome.labels,
            bic_scores: outcome.bic_scores,
        },
        reservoir_len: outcome.reservoir_len,
        peak_rows_retained: outcome.peak_rows_retained,
    }
}

/// Runs normalization + clustering + representative selection on a raw
/// feature matrix.
///
/// # Panics
///
/// Panics if the matrix is empty.
pub fn select_representatives(matrix: &FeatureMatrix, config: &MegsimConfig) -> Selection {
    assert!(matrix.frames() > 0, "cannot select from zero frames");
    let data = normalize(matrix, &config.weights);
    let found = search_clusters(&data, &config.search);
    let reps = found.clustering.representatives(&data);
    let sizes = found.clustering.cluster_sizes();
    let representatives = reps
        .into_iter()
        .zip(sizes)
        .map(|(frame_index, cluster_size)| Representative {
            frame_index,
            cluster_size,
        })
        .collect();
    Selection {
        representatives,
        labels: found.clustering.labels,
        bic_scores: found.bic_scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic two-phase feature matrix: 30 "menu" frames and 30
    /// "gameplay" frames with very different shader activity.
    fn two_phase_matrix() -> FeatureMatrix {
        let mut rows = Vec::new();
        for i in 0..60 {
            let jitter = (i as f64 * 0.7).sin() * 5.0;
            if i % 2 == 0 {
                rows.push(vec![100.0 + jitter, 0.0, 500.0 + jitter, 0.0, 50.0]);
            } else {
                rows.push(vec![0.0, 900.0 + jitter, 0.0, 4000.0 + jitter, 300.0]);
            }
        }
        FeatureMatrix::from_rows(rows, 2, 2)
    }

    #[test]
    fn separates_the_two_phases() {
        let sel = select_representatives(&two_phase_matrix(), &MegsimConfig::default());
        // T = 0.85 may refine each phase into sub-clusters, but no
        // cluster may mix the two phases (they are far apart).
        assert!(
            sel.k() >= 2 && sel.k() <= 8,
            "k = {} bic = {:?}",
            sel.k(),
            sel.bic_scores
        );
        assert_eq!(sel.labels.len(), 60);
        let sizes: Vec<usize> = sel.representatives.iter().map(|r| r.cluster_size).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 60);
        for c in 0..sel.k() {
            let members: Vec<usize> = (0..60).filter(|&i| sel.labels[i] == c).collect();
            assert!(
                members.iter().all(|m| m % 2 == members[0] % 2),
                "cluster {c} mixes phases: {members:?}"
            );
        }
    }

    #[test]
    fn representatives_belong_to_their_clusters() {
        let sel = select_representatives(&two_phase_matrix(), &MegsimConfig::default());
        for (c, rep) in sel.representatives.iter().enumerate() {
            assert_eq!(sel.labels[rep.frame_index], c);
        }
    }

    #[test]
    fn reduction_factor_is_n_over_k() {
        let sel = select_representatives(&two_phase_matrix(), &MegsimConfig::default());
        let expected = 60.0 / sel.k() as f64;
        assert!((sel.reduction_factor() - expected).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = two_phase_matrix();
        let a = select_representatives(&m, &MegsimConfig::default().with_seed(5));
        let b = select_representatives(&m, &MegsimConfig::default().with_seed(5));
        assert_eq!(a, b);
    }

    #[test]
    fn golden_selection_on_the_paper_shape_workload() {
        // Pins the exact (k, labels, representatives) the §III-F search
        // chooses on the synthetic two-phase workload under the paper's
        // configuration. The clustering fast path guarantees bit-
        // identity with the seed implementation, so these values may
        // only change when the methodology itself (seeding, stop rule,
        // threshold) deliberately changes — never from an optimization.
        let sel = select_representatives(&two_phase_matrix(), &MegsimConfig::paper().with_seed(42));
        assert_eq!(sel.k(), 7);
        let expected_period = [5, 2, 4, 2, 5, 6, 0, 1, 0, 3, 4, 2, 4, 3, 0, 1, 0, 6];
        let expected_labels: Vec<usize> = (0..60).map(|i| expected_period[i % 18]).collect();
        assert_eq!(sel.labels, expected_labels);
        let reps: Vec<(usize, usize)> = sel
            .representatives
            .iter()
            .map(|r| (r.frame_index, r.cluster_size))
            .collect();
        assert_eq!(
            reps,
            vec![
                (8, 12),
                (51, 6),
                (39, 11),
                (45, 6),
                (12, 10),
                (54, 8),
                (59, 7)
            ]
        );
        assert_eq!(sel.bic_scores.len(), 22);
        let selected = sel.bic_scores[sel.k() - 1];
        assert!(
            (selected - 3048.1742055005957).abs() < 1e-9,
            "selected BIC drifted: {selected}"
        );
    }

    #[test]
    fn exact_streaming_selection_is_bitwise_the_batch_selection() {
        let m = two_phase_matrix();
        for config in [
            MegsimConfig::default().with_seed(42),
            MegsimConfig::paper().with_seed(42),
        ] {
            let batch = select_representatives(&m, &config);
            let streamed = select_representatives_stream(
                &m,
                &config,
                &StreamClusterConfig::exact().with_batch_size(16),
            );
            assert_eq!(streamed.selection, batch);
            assert_eq!(streamed.reservoir_len, 60);
        }
    }

    #[test]
    fn exact_streaming_matches_batch_across_thread_counts() {
        let m = two_phase_matrix();
        let config = MegsimConfig::default().with_seed(42);
        let batch = select_representatives(&m, &config);
        for threads in [1usize, 2, 8] {
            let streamed = megsim_exec::with_threads(threads, || {
                select_representatives_stream(&m, &config, &StreamClusterConfig::exact())
            });
            assert_eq!(streamed.selection, batch, "threads = {threads}");
        }
    }

    #[test]
    fn bounded_streaming_keeps_the_phases_apart() {
        let m = two_phase_matrix();
        let config = MegsimConfig::default().with_seed(42);
        let streamed = select_representatives_stream(
            &m,
            &config,
            &StreamClusterConfig::default()
                .with_reservoir_capacity(30)
                .with_batch_size(10),
        );
        let sel = &streamed.selection;
        assert!(streamed.peak_rows_retained <= 30 + 10);
        assert_eq!(sel.labels.len(), 60);
        let total: usize = sel.representatives.iter().map(|r| r.cluster_size).sum();
        assert_eq!(total, 60);
        assert!(sel.k() >= 2, "k = {}", sel.k());
        // No cluster may mix the two far-apart phases, even with half
        // the frames labeled through the micro-centroid sketch.
        for c in 0..sel.k() {
            let members: Vec<usize> = (0..60).filter(|&i| sel.labels[i] == c).collect();
            assert!(
                members.iter().all(|m| m % 2 == members[0] % 2),
                "cluster {c} mixes phases: {members:?}"
            );
        }
    }

    #[test]
    fn selection_is_identical_across_thread_counts() {
        // Full pipeline (normalize → warm search → representatives) at
        // 1/2/8 threads: the bit-identity contract end to end.
        let m = two_phase_matrix();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            runs.push(megsim_exec::with_threads(threads, || {
                select_representatives(&m, &MegsimConfig::default().with_seed(42))
            }));
        }
        for pair in runs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }
}
