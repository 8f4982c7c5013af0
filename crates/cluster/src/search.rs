//! The paper's BIC-driven search for the number of clusters (§III-F).
//!
//! MEGsim "starts with a single cluster … and iteratively increases this
//! value. For every cluster, the BIC score is calculated and the
//! algorithm stops when a BIC score lower than the previous one is
//! obtained. Finally, the algorithm chooses the clustering that achieves
//! a BIC score that is at least [T = 85 %] of the spread between the
//! largest and the smallest BIC score."
//!
//! Each candidate `k` is fit with the paper's multi-seeding robustness
//! protocol: `restarts` independently seeded k-means runs, lowest WCSS
//! wins. Seeds derive from `(seed, k, restart index)` only — candidate
//! `k` uses [`candidate_seed`], restart `r` within it
//! [`crate::kmeans::restart_seed`], both pinned by unit tests — so the
//! search is bit-identical at any thread count.
//!
//! The whole search shares one [`SearchScratch`]: assignment labels,
//! Hamerly bounds, per-cluster accumulators and the memoized D²-seeding
//! distance rows persist across every restart of every candidate `k`
//! (the data never changes mid-search), so steady-state iterations
//! allocate nothing and k-means++ reuses seeding rows it computed for
//! earlier candidates. The parallelism lives *inside* each fit's
//! assignment step, which fans out in deterministic fixed-size chunks
//! on the `megsim-exec` pool.

use crate::bic::bic_score;
use crate::kmeans::{kmeans_best_of_with, InitMethod, KMeansConfig, KMeansResult, KMeansScratch};
use crate::matrix::PointMatrix;

/// Configuration of the cluster search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// BIC threshold `T` of §III-F (paper default 0.85).
    pub threshold: f64,
    /// Hard upper bound on `k` (safety net; the BIC stop normally fires
    /// first).
    pub max_k: usize,
    /// Consecutive BIC decreases tolerated before stopping. The paper's
    /// rule is `1` (stop at the first decrease); the default of `2`
    /// tolerates the occasional local BIC dip that k-means init noise
    /// produces even under multi-seeding, and degrades gracefully to the
    /// paper's rule via [`SearchConfig::with_patience`]. (Before
    /// [`SearchConfig::restarts`] multi-seeding existed, the default was
    /// `3`; the smoother multi-seeded BIC curve lets the search stop
    /// earlier without mistaking init noise for the true BIC peak.)
    pub patience: usize,
    /// Base RNG seed. Candidate `k` uses [`candidate_seed`]`(seed, k)`
    /// (`seed ⊕ k · 0x9E37_79B9_7F4A_7C15`) so every `k` gets an
    /// independent stream; restart `r` within a candidate then derives
    /// via [`crate::kmeans::restart_seed`]. Both functions are pinned
    /// by unit tests — changing either would change which restart wins
    /// and therefore every downstream representative.
    pub seed: u64,
    /// Centroid initialization passed through to k-means.
    pub init: InitMethod,
    /// Independently seeded k-means runs per candidate `k`, best WCSS
    /// wins. They are independent, so they run concurrently on the
    /// worker pool. `1` reproduces the old single-run search; the
    /// default of `4` smooths the BIC curve enough that the threshold
    /// rule stops picking init-noise artifacts.
    pub restarts: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            threshold: 0.85,
            max_k: 128,
            patience: 2,
            seed: 0,
            init: InitMethod::KMeansPlusPlus,
            restarts: 4,
        }
    }
}

impl SearchConfig {
    /// Sets the threshold `T` (builder style).
    pub fn with_threshold(mut self, t: f64) -> Self {
        assert!((0.0..=1.0).contains(&t), "threshold must be in [0, 1]");
        self.threshold = t;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum `k` (builder style).
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        assert!(max_k >= 1, "max_k must be at least 1");
        self.max_k = max_k;
        self
    }

    /// Sets the patience (builder style).
    pub fn with_patience(mut self, patience: usize) -> Self {
        assert!(patience >= 1, "patience must be at least 1");
        self.patience = patience;
        self
    }

    /// Sets the k-means restarts per candidate `k` (builder style).
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        assert!(restarts >= 1, "restarts must be at least 1");
        self.restarts = restarts;
        self
    }
}

/// Outcome of the cluster search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The selected clustering.
    pub clustering: KMeansResult,
    /// The selected number of clusters.
    pub k: usize,
    /// BIC score of every evaluated `k`, starting at `k = 1`.
    pub bic_scores: Vec<f64>,
}

impl SearchResult {
    /// The BIC score of the selected clustering.
    pub fn selected_bic(&self) -> f64 {
        self.bic_scores[self.k - 1]
    }
}

/// Derives the k-means seed of candidate `k` from the search's base
/// seed — `seed ⊕ k · 0x9E37_79B9_7F4A_7C15` (the 64-bit golden-ratio
/// multiplier, pinned). Every search path goes through this function; a
/// unit test pins its exact output so future edits cannot silently
/// change which restart wins (which would change every downstream
/// representative).
#[inline]
pub fn candidate_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Reusable buffers of the §III-F search: the shared k-means scratch
/// (labels, bounds, accumulators, memoized D²-seeding rows) plus the
/// per-candidate result/score accumulators. One scratch serves any
/// number of searches; every [`search_clusters_with`] call re-keys the
/// data-dependent state itself.
#[derive(Debug, Default)]
pub struct SearchScratch {
    kmeans: KMeansScratch,
}

impl SearchScratch {
    /// A fresh scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs the §III-F search over `data`.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn search_clusters(data: &PointMatrix, config: &SearchConfig) -> SearchResult {
    search_clusters_with(data, config, &mut SearchScratch::new())
}

/// Scratch-reusing variant of [`search_clusters`] for callers that run
/// many searches (the experiment sweeps): buffer capacities carry over
/// between calls, while data-dependent state (the D²-seeding cache) is
/// reset on entry. Results are bitwise those of [`search_clusters`].
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn search_clusters_with(
    data: &PointMatrix,
    config: &SearchConfig,
    scratch: &mut SearchScratch,
) -> SearchResult {
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    scratch.kmeans.reset_for_new_data();
    let hard_max = config.max_k.min(data.len());
    let mut results: Vec<KMeansResult> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    let mut decreases = 0usize;
    for k in 1..=hard_max {
        let km_config = KMeansConfig::new(k)
            .with_seed(candidate_seed(config.seed, k))
            .with_init(config.init);
        let result = kmeans_best_of_with(data, &km_config, config.restarts, &mut scratch.kmeans);
        let score = bic_score(data, &result);
        let stop = match scores.last() {
            Some(&prev) if score < prev => {
                decreases += 1;
                decreases >= config.patience
            }
            Some(_) => {
                decreases = 0;
                false
            }
            None => false,
        };
        results.push(result);
        scores.push(score);
        if stop {
            break;
        }
    }
    // Threshold selection over the *finite* scores (k = n fits can be
    // -inf and must not poison the spread).
    let finite: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    let chosen_k = if finite.is_empty() {
        1
    } else {
        let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        // Clamp so T = 1.0 still matches the maximum despite rounding.
        let cutoff = (min + config.threshold * (max - min)).min(max);
        scores
            .iter()
            .position(|&s| s.is_finite() && s >= cutoff)
            .map(|i| i + 1)
            .unwrap_or(1)
    };
    SearchResult {
        clustering: results.swap_remove(chosen_k - 1),
        k: chosen_k,
        bic_scores: scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, centers: &[(f64, f64)]) -> PointMatrix {
        let mut pts = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..n_per {
                let a = (i as f64 + ci as f64 * 3.0) * 0.9;
                pts.push(vec![cx + a.sin() * 0.4, cy + a.cos() * 0.4]);
            }
        }
        PointMatrix::from_rows(pts)
    }

    #[test]
    fn finds_the_obvious_cluster_count() {
        let data = blobs(30, &[(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)]);
        let r = search_clusters(&data, &SearchConfig::default().with_seed(11));
        assert_eq!(r.k, 4, "bic_scores = {:?}", r.bic_scores);
    }

    #[test]
    fn single_blob_yields_few_clusters() {
        // A single box-shaped cloud: far fewer clusters than points.
        let data = PointMatrix::from_rows(
            (0..40)
                .map(|i| {
                    let u = ((i * 13) % 40) as f64 / 40.0;
                    let v = ((i * 29) % 40) as f64 / 40.0;
                    vec![5.0 + u * 0.8, 5.0 + v * 0.8]
                })
                .collect(),
        );
        let r = search_clusters(&data, &SearchConfig::default().with_seed(2));
        assert!(r.k <= 6, "k = {}", r.k);
    }

    #[test]
    fn lower_threshold_never_increases_k() {
        let data = blobs(25, &[(0.0, 0.0), (8.0, 0.0), (16.0, 0.0)]);
        let strict = search_clusters(&data, &SearchConfig::default().with_threshold(1.0));
        let loose = search_clusters(&data, &SearchConfig::default().with_threshold(0.2));
        assert!(loose.k <= strict.k);
    }

    #[test]
    fn respects_max_k() {
        let data = blobs(10, &[(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)]);
        let r = search_clusters(&data, &SearchConfig::default().with_max_k(2));
        assert!(r.k <= 2);
    }

    #[test]
    fn selected_bic_is_consistent() {
        let data = blobs(20, &[(0.0, 0.0), (30.0, 30.0)]);
        let r = search_clusters(&data, &SearchConfig::default());
        assert_eq!(r.selected_bic(), r.bic_scores[r.k - 1]);
        assert_eq!(r.clustering.k(), r.k);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(15, &[(0.0, 0.0), (10.0, 10.0)]);
        let a = search_clusters(&data, &SearchConfig::default().with_seed(99));
        let b = search_clusters(&data, &SearchConfig::default().with_seed(99));
        assert_eq!(a.k, b.k);
        assert_eq!(a.bic_scores, b.bic_scores);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = blobs(20, &[(0.0, 0.0), (12.0, 0.0), (0.0, 12.0)]);
        let config = SearchConfig::default().with_seed(5).with_restarts(8);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            runs.push(megsim_exec::with_threads(threads, || {
                search_clusters(&data, &config)
            }));
        }
        for pair in runs.windows(2) {
            assert_eq!(pair[0].k, pair[1].k);
            assert_eq!(pair[0].bic_scores, pair[1].bic_scores);
            assert_eq!(pair[0].clustering, pair[1].clustering);
        }
    }

    #[test]
    fn single_restart_matches_plain_kmeans_search() {
        let data = blobs(15, &[(0.0, 0.0), (9.0, 9.0)]);
        let multi = search_clusters(&data, &SearchConfig::default().with_seed(3));
        let single = search_clusters(
            &data,
            &SearchConfig::default().with_seed(3).with_restarts(1),
        );
        // Restarts only ever improve (or tie) the per-k fit, so the
        // multi-restart search never selects a worse clustering at the
        // same k.
        assert!(multi.k >= 1 && single.k >= 1);
    }

    #[test]
    fn tiny_dataset_does_not_panic() {
        let data = PointMatrix::from_rows(vec![vec![0.0], vec![1.0]]);
        let r = search_clusters(&data, &SearchConfig::default());
        assert!(r.k >= 1);
    }

    #[test]
    fn candidate_seed_is_pinned() {
        // The exact derivation behind every per-k k-means stream:
        // seed ⊕ k · 0x9E37_79B9_7F4A_7C15. These literals must never
        // drift — a different derivation changes which restart wins for
        // every candidate and therefore every selected representative.
        assert_eq!(candidate_seed(0, 1), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(candidate_seed(0, 2), 0x3C6E_F372_FE94_F82A);
        assert_eq!(candidate_seed(0, 3), 0xDAA6_6D2C_7DDF_743F);
        assert_eq!(candidate_seed(0, 4), 0x78DD_E6E5_FD29_F054);
        assert_eq!(candidate_seed(7, 1), 0x9E37_79B9_7F4A_7C12);
        assert_eq!(
            candidate_seed(0xFFFF_FFFF_FFFF_FFFF, 1),
            !0x9E37_79B9_7F4A_7C15u64
        );
    }

    #[test]
    fn scratch_reuse_across_searches_is_bitwise_neutral() {
        // One scratch serving searches over *different* datasets must
        // produce exactly what fresh-scratch searches produce — the
        // data-dependent seeding cache is re-keyed per call.
        let data_a = blobs(20, &[(0.0, 0.0), (15.0, 0.0)]);
        let data_b = blobs(15, &[(0.0, 0.0), (7.0, 7.0), (0.0, 14.0)]);
        let config = SearchConfig::default().with_seed(31);
        let mut scratch = SearchScratch::new();
        for data in [&data_a, &data_b, &data_a] {
            let warm = search_clusters_with(data, &config, &mut scratch);
            let cold = search_clusters(data, &config);
            assert_eq!(warm.k, cold.k);
            assert_eq!(warm.bic_scores, cold.bic_scores);
            assert_eq!(warm.clustering, cold.clustering);
        }
    }
}
