//! The original (seed) clustering engine, kept verbatim as the oracle
//! for the bound-pruned fast path in [`crate::kmeans`] and the blocked
//! silhouette in [`crate::silhouette`].
//!
//! Every Lloyd iteration recomputes the full O(n·k·d) distance scan and
//! every silhouette point re-walks all point pairs — exactly the code
//! the optimized engine replaced. The proptests at the bottom of this
//! file drive random matrices × `k` × seeds through both engines at
//! 1/2/8 threads and assert bit-equality (labels, centroids, WCSS,
//! iteration counts, silhouette scores, search outcomes); the
//! `reference` cargo feature exposes this module to benchmarks so
//! speedups are measured against the true baseline.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::bic::bic_score;
use crate::kmeans::{squared_distance, InitMethod, KMeansConfig, KMeansResult};
use crate::matrix::PointMatrix;
use crate::search::{SearchConfig, SearchResult};

/// The pre-optimization clustering engine: plain Lloyd's (full distance
/// scan per iteration), per-restart cold k-means++ seeding, and the
/// all-pairs silhouette. Namespaced as associated functions so callers
/// read `ReferenceKMeans::kmeans(...)` next to the optimized
/// `kmeans(...)`.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceKMeans;

impl ReferenceKMeans {
    /// The seed `kmeans`: full assignment scan every iteration, fresh
    /// buffers per call.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.k` is zero or exceeds the
    /// number of points.
    pub fn kmeans(data: &PointMatrix, config: &KMeansConfig) -> KMeansResult {
        assert!(!data.is_empty(), "k-means requires at least one point");
        let n = data.len();
        let dim = data.dim();
        assert!(config.k >= 1 && config.k <= n, "k must be in [1, n]");
        let k = config.k;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        // Centroids as one flat k×dim buffer, matching the data layout.
        let mut centroids: Vec<f64> = match config.init {
            InitMethod::KMeansPlusPlus => init_plus_plus(data, k, &mut rng),
            InitMethod::Random => init_random(data, k, &mut rng),
        };
        let mut labels = vec![0usize; n];
        let mut iterations = 0;
        for iter in 0..config.max_iterations {
            iterations = iter + 1;
            // Assignment step — integer outputs only, safe to parallelize.
            assign_labels(data, &centroids, &mut labels);
            // Update step: sequential so float accumulation order is fixed.
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (point, &label) in data.iter_rows().zip(&labels) {
                counts[label] += 1;
                for (s, v) in sums[label * dim..(label + 1) * dim].iter_mut().zip(point) {
                    *s += v;
                }
            }
            let mut movement = 0.0;
            for c in 0..k {
                let slot = c * dim..(c + 1) * dim;
                if counts[c] == 0 {
                    // Empty cluster: reseed to the point farthest from its
                    // centroid, the standard k-means repair.
                    let far = (0..n)
                        .max_by(|&i, &j| {
                            let di = point_centroid_d2(data, i, &centroids, labels[i], dim);
                            let dj = point_centroid_d2(data, j, &centroids, labels[j], dim);
                            di.partial_cmp(&dj).expect("NaN distance")
                        })
                        .expect("non-empty data");
                    movement += squared_distance(&centroids[slot.clone()], data.row(far));
                    centroids[slot].copy_from_slice(data.row(far));
                    continue;
                }
                let inv = 1.0 / counts[c] as f64;
                let mut delta = 0.0;
                for (s, cur) in sums[slot.clone()].iter().zip(&centroids[slot.clone()]) {
                    let d = s * inv - cur;
                    delta += d * d;
                }
                movement += delta;
                for (cur, s) in centroids[slot]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *cur = s * inv;
                }
            }
            if movement <= config.tolerance {
                break;
            }
        }
        // Final assignment with converged centroids.
        assign_labels(data, &centroids, &mut labels);
        let mut wcss = 0.0;
        for (i, point) in data.iter_rows().enumerate() {
            wcss += squared_distance(point, &centroids[labels[i] * dim..(labels[i] + 1) * dim]);
        }
        KMeansResult {
            centroids: centroids
                .chunks_exact(dim.max(1))
                .map(<[f64]>::to_vec)
                .collect(),
            labels,
            wcss,
            iterations,
        }
    }

    /// The seed `kmeans_best_of`: restarts fan out on the worker pool,
    /// each a fully cold run (restart `r` uses
    /// `config.seed ⊕ r · 0xD1B5_4A32_D192_ED03`, the same derivation
    /// [`crate::kmeans::restart_seed`] pins; ties keep the lowest
    /// restart index).
    ///
    /// # Panics
    ///
    /// Panics if `restarts` is zero or `data`/`config.k` are invalid.
    pub fn kmeans_best_of(
        data: &PointMatrix,
        config: &KMeansConfig,
        restarts: usize,
    ) -> KMeansResult {
        assert!(restarts >= 1, "need at least one restart");
        if restarts == 1 {
            return Self::kmeans(data, config);
        }
        let runs = megsim_exec::par_map_range(restarts, |r| {
            let seed = config.seed ^ (r as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            Self::kmeans(data, &KMeansConfig { seed, ..*config })
        });
        runs.into_iter()
            .reduce(|best, candidate| {
                if candidate.wcss < best.wcss {
                    candidate
                } else {
                    best
                }
            })
            .expect("restarts >= 1")
    }

    /// The seed silhouette: for every point, re-walk all other points
    /// and accumulate per-cluster distance sums.
    ///
    /// # Panics
    ///
    /// Panics if labels and points disagree in length.
    pub fn silhouette_score(data: &PointMatrix, result: &KMeansResult) -> f64 {
        assert_eq!(data.len(), result.labels.len(), "labels/points mismatch");
        let k = result.k();
        if k < 2 || data.len() < 2 {
            return 0.0;
        }
        let sizes = result.cluster_sizes();
        let mut total = 0.0;
        for (i, point) in data.iter_rows().enumerate() {
            let own = result.labels[i];
            if sizes[own] <= 1 {
                continue; // silhouette of a singleton is 0
            }
            // Mean distance to every cluster.
            let mut sums = vec![0.0f64; k];
            for (j, other) in data.iter_rows().enumerate() {
                if i == j {
                    continue;
                }
                sums[result.labels[j]] += crate::kmeans::euclidean_distance(point, other);
            }
            let a = sums[own] / (sizes[own] - 1) as f64;
            let b = (0..k)
                .filter(|&c| c != own && sizes[c] > 0)
                .map(|c| sums[c] / sizes[c] as f64)
                .fold(f64::INFINITY, f64::min);
            if !b.is_finite() {
                continue;
            }
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
        total / data.len() as f64
    }

    /// The §III-F search driven by the seed engine: identical BIC stop
    /// rule and threshold selection, but every candidate `k` pays
    /// `restarts` cold fits of the full-scan Lloyd's. Candidate `k`
    /// uses the same `seed ⊕ k · 0x9E37_79B9_7F4A_7C15` derivation the
    /// optimized search pins as [`crate::search::candidate_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn search_clusters(data: &PointMatrix, config: &SearchConfig) -> SearchResult {
        assert!(!data.is_empty(), "cannot cluster an empty dataset");
        let hard_max = config.max_k.min(data.len());
        let mut results: Vec<KMeansResult> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        let mut decreases = 0usize;
        for k in 1..=hard_max {
            let km_config = KMeansConfig::new(k)
                .with_seed(config.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .with_init(config.init);
            let result = Self::kmeans_best_of(data, &km_config, config.restarts);
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
}

fn point_centroid_d2(
    data: &PointMatrix,
    i: usize,
    centroids: &[f64],
    label: usize,
    dim: usize,
) -> f64 {
    squared_distance(data.row(i), &centroids[label * dim..(label + 1) * dim])
}

/// Labels every point with its nearest centroid, on the pool when the
/// problem is big enough to amortize the fan-out.
fn assign_labels(data: &PointMatrix, centroids: &[f64], labels: &mut [usize]) {
    let n = data.len();
    let dim = data.dim().max(1);
    let k = centroids.len() / dim;
    // Threshold: roughly the work of one frame's distance kernel below
    // which spawning threads costs more than it saves.
    const PAR_WORK: usize = 1 << 20;
    if n * k * dim >= PAR_WORK {
        let out =
            megsim_exec::par_map_range(n, |i| nearest_centroid(data.row(i), centroids, dim).0);
        labels.copy_from_slice(&out);
    } else {
        for (i, point) in data.iter_rows().enumerate() {
            labels[i] = nearest_centroid(point, centroids, dim).0;
        }
    }
}

fn nearest_centroid(point: &[f64], centroids: &[f64], dim: usize) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.chunks_exact(dim).enumerate() {
        let d = squared_distance(point, centroid);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

fn init_random(data: &PointMatrix, k: usize, rng: &mut SmallRng) -> Vec<f64> {
    // Sample k distinct indices (Floyd's algorithm would be fancier; a
    // retry loop is fine at these sizes).
    let mut chosen = Vec::with_capacity(k * data.dim());
    let mut used = std::collections::HashSet::new();
    while used.len() < k {
        let i = rng.gen_range(0..data.len());
        if used.insert(i) {
            chosen.extend_from_slice(data.row(i));
        }
    }
    chosen
}

fn init_plus_plus(data: &PointMatrix, k: usize, rng: &mut SmallRng) -> Vec<f64> {
    let first = rng.gen_range(0..data.len());
    let mut centroids = Vec::with_capacity(k * data.dim());
    centroids.extend_from_slice(data.row(first));
    let mut d2: Vec<f64> = data
        .iter_rows()
        .map(|p| squared_distance(p, data.row(first)))
        .collect();
    let mut count = 1;
    while count < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with a centroid; any point works.
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = 0;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
                idx = i;
            }
            idx
        };
        centroids.extend_from_slice(data.row(next));
        count += 1;
        for (i, p) in data.iter_rows().enumerate() {
            let d = squared_distance(p, data.row(next));
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, kmeans_best_of};
    use crate::search::search_clusters;
    use crate::silhouette::silhouette_score;
    use proptest::prelude::*;

    /// Random matrices shaped like normalized feature data: 2..40
    /// points of 1..6 dimensions, coordinates spanning sign changes and
    /// magnitudes so bound maintenance sees both tight and loose
    /// clusters. A quarter of the mass is snapped to a coarse grid so
    /// duplicate points (and therefore empty-cluster repairs and d = 0
    /// ties) actually occur.
    fn matrix_strategy() -> impl Strategy<Value = PointMatrix> {
        (1usize..6, 2usize..40).prop_flat_map(|(dim, n)| {
            proptest::collection::vec(-100.0f64..100.0, n * dim).prop_map(move |mut flat| {
                for v in flat.iter_mut().skip(3).step_by(4) {
                    *v = (*v / 25.0).round() * 25.0;
                }
                PointMatrix::from_flat(flat, dim)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The bound-pruned Lloyd's is bit-identical to the seed
        /// implementation — labels, centroids, WCSS and iteration
        /// counts — for both init methods, across seeds and thread
        /// counts.
        #[test]
        fn pruned_kmeans_matches_reference(
            data in matrix_strategy(),
            k_sel in 0usize..4,
            seed in 0u64..1 << 16,
        ) {
            let k = 1 + k_sel * (data.len() - 1) / 3;
            for init in [InitMethod::KMeansPlusPlus, InitMethod::Random] {
                let config = KMeansConfig::new(k).with_seed(seed).with_init(init);
                let expected = ReferenceKMeans::kmeans(&data, &config);
                for threads in [1usize, 2, 8] {
                    let got = megsim_exec::with_threads(threads, || kmeans(&data, &config));
                    prop_assert_eq!(&got, &expected);
                }
            }
        }

        /// Multi-restart selection (shared scratch, sequential restarts)
        /// picks the bitwise-same winner as the seed's cold parallel
        /// fan-out.
        #[test]
        fn best_of_matches_reference(
            data in matrix_strategy(),
            restarts in 1usize..6,
            seed in 0u64..1 << 16,
        ) {
            let k = (data.len() / 2).max(1);
            let config = KMeansConfig::new(k).with_seed(seed);
            let expected = ReferenceKMeans::kmeans_best_of(&data, &config, restarts);
            for threads in [1usize, 2, 8] {
                let got = megsim_exec::with_threads(threads, || kmeans_best_of(&data, &config, restarts));
                prop_assert_eq!(&got, &expected);
            }
        }

        /// The blocked, parallel silhouette reproduces the seed's
        /// all-pairs score bit-for-bit on arbitrary (even degenerate)
        /// clusterings.
        #[test]
        fn blocked_silhouette_matches_reference(
            data in matrix_strategy(),
            k_sel in 0usize..4,
            seed in 0u64..1 << 16,
        ) {
            let k = 1 + k_sel * (data.len() - 1) / 3;
            let result = ReferenceKMeans::kmeans(&data, &KMeansConfig::new(k).with_seed(seed));
            let expected = ReferenceKMeans::silhouette_score(&data, &result);
            for threads in [1usize, 2, 8] {
                let got = megsim_exec::with_threads(threads, || silhouette_score(&data, &result));
                prop_assert_eq!(got.to_bits(), expected.to_bits());
            }
        }

        /// The warm-started, memoized search selects the bitwise-same
        /// clustering (k, labels, centroids, BIC curve) as the seed
        /// search at every thread count.
        #[test]
        fn warm_search_matches_reference(
            data in matrix_strategy(),
            seed in 0u64..1 << 16,
            restarts in 1usize..4,
        ) {
            let config = SearchConfig::default()
                .with_seed(seed)
                .with_max_k(12)
                .with_restarts(restarts);
            let expected = ReferenceKMeans::search_clusters(&data, &config);
            for threads in [1usize, 2, 8] {
                let got = megsim_exec::with_threads(threads, || search_clusters(&data, &config));
                prop_assert_eq!(got.k, expected.k);
                prop_assert_eq!(&got.bic_scores, &expected.bic_scores);
                prop_assert_eq!(&got.clustering, &expected.clustering);
            }
        }
    }
}
