//! Lloyd's k-means with k-means++ or uniform random initialization,
//! accelerated by Hamerly-style distance bounds.
//!
//! This is the clustering engine of paper §III-E: it partitions the
//! per-frame vectors of characteristics into `k` clusters minimizing the
//! within-cluster sum of squares (WCSS, Eq. 4).
//!
//! ## The bound-pruning invariant
//!
//! The assignment step keeps, per point, an upper bound `u(i)` on the
//! distance to its assigned centroid and a lower bound `l(i)` on the
//! distance to every *other* centroid, maintained across iterations from
//! the per-centroid movements. When `u(i) + margin ≤ l(i)` the full
//! centroid scan provably returns the stored label, so it is skipped —
//! and whenever a distance *is* computed it uses the exact per-pair
//! [`squared_distance`] op sequence of the original implementation (the
//! vectorized scan and seeding kernels only run independent
//! accumulators side by side, never reordering any pair's sum), the
//! centroid update accumulates in fixed sequential point order, and the
//! `margin` (a 10⁻⁹-of-the-data-diameter safety band, orders of
//! magnitude above any rounding the bound maintenance can accumulate)
//! makes the prune test conservative under floating point. Labels,
//! centroids, WCSS and iteration counts are therefore bit-identical to
//! the retained seed implementation
//! (`crate::kmeans_reference::ReferenceKMeans`), which the proptest
//! oracles in that module enforce.
//!
//! Observations live in a contiguous [`PointMatrix`]; on large problems
//! the assignment step fans out in fixed-size chunks on the
//! `megsim-exec` pool (chunk boundaries never depend on the thread
//! count), so results are bit-identical at any thread count.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::matrix::PointMatrix;

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two equal-length vectors (paper §III-D).
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMethod {
    /// D²-weighted seeding (Arthur & Vassilvitskii). Default; this is
    /// what a modern SimPoint-style toolchain uses.
    #[default]
    KMeansPlusPlus,
    /// Uniform random distinct points — the ablation baseline.
    Random,
}

/// Configuration of one k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on total centroid movement (squared).
    pub tolerance: f64,
    /// Initialization strategy.
    pub init: InitMethod,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
}

impl KMeansConfig {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            tolerance: 1e-9,
            init: InitMethod::KMeansPlusPlus,
            seed: 0,
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initialization method (builder style).
    pub(crate) fn with_init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }
}

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Final centroids (`k` vectors of dimension `d`).
    pub centroids: Vec<Vec<f64>>,
    /// Cluster label of each input point.
    pub labels: Vec<usize>,
    /// Within-cluster sum of squares (Eq. 4's objective).
    pub wcss: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of clusters.
    pub(crate) fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Population of each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Index of the point closest to each centroid — the paper's cluster
    /// *representatives* (§III-E): "the selected frame for a cluster is
    /// the one with the lowest distance" to the centroid.
    pub fn representatives(&self, data: &PointMatrix) -> Vec<usize> {
        let mut best: Vec<(usize, f64)> = vec![(usize::MAX, f64::INFINITY); self.k()];
        for (i, point) in data.iter_rows().enumerate() {
            let c = self.labels[i];
            let d = squared_distance(point, &self.centroids[c]);
            if d < best[c].1 {
                best[c] = (i, d);
            }
        }
        best.into_iter().map(|(i, _)| i).collect()
    }
}

/// Derives the seed of restart `r` from a base configuration seed —
/// `seed ⊕ r · 0xD1B5_4A32_D192_ED03` (a pinned odd multiplier, so
/// every restart gets an independent stream and restart 0 reproduces
/// the base seed). [`kmeans_best_of`] and the §III-F search both go
/// through this function; a unit test pins its exact output so future
/// edits cannot silently change which restart wins.
#[inline]
pub fn restart_seed(seed: u64, restart: usize) -> u64 {
    seed ^ (restart as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Hard cap on memoized D²-seeding rows (each row is `n` f64s); beyond
/// it new rows are computed into a scratch buffer instead of cached.
const SEED_CACHE_MAX_ROWS: usize = 1024;

/// Work threshold (`n·k·d`) below which the chunked parallel assignment
/// costs more in fan-out than it saves.
const PAR_WORK: usize = 1 << 20;

/// Fixed chunk size of the parallel assignment step. Chunk boundaries
/// depend only on `n`, never on the thread count.
const ASSIGN_CHUNK: usize = 256;

/// Reusable buffers of the k-means engine: assignment labels, Hamerly
/// bounds, per-cluster accumulators and the memoized D²-seeding rows.
///
/// Sharing one scratch across runs over the *same* data (restarts, the
/// per-`k` loop of the §III-F search) keeps the hot path allocation-free
/// in steady state and lets k-means++ reuse point-to-point distance
/// rows across restarts. The seeding cache is only valid for one
/// dataset; [`KMeansScratch::reset_for_new_data`] must be called when
/// the data changes (the public entry points create a fresh scratch per
/// call, so only scratch-reusing callers need to care).
#[derive(Debug, Default)]
pub(crate) struct KMeansScratch {
    labels: Vec<usize>,
    upper: Vec<f64>,
    lower: Vec<f64>,
    sums: Vec<f64>,
    counts: Vec<usize>,
    moves: Vec<f64>,
    d2: Vec<f64>,
    seed_rows: HashMap<usize, Box<[f64]>>,
    row_scratch: Vec<f64>,
    /// Column-major (dim-major) copy of the dataset, built once per
    /// dataset for the vectorized D²-seeding rows.
    soa: Vec<f64>,
    /// Dim-major copy of the current centroids, rebuilt per assignment
    /// step for the vectorized full scan.
    ct: Vec<f64>,
}

impl KMeansScratch {
    /// Drops state that is only valid for one dataset (the D²-seeding
    /// distance cache and the column-major data copy). Buffer
    /// capacities are retained.
    pub(crate) fn reset_for_new_data(&mut self) {
        self.seed_rows.clear();
        self.soa.clear();
    }
}

/// Runs k-means on `data` (rows are observations).
///
/// # Panics
///
/// Panics if `data` is empty or `config.k` is zero or exceeds the
/// number of points.
pub fn kmeans(data: &PointMatrix, config: &KMeansConfig) -> KMeansResult {
    let mut scratch = KMeansScratch::default();
    kmeans_with_scratch(data, config, &mut scratch)
}

/// Scratch-reusing k-means (the engine behind [`kmeans`]). The scratch
/// must either be fresh or have last been used with the same `data`.
pub(crate) fn kmeans_with_scratch(
    data: &PointMatrix,
    config: &KMeansConfig,
    scratch: &mut KMeansScratch,
) -> KMeansResult {
    assert!(!data.is_empty(), "k-means requires at least one point");
    let n = data.len();
    let dim = data.dim();
    assert!(config.k >= 1 && config.k <= n, "k must be in [1, n]");
    let k = config.k;
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // Centroids as one flat k×dim buffer, matching the data layout.
    let mut centroids: Vec<f64> = match config.init {
        InitMethod::KMeansPlusPlus => init_plus_plus_cached(data, k, &mut rng, scratch),
        InitMethod::Random => init_random(data, k, &mut rng),
    };
    // Conservative pruning margin: 1e-9 of an upper bound on the data
    // diameter. Accumulated bound-maintenance rounding is ≤ ~1e-13 of
    // that diameter (≤ max_iterations few-ulp updates on O(diameter)
    // magnitudes), so any pair of distances the margin cannot separate
    // is re-computed exactly instead of pruned.
    let max_abs = data.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let margin = 2.0 * max_abs * (dim as f64).sqrt() * 1e-9 + f64::MIN_POSITIVE;

    scratch.labels.clear();
    scratch.labels.resize(n, 0);
    scratch.upper.clear();
    scratch.upper.resize(n, 0.0);
    scratch.lower.clear();
    scratch.lower.resize(n, 0.0);
    scratch.moves.clear();
    scratch.moves.resize(k, 0.0);

    let mut iterations = 0;
    let mut bounds_valid = false;
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // Assignment step — integer outputs only, safe to parallelize;
        // bounds prune the scan wherever the label provably cannot move.
        assign_pruned(
            data,
            &centroids,
            dim,
            k,
            margin,
            bounds_valid,
            &mut scratch.labels,
            &mut scratch.upper,
            &mut scratch.lower,
            &mut scratch.ct,
        );
        bounds_valid = true;
        // Update step: sequential so float accumulation order is fixed.
        let movement = update_centroids(
            data,
            &mut centroids,
            &scratch.labels,
            &mut scratch.sums,
            &mut scratch.counts,
            &mut scratch.moves,
            dim,
            k,
            n,
        );
        // Bound maintenance from the recorded centroid movements: the
        // assigned centroid moved by at most moves[label] (inflate the
        // upper bound), any other centroid by at most the largest — or,
        // for points assigned to the largest mover, the second-largest —
        // movement (deflate the lower bound).
        let (move1, mover1, move2) = top_two_moves(&scratch.moves);
        for i in 0..n {
            let label = scratch.labels[i];
            scratch.upper[i] += scratch.moves[label];
            scratch.lower[i] -= if label == mover1 { move2 } else { move1 };
        }
        if movement <= config.tolerance {
            break;
        }
    }
    // Final assignment with converged centroids.
    assign_pruned(
        data,
        &centroids,
        dim,
        k,
        margin,
        bounds_valid,
        &mut scratch.labels,
        &mut scratch.upper,
        &mut scratch.lower,
        &mut scratch.ct,
    );
    let mut wcss = 0.0;
    for (point, &label) in data.iter_rows().zip(&scratch.labels) {
        wcss += squared_distance(point, &centroids[label * dim..(label + 1) * dim]);
    }
    KMeansResult {
        centroids: centroids
            .chunks_exact(dim.max(1))
            .map(<[f64]>::to_vec)
            .collect(),
        labels: scratch.labels.clone(),
        wcss,
        iterations,
    }
}

/// Runs `restarts` independently seeded k-means and keeps the lowest
/// WCSS — the paper's multi-seeding robustness protocol. Restart `r`
/// uses [`restart_seed`]`(config.seed, r)`; ties keep the lowest
/// restart index, so the result is thread-count independent.
///
/// Restarts share one scratch (bounds, accumulators and the memoized
/// D²-seeding rows) and run in sequence; the parallelism moved *inside*
/// each run's assignment step, which fans out in deterministic
/// fixed-size chunks on the worker pool.
///
/// # Panics
///
/// Panics if `restarts` is zero or `data`/`config.k` are invalid.
pub fn kmeans_best_of(data: &PointMatrix, config: &KMeansConfig, restarts: usize) -> KMeansResult {
    let mut scratch = KMeansScratch::default();
    kmeans_best_of_with(data, config, restarts, &mut scratch)
}

/// Scratch-reusing variant of [`kmeans_best_of`] (the engine behind the
/// §III-F search). Same winner-selection rule; the scratch must be
/// fresh or last used with the same `data`.
pub(crate) fn kmeans_best_of_with(
    data: &PointMatrix,
    config: &KMeansConfig,
    restarts: usize,
    scratch: &mut KMeansScratch,
) -> KMeansResult {
    assert!(restarts >= 1, "need at least one restart");
    let mut best: Option<KMeansResult> = None;
    for r in 0..restarts {
        let seed = restart_seed(config.seed, r);
        let run = kmeans_with_scratch(data, &KMeansConfig { seed, ..*config }, scratch);
        #[allow(clippy::unnecessary_map_or)]
        let better = best.as_ref().map_or(true, |b| run.wcss < b.wcss);
        if better {
            best = Some(run);
        }
    }
    best.expect("restarts >= 1")
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

/// Labels every point with its nearest centroid, maintaining the
/// Hamerly bounds. On large problems the point range splits into
/// [`ASSIGN_CHUNK`]-sized tasks that fan out on the pool; every task
/// owns disjoint slices of the label/bound buffers, so scheduling
/// cannot affect the result.
#[allow(clippy::too_many_arguments)]
fn assign_pruned(
    data: &PointMatrix,
    centroids: &[f64],
    dim: usize,
    k: usize,
    margin: f64,
    bounds_valid: bool,
    labels: &mut [usize],
    upper: &mut [f64],
    lower: &mut [f64],
    ct: &mut Vec<f64>,
) {
    // Dim-major centroid copy: the full scan accumulates one distance
    // per centroid simultaneously, reading the `k` coordinates of each
    // dimension as one contiguous row.
    ct.clear();
    ct.resize(k * dim, 0.0);
    for c in 0..k {
        for d in 0..dim {
            ct[d * k + c] = centroids[c * dim + d];
        }
    }
    // One assignment task: chunk start index plus that chunk's disjoint
    // label/upper/lower slices.
    type AssignTask<'a> = (usize, &'a mut [usize], &'a mut [f64], &'a mut [f64]);
    let n = labels.len();
    if n * k * dim.max(1) >= PAR_WORK && megsim_exec::thread_count() > 1 && !megsim_exec::in_pool()
    {
        let tasks: Vec<AssignTask> = labels
            .chunks_mut(ASSIGN_CHUNK)
            .zip(upper.chunks_mut(ASSIGN_CHUNK))
            .zip(lower.chunks_mut(ASSIGN_CHUNK))
            .enumerate()
            .map(|(c, ((lab, up), lo))| (c * ASSIGN_CHUNK, lab, up, lo))
            .collect();
        megsim_exec::par_for_each_task(tasks, |(start, lab, up, lo)| {
            assign_chunk(
                data,
                centroids,
                ct,
                dim,
                k,
                margin,
                bounds_valid,
                start,
                lab,
                up,
                lo,
            );
        });
    } else {
        assign_chunk(
            data,
            centroids,
            ct,
            dim,
            k,
            margin,
            bounds_valid,
            0,
            labels,
            upper,
            lower,
        );
    }
}

/// The per-chunk assignment kernel. `start` is the index of the first
/// point of this chunk in the full dataset; `ct` is the dim-major
/// centroid copy built by [`assign_pruned`].
#[allow(clippy::too_many_arguments)]
fn assign_chunk(
    data: &PointMatrix,
    centroids: &[f64],
    ct: &[f64],
    dim: usize,
    k: usize,
    margin: f64,
    bounds_valid: bool,
    start: usize,
    labels: &mut [usize],
    upper: &mut [f64],
    lower: &mut [f64],
) {
    debug_assert_eq!(k * dim, centroids.len());
    let mut dists = vec![0.0f64; k];
    for off in 0..labels.len() {
        let point = data.row(start + off);
        if bounds_valid {
            // Stale-bound prune: the label cannot have changed.
            if upper[off] + margin <= lower[off] {
                continue;
            }
            // Tighten the upper bound with one exact distance and retry.
            let label = labels[off];
            let tight = squared_distance(point, &centroids[label * dim..(label + 1) * dim]).sqrt();
            upper[off] = tight;
            if tight + margin <= lower[off] {
                continue;
            }
        }
        // Full scan: the distances to all k centroids accumulate
        // dimension by dimension with one independent accumulator per
        // centroid — per pair that is bitwise the `squared_distance`
        // fold, but the inner loop vectorizes across centroids instead
        // of serializing on one running sum.
        dists.fill(0.0);
        for (d, &x) in point.iter().enumerate() {
            let crow = &ct[d * k..(d + 1) * k];
            for (acc, &c) in dists.iter_mut().zip(crow) {
                let diff = x - c;
                *acc += diff * diff;
            }
        }
        // Then the exact compare sequence of the seed implementation
        // (strict `<`, first minimum wins) over the finished distances,
        // additionally tracking the runner-up to seed the lower bound.
        let mut best = (0usize, f64::INFINITY);
        let mut second = f64::INFINITY;
        for (c, &d) in dists.iter().enumerate() {
            if d < best.1 {
                second = best.1;
                best = (c, d);
            } else if d < second {
                second = d;
            }
        }
        labels[off] = best.0;
        upper[off] = best.1.sqrt();
        lower[off] = second.sqrt();
    }
}

/// The sequential centroid update of the seed implementation (fixed
/// accumulation order, the standard farthest-point repair for empty
/// clusters), additionally recording each centroid's Euclidean movement
/// for the bound maintenance. Returns the total squared movement.
#[allow(clippy::too_many_arguments)]
fn update_centroids(
    data: &PointMatrix,
    centroids: &mut [f64],
    labels: &[usize],
    sums: &mut Vec<f64>,
    counts: &mut Vec<usize>,
    moves: &mut [f64],
    dim: usize,
    k: usize,
    n: usize,
) -> f64 {
    sums.clear();
    sums.resize(k * dim, 0.0);
    counts.clear();
    counts.resize(k, 0);
    for (point, &label) in data.iter_rows().zip(labels) {
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
                    let di = point_centroid_d2(data, i, centroids, labels[i], dim);
                    let dj = point_centroid_d2(data, j, centroids, labels[j], dim);
                    di.partial_cmp(&dj).expect("NaN distance")
                })
                .expect("non-empty data");
            let moved2 = squared_distance(&centroids[slot.clone()], data.row(far));
            movement += moved2;
            moves[c] = moved2.sqrt();
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
        moves[c] = delta.sqrt();
        for (cur, s) in centroids[slot]
            .iter_mut()
            .zip(&sums[c * dim..(c + 1) * dim])
        {
            *cur = s * inv;
        }
    }
    movement
}

/// Largest and second-largest centroid movement, plus the index of the
/// largest mover (whose assigned points only need the second-largest
/// deflation on their lower bound).
fn top_two_moves(moves: &[f64]) -> (f64, usize, f64) {
    let mut move1 = 0.0f64;
    let mut mover1 = usize::MAX;
    let mut move2 = 0.0f64;
    for (c, &m) in moves.iter().enumerate() {
        if m > move1 {
            move2 = move1;
            move1 = m;
            mover1 = c;
        } else if m > move2 {
            move2 = m;
        }
    }
    (move1, mover1, move2)
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

/// D²-weighted seeding with memoized distance rows: every chosen center
/// is a data point, so the row of squared distances from it to all
/// points is cached in the scratch and reused across restarts and
/// across the search's per-`k` loop. Cached rows are bitwise the values
/// the seed implementation computes inline, and the RNG consumption is
/// unchanged, so initialization is bit-identical.
fn init_plus_plus_cached(
    data: &PointMatrix,
    k: usize,
    rng: &mut SmallRng,
    scratch: &mut KMeansScratch,
) -> Vec<f64> {
    let KMeansScratch {
        d2,
        seed_rows,
        row_scratch,
        soa,
        ..
    } = scratch;
    ensure_soa(data, soa);
    let first = rng.gen_range(0..data.len());
    let mut centroids = Vec::with_capacity(k * data.dim());
    centroids.extend_from_slice(data.row(first));
    let row = seed_row(data, soa, first, seed_rows, row_scratch);
    d2.clear();
    d2.extend_from_slice(row);
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
        let row = seed_row(data, soa, next, seed_rows, row_scratch);
        for (slot, &d) in d2.iter_mut().zip(row) {
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

/// Builds (or reuses) the column-major dataset copy the seeding rows
/// vectorize over. The scratch contract — fresh, or last used with the
/// same data — makes a length match sufficient.
fn ensure_soa(data: &PointMatrix, soa: &mut Vec<f64>) {
    let (n, dim) = (data.len(), data.dim());
    if soa.len() == n * dim && !soa.is_empty() {
        return;
    }
    soa.clear();
    soa.resize(n * dim, 0.0);
    for (i, row) in data.iter_rows().enumerate() {
        for (d, &v) in row.iter().enumerate() {
            soa[d * n + i] = v;
        }
    }
}

/// The squared distances from data point `idx` to every point, served
/// from the memoized cache when possible (bounded by
/// [`SEED_CACHE_MAX_ROWS`]; overflow rows go through `row_scratch`).
fn seed_row<'a>(
    data: &PointMatrix,
    soa: &[f64],
    idx: usize,
    seed_rows: &'a mut HashMap<usize, Box<[f64]>>,
    row_scratch: &'a mut Vec<f64>,
) -> &'a [f64] {
    if seed_rows.contains_key(&idx) {
        return &seed_rows[&idx];
    }
    let n = data.len();
    if seed_rows.len() < SEED_CACHE_MAX_ROWS {
        let mut row = vec![0.0f64; n];
        fill_d2_row(soa, n, data.dim(), idx, &mut row);
        return seed_rows.entry(idx).or_insert(row.into_boxed_slice());
    }
    row_scratch.clear();
    row_scratch.resize(n, 0.0);
    fill_d2_row(soa, n, data.dim(), idx, row_scratch);
    row_scratch
}

/// `row[i] = ‖x_i − x_idx‖²`, accumulated dimension by dimension — per
/// point bitwise the [`squared_distance`] fold, with the inner loop
/// streaming one contiguous column so it vectorizes across points.
fn fill_d2_row(soa: &[f64], n: usize, dim: usize, idx: usize, row: &mut [f64]) {
    debug_assert_eq!(row.len(), n);
    for d in 0..dim {
        let col = &soa[d * n..(d + 1) * n];
        let c = col[idx];
        for (acc, &x) in row.iter_mut().zip(col) {
            let diff = x - c;
            *acc += diff * diff;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> PointMatrix {
        // Two well-separated 2-D blobs of 5 points each.
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(vec![0.0 + 0.1 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.1 * i as f64, 10.0]);
        }
        PointMatrix::from_rows(pts)
    }

    #[test]
    fn distances_match_hand_computation() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn k1_centroid_is_global_mean() {
        let data = PointMatrix::from_rows(vec![vec![0.0], vec![2.0], vec![4.0]]);
        let r = kmeans(&data, &KMeansConfig::new(1));
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-12);
        assert_eq!(r.labels, vec![0, 0, 0]);
        assert!((r.wcss - 8.0).abs() < 1e-12);
    }

    #[test]
    fn separates_two_blobs() {
        let data = blobs();
        let r = kmeans(&data, &KMeansConfig::new(2).with_seed(7));
        // Points alternate blob membership by construction.
        let l0 = r.labels[0];
        for (i, &l) in r.labels.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(l, l0);
            } else {
                assert_ne!(l, l0);
            }
        }
        assert!(r.wcss < 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let a = kmeans(&data, &KMeansConfig::new(3).with_seed(42));
        let b = kmeans(&data, &KMeansConfig::new(3).with_seed(42));
        assert_eq!(a, b);
    }

    #[test]
    fn random_init_also_converges() {
        let data = blobs();
        let r = kmeans(
            &data,
            &KMeansConfig::new(2)
                .with_seed(3)
                .with_init(InitMethod::Random),
        );
        assert!(r.wcss < 1.0);
    }

    #[test]
    fn k_equals_n_gives_zero_wcss() {
        let data = PointMatrix::from_rows(vec![vec![0.0], vec![5.0], vec![9.0]]);
        let r = kmeans(&data, &KMeansConfig::new(3).with_seed(1));
        assert!(r.wcss < 1e-12);
        let mut sizes = r.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 1]);
    }

    #[test]
    fn representatives_are_closest_to_centroids() {
        let data = blobs();
        let r = kmeans(&data, &KMeansConfig::new(2).with_seed(0));
        let reps = r.representatives(&data);
        assert_eq!(reps.len(), 2);
        for (c, &rep) in reps.iter().enumerate() {
            let d_rep = squared_distance(data.row(rep), &r.centroids[c]);
            for (i, p) in data.iter_rows().enumerate() {
                if r.labels[i] == c {
                    assert!(d_rep <= squared_distance(p, &r.centroids[c]) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn duplicate_points_do_not_panic() {
        let data = PointMatrix::from_rows(vec![vec![1.0, 1.0]; 6]);
        let r = kmeans(&data, &KMeansConfig::new(2).with_seed(9));
        assert_eq!(r.labels.len(), 6);
        assert!(r.wcss < 1e-12);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn rejects_k_larger_than_n() {
        let _ = kmeans(
            &PointMatrix::from_rows(vec![vec![1.0]]),
            &KMeansConfig::new(2),
        );
    }

    #[test]
    fn cluster_sizes_sum_to_n() {
        let data = blobs();
        let r = kmeans(&data, &KMeansConfig::new(4).with_seed(5));
        assert_eq!(r.cluster_sizes().iter().sum::<usize>(), data.len());
    }

    #[test]
    fn best_of_never_beats_its_own_runs_and_is_deterministic() {
        let data = blobs();
        let config = KMeansConfig::new(3).with_seed(17);
        let best = kmeans_best_of(&data, &config, 8);
        let again = kmeans_best_of(&data, &config, 8);
        assert_eq!(best, again);
        // The selected run is at least as good as the single-seed run.
        let single = kmeans_best_of(&data, &config, 1);
        assert!(best.wcss <= single.wcss + 1e-12);
    }

    #[test]
    fn restart_seed_is_pinned() {
        // The exact derivation every restart-dependent result hangs off:
        // seed ⊕ r · 0xD1B5_4A32_D192_ED03. Changing it would change
        // which restart wins and therefore every downstream
        // representative — these literals must never drift.
        assert_eq!(restart_seed(0, 0), 0);
        assert_eq!(restart_seed(0, 1), 0xD1B5_4A32_D192_ED03);
        assert_eq!(restart_seed(0, 2), 0xA36A_9465_A325_DA06);
        assert_eq!(restart_seed(0, 3), 0x751F_DE98_74B8_C709);
        assert_eq!(restart_seed(7, 1), 0xD1B5_4A32_D192_ED04);
        assert_eq!(
            restart_seed(0xFFFF_FFFF_FFFF_FFFF, 1),
            !0xD1B5_4A32_D192_ED03u64
        );
    }

    #[test]
    fn shared_scratch_matches_fresh_scratch() {
        // Reusing one scratch across runs (the search's steady state)
        // must not change any result, including after the seeding cache
        // warmed up on earlier runs.
        let data = blobs();
        let mut scratch = KMeansScratch::default();
        for k in 1..=5 {
            for seed in [0u64, 9, 1234] {
                let config = KMeansConfig::new(k).with_seed(seed);
                let warm = kmeans_with_scratch(&data, &config, &mut scratch);
                let cold = kmeans(&data, &config);
                assert_eq!(warm, cold, "k = {k}, seed = {seed}");
            }
        }
    }

    #[test]
    fn pruned_assignment_engages_on_larger_inputs() {
        // A shape big enough that several Lloyd iterations run with
        // bounds active; cross-checked against a fresh run for
        // self-consistency and against hand-verified cluster structure.
        let data = PointMatrix::from_rows(
            (0..400)
                .map(|i| {
                    let c = (i % 4) as f64 * 50.0;
                    vec![
                        c + ((i * 13) % 17) as f64 * 0.1,
                        c - ((i * 7) % 11) as f64 * 0.1,
                    ]
                })
                .collect(),
        );
        let r = kmeans(&data, &KMeansConfig::new(4).with_seed(21));
        assert!(r.iterations >= 2);
        let sizes = r.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 400);
        // Each residue class i % 4 is one tight blob 50 apart.
        for c in 0..4 {
            let members: Vec<usize> = (0..400).filter(|&i| r.labels[i] == c).collect();
            assert!(members.iter().all(|m| m % 4 == members[0] % 4));
        }
    }
}
