//! Streaming online clustering: single-pass selection with bounded
//! memory (ROADMAP "Live sampling / online clustering", after Pac-Sim).
//!
//! The batch pipeline is two-pass: characterize every frame, then
//! cluster the full `n × d` matrix. [`StreamClusterer`] replaces the
//! whole-sequence barrier with an incremental engine that consumes one
//! frame at a time and retains only
//!
//! * a seeded **reservoir** of at most `reservoir_capacity` raw rows
//!   (Vitter's Algorithm R, so every frame is retained with equal
//!   probability regardless of stream length),
//! * a fixed set of **micro-centroids** updated with sequential
//!   mini-batch steps (learning rate `1 / count`, the Sculley rule) that
//!   sketch the cluster structure of *evicted* frames, and
//! * one in-flight **mini-batch** of at most `batch_size` rows.
//!
//! Peak retained rows are therefore `reservoir + batch window` — O(1)
//! in the stream length — and the per-frame cost is `O(k_micro · d)`,
//! so an `n`-frame stream costs `O(n · k)` instead of the batch path's
//! `O(n² · d)` similarity/silhouette walls (the finishing pass is
//! `O(m · k² · d)` over the reservoir only).
//!
//! The number of clusters is chosen once, by the finishing search over
//! the reservoir.
//!
//! # Determinism
//!
//! Every data-dependent decision folds in **arrival order on the caller
//! thread**: reservoir offers consume the seeded RNG in frame order,
//! micro-centroid updates apply one row at a time in frame order, and
//! the finishing search's seeds derive only from `(seed, k)`. The
//! parallel machinery lives *inside* the finishing
//! [`search_clusters_with`] call, which is already bit-identical at any
//! thread count — so the whole streaming path is too.
//!
//! # The exact mode (oracle)
//!
//! With `reservoir_capacity == 0` the reservoir is unbounded: Algorithm
//! R never evicts (and never consumes RNG), so [`StreamClusterer::finish`]
//! stabilizes over *all* rows in arrival order — the same matrix, the
//! same [`search_clusters_with`] call, and therefore **bitwise** the
//! batch search's output. The proptest oracle and the CI determinism
//! matrix pin streaming-exact ≡ batch at 1/2/8 threads.

use crate::kmeans::KMeansResult;
use crate::matrix::PointMatrix;
use crate::search::{search_clusters_with, SearchConfig, SearchScratch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the streaming clusterer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Maximum raw rows retained in the reservoir. `0` means
    /// *unbounded* — the exact mode whose output is bitwise the batch
    /// search's (the memory bound is then `n`, not O(1)).
    pub reservoir_capacity: usize,
    /// Rows buffered before a mini-batch micro-centroid update.
    pub batch_size: usize,
    /// Number of micro-centroids sketching evicted frames.
    pub micro_clusters: usize,
    /// The §III-F search run over the reservoir at finish time (its
    /// `seed` also drives the reservoir RNG).
    pub search: SearchConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            reservoir_capacity: 1024,
            batch_size: 256,
            micro_clusters: 16,
            search: SearchConfig::default(),
        }
    }
}

impl StreamConfig {
    /// The exact (unbounded-reservoir) configuration — the oracle mode
    /// whose output is bitwise the batch search's.
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

    /// Sets the micro-centroid count (builder style).
    pub fn with_micro_clusters(mut self, micro_clusters: usize) -> Self {
        assert!(micro_clusters >= 1, "micro_clusters must be at least 1");
        self.micro_clusters = micro_clusters;
        self
    }

    /// Sets the finishing search configuration (builder style).
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Sets the base seed (builder style) — forwarded to the search
    /// and the reservoir RNG.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.search.seed = seed;
        self
    }
}

/// Derives the reservoir RNG seed from the base seed —
/// `seed ⊕ 0xA076_1D64_78BD_642F` (pinned): the reservoir stream must
/// be independent of every k-means stream derived from the same seed.
#[inline]
pub fn reservoir_seed(seed: u64) -> u64 {
    seed ^ 0xA076_1D64_78BD_642F
}

/// Outcome of a finished stream: the same shape as the batch search's
/// selection, plus streaming diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// The selected number of clusters.
    pub k: usize,
    /// Cluster label of every frame, in arrival order. Reservoir
    /// survivors carry their exact stabilization label; evicted frames
    /// carry their micro-centroid's nearest final cluster.
    pub labels: Vec<usize>,
    /// One `(frame_index, cluster_size)` per cluster, in cluster
    /// order. Representatives always come from the retained reservoir;
    /// sizes count the *full* stream.
    pub representatives: Vec<(usize, usize)>,
    /// BIC score of every `k` the finishing search evaluated.
    pub bic_scores: Vec<f64>,
    /// Total frames consumed.
    pub frames_seen: usize,
    /// Rows retained in the reservoir at finish time.
    pub reservoir_len: usize,
    /// High-water mark of raw rows retained at any instant
    /// (reservoir + mini-batch window) — the bounded-memory fence.
    pub peak_rows_retained: usize,
}

/// Incremental single-pass clusterer. Feed rows with
/// [`StreamClusterer::push`], optionally keep the per-column scales
/// current with [`StreamClusterer::set_scales`], then call
/// [`StreamClusterer::finish`].
#[derive(Debug)]
pub struct StreamClusterer {
    dim: usize,
    config: StreamConfig,
    /// Per-column scale applied inside every distance (rows are stored
    /// raw so late scale refinements — the running normalization masses
    /// of a fused pipeline — apply retroactively to retained rows).
    scales: Vec<f64>,
    /// Flat `micro_clusters × dim` raw-space centroid block; only the
    /// first `micro_init` rows are live.
    micro: Vec<f64>,
    micro_count: Vec<u64>,
    micro_init: usize,
    /// Micro-centroid of every frame, in arrival order (`u32` halves
    /// the only O(n) state the clusterer keeps).
    micro_labels: Vec<u32>,
    reservoir: PointMatrix,
    /// Frame index of every reservoir slot.
    res_frames: Vec<usize>,
    rng: SmallRng,
    batch: PointMatrix,
    n_seen: usize,
    peak_rows: usize,
}

impl StreamClusterer {
    /// A fresh clusterer for `dim`-column rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, config: StreamConfig) -> Self {
        assert!(dim >= 1, "rows need at least one column");
        assert!(config.batch_size >= 1, "batch_size must be at least 1");
        assert!(
            config.micro_clusters >= 1,
            "micro_clusters must be at least 1"
        );
        let capacity = config.reservoir_capacity;
        Self {
            dim,
            scales: vec![1.0; dim],
            micro: vec![0.0; config.micro_clusters * dim],
            micro_count: vec![0; config.micro_clusters],
            micro_init: 0,
            micro_labels: Vec::new(),
            reservoir: if capacity > 0 {
                PointMatrix::with_capacity(capacity, dim)
            } else {
                PointMatrix::new(dim)
            },
            res_frames: Vec::new(),
            rng: SmallRng::seed_from_u64(reservoir_seed(config.search.seed)),
            batch: PointMatrix::with_capacity(config.batch_size, dim),
            n_seen: 0,
            peak_rows: 0,
            config,
        }
    }

    /// Updates the per-column scales applied inside every distance.
    /// Retained raw rows pick the new scales up retroactively; the
    /// finishing pass always uses the scales current at finish time.
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != dim`.
    pub fn set_scales(&mut self, scales: &[f64]) {
        assert_eq!(scales.len(), self.dim, "scales length != dim");
        self.scales.copy_from_slice(scales);
    }

    /// Consumes one row in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row length != dim");
        let frame = self.n_seen;
        self.n_seen += 1;
        self.batch.push_row(row);
        // Algorithm R, keyed on arrival order only: the RNG is consumed
        // exactly when the reservoir is full, so the unbounded (exact)
        // mode never touches it.
        let capacity = self.config.reservoir_capacity;
        if capacity == 0 || self.reservoir.len() < capacity {
            self.reservoir.push_row(row);
            self.res_frames.push(frame);
        } else {
            let j = self.rng.gen_range(0..frame + 1);
            if j < capacity {
                self.reservoir.set_row(j, row);
                self.res_frames[j] = frame;
            }
        }
        self.peak_rows = self.peak_rows.max(self.reservoir.len() + self.batch.len());
        if self.batch.len() >= self.config.batch_size {
            self.flush_batch();
        }
    }

    /// Total rows consumed so far.
    pub fn frames_seen(&self) -> usize {
        self.n_seen
    }

    /// Rows currently retained in the reservoir.
    pub fn reservoir_len(&self) -> usize {
        self.reservoir.len()
    }

    /// High-water mark of raw rows retained at any instant.
    pub fn peak_rows_retained(&self) -> usize {
        self.peak_rows
    }

    /// Flushes any partial mini-batch, stabilizes over the retained
    /// reservoir and returns the selection.
    ///
    /// # Panics
    ///
    /// Panics if no rows were pushed.
    pub fn finish(mut self) -> StreamOutcome {
        if !self.batch.is_empty() {
            self.flush_batch();
        }
        assert!(self.n_seen > 0, "cannot finish an empty stream");
        let scaled = self.scaled_reservoir();
        // In exact mode `scaled` is the full normalized dataset in
        // arrival order, so this is *the* batch search — bit-identical
        // selection by construction.
        let found = search_clusters_with(&scaled, &self.config.search, &mut SearchScratch::new());
        let k = found.k;
        let rep_slots = found.clustering.representatives(&scaled);
        let micro_map = self.map_micro_to_final(&found.clustering);
        let mut labels = vec![0usize; self.n_seen];
        for (i, &m) in self.micro_labels.iter().enumerate() {
            labels[i] = micro_map[m as usize];
        }
        // Reservoir survivors get their exact label (in exact mode this
        // overwrites every frame — labels ≡ the batch labels).
        for (slot, &frame) in self.res_frames.iter().enumerate() {
            labels[frame] = found.clustering.labels[slot];
        }
        let mut sizes = vec![0usize; k];
        for &l in &labels {
            sizes[l] += 1;
        }
        let representatives = rep_slots
            .into_iter()
            .zip(sizes)
            .map(|(slot, size)| (self.res_frames[slot], size))
            .collect();
        StreamOutcome {
            k,
            labels,
            representatives,
            bic_scores: found.bic_scores,
            frames_seen: self.n_seen,
            reservoir_len: self.reservoir.len(),
            peak_rows_retained: self.peak_rows,
        }
    }

    /// Assigns every buffered row to its nearest micro-centroid (or
    /// founds a new one while slots remain) with a sequential
    /// mini-batch update.
    fn flush_batch(&mut self) {
        let dim = self.dim;
        for bi in 0..self.batch.len() {
            // Split so the row and the centroid block can be borrowed
            // together: centroids live strictly inside `self.micro`.
            let row = self.batch.row(bi);
            if self.micro_init < self.config.micro_clusters {
                let c = self.micro_init;
                self.micro[c * dim..(c + 1) * dim].copy_from_slice(row);
                self.micro_count[c] = 1;
                self.micro_init += 1;
                self.micro_labels.push(c as u32);
                continue;
            }
            let mut best = 0usize;
            let mut best_d2 = f64::INFINITY;
            for c in 0..self.micro_init {
                let cent = &self.micro[c * dim..(c + 1) * dim];
                let mut acc = 0.0f64;
                for ((&x, &y), &s) in row.iter().zip(cent).zip(&self.scales) {
                    let diff = (x - y) * s;
                    acc += diff * diff;
                }
                // Strict `<`: first minimum wins, like the assignment
                // rule of the batch k-means.
                if acc < best_d2 {
                    best_d2 = acc;
                    best = c;
                }
            }
            self.micro_count[best] += 1;
            let lr = 1.0 / self.micro_count[best] as f64;
            let cent = &mut self.micro[best * dim..(best + 1) * dim];
            for (c, &x) in cent.iter_mut().zip(row) {
                *c += (x - *c) * lr;
            }
            self.micro_labels.push(best as u32);
        }
        self.batch.clear();
    }

    /// The reservoir with the current scales applied, in slot order.
    fn scaled_reservoir(&self) -> PointMatrix {
        let flat: Vec<f64> = self
            .reservoir
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| v * self.scales[i % self.dim])
            .collect();
        PointMatrix::from_flat(flat, self.dim)
    }

    /// Nearest final cluster of every live micro-centroid (scaled
    /// space, strict `<`, first minimum wins).
    fn map_micro_to_final(&self, clustering: &KMeansResult) -> Vec<usize> {
        let dim = self.dim;
        (0..self.micro_init.max(1))
            .map(|c| {
                let cent = &self.micro[c * dim..(c + 1) * dim];
                let mut best = 0usize;
                let mut best_d2 = f64::INFINITY;
                for (fc, fcent) in clustering.centroids.iter().enumerate() {
                    let mut acc = 0.0f64;
                    for ((&x, &y), &s) in cent.iter().zip(fcent).zip(&self.scales) {
                        let diff = x * s - y;
                        acc += diff * diff;
                    }
                    if acc < best_d2 {
                        best_d2 = acc;
                        best = fc;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::search_clusters;

    /// Two well-separated blobs, interleaved in arrival order.
    fn blob_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 50.0 };
                let j = (i as f64 * 0.37).sin();
                vec![c + j, c - j * 0.5]
            })
            .collect()
    }

    fn stream_all(rows: &[Vec<f64>], config: StreamConfig) -> StreamOutcome {
        let mut s = StreamClusterer::new(rows[0].len(), config);
        for row in rows {
            s.push(row);
        }
        s.finish()
    }

    #[test]
    fn exact_mode_is_bitwise_the_batch_search() {
        let rows = blob_rows(70);
        let config = StreamConfig::exact().with_seed(9).with_batch_size(16);
        let out = stream_all(&rows, config);
        let data = PointMatrix::from_rows(rows);
        let found = search_clusters(&data, &config.search);
        assert_eq!(out.k, found.k);
        assert_eq!(out.labels, found.clustering.labels);
        assert_eq!(out.bic_scores, found.bic_scores);
        let reps: Vec<(usize, usize)> = found
            .clustering
            .representatives(&data)
            .into_iter()
            .zip(found.clustering.cluster_sizes())
            .collect();
        assert_eq!(out.representatives, reps);
        assert_eq!(out.reservoir_len, 70);
    }

    #[test]
    fn exact_mode_identical_across_thread_counts() {
        let rows = blob_rows(60);
        let config = StreamConfig::exact().with_seed(3);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            runs.push(megsim_exec::with_threads(threads, || {
                stream_all(&rows, config)
            }));
        }
        for pair in runs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn bounded_mode_respects_the_memory_fence() {
        let rows = blob_rows(5000);
        let config = StreamConfig::default()
            .with_reservoir_capacity(128)
            .with_batch_size(64)
            .with_micro_clusters(8)
            .with_seed(7);
        let out = stream_all(&rows, config);
        assert!(
            out.peak_rows_retained <= 128 + 64,
            "peak = {}",
            out.peak_rows_retained
        );
        assert_eq!(out.reservoir_len, 128);
        assert_eq!(out.frames_seen, 5000);
        assert_eq!(out.labels.len(), 5000);
        let total: usize = out.representatives.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 5000);
        assert!(out.k >= 2, "two blobs must not collapse: k = {}", out.k);
        for (c, &(frame, _)) in out.representatives.iter().enumerate() {
            assert_eq!(out.labels[frame], c, "representative outside its cluster");
        }
    }

    #[test]
    fn bounded_mode_separates_the_blobs() {
        // Every frame's blob is recoverable from its arrival parity;
        // no final cluster may mix the two blobs even though most
        // frames were labeled through an evicted micro-centroid.
        let rows = blob_rows(2000);
        let out = stream_all(
            &rows,
            StreamConfig::default()
                .with_reservoir_capacity(256)
                .with_batch_size(128)
                .with_seed(5),
        );
        for c in 0..out.k {
            let members: Vec<usize> = (0..2000).filter(|&i| out.labels[i] == c).collect();
            assert!(
                members.iter().all(|m| m % 2 == members[0] % 2),
                "cluster {c} mixes blobs"
            );
        }
    }

    #[test]
    fn streaming_is_deterministic_for_a_given_seed() {
        let rows = blob_rows(1500);
        let config = StreamConfig::default()
            .with_reservoir_capacity(100)
            .with_batch_size(50)
            .with_seed(21);
        assert_eq!(stream_all(&rows, config), stream_all(&rows, config));
    }

    #[test]
    fn scales_apply_retroactively_to_retained_rows() {
        // Streaming raw rows with scales s must finish bitwise like
        // streaming pre-scaled rows with unit scales: rows are stored
        // raw and scaled only inside distances.
        let rows = blob_rows(80);
        let scales = [0.25, 4.0];
        let config = StreamConfig::exact().with_seed(2);
        let mut raw = StreamClusterer::new(2, config);
        for row in &rows {
            raw.push(row);
        }
        raw.set_scales(&scales);
        let mut pre = StreamClusterer::new(2, config);
        for row in &rows {
            pre.push(&[row[0] * scales[0], row[1] * scales[1]]);
        }
        assert_eq!(raw.finish(), pre.finish());
    }

    #[test]
    fn seed_derivations_are_pinned() {
        // The reservoir stream must stay decoupled from the search
        // streams forever: pin the exact derivation (changing it
        // reshuffles which frames survive eviction, silently changing
        // output).
        assert_eq!(reservoir_seed(0), 0xA076_1D64_78BD_642F);
        assert_eq!(reservoir_seed(0xA076_1D64_78BD_642F), 0);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn finishing_an_empty_stream_panics() {
        let s = StreamClusterer::new(2, StreamConfig::default());
        let _ = s.finish();
    }
}
