//! Contiguous row-major point storage shared by the distance kernels,
//! plus the cache-blocked SoA pairwise-distance kernel.
//!
//! The original implementation stored observations as `Vec<Vec<f64>>`,
//! which puts every row behind its own heap allocation: the inner
//! loops of k-means, BIC, silhouette, and the similarity matrix then
//! pointer-chase on every distance. [`PointMatrix`] packs all rows
//! into one flat buffer so row access is a bounds-checked slice into
//! contiguous memory and streaming the whole matrix is a linear scan.
//!
//! [`SoaPoints`] is the transposed (column-major) view feeding
//! [`SoaPoints::dist_block`]: all-pairs stages (the §III-D similarity
//! matrix, the silhouette ablation) compute distances tile by tile so
//! one pass over a dimension's column serves a whole block of pairs
//! from cache, and the inner loop over `j` is a contiguous stream the
//! compiler can vectorize. Per pair the accumulation runs dimension by
//! dimension into a single scalar — the exact op sequence of
//! [`crate::squared_distance`] — so tiling reorders only *which* pairs
//! are computed, never any floating-point result.

/// A dense `rows × dim` matrix of `f64` observations, row-major.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointMatrix {
    data: Vec<f64>,
    dim: usize,
    rows: usize,
}

impl PointMatrix {
    /// An empty matrix whose rows will have `dim` columns.
    pub(crate) fn new(dim: usize) -> Self {
        PointMatrix {
            data: Vec::new(),
            dim,
            rows: 0,
        }
    }

    /// An empty matrix with storage reserved for `rows` rows.
    pub fn with_capacity(rows: usize, dim: usize) -> Self {
        PointMatrix {
            data: Vec::with_capacity(rows * dim),
            dim,
            rows: 0,
        }
    }

    /// Packs nested rows into contiguous storage.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut matrix = PointMatrix::with_capacity(rows.len(), dim);
        for row in &rows {
            matrix.push_row(row);
        }
        matrix
    }

    /// Wraps an existing flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` (a `dim` of 0
    /// requires empty data).
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Self {
        let rows = if dim == 0 {
            assert!(data.is_empty(), "dim 0 requires empty data");
            0
        } else {
            assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
            data.len() / dim
        };
        PointMatrix { data, dim, rows }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row length != matrix dim");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Overwrites row `i` in place (the streaming clusterer's reservoir
    /// eviction).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `row.len() != dim`.
    pub(crate) fn set_row(&mut self, i: usize, row: &[f64]) {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        assert_eq!(row.len(), self.dim, "row length != matrix dim");
        self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(row);
    }

    /// Removes every row, keeping the allocation (the streaming
    /// clusterer's mini-batch window).
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Number of rows (observations).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates rows in order as slices.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone {
        // `chunks_exact(0)` would panic; an empty matrix has no rows to
        // yield regardless of dim.
        self.data.chunks_exact(self.dim.max(1)).take(self.rows)
    }

    /// The whole matrix as one flat row-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Register-block width of [`SoaPoints::dist_block`]: how many `j` points
/// accumulate simultaneously, each in its own register lane (8 f64s is
/// one AVX-512 vector, two AVX ones).
const D2_LANES: usize = 8;

/// Column-major (structure-of-arrays) copy of a [`PointMatrix`] for the
/// blocked pairwise-distance kernel: coordinate `d` of every point sits
/// contiguously in column `d`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaPoints {
    /// `dim` columns of `n` values each, column-major.
    cols: Vec<f64>,
    n: usize,
    dim: usize,
}

impl SoaPoints {
    /// Transposes a row-major matrix into column-major storage (one
    /// O(n·d) pass, paid once per all-pairs stage).
    pub fn from_matrix(points: &PointMatrix) -> Self {
        let n = points.len();
        let dim = points.dim();
        let mut cols = vec![0.0f64; n * dim];
        for (i, row) in points.iter_rows().enumerate() {
            for (d, &v) in row.iter().enumerate() {
                cols[d * n + i] = v;
            }
        }
        SoaPoints { cols, n, dim }
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Writes the Euclidean distances between every `i` in `is` and
    /// every `j` in `js` into `out` as a row-major `is.len() × js.len()`
    /// tile (`out[(i − is.start) · js.len() + (j − js.start)]`).
    ///
    /// The tile accumulates dimension by dimension: per pair that is a
    /// single scalar receiving `(x_id − x_jd)²` in ascending `d` order —
    /// bitwise the fold [`crate::squared_distance`] computes — and the
    /// square root is fused into the store (bitwise
    /// [`crate::euclidean_distance`]), saving consumers a separate pass
    /// over the tile. The kernel register-blocks `D2_LANES` points of
    /// `js` at a time: their accumulators live in registers across the
    /// whole dimension loop (one contiguous vector load per dimension,
    /// no per-dimension tile traffic), and each lane is an independent
    /// sum, so the block vectorizes at full width without reordering any
    /// pair's fold.
    ///
    /// # Panics
    ///
    /// Panics if a range exceeds the point count or `out` is smaller
    /// than the tile.
    pub fn dist_block(
        &self,
        is: std::ops::Range<usize>,
        js: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        assert!(
            is.end <= self.n && js.end <= self.n,
            "tile range out of bounds"
        );
        let (h, w) = (is.len(), js.len());
        let tile = &mut out[..h * w];
        let n = self.n;
        for (bi, i) in is.clone().enumerate() {
            let row = &mut tile[bi * w..(bi + 1) * w];
            let mut jb = 0;
            while jb + D2_LANES <= w {
                let mut acc = [0.0f64; D2_LANES];
                for d in 0..self.dim {
                    let col = &self.cols[d * n..(d + 1) * n];
                    let xi = col[i];
                    let cj = &col[js.start + jb..js.start + jb + D2_LANES];
                    for (a, &xj) in acc.iter_mut().zip(cj) {
                        let diff = xi - xj;
                        *a += diff * diff;
                    }
                }
                for a in &mut acc {
                    *a = a.sqrt();
                }
                row[jb..jb + D2_LANES].copy_from_slice(&acc);
                jb += D2_LANES;
            }
            // Ragged tail: one scalar fold per remaining pair.
            for (off, j) in (js.start + jb..js.end).enumerate() {
                let mut acc = 0.0f64;
                for d in 0..self.dim {
                    let col = &self.cols[d * n..(d + 1) * n];
                    let diff = col[i] - col[j];
                    acc += diff * diff;
                }
                row[jb + off] = acc.sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrips() {
        let m = PointMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[3.0, 4.0]);
    }

    #[test]
    fn push_row_appends() {
        let mut m = PointMatrix::new(3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn empty_matrix_is_well_formed() {
        let m = PointMatrix::from_rows(vec![]);
        assert!(m.is_empty());
        assert_eq!(m.iter_rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn inconsistent_rows_panic() {
        let _ = PointMatrix::from_rows(vec![vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn from_flat_splits_rows() {
        let m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn soa_transpose_roundtrips() {
        let m = PointMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let soa = SoaPoints::from_matrix(&m);
        assert_eq!(soa.len(), 3);
        assert_eq!(soa.dim, 2);
        assert_eq!(soa.cols, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn dist_block_is_bitwise_euclidean_distance() {
        // Awkward magnitudes so any accumulation-order difference would
        // show up in the low bits.
        let m = PointMatrix::from_rows(
            (0..17)
                .map(|i| {
                    (0..5)
                        .map(|d| ((i * 7 + d * 13) as f64).sin() * 10f64.powi((d % 3) - 1))
                        .collect()
                })
                .collect(),
        );
        let soa = SoaPoints::from_matrix(&m);
        let mut tile = vec![f64::NAN; 17 * 17];
        for (is, js) in [(0..17, 0..17), (3..9, 11..17), (16..17, 0..1), (5..5, 0..4)] {
            let w = js.len();
            soa.dist_block(is.clone(), js.clone(), &mut tile);
            for (bi, i) in is.clone().enumerate() {
                for (bj, j) in js.clone().enumerate() {
                    let expected = crate::kmeans::euclidean_distance(m.row(i), m.row(j));
                    assert_eq!(
                        tile[bi * w + bj].to_bits(),
                        expected.to_bits(),
                        "pair ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn set_row_and_clear() {
        let mut m = PointMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.set_row(0, &[9.0, 8.0]);
        assert_eq!(m.row(0), &[9.0, 8.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.dim(), 2);
        m.push_row(&[5.0, 6.0]);
        assert_eq!(m.row(0), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_row_out_of_range_panics() {
        let mut m = PointMatrix::from_rows(vec![vec![1.0]]);
        m.set_row(1, &[2.0]);
    }

    #[test]
    fn dist_block_handles_zero_dim() {
        let m = PointMatrix::from_rows(vec![vec![], vec![]]);
        let soa = SoaPoints::from_matrix(&m);
        let mut tile = vec![f64::NAN; 4];
        soa.dist_block(0..2, 0..2, &mut tile);
        assert_eq!(tile, vec![0.0; 4]);
    }
}
