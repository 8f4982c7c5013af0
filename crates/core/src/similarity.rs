//! The Similarity Matrix of paper §III-D (Fig. 5/6): an upper-triangular
//! `N × N` matrix of Euclidean distances between frame characteristic
//! vectors, with text/PGM renderers for visual inspection.
//!
//! Construction is the O(N²·D) hot spot of the characterization flow,
//! so [`SimilarityMatrix::from_points`] transposes the frames once into
//! a column-major [`SoaPoints`] and computes the upper triangle through
//! the cache-blocked pairwise kernel ([`SoaPoints::dist_block`]): row
//! blocks fan out on the `megsim-exec` worker pool, and within a block
//! each tile streams contiguous column slices the compiler vectorizes.
//! Per pair the kernel accumulates dimension by dimension — the exact
//! `euclidean_distance` op sequence — and block boundaries depend only
//! on `N`, so the packed triangle is bit-identical to the old per-row
//! scan at any thread count.

use megsim_cluster::{PointMatrix, SoaPoints};

/// Rows per pool task of the blocked triangle construction (also the
/// tile height). Fixed, so block boundaries never depend on the thread
/// count.
const ROW_BLOCK: usize = 64;

/// Tile width of the blocked kernel: 64 × 256 f64s is a 128 KiB tile,
/// resident in L2 while every dimension's column passes over it.
const J_BLOCK: usize = 256;

/// Upper-triangular matrix of pairwise frame distances.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    n: usize,
    /// Row-major upper triangle, including the zero diagonal.
    data: Vec<f64>,
}

impl SimilarityMatrix {
    /// Builds the matrix from (normalized) frame vectors held in
    /// contiguous storage, parallelizing across upper-triangle rows.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn from_points(frames: &PointMatrix) -> Self {
        assert!(!frames.is_empty(), "similarity of zero frames is undefined");
        let n = frames.len();
        let soa = SoaPoints::from_matrix(frames);
        // Each task owns ROW_BLOCK consecutive rows of the packed
        // triangle and walks the columns j ≥ row start in J_BLOCK-wide
        // tiles. Blocks shrink toward the bottom of the triangle; the
        // pool's work-stealing counter balances that skew, and ordered
        // collection keeps the concatenation deterministic.
        let blocks = megsim_exec::par_map_chunks(n, ROW_BLOCK, |is| {
            let h = is.len();
            // Start offset of each row's packed segment within this
            // block's output (row i owns n − i entries).
            let mut offsets = Vec::with_capacity(h);
            let mut total = 0usize;
            for i in is.clone() {
                offsets.push(total);
                total += n - i;
            }
            let mut out = vec![0.0f64; total];
            let mut tile = vec![0.0f64; h * J_BLOCK];
            let mut j0 = is.start;
            while j0 < n {
                let js = j0..(j0 + J_BLOCK).min(n);
                let w = js.len();
                soa.dist_block(is.clone(), js.clone(), &mut tile);
                for (bi, i) in is.clone().enumerate() {
                    // Only the triangle part (j ≥ i) of the tile lands
                    // in the output; it is contiguous in both the tile
                    // row and the packed segment.
                    let jlo = j0.max(i);
                    if jlo >= js.end {
                        continue;
                    }
                    let base = offsets[bi];
                    out[base + (jlo - i)..base + (js.end - i)]
                        .copy_from_slice(&tile[bi * w + (jlo - j0)..(bi + 1) * w]);
                }
                j0 = js.end;
            }
            out
        });
        let mut data = Vec::with_capacity(n * (n + 1) / 2);
        for block in blocks {
            data.extend_from_slice(&block);
        }
        Self { n, data }
    }

    /// Builds the matrix from nested per-frame vectors (convenience
    /// wrapper over [`SimilarityMatrix::from_points`]).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or rows have inconsistent lengths.
    pub fn from_vectors(frames: &[Vec<f64>]) -> Self {
        Self::from_points(&PointMatrix::from_rows(frames.to_vec()))
    }

    /// Number of frames `N`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: construction requires at least one frame; provided
    /// for API symmetry with `len`.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between frames `i` and `j` (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "frame index out of range");
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        // Elements before row `a` in the packed triangle: Σ_{r<a} (n−r).
        let before = a * self.n - a * (a + 1) / 2 + a;
        self.data[before + (b - a)]
    }

    /// Largest distance in the matrix.
    fn max_distance(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Renders the matrix as ASCII art (darker = more similar), down-
    /// sampled to roughly `size × size` characters — the Fig. 5 plot.
    pub fn render_ascii(&self, size: usize) -> String {
        let size = size.clamp(1, self.n);
        let shades = [b'@', b'#', b'%', b'+', b'-', b':', b'.', b' '];
        let max = self.max_distance().max(f64::MIN_POSITIVE);
        let mut out = String::with_capacity(size * (size + 1));
        for by in 0..size {
            for bx in 0..size {
                if bx < by {
                    out.push(' ');
                    continue;
                }
                // Average distance within the block.
                let (i0, i1) = block_range(by, size, self.n);
                let (j0, j1) = block_range(bx, size, self.n);
                let mut sum = 0.0;
                let mut count = 0usize;
                for i in i0..i1 {
                    for j in j0..j1 {
                        if j >= i {
                            sum += self.distance(i, j);
                            count += 1;
                        }
                    }
                }
                let avg = if count == 0 { max } else { sum / count as f64 };
                let shade = ((avg / max) * (shades.len() - 1) as f64).round() as usize;
                out.push(shades[shade.min(shades.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the full matrix as a binary PGM image (P5), darker =
    /// more similar, for external plotting.
    pub fn to_pgm(&self) -> Vec<u8> {
        let max = self.max_distance().max(f64::MIN_POSITIVE);
        let mut out = format!("P5\n{} {}\n255\n", self.n, self.n).into_bytes();
        for i in 0..self.n {
            for j in 0..self.n {
                let d = self.distance(i.min(j), i.max(j));
                out.push((d / max * 255.0).round().clamp(0.0, 255.0) as u8);
            }
        }
        out
    }
}

fn block_range(block: usize, blocks: usize, n: usize) -> (usize, usize) {
    let lo = block * n / blocks;
    let hi = ((block + 1) * n / blocks).max(lo + 1).min(n);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![0.0, 0.1],
            vec![6.0, 8.0],
        ]
    }

    #[test]
    fn diagonal_is_zero() {
        let m = SimilarityMatrix::from_vectors(&vectors());
        for i in 0..4 {
            assert_eq!(m.distance(i, i), 0.0);
        }
    }

    #[test]
    fn distances_are_symmetric_and_correct() {
        let m = SimilarityMatrix::from_vectors(&vectors());
        assert_eq!(m.distance(0, 1), 5.0);
        assert_eq!(m.distance(1, 0), 5.0);
        assert!((m.distance(0, 2) - 0.1).abs() < 1e-9);
        assert_eq!(m.distance(0, 3), 10.0);
        assert_eq!(m.distance(1, 3), 5.0);
    }

    #[test]
    fn max_distance_found() {
        let m = SimilarityMatrix::from_vectors(&vectors());
        assert_eq!(m.max_distance(), 10.0);
    }

    #[test]
    fn ascii_render_has_requested_shape() {
        let m = SimilarityMatrix::from_vectors(&vectors());
        let art = m.render_ascii(4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == 4));
        // Diagonal blocks are the most similar (darkest shade '@').
        assert_eq!(lines[0].as_bytes()[0], b'@');
    }

    #[test]
    fn pgm_header_and_size() {
        let m = SimilarityMatrix::from_vectors(&vectors());
        let pgm = m.to_pgm();
        assert!(pgm.starts_with(b"P5\n4 4\n255\n"));
        assert_eq!(pgm.len(), b"P5\n4 4\n255\n".len() + 16);
    }

    #[test]
    fn similar_frames_are_darker_than_dissimilar() {
        let m = SimilarityMatrix::from_vectors(&vectors());
        assert!(m.distance(0, 2) < m.distance(0, 3));
    }

    #[test]
    fn blocked_kernel_is_bitwise_the_naive_scan() {
        // 131 frames spans multiple ROW_BLOCKs with a ragged tail, and
        // the awkward magnitudes would expose any accumulation-order
        // change in the low bits.
        let frames = PointMatrix::from_rows(
            (0..131)
                .map(|i| {
                    (0..7)
                        .map(|d| ((i * 31 + d * 17) as f64).sin() * 10f64.powi(d % 3))
                        .collect()
                })
                .collect(),
        );
        let m = SimilarityMatrix::from_points(&frames);
        for i in (0..131).step_by(13) {
            for j in (i..131).step_by(7) {
                let expected = megsim_cluster::euclidean_distance(frames.row(i), frames.row(j));
                assert_eq!(
                    m.distance(i, j).to_bits(),
                    expected.to_bits(),
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let frames = PointMatrix::from_rows(
            (0..120)
                .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.11).cos(), i as f64])
                .collect(),
        );
        let mut matrices = Vec::new();
        for threads in [1usize, 2, 8] {
            matrices.push(megsim_exec::with_threads(threads, || {
                SimilarityMatrix::from_points(&frames)
            }));
        }
        for pair in matrices.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }
}
