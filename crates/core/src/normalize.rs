//! Input-parameter normalization (paper §III-C).
//!
//! The three groups of the vector of characteristics represent different
//! amounts of pipeline activity, so they are weighted by the fraction of
//! power each pipeline phase dissipates (Fig. 4): Geometry 0.108 for the
//! VSCV group, Raster 0.745 for the FSCV group, Tiling 0.147 for PRIM.
//! "A per-column normalization is performed by adding all the values
//! within each group of characteristics which are then weighted
//! accordingly" — i.e. every group is rescaled so its total mass equals
//! its weight.

use serde::{Deserialize, Serialize};

use megsim_cluster::PointMatrix;

use crate::features::FeatureMatrix;

/// Per-phase weights of the three feature groups.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupWeights {
    /// Weight of the VSCV group (Geometry Pipeline power fraction).
    pub geometry: f64,
    /// Weight of the FSCV group (Raster Pipeline power fraction).
    pub raster: f64,
    /// Weight of the PRIM element (Tiling Engine power fraction).
    pub tiling: f64,
}

impl GroupWeights {
    /// The paper's power-derived weights (§III-C).
    pub const fn paper() -> Self {
        Self {
            geometry: 0.108,
            raster: 0.745,
            tiling: 0.147,
        }
    }

    /// Equal weights — ablation baseline.
    pub const fn uniform() -> Self {
        Self {
            geometry: 1.0 / 3.0,
            raster: 1.0 / 3.0,
            tiling: 1.0 / 3.0,
        }
    }

    /// Shader-count-only characterization (no Tiling information) —
    /// the strawman §III-B argues against.
    pub const fn shader_only() -> Self {
        Self {
            geometry: 0.127,
            raster: 0.873,
            tiling: 0.0,
        }
    }
}

impl Default for GroupWeights {
    fn default() -> Self {
        Self::paper()
    }
}

/// Normalizes a feature matrix into the weighted dataset that feeds the
/// clustering step: each group is rescaled so its total mass equals the
/// group weight.
///
/// Groups with zero mass (e.g. a frame range that never emits
/// primitives) contribute zero columns rather than NaNs.
pub fn normalize(matrix: &FeatureMatrix, weights: &GroupWeights) -> PointMatrix {
    let p = matrix.vscv_len;
    let q = matrix.fscv_len;
    let d = matrix.dim();
    // Group masses.
    let mut mass = [0.0f64; 3];
    for row in matrix.rows.iter_rows() {
        for (c, &v) in row.iter().enumerate() {
            let g = group_of(c, p, q);
            mass[g] += v;
        }
    }
    let scale = [
        if mass[0] > 0.0 {
            weights.geometry / mass[0]
        } else {
            0.0
        },
        if mass[1] > 0.0 {
            weights.raster / mass[1]
        } else {
            0.0
        },
        if mass[2] > 0.0 {
            weights.tiling / mass[2]
        } else {
            0.0
        },
    ];
    // One linear pass over the flat buffer; the column index cycles
    // modulo `d`.
    let flat: Vec<f64> = matrix
        .rows
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &v)| v * scale[group_of(i % d, p, q)])
        .collect();
    PointMatrix::from_flat(flat, d)
}

/// Incremental group-mass accumulator for the single-pass streaming
/// pipeline: feed rows with `add_row` in arrival
/// order and read off per-column scales at any point.
///
/// The accumulation is the **exact floating-point fold** of
/// [`normalize`] — row by row, column within row — so after the last
/// row the masses, and therefore the scales, are bitwise what the batch
/// pass computes. That identity is what makes the exact-reservoir
/// streaming mode reproduce `select_representatives` bit for bit.
#[derive(Debug, Clone)]
pub struct RunningGroupMass {
    p: usize,
    q: usize,
    mass: [f64; 3],
}

impl RunningGroupMass {
    /// A zeroed accumulator for rows with `vscv_len` geometry columns
    /// and `fscv_len` raster columns (plus the trailing PRIM column).
    pub(crate) fn new(vscv_len: usize, fscv_len: usize) -> Self {
        Self {
            p: vscv_len,
            q: fscv_len,
            mass: [0.0; 3],
        }
    }

    /// Row dimensionality `p + q + 1`.
    fn dim(&self) -> usize {
        self.p + self.q + 1
    }

    /// Accumulates one raw feature row (same column-ascending add
    /// sequence as the batch mass pass).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim()`.
    pub(crate) fn add_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim(), "row length != feature dim");
        for (c, &v) in row.iter().enumerate() {
            self.mass[group_of(c, self.p, self.q)] += v;
        }
    }

    /// Writes the current per-column scale vector into `out` (cleared
    /// first; reuse the buffer across rows to stay allocation-free).
    /// Column `c`'s scale is its group's `weight / mass` — the exact
    /// value [`normalize`] multiplies by — or `0` for a zero-mass
    /// group.
    pub(crate) fn column_scales_into(&self, weights: &GroupWeights, out: &mut Vec<f64>) {
        let scale = [
            if self.mass[0] > 0.0 {
                weights.geometry / self.mass[0]
            } else {
                0.0
            },
            if self.mass[1] > 0.0 {
                weights.raster / self.mass[1]
            } else {
                0.0
            },
            if self.mass[2] > 0.0 {
                weights.tiling / self.mass[2]
            } else {
                0.0
            },
        ];
        out.clear();
        out.extend((0..self.dim()).map(|c| scale[group_of(c, self.p, self.q)]));
    }
}

#[inline]
fn group_of(column: usize, p: usize, q: usize) -> usize {
    if column < p {
        0
    } else if column < p + q {
        1
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> FeatureMatrix {
        FeatureMatrix::from_rows(
            vec![
                vec![1.0, 3.0, 10.0, 30.0, 5.0],
                vec![2.0, 2.0, 20.0, 20.0, 15.0],
            ],
            2,
            2,
        )
    }

    #[test]
    fn group_masses_equal_weights_after_normalization() {
        let norm = normalize(&matrix(), &GroupWeights::paper());
        let vscv_mass: f64 = norm.iter_rows().map(|r| r[0] + r[1]).sum();
        let fscv_mass: f64 = norm.iter_rows().map(|r| r[2] + r[3]).sum();
        let prim_mass: f64 = norm.iter_rows().map(|r| r[4]).sum();
        assert!((vscv_mass - 0.108).abs() < 1e-12);
        assert!((fscv_mass - 0.745).abs() < 1e-12);
        assert!((prim_mass - 0.147).abs() < 1e-12);
    }

    #[test]
    fn relative_structure_within_group_is_preserved() {
        let norm = normalize(&matrix(), &GroupWeights::uniform());
        // Row 1's PRIM is 3× row 0's, before and after.
        assert!((norm.row(1)[4] / norm.row(0)[4] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_removes_a_group() {
        let norm = normalize(&matrix(), &GroupWeights::shader_only());
        assert_eq!(norm.row(0)[4], 0.0);
        assert_eq!(norm.row(1)[4], 0.0);
    }

    #[test]
    fn zero_mass_group_yields_zeros_not_nan() {
        let m = FeatureMatrix::from_rows(vec![vec![0.0, 0.0, 1.0], vec![0.0, 0.0, 2.0]], 1, 1);
        let norm = normalize(&m, &GroupWeights::paper());
        assert!(norm.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(norm.row(0)[0], 0.0);
    }

    #[test]
    fn running_mass_reproduces_batch_normalization_bitwise() {
        // Awkward magnitudes so any fold-order difference shows in the
        // low bits.
        let m = FeatureMatrix::from_rows(
            (0..37)
                .map(|i| {
                    (0..5)
                        .map(|c| ((i * 7 + c * 13) as f64).sin().abs() * 10f64.powi(c % 3))
                        .collect()
                })
                .collect(),
            2,
            2,
        );
        for weights in [
            GroupWeights::paper(),
            GroupWeights::uniform(),
            GroupWeights::shader_only(),
        ] {
            let batch = normalize(&m, &weights);
            let mut running = RunningGroupMass::new(2, 2);
            for row in m.rows.iter_rows() {
                running.add_row(row);
            }
            let mut scales = Vec::new();
            running.column_scales_into(&weights, &mut scales);
            for (i, row) in m.rows.iter_rows().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    assert_eq!(
                        (v * scales[c]).to_bits(),
                        batch.row(i)[c].to_bits(),
                        "row {i} col {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn running_mass_handles_zero_mass_groups() {
        let mut running = RunningGroupMass::new(1, 1);
        running.add_row(&[0.0, 0.0, 2.0]);
        let mut scales = Vec::new();
        running.column_scales_into(&GroupWeights::paper(), &mut scales);
        assert_eq!(scales[0], 0.0);
        assert_eq!(scales[1], 0.0);
        assert!(scales[2].is_finite() && scales[2] > 0.0);
    }

    #[test]
    fn paper_weights_sum_to_one() {
        let w = GroupWeights::paper();
        assert!((w.geometry + w.raster + w.tiling - 1.0).abs() < 1e-9);
    }
}
