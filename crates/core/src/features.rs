//! The vector of characteristics (paper §III-B, Fig. 2).
//!
//! Each frame is described by `[VSCV₁..p | FSCV₁..q | PRIM]`: per-shader
//! invocation counts weighted by the shader's instruction count (texture
//! instructions weighted by their filter's memory accesses), plus the
//! number of primitives reaching the Tiling Engine.

use serde::{Deserialize, Serialize};

use megsim_cluster::PointMatrix;
use megsim_funcsim::FrameActivity;
use megsim_gfx::shader::ShaderTable;

/// Options of the characterization step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CharacterizationConfig {
    /// Weight texture instructions by the memory accesses of their
    /// filter mode (paper §III-B: linear = 2, bilinear = 4,
    /// trilinear = 8). Disabled for the ablation study.
    pub weight_texture_filters: bool,
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        Self {
            weight_texture_filters: true,
        }
    }
}

/// The `N × D` dataset of paper §III-B: one row per frame.
///
/// Rows are stored contiguously (row-major) in a [`PointMatrix`] so the
/// normalization and distance kernels downstream stream cache lines
/// instead of chasing one heap allocation per frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMatrix {
    /// Raw (un-normalized) rows, one per frame, in contiguous storage.
    pub rows: PointMatrix,
    /// Number of vertex-shader columns (`p` in Fig. 2).
    pub vscv_len: usize,
    /// Number of fragment-shader columns (`q` in Fig. 2).
    pub fscv_len: usize,
}

impl FeatureMatrix {
    /// Packs nested per-frame rows into a contiguous matrix.
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not `vscv_len + fscv_len + 1`.
    pub fn from_rows(rows: Vec<Vec<f64>>, vscv_len: usize, fscv_len: usize) -> Self {
        let mut data = PointMatrix::with_capacity(rows.len(), vscv_len + fscv_len + 1);
        for row in &rows {
            data.push_row(row);
        }
        Self {
            rows: data,
            vscv_len,
            fscv_len,
        }
    }

    /// Number of frames `N`.
    pub fn frames(&self) -> usize {
        self.rows.len()
    }

    /// Vector dimensionality `D = p + q + 1`.
    pub fn dim(&self) -> usize {
        self.vscv_len + self.fscv_len + 1
    }

    /// Column `c` as a vector (used by the Fig. 3 correlation study).
    pub fn column(&self, c: usize) -> Vec<f64> {
        self.rows.iter_rows().map(|r| r[c]).collect()
    }
}

/// Builds one frame's vector of characteristics from its functional
/// activity.
///
/// # Panics
///
/// Panics if the activity's shader-count vectors disagree with the
/// shader table.
pub fn characterize_frame(
    activity: &FrameActivity,
    shaders: &ShaderTable,
    config: &CharacterizationConfig,
) -> Vec<f64> {
    let mut row = Vec::with_capacity(shaders.vertex_count() + shaders.fragment_count() + 1);
    characterize_frame_into(activity, shaders, config, &mut row);
    row
}

/// Buffer-reusing variant of [`characterize_frame`]: clears `row` and
/// fills it with the frame's vector of characteristics. The streaming
/// pipeline characterizes unboundedly many frames through one buffer,
/// so its steady state allocates nothing per frame.
///
/// # Panics
///
/// Panics if the activity's shader-count vectors disagree with the
/// shader table.
pub fn characterize_frame_into(
    activity: &FrameActivity,
    shaders: &ShaderTable,
    config: &CharacterizationConfig,
    row: &mut Vec<f64>,
) {
    assert_eq!(
        activity.vertex_shader_invocations.len(),
        shaders.vertex_count(),
        "activity/shader-table mismatch (vertex)"
    );
    assert_eq!(
        activity.fragment_shader_invocations.len(),
        shaders.fragment_count(),
        "activity/shader-table mismatch (fragment)"
    );
    row.clear();
    for (shader, &count) in shaders
        .vertex_shaders()
        .zip(&activity.vertex_shader_invocations)
    {
        let weight = if config.weight_texture_filters {
            shader.weighted_instruction_count()
        } else {
            u64::from(shader.instruction_count())
        };
        row.push(count as f64 * weight as f64);
    }
    for (shader, &count) in shaders
        .fragment_shaders()
        .zip(&activity.fragment_shader_invocations)
    {
        let weight = if config.weight_texture_filters {
            shader.weighted_instruction_count()
        } else {
            u64::from(shader.instruction_count())
        };
        row.push(count as f64 * weight as f64);
    }
    row.push(activity.primitives_emitted as f64);
}

/// Builds the `N × D` feature matrix from a sequence of per-frame
/// activities.
pub fn feature_matrix<'a>(
    activities: impl IntoIterator<Item = &'a FrameActivity>,
    shaders: &ShaderTable,
    config: &CharacterizationConfig,
) -> FeatureMatrix {
    let rows = activities
        .into_iter()
        .map(|a| characterize_frame(a, shaders, config))
        .collect();
    FeatureMatrix::from_rows(rows, shaders.vertex_count(), shaders.fragment_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_gfx::shader::{ShaderProgram, TextureFilter};

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "v0", 10));
        t.add(ShaderProgram::vertex(1, "v1", 20));
        t.add(ShaderProgram::fragment(
            0,
            "f0",
            5,
            vec![TextureFilter::Bilinear],
        ));
        t
    }

    fn activity() -> FrameActivity {
        let mut a = FrameActivity::new(2, 1);
        a.vertex_shader_invocations = vec![3, 1];
        a.fragment_shader_invocations = vec![100];
        a.primitives_emitted = 42;
        a
    }

    #[test]
    fn layout_matches_fig2() {
        let m = feature_matrix([&activity()], &shaders(), &Default::default());
        assert_eq!(m.frames(), 1);
        assert_eq!(m.dim(), 4);
        // VSCV: count × instructions; FSCV: 5 ALU + bilinear(4); PRIM.
        assert_eq!(m.rows.row(0), &[30.0, 20.0, 100.0 * 9.0, 42.0]);
    }

    #[test]
    fn texture_weighting_can_be_disabled() {
        let cfg = CharacterizationConfig {
            weight_texture_filters: false,
        };
        let row = characterize_frame(&activity(), &shaders(), &cfg);
        assert_eq!(row[2], 100.0 * 6.0); // 5 ALU + 1 texture instruction
    }

    #[test]
    fn into_variant_reuses_the_buffer_and_matches() {
        let expected = characterize_frame(&activity(), &shaders(), &Default::default());
        let mut row = vec![99.0; 17]; // stale content must be cleared
        characterize_frame_into(&activity(), &shaders(), &Default::default(), &mut row);
        assert_eq!(row, expected);
        characterize_frame_into(&activity(), &shaders(), &Default::default(), &mut row);
        assert_eq!(row, expected);
    }

    #[test]
    fn column_extraction() {
        let m = feature_matrix([&activity(), &activity()], &shaders(), &Default::default());
        assert_eq!(m.column(3), vec![42.0, 42.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shader_table_mismatch_is_loud() {
        let a = FrameActivity::new(1, 1);
        let _ = characterize_frame(&a, &shaders(), &Default::default());
    }
}
