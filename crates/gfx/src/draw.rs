//! Draw calls and frames — the simulator's equivalent of the OpenGL
//! command trace that TEAPOT captures from the Android emulator.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::geometry::Mesh;
use crate::math::Mat4;
use crate::shader::ShaderId;
use crate::texture::TextureDesc;

/// How fragment output combines with the tile's color buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BlendMode {
    /// Overwrite the destination (opaque geometry).
    #[default]
    Opaque,
    /// Read-modify-write alpha blending (transparent geometry).
    AlphaBlend,
    /// Additive blending (particles, glows).
    Additive,
}

impl BlendMode {
    /// True when the blend reads the destination color (extra tile-buffer
    /// traffic in the Blending Unit).
    pub const fn reads_destination(self) -> bool {
        !matches!(self, BlendMode::Opaque)
    }
}

/// One draw call: a mesh drawn with a transform and a shader pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrawCall {
    /// Geometry to draw. `Arc` so the thousands of frames of a workload
    /// can share the mesh library without cloning vertex data.
    pub mesh: Arc<Mesh>,
    /// Model-view-projection transform applied by the vertex shader.
    pub transform: Mat4,
    /// Vertex shader executed per vertex.
    pub vertex_shader: ShaderId,
    /// Fragment shader executed per visible fragment.
    pub fragment_shader: ShaderId,
    /// Texture bound to the fragment shader's samplers, if any.
    pub texture: Option<TextureDesc>,
    /// Blending mode of the output.
    pub blend: BlendMode,
    /// Whether fragments are depth-tested/depth-written.
    pub depth_test: bool,
}

/// One frame of the workload: an ordered list of draw calls.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Frame {
    /// Draw calls in submission order.
    pub draws: Vec<DrawCall>,
}

impl Frame {
    /// Creates an empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total triangles submitted this frame (pre-culling).
    pub fn submitted_triangles(&self) -> usize {
        self.draws.iter().map(|d| d.mesh.triangle_count()).sum()
    }
}

/// Render-target description shared by the functional and timing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Viewport {
    /// Render-target width in pixels.
    pub width: u32,
    /// Render-target height in pixels.
    pub height: u32,
    /// Tile edge length in pixels (square tiles).
    pub tile_size: u32,
}

impl Viewport {
    /// The paper's baseline target: 1440×720 with 32×32 tiles (Table I).
    pub const MALI450_BASELINE: Self = Self {
        width: 1440,
        height: 720,
        tile_size: 32,
    };

    /// Creates a viewport.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(width: u32, height: u32, tile_size: u32) -> Self {
        assert!(
            width > 0 && height > 0 && tile_size > 0,
            "viewport dimensions must be non-zero"
        );
        Self {
            width,
            height,
            tile_size,
        }
    }

    /// Number of tile columns.
    pub fn tiles_x(&self) -> u32 {
        self.width.div_ceil(self.tile_size)
    }

    /// Number of tile rows.
    pub fn tiles_y(&self) -> u32 {
        self.height.div_ceil(self.tile_size)
    }

    /// Total number of tiles on screen.
    pub fn tile_count(&self) -> u32 {
        self.tiles_x() * self.tiles_y()
    }

    /// Flattened tile index for a tile coordinate.
    pub fn tile_index(&self, tx: u32, ty: u32) -> u32 {
        ty * self.tiles_x() + tx
    }

    /// Pixel rectangle `(x0, y0, x1, y1)` of a tile (exclusive max),
    /// clamped to the render target.
    pub fn tile_rect(&self, tx: u32, ty: u32) -> (u32, u32, u32, u32) {
        let x0 = tx * self.tile_size;
        let y0 = ty * self.tile_size;
        (
            x0,
            y0,
            (x0 + self.tile_size).min(self.width),
            (y0 + self.tile_size).min(self.height),
        )
    }

    /// Tile range `(tx0, ty0, tx1, ty1)` (inclusive) overlapped by a
    /// screen-space bounding box, or `None` if fully off-screen.
    pub fn tiles_overlapping(
        &self,
        min_x: f32,
        min_y: f32,
        max_x: f32,
        max_y: f32,
    ) -> Option<(u32, u32, u32, u32)> {
        if max_x < 0.0 || max_y < 0.0 || min_x >= self.width as f32 || min_y >= self.height as f32 {
            return None;
        }
        let clamp = |v: f32, hi: u32| (v.max(0.0) as u32).min(hi - 1);
        let ts = self.tile_size;
        Some((
            clamp(min_x, self.width) / ts,
            clamp(min_y, self.height) / ts,
            clamp(max_x, self.width) / ts,
            clamp(max_y, self.height) / ts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vertex;
    use crate::math::Vec3;

    fn mesh() -> Arc<Mesh> {
        Arc::new(Mesh::new(
            vec![Vertex::at(Vec3::ZERO); 4],
            vec![0, 1, 2, 0, 2, 3],
            0,
        ))
    }

    #[test]
    fn draw_call_counts() {
        let d = DrawCall {
            mesh: mesh(),
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: None,
            blend: BlendMode::Opaque,
            depth_test: true,
        };
        let mut f = Frame::new();
        f.draws.push(d.clone());
        f.draws.push(d);
        assert_eq!(f.submitted_triangles(), 4);
    }

    #[test]
    fn blend_destination_reads() {
        assert!(!BlendMode::Opaque.reads_destination());
        assert!(BlendMode::AlphaBlend.reads_destination());
        assert!(BlendMode::Additive.reads_destination());
    }

    #[test]
    fn baseline_viewport_matches_table1() {
        let v = Viewport::MALI450_BASELINE;
        assert_eq!((v.width, v.height, v.tile_size), (1440, 720, 32));
        assert_eq!(v.tiles_x(), 45);
        assert_eq!(v.tiles_y(), 23);
        assert_eq!(v.tile_count(), 45 * 23);
    }

    #[test]
    fn tile_rect_clamps_to_target() {
        let v = Viewport::new(100, 50, 32);
        assert_eq!(v.tile_rect(3, 1), (96, 32, 100, 50));
    }

    #[test]
    fn tiles_overlapping_offscreen_is_none() {
        let v = Viewport::new(100, 100, 32);
        assert!(v.tiles_overlapping(-50.0, 0.0, -1.0, 10.0).is_none());
        assert!(v.tiles_overlapping(100.0, 0.0, 120.0, 10.0).is_none());
    }

    #[test]
    fn tiles_overlapping_clamps_partially_visible() {
        let v = Viewport::new(100, 100, 32);
        let r = v.tiles_overlapping(-10.0, -10.0, 200.0, 5.0).unwrap();
        assert_eq!(r, (0, 0, 3, 0));
    }

    #[test]
    fn tile_index_is_row_major() {
        let v = Viewport::new(128, 128, 32);
        assert_eq!(v.tile_index(1, 2), 2 * 4 + 1);
    }
}
