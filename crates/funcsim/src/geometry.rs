//! The Geometry Pipeline: Vertex Fetcher, Vertex Processors, Primitive
//! Assembly and clip/cull (left half of Fig. 1).

use megsim_gfx::draw::{DrawCall, Viewport};
use megsim_gfx::geometry::{Primitive, ScreenVertex};
use megsim_gfx::math::Vec4;
use megsim_gfx::shader::ShaderTable;

use crate::activity::FrameActivity;
use crate::trace::DrawGeometry;

/// A draw call after the Geometry Pipeline: surviving screen-space
/// primitives plus the per-draw trace record.
#[derive(Debug, Clone)]
pub struct TransformedDraw {
    /// Primitives forwarded to the Tiling Engine.
    pub prims: Vec<Primitive>,
    /// Trace record for the timing model.
    pub geometry: DrawGeometry,
}

/// Reusable Geometry Pipeline scratch: the per-mesh post-transform
/// vertex caches, grown once and recycled across draws and frames.
#[derive(Debug, Default)]
pub struct GeomScratch {
    clip: Vec<Option<Vec4>>,
    screen: Vec<Option<ScreenVertex>>,
}

impl GeomScratch {
    /// Clears both caches and sizes them for `n` vertices.
    fn reset(&mut self, n: usize) {
        self.clip.clear();
        self.clip.resize(n, None);
        self.screen.clear();
        self.screen.resize(n, None);
    }
}

/// Frustum outcode bits for trivial clipping.
fn outcode(v: Vec4) -> u8 {
    let mut code = 0u8;
    if v.x < -v.w {
        code |= 1;
    }
    if v.x > v.w {
        code |= 2;
    }
    if v.y < -v.w {
        code |= 4;
    }
    if v.y > v.w {
        code |= 8;
    }
    if v.z < -v.w {
        code |= 16;
    }
    if v.z > v.w {
        code |= 32;
    }
    code
}

/// Screen-space bound on vertex positions, in pixels. Inside it every
/// product the rasterizer's `f32` edge functions form stays below about
/// 4e36, short of `f32::MAX`, so edge values are finite, which the
/// exact span walk relies on.
const GUARD_BAND: f32 = 1e18;

/// Whether a shaded vertex can be rasterized: finite in clip and screen
/// space and positioned inside the [`GUARD_BAND`].
fn rasterizable(clip: Vec4, screen: &ScreenVertex) -> bool {
    [clip.x, clip.y, clip.z, clip.w, screen.z, screen.inv_w]
        .iter()
        .all(|c| c.is_finite())
        && screen.x.abs() <= GUARD_BAND
        && screen.y.abs() <= GUARD_BAND
}

/// Runs one draw call through the Geometry Pipeline.
///
/// Vertices are shaded once per unique index (modelling the
/// post-transform cache of the Vertex Processors); triangles whose
/// vertices all fall outside one frustum plane — or that touch the
/// near plane (`w ≤ ε`), or have a vertex that is non-finite or
/// outside the guard band — are clipped; back-facing and degenerate
/// triangles are culled. The synthetic workloads keep geometry clear of
/// the near plane, so the conservative near-plane rejection loses no
/// realism while avoiding a full polygon clipper.
pub fn process_draw(
    draw: &DrawCall,
    draw_index: u32,
    viewport: Viewport,
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
    collect_addresses: bool,
    scratch: &mut GeomScratch,
) -> TransformedDraw {
    let mesh = &draw.mesh;
    let vs = shaders.vertex_shader(draw.vertex_shader);
    let half_w = viewport.width as f32 * 0.5;
    let half_h = viewport.height as f32 * 0.5;

    // --- Vertex Fetcher + Vertex Processors -------------------------
    scratch.reset(mesh.vertices.len());
    let GeomScratch {
        clip: clip_cache,
        screen: screen_cache,
    } = scratch;
    let mut fetch_addresses = Vec::new();
    if collect_addresses {
        fetch_addresses.reserve(mesh.indices.len());
    }
    let mut vertices_shaded = 0u32;
    for &idx in &mesh.indices {
        if collect_addresses {
            fetch_addresses.push(mesh.vertex_address(idx));
        }
        let slot = &mut clip_cache[idx as usize];
        if slot.is_none() {
            let v = &mesh.vertices[idx as usize];
            let clip = draw.transform.transform_point(v.position);
            *slot = Some(clip);
            vertices_shaded += 1;
            if clip.w > f32::EPSILON {
                let ndc = clip.perspective_divide();
                let screen = ScreenVertex {
                    x: (ndc.x + 1.0) * half_w,
                    y: (ndc.y + 1.0) * half_h,
                    z: (ndc.z + 1.0) * 0.5,
                    inv_w: 1.0 / clip.w,
                    uv: v.uv,
                };
                if rasterizable(clip, &screen) {
                    screen_cache[idx as usize] = Some(screen);
                }
            }
        }
    }
    activity.vertices_fetched += mesh.indices.len() as u64;
    activity.vertices_shaded += u64::from(vertices_shaded);
    activity.vertex_shader_invocations[draw.vertex_shader.0 as usize] += u64::from(vertices_shaded);
    activity.vertex_instructions += u64::from(vertices_shaded) * u64::from(vs.instruction_count());

    // --- Primitive Assembly + clip/cull ------------------------------
    let tri_count = mesh.triangle_count();
    activity.primitives_assembled += tri_count as u64;
    let mut prims = Vec::with_capacity(tri_count);
    for tri in mesh.indices.chunks_exact(3) {
        let c = [
            clip_cache[tri[0] as usize].expect("shaded above"),
            clip_cache[tri[1] as usize].expect("shaded above"),
            clip_cache[tri[2] as usize].expect("shaded above"),
        ];
        // Trivial reject: all vertices outside one plane, behind the
        // eye, or without a screen position (touching the near plane,
        // non-finite or outside the guard band).
        let codes = [outcode(c[0]), outcode(c[1]), outcode(c[2])];
        let rejected = (codes[0] & codes[1] & codes[2]) != 0 || c.iter().any(|v| v.z < -v.w);
        let screen = [0, 1, 2].map(|i| screen_cache[tri[i] as usize]);
        let (false, [Some(v0), Some(v1), Some(v2)]) = (rejected, screen) else {
            activity.primitives_clipped += 1;
            continue;
        };
        let prim = Primitive { v: [v0, v1, v2] };
        let area2 = prim.signed_area2();
        if area2.abs() < 1e-6 {
            activity.primitives_culled_degenerate += 1;
            continue;
        }
        if area2 < 0.0 {
            activity.primitives_culled_backface += 1;
            continue;
        }
        prims.push(prim);
    }
    activity.primitives_emitted += prims.len() as u64;

    TransformedDraw {
        geometry: DrawGeometry {
            draw_index,
            vertex_shader: draw.vertex_shader,
            vertex_shader_instructions: vs.instruction_count(),
            vertex_fetch_addresses: fetch_addresses,
            vertices_shaded,
            primitives_assembled: tri_count as u32,
            primitives_emitted: prims.len() as u32,
        },
        prims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_gfx::draw::BlendMode;
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram};
    use std::sync::Arc;

    fn table() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 10));
        t.add(ShaderProgram::fragment(0, "fs", 5, vec![]));
        t
    }

    fn draw_of(mesh: Mesh, transform: Mat4) -> DrawCall {
        DrawCall {
            mesh: Arc::new(mesh),
            transform,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: None,
            blend: BlendMode::Opaque,
            depth_test: true,
        }
    }

    fn ccw_tri() -> Mesh {
        // CCW in NDC after identity transform.
        Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.0, 0.5, 0.0)),
            ],
            vec![0, 1, 2],
            0x100,
        )
    }

    #[test]
    fn front_facing_triangle_survives() {
        let draw = draw_of(ccw_tri(), Mat4::IDENTITY);
        let viewport = Viewport::new(100, 100, 32);
        let mut act = FrameActivity::new(1, 1);
        let out = process_draw(
            &draw,
            0,
            viewport,
            &table(),
            &mut act,
            true,
            &mut GeomScratch::default(),
        );
        assert_eq!(out.prims.len(), 1);
        assert_eq!(act.primitives_emitted, 1);
        assert_eq!(act.vertices_shaded, 3);
        assert_eq!(act.vertex_shader_invocations[0], 3);
        assert_eq!(act.vertex_instructions, 30);
        assert_eq!(out.geometry.vertex_fetch_addresses.len(), 3);
        // NDC (-0.5,-0.5) maps to pixel (25, 25) on a 100×100 target.
        assert!((out.prims[0].v[0].x - 25.0).abs() < 1e-3);
    }

    #[test]
    fn backface_is_culled() {
        let mut mesh = ccw_tri();
        mesh.indices = vec![0, 2, 1]; // reverse winding
        let draw = draw_of(mesh, Mat4::IDENTITY);
        let mut act = FrameActivity::new(1, 1);
        let out = process_draw(
            &draw,
            0,
            Viewport::new(100, 100, 32),
            &table(),
            &mut act,
            false,
            &mut GeomScratch::default(),
        );
        assert!(out.prims.is_empty());
        assert_eq!(act.primitives_culled_backface, 1);
    }

    #[test]
    fn offscreen_triangle_is_clipped() {
        let draw = draw_of(ccw_tri(), Mat4::translation(Vec3::new(10.0, 0.0, 0.0)));
        let mut act = FrameActivity::new(1, 1);
        let out = process_draw(
            &draw,
            0,
            Viewport::new(100, 100, 32),
            &table(),
            &mut act,
            false,
            &mut GeomScratch::default(),
        );
        assert!(out.prims.is_empty());
        assert_eq!(act.primitives_clipped, 1);
    }

    #[test]
    fn degenerate_triangle_is_dropped() {
        let mesh = Mesh::new(
            vec![
                Vertex::at(Vec3::new(0.0, 0.0, 0.0)),
                Vertex::at(Vec3::new(0.5, 0.5, 0.0)),
                Vertex::at(Vec3::new(0.25, 0.25, 0.0)),
            ],
            vec![0, 1, 2],
            0,
        );
        let draw = draw_of(mesh, Mat4::IDENTITY);
        let mut act = FrameActivity::new(1, 1);
        let out = process_draw(
            &draw,
            0,
            Viewport::new(100, 100, 32),
            &table(),
            &mut act,
            false,
            &mut GeomScratch::default(),
        );
        assert!(out.prims.is_empty());
        assert_eq!(act.primitives_culled_degenerate, 1);
    }

    #[test]
    fn shared_vertices_are_shaded_once() {
        // Two triangles sharing an edge: 4 unique vertices, 6 fetches.
        let mesh = Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.5, 0.5, 0.0)),
                Vertex::at(Vec3::new(-0.5, 0.5, 0.0)),
            ],
            vec![0, 1, 2, 0, 2, 3],
            0,
        );
        let draw = draw_of(mesh, Mat4::IDENTITY);
        let mut act = FrameActivity::new(1, 1);
        let _ = process_draw(
            &draw,
            0,
            Viewport::new(64, 64, 32),
            &table(),
            &mut act,
            false,
            &mut GeomScratch::default(),
        );
        assert_eq!(act.vertices_fetched, 6);
        assert_eq!(act.vertices_shaded, 4);
    }

    #[test]
    fn behind_camera_is_clipped() {
        let proj = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        // Triangle at z = +1 is behind a camera looking down -Z.
        let model = Mat4::translation(Vec3::new(0.0, 0.0, 1.0));
        let draw = draw_of(ccw_tri(), proj * model);
        let mut act = FrameActivity::new(1, 1);
        let out = process_draw(
            &draw,
            0,
            Viewport::new(64, 64, 32),
            &table(),
            &mut act,
            false,
            &mut GeomScratch::default(),
        );
        assert!(out.prims.is_empty());
        assert_eq!(act.primitives_clipped, 1);
    }
}
