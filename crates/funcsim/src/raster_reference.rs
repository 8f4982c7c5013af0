//! The original scalar Raster Pipeline, kept verbatim as the oracle for
//! the optimized hot path in [`crate::raster`].
//!
//! Every pixel re-evaluates all three edge functions from scratch via
//! [`edge_function`] and every primitive allocates a fresh quad `Vec` —
//! exactly the code the span rasterizer replaced, except for the
//! one bug fix both share (bounding boxes snap to even offsets relative
//! to the *rect origin*, so odd tile origins cannot misalign quads).
//! The equivalence tests at the bottom of this file (proptests, fixed
//! fill-rule edge cases and real benchmark frames at the baseline
//! viewport) pin the optimized rasterizer to this implementation bit
//! for bit; the
//! `reference` cargo feature exposes it to benchmarks so speedups are
//! measured against the true baseline.

use megsim_gfx::draw::{Frame, Viewport};
use megsim_gfx::geometry::Primitive;
use megsim_gfx::math::{edge_function, Vec2};
use megsim_gfx::shader::ShaderTable;

use crate::activity::FrameActivity;
use crate::binning::{bin_primitives, BinScratch, TileBins};
use crate::geometry::{process_draw, GeomScratch, TransformedDraw};
use crate::raster::{count_prim, quad_pixels, texture_lod, tile_prim, DepthBuffer, DepthPolicy};
use crate::renderer::{RenderConfig, RenderMode};
use crate::trace::{FrameTrace, QuadTrace, TileTrace};

/// Renders a frame end to end through the reference Raster Pipeline
/// (Geometry Pipeline and Tiling Engine are shared with the optimized
/// path — only rasterization differs), using fresh allocations
/// throughout, as the original renderer did.
pub fn render_frame_reference(
    config: RenderConfig,
    frame: &Frame,
    shaders: &ShaderTable,
    collect_trace: bool,
) -> FrameTrace {
    let viewport = config.viewport;
    let mode = config.mode;
    let mut activity = FrameActivity::new(shaders.vertex_count(), shaders.fragment_count());
    let transformed: Vec<_> = frame
        .draws
        .iter()
        .enumerate()
        .map(|(i, draw)| {
            process_draw(
                draw,
                i as u32,
                viewport,
                shaders,
                &mut activity,
                collect_trace,
                &mut GeomScratch::default(),
            )
        })
        .collect();
    let bins = if mode == RenderMode::Immediate {
        TileBins::empty()
    } else {
        bin_primitives(
            &transformed,
            viewport,
            &mut activity,
            &mut BinScratch::default(),
        )
    };
    let tiles = rasterize_frame_reference(
        frame,
        &transformed,
        &bins,
        viewport,
        shaders,
        mode,
        &mut activity,
        collect_trace,
    );
    FrameTrace {
        mode,
        viewport,
        geometry: transformed.into_iter().map(|t| t.geometry).collect(),
        tiles,
        activity: std::sync::Arc::new(activity),
    }
}

/// Reference counterpart of [`crate::raster::rasterize_frame`].
#[allow(clippy::too_many_arguments)]
pub fn rasterize_frame_reference(
    frame: &Frame,
    draws: &[TransformedDraw],
    bins: &TileBins,
    viewport: Viewport,
    shaders: &ShaderTable,
    mode: RenderMode,
    activity: &mut FrameActivity,
    collect_trace: bool,
) -> Vec<TileTrace> {
    match mode {
        RenderMode::TileBased | RenderMode::TileBasedDeferred => rasterize_tiles(
            frame,
            bins,
            viewport,
            shaders,
            mode == RenderMode::TileBasedDeferred,
            activity,
            collect_trace,
        ),
        RenderMode::Immediate => {
            rasterize_immediate(frame, draws, viewport, shaders, activity, collect_trace)
        }
    }
}

/// TBR / TBDR path: rasterize tile by tile in bin order.
fn rasterize_tiles(
    frame: &Frame,
    bins: &TileBins,
    viewport: Viewport,
    shaders: &ShaderTable,
    hidden_surface_removal: bool,
    activity: &mut FrameActivity,
    collect_trace: bool,
) -> Vec<TileTrace> {
    let mut tiles_out = Vec::new();
    let mut depth = DepthBuffer::new();
    let tiles_x = viewport.tiles_x();
    for (tile_index, prim_indices) in bins.touched_tiles() {
        let tx = tile_index % tiles_x;
        let ty = tile_index / tiles_x;
        let rect = viewport.tile_rect(tx, ty);
        let origin = (rect.0, rect.1);
        depth.reset(viewport.tile_size, viewport.tile_size, true);
        // Pass 1: rasterize every primitive. Opaque prims resolve depth
        // (and, under HSR, the per-pixel winner); others test only.
        let mut pending: Vec<(u32, Vec<QuadTrace>)> = Vec::new(); // (prim idx, quads)
        let mut deferred: Vec<u32> = Vec::new(); // non-opaque prims (HSR)
        for &pi in prim_indices {
            let binned = bins.prim(pi);
            let draw = &frame.draws[binned.draw_index as usize];
            let policy = DepthPolicy::of(draw);
            if hidden_surface_removal && policy != DepthPolicy::TestWrite {
                // Transparent/UI geometry is shaded after the opaque
                // resolve in a deferred pipeline.
                deferred.push(pi);
                continue;
            }
            let winner_seq = if hidden_surface_removal {
                Some(pi)
            } else {
                None
            };
            let mut quads = Vec::new();
            rasterize_prim(
                &binned.prim,
                rect,
                origin,
                policy,
                winner_seq,
                &mut depth,
                &mut quads,
            );
            if !quads.is_empty() {
                pending.push((pi, quads));
            }
        }
        // Pass 2 (HSR only): keep only the winning fragments of opaque
        // prims, then shade deferred geometry against the final depth.
        if hidden_surface_removal {
            for (pi, quads) in &mut pending {
                for quad in quads.iter_mut() {
                    let mut visible = 0u8;
                    for (mask, dx, dy) in quad_pixels() {
                        if quad.coverage & mask == 0 {
                            continue;
                        }
                        let lx = u32::from(quad.x) + dx - origin.0;
                        let ly = u32::from(quad.y) + dy - origin.1;
                        if depth.winner[depth.index(lx, ly)] == *pi {
                            visible |= mask;
                        }
                    }
                    let culled = quad.visible.count_ones() - (quad.visible & visible).count_ones();
                    activity.fragments_hsr_culled += u64::from(culled);
                    quad.visible &= visible;
                }
            }
            for &pi in &deferred {
                let binned = bins.prim(pi);
                let draw = &frame.draws[binned.draw_index as usize];
                let mut quads = Vec::new();
                rasterize_prim(
                    &binned.prim,
                    rect,
                    origin,
                    DepthPolicy::of(draw),
                    None,
                    &mut depth,
                    &mut quads,
                );
                if !quads.is_empty() {
                    pending.push((pi, quads));
                }
            }
            // Restore submission order after the deferred append.
            pending.sort_by_key(|(pi, _)| *pi);
        }
        // Counters + trace emission.
        let mut prims_out = Vec::new();
        for (pi, quads) in pending {
            let binned = bins.prim(pi);
            let draw = &frame.draws[binned.draw_index as usize];
            count_prim(draw, &quads, shaders, activity);
            if collect_trace {
                let lod = draw
                    .texture
                    .map(|t| texture_lod(&binned.prim, t.width, t.height))
                    .unwrap_or(0);
                prims_out.push(tile_prim(draw, binned.draw_index, lod, quads));
            }
        }
        if collect_trace && !prims_out.is_empty() {
            tiles_out.push(TileTrace {
                tile_index,
                prims: prims_out,
            });
        }
    }
    tiles_out
}

/// IMR path: full-screen depth buffer, strict submission order, one
/// whole-screen pseudo-tile in the trace.
fn rasterize_immediate(
    frame: &Frame,
    draws: &[TransformedDraw],
    viewport: Viewport,
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
    collect_trace: bool,
) -> Vec<TileTrace> {
    let mut depth = DepthBuffer::new();
    depth.reset(viewport.width, viewport.height, true);
    let rect = (0, 0, viewport.width, viewport.height);
    let mut prims_out = Vec::new();
    for transformed in draws {
        let draw = &frame.draws[transformed.geometry.draw_index as usize];
        let policy = DepthPolicy::of(draw);
        for prim in &transformed.prims {
            let mut quads = Vec::new();
            rasterize_prim(prim, rect, (0, 0), policy, None, &mut depth, &mut quads);
            if quads.is_empty() {
                continue;
            }
            count_prim(draw, &quads, shaders, activity);
            if collect_trace {
                let lod = draw
                    .texture
                    .map(|t| texture_lod(prim, t.width, t.height))
                    .unwrap_or(0);
                prims_out.push(tile_prim(draw, transformed.geometry.draw_index, lod, quads));
            }
        }
    }
    if collect_trace && !prims_out.is_empty() {
        vec![TileTrace {
            tile_index: 0,
            prims: prims_out,
        }]
    } else {
        Vec::new()
    }
}

/// The original scalar rasterizer: full edge-function evaluation at
/// every pixel center.
fn rasterize_prim(
    prim: &Primitive,
    (rx0, ry0, rx1, ry1): (u32, u32, u32, u32),
    origin: (u32, u32),
    policy: DepthPolicy,
    winner_seq: Option<u32>,
    depth: &mut DepthBuffer,
    quads: &mut Vec<QuadTrace>,
) {
    let a = prim.v[0].pos2();
    let b = prim.v[1].pos2();
    let c = prim.v[2].pos2();
    let area2 = prim.signed_area2();
    debug_assert!(area2 > 0.0, "backfaces culled in geometry");
    let inv_area2 = 1.0 / area2;
    // Clamp the primitive bbox to the rect, snapping to even offsets
    // relative to the rect origin so whole quads are walked even when
    // the rect corner is odd.
    let (min_x, min_y, max_x, max_y) = prim.bounds();
    let x0 = rx0 + ((min_x.floor().max(rx0 as f32) as u32 - rx0) & !1);
    let y0 = ry0 + ((min_y.floor().max(ry0 as f32) as u32 - ry0) & !1);
    let x1 = (max_x.ceil().min(rx1 as f32) as u32).min(rx1);
    let y1 = (max_y.ceil().min(ry1 as f32) as u32).min(ry1);
    if x0 >= x1 || y0 >= y1 {
        return;
    }
    // Top-left fill rule flags per edge.
    let top_left = |p: Vec2, q: Vec2| (p.y == q.y && q.x < p.x) || q.y > p.y;
    let tl = [top_left(a, b), top_left(b, c), top_left(c, a)];
    let mut qy = y0;
    while qy < y1 {
        let mut qx = x0;
        while qx < x1 {
            let mut coverage = 0u8;
            let mut visible = 0u8;
            let mut uv_sum = Vec2::default();
            let mut covered_px = 0u32;
            for (mask, dx, dy) in quad_pixels() {
                let px = qx + dx;
                let py = qy + dy;
                if px >= x1 || py >= y1 {
                    continue;
                }
                let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let e0 = edge_function(a, b, p);
                let e1 = edge_function(b, c, p);
                let e2 = edge_function(c, a, p);
                let inside = (e0 > 0.0 || (e0 == 0.0 && tl[0]))
                    && (e1 > 0.0 || (e1 == 0.0 && tl[1]))
                    && (e2 > 0.0 || (e2 == 0.0 && tl[2]));
                if !inside {
                    continue;
                }
                coverage |= mask;
                covered_px += 1;
                // Affine barycentric interpolation (e0 spans edge a→b and
                // therefore weights vertex 2, etc.).
                let w2 = e0 * inv_area2;
                let w0 = e1 * inv_area2;
                let w1 = e2 * inv_area2;
                let z = prim.v[0].z * w0 + prim.v[1].z * w1 + prim.v[2].z * w2;
                let uv = prim.v[0].uv * w0 + prim.v[1].uv * w1 + prim.v[2].uv * w2;
                uv_sum = uv_sum + uv;
                let idx = depth.index(px - origin.0, py - origin.1);
                let passes = match policy {
                    DepthPolicy::Always => true,
                    DepthPolicy::TestOnly | DepthPolicy::TestWrite => z < depth.depth[idx],
                };
                if passes {
                    visible |= mask;
                    if policy == DepthPolicy::TestWrite {
                        depth.depth[idx] = z;
                        if let Some(seq) = winner_seq {
                            depth.winner[idx] = seq;
                        }
                    }
                }
            }
            if coverage != 0 {
                quads.push(QuadTrace {
                    x: qx as u16,
                    y: qy as u16,
                    coverage,
                    visible,
                    uv: uv_sum / covered_px.max(1) as f32,
                });
            }
            qx += 2;
        }
        qy += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::renderer::Renderer;
    use megsim_gfx::draw::{BlendMode, DrawCall};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 10));
        t.add(ShaderProgram::fragment(
            0,
            "fs",
            7,
            vec![TextureFilter::Bilinear],
        ));
        t.add(ShaderProgram::fragment(1, "fs_flat", 3, vec![]));
        t
    }

    /// A draw whose mesh holds `tris` CCW screen-space-ish triangles in
    /// NDC (identity transform maps NDC straight to the viewport).
    fn draw_of(
        tris: &[[(f32, f32, f32); 3]],
        fs: u32,
        blend: BlendMode,
        depth_test: bool,
    ) -> DrawCall {
        let mut vertices = Vec::new();
        let mut indices = Vec::new();
        for t in tris {
            for &(x, y, z) in t {
                indices.push(vertices.len() as u32);
                let mut v = Vertex::at(Vec3::new(x, y, z));
                v.uv = Vec2::new((x + 1.0) * 0.5, (y + 1.0) * 0.5);
                vertices.push(v);
            }
        }
        DrawCall {
            mesh: Arc::new(Mesh::new(vertices, indices, 0x100)),
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(fs),
            texture: (fs == 0).then(|| TextureDesc::new(0, 64, 64, 4, 0x8000)),
            blend,
            depth_test,
        }
    }

    /// Strategy: one triangle as 3 NDC vertices, each with its own
    /// depth (so depth tests see sloped `z`) — winding is unconstrained
    /// (backfaces exercise geometry culling).
    fn tri_strategy() -> impl Strategy<Value = [(f32, f32, f32); 3]> {
        let v = (-1.2f32..1.2, -1.2f32..1.2, 0.05f32..0.95);
        (v.clone(), v.clone(), v).prop_map(|(a, b, c)| [a, b, c])
    }

    fn frame_strategy() -> impl Strategy<Value = Frame> {
        // Up to 3 draws with varied blend/depth state, 1..6 tris each.
        let blend = (0u32..3).prop_map(|b| match b {
            0 => BlendMode::Opaque,
            1 => BlendMode::AlphaBlend,
            _ => BlendMode::Additive,
        });
        let draw = (
            proptest::collection::vec(tri_strategy(), 1..6),
            0u32..2,
            blend,
            proptest::bool::ANY,
        );
        proptest::collection::vec(draw, 1..4).prop_map(|draws| {
            let mut f = Frame::new();
            for (tris, fs, blend, depth_test) in draws {
                f.draws.push(draw_of(&tris, fs, blend, depth_test));
            }
            f
        })
    }

    fn assert_matches_reference(frame: &Frame, viewport: Viewport) {
        assert_matches_reference_with(frame, &shaders(), viewport);
    }

    fn assert_matches_reference_with(frame: &Frame, t: &ShaderTable, viewport: Viewport) {
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let config = RenderConfig { viewport, mode };
            let reference = render_frame_reference(config, frame, t, true);
            let optimized = Renderer::new(config).render_frame(frame, t);
            assert_eq!(optimized.activity, reference.activity, "{mode:?} activity");
            assert_eq!(optimized.tiles, reference.tiles, "{mode:?} tiles");
            assert_eq!(optimized.geometry, reference.geometry, "{mode:?} geometry");
            // The activity-only pass must agree too (it takes different
            // fast paths through the sink machinery).
            let fast = Renderer::new(config).frame_activity(frame, t);
            assert_eq!(fast, *reference.activity, "{mode:?} fast activity");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn optimized_rasterizer_is_bit_identical_to_reference(frame in frame_strategy()) {
            assert_matches_reference(&frame, Viewport::new(128, 128, 32));
        }

        #[test]
        fn bit_identical_on_odd_viewports(frame in frame_strategy()) {
            // Odd target and odd tile size: tile origins are odd, which
            // the pre-fix bbox snapping mishandled (underflow panic).
            assert_matches_reference(&frame, Viewport::new(33, 33, 11));
            assert_matches_reference(&frame, Viewport::new(33, 33, 32));
        }

        #[test]
        fn bit_identical_on_large_viewport(frame in frame_strategy()) {
            // Large tiles give wide bounding boxes: long spans, and
            // boundary columns that travel far between rows.
            assert_matches_reference(&frame, Viewport::new(256, 256, 64));
        }
    }

    /// A 128×128 viewport (tile 32) maps pixel coordinate `p` to NDC
    /// `p / 64 − 1` and back exactly, so the fixed cases below can put
    /// vertices exactly on pixel centres.
    const PX: Viewport = Viewport {
        width: 128,
        height: 128,
        tile_size: 32,
    };

    /// Pixel-space triangles to NDC triangles on [`PX`].
    fn px_tris(tris: &[[(f32, f32, f32); 3]]) -> Vec<[(f32, f32, f32); 3]> {
        tris.iter()
            .map(|t| t.map(|(x, y, z)| (x / 64.0 - 1.0, y / 64.0 - 1.0, z)))
            .collect()
    }

    /// The triangles in pixel coordinates drawn once per depth policy
    /// (test + write, test only, always), overlapping each other.
    fn policies_frame(tris: &[[(f32, f32, f32); 3]]) -> Frame {
        let tris = px_tris(tris);
        let mut f = Frame::new();
        f.draws.push(draw_of(&tris, 0, BlendMode::Opaque, true));
        f.draws.push(draw_of(&tris, 1, BlendMode::AlphaBlend, true));
        f.draws.push(draw_of(&tris, 0, BlendMode::Additive, false));
        f
    }

    /// A sprite from `(x0, y0)` to `(x1, y1)` split along its diagonal,
    /// with a depth slope across it.
    fn sprite(x0: f32, y0: f32, x1: f32, y1: f32, z: f32) -> [[(f32, f32, f32); 3]; 2] {
        let (a, b, c, d) = (
            (x0, y0, z),
            (x1, y0, z + 0.1),
            (x1, y1, z + 0.2),
            (x0, y1, z + 0.1),
        );
        [[a, b, c], [a, c, d]]
    }

    #[test]
    fn sprites_on_pixel_centres_match_reference() {
        // Vertices on pixel centres put whole rows and columns of pixel
        // centres exactly on the sprite edges and diagonals (e == 0):
        // the fill rule's ties. Odd and even sizes, and offsets that
        // start a sprite mid-quad and mid-tile.
        let mut tris = Vec::new();
        for (x0, y0, side, z) in [
            (2.5, 2.5, 8.0, 0.5),
            (3.5, 10.5, 7.0, 0.4),
            (28.5, 29.5, 9.0, 0.3),
            (40.0, 40.0, 16.0, 0.6),
            (60.5, 5.5, 1.0, 0.2),
            (90.5, 90.5, 33.0, 0.45),
        ] {
            tris.extend(sprite(x0, y0, x0 + side, y0 + side, z));
        }
        // A second sprite sharing the first one's right edge.
        tris.extend(sprite(10.5, 2.5, 18.5, 10.5, 0.35));
        assert_matches_reference(&policies_frame(&tris), PX);
    }

    #[test]
    fn horizontal_edges_match_reference() {
        // Δy == 0 edges: the inside test is constant along each row, on
        // a pixel-centre row and between rows, flat-top and flat-bottom.
        let tris = [
            [(10.5, 10.5, 0.3), (50.5, 10.5, 0.6), (30.5, 40.5, 0.4)],
            [(60.0, 70.0, 0.5), (100.0, 70.0, 0.2), (80.25, 40.75, 0.7)],
            [(5.5, 100.5, 0.4), (64.5, 100.5, 0.4), (5.5, 127.5, 0.9)],
            [(70.5, 120.5, 0.6), (70.5, 90.5, 0.1), (120.5, 120.5, 0.3)],
        ];
        assert_matches_reference(&policies_frame(&tris), PX);
    }

    #[test]
    fn one_pixel_slivers_match_reference() {
        // Slivers one pixel (or less) thick across many tiles: spans of
        // zero or one pixel, and boundaries that jump far between rows.
        let tris = [
            [(0.5, 20.5, 0.5), (127.5, 21.5, 0.3), (0.5, 21.5, 0.6)],
            [(20.5, 0.5, 0.2), (21.5, 0.5, 0.4), (21.5, 127.5, 0.8)],
            [(10.25, 0.5, 0.3), (10.75, 0.5, 0.6), (100.5, 127.5, 0.1)],
            [(3.0, 60.0, 0.7), (125.0, 60.4, 0.2), (3.0, 60.6, 0.5)],
        ];
        assert_matches_reference(&policies_frame(&tris), PX);
    }

    #[test]
    fn triangles_wider_than_a_tile_match_reference() {
        // In IMR a triangle is rasterized once against the whole screen,
        // so its spans cross several tiles in one row.
        let tris = [
            [(3.5, 5.0, 0.2), (120.25, 17.5, 0.8), (40.0, 110.75, 0.5)],
            [(-20.0, 64.0, 0.6), (150.0, 60.0, 0.3), (64.0, 130.0, 0.4)],
        ];
        assert_matches_reference(&policies_frame(&tris), PX);
    }

    #[test]
    fn non_finite_and_overflowing_vertices_are_clipped() {
        // One bad coordinate (NaN, ±inf, a finite value that overflows
        // in screen space, or one outside the guard band) clips its
        // triangle; the other renders as usual, in every mode.
        let good = [(-0.5, -0.5, 0.5), (0.5, -0.5, 0.5), (0.0, 0.5, 0.5)];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38, 1e17] {
            for coord in 0..3 {
                let mut tri = [(-0.4, -0.4, 0.3), (0.6, -0.4, 0.3), (0.1, 0.6, 0.3)];
                match coord {
                    0 => tri[1].0 = bad,
                    1 => tri[1].1 = bad,
                    _ => tri[1].2 = bad,
                }
                if coord == 2 && bad.abs() < f32::INFINITY {
                    // A huge finite depth leaves the triangle renderable:
                    // only screen positions are bounded.
                    continue;
                }
                let mut f = Frame::new();
                f.draws
                    .push(draw_of(&[tri, good], 0, BlendMode::Opaque, true));
                assert_matches_reference(&f, Viewport::new(64, 64, 32));
                for mode in [
                    RenderMode::TileBased,
                    RenderMode::TileBasedDeferred,
                    RenderMode::Immediate,
                ] {
                    let config = RenderConfig {
                        viewport: Viewport::new(64, 64, 32),
                        mode,
                    };
                    let act = Renderer::new(config).frame_activity(&f, &shaders());
                    let what = format!("{mode:?}, coordinate {coord} = {bad}");
                    assert_eq!(act.primitives_clipped, 1, "{what}");
                    assert_eq!(act.primitives_emitted, 1, "{what}");
                    assert!(act.fragments_shaded > 0, "{what}");
                }
            }
        }
    }

    #[test]
    fn benchmark_frames_match_reference_at_the_baseline_viewport() {
        // Real scenes at the real viewport: the first, middle and last
        // frame of every Table II benchmark.
        for info in &megsim_workloads::BENCHMARKS {
            let workload = megsim_workloads::build(info, 0.01, 3);
            let n = workload.frames();
            for i in [0, n / 2, n - 1] {
                assert_matches_reference_with(
                    &workload.frame(i),
                    workload.shaders(),
                    Viewport::MALI450_BASELINE,
                );
            }
        }
    }

    #[test]
    fn thin_sliver_and_shared_edge_match_reference() {
        // Deterministic edge cases proptest may miss: a 1-px-high sliver
        // crossing the whole screen and two triangles sharing an edge
        // (fill rule must not double-shade the shared edge).
        let mut f = Frame::new();
        f.draws.push(draw_of(
            &[[(-1.1, -0.01, 0.3), (1.1, 0.0, 0.3), (-1.1, 0.01, 0.3)]],
            0,
            BlendMode::Opaque,
            true,
        ));
        f.draws.push(draw_of(
            &[
                [(-0.8, -0.8, 0.5), (0.8, -0.8, 0.5), (0.8, 0.8, 0.5)],
                [(-0.8, -0.8, 0.5), (0.8, 0.8, 0.5), (-0.8, 0.8, 0.5)],
            ],
            1,
            BlendMode::Opaque,
            true,
        ));
        assert_matches_reference(&f, Viewport::new(128, 128, 32));
        assert_matches_reference(&f, Viewport::new(33, 33, 11));
    }
}
