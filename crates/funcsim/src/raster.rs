//! The Raster Pipeline: Rasterizer, Early Z-Test, Fragment Processors
//! and Blending (right half of Fig. 1).
//!
//! Three rendering modes are modeled (paper §II-A and §IV-A):
//!
//! * **TBR** — tile-based rendering (the paper's baseline): tiles are
//!   processed one at a time against an on-chip depth buffer; occluded
//!   fragments that arrive *before* their occluder are still shaded
//!   (overdraw).
//! * **TBDR** — tile-based *deferred* rendering with Hidden Surface
//!   Removal (the PowerVR-style extension the paper names): opaque
//!   geometry is depth-resolved per tile first, and only the final
//!   visible fragment of each pixel is shaded.
//! * **IMR** — immediate-mode rendering: primitives are rasterized in
//!   submission order against a full-screen depth buffer; there is no
//!   Tiling Engine, and every shaded color goes to the frame buffer in
//!   memory immediately (the off-chip-traffic problem §II-A describes).
//!
//! ## The row kernels
//!
//! `rasterize_prim` is the innermost loop of the whole simulator. It
//! evaluates the edge functions with exactly the `f32` operation
//! sequence of the original scalar rasterizer, whose every step is
//! monotone in the pixel column. So on each pixel row a triangle's
//! covered pixels form one span. A branch-free kernel finds it: it
//! evaluates all three edges over fixed-width blocks of columns (16
//! lanes for narrow primitives, 32 otherwise), ANDs the inside tests
//! into a coverage mask per block, and takes the span from the first set
//! bit to the last. The per-pixel work then runs as straight-line loops
//! over the span in fixed chunks of lanes, the last one masked: depth
//! test and write (and the HSR winner), and for traces the uv
//! interpolation. The depth buffer keeps a chunk's worth of spare
//! entries so no chunk leaves it. Every lane computes the reference's
//! expressions in the reference's order, and a quad's uv is summed over
//! its covered pixels in coverage-bit order, so counters, traces and
//! interpolants stay bit-identical — the seed implementation survives as
//! `crate::raster_reference` and equivalence tests pin the two
//! together. Work that cannot be observed is skipped entirely: the
//! activity-only pass counts quads and covered pixels from the spans
//! without building quads (under TBDR too, reading each opaque
//! primitive's surviving pixels from the winner plane), UV
//! interpolation runs only when a trace is collected, and depth only for
//! depth-tested draws.

use megsim_gfx::draw::{DrawCall, Frame, Viewport};
use megsim_gfx::geometry::Primitive;
use megsim_gfx::math::Vec2;
use megsim_gfx::shader::ShaderTable;

use crate::activity::FrameActivity;
use crate::binning::{BinScratch, TileBins};
use crate::geometry::{GeomScratch, TransformedDraw};
use crate::renderer::RenderMode;
use crate::trace::{QuadTrace, TilePrim, TileTrace};

/// Pixel offsets of a 2×2 quad, in coverage-bit order (bit i ↔ entry i).
pub(crate) const QUAD_OFFSETS: [(u32, u32); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

/// Iterates the quad's pixels as `(coverage mask, dx, dy)` — the shared
/// walk for rasterization and coverage-bit filtering.
#[inline]
pub(crate) fn quad_pixels() -> impl Iterator<Item = (u8, u32, u32)> {
    QUAD_OFFSETS
        .iter()
        .enumerate()
        .map(|(bit, &(dx, dy))| (1u8 << bit, dx, dy))
}

/// Scratch depth (+ HSR winner) buffer, reused across tiles and frames.
/// On-chip in real TBR hardware; in DRAM (behind caches) for IMR.
pub(crate) struct DepthBuffer {
    pub(crate) depth: Vec<f32>,
    /// Sequence number of the currently-winning opaque primitive per
    /// pixel (TBDR only; `u32::MAX` = none).
    pub(crate) winner: Vec<u32>,
    width: u32,
    /// Entries in use: `width × height` of the last reset.
    len: usize,
}

impl DepthBuffer {
    pub(crate) fn new() -> Self {
        Self {
            depth: Vec::new(),
            winner: Vec::new(),
            width: 0,
            len: 0,
        }
    }

    /// Sizes the buffer for a `width × height` region and clears it. The
    /// winner plane is only touched when `want_winner` is set (HSR); the
    /// other modes never read it, so skipping the fill is unobservable.
    ///
    /// Both planes keep `CHUNK - 1` spare entries past the region, so a
    /// row span's last chunk stays inside them; masked-off lanes never
    /// change an entry.
    pub(crate) fn reset(&mut self, width: u32, height: u32, want_winner: bool) {
        self.width = width;
        let n = (width * height) as usize;
        self.len = n;
        if self.depth.len() < n + CHUNK - 1 {
            self.depth.resize(n + CHUNK - 1, f32::INFINITY);
        }
        self.depth[..n].fill(f32::INFINITY);
        if want_winner {
            if self.winner.len() < n + CHUNK - 1 {
                self.winner.resize(n + CHUNK - 1, u32::MAX);
            }
            self.winner[..n].fill(u32::MAX);
        }
    }

    #[inline]
    pub(crate) fn index(&self, lx: u32, ly: u32) -> usize {
        (ly * self.width + lx) as usize
    }

    /// The winner plane of the region last reset with `want_winner`.
    fn winners(&self) -> &[u32] {
        &self.winner[..self.len]
    }
}

/// How a primitive interacts with the depth buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DepthPolicy {
    /// Test and write (opaque, depth-tested geometry).
    TestWrite,
    /// Test without writing (blended geometry).
    TestOnly,
    /// Always pass (UI layers with depth testing disabled).
    Always,
}

impl DepthPolicy {
    pub(crate) fn of(draw: &DrawCall) -> Self {
        if !draw.depth_test {
            DepthPolicy::Always
        } else if draw.blend.reads_destination() {
            DepthPolicy::TestOnly
        } else {
            DepthPolicy::TestWrite
        }
    }
}

/// Reusable per-worker rasterization state: the depth/winner buffer, the
/// tile quad buffer with its per-primitive ranges, the HSR bookkeeping,
/// the row buffers of trace collection and the geometry/binning
/// scratch — everything the renderer previously allocated per
/// primitive or per frame.
pub struct RasterScratch {
    depth: DepthBuffer,
    /// Quads of the tile currently being rasterized, contiguous per
    /// primitive (ranges tracked by `pending`).
    quads: Vec<QuadTrace>,
    /// `(prim index, start, len)` ranges into `quads` (HSR bookkeeping).
    pending: Vec<(u32, usize, usize)>,
    /// Non-opaque primitives deferred to the HSR second pass.
    deferred: Vec<u32>,
    /// Per-pixel results of the two pixel rows of a quad row.
    spans: [SpanOut; 2],
    /// The HSR activity pass's opaque primitives with their totals, in
    /// the order of the winner sequence numbers they record.
    opaque: Vec<(u32, Totals)>,
    /// Pixels each of `opaque` still wins after the resolve.
    won: Vec<u64>,
    /// Vertex-cache scratch for the Geometry Pipeline.
    pub(crate) geom: GeomScratch,
    /// Tile-counting scratch for the Tiling Engine.
    pub(crate) bins: BinScratch,
}

impl RasterScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub(crate) fn new() -> Self {
        Self {
            depth: DepthBuffer::new(),
            quads: Vec::new(),
            pending: Vec::new(),
            deferred: Vec::new(),
            spans: Default::default(),
            opaque: Vec::new(),
            won: Vec::new(),
            geom: GeomScratch::default(),
            bins: BinScratch::default(),
        }
    }
}

impl Default for RasterScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Rasterizes a frame in the requested mode, updating `activity` and —
/// when `collect_trace` is set — returning per-tile (or, for IMR, one
/// whole-screen pseudo-tile) quad traces for the timing model.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rasterize_frame(
    frame: &Frame,
    draws: &[TransformedDraw],
    bins: &TileBins,
    viewport: Viewport,
    shaders: &ShaderTable,
    mode: RenderMode,
    activity: &mut FrameActivity,
    collect_trace: bool,
    scratch: &mut RasterScratch,
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
            scratch,
        ),
        RenderMode::Immediate => rasterize_immediate(
            frame,
            draws,
            viewport,
            shaders,
            activity,
            collect_trace,
            scratch,
        ),
    }
}

/// TBR / TBDR path: rasterize tile by tile in bin order.
#[allow(clippy::too_many_arguments)]
fn rasterize_tiles(
    frame: &Frame,
    bins: &TileBins,
    viewport: Viewport,
    shaders: &ShaderTable,
    hidden_surface_removal: bool,
    activity: &mut FrameActivity,
    collect_trace: bool,
    scratch: &mut RasterScratch,
) -> Vec<TileTrace> {
    let mut tiles_out = Vec::new();
    let tiles_x = viewport.tiles_x();
    for (tile_index, prim_indices) in bins.touched_tiles() {
        let tx = tile_index % tiles_x;
        let ty = tile_index / tiles_x;
        let rect = viewport.tile_rect(tx, ty);
        let origin = (rect.0, rect.1);
        scratch.depth.reset(
            viewport.tile_size,
            viewport.tile_size,
            hidden_surface_removal,
        );
        let prims_out = if hidden_surface_removal && collect_trace {
            rasterize_tile_hsr(
                frame,
                bins,
                prim_indices,
                rect,
                origin,
                shaders,
                activity,
                scratch,
            )
        } else if hidden_surface_removal {
            count_tile_hsr(
                frame,
                bins,
                prim_indices,
                rect,
                origin,
                shaders,
                activity,
                scratch,
            );
            Vec::new()
        } else {
            // Straight TBR: a primitive's quads are final as soon as it
            // is rasterized, so count (and trace) immediately — no
            // pending list needed.
            let mut prims_out = Vec::new();
            for &pi in prim_indices {
                let binned = bins.prim(pi);
                let draw = &frame.draws[binned.draw_index as usize];
                let policy = DepthPolicy::of(draw);
                if collect_trace {
                    scratch.quads.clear();
                    rasterize_prim(
                        &binned.prim,
                        rect,
                        origin,
                        policy,
                        None,
                        &mut scratch.depth,
                        &mut Collect {
                            quads: &mut scratch.quads,
                            spans: &mut scratch.spans,
                        },
                    );
                    if scratch.quads.is_empty() {
                        continue;
                    }
                    count_prim(draw, &scratch.quads, shaders, activity);
                    let lod = draw
                        .texture
                        .map(|t| texture_lod(&binned.prim, t.width, t.height))
                        .unwrap_or(0);
                    prims_out.push(tile_prim(
                        draw,
                        binned.draw_index,
                        lod,
                        scratch.quads.clone(),
                    ));
                } else {
                    let mut sink = Count::default();
                    rasterize_prim(
                        &binned.prim,
                        rect,
                        origin,
                        policy,
                        None,
                        &mut scratch.depth,
                        &mut sink,
                    );
                    count_prim_totals(draw, sink.0, shaders, activity);
                }
            }
            prims_out
        };
        if collect_trace && !prims_out.is_empty() {
            tiles_out.push(TileTrace {
                tile_index,
                prims: prims_out,
            });
        }
    }
    tiles_out
}

/// TBDR with trace collection: opaque depth/winner resolve, winner
/// filtering, deferred transparents, then counters + trace in
/// submission order.
#[allow(clippy::too_many_arguments)]
fn rasterize_tile_hsr(
    frame: &Frame,
    bins: &TileBins,
    prim_indices: &[u32],
    rect: (u32, u32, u32, u32),
    origin: (u32, u32),
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
    scratch: &mut RasterScratch,
) -> Vec<TilePrim> {
    let RasterScratch {
        depth,
        quads,
        pending,
        deferred,
        spans,
        ..
    } = scratch;
    quads.clear();
    pending.clear();
    deferred.clear();
    // Pass 1: opaque prims resolve depth and the per-pixel winner.
    for &pi in prim_indices {
        let binned = bins.prim(pi);
        let draw = &frame.draws[binned.draw_index as usize];
        let policy = DepthPolicy::of(draw);
        if policy != DepthPolicy::TestWrite {
            // Transparent/UI geometry is shaded after the opaque
            // resolve in a deferred pipeline.
            deferred.push(pi);
            continue;
        }
        let start = quads.len();
        rasterize_prim(
            &binned.prim,
            rect,
            origin,
            policy,
            Some(pi),
            depth,
            &mut Collect { quads, spans },
        );
        let len = quads.len() - start;
        if len > 0 {
            pending.push((pi, start, len));
        }
    }
    // Pass 2: keep only the winning fragments of opaque prims, then
    // shade deferred geometry against the final depth.
    for &(pi, start, len) in pending.iter() {
        for quad in &mut quads[start..start + len] {
            let mut visible = 0u8;
            for (mask, dx, dy) in quad_pixels() {
                if quad.coverage & mask == 0 {
                    continue;
                }
                let lx = u32::from(quad.x) + dx - origin.0;
                let ly = u32::from(quad.y) + dy - origin.1;
                if depth.winner[depth.index(lx, ly)] == pi {
                    visible |= mask;
                }
            }
            let culled = quad.visible.count_ones() - (quad.visible & visible).count_ones();
            activity.fragments_hsr_culled += u64::from(culled);
            quad.visible &= visible;
        }
    }
    for &pi in deferred.iter() {
        let binned = bins.prim(pi);
        let draw = &frame.draws[binned.draw_index as usize];
        let start = quads.len();
        rasterize_prim(
            &binned.prim,
            rect,
            origin,
            DepthPolicy::of(draw),
            None,
            depth,
            &mut Collect { quads, spans },
        );
        let len = quads.len() - start;
        if len > 0 {
            pending.push((pi, start, len));
        }
    }
    // Restore submission order after the deferred append.
    pending.sort_by_key(|&(pi, _, _)| pi);
    // Counters + trace emission.
    let mut prims_out = Vec::new();
    for &(pi, start, len) in pending.iter() {
        let binned = bins.prim(pi);
        let draw = &frame.draws[binned.draw_index as usize];
        let range = &quads[start..start + len];
        count_prim(draw, range, shaders, activity);
        let lod = draw
            .texture
            .map(|t| texture_lod(&binned.prim, t.width, t.height))
            .unwrap_or(0);
        prims_out.push(tile_prim(draw, binned.draw_index, lod, range.to_vec()));
    }
    prims_out
}

/// TBDR activity-only pass: counts from the row spans, as [`Count`]
/// does for TBR, without building quads. An opaque primitive's final
/// visible fragments are the pixels it still wins after the resolve, so
/// the winner plane records each one's index into `scratch.opaque` and
/// one scan of it counts them; the activity counters are sums, so
/// counting out of submission order changes nothing.
#[allow(clippy::too_many_arguments)]
fn count_tile_hsr(
    frame: &Frame,
    bins: &TileBins,
    prim_indices: &[u32],
    rect: (u32, u32, u32, u32),
    origin: (u32, u32),
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
    scratch: &mut RasterScratch,
) {
    let RasterScratch {
        depth, opaque, won, ..
    } = scratch;
    let draw_of = |pi: u32| {
        let binned = bins.prim(pi);
        (&binned.prim, &frame.draws[binned.draw_index as usize])
    };
    // Pass 1: opaque prims resolve depth and the per-pixel winner. A
    // primitive with no coverage records no winner, so its index is
    // reused by the next one.
    opaque.clear();
    for &pi in prim_indices {
        let (prim, draw) = draw_of(pi);
        let policy = DepthPolicy::of(draw);
        if policy == DepthPolicy::TestWrite {
            let mut sink = Count::default();
            let seq = opaque.len() as u32;
            rasterize_prim(prim, rect, origin, policy, Some(seq), depth, &mut sink);
            if sink.0.quads != 0 {
                opaque.push((pi, sink.0));
            }
        }
    }
    won.clear();
    won.resize(opaque.len(), 0);
    for &seq in depth.winners() {
        if seq != u32::MAX {
            won[seq as usize] += 1;
        }
    }
    for (&(pi, totals), &won) in opaque.iter().zip(won.iter()) {
        activity.fragments_hsr_culled += totals.visible - won;
        let totals = Totals {
            visible: won,
            ..totals
        };
        count_prim_totals(draw_of(pi).1, totals, shaders, activity);
    }
    // Pass 2: transparent/UI geometry against the final depth.
    for &pi in prim_indices {
        let (prim, draw) = draw_of(pi);
        let policy = DepthPolicy::of(draw);
        if policy != DepthPolicy::TestWrite {
            let mut sink = Count::default();
            rasterize_prim(prim, rect, origin, policy, None, depth, &mut sink);
            count_prim_totals(draw, sink.0, shaders, activity);
        }
    }
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
    scratch: &mut RasterScratch,
) -> Vec<TileTrace> {
    scratch.depth.reset(viewport.width, viewport.height, false);
    let rect = (0, 0, viewport.width, viewport.height);
    let mut prims_out = Vec::new();
    for transformed in draws {
        let draw = &frame.draws[transformed.geometry.draw_index as usize];
        let policy = DepthPolicy::of(draw);
        for prim in &transformed.prims {
            if collect_trace {
                scratch.quads.clear();
                rasterize_prim(
                    prim,
                    rect,
                    (0, 0),
                    policy,
                    None,
                    &mut scratch.depth,
                    &mut Collect {
                        quads: &mut scratch.quads,
                        spans: &mut scratch.spans,
                    },
                );
                if scratch.quads.is_empty() {
                    continue;
                }
                count_prim(draw, &scratch.quads, shaders, activity);
                let lod = draw
                    .texture
                    .map(|t| texture_lod(prim, t.width, t.height))
                    .unwrap_or(0);
                prims_out.push(tile_prim(
                    draw,
                    transformed.geometry.draw_index,
                    lod,
                    scratch.quads.clone(),
                ));
            } else {
                let mut sink = Count::default();
                rasterize_prim(
                    prim,
                    rect,
                    (0, 0),
                    policy,
                    None,
                    &mut scratch.depth,
                    &mut sink,
                );
                count_prim_totals(draw, sink.0, shaders, activity);
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

/// Updates the activity counters for one primitive's quads.
pub(crate) fn count_prim(
    draw: &DrawCall,
    quads: &[QuadTrace],
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
) {
    let mut totals = Totals {
        quads: quads.len() as u64,
        ..Totals::default()
    };
    for q in quads {
        totals.covered += u64::from(q.covered_count());
        totals.visible += u64::from(q.visible_count());
    }
    count_prim_totals(draw, totals, shaders, activity);
}

/// [`count_prim`] on pre-aggregated totals (the no-trace fast path
/// counts without materializing quads). A primitive with no quads
/// counts nothing.
fn count_prim_totals(
    draw: &DrawCall,
    Totals {
        quads,
        covered,
        visible,
    }: Totals,
    shaders: &ShaderTable,
    activity: &mut FrameActivity,
) {
    if quads == 0 {
        return;
    }
    let fs = shaders.fragment_shader(draw.fragment_shader);
    activity.quads_rasterized += quads;
    activity.fragments_rasterized += covered;
    if draw.depth_test {
        activity.fragments_early_z_culled += covered - visible;
    }
    activity.fragments_shaded += visible;
    activity.fragment_shader_invocations[draw.fragment_shader.0 as usize] += visible;
    activity.fragment_instructions += visible * u64::from(fs.instruction_count());
    if draw.texture.is_some() {
        for filter in &fs.texture_samples {
            let idx = match filter {
                megsim_gfx::shader::TextureFilter::Nearest => 0,
                megsim_gfx::shader::TextureFilter::Linear => 1,
                megsim_gfx::shader::TextureFilter::Bilinear => 2,
                megsim_gfx::shader::TextureFilter::Trilinear => 3,
            };
            activity.texture_samples[idx] += visible;
        }
    }
    activity.blend_ops += visible;
}

/// Builds the trace record of one primitive.
pub(crate) fn tile_prim(
    draw: &DrawCall,
    draw_index: u32,
    lod: u32,
    quads: Vec<QuadTrace>,
) -> TilePrim {
    TilePrim {
        draw_index,
        fragment_shader: draw.fragment_shader,
        texture: draw.texture,
        blend: draw.blend,
        depth_test: draw.depth_test,
        // position(2) + depth + 1/w + uv(2) interpolants.
        attributes: 6,
        lod,
        quads,
    }
}

/// Mip level keeping the texel:pixel ratio near one, from the screen-
/// space UV gradient of the primitive (constant under affine
/// interpolation).
pub(crate) fn texture_lod(prim: &Primitive, tex_w: u32, tex_h: u32) -> u32 {
    let area2 = prim.signed_area2();
    if area2.abs() < 1e-6 {
        return 0;
    }
    let inv = 1.0 / area2;
    let [v0, v1, v2] = &prim.v;
    // Barycentric weight gradients (constant per primitive).
    let dw0 = Vec2::new(v1.y - v2.y, v2.x - v1.x) * inv;
    let dw1 = Vec2::new(v2.y - v0.y, v0.x - v2.x) * inv;
    let dw2 = Vec2::new(v0.y - v1.y, v1.x - v0.x) * inv;
    let dudx = v0.uv.x * dw0.x + v1.uv.x * dw1.x + v2.uv.x * dw2.x;
    let dudy = v0.uv.x * dw0.y + v1.uv.x * dw1.y + v2.uv.x * dw2.y;
    let dvdx = v0.uv.y * dw0.x + v1.uv.y * dw1.x + v2.uv.y * dw2.x;
    let dvdy = v0.uv.y * dw0.y + v1.uv.y * dw1.y + v2.uv.y * dw2.y;
    let texels_per_px =
        (dudx.abs().max(dudy.abs()) * tex_w as f32).max(dvdx.abs().max(dvdy.abs()) * tex_h as f32);
    if texels_per_px <= 1.0 {
        0
    } else {
        (texels_per_px.log2().round() as u32).min(16)
    }
}

/// Where the rasterizer delivers a primitive's coverage, one quad row
/// at a time. Monomorphizing over the sink lets the activity-only
/// characterization pass count from the row spans without building
/// quads at all.
trait QuadSink {
    /// Takes the quad row whose pixel rows `qy` and `qy + 1` are covered
    /// on `rows[0]` and `rows[1]` (an empty span for a row outside the
    /// bounding box).
    fn quad_row(&mut self, prim: &PrimRaster, depth: &mut DepthBuffer, qy: u32, rows: &[Row; 2]);
}

/// Per-pixel results of one pixel row's covered span, indexed from the
/// span's first column: the interpolated uv and the depth-test outcome.
#[derive(Default)]
struct SpanOut {
    u: Vec<f32>,
    v: Vec<f32>,
    visible: Vec<bool>,
}

/// Appends a primitive's quads, with their centroid uv, to a buffer
/// (trace collection).
struct Collect<'a> {
    quads: &'a mut Vec<QuadTrace>,
    /// Row buffers of the quad row's two pixel rows.
    spans: &'a mut [SpanOut; 2],
}

impl QuadSink for Collect<'_> {
    fn quad_row(&mut self, prim: &PrimRaster, depth: &mut DepthBuffer, qy: u32, rows: &[Row; 2]) {
        for ((py, row), out) in (qy..).zip(rows).zip(self.spans.iter_mut()) {
            prim.shade_span(row, py, depth, out);
        }
        // Every quad either row touches, and the gap quads between
        // them when the two rows' spans are disjoint.
        let [a, b] = rows.map(|r| prim.quad_cols(&r));
        for col in a.0.min(b.0)..a.1.max(b.1) {
            let qx = prim.x0 + 2 * col;
            let mut coverage = 0u8;
            let mut visible = 0u8;
            let mut uv_sum = Vec2::default();
            let mut covered_px = 0u32;
            // Pixels in coverage-bit order, bit 2·dy + dx (QUAD_OFFSETS):
            // the order the reference sums uv in.
            for (dy, (row, out)) in (0u32..).zip(rows.iter().zip(self.spans.iter())) {
                for dx in 0..2 {
                    let px = qx + dx;
                    if px < row.l || px >= row.r {
                        continue;
                    }
                    let k = (px - row.l) as usize;
                    let mask = 1u8 << (2 * dy + dx);
                    coverage |= mask;
                    covered_px += 1;
                    uv_sum = uv_sum + Vec2::new(out.u[k], out.v[k]);
                    if out.visible[k] {
                        visible |= mask;
                    }
                }
            }
            if coverage != 0 {
                self.quads.push(QuadTrace {
                    x: qx as u16,
                    y: qy as u16,
                    coverage,
                    visible,
                    uv: uv_sum / covered_px as f32,
                });
            }
        }
    }
}

/// A primitive's quad and fragment totals.
#[derive(Default, Clone, Copy)]
struct Totals {
    quads: u64,
    covered: u64,
    /// Pixels that passed the depth test when they were rasterized.
    visible: u64,
}

/// Aggregates a primitive's [`Totals`] without building quads — the
/// activity-only pass.
#[derive(Default)]
struct Count(Totals);

impl QuadSink for Count {
    fn quad_row(&mut self, prim: &PrimRaster, depth: &mut DepthBuffer, qy: u32, rows: &[Row; 2]) {
        // The quads touched by either pixel row: the union of two
        // column ranges.
        let [a, b] = rows.map(|r| prim.quad_cols(&r));
        let len = |(first, end): (u32, u32)| end.saturating_sub(first);
        let overlap = len((a.0.max(b.0), a.1.min(b.1)));
        let totals = &mut self.0;
        totals.quads += u64::from(len(a) + len(b) - overlap);
        for (py, row) in (qy..).zip(rows).filter(|(_, r)| r.l < r.r) {
            let covered = row.r - row.l;
            totals.covered += u64::from(covered);
            totals.visible += u64::from(if prim.policy == DepthPolicy::Always {
                covered
            } else {
                prim.depth_span(row, py, depth)
            });
        }
    }
}

/// Lanes of one coverage block: the columns [`Edges::span`] evaluates
/// at once, one bit each of a `u32` mask. A primitive at most
/// [`NARROW`] columns wide uses blocks of that width instead.
const BLOCK: u32 = 32;

/// Block width of narrow primitives, which are most of a 3D scene's.
const NARROW: u32 = 16;

/// Lanes of one chunk of the per-pixel loops over a row span: a span is
/// processed in whole chunks, the lanes past its end masked off.
const CHUNK: usize = 8;

/// The lanes' column offsets `0.0, 1.0, …` from a block's first column.
const LANES: [f32; BLOCK as usize] = {
    let mut lanes = [0.0; BLOCK as usize];
    let mut i = 0;
    while i < lanes.len() {
        lanes[i] = i as f32;
        i += 1;
    }
    lanes
};

/// One edge function of a primitive, evaluated with the reference
/// `edge_function`'s exact `f32` operation sequence: the edge runs from
/// `org` along `(dx, dy)`, and at pixel `(px, py)` its value is
/// `fl(t − fl(dy · fl(px + 0.5 − org.x)))` with the row term
/// `t = fl(dx · fl(py + 0.5 − org.y))`.
#[derive(Clone, Copy)]
struct Edge {
    org: Vec2,
    dx: f32,
    dy: f32,
    /// The least value inside the edge under the top-left fill rule:
    /// `0.0` on a top-left edge, else the least positive `f32`. So
    /// `e >= min_inside` is the reference's
    /// `e > 0.0 || (e == 0.0 && top_left)`, `-0.0` and NaN included.
    min_inside: f32,
}

impl Edge {
    fn new(org: Vec2, end: Vec2) -> Self {
        Self {
            org,
            dx: end.x - org.x,
            dy: end.y - org.y,
            min_inside: if (org.y == end.y && end.x < org.x) || end.y > org.y {
                0.0
            } else {
                f32::from_bits(1)
            },
        }
    }

    /// The row term of pixel row `py`.
    #[inline(always)]
    fn row(&self, py: u32) -> f32 {
        self.dx * ((py as f32 + 0.5) - self.org.y)
    }

    /// The value at pixel-centre abscissa `x` (`px + 0.5`) of the row
    /// with term `t`.
    #[inline(always)]
    fn at(&self, t: f32, x: f32) -> f32 {
        t - self.dy * (x - self.org.x)
    }

    /// The top-left fill rule's inside test of value `e`.
    #[inline(always)]
    fn inside(&self, e: f32) -> bool {
        e >= self.min_inside
    }
}

/// The three edges of a primitive: `v0 → v1`, `v1 → v2`, `v2 → v0`.
struct Edges([Edge; 3]);

impl Edges {
    fn new(prim: &Primitive) -> Self {
        let [a, b, c] = prim.v.map(|v| v.pos2());
        Self([Edge::new(a, b), Edge::new(b, c), Edge::new(c, a)])
    }

    /// The row terms of pixel row `py`.
    #[inline]
    fn row(&self, py: u32) -> [f32; 3] {
        self.0.map(|e| e.row(py))
    }

    /// The coverage mask of the `W` columns from `base` on the row with
    /// terms `t`: bit `k` is set when column `base + k` is inside all
    /// three edges. Straight-line over the lanes, so it vectorizes.
    #[inline(always)]
    fn block<const W: u32>(&self, t: &[f32; 3], base: u32) -> u32 {
        let [a, b, c] = &self.0;
        let [ta, tb, tc] = *t;
        // Exact: columns stay far below 2^24 (quads store them as u16),
        // so `base + lane` is `(base + k) as f32`.
        let base = base as f32;
        let mut mask = 0;
        for (k, lane) in LANES[..W as usize].iter().enumerate() {
            let x = (base + lane) + 0.5;
            let inside = a.inside(a.at(ta, x)) & b.inside(b.at(tb, x)) & c.inside(c.at(tc, x));
            mask |= u32::from(inside) << k;
        }
        mask
    }

    /// The covered columns `l..r` of the row with terms `t`, within
    /// `x0..x1` (empty when `l >= r`), from blocks of `W` columns.
    ///
    /// Along a row every step of [`Edge::at`] is monotone in `px`
    /// (rounding to nearest is monotone, and the geometry's guard band
    /// keeps every intermediate finite), so each edge's inside set is a
    /// prefix or a suffix of the row and the coverage is one interval:
    /// from the first set bit of the row's block masks to the last.
    fn span<const W: u32>(&self, t: [f32; 3], x0: u32, x1: u32) -> Row {
        let (mut l, mut r) = (x1, x1);
        let mut base = x0;
        while base < x1 {
            let mut mask = self.block::<W>(&t, base);
            if x1 - base < W {
                mask &= (1 << (x1 - base)) - 1;
            }
            if mask != 0 {
                if l == x1 {
                    l = base + mask.trailing_zeros();
                }
                r = base + u32::BITS - mask.leading_zeros();
            }
            // Once the interval has started, a block whose last lane is
            // outside it ends it.
            if l != x1 && mask >> (W - 1) == 0 {
                break;
            }
            base += W;
        }
        Row { t, l, r }
    }
}

/// One pixel row of a primitive: its edge row terms and its covered
/// columns `l..r` (empty when `l >= r`).
#[derive(Clone, Copy, Default)]
struct Row {
    t: [f32; 3],
    l: u32,
    r: u32,
}

/// The depth test of a chunk lane at depth `z` against its buffer entry
/// `d`: whether it passes — never when the lane is not `covered` —
/// storing `z` when it passes and `write`.
#[inline(always)]
fn depth_test(z: f32, d: &mut f32, write: bool, covered: bool) -> bool {
    let passes = covered & (z < *d);
    *d = if passes & write { z } else { *d };
    passes
}

/// One primitive being rasterized: its edges, its vertex attributes,
/// its bounding box's first column and its depth policy.
struct PrimRaster {
    edges: Edges,
    inv_area2: f32,
    /// Vertex depths.
    z: [f32; 3],
    /// Vertex texture coordinates.
    uv: [Vec2; 3],
    x0: u32,
    policy: DepthPolicy,
    winner_seq: Option<u32>,
    origin: (u32, u32),
}

impl PrimRaster {
    /// The quad columns `(first, end)` that a row's span touches,
    /// counted from `x0`; `(u32::MAX, 0)` for an empty span, so that
    /// min/max hulls and saturating lengths ignore it.
    #[inline]
    fn quad_cols(&self, row: &Row) -> (u32, u32) {
        if row.l < row.r {
            ((row.l - self.x0) / 2, (row.r - self.x0).div_ceil(2))
        } else {
            (u32::MAX, 0)
        }
    }

    /// Affine barycentric weights `[w0, w1, w2]` at column `col` (as
    /// `f32`) of the row with terms `t` (e0 spans edge a→b and therefore
    /// weights vertex 2, etc.).
    #[inline(always)]
    fn weights(&self, t: &[f32; 3], col: f32) -> [f32; 3] {
        let [a, b, c] = &self.edges.0;
        let x = col + 0.5;
        let inv = self.inv_area2;
        [
            b.at(t[1], x) * inv,
            c.at(t[2], x) * inv,
            a.at(t[0], x) * inv,
        ]
    }

    /// The interpolated depth at weights `[w0, w1, w2]`.
    #[inline(always)]
    fn depth_at(&self, [w0, w1, w2]: [f32; 3]) -> f32 {
        let [z0, z1, z2] = self.z;
        z0 * w0 + z1 * w1 + z2 * w2
    }

    /// The depth-buffer entries of the covered span of `row` on pixel
    /// row `py`, rounded up to whole [`CHUNK`]s (the buffer's spare
    /// entries keep the last chunk inside it).
    fn span_chunks(&self, depth: &DepthBuffer, row: &Row, py: u32) -> std::ops::Range<usize> {
        let start = depth.index(row.l - self.origin.0, py - self.origin.1);
        start..start + ((row.r - row.l) as usize).next_multiple_of(CHUNK)
    }

    /// Depth-tests the covered span of `row` (pixel row `py`), storing
    /// the depth — and, under HSR, the winner — of each pixel that
    /// passes when the policy writes. Returns how many pixels pass.
    fn depth_span(&self, row: &Row, py: u32, depth: &mut DepthBuffer) -> u32 {
        let entries = self.span_chunks(depth, row, py);
        let write = self.policy == DepthPolicy::TestWrite;
        let d = depth.depth[entries.clone()].chunks_exact_mut(CHUNK);
        let mut passed = 0u32;
        match self.winner_seq {
            None => {
                for (base, d) in (row.l..).step_by(CHUNK).zip(d) {
                    let col = base as f32;
                    for ((d, lane), k) in d.iter_mut().zip(&LANES).zip(base..) {
                        let z = self.depth_at(self.weights(&row.t, col + lane));
                        passed += u32::from(depth_test(z, d, write, k < row.r));
                    }
                }
            }
            Some(seq) => {
                let winner = depth.winner[entries].chunks_exact_mut(CHUNK);
                for ((base, d), win) in (row.l..).step_by(CHUNK).zip(d).zip(winner) {
                    let col = base as f32;
                    let lanes = d.iter_mut().zip(win).zip(&LANES).zip(base..);
                    for (((d, win), lane), k) in lanes {
                        let z = self.depth_at(self.weights(&row.t, col + lane));
                        let passes = depth_test(z, d, write, k < row.r);
                        *win = if passes & write { seq } else { *win };
                        passed += u32::from(passes);
                    }
                }
            }
        }
        passed
    }

    /// Interpolates uv and depth-tests the covered span of `row` (pixel
    /// row `py`) into `out`, resolving depth and winner as
    /// [`PrimRaster::depth_span`] does.
    ///
    /// The two stay apart, and each lane loop keeps the form measured to
    /// vectorize: one shared loop storing per-lane outcomes for both
    /// sinks compiled to scalar code, 1.4–1.6× slower on both passes.
    fn shade_span(&self, row: &Row, py: u32, depth: &mut DepthBuffer, out: &mut SpanOut) {
        if row.l >= row.r {
            return;
        }
        let entries = self.span_chunks(depth, row, py);
        let n = entries.len();
        if out.visible.len() < n {
            out.u.resize(n, 0.0);
            out.v.resize(n, 0.0);
            out.visible.resize(n, false);
        }
        let always = self.policy == DepthPolicy::Always;
        let write = self.policy == DepthPolicy::TestWrite;
        let [uv0, uv1, uv2] = self.uv;
        let chunks = (row.l..)
            .step_by(CHUNK)
            .zip(depth.depth[entries.clone()].chunks_exact_mut(CHUNK))
            .zip(out.u[..n].chunks_exact_mut(CHUNK))
            .zip(out.v[..n].chunks_exact_mut(CHUNK))
            .zip(out.visible[..n].chunks_exact_mut(CHUNK));
        for ((((base, d), u), v), visible) in chunks {
            let col = base as f32;
            let lanes = d
                .iter_mut()
                .zip(u)
                .zip(v)
                .zip(visible)
                .zip(&LANES)
                .zip(base..base + CHUNK as u32);
            for (((((d, u), v), visible), lane), k) in lanes {
                let w @ [w0, w1, w2] = self.weights(&row.t, col + lane);
                *u = uv0.x * w0 + uv1.x * w1 + uv2.x * w2;
                *v = uv0.y * w0 + uv1.y * w1 + uv2.y * w2;
                // Under `Always` every covered lane is visible, and depth
                // is left as it is (`write` is false).
                let covered = k < row.r;
                *visible = (always & covered) | depth_test(self.depth_at(w), d, write, covered);
            }
        }
        if let (Some(seq), true) = (self.winner_seq, write) {
            for (w, &visible) in depth.winner[entries].iter_mut().zip(&out.visible[..n]) {
                *w = if visible { seq } else { *w };
            }
        }
    }
}

/// Rasterizes one primitive clipped to `rect`, delivering its coverage
/// to `sink`. Depth is resolved immediately against `depth` (whose
/// local coordinates start at `origin`); when `winner_seq` is set,
/// passing opaque fragments record it in the winner buffer (HSR).
///
/// Each pixel row's covered span comes from [`Edges::span`]'s block
/// masks; the sink then depth-tests (and, for traces, interpolates) only
/// the pixels inside the spans, in chunked straight-line loops with the
/// reference's `f32` operation sequence (see the module docs).
fn rasterize_prim<S: QuadSink>(
    prim: &Primitive,
    (rx0, ry0, rx1, ry1): (u32, u32, u32, u32),
    origin: (u32, u32),
    policy: DepthPolicy,
    winner_seq: Option<u32>,
    depth: &mut DepthBuffer,
    sink: &mut S,
) {
    let area2 = prim.signed_area2();
    debug_assert!(area2 > 0.0, "backfaces culled in geometry");
    // Clamp the primitive bbox to the rect, snapping to even offsets
    // *relative to the rect origin* so whole 2×2 quads are walked even
    // when the rect corner is odd (non-tile-aligned viewports).
    let (min_x, min_y, max_x, max_y) = prim.bounds();
    let x0 = rx0 + ((min_x.floor().max(rx0 as f32) as u32 - rx0) & !1);
    let y0 = ry0 + ((min_y.floor().max(ry0 as f32) as u32 - ry0) & !1);
    let x1 = (max_x.ceil().min(rx1 as f32) as u32).min(rx1);
    let y1 = (max_y.ceil().min(ry1 as f32) as u32).min(ry1);
    if x0 >= x1 || y0 >= y1 {
        return;
    }
    let edges = Edges::new(prim);
    debug_assert!(
        edges.0.iter().all(|e| e.dx.is_finite() && e.dy.is_finite()),
        "geometry clips non-finite and out-of-band vertices"
    );
    let raster = PrimRaster {
        edges,
        inv_area2: 1.0 / area2,
        z: prim.v.map(|v| v.z),
        uv: prim.v.map(|v| v.uv),
        x0,
        policy,
        winner_seq,
        origin,
    };
    let narrow = x1 - x0 <= NARROW;
    let mut qy = y0;
    while qy < y1 {
        let mut rows = [Row::default(); 2];
        for (py, row) in (qy..y1.min(qy + 2)).zip(&mut rows) {
            let t = raster.edges.row(py);
            *row = if narrow {
                raster.edges.span::<NARROW>(t, x0, x1)
            } else {
                raster.edges.span::<BLOCK>(t, x0, x1)
            };
        }
        sink.quad_row(&raster, depth, qy, &rows);
        qy += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::bin_primitives;
    use crate::trace::DrawGeometry;
    use megsim_gfx::draw::BlendMode;
    use megsim_gfx::geometry::{Mesh, ScreenVertex, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use std::sync::Arc;

    fn sv(x: f32, y: f32, z: f32) -> ScreenVertex {
        ScreenVertex {
            x,
            y,
            z,
            inv_w: 1.0,
            uv: Vec2::new(x / 64.0, y / 64.0),
        }
    }

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 8));
        t.add(ShaderProgram::fragment(
            0,
            "fs",
            6,
            vec![TextureFilter::Bilinear],
        ));
        t
    }

    fn dummy_draw(blend: BlendMode, depth_test: bool, textured: bool) -> DrawCall {
        DrawCall {
            mesh: Arc::new(Mesh::new(vec![Vertex::at(Vec3::ZERO); 3], vec![0, 1, 2], 0)),
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: textured.then(|| TextureDesc::new(0, 64, 64, 4, 0x1000)),
            blend,
            depth_test,
        }
    }

    fn transformed(prims: Vec<Primitive>, draw_index: u32) -> TransformedDraw {
        TransformedDraw {
            geometry: DrawGeometry {
                draw_index,
                vertex_shader: ShaderId(0),
                vertex_shader_instructions: 8,
                vertex_fetch_addresses: vec![],
                vertices_shaded: 3,
                primitives_assembled: prims.len() as u32,
                primitives_emitted: prims.len() as u32,
            },
            prims,
        }
    }

    /// A screen-aligned right triangle covering roughly half of a square
    /// with corner `(x, y)` and size `s`.
    fn tri_at(x: f32, y: f32, s: f32, z: f32) -> Primitive {
        Primitive {
            v: [sv(x, y, z), sv(x + s, y, z), sv(x, y + s, z)],
        }
    }

    fn run_mode(
        prims_per_draw: Vec<(Vec<Primitive>, DrawCall)>,
        viewport: Viewport,
        mode: RenderMode,
    ) -> (FrameActivity, Vec<TileTrace>) {
        let mut frame = Frame::new();
        let mut draws = Vec::new();
        let mut act = FrameActivity::new(1, 1);
        for (i, (prims, draw)) in prims_per_draw.into_iter().enumerate() {
            frame.draws.push(draw);
            draws.push(transformed(prims, i as u32));
        }
        let mut scratch = RasterScratch::new();
        let bins = bin_primitives(&draws, viewport, &mut act, &mut scratch.bins);
        let tiles = rasterize_frame(
            &frame,
            &draws,
            &bins,
            viewport,
            &shaders(),
            mode,
            &mut act,
            true,
            &mut scratch,
        );
        (act, tiles)
    }

    #[test]
    fn tbr_counts_match_covered_area() {
        let viewport = Viewport::new(64, 64, 32);
        let (act, tiles) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 32.0, 0.5)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBased,
        );
        assert!((act.fragments_rasterized as i64 - 512).abs() <= 32);
        assert_eq!(act.fragments_shaded, act.fragments_rasterized);
        assert_eq!(act.fragments_early_z_culled, 0);
        assert_eq!(tiles.len(), 1);
    }

    #[test]
    fn tbr_early_z_culls_only_back_to_front_overdraw() {
        let viewport = Viewport::new(32, 32, 32);
        // Near first, then far: far is culled by early-Z.
        let (act, _) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 16.0, 0.2), tri_at(0.0, 0.0, 16.0, 0.8)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBased,
        );
        assert_eq!(act.fragments_early_z_culled * 2, act.fragments_rasterized);
        // Far first, then near: both are shaded (overdraw).
        let (act2, _) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 16.0, 0.8), tri_at(0.0, 0.0, 16.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBased,
        );
        assert_eq!(act2.fragments_early_z_culled, 0);
        assert_eq!(act2.fragments_shaded, act2.fragments_rasterized);
    }

    #[test]
    fn tbdr_removes_overdraw_regardless_of_order() {
        let viewport = Viewport::new(32, 32, 32);
        // Far first, then near — the worst case for TBR.
        let (act, _) = run_mode(
            vec![(
                vec![tri_at(0.0, 0.0, 16.0, 0.8), tri_at(0.0, 0.0, 16.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::TileBasedDeferred,
        );
        // Only the near triangle's fragments are shaded.
        assert_eq!(act.fragments_shaded * 2, act.fragments_rasterized);
        assert!(act.fragments_hsr_culled > 0);
    }

    #[test]
    fn tbdr_still_shades_transparents_on_top() {
        let viewport = Viewport::new(32, 32, 32);
        let (act, _) = run_mode(
            vec![
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.5)],
                    dummy_draw(BlendMode::Opaque, true, false),
                ),
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.2)],
                    dummy_draw(BlendMode::AlphaBlend, true, false),
                ),
            ],
            viewport,
            RenderMode::TileBasedDeferred,
        );
        // Opaque + transparent both visible: 2 layers shaded.
        assert_eq!(act.fragments_shaded, act.fragments_rasterized);
        assert_eq!(act.fragments_hsr_culled, 0);
    }

    #[test]
    fn tbdr_occludes_transparent_behind_opaque() {
        let viewport = Viewport::new(32, 32, 32);
        let (act, _) = run_mode(
            vec![
                // Transparent submitted first but *behind* the opaque.
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.8)],
                    dummy_draw(BlendMode::AlphaBlend, true, false),
                ),
                (
                    vec![tri_at(0.0, 0.0, 16.0, 0.2)],
                    dummy_draw(BlendMode::Opaque, true, false),
                ),
            ],
            viewport,
            RenderMode::TileBasedDeferred,
        );
        // Only the opaque layer is shaded: the transparent fails the
        // deferred depth test.
        assert_eq!(act.fragments_shaded * 2, act.fragments_rasterized);
    }

    #[test]
    fn imr_produces_single_pseudo_tile_spanning_screen() {
        let viewport = Viewport::new(128, 128, 32);
        // A triangle crossing several tile boundaries.
        let (act, tiles) = run_mode(
            vec![(
                vec![tri_at(10.0, 10.0, 100.0, 0.5)],
                dummy_draw(BlendMode::Opaque, true, false),
            )],
            viewport,
            RenderMode::Immediate,
        );
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].tile_index, 0);
        assert!(act.fragments_shaded > 0);
        // One primitive = one trace entry (no per-tile splitting).
        assert_eq!(tiles[0].prims.len(), 1);
    }

    #[test]
    fn imr_and_tbr_shade_the_same_fragments() {
        let viewport = Viewport::new(64, 64, 32);
        let scene = || {
            vec![(
                vec![tri_at(4.0, 4.0, 48.0, 0.5), tri_at(10.0, 10.0, 20.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )]
        };
        let (tbr, _) = run_mode(scene(), viewport, RenderMode::TileBased);
        let (imr, _) = run_mode(scene(), viewport, RenderMode::Immediate);
        assert_eq!(tbr.fragments_rasterized, imr.fragments_rasterized);
        assert_eq!(tbr.fragments_shaded, imr.fragments_shaded);
    }

    #[test]
    fn trace_quads_agree_with_counters_in_all_modes() {
        let viewport = Viewport::new(64, 64, 32);
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let (act, tiles) = run_mode(
                vec![(
                    vec![tri_at(3.0, 5.0, 20.0, 0.4), tri_at(6.0, 7.0, 18.0, 0.3)],
                    dummy_draw(BlendMode::Opaque, true, true),
                )],
                viewport,
                mode,
            );
            let visible: u64 = tiles
                .iter()
                .flat_map(|t| &t.prims)
                .flat_map(|p| &p.quads)
                .map(|q| u64::from(q.visible_count()))
                .sum();
            assert_eq!(visible, act.fragments_shaded, "{mode:?}");
        }
    }

    #[test]
    fn odd_viewport_keeps_quads_aligned_to_tile_origins() {
        // 33×33 target with 11-pixel tiles: tile origins (0, 11, 22) are
        // odd, which the old `& !1` snap mis-aligned (it could step a
        // quad *below* the tile origin and underflow the local index).
        let viewport = Viewport::new(33, 33, 11);
        let scene = || {
            vec![(
                vec![tri_at(1.0, 1.0, 30.0, 0.4), tri_at(13.0, 2.0, 17.0, 0.2)],
                dummy_draw(BlendMode::Opaque, true, false),
            )]
        };
        let (tbr, _) = run_mode(scene(), viewport, RenderMode::TileBased);
        // IMR's rect starts at (0, 0), so its rasterization is immune to
        // the tile-origin snapping and serves as the oracle.
        let (imr, _) = run_mode(scene(), viewport, RenderMode::Immediate);
        assert!(tbr.fragments_rasterized > 0);
        assert_eq!(tbr.fragments_rasterized, imr.fragments_rasterized);
        assert_eq!(tbr.fragments_shaded, imr.fragments_shaded);
        // 33×33 with a 32 tile: a single ragged-edge tile per axis pair.
        let viewport33 = Viewport::new(33, 33, 32);
        let (tbr33, _) = run_mode(scene(), viewport33, RenderMode::TileBased);
        let (imr33, _) = run_mode(scene(), viewport33, RenderMode::Immediate);
        assert_eq!(tbr33.fragments_rasterized, imr33.fragments_rasterized);
    }

    #[test]
    fn lod_selection_scales_with_screen_size() {
        // A triangle whose UVs span [0, 1] regardless of screen size: a
        // tiny one compresses many texels per pixel (high mip), a big
        // one approaches 1 texel/pixel (level 0).
        let unit_uv_tri = |s: f32| {
            let mut p = tri_at(0.0, 0.0, s, 0.5);
            p.v[0].uv = Vec2::new(0.0, 0.0);
            p.v[1].uv = Vec2::new(1.0, 0.0);
            p.v[2].uv = Vec2::new(0.0, 1.0);
            p
        };
        let small = unit_uv_tri(4.0);
        let big = unit_uv_tri(512.0);
        assert!(texture_lod(&small, 512, 512) > texture_lod(&big, 512, 512));
        assert_eq!(texture_lod(&big, 512, 512), 0);
    }
}
