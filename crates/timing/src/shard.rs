//! Intra-frame parallel timing: tile-sharded raster simulation with a
//! deterministic memory-traffic merge.
//!
//! All pre-PR-6 parallelism was frame-level, so one large frame
//! serialized on a single core. Tiles, however, are independent through
//! the FP-array raster pipeline — only the shared memory system (tile
//! cache, per-FP texture caches, L2, DRAM) couples them. This module
//! splits `Gpu::simulate_frame`'s tile loop into two stages:
//!
//! 1. **Record** (parallel, pure): shard workers walk disjoint tile
//!    ranges and do everything that does not touch shared state —
//!    texture-sampler memoization and per-fragment address generation,
//!    same-line run coalescing ([`megsim_mem::RunCoalescer`]),
//!    polygon-list run layout, per-FP ALU clock sums, Early-Z/blend
//!    occupancy, round-robin quad distribution — emitting a compact
//!    per-shard [`ShardLog`] of `(addr, count, kind)` runs plus pure
//!    clock totals. No cache or DRAM is touched, so shards race on
//!    nothing.
//! 2. **Replay** (serial, tile-index-ascending): the caller thread
//!    merges completed shards in order, replaying each tile's log
//!    through the existing [`megsim_mem::Cache::access_run`] /
//!    [`megsim_mem::MemoryHierarchy::access_run`] fast paths and
//!    re-deriving every latency-coupled clock (polygon-list read-back,
//!    texture-pipe stalls, IMR depth/color posted writes, the tile
//!    flush) exactly as the sequential loop would.
//!
//! Because the log captures the *complete* ordered stream of
//! potentially-memory-touching events — with the pure clock advances
//! between them — the replay leaves every cache line, LRU stamp, DRAM
//! row buffer, stat counter and cycle count **bit-identical to the
//! sequential raster phase at any thread count and any shard size**.
//! The oracle tests below pin that equivalence against both the direct
//! fast path and the retained seed [`crate::ReferenceGpu`].

use std::ops::Range;

use megsim_funcsim::{FrameTrace, RenderMode};
use megsim_gfx::math::Vec2;
use megsim_gfx::shader::ShaderTable;
use megsim_gfx::texture::LodSampler;
use megsim_mem::{AddressSpace, Cache, MemoryHierarchy, RunCoalescer};

use crate::config::GpuConfig;
use crate::gpu::texture_run;
use crate::stats::UnitBusy;

/// Tiles per shard. Small enough that shards load-balance across
/// uneven tiles, large enough that per-shard overhead (one allocation
/// set + one pipeline hand-off) amortizes. Determinism does not depend
/// on this value: replay order is tile-index order regardless.
pub(crate) const SHARD_TILES: usize = 8;

/// One potentially-memory-touching event of a tile, in the exact order
/// the sequential raster loop would issue it. `pre` fields carry the
/// pure clock advances accumulated since the previous event on the
/// same clock, so the replay reconstructs each clock's running value
/// at the moment of the access.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TileOp {
    /// A coalesced same-line texture-sample run on FP `fp`'s cache.
    Tex {
        /// Fragment Processor (texture cache index).
        fp: u8,
        /// Accesses in the run (all on `addr`'s line).
        count: u32,
        /// First address of the run.
        addr: u64,
    },
    /// An IMR depth-buffer line access, `pre` Early-Z cycles after the
    /// previous depth event.
    Depth {
        /// Early-Z occupancy accumulated since the last depth access
        /// (including this quad's own test cycle).
        pre: u32,
        /// Depth line address.
        addr: u64,
    },
    /// An IMR color read-modify-write, `pre` blend cycles after the
    /// previous color event.
    Color {
        /// Blend occupancy accumulated since the last color access
        /// (including this quad's visible fragments).
        pre: u32,
        /// Whether the blend mode reads the destination first.
        read: bool,
        /// Frame-buffer line address.
        addr: u64,
    },
}

/// Pure per-tile totals plus the end offsets of the tile's slices in
/// the shard's flat run/op arrays (CSR layout — one allocation set per
/// shard, not per tile).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileMeta {
    /// Flattened tile index (row-major), for flush addressing.
    tile_index: u32,
    /// Rasterizer attribute-interpolation occupancy (pure).
    raster_clock: u64,
    /// Early-Z occupancy accumulated after the last depth event (the
    /// whole tile's occupancy when no depth events were recorded).
    earlyz_tail: u64,
    /// Blend occupancy accumulated after the last color event.
    blend_tail: u64,
    /// On-chip depth-buffer accesses (covered fragments).
    depth_accesses: u64,
    /// On-chip color-buffer accesses (visible fragments, ×2 when the
    /// blend mode reads the destination).
    color_accesses: u64,
    /// Visible pixels — the tile flush recomputes its line addresses
    /// from this, so flush traffic needs no log entries.
    visible_px: u64,
    /// End offset of this tile's polygon-list runs in
    /// [`ShardLog::list_runs`].
    list_run_end: u32,
    /// End offset of this tile's ops in [`ShardLog::ops`].
    op_end: u32,
}

/// The recorded raster work of one shard of tiles: per-tile metadata
/// over flat run/op arrays.
#[derive(Debug, Default)]
pub(crate) struct ShardLog {
    metas: Vec<TileMeta>,
    /// Same-line polygon-list read runs, all tiles concatenated.
    list_runs: Vec<(u64, u64)>,
    /// Ordered memory-touching events, all tiles concatenated.
    ops: Vec<TileOp>,
    /// Per-FP ALU clock sums, `fragment_processors` entries per tile.
    fp_alu: Vec<u64>,
}

/// Records the raster-phase work of `trace.tiles[range]` without
/// touching any shared cache or DRAM state. Pure: depends only on the
/// trace, shader table, configuration and frame index, so shards can
/// record concurrently in any order.
pub(crate) fn record_tiles(
    trace: &FrameTrace,
    shaders: &ShaderTable,
    config: &GpuConfig,
    frame_index: u64,
    range: Range<usize>,
) -> ShardLog {
    let immediate = trace.mode == RenderMode::Immediate;
    let deferred = trace.mode == RenderMode::TileBasedDeferred;
    let tc_shift = config.tile_cache.line_size.trailing_zeros();
    let tex_shift = config.texture_cache.line_size.trailing_zeros();
    let n_fp = config.fragment_processors;
    let earlyz_step: u64 = if deferred { 2 } else { 1 };

    let mut log = ShardLog {
        metas: Vec::with_capacity(range.len()),
        ..ShardLog::default()
    };
    let mut samplers: Vec<LodSampler> = Vec::new();
    for tile in &trace.tiles[range] {
        // Polygon-list read-back runs: a pure function of the tile
        // index and entry count (absent in immediate mode), coalesced
        // by tile-cache line exactly as the sequential scan would.
        if !immediate {
            let entries = tile.prims.len() as u64;
            let mut n = 0u64;
            while n < entries {
                let addr = AddressSpace::polygon_list_entry(tile.tile_index, n);
                let line = addr >> tc_shift;
                let mut m = n + 1;
                while m < entries
                    && AddressSpace::polygon_list_entry(tile.tile_index, m) >> tc_shift == line
                {
                    m += 1;
                }
                log.list_runs.push((addr, m - n));
                n = m;
            }
        }

        let fp_base = log.fp_alu.len();
        log.fp_alu.resize(fp_base + n_fp, 0);
        let mut raster_clock = 0u64;
        let mut earlyz_pending = 0u64;
        let mut blend_pending = 0u64;
        let mut depth_accesses = 0u64;
        let mut color_accesses = 0u64;
        let mut visible_px = 0u64;
        let mut fp_rr = 0usize;
        for prim in &tile.prims {
            let fs = shaders.fragment_shader(prim.fragment_shader);
            let fs_instr = u64::from(fs.instruction_count());
            let mut quad_cost = [0u64; 5];
            for (v, cost) in quad_cost.iter_mut().enumerate().skip(1) {
                *cost = (v as u64 * fs_instr).div_ceil(config.fragment_issue_width);
            }
            samplers.clear();
            if let Some(texture) = prim.texture.as_ref() {
                for filter in &fs.texture_samples {
                    samplers.push(texture.lod_sampler(*filter, prim.lod));
                }
            }
            let texel = samplers
                .first()
                .map(|s| s.texel_extent())
                .unwrap_or_default();
            let offsets = [
                Vec2::new(0.0, 0.0),
                Vec2::new(texel.x, 0.0),
                Vec2::new(0.0, texel.y),
                Vec2::new(texel.x, texel.y),
            ];
            raster_clock += prim.quads.len() as u64
                * u64::from(prim.attributes)
                * config.rasterizer_cycles_per_attribute;
            for quad in &prim.quads {
                earlyz_pending += earlyz_step;
                depth_accesses += u64::from(quad.covered_count());
                if immediate && prim.depth_test {
                    let addr = AddressSpace::depth_pixel(
                        u32::from(quad.x),
                        u32::from(quad.y),
                        trace.viewport.width,
                    );
                    log.ops.push(TileOp::Depth {
                        pre: earlyz_pending as u32,
                        addr,
                    });
                    earlyz_pending = 0;
                }
                let vis = u64::from(quad.visible_count());
                if vis == 0 {
                    fp_rr += 1;
                    if fp_rr == n_fp {
                        fp_rr = 0;
                    }
                    continue;
                }
                let fp = fp_rr;
                fp_rr += 1;
                if fp_rr == n_fp {
                    fp_rr = 0;
                }
                log.fp_alu[fp_base + fp] += quad_cost[vis as usize];
                if !samplers.is_empty() {
                    // Same-line run merging with the exact boundaries
                    // of the sequential address scan; the coalescer
                    // state spans the whole quad, as in the direct
                    // path's `sample_textures`.
                    let mut runs = RunCoalescer::new(tex_shift);
                    for off in &offsets[..vis.min(4) as usize] {
                        let fuv = Vec2::new(quad.uv.x + off.x, quad.uv.y + off.y);
                        for sampler in &samplers {
                            sampler.for_each_run(fuv, tex_shift, |addr, count| {
                                runs.push(addr, count, |addr, count| {
                                    log.ops.push(TileOp::Tex {
                                        fp: fp as u8,
                                        count: count as u32,
                                        addr,
                                    });
                                });
                            });
                        }
                    }
                    runs.flush(|addr, count| {
                        log.ops.push(TileOp::Tex {
                            fp: fp as u8,
                            count: count as u32,
                            addr,
                        });
                    });
                }
                blend_pending += vis;
                color_accesses += vis * if prim.blend.reads_destination() { 2 } else { 1 };
                if immediate {
                    let addr = AddressSpace::framebuffer_pixel(
                        u32::from(quad.x),
                        u32::from(quad.y),
                        trace.viewport.width,
                        frame_index,
                    );
                    log.ops.push(TileOp::Color {
                        pre: blend_pending as u32,
                        read: prim.blend.reads_destination(),
                        addr,
                    });
                    blend_pending = 0;
                }
                visible_px += vis;
            }
        }
        log.metas.push(TileMeta {
            tile_index: tile.tile_index,
            raster_clock,
            earlyz_tail: earlyz_pending,
            blend_tail: blend_pending,
            depth_accesses,
            color_accesses,
            visible_px,
            list_run_end: log.list_runs.len() as u32,
            op_end: log.ops.len() as u32,
        });
    }
    log
}

/// Raster-phase accumulators threaded through the tile-ordered merge.
#[derive(Debug, Default)]
pub(crate) struct ReplayState {
    /// Accumulated per-tile pipeline time.
    pub tile_work_clock: u64,
    /// Accumulated frame-buffer flush time (overlaps tile work).
    pub flush_clock: u64,
    /// On-chip color-buffer accesses.
    pub color_accesses: u64,
    /// On-chip depth-buffer accesses.
    pub depth_accesses: u64,
    /// Visible pixels replayed — the split-frame distributor sizes each
    /// GPU's region transfer from this.
    pub visible_px: u64,
}

impl ReplayState {
    /// The raster phase's duration so far: tile work and the
    /// overlapping flush engine, whichever finishes later.
    pub fn raster_cycles(&self) -> u64 {
        self.tile_work_clock.max(self.flush_clock)
    }
}

/// Replays one shard's log against the shared memory system, tile by
/// tile in index order — the deterministic merge. Must be called with
/// shards in ascending tile order; within the call it reproduces the
/// sequential raster loop's access order and clock arithmetic exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_shard(
    log: &ShardLog,
    trace: &FrameTrace,
    config: &GpuConfig,
    tile_cache: &mut Cache,
    texture_caches: &mut [Cache],
    memory: &mut MemoryHierarchy,
    frame_index: u64,
    base: u64,
    busy: &mut UnitBusy,
    state: &mut ReplayState,
    tex_clock: &mut [u64],
) {
    let immediate = trace.mode == RenderMode::Immediate;
    let tc_latency = config.tile_cache.latency;
    let stall_cap = config.texture_miss_stall_cap;
    let n_fp = config.fragment_processors;
    let mut list_start = 0usize;
    let mut op_start = 0usize;
    for (t, meta) in log.metas.iter().enumerate() {
        let tile_base = base + state.tile_work_clock;
        // Polygon-list read-back through the tile cache.
        let mut list_clock = 0u64;
        for &(addr, count) in &log.list_runs[list_start..meta.list_run_end as usize] {
            list_clock += 1;
            let acc = tile_cache.access_run(addr, false, count);
            if let Some(wb) = acc.writeback {
                memory.access(wb, tile_base + list_clock, true);
            }
            if acc.hit {
                list_clock += tc_latency;
            } else {
                let fill = memory.access(addr, tile_base + list_clock, false);
                list_clock += fill.latency;
            }
            list_clock += (count - 1) * (1 + tc_latency);
        }
        list_start = meta.list_run_end as usize;

        // Ordered event replay: texture runs, IMR depth tests and IMR
        // color writes interleave on the shared L2/DRAM exactly as the
        // per-quad loop issued them.
        let mut earlyz_clock = 0u64;
        let mut blend_clock = 0u64;
        tex_clock[..n_fp].fill(0);
        for op in &log.ops[op_start..meta.op_end as usize] {
            match *op {
                TileOp::Tex { fp, count, addr } => texture_run(
                    &mut texture_caches[fp as usize],
                    memory,
                    addr,
                    u64::from(count),
                    tile_base,
                    stall_cap,
                    &mut tex_clock[fp as usize],
                ),
                TileOp::Depth { pre, addr } => {
                    earlyz_clock += u64::from(pre);
                    let acc = memory.access(addr, tile_base + earlyz_clock, true);
                    let arrival = acc.ready_at.saturating_sub(tile_base);
                    earlyz_clock =
                        earlyz_clock.max(arrival.saturating_sub(config.plb_write_window));
                }
                TileOp::Color { pre, read, addr } => {
                    blend_clock += u64::from(pre);
                    if read {
                        memory.access(addr, tile_base + blend_clock, false);
                    }
                    let acc = memory.access(addr, tile_base + blend_clock, true);
                    let arrival = acc.ready_at.saturating_sub(tile_base);
                    blend_clock =
                        blend_clock.max(arrival.saturating_sub(config.flush_write_window));
                }
            }
        }
        op_start = meta.op_end as usize;
        earlyz_clock += meta.earlyz_tail;
        blend_clock += meta.blend_tail;
        state.depth_accesses += meta.depth_accesses;
        state.color_accesses += meta.color_accesses;
        state.visible_px += meta.visible_px;

        let fp_alu = &log.fp_alu[t * n_fp..(t + 1) * n_fp];
        let fp_alu_max = fp_alu.iter().copied().max().unwrap_or(0);
        let tex_max = tex_clock[..n_fp].iter().copied().max().unwrap_or(0);
        let fp_max = fp_alu
            .iter()
            .zip(&tex_clock[..n_fp])
            .map(|(&alu, &tex)| alu.max(tex))
            .max()
            .unwrap_or(0);
        busy.polygon_list_read += list_clock;
        busy.rasterizer += meta.raster_clock;
        busy.early_z += earlyz_clock;
        busy.fragment_alu += fp_alu_max;
        busy.texture_pipe += tex_max;
        busy.blending += blend_clock;
        let tile_pipeline = list_clock
            .max(meta.raster_clock)
            .max(earlyz_clock)
            .max(fp_max)
            .max(blend_clock);
        state.tile_work_clock += tile_pipeline + config.early_z_in_flight;

        // Tile flush: line addresses are a pure function of the tile
        // rect and visible-pixel count, so they are recomputed here
        // instead of logged (IMR wrote its colors inline — nothing to
        // flush).
        if immediate {
            continue;
        }
        let (tx, ty) = (
            meta.tile_index % trace.viewport.tiles_x(),
            meta.tile_index / trace.viewport.tiles_x(),
        );
        let rect = trace.viewport.tile_rect(tx, ty);
        let flush_bytes = meta.visible_px * 4;
        let flush_lines = flush_bytes.div_ceil(config.dram.line_size);
        let row_pixels = u64::from(trace.viewport.width);
        for line in 0..flush_lines {
            let local = line * (config.dram.line_size / 4);
            let y = rect.1 + (local / u64::from(trace.viewport.tile_size)) as u32;
            let x = rect.0 + (local % u64::from(trace.viewport.tile_size)) as u32;
            let addr = AddressSpace::framebuffer_pixel(
                x.min(trace.viewport.width - 1),
                y.min(trace.viewport.height - 1),
                row_pixels as u32,
                frame_index,
            );
            let w = memory.access(addr, base + state.flush_clock, true);
            let retire = w.ready_at.saturating_sub(base);
            state.flush_clock =
                (state.flush_clock + 1).max(retire.saturating_sub(config.flush_write_window));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GpuConfig;
    use crate::gpu::Gpu;
    use crate::multi_gpu::{DispatchMode, MultiGpu, MultiGpuConfig};
    use crate::stats::FrameStats;
    use crate::timing_reference::ReferenceGpu;
    use megsim_funcsim::{RenderConfig, RenderMode, Renderer};
    use megsim_gfx::draw::{BlendMode, DrawCall, Frame, Viewport};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec2, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, ShaderTable, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use megsim_mem::Topology;
    use std::sync::Arc;

    const MODES: [RenderMode; 3] = [
        RenderMode::TileBased,
        RenderMode::TileBasedDeferred,
        RenderMode::Immediate,
    ];

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 10));
        t.add(ShaderProgram::fragment(
            0,
            "fs_tex",
            7,
            vec![TextureFilter::Bilinear],
        ));
        t.add(ShaderProgram::fragment(1, "fs_flat", 3, vec![]));
        t.add(ShaderProgram::fragment(
            2,
            "fs_multi",
            5,
            vec![TextureFilter::Trilinear, TextureFilter::Nearest],
        ));
        t
    }

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
            texture: (fs != 1).then(|| TextureDesc::new(0, 64, 64, 4, 0x8000)),
            blend,
            depth_test,
        }
    }

    /// Three warm frames of layered overdraw: textured opaque base,
    /// multi-sampler mid layer, flat alpha-blended top — every unit,
    /// blend kind and cache in play.
    fn scene() -> Vec<Frame> {
        let mut f = Frame::new();
        f.draws.push(draw_of(
            &[
                [(-0.9, -0.9, 0.4), (0.9, -0.9, 0.4), (0.9, 0.9, 0.4)],
                [(-0.9, -0.9, 0.4), (0.9, 0.9, 0.4), (-0.9, 0.9, 0.4)],
            ],
            0,
            BlendMode::Opaque,
            true,
        ));
        f.draws.push(draw_of(
            &[[(-0.7, -0.5, -0.2), (0.8, -0.6, -0.2), (0.1, 0.9, -0.2)]],
            2,
            BlendMode::Additive,
            true,
        ));
        f.draws.push(draw_of(
            &[[(-0.3, -1.1, -0.6), (1.1, 0.2, -0.6), (-0.8, 0.9, -0.6)]],
            1,
            BlendMode::AlphaBlend,
            false,
        ));
        vec![f.clone(), f.clone(), f]
    }

    /// Two empty frames around a single-prim sliver: zero or one
    /// shard, no ops to replay, flush rect on a partial tile.
    fn trivial_frames() -> Vec<Frame> {
        let mut tiny = Frame::new();
        tiny.draws.push(draw_of(
            &[[(-0.05, -0.05, 0.0), (0.05, -0.05, 0.0), (0.0, 0.05, 0.0)]],
            1,
            BlendMode::Opaque,
            true,
        ));
        vec![Frame::new(), tiny, Frame::new()]
    }

    fn config(mode: RenderMode, viewport: Viewport) -> GpuConfig {
        let mut cfg = GpuConfig::small(viewport.width, viewport.height);
        cfg.viewport = viewport;
        cfg.render_mode = mode;
        cfg
    }

    fn run_sequence(
        mode: RenderMode,
        viewport: Viewport,
        frames: &[Frame],
    ) -> (Vec<FrameStats>, u64) {
        let t = shaders();
        let renderer = Renderer::new(RenderConfig { viewport, mode });
        let mut gpu = Gpu::new(config(mode, viewport));
        let stats = frames
            .iter()
            .map(|f| gpu.simulate_frame(&renderer.render_frame(f, &t), &t))
            .collect();
        (stats, gpu.now())
    }

    #[test]
    fn sharding_bit_identical_to_sequential_all_modes() {
        // One worker thread runs the sequential raster loop; two and
        // eight shard it (every viewport here has at least two tiles),
        // and the stats must not move.
        let frames = scene();
        for viewport in [Viewport::new(128, 128, 32), Viewport::new(96, 40, 24)] {
            for mode in MODES {
                let base = megsim_exec::with_threads(1, || run_sequence(mode, viewport, &frames));
                for threads in [2, 8] {
                    let got = megsim_exec::with_threads(threads, || {
                        run_sequence(mode, viewport, &frames)
                    });
                    assert_eq!(got, base, "{mode:?} {viewport:?} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn sharding_matches_reference_on_partial_tiles_and_trivial_frames() {
        // 33×33 target with 16-px tiles: a 3×3 grid whose right column
        // and bottom row are 1-px slivers — the shard-boundary and
        // flush-rect-clamp regression case. At one thread the GPU runs
        // the sequential loop while the N = 1 split-frame rig replays
        // recorded shards; at eight threads both record and replay.
        let viewport = Viewport::new(33, 33, 16);
        let t = shaders();
        for (name, frames) in [("scene", scene()), ("trivial", trivial_frames())] {
            for threads in [1, 8] {
                megsim_exec::with_threads(threads, || {
                    for mode in MODES {
                        let cfg = config(mode, viewport);
                        let renderer = Renderer::new(RenderConfig { viewport, mode });
                        let mut gpu = Gpu::new(cfg.clone());
                        let rig_config =
                            MultiGpuConfig::new(1, DispatchMode::SplitFrame, Topology::Shared);
                        let mut rig = MultiGpu::new(cfg.clone(), rig_config);
                        let mut reference = ReferenceGpu::new(cfg);
                        for (i, frame) in frames.iter().enumerate() {
                            let at = format!("{name} {mode:?} frame {i} at {threads} threads");
                            let trace = renderer.render_frame(frame, &t);
                            let want = reference.simulate_frame(&trace, &t);
                            assert_eq!(gpu.simulate_frame(&trace, &t), want, "{at}");
                            assert_eq!(rig.simulate_frame(&trace, &t), want, "{at} rig");
                            assert_eq!(gpu.now(), reference.now(), "{at} clock");
                            assert_eq!(rig.now(), reference.now(), "{at} rig clock");
                        }
                    }
                });
            }
        }
    }
}
