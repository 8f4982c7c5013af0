//! The raster phase: one tile recorder feeding one of two sinks.
//!
//! [`record_tiles`] is the only code that walks a frame's tiles through
//! the raster pipeline. It does everything that touches no shared
//! state — texture-sampler memoization and per-fragment address
//! generation, same-line run coalescing ([`megsim_mem::RunCoalescer`]),
//! polygon-list run layout, per-FP ALU clock sums, Early-Z/blend
//! occupancy, round-robin quad distribution — and sends each tile's
//! events to a [`TileSink`] in the order the memory system sees them:
//! the tile's polygon-list runs, its ordered [`TileOp`]s, then its end
//! with the pure [`TileMeta`] totals and per-FP ALU clocks. Two sinks
//! consume them:
//!
//! * [`Replay`] applies each event to one GPU's tile and texture
//!   caches, memory hierarchy and unit clocks as it arrives,
//!   re-deriving every latency-coupled clock (polygon-list read-back,
//!   texture-pipe stalls, IMR depth/color posted writes, the tile
//!   flush).
//! * [`ShardLog`] buffers the events of a tile range;
//!   [`ShardLog::replay`] feeds them to a `Replay` later, in order.
//!
//! `Gpu::simulate_frame` records straight into a `Replay` unless the
//! work can overlap: with at least two tiles, more than one worker
//! thread and outside a pool worker, workers record [`SHARD_TILES`]-tile
//! logs in parallel while the caller replays them tile-index-ascending
//! ([`megsim_exec::shard_merge`]). The split-frame rig
//! (`crate::multi_gpu`) replays its per-band logs round-robin, one
//! `Replay` per GPU.
//!
//! A log replays exactly the event stream the direct sink receives, so
//! every cache line, LRU stamp, DRAM row buffer, stat counter and cycle
//! count is **bit-identical at any thread count and any shard size**.
//! The oracle tests below and in `crate::timing_reference` pin both
//! sinks against the retained seed model, `ReferenceGpu`.

use std::ops::Range;

use megsim_funcsim::{FrameTrace, RenderMode};
use megsim_gfx::draw::Viewport;
use megsim_gfx::math::Vec2;
use megsim_gfx::shader::ShaderTable;
use megsim_mem::{AddressSpace, Cache, MemoryHierarchy, RunCoalescer};

use crate::config::GpuConfig;
use crate::gpu::Gpu;
use crate::stats::UnitBusy;

/// Tiles per shard. Small enough that shards load-balance across
/// uneven tiles, large enough that per-shard overhead (one allocation
/// set + one pipeline hand-off) amortizes. Determinism does not depend
/// on this value: replay order is tile-index order regardless.
pub(crate) const SHARD_TILES: usize = 8;

/// One potentially-memory-touching event of a tile, in the exact order
/// the raster pipeline issues it. `pre` fields carry the pure clock
/// advances accumulated since the previous event on the same clock, so
/// the replay reconstructs each clock's running value at the moment of
/// the access.
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

/// Pure per-tile totals, sent with the tile's end.
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
    /// from this, so flush traffic needs no events.
    visible_px: u64,
}

/// Receives the raster events [`record_tiles`] produces, tile by tile:
/// the tile's polygon-list runs, then its ordered ops, then its end.
pub(crate) trait TileSink {
    /// A same-line polygon-list read run of `count` entries from `addr`.
    fn list_run(&mut self, addr: u64, count: u64);
    /// An ordered memory-touching event.
    fn op(&mut self, op: TileOp);
    /// The tile's end: its pure totals and per-FP ALU clocks.
    fn end_tile(&mut self, meta: TileMeta, fp_alu: &[u64]);
}

/// The buffered events of a tile range: per-tile metadata over flat
/// run/op/clock arrays (CSR layout — one allocation set per shard, not
/// per tile).
#[derive(Debug, Default)]
pub(crate) struct ShardLog {
    /// Each tile's totals, with the end offsets of its slices in
    /// `list_runs`, `ops` and `fp_alu`.
    tiles: Vec<(TileMeta, [usize; 3])>,
    /// Same-line polygon-list read runs, all tiles concatenated.
    list_runs: Vec<(u64, u64)>,
    /// Ordered memory-touching events, all tiles concatenated.
    ops: Vec<TileOp>,
    /// Per-FP ALU clock sums, `fragment_processors` entries per tile.
    fp_alu: Vec<u64>,
}

impl ShardLog {
    /// Records `trace.tiles[range]` into a fresh log. Pure, so shards
    /// can record concurrently in any order.
    pub(crate) fn record(
        trace: &FrameTrace,
        shaders: &ShaderTable,
        config: &GpuConfig,
        frame_index: u64,
        range: Range<usize>,
    ) -> Self {
        let mut log = Self {
            tiles: Vec::with_capacity(range.len()),
            ..Self::default()
        };
        record_tiles(trace, shaders, config, frame_index, range, &mut log);
        log
    }

    /// Feeds the buffered events to `sink` in recorded order.
    pub(crate) fn replay(&self, sink: &mut impl TileSink) {
        let mut start = [0; 3];
        for &(meta, end) in &self.tiles {
            for &(addr, count) in &self.list_runs[start[0]..end[0]] {
                sink.list_run(addr, count);
            }
            for &op in &self.ops[start[1]..end[1]] {
                sink.op(op);
            }
            sink.end_tile(meta, &self.fp_alu[start[2]..end[2]]);
            start = end;
        }
    }
}

impl TileSink for ShardLog {
    fn list_run(&mut self, addr: u64, count: u64) {
        self.list_runs.push((addr, count));
    }

    fn op(&mut self, op: TileOp) {
        self.ops.push(op);
    }

    fn end_tile(&mut self, meta: TileMeta, fp_alu: &[u64]) {
        self.fp_alu.extend_from_slice(fp_alu);
        let end = [self.list_runs.len(), self.ops.len(), self.fp_alu.len()];
        self.tiles.push((meta, end));
    }
}

/// Walks the raster pipeline over `trace.tiles[range]`, sending each
/// tile's events to `sink`. Touches no cache or DRAM state itself: it
/// depends only on the trace, shader table, configuration and frame
/// index.
pub(crate) fn record_tiles(
    trace: &FrameTrace,
    shaders: &ShaderTable,
    config: &GpuConfig,
    frame_index: u64,
    range: Range<usize>,
    sink: &mut impl TileSink,
) {
    let immediate = trace.mode == RenderMode::Immediate;
    let deferred = trace.mode == RenderMode::TileBasedDeferred;
    let tc_shift = config.tile_cache.line_size.trailing_zeros();
    let tex_shift = config.texture_cache.line_size.trailing_zeros();
    let n_fp = config.fragment_processors;
    // Early-Z: one quad per cycle; a deferred (HSR) pipeline pays a
    // second resolve pass.
    let earlyz_step: u64 = if deferred { 2 } else { 1 };

    let mut fp_alu = vec![0u64; n_fp];
    let mut samplers = Vec::new();
    for tile in &trace.tiles[range] {
        // Polygon-list read-back runs through the Tile cache (absent in
        // immediate mode: there are no tile lists to read), coalesced
        // by line like the PLB wrote them.
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
                sink.list_run(addr, m - n);
                n = m;
            }
        }

        // Rasterizer / Early-Z / Fragment Processors / Blending.
        fp_alu.fill(0);
        let mut raster_clock = 0u64;
        let mut earlyz_pending = 0u64;
        let mut blend_pending = 0u64;
        let mut depth_accesses = 0u64;
        let mut color_accesses = 0u64;
        let mut visible_px = 0u64;
        // Round-robin quad distribution: a wrapping counter in place of
        // `quad_count % n_fp` (same sequence, no per-quad division).
        let mut fp_rr = 0usize;
        for prim in &tile.prims {
            let fs = shaders.fragment_shader(prim.fragment_shader);
            let fs_instr = u64::from(fs.instruction_count());
            // FP issue cost per visible-fragment count, hoisting the
            // `div_ceil` out of the quad loop (vis is 1..=4).
            let mut quad_cost = [0u64; 5];
            for (v, cost) in quad_cost.iter_mut().enumerate().skip(1) {
                *cost = (v as u64 * fs_instr).div_ceil(config.fragment_issue_width);
            }
            // Memoize the prim's texture samplers once: the level
            // clamp, mip-chain walk and wrap masks are fixed per
            // (texture, filter, lod).
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
            // The quad's four fragments sample at one-texel offsets (at
            // the selected LOD): +x, +y, then both — a per-prim table,
            // so the quad loop does no integer-to-float conversion.
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
                    // IMR keeps depth in memory: one line-sized access
                    // per quad (depth values of a quad share a line).
                    let addr = AddressSpace::depth_pixel(
                        u32::from(quad.x),
                        u32::from(quad.y),
                        trace.viewport.width,
                    );
                    sink.op(TileOp::Depth {
                        pre: earlyz_pending as u32,
                        addr,
                    });
                    earlyz_pending = 0;
                }
                let vis = u64::from(quad.visible_count());
                let fp = fp_rr;
                fp_rr += 1;
                if fp_rr == n_fp {
                    fp_rr = 0;
                }
                if vis == 0 {
                    continue;
                }
                fp_alu[fp] += quad_cost[vis as usize];
                if !samplers.is_empty() {
                    // Texture samples stream through one same-line run
                    // spanning the whole quad, flushed on every line
                    // change: a bilinear footprint inside one texel
                    // block is a single texture-cache lookup, and
                    // adjacent fragments extend the run.
                    let mut runs = RunCoalescer::new(tex_shift);
                    let mut emit = |addr, count: u64| {
                        sink.op(TileOp::Tex {
                            fp: fp as u8,
                            count: count as u32,
                            addr,
                        });
                    };
                    for off in &offsets[..vis.min(4) as usize] {
                        let fuv = Vec2::new(quad.uv.x + off.x, quad.uv.y + off.y);
                        for sampler in &samplers {
                            sampler.for_each_run(fuv, tex_shift, |addr, count| {
                                runs.push(addr, count, &mut emit);
                            });
                        }
                    }
                    runs.flush(&mut emit);
                }
                // Blending Unit: one fragment per cycle. TBR blends
                // against the on-chip color buffer; IMR reads and
                // writes the frame buffer in memory immediately — the
                // off-chip traffic §II-A describes.
                blend_pending += vis;
                color_accesses += vis * if prim.blend.reads_destination() { 2 } else { 1 };
                if immediate {
                    let addr = AddressSpace::framebuffer_pixel(
                        u32::from(quad.x),
                        u32::from(quad.y),
                        trace.viewport.width,
                        frame_index,
                    );
                    sink.op(TileOp::Color {
                        pre: blend_pending as u32,
                        read: prim.blend.reads_destination(),
                        addr,
                    });
                    blend_pending = 0;
                }
                visible_px += vis;
            }
        }
        let meta = TileMeta {
            tile_index: tile.tile_index,
            raster_clock,
            earlyz_tail: earlyz_pending,
            blend_tail: blend_pending,
            depth_accesses,
            color_accesses,
            visible_px,
        };
        sink.end_tile(meta, &fp_alu);
    }
}

/// Raster-phase totals of one GPU, carried across the [`Replay`]s of a
/// frame.
#[derive(Debug, Clone, Default)]
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
    pub(crate) fn raster_cycles(&self) -> u64 {
        self.tile_work_clock.max(self.flush_clock)
    }
}

/// The sink that times tiles: applies each event to one GPU's tile and
/// texture caches and memory hierarchy as it arrives, and folds the
/// tile's clocks into the [`UnitBusy`] counters and the [`ReplayState`].
/// Events must arrive in ascending tile order; tiles may be split
/// across several `Replay`s sharing one state, as long as each ends on
/// a tile boundary.
#[derive(Debug)]
pub(crate) struct Replay<'a> {
    config: &'a GpuConfig,
    viewport: Viewport,
    immediate: bool,
    frame_index: u64,
    /// Cycle the raster phase starts at.
    base: u64,
    tile_cache: &'a mut Cache,
    texture_caches: &'a mut [Cache],
    memory: &'a mut MemoryHierarchy,
    busy: &'a mut UnitBusy,
    state: &'a mut ReplayState,
    /// Per-FP texture-pipe clocks of the current tile (zero between
    /// tiles). Each FP has a texture pipe that runs in parallel with its
    /// ALU; the FP finishes when the slower of the two does.
    tex_clock: &'a mut [u64],
    /// The current tile's polygon-list read-back clock.
    list_clock: u64,
    /// The current tile's Early-Z clock, up to its last depth event.
    earlyz_clock: u64,
    /// The current tile's blend clock, up to its last color event.
    blend_clock: u64,
}

impl<'a> Replay<'a> {
    /// Times `trace`'s tiles on `gpu`, from raster-phase start `base`.
    pub(crate) fn new(
        gpu: &'a mut Gpu,
        trace: &FrameTrace,
        base: u64,
        busy: &'a mut UnitBusy,
        state: &'a mut ReplayState,
    ) -> Self {
        Self {
            config: &gpu.config,
            viewport: trace.viewport,
            immediate: trace.mode == RenderMode::Immediate,
            frame_index: gpu.frame_index,
            base,
            tile_cache: &mut gpu.tile_cache,
            texture_caches: &mut gpu.texture_caches,
            memory: &mut gpu.memory,
            busy,
            state,
            tex_clock: &mut gpu.tex_clock,
            list_clock: 0,
            earlyz_clock: 0,
            blend_clock: 0,
        }
    }

    /// The replayed GPU's configuration, for the recorder.
    pub(crate) fn config(&self) -> &'a GpuConfig {
        self.config
    }

    /// The cycle the current tile started at.
    #[inline(always)]
    fn tile_base(&self) -> u64 {
        self.base + self.state.tile_work_clock
    }

    /// Streams the tile's covered pixels to the frame buffer
    /// (partial-tile flush — Arm-style transaction elimination skips
    /// untouched pixels); overlaps the next tile's work. The line
    /// addresses are a pure function of the tile rect and visible-pixel
    /// count, so they need no events.
    fn flush(&mut self, meta: &TileMeta) {
        let viewport = self.viewport;
        let line_size = self.config.dram.line_size;
        let (tx, ty) = (
            meta.tile_index % viewport.tiles_x(),
            meta.tile_index / viewport.tiles_x(),
        );
        let rect = viewport.tile_rect(tx, ty);
        let flush_lines = (meta.visible_px * 4).div_ceil(line_size);
        let start = self.state.flush_clock;
        let mut clock = start;
        for line in 0..flush_lines {
            // Spread the flush across the tile's pixel rows so the
            // address stream matches a real raster layout. Each flush
            // line is its own cache line, so there is nothing to
            // coalesce — the locality shows up as L2 and DRAM row hits.
            let local = line * (line_size / 4);
            let y = rect.1 + (local / u64::from(viewport.tile_size)) as u32;
            let x = rect.0 + (local % u64::from(viewport.tile_size)) as u32;
            let addr = AddressSpace::framebuffer_pixel(
                x.min(viewport.width - 1),
                y.min(viewport.height - 1),
                viewport.width,
                self.frame_index,
            );
            // Posted cached writes: the flush engine runs ahead of
            // memory by up to the Color queue's drain window, then
            // feels backpressure. Lines land in the L2 and reach DRAM
            // on eviction, exactly like IMR's color writes.
            let w = self.memory.access(addr, self.base + clock, true);
            let retire = w.ready_at.saturating_sub(self.base);
            clock = (clock + 1).max(retire.saturating_sub(self.config.flush_write_window));
        }
        self.state.flush_clock = clock;
        self.busy.flush += clock - start;
    }
}

// `list_run` and `op` run once per event. Forced inlining lets each
// recorder call site compile down to the one arm it constructs, so the
// direct route pays no call or variant dispatch per event.
impl TileSink for Replay<'_> {
    #[inline(always)]
    fn list_run(&mut self, addr: u64, count: u64) {
        let tile_base = self.tile_base();
        let latency = self.config.tile_cache.latency;
        self.list_clock += 1;
        let acc = self.tile_cache.access_run(addr, false, count);
        if let Some(wb) = acc.writeback {
            self.memory.access(wb, tile_base + self.list_clock, true);
        }
        if acc.hit {
            self.list_clock += latency;
        } else {
            let fill = self.memory.access(addr, tile_base + self.list_clock, false);
            self.list_clock += fill.latency;
        }
        self.list_clock += (count - 1) * (1 + latency);
    }

    #[inline(always)]
    fn op(&mut self, op: TileOp) {
        let tile_base = self.tile_base();
        match op {
            TileOp::Tex { fp, count, addr } => {
                // One texel lookup per cycle of pipe occupancy; a miss
                // stalls the pipe for a capped latency (the in-flight
                // quad window hides the rest); the run's remaining
                // `count - 1` accesses are hits at one cycle each.
                let clock = &mut self.tex_clock[fp as usize];
                let acc = self.texture_caches[fp as usize].access_run(addr, false, count.into());
                if let Some(wb) = acc.writeback {
                    self.memory.access(wb, tile_base + *clock, true);
                }
                if acc.hit {
                    *clock += 1;
                } else {
                    let fill = self.memory.access(addr, tile_base + *clock, false);
                    let arrival = fill.ready_at.saturating_sub(tile_base);
                    *clock = (*clock + 1)
                        .max(arrival.saturating_sub(self.config.texture_miss_stall_cap));
                }
                *clock += u64::from(count) - 1;
            }
            TileOp::Depth { pre, addr } => {
                // Posted behind the 8-quad Early-Z window, which hides
                // the depth-buffer latency.
                self.earlyz_clock += u64::from(pre);
                let acc = self
                    .memory
                    .access(addr, tile_base + self.earlyz_clock, true);
                let arrival = acc.ready_at.saturating_sub(tile_base);
                self.earlyz_clock = self
                    .earlyz_clock
                    .max(arrival.saturating_sub(self.config.plb_write_window));
            }
            TileOp::Color { pre, read, addr } => {
                self.blend_clock += u64::from(pre);
                if read {
                    self.memory
                        .access(addr, tile_base + self.blend_clock, false);
                }
                let acc = self.memory.access(addr, tile_base + self.blend_clock, true);
                let arrival = acc.ready_at.saturating_sub(tile_base);
                self.blend_clock = self
                    .blend_clock
                    .max(arrival.saturating_sub(self.config.flush_write_window));
            }
        }
    }

    fn end_tile(&mut self, meta: TileMeta, fp_alu: &[u64]) {
        let earlyz_clock = std::mem::take(&mut self.earlyz_clock) + meta.earlyz_tail;
        let blend_clock = std::mem::take(&mut self.blend_clock) + meta.blend_tail;
        let list_clock = std::mem::take(&mut self.list_clock);
        let fp_alu_max = fp_alu.iter().copied().max().unwrap_or(0);
        let tex_max = self.tex_clock.iter().copied().max().unwrap_or(0);
        let fp_max = fp_alu
            .iter()
            .zip(self.tex_clock.iter())
            .map(|(&alu, &tex)| alu.max(tex))
            .max()
            .unwrap_or(0);
        self.tex_clock.fill(0);
        self.busy.polygon_list_read += list_clock;
        self.busy.rasterizer += meta.raster_clock;
        self.busy.early_z += earlyz_clock;
        self.busy.fragment_alu += fp_alu_max;
        self.busy.texture_pipe += tex_max;
        self.busy.blending += blend_clock;
        let tile_pipeline = list_clock
            .max(meta.raster_clock)
            .max(earlyz_clock)
            .max(fp_max)
            .max(blend_clock);
        self.state.tile_work_clock += tile_pipeline + self.config.early_z_in_flight;
        self.state.depth_accesses += meta.depth_accesses;
        self.state.color_accesses += meta.color_accesses;
        self.state.visible_px += meta.visible_px;
        // IMR wrote its colors inline, so there is nothing to flush.
        if !self.immediate {
            self.flush(&meta);
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
        // One worker thread records straight into the replay; two and
        // eight record shard logs (every viewport here has at least two
        // tiles), and the stats must not move.
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
        // flush-rect-clamp regression case. At one thread the GPU feeds
        // the replay directly while the N = 1 split-frame rig replays
        // shard logs; at eight threads both replay logs.
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
