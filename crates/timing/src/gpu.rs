//! The cycle-level TBR GPU model.
//!
//! Timing is *timestamp-based*: every hardware unit keeps a local clock
//! advanced by its per-item occupancy and by the memory latencies it
//! observes; units that run concurrently in hardware contribute the
//! maximum of their clocks, units that serialize contribute the sum.
//! This mirrors the two-phase structure of a Tile-Based Rendering GPU:
//!
//! 1. **Geometry + Tiling phase** — Vertex Fetcher, Vertex Processors,
//!    Primitive Assembly and the Polygon List Builder run as a pipeline
//!    over the whole frame; the phase takes as long as its slowest unit.
//! 2. **Raster phase** — tiles are processed one at a time; inside a
//!    tile the Rasterizer, Early-Z, the four Fragment Processors and the
//!    Blending Unit pipeline against each other. The per-tile flush of
//!    final colors to the frame buffer overlaps the next tile's work
//!    (double-buffered on-chip tile memory), so the phase is the maximum
//!    of accumulated tile work and accumulated flush traffic.
//!
//! # The fast path
//!
//! This implementation services the address streams the units produce
//! in **same-line runs**: sequential vertex fetches, polygon-list
//! entries (four 16-byte entries per 64-byte line) and texel
//! footprints mostly land on the line of their predecessor, so each
//! run costs one tag lookup ([`Cache::access_run`]) plus closed-form
//! clock bookkeeping instead of per-access probes. Coalescing is
//! bit-safe because the first access of a run leaves its line resident
//! and most recently used while nothing else touches that cache before
//! the run ends — the remaining accesses are hits by construction and
//! hits never generate memory traffic, so every cycle count, stat,
//! LRU and row-buffer decision matches the scalar model. Per-tile and
//! per-fragment heap allocation is eliminated by `TimingScratch`,
//! and texture samplers are memoized per primitive
//! ([`megsim_gfx::texture::TextureDesc::lod_sampler`]). The
//! pre-optimization model is retained in `crate::timing_reference`
//! and pinned bit-for-bit by proptests there.

use megsim_funcsim::{FrameTrace, RenderMode};
use megsim_gfx::math::Vec2;
use megsim_gfx::shader::ShaderTable;
use megsim_gfx::texture::LodSampler;
use megsim_mem::{AddressSpace, Cache, MemoryHierarchy};

use megsim_mem::RunCoalescer;

use crate::config::GpuConfig;
use crate::shard;
use crate::stats::{FrameStats, UnitBusy};

/// Reusable buffers of the raster phase. Owned by the [`Gpu`] so that
/// steady-state frame simulation performs no heap allocation: per-FP
/// clocks are zeroed per tile, sample addresses and per-primitive
/// samplers are cleared in place.
#[derive(Debug, Default)]
pub(crate) struct TimingScratch {
    /// Per-FP ALU clocks (one slot per Fragment Processor).
    fp_clock: Vec<u64>,
    /// Per-FP texture-pipe clocks.
    tex_clock: Vec<u64>,
    /// Memoized samplers of the primitive currently being shaded
    /// (one per texture-sampling shader instruction).
    samplers: Vec<LodSampler>,
}

/// The simulated GPU. Caches and DRAM state persist across frames
/// (warm-cache simulation), while statistics are attributed per frame.
/// The field visibility is `pub(crate)` rather than private: the
/// multi-GPU rig ([`crate::multi_gpu`]) drives the per-GPU front end
/// (L1 caches, clocks) directly while routing the L2 + DRAM stream
/// through a [`megsim_mem::MemoryPool`] topology.
#[derive(Debug)]
pub struct Gpu {
    pub(crate) config: GpuConfig,
    pub(crate) vertex_cache: Cache,
    pub(crate) texture_caches: Vec<Cache>,
    pub(crate) tile_cache: Cache,
    pub(crate) memory: MemoryHierarchy,
    /// Monotonic global cycle counter across the whole simulation.
    pub(crate) now: u64,
    pub(crate) frame_index: u64,
    pub(crate) scratch: TimingScratch,
}

impl Gpu {
    /// Builds a cold GPU from its configuration.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            vertex_cache: Cache::new(config.vertex_cache.clone()),
            texture_caches: (0..config.fragment_processors)
                .map(|_| Cache::new(config.texture_cache.clone()))
                .collect(),
            tile_cache: Cache::new(config.tile_cache.clone()),
            memory: MemoryHierarchy::new(config.l2.clone(), config.dram),
            now: 0,
            frame_index: 0,
            scratch: TimingScratch::default(),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Global cycle count since construction.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Writes back every dirty line of the shared L2 (device idle time
    /// at the end of a warm sequence) and returns the number of
    /// writebacks produced. The caller attributes them to the last
    /// simulated frame's L2 counters.
    pub fn drain_l2(&mut self) -> u64 {
        self.memory.flush_l2()
    }

    /// Simulates one frame from its functional trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace references shaders missing from `shaders`.
    pub fn simulate_frame(&mut self, trace: &FrameTrace, shaders: &ShaderTable) -> FrameStats {
        // Per-frame stat attribution: reset counters, keep state warm.
        self.vertex_cache.reset_stats();
        for c in &mut self.texture_caches {
            c.reset_stats();
        }
        self.tile_cache.reset_stats();
        self.memory.reset_stats();

        let frame_start = self.now;
        let mut unit_busy = UnitBusy::default();
        let geometry_cycles = self.geometry_phase(trace, frame_start, &mut unit_busy);
        let raster_base = frame_start + geometry_cycles;
        let (raster_cycles, color_accesses, depth_accesses) = if self.use_shards(trace) {
            self.raster_phase_sharded(trace, shaders, raster_base, &mut unit_busy)
        } else {
            self.raster_phase(trace, shaders, raster_base, &mut unit_busy)
        };
        let cycles = geometry_cycles + raster_cycles + self.config.frame_overhead_cycles;
        self.now = frame_start + cycles;
        self.frame_index += 1;

        let mut texture_stats = megsim_mem::CacheStats::default();
        for c in &self.texture_caches {
            texture_stats.merge(c.stats());
        }
        FrameStats {
            cycles,
            geometry_cycles,
            raster_cycles,
            instructions: trace.activity.total_instructions(),
            vertex_cache: *self.vertex_cache.stats(),
            texture_cache: texture_stats,
            tile_cache: *self.tile_cache.stats(),
            memory: self.memory.stats(),
            color_buffer_accesses: color_accesses,
            depth_buffer_accesses: depth_accesses,
            // Shared by reference with the trace — no deep clone of the
            // per-shader counter vectors.
            activity: std::sync::Arc::clone(&trace.activity),
            unit_busy,
        }
    }

    /// Geometry Pipeline + Tiling Engine. Returns the phase duration.
    /// Crate-visible so the multi-GPU rig can run the (duplicated)
    /// geometry phase per GPU outside [`Self::simulate_frame`].
    pub(crate) fn geometry_phase(
        &mut self,
        trace: &FrameTrace,
        base: u64,
        busy: &mut UnitBusy,
    ) -> u64 {
        let cfg = &self.config;
        let vc_latency = cfg.vertex_cache.latency;
        let vc_shift = cfg.vertex_cache.line_size.trailing_zeros();
        // Unit clocks, relative to `base`.
        let mut vf_clock = 0u64; // Vertex Fetcher (in-order, blocking)
        let mut vp_busy = 0u64; // total VP work, spread over the array
        let mut pa_clock = 0u64; // Primitive Assembly
        for draw in &trace.geometry {
            // Vertex Fetcher: one vertex per cycle; a vertex-cache miss
            // blocks the fetcher for the refill latency. Sequential
            // vertices usually share a line: a run of `count` same-line
            // fetches costs one lookup; the `count - 1` guaranteed hits
            // each occupy the fetcher for `1 + latency` cycles.
            let addrs = &draw.vertex_fetch_addresses;
            let mut i = 0;
            while i < addrs.len() {
                let addr = addrs[i];
                let line = addr >> vc_shift;
                let mut j = i + 1;
                while j < addrs.len() && addrs[j] >> vc_shift == line {
                    j += 1;
                }
                let count = (j - i) as u64;
                vf_clock += 1;
                let acc = self.vertex_cache.access_run(addr, false, count);
                if let Some(wb) = acc.writeback {
                    self.memory.access(wb, base + vf_clock, true);
                }
                if acc.hit {
                    vf_clock += vc_latency;
                } else {
                    let fill = self.memory.access(addr, base + vf_clock, false);
                    vf_clock += fill.latency;
                }
                vf_clock += (count - 1) * (1 + vc_latency);
                i = j;
            }
            // Vertex Processors: scalar, one instruction per cycle.
            vp_busy += u64::from(draw.vertices_shaded) * u64::from(draw.vertex_shader_instructions);
            // Primitive Assembly consumes one vertex per cycle.
            pa_clock += u64::from(draw.vertices_shaded) * cfg.prim_assembly_cycles_per_vertex;
        }
        let vp_clock = vp_busy.div_ceil(cfg.vertex_processors as u64 * cfg.vertex_issue_width);

        // Polygon List Builder: one list entry per primitive-tile pair,
        // written through the Tile cache (four 16-byte entries per
        // line, serviced as runs). Immediate-mode rendering has no
        // Tiling Engine at all.
        let tc_latency = cfg.tile_cache.latency;
        let tc_shift = cfg.tile_cache.line_size.trailing_zeros();
        let plb_window = cfg.plb_write_window;
        let mut plb_clock = 0u64;
        let mut traced_entries = 0u64;
        let tiling_tiles: &[megsim_funcsim::TileTrace] = if trace.mode == RenderMode::Immediate {
            &[]
        } else {
            &trace.tiles
        };
        for tile in tiling_tiles {
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
                let count = m - n;
                plb_clock += 1;
                let acc = self.tile_cache.access_run(addr, true, count);
                if let Some(wb) = acc.writeback {
                    self.memory.access(wb, base + plb_clock, true);
                }
                if !acc.hit {
                    // Write-allocate fill; posted writes hide up to an
                    // L2 latency of the fill before backpressure bites.
                    let fill = self.memory.access(addr, base + plb_clock, false);
                    let arrival = fill.ready_at.saturating_sub(base);
                    plb_clock = (plb_clock + 1).max(arrival.saturating_sub(plb_window));
                } else {
                    plb_clock += tc_latency;
                }
                plb_clock += (count - 1) * (1 + tc_latency);
                n = m;
            }
            traced_entries += entries;
        }
        // Bin entries whose primitives produced no fragments in a tile
        // do not appear in the trace; charge their occupancy.
        plb_clock += trace
            .activity
            .tile_bin_entries
            .saturating_sub(traced_entries);

        busy.vertex_fetch += vf_clock;
        busy.vertex_alu += vp_clock;
        busy.prim_assembly += pa_clock;
        busy.polygon_list_write += plb_clock;

        // The four units pipeline against each other; the phase lasts as
        // long as the slowest, plus a pipeline-fill term bounded by the
        // vertex queue depth.
        let fill = u64::from(self.config.vertex_queue.entries);
        vf_clock.max(vp_clock).max(pa_clock).max(plb_clock) + fill
    }

    /// Whether this frame's raster phase runs the tile-sharded
    /// record/replay path instead of the sequential loop: only when it
    /// can help — more than one worker thread, not nested inside a pool
    /// worker (frame-level parallelism already owns the pool there),
    /// and at least two tiles to overlap. Both paths are bit-identical,
    /// so this only trades overhead against parallelism.
    fn use_shards(&self, trace: &FrameTrace) -> bool {
        trace.tiles.len() >= 2 && megsim_exec::thread_count() > 1 && !megsim_exec::in_pool()
    }

    /// Tile-sharded raster phase: parallel [`shard::record_tiles`]
    /// workers over fixed tile ranges, merged tile-index-ascending by
    /// [`shard::replay_shard`] on this thread via
    /// [`megsim_exec::shard_merge`]. Bit-identical to [`Self::raster_phase`]
    /// at any thread count (pinned by the `shard` oracle tests and
    /// `tests/determinism.rs`).
    fn raster_phase_sharded(
        &mut self,
        trace: &FrameTrace,
        shaders: &ShaderTable,
        base: u64,
        busy: &mut UnitBusy,
    ) -> (u64, u64, u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.tex_clock.resize(self.config.fragment_processors, 0);
        // Field-level borrow split: the record closure shares the
        // config/trace/shaders read-only across workers while the merge
        // closure owns every piece of mutable memory-system state.
        let config = &self.config;
        let tile_cache = &mut self.tile_cache;
        let texture_caches = &mut self.texture_caches;
        let memory = &mut self.memory;
        let frame_index = self.frame_index;
        let tex_clock = &mut scratch.tex_clock;
        let mut state = shard::ReplayState::default();
        // Logs are compact; let producers run a few shards ahead so the
        // replay never starves without buffering the whole frame.
        let capacity = (megsim_exec::thread_count() * 2).max(4);
        megsim_exec::shard_merge(
            trace.tiles.len(),
            shard::SHARD_TILES,
            capacity,
            |range| shard::record_tiles(trace, shaders, config, frame_index, range),
            |_range, log| {
                shard::replay_shard(
                    &log,
                    trace,
                    config,
                    tile_cache,
                    texture_caches,
                    memory,
                    frame_index,
                    base,
                    busy,
                    &mut state,
                    tex_clock,
                );
            },
        );
        busy.flush += state.flush_clock;
        self.scratch = scratch;
        (
            state.tile_work_clock.max(state.flush_clock),
            state.color_accesses,
            state.depth_accesses,
        )
    }

    /// Raster Pipeline, tile by tile. Returns `(phase_cycles,
    /// color_buffer_accesses, depth_buffer_accesses)`.
    fn raster_phase(
        &mut self,
        trace: &FrameTrace,
        shaders: &ShaderTable,
        base: u64,
        busy: &mut UnitBusy,
    ) -> (u64, u64, u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut tile_work_clock = 0u64; // accumulated per-tile pipeline time
        let mut flush_clock = 0u64; // accumulated frame-buffer flush time
        let mut color_accesses = 0u64;
        let mut depth_accesses = 0u64;
        let n_fp = self.config.fragment_processors as u64;
        let immediate = trace.mode == RenderMode::Immediate;
        let deferred = trace.mode == RenderMode::TileBasedDeferred;
        let tc_latency = self.config.tile_cache.latency;
        let tc_shift = self.config.tile_cache.line_size.trailing_zeros();
        scratch.fp_clock.resize(n_fp as usize, 0);
        scratch.tex_clock.resize(n_fp as usize, 0);
        for tile in &trace.tiles {
            let tile_base = base + tile_work_clock;
            // Polygon list read-back through the Tile cache (absent in
            // immediate mode: there are no tile lists to read), as
            // same-line runs like the PLB wrote it.
            let mut list_clock = 0u64;
            let entries = if immediate {
                0
            } else {
                tile.prims.len() as u64
            };
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
                let count = m - n;
                list_clock += 1;
                let acc = self.tile_cache.access_run(addr, false, count);
                if let Some(wb) = acc.writeback {
                    self.memory.access(wb, tile_base + list_clock, true);
                }
                if acc.hit {
                    list_clock += tc_latency;
                } else {
                    let fill = self.memory.access(addr, tile_base + list_clock, false);
                    list_clock += fill.latency;
                }
                list_clock += (count - 1) * (1 + tc_latency);
                n = m;
            }
            // Rasterizer / Early-Z / Fragment Processors / Blending.
            let mut raster_clock = 0u64;
            let mut earlyz_clock = 0u64;
            scratch.fp_clock.fill(0);
            // Decoupled texture units: each FP has a texture pipe that
            // runs in parallel with its ALU; the FP finishes when the
            // slower of the two does.
            scratch.tex_clock.fill(0);
            let mut blend_clock = 0u64;
            let mut visible_px = 0u64;
            // Round-robin quad distribution: a wrapping counter in place
            // of the scalar path's `quad_count % n_fp` (same sequence,
            // no per-quad division).
            let mut fp_rr = 0usize;
            let n_fp_us = n_fp as usize;
            for prim in &tile.prims {
                let fs = shaders.fragment_shader(prim.fragment_shader);
                let fs_instr = u64::from(fs.instruction_count());
                // FP issue cost per visible-fragment count, hoisting the
                // `div_ceil` out of the quad loop (vis is 1..=4).
                let mut quad_cost = [0u64; 5];
                for (v, cost) in quad_cost.iter_mut().enumerate().skip(1) {
                    *cost = (v as u64 * fs_instr).div_ceil(self.config.fragment_issue_width);
                }
                // Memoize the prim's texture samplers once: the level
                // clamp, mip-chain walk and wrap masks are fixed per
                // (texture, filter, lod).
                scratch.samplers.clear();
                if let Some(texture) = prim.texture.as_ref() {
                    for filter in &fs.texture_samples {
                        scratch
                            .samplers
                            .push(texture.lod_sampler(*filter, prim.lod));
                    }
                }
                let texel = scratch
                    .samplers
                    .first()
                    .map(|s| s.texel_extent())
                    .unwrap_or_default();
                // The quad's four fragments sample at one-texel offsets
                // (at the selected LOD): +x, +y, then both. Same values
                // as `texel * (f % 2, f / 2)` — spelled as a per-prim
                // table so the quad loop does no integer-to-float
                // conversion.
                let offsets = [
                    Vec2::new(0.0, 0.0),
                    Vec2::new(texel.x, 0.0),
                    Vec2::new(0.0, texel.y),
                    Vec2::new(texel.x, texel.y),
                ];
                raster_clock += prim.quads.len() as u64
                    * u64::from(prim.attributes)
                    * self.config.rasterizer_cycles_per_attribute;
                for quad in &prim.quads {
                    // Early-Z: one quad per cycle; the 8-quad in-flight
                    // window hides the depth-buffer latency. A deferred
                    // (HSR) pipeline pays a second resolve pass.
                    earlyz_clock += if deferred { 2 } else { 1 };
                    depth_accesses += u64::from(quad.covered_count());
                    if immediate && prim.depth_test {
                        // IMR keeps depth in memory: one line-sized
                        // access per quad (depth values of a quad share
                        // a line), posted behind the early-z window.
                        let addr = AddressSpace::depth_pixel(
                            u32::from(quad.x),
                            u32::from(quad.y),
                            trace.viewport.width,
                        );
                        let acc = self.memory.access(addr, tile_base + earlyz_clock, true);
                        let arrival = acc.ready_at.saturating_sub(tile_base);
                        earlyz_clock =
                            earlyz_clock.max(arrival.saturating_sub(self.config.plb_write_window));
                    }
                    let vis = u64::from(quad.visible_count());
                    if vis == 0 {
                        fp_rr += 1;
                        if fp_rr == n_fp_us {
                            fp_rr = 0;
                        }
                        continue;
                    }
                    let fp = fp_rr;
                    fp_rr += 1;
                    if fp_rr == n_fp_us {
                        fp_rr = 0;
                    }
                    scratch.fp_clock[fp] += quad_cost[vis as usize];
                    self.sample_textures(
                        &offsets,
                        quad.uv,
                        vis,
                        fp,
                        base + tile_work_clock,
                        &scratch.samplers,
                        &mut scratch.tex_clock,
                    );
                    // Blending Unit: one fragment per cycle. TBR blends
                    // against the on-chip color buffer; IMR reads and
                    // writes the frame buffer in memory immediately —
                    // the off-chip traffic §II-A describes.
                    blend_clock += vis;
                    color_accesses += vis * if prim.blend.reads_destination() { 2 } else { 1 };
                    if immediate {
                        let addr = AddressSpace::framebuffer_pixel(
                            u32::from(quad.x),
                            u32::from(quad.y),
                            trace.viewport.width,
                            self.frame_index,
                        );
                        if prim.blend.reads_destination() {
                            self.memory.access(addr, tile_base + blend_clock, false);
                        }
                        let acc = self.memory.access(addr, tile_base + blend_clock, true);
                        let arrival = acc.ready_at.saturating_sub(tile_base);
                        blend_clock =
                            blend_clock.max(arrival.saturating_sub(self.config.flush_write_window));
                    }
                    visible_px += vis;
                }
            }
            let fp_alu_max = scratch.fp_clock.iter().copied().max().unwrap_or(0);
            let tex_max = scratch.tex_clock.iter().copied().max().unwrap_or(0);
            let fp_max = scratch
                .fp_clock
                .iter()
                .zip(&scratch.tex_clock)
                .map(|(&alu, &tex)| alu.max(tex))
                .max()
                .unwrap_or(0);
            busy.polygon_list_read += list_clock;
            busy.rasterizer += raster_clock;
            busy.early_z += earlyz_clock;
            busy.fragment_alu += fp_alu_max;
            busy.texture_pipe += tex_max;
            busy.blending += blend_clock;
            let tile_pipeline = list_clock
                .max(raster_clock)
                .max(earlyz_clock)
                .max(fp_max)
                .max(blend_clock);
            tile_work_clock += tile_pipeline + self.config.early_z_in_flight;

            // Tile flush: covered pixels stream to the frame buffer
            // (partial-tile flush — Arm-style transaction elimination
            // skips untouched pixels). Overlaps the next tile's work.
            // IMR wrote its colors inline, so there is nothing to flush.
            if immediate {
                continue;
            }
            let (tx, ty) = (
                tile.tile_index % trace.viewport.tiles_x(),
                tile.tile_index / trace.viewport.tiles_x(),
            );
            let rect = trace.viewport.tile_rect(tx, ty);
            let flush_bytes = visible_px * 4;
            let flush_lines = flush_bytes.div_ceil(self.config.dram.line_size);
            let row_pixels = u64::from(trace.viewport.width);
            for line in 0..flush_lines {
                // Spread the flush across the tile's pixel rows so the
                // address stream matches a real raster layout. Each
                // flush line is its own cache line (64 bytes of
                // pixels), so there is nothing to coalesce here — the
                // locality shows up as L2 hits and DRAM row hits.
                let local = line * (self.config.dram.line_size / 4);
                let y = rect.1 + (local / u64::from(trace.viewport.tile_size)) as u32;
                let x = rect.0 + (local % u64::from(trace.viewport.tile_size)) as u32;
                let addr = AddressSpace::framebuffer_pixel(
                    x.min(trace.viewport.width - 1),
                    y.min(trace.viewport.height - 1),
                    row_pixels as u32,
                    self.frame_index,
                );
                // Posted cached writes: the flush engine runs ahead of
                // memory by up to the Color queue's drain window, then
                // feels backpressure. Lines land in the L2 and reach
                // DRAM on eviction, exactly like IMR's color writes —
                // at full resolution the frame buffer far exceeds the
                // L2, so the traffic still goes off-chip.
                let w = self.memory.access(addr, base + flush_clock, true);
                let retire = w.ready_at.saturating_sub(base);
                flush_clock =
                    (flush_clock + 1).max(retire.saturating_sub(self.config.flush_write_window));
            }
        }
        busy.flush += flush_clock;
        self.scratch = scratch;
        (
            tile_work_clock.max(flush_clock),
            color_accesses,
            depth_accesses,
        )
    }

    /// Issues the texture samples of `vis` fragments of one quad and
    /// charges the (partially hidden) miss latency to FP `fp`.
    ///
    /// Address generation (through the primitive's memoized `samplers`)
    /// is fused with run servicing: addresses stream through a current
    /// same-line run that is flushed to the texture cache on every line
    /// change, so a bilinear footprint inside one 4×4 texel block is a
    /// single texture-cache lookup, adjacent fragments extend the run,
    /// and no per-quad address buffer is materialized.
    #[allow(clippy::too_many_arguments)]
    fn sample_textures(
        &mut self,
        offsets: &[Vec2; 4],
        uv: Vec2,
        vis: u64,
        fp: usize,
        base: u64,
        samplers: &[LodSampler],
        tex_clock: &mut [u64],
    ) {
        if samplers.is_empty() {
            return;
        }
        let line_shift = self.config.texture_cache.line_size.trailing_zeros();
        let stall_cap = self.config.texture_miss_stall_cap;
        // The FP's cache and clock are borrowed once for the whole quad
        // so the per-run servicing stays free of slice indexing.
        let cache = &mut self.texture_caches[fp];
        let memory = &mut self.memory;
        let clock = &mut tex_clock[fp];
        // Current same-line run, folded by the shared [`RunCoalescer`]:
        // the boundaries are exactly those of a scan over the quad's
        // flat address sequence (the sampler's pre-coalesced runs are
        // guaranteed same-line, so extending the open run by `count`
        // merges exactly where the flat scan would). The sharded
        // recorder uses the same machine, so both paths log/serve
        // identical runs.
        let mut runs = RunCoalescer::new(line_shift);
        for off in &offsets[..vis.min(4) as usize] {
            let fuv = Vec2::new(uv.x + off.x, uv.y + off.y);
            for sampler in samplers {
                sampler.for_each_run(fuv, line_shift, |addr, count| {
                    runs.push(addr, count, |addr, count| {
                        texture_run(cache, memory, addr, count, base, stall_cap, clock);
                    });
                });
            }
        }
        runs.flush(|addr, count| {
            texture_run(cache, memory, addr, count, base, stall_cap, clock);
        });
    }
}

/// Services one same-line run of texture samples on one FP: one texel
/// lookup per cycle of pipe occupancy; a miss stalls the pipe for a
/// capped latency (the in-flight quad window hides the rest); the run's
/// remaining `count - 1` accesses are hits at one pipe cycle each.
#[inline]
pub(crate) fn texture_run(
    cache: &mut megsim_mem::Cache,
    memory: &mut megsim_mem::MemoryHierarchy,
    addr: u64,
    count: u64,
    base: u64,
    stall_cap: u64,
    clock: &mut u64,
) {
    let acc = cache.access_run(addr, false, count);
    if let Some(wb) = acc.writeback {
        memory.access(wb, base + *clock, true);
    }
    if acc.hit {
        *clock += 1;
    } else {
        let fill = memory.access(addr, base + *clock, false);
        let arrival = fill.ready_at.saturating_sub(base);
        *clock = (*clock + 1).max(arrival.saturating_sub(stall_cap));
    }
    *clock += count - 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_funcsim::{RenderConfig, Renderer};
    use megsim_gfx::draw::{BlendMode, DrawCall, Frame, Viewport};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use std::sync::Arc;

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 16));
        t.add(ShaderProgram::fragment(
            0,
            "fs",
            12,
            vec![TextureFilter::Bilinear],
        ));
        t
    }

    fn quad_mesh(scale: f32) -> Arc<Mesh> {
        Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-scale, -scale, 0.0)),
                Vertex::at(Vec3::new(scale, -scale, 0.0)),
                Vertex::at(Vec3::new(scale, scale, 0.0)),
                Vertex::at(Vec3::new(-scale, scale, 0.0)),
            ],
            vec![0, 1, 2, 0, 2, 3],
            0x4000,
        ))
    }

    fn frame(scale: f32, textured: bool) -> Frame {
        let mut f = Frame::new();
        f.draws.push(DrawCall {
            mesh: quad_mesh(scale),
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: textured.then(|| TextureDesc::new(0, 256, 256, 4, 0x1000_0000)),
            blend: BlendMode::Opaque,
            depth_test: true,
        });
        f
    }

    fn trace_of(frame: &Frame, viewport: Viewport) -> FrameTrace {
        Renderer::new(RenderConfig::tbr(viewport)).render_frame(frame, &shaders())
    }

    #[test]
    fn simulated_frame_has_positive_cycles_and_traffic() {
        let cfg = GpuConfig::small(256, 256);
        let viewport = cfg.viewport;
        let mut gpu = Gpu::new(cfg);
        let stats = gpu.simulate_frame(&trace_of(&frame(0.5, true), viewport), &shaders());
        assert!(stats.cycles > 0);
        assert!(stats.geometry_cycles > 0);
        assert!(stats.raster_cycles > 0);
        assert!(stats.instructions > 0);
        assert!(stats.dram_accesses() > 0);
        assert!(stats.l2_accesses() > 0);
        assert!(stats.tile_cache_accesses() > 0);
        assert!(stats.texture_cache.accesses() > 0);
        assert!(stats.vertex_cache.accesses() > 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn bigger_frames_take_more_cycles() {
        let cfg = GpuConfig::small(256, 256);
        let viewport = cfg.viewport;
        let mut gpu = Gpu::new(cfg);
        let small = gpu.simulate_frame(&trace_of(&frame(0.2, true), viewport), &shaders());
        let big = gpu.simulate_frame(&trace_of(&frame(0.9, true), viewport), &shaders());
        assert!(big.cycles > small.cycles);
        assert!(big.tile_cache_accesses() >= small.tile_cache_accesses());
    }

    #[test]
    fn warm_caches_reduce_second_frame_traffic() {
        let cfg = GpuConfig::small(128, 128);
        let viewport = cfg.viewport;
        let mut gpu = Gpu::new(cfg);
        let t = trace_of(&frame(0.5, true), viewport);
        let cold = gpu.simulate_frame(&t, &shaders());
        let warm = gpu.simulate_frame(&t, &shaders());
        assert!(warm.dram_accesses() <= cold.dram_accesses());
        assert!(warm.cycles <= cold.cycles);
    }

    #[test]
    fn untextured_frame_has_no_texture_traffic() {
        let cfg = GpuConfig::small(128, 128);
        let viewport = cfg.viewport;
        let mut gpu = Gpu::new(cfg);
        let stats = gpu.simulate_frame(&trace_of(&frame(0.5, false), viewport), &shaders());
        assert_eq!(stats.texture_cache.accesses(), 0);
    }

    #[test]
    fn global_clock_advances_monotonically() {
        let cfg = GpuConfig::small(128, 128);
        let viewport = cfg.viewport;
        let mut gpu = Gpu::new(cfg);
        let t = trace_of(&frame(0.4, true), viewport);
        assert_eq!(gpu.now(), 0);
        let a = gpu.simulate_frame(&t, &shaders());
        let after_one = gpu.now();
        assert_eq!(after_one, a.cycles);
        let b = gpu.simulate_frame(&t, &shaders());
        assert_eq!(gpu.now(), after_one + b.cycles);
    }

    #[test]
    fn empty_frame_costs_only_overhead() {
        let cfg = GpuConfig::small(128, 128);
        let overhead = cfg.frame_overhead_cycles;
        let fill = u64::from(cfg.vertex_queue.entries);
        let viewport = cfg.viewport;
        let mut gpu = Gpu::new(cfg);
        let t = trace_of(&Frame::new(), viewport);
        let stats = gpu.simulate_frame(&t, &shaders());
        assert_eq!(stats.cycles, overhead + fill);
        assert_eq!(stats.dram_accesses(), 0);
    }

    #[test]
    fn drain_l2_writes_back_dirty_lines_once() {
        let cfg = GpuConfig::small(128, 128);
        let viewport = cfg.viewport;
        let mut gpu = Gpu::new(cfg);
        gpu.simulate_frame(&trace_of(&frame(0.5, true), viewport), &shaders());
        // The flush left dirty frame-buffer lines in the L2.
        let wb = gpu.drain_l2();
        assert!(wb > 0);
        assert_eq!(gpu.drain_l2(), 0, "second drain finds a clean L2");
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;
    use megsim_funcsim::{RenderConfig, Renderer};
    use megsim_gfx::draw::{BlendMode, DrawCall, Frame};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram};
    use std::sync::Arc;

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "vs", 12));
        t.add(ShaderProgram::fragment(0, "fs", 10, vec![]));
        t
    }

    /// Two overlapping opaque layers drawn back-to-front — the worst
    /// case for TBR overdraw and IMR memory traffic.
    fn overdraw_frame() -> Frame {
        let mesh = Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.6, -0.6, 0.0)),
                Vertex::at(Vec3::new(0.6, -0.6, 0.0)),
                Vertex::at(Vec3::new(0.6, 0.6, 0.0)),
                Vertex::at(Vec3::new(-0.6, 0.6, 0.0)),
            ],
            vec![0, 1, 2, 0, 2, 3],
            0x100,
        ));
        let mut f = Frame::new();
        for z in [0.4f32, -0.2] {
            f.draws.push(DrawCall {
                mesh: Arc::clone(&mesh),
                transform: Mat4::translation(Vec3::new(0.0, 0.0, z)),
                vertex_shader: ShaderId(0),
                fragment_shader: ShaderId(0),
                texture: None,
                blend: BlendMode::Opaque,
                depth_test: true,
            });
        }
        f
    }

    fn run(mode: RenderMode) -> FrameStats {
        // Full-resolution target: the frame buffer (≈4 MB) far exceeds
        // the 256 KiB L2, as on real hardware, so IMR's per-fragment
        // color/depth traffic actually reaches DRAM.
        let mut cfg = GpuConfig::mali450_like();
        cfg.render_mode = mode;
        let viewport = cfg.viewport;
        let renderer = Renderer::new(RenderConfig { viewport, mode });
        let mut gpu = Gpu::new(cfg);
        let trace = renderer.render_frame(&overdraw_frame(), &shaders());
        gpu.simulate_frame(&trace, &shaders())
    }

    #[test]
    fn imr_generates_more_dram_traffic_than_tbr() {
        let tbr = run(RenderMode::TileBased);
        let imr = run(RenderMode::Immediate);
        // The §II-A claim: TBR avoids the per-fragment off-chip color
        // traffic; IMR writes every shaded fragment (including the
        // overdrawn layer) to memory.
        assert!(
            imr.dram_accesses() > tbr.dram_accesses(),
            "imr {} vs tbr {}",
            imr.dram_accesses(),
            tbr.dram_accesses()
        );
        assert_eq!(imr.tile_cache_accesses(), 0, "IMR has no tiling engine");
        assert!(tbr.tile_cache_accesses() > 0);
    }

    #[test]
    fn tbdr_shades_fewer_fragments_than_tbr_under_overdraw() {
        let tbr = run(RenderMode::TileBased);
        let tbdr = run(RenderMode::TileBasedDeferred);
        assert!(
            tbdr.activity.fragments_shaded < tbr.activity.fragments_shaded,
            "tbdr {} vs tbr {}",
            tbdr.activity.fragments_shaded,
            tbr.activity.fragments_shaded
        );
        assert!(tbdr.activity.fragments_hsr_culled > 0);
        assert!(tbdr.instructions < tbr.instructions);
    }

    #[test]
    fn all_modes_produce_consistent_clock_accounting() {
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let stats = run(mode);
            assert!(stats.cycles >= stats.geometry_cycles + stats.raster_cycles);
            assert!(stats.cycles > 0, "{mode:?}");
        }
    }
}
