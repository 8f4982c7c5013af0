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
//! LRU and row-buffer decision matches the scalar model. Texture
//! samplers are memoized per primitive
//! ([`megsim_gfx::texture::TextureDesc::lod_sampler`]).
//!
//! The raster phase has one implementation, in `crate::shard`: a pure
//! tile recorder whose events a `Replay` sink applies to this GPU's
//! caches and clocks — directly, or through per-shard logs recorded in
//! parallel when the frame has at least two tiles and the calling
//! thread has more than one worker outside a pool worker. The
//! pre-optimization model is retained in `crate::timing_reference` and
//! pins both routes bit-for-bit.

use megsim_funcsim::{FrameTrace, RenderMode};
use megsim_gfx::shader::ShaderTable;
use megsim_mem::{AddressSpace, Cache, MemoryHierarchy};

use crate::config::GpuConfig;
use crate::shard::{self, Replay, ReplayState, ShardLog};
use crate::stats::{FrameStats, UnitBusy};

/// The simulated GPU. Caches and DRAM state persist across frames
/// (warm-cache simulation), while statistics are attributed per frame.
/// The field visibility is `pub(crate)` rather than private: the
/// multi-GPU rig ([`crate::multi_gpu`]) drives the per-GPU front end
/// (L1 caches, clocks) directly while routing the L2 + DRAM stream
/// through a [`megsim_mem::MemoryPool`] topology, and the raster
/// `Replay` sink borrows the caches it times.
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
    /// Per-FP texture-pipe clocks of the tile being timed (zero between
    /// tiles); owned here so no frame allocates them.
    pub(crate) tex_clock: Vec<u64>,
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
            tex_clock: vec![0; config.fragment_processors],
            config,
        }
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

        // Raster Pipeline: the tiles are recorded straight into a
        // `Replay` of this GPU, or — with at least two tiles and more
        // than one worker outside a pool worker — recorded as
        // `SHARD_TILES`-tile logs in parallel and replayed on this
        // thread in tile order. Both routes send the replay the same
        // events, so they are bit-identical.
        let tiles = trace.tiles.len();
        let frame_index = self.frame_index;
        let mut raster = ReplayState::default();
        let raster_base = frame_start + geometry_cycles;
        let mut replay = Replay::new(self, trace, raster_base, &mut unit_busy, &mut raster);
        let config = replay.config();
        let threads = megsim_exec::thread_count();
        if tiles >= 2 && threads > 1 && !megsim_exec::in_pool() {
            // Logs are compact; let producers run a few shards ahead so
            // the replay never starves without buffering the whole frame.
            megsim_exec::shard_merge(
                tiles,
                shard::SHARD_TILES,
                (threads * 2).max(4),
                |range| ShardLog::record(trace, shaders, config, frame_index, range),
                |_, log| log.replay(&mut replay),
            );
        } else {
            shard::record_tiles(trace, shaders, config, frame_index, 0..tiles, &mut replay);
        }

        let cycles = geometry_cycles + raster.raster_cycles() + self.config.frame_overhead_cycles;
        self.now = frame_start + cycles;
        self.frame_index += 1;

        let mut texture_stats = megsim_mem::CacheStats::default();
        for c in &self.texture_caches {
            texture_stats.merge(c.stats());
        }
        FrameStats {
            cycles,
            geometry_cycles,
            raster_cycles: raster.raster_cycles(),
            instructions: trace.activity.total_instructions(),
            vertex_cache: *self.vertex_cache.stats(),
            texture_cache: texture_stats,
            tile_cache: *self.tile_cache.stats(),
            memory: self.memory.stats(),
            color_buffer_accesses: raster.color_accesses,
            depth_buffer_accesses: raster.depth_accesses,
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
