//! The pre-optimization scalar timing model, retained verbatim as the
//! oracle for the coalesced [`crate::gpu::Gpu`] fast path (the same
//! discipline as `megsim_funcsim::raster_reference`).
//!
//! [`ReferenceGpu`] issues one branchy cache access per vertex /
//! polygon-list entry / texel / framebuffer line, allocates per-tile
//! `fp_clock`/`tex_clock` vectors and regenerates texture sample
//! addresses per fragment — exactly the code the optimized model
//! replaced — and runs on the pre-optimization memory models
//! ([`ReferenceCache`], [`ReferenceMemoryHierarchy`]), so the pair is
//! the seed simulator end to end. The proptests at the bottom drive random frames through
//! both models across all three render modes and assert [`FrameStats`]
//! bit-equality: every cycle count, cache/DRAM counter, LRU and
//! row-buffer decision must agree. The `reference` cargo feature
//! exposes this module to benchmarks so speedups are measured against
//! the true baseline.

use megsim_funcsim::{FrameTrace, RenderMode};
use megsim_gfx::math::Vec2;
use megsim_gfx::shader::{ShaderTable, TextureFilter};
use megsim_mem::{AddressSpace, ReferenceCache, ReferenceMemoryHierarchy};

use crate::config::GpuConfig;
use crate::stats::{FrameStats, UnitBusy};

/// The pre-optimization cycle-level GPU model.
#[derive(Debug)]
pub struct ReferenceGpu {
    config: GpuConfig,
    vertex_cache: ReferenceCache,
    texture_caches: Vec<ReferenceCache>,
    tile_cache: ReferenceCache,
    memory: ReferenceMemoryHierarchy,
    /// Monotonic global cycle counter across the whole simulation.
    now: u64,
    frame_index: u64,
    scratch_addrs: Vec<u64>,
}

impl ReferenceGpu {
    /// Builds a cold GPU from its configuration.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            vertex_cache: ReferenceCache::new(config.vertex_cache.clone()),
            texture_caches: (0..config.fragment_processors)
                .map(|_| ReferenceCache::new(config.texture_cache.clone()))
                .collect(),
            tile_cache: ReferenceCache::new(config.tile_cache.clone()),
            memory: ReferenceMemoryHierarchy::new(config.l2.clone(), config.dram),
            now: 0,
            frame_index: 0,
            scratch_addrs: Vec::with_capacity(8),
            config,
        }
    }

    /// Global cycle count since construction.
    pub fn now(&self) -> u64 {
        self.now
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
        let (raster_cycles, color_accesses, depth_accesses) = self.raster_phase(
            trace,
            shaders,
            frame_start + geometry_cycles,
            &mut unit_busy,
        );
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
            activity: trace.activity.clone(),
            unit_busy,
        }
    }

    /// Geometry Pipeline + Tiling Engine. Returns the phase duration.
    fn geometry_phase(&mut self, trace: &FrameTrace, base: u64, busy: &mut UnitBusy) -> u64 {
        let cfg = &self.config;
        // Unit clocks, relative to `base`.
        let mut vf_clock = 0u64; // Vertex Fetcher (in-order, blocking)
        let mut vp_busy = 0u64; // total VP work, spread over the array
        let mut pa_clock = 0u64; // Primitive Assembly
        for draw in &trace.geometry {
            // Vertex Fetcher: one vertex per cycle; a vertex-cache miss
            // blocks the fetcher for the refill latency.
            for &addr in &draw.vertex_fetch_addresses {
                vf_clock += 1;
                let acc = self.vertex_cache.access(addr, false);
                if let Some(wb) = acc.writeback {
                    self.memory.access(wb, base + vf_clock, true);
                }
                if acc.hit {
                    vf_clock += self.vertex_cache.config().latency;
                } else {
                    let fill = self.memory.access(addr, base + vf_clock, false);
                    vf_clock += fill.latency;
                }
            }
            // Vertex Processors: scalar, one instruction per cycle.
            vp_busy += u64::from(draw.vertices_shaded) * u64::from(draw.vertex_shader_instructions);
            // Primitive Assembly consumes one vertex per cycle.
            pa_clock += u64::from(draw.vertices_shaded) * cfg.prim_assembly_cycles_per_vertex;
        }
        let vp_clock = vp_busy.div_ceil(cfg.vertex_processors as u64 * cfg.vertex_issue_width);

        // Polygon List Builder: one list entry per primitive-tile pair,
        // written through the Tile cache. Immediate-mode rendering has
        // no Tiling Engine at all.
        let mut plb_clock = 0u64;
        let mut traced_entries = 0u64;
        let tiling_tiles: &[megsim_funcsim::TileTrace] = if trace.mode == RenderMode::Immediate {
            &[]
        } else {
            &trace.tiles
        };
        for tile in tiling_tiles {
            for (n, _prim) in tile.prims.iter().enumerate() {
                let addr = AddressSpace::polygon_list_entry(tile.tile_index, n as u64);
                plb_clock += 1;
                let acc = self.tile_cache.access(addr, true);
                if let Some(wb) = acc.writeback {
                    self.memory.access(wb, base + plb_clock, true);
                }
                if !acc.hit {
                    // Write-allocate fill; posted writes hide up to an
                    // L2 latency of the fill before backpressure bites.
                    let fill = self.memory.access(addr, base + plb_clock, false);
                    let arrival = fill.ready_at.saturating_sub(base);
                    plb_clock = (plb_clock + 1).max(arrival.saturating_sub(cfg.plb_write_window));
                } else {
                    plb_clock += self.tile_cache.config().latency;
                }
                traced_entries += 1;
            }
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

    /// Raster Pipeline, tile by tile. Returns `(phase_cycles,
    /// color_buffer_accesses, depth_buffer_accesses)`.
    fn raster_phase(
        &mut self,
        trace: &FrameTrace,
        shaders: &ShaderTable,
        base: u64,
        busy: &mut UnitBusy,
    ) -> (u64, u64, u64) {
        let mut tile_work_clock = 0u64; // accumulated per-tile pipeline time
        let mut flush_clock = 0u64; // accumulated frame-buffer flush time
        let mut color_accesses = 0u64;
        let mut depth_accesses = 0u64;
        let n_fp = self.config.fragment_processors as u64;
        let immediate = trace.mode == RenderMode::Immediate;
        let deferred = trace.mode == RenderMode::TileBasedDeferred;
        for tile in &trace.tiles {
            let tile_base = base + tile_work_clock;
            // Polygon list read-back through the Tile cache (absent in
            // immediate mode: there are no tile lists to read).
            let mut list_clock = 0u64;
            let list_entries: &[megsim_funcsim::TilePrim] =
                if immediate { &[] } else { &tile.prims };
            for (n, _prim) in list_entries.iter().enumerate() {
                let addr = AddressSpace::polygon_list_entry(tile.tile_index, n as u64);
                list_clock += 1;
                let acc = self.tile_cache.access(addr, false);
                if let Some(wb) = acc.writeback {
                    self.memory.access(wb, tile_base + list_clock, true);
                }
                if acc.hit {
                    list_clock += self.tile_cache.config().latency;
                } else {
                    let fill = self.memory.access(addr, tile_base + list_clock, false);
                    list_clock += fill.latency;
                }
            }
            // Rasterizer / Early-Z / Fragment Processors / Blending.
            let mut raster_clock = 0u64;
            let mut earlyz_clock = 0u64;
            let mut fp_clock = vec![0u64; n_fp as usize];
            // Decoupled texture units: each FP has a texture pipe that
            // runs in parallel with its ALU; the FP finishes when the
            // slower of the two does.
            let mut tex_clock = vec![0u64; n_fp as usize];
            let mut blend_clock = 0u64;
            let mut visible_px = 0u64;
            let mut quad_rr = 0u64; // round-robin quad distribution
            for prim in &tile.prims {
                let fs = shaders.fragment_shader(prim.fragment_shader);
                let fs_instr = u64::from(fs.instruction_count());
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
                        quad_rr += 1;
                        continue;
                    }
                    let fp = (quad_rr % n_fp) as usize;
                    quad_rr += 1;
                    fp_clock[fp] += (vis * fs_instr).div_ceil(self.config.fragment_issue_width);
                    self.sample_textures(
                        prim.texture.as_ref(),
                        &fs.texture_samples,
                        prim.lod,
                        quad.uv,
                        vis,
                        fp,
                        base + tile_work_clock,
                        &mut tex_clock,
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
            let fp_alu_max = fp_clock.iter().copied().max().unwrap_or(0);
            let tex_max = tex_clock.iter().copied().max().unwrap_or(0);
            let fp_max = fp_clock
                .into_iter()
                .zip(tex_clock)
                .map(|(alu, tex)| alu.max(tex))
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
                // address stream matches a real raster layout.
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
                // feels backpressure.
                let w = self.memory.access(addr, base + flush_clock, true);
                let retire = w.ready_at.saturating_sub(base);
                flush_clock =
                    (flush_clock + 1).max(retire.saturating_sub(self.config.flush_write_window));
            }
        }
        busy.flush += flush_clock;
        (
            tile_work_clock.max(flush_clock),
            color_accesses,
            depth_accesses,
        )
    }

    /// Issues the texture samples of `vis` fragments of one quad and
    /// charges the (partially hidden) miss latency to FP `fp`.
    #[allow(clippy::too_many_arguments)]
    fn sample_textures(
        &mut self,
        texture: Option<&megsim_gfx::texture::TextureDesc>,
        filters: &[TextureFilter],
        lod: u32,
        uv: Vec2,
        vis: u64,
        fp: usize,
        base: u64,
        tex_clock: &mut [u64],
    ) {
        let Some(texture) = texture else {
            return;
        };
        // Per-fragment sampling: offset each fragment by one texel (at
        // the selected LOD) so the address stream has realistic spatial
        // locality.
        let lw = (texture.width >> lod.min(texture.max_level())).max(1);
        let lh = (texture.height >> lod.min(texture.max_level())).max(1);
        let texel = Vec2::new(1.0 / lw as f32, 1.0 / lh as f32);
        for f in 0..vis {
            let fuv = Vec2::new(
                uv.x + texel.x * (f % 2) as f32,
                uv.y + texel.y * (f / 2) as f32,
            );
            for filter in filters {
                self.scratch_addrs.clear();
                texture.sample_addresses_lod(fuv, *filter, lod, &mut self.scratch_addrs);
                let addrs = std::mem::take(&mut self.scratch_addrs);
                for &addr in &addrs {
                    // One texel lookup per cycle of pipe occupancy; a
                    // miss stalls the pipe for a capped latency (the
                    // in-flight quad window hides the rest).
                    let acc = self.texture_caches[fp].access(addr, false);
                    if let Some(wb) = acc.writeback {
                        self.memory.access(wb, base + tex_clock[fp], true);
                    }
                    if acc.hit {
                        tex_clock[fp] += 1;
                    } else {
                        // The pipe keeps `texture_miss_stall_cap` cycles
                        // of work in flight; it stalls only when the
                        // fill arrives later than that window allows.
                        let fill = self.memory.access(addr, base + tex_clock[fp], false);
                        let arrival = fill.ready_at.saturating_sub(base);
                        tex_clock[fp] = (tex_clock[fp] + 1)
                            .max(arrival.saturating_sub(self.config.texture_miss_stall_cap));
                    }
                }
                self.scratch_addrs = addrs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::Gpu;
    use megsim_funcsim::{RenderConfig, Renderer};
    use megsim_gfx::draw::{BlendMode, DrawCall, Frame, Viewport};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram};
    use megsim_gfx::texture::TextureDesc;
    use proptest::prelude::*;
    use std::sync::Arc;

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
            // Small texture: misses and capacity evictions both occur.
            texture: (fs != 1).then(|| TextureDesc::new(0, 64, 64, 4, 0x8000)),
            blend,
            depth_test,
        }
    }

    fn tri_strategy() -> impl Strategy<Value = [(f32, f32, f32); 3]> {
        let v = (-1.2f32..1.2, -1.2f32..1.2);
        (v.clone(), v.clone(), v, 0.05f32..0.95)
            .prop_map(|((x0, y0), (x1, y1), (x2, y2), z)| [(x0, y0, z), (x1, y1, z), (x2, y2, z)])
    }

    fn frame_strategy() -> impl Strategy<Value = Frame> {
        let blend = (0u32..3).prop_map(|b| match b {
            0 => BlendMode::Opaque,
            1 => BlendMode::AlphaBlend,
            _ => BlendMode::Additive,
        });
        let draw = (
            proptest::collection::vec(tri_strategy(), 1..6),
            0u32..3,
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

    /// Runs the same frame sequence through the optimized and reference
    /// GPU models in every render mode, frame-by-frame over warm state,
    /// asserting full `FrameStats` bit-equality. Runs at one worker
    /// thread (tiles recorded straight into the replay) and at two
    /// (frames of two or more tiles recorded as shard logs), whatever
    /// the host's core count.
    fn assert_matches_reference(frames: &[Frame], viewport: Viewport) {
        for threads in [1, 2] {
            megsim_exec::with_threads(threads, || {
                assert_matches_reference_at(frames, viewport, threads);
            });
        }
    }

    fn assert_matches_reference_at(frames: &[Frame], viewport: Viewport, threads: usize) {
        let t = shaders();
        for mode in [
            RenderMode::TileBased,
            RenderMode::TileBasedDeferred,
            RenderMode::Immediate,
        ] {
            let mut cfg = GpuConfig::small(viewport.width, viewport.height);
            cfg.viewport = viewport;
            cfg.render_mode = mode;
            let renderer = Renderer::new(RenderConfig { viewport, mode });
            let mut optimized = Gpu::new(cfg.clone());
            let mut reference = ReferenceGpu::new(cfg);
            for (i, frame) in frames.iter().enumerate() {
                let trace = renderer.render_frame(frame, &t);
                let a = optimized.simulate_frame(&trace, &t);
                let b = reference.simulate_frame(&trace, &t);
                assert_eq!(a, b, "{mode:?} frame {i} at {threads} threads");
                let clock = format!("{mode:?} frame {i} clock at {threads} threads");
                assert_eq!(optimized.now(), reference.now(), "{clock}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn optimized_timing_is_bit_identical_to_reference(
            frames in proptest::collection::vec(frame_strategy(), 1..3)
        ) {
            assert_matches_reference(&frames, Viewport::new(128, 128, 32));
        }

        #[test]
        fn timing_bit_identical_on_odd_viewport(frame in frame_strategy()) {
            // Odd target/tile geometry: partial tiles, odd flush rects.
            assert_matches_reference(std::slice::from_ref(&frame), Viewport::new(96, 40, 24));
        }
    }

    #[test]
    fn warm_sequence_stays_bit_identical() {
        // Deterministic two-layer overdraw scene repeated over warm
        // caches: evictions, writebacks and DRAM row reuse all occur.
        let mut f = Frame::new();
        for z in [0.4f32, -0.2] {
            f.draws.push(draw_of(
                &[
                    [(-0.9, -0.9, z), (0.9, -0.9, z), (0.9, 0.9, z)],
                    [(-0.9, -0.9, z), (0.9, 0.9, z), (-0.9, 0.9, z)],
                ],
                if z > 0.0 { 0 } else { 2 },
                BlendMode::Opaque,
                true,
            ));
        }
        let frames = vec![f.clone(), f.clone(), f];
        assert_matches_reference(&frames, Viewport::new(128, 128, 32));
    }
}
