//! N-instance GPU timing behind a work distributor.
//!
//! A [`MultiGpu`] rig owns N [`Gpu`] front ends (L1-class caches,
//! unit clocks, scratch), a [`megsim_mem::MemoryPool`] deciding whether
//! their L2 + DRAM back ends are shared or private
//! ([`megsim_mem::Topology`]), and one interconnect [`megsim_mem::Link`]
//! per worker GPU carrying finished pixels to the display GPU (GPU 0).
//! Work is assigned by a [`WorkDistributor`] in one of two classic
//! multi-GPU dispatch modes:
//!
//! * **Alternate-frame rendering** ([`DispatchMode::AlternateFrame`]) —
//!   frame `i` is simulated whole on GPU `i mod N`. A frame rendered
//!   away from the display GPU pays a full-framebuffer scan-out
//!   transfer over its link; per-frame `cycles` report the frame's
//!   latency on its own GPU (including the transfer), so sequence
//!   totals remain the paper's summed-cycles metric.
//! * **Split-frame rendering** ([`DispatchMode::SplitFrame`]) — every
//!   frame's tile array is split into N contiguous bands (halves,
//!   quadrants, …) and each GPU rasterizes its band with the raster
//!   phase's tile recorder and replay (`crate::shard`).
//!   The geometry + tiling phase is duplicated on every GPU (no
//!   geometry redistribution — the classic SFR cost), a barrier
//!   separates geometry from raster, and each worker GPU ships its
//!   band's visible pixels to GPU 0 when its raster finishes.
//!
//! # Determinism
//!
//! All timing-model state mutation happens on the caller thread. The
//! only parallel stage is the *pure* `shard::record_tiles` fan-out
//! (no cache, DRAM or clock is touched), so every (N, dispatch,
//! topology) configuration is bit-identical at any worker-pool size.
//! Under the shared topology the GPUs' access streams interleave
//! **round-robin at a fixed granularity** — whole frames under AFR,
//! `shard::SHARD_TILES`-tile shards (GPU 0's shard, GPU 1's shard, …,
//! then the next round) under SFR — so the contended hierarchy sees one
//! well-defined serialized stream rather than a race.
//!
//! # N = 1 bit-identity
//!
//! A single-GPU rig is the existing pipeline: AFR degenerates to
//! [`Gpu::simulate_frame`] on GPU 0 with zero transfers, and SFR's
//! band split produces the exact shard sequence of the single GPU's
//! log route, replayed through the same `Replay` sink even at one
//! worker thread — where the single GPU feeds that sink directly, so
//! the N = 1 SFR rig pins the log route against the direct one at
//! every thread count. The `tests/multi_gpu.rs` oracle pins both
//! against the single-GPU warm path (and, under `--features
//! reference`, against `crate::ReferenceGpu`).

use megsim_funcsim::FrameTrace;
use megsim_gfx::shader::ShaderTable;
use megsim_mem::{Link, LinkConfig, LinkStats, MemoryPool, Topology};
use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::config::GpuConfig;
use crate::gpu::Gpu;
use crate::shard::{self, Replay, ReplayState, ShardLog};
use crate::stats::{FrameStats, UnitBusy};

/// The largest rig [`MultiGpu::new`] builds. Every instance owns its
/// own front-end caches (and, under [`Topology::Private`], its own L2
/// and DRAM back end), so an unchecked GPU count read from user input
/// can ask for more memory than any host has; front ends validate
/// against this bound and report an input error instead. It sits far
/// above the N ≤ 4 rigs the multi-GPU studies simulate.
pub const MAX_GPUS: usize = 64;

/// How the distributor assigns work to the N GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DispatchMode {
    /// Frame `i` → GPU `i mod N`, whole.
    #[default]
    AlternateFrame,
    /// Every frame's tiles split into N contiguous bands, one per GPU.
    SplitFrame,
}

/// Configuration of an N-GPU rig.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiGpuConfig {
    /// Number of GPU instances (≥ 1).
    pub gpus: usize,
    /// Work-distribution mode.
    pub dispatch: DispatchMode,
    /// Shared or private L2 + DRAM back ends.
    pub topology: Topology,
    /// Per-worker-GPU link to the display GPU.
    pub link: LinkConfig,
}

impl MultiGpuConfig {
    /// An `gpus`-instance rig with the baseline link.
    pub fn new(gpus: usize, dispatch: DispatchMode, topology: Topology) -> Self {
        Self {
            gpus,
            dispatch,
            topology,
            link: LinkConfig::baseline(),
        }
    }

    /// The degenerate single-GPU rig (bit-identical to [`Gpu`]).
    pub fn single() -> Self {
        Self::new(1, DispatchMode::AlternateFrame, Topology::Private)
    }
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// Pure work-assignment policy: which GPU owns a frame (AFR) or which
/// contiguous tile band each GPU rasterizes (SFR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkDistributor {
    gpus: usize,
    dispatch: DispatchMode,
}

impl WorkDistributor {
    /// Builds a distributor over `gpus` instances.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    fn new(gpus: usize, dispatch: DispatchMode) -> Self {
        assert!(gpus > 0, "a rig needs at least one GPU");
        Self { gpus, dispatch }
    }

    /// The dispatch mode.
    fn dispatch(&self) -> DispatchMode {
        self.dispatch
    }

    /// AFR assignment: frame `i` → GPU `i mod N`.
    fn gpu_for_frame(&self, frame_index: u64) -> usize {
        (frame_index % self.gpus as u64) as usize
    }

    /// SFR assignment: `tiles` split into N contiguous near-equal
    /// bands in tile-index order (the first `tiles % N` bands take the
    /// remainder). Bands can be empty when `tiles < N`.
    fn tile_ranges(&self, tiles: usize) -> Vec<Range<usize>> {
        let base = tiles / self.gpus;
        let rem = tiles % self.gpus;
        let mut start = 0;
        (0..self.gpus)
            .map(|g| {
                let len = base + usize::from(g < rem);
                let r = start..start + len;
                start += len;
                r
            })
            .collect()
    }
}

/// Cumulative work and traffic accounting of a rig.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiGpuReport {
    /// Frames each GPU worked on (every GPU, under SFR).
    pub frames_per_gpu: Vec<u64>,
    /// Per-GPU link counters (entry 0 — the display GPU — never moves).
    pub links: Vec<LinkStats>,
}

impl MultiGpuReport {
    /// Total interconnect line transfers.
    pub fn transfers(&self) -> u64 {
        self.links.iter().map(|l| l.transfers).sum()
    }

    /// Total interconnect payload bytes.
    pub fn bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Total cycles any lane was occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.links.iter().map(|l| l.busy_cycles).sum()
    }
}

/// Swaps GPU `g`'s topology-assigned back end in, runs `f`, swaps it
/// back out — the single point where a GPU's `access_run` stream is
/// routed through the [`MemoryPool`].
fn with_backend<R>(
    gpus: &mut [Gpu],
    pool: &mut MemoryPool,
    g: usize,
    f: impl FnOnce(&mut Gpu) -> R,
) -> R {
    std::mem::swap(&mut gpus[g].memory, pool.for_gpu(g));
    let r = f(&mut gpus[g]);
    std::mem::swap(&mut gpus[g].memory, pool.for_gpu(g));
    r
}

/// An N-GPU timing rig: N per-GPU front ends behind a
/// [`WorkDistributor`], over one [`MemoryPool`] and N−1 display links.
#[derive(Debug)]
pub struct MultiGpu {
    distributor: WorkDistributor,
    gpus: Vec<Gpu>,
    pool: MemoryPool,
    links: Vec<Link>,
    frames_per_gpu: Vec<u64>,
    /// Global sequence position (drives double-buffer parity on every
    /// GPU, like the single-GPU frame counter).
    frame_index: u64,
}

impl MultiGpu {
    /// Builds a cold rig of `multi.gpus` instances of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `multi.gpus` is zero or above [`MAX_GPUS`].
    pub fn new(config: GpuConfig, multi: MultiGpuConfig) -> Self {
        assert!(multi.gpus > 0, "a rig needs at least one GPU");
        assert!(
            multi.gpus <= MAX_GPUS,
            "a rig holds at most {MAX_GPUS} GPUs, got {}",
            multi.gpus
        );
        let pool = MemoryPool::new(multi.topology, multi.gpus, config.l2.clone(), config.dram);
        let gpus: Vec<Gpu> = (0..multi.gpus).map(|_| Gpu::new(config.clone())).collect();
        Self {
            distributor: WorkDistributor::new(multi.gpus, multi.dispatch),
            links: (0..multi.gpus).map(|_| Link::new(multi.link)).collect(),
            frames_per_gpu: vec![0; multi.gpus],
            frame_index: 0,
            gpus,
            pool,
        }
    }

    /// Cycle count of the furthest-ahead GPU clock.
    pub fn now(&self) -> u64 {
        self.gpus.iter().map(Gpu::now).max().unwrap_or(0)
    }

    /// Cumulative work/traffic accounting.
    pub fn report(&self) -> MultiGpuReport {
        MultiGpuReport {
            frames_per_gpu: self.frames_per_gpu.clone(),
            links: self.links.iter().map(|l| *l.stats()).collect(),
        }
    }

    /// Writes back every dirty line of every back-end L2 (device idle
    /// at sequence end) and returns the writeback total. The caller
    /// attributes them to the last frame, as in the single-GPU path.
    pub fn drain_l2(&mut self) -> u64 {
        self.pool.flush_all()
    }

    /// Simulates one frame under the configured dispatch mode.
    ///
    /// # Panics
    ///
    /// Panics if the trace references shaders missing from `shaders`.
    pub fn simulate_frame(&mut self, trace: &FrameTrace, shaders: &ShaderTable) -> FrameStats {
        match self.distributor.dispatch() {
            DispatchMode::AlternateFrame => self.simulate_frame_afr(trace, shaders),
            DispatchMode::SplitFrame => self.simulate_frame_sfr(trace, shaders),
        }
    }

    /// AFR: the whole frame on GPU `i mod N`, then (away from GPU 0) a
    /// full-framebuffer scan-out transfer over the GPU's link. The link
    /// queue lives in the owning GPU's clock domain — only that GPU
    /// issues on it, so back-to-back frames on one GPU queue naturally.
    fn simulate_frame_afr(&mut self, trace: &FrameTrace, shaders: &ShaderTable) -> FrameStats {
        let g = self.distributor.gpu_for_frame(self.frame_index);
        self.gpus[g].frame_index = self.frame_index;
        let mut stats = with_backend(&mut self.gpus, &mut self.pool, g, |gpu| {
            gpu.simulate_frame(trace, shaders)
        });
        if g != 0 {
            let bytes = u64::from(trace.viewport.width) * u64::from(trace.viewport.height) * 4;
            let issue = self.gpus[g].now;
            let t = self.links[g].transfer_bytes(bytes, issue);
            let stall = t.ready_at - issue;
            stats.cycles += stall;
            self.gpus[g].now += stall;
        }
        self.frames_per_gpu[g] += 1;
        self.frame_index += 1;
        stats
    }

    /// SFR: duplicated geometry on every GPU, parallel *pure* tile
    /// recording over each GPU's band, shard-granular round-robin
    /// replay through each GPU's back end, then per-band region
    /// transfers to GPU 0.
    fn simulate_frame_sfr(&mut self, trace: &FrameTrace, shaders: &ShaderTable) -> FrameStats {
        let n = self.gpus.len();
        // Per-frame stat attribution, as in `Gpu::simulate_frame`.
        for gpu in &mut self.gpus {
            gpu.vertex_cache.reset_stats();
            for c in &mut gpu.texture_caches {
                c.reset_stats();
            }
            gpu.tile_cache.reset_stats();
            gpu.frame_index = self.frame_index;
        }
        self.pool.reset_stats();

        // SFR advances every GPU by the same frame span, so the local
        // clocks stay in lockstep; `frame_start` is shared.
        let frame_start = self.gpus[0].now;
        debug_assert!(self.gpus.iter().all(|g| g.now == frame_start));

        // Geometry + tiling, duplicated per GPU (round-robin through a
        // shared back end: GPU 0's whole stream, then GPU 1's, …).
        let mut busys = vec![UnitBusy::default(); n];
        let mut geom = vec![0u64; n];
        for g in 0..n {
            geom[g] = with_backend(&mut self.gpus, &mut self.pool, g, |gpu| {
                gpu.geometry_phase(trace, frame_start, &mut busys[g])
            });
        }
        let geometry_cycles = geom.iter().copied().max().unwrap_or(0);

        // Record (parallel, pure): each band chunked into the same
        // SHARD_TILES shards the single-GPU sharded route uses.
        let ranges = self.distributor.tile_ranges(trace.tiles.len());
        let mut jobs: Vec<Range<usize>> = Vec::new();
        let mut shards_of: Vec<Range<usize>> = Vec::with_capacity(n);
        for band in &ranges {
            let first = jobs.len();
            let mut start = band.start;
            while start < band.end {
                let end = (start + shard::SHARD_TILES).min(band.end);
                jobs.push(start..end);
                start = end;
            }
            shards_of.push(first..jobs.len());
        }
        let gpu_config = &self.gpus[0].config;
        let frame_index = self.frame_index;
        let seed = shard::shape_seed();
        let logs: Vec<ShardLog> = megsim_exec::par_map_indexed(&jobs, |_, range| {
            ShardLog::record(
                trace,
                shaders,
                gpu_config,
                frame_index,
                range.clone(),
                &seed,
            )
        });
        drop(seed);
        for log in &logs {
            log.keep_shapes();
        }

        // Replay (serial, deterministic): round-robin across GPUs at
        // shard granularity — the fixed interleave that makes shared-
        // topology contention well-defined. All GPUs raster from the
        // post-geometry barrier.
        let raster_base = frame_start + geometry_cycles;
        let mut states = vec![ReplayState::default(); n];
        let mut cursors: Vec<usize> = shards_of.iter().map(|r| r.start).collect();
        loop {
            let mut replayed = false;
            for g in 0..n {
                if cursors[g] >= shards_of[g].end {
                    continue;
                }
                let log = &logs[cursors[g]];
                cursors[g] += 1;
                replayed = true;
                let (busy, state) = (&mut busys[g], &mut states[g]);
                with_backend(&mut self.gpus, &mut self.pool, g, |gpu| {
                    log.replay(&mut Replay::new(gpu, trace, raster_base, busy, state));
                });
            }
            if !replayed {
                break;
            }
        }
        let raster_cycles = states.iter().map(|s| s.raster_cycles()).max().unwrap_or(0);

        // Region transfers: each worker GPU ships its band's visible
        // pixels to GPU 0 the moment its own raster drains; the frame
        // completes when compute *and* every transfer have landed.
        let mut done = raster_base + raster_cycles;
        for (g, state) in states.iter().enumerate().take(n).skip(1) {
            let issue = raster_base + state.raster_cycles();
            let t = self.links[g].transfer_bytes(state.visible_px * 4, issue);
            done = done.max(t.ready_at);
        }
        let overhead = self.gpus[0].config.frame_overhead_cycles;
        let cycles = done - frame_start + overhead;

        // Advance the rig: every GPU moves in lockstep.
        for gpu in &mut self.gpus {
            gpu.now = frame_start + cycles;
            gpu.frame_index = self.frame_index + 1;
        }
        for f in &mut self.frames_per_gpu {
            *f += 1;
        }
        self.frame_index += 1;

        // Merge per-GPU front-end counters; back-end counters come from
        // the pool (one contended hierarchy, or N private ones summed).
        let mut vertex_stats = megsim_mem::CacheStats::default();
        let mut texture_stats = megsim_mem::CacheStats::default();
        let mut tile_stats = megsim_mem::CacheStats::default();
        let mut unit_busy = UnitBusy::default();
        for (g, gpu) in self.gpus.iter().enumerate() {
            vertex_stats.merge(gpu.vertex_cache.stats());
            for c in &gpu.texture_caches {
                texture_stats.merge(c.stats());
            }
            tile_stats.merge(gpu.tile_cache.stats());
            unit_busy.merge(&busys[g]);
        }
        FrameStats {
            cycles,
            geometry_cycles,
            raster_cycles,
            instructions: trace.activity.total_instructions(),
            vertex_cache: vertex_stats,
            texture_cache: texture_stats,
            tile_cache: tile_stats,
            memory: self.pool.stats(),
            color_buffer_accesses: states.iter().map(|s| s.color_accesses).sum(),
            depth_buffer_accesses: states.iter().map(|s| s.depth_accesses).sum(),
            activity: std::sync::Arc::clone(&trace.activity),
            unit_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_funcsim::{RenderConfig, RenderMode, Renderer};
    use megsim_gfx::draw::{BlendMode, DrawCall, Frame, Viewport};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec2, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
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
        t
    }

    fn layered_frame(shift: f32) -> Frame {
        let tri = |tris: &[[(f32, f32, f32); 3]], fs: u32, blend| {
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
                transform: Mat4::translation(Vec3::new(shift, 0.0, 0.0)),
                vertex_shader: ShaderId(0),
                fragment_shader: ShaderId(fs),
                texture: (fs != 1).then(|| TextureDesc::new(0, 64, 64, 4, 0x8000)),
                blend,
                depth_test: true,
            }
        };
        let mut f = Frame::new();
        f.draws.push(tri(
            &[
                [(-0.9, -0.9, 0.4), (0.9, -0.9, 0.4), (0.9, 0.9, 0.4)],
                [(-0.9, -0.9, 0.4), (0.9, 0.9, 0.4), (-0.9, 0.9, 0.4)],
            ],
            0,
            BlendMode::Opaque,
        ));
        f.draws.push(tri(
            &[[(-0.3, -0.8, -0.2), (0.8, -0.1, -0.2), (0.0, 0.9, -0.2)]],
            1,
            BlendMode::AlphaBlend,
        ));
        f
    }

    fn scene() -> Vec<Frame> {
        vec![layered_frame(0.0), layered_frame(0.1), layered_frame(-0.2)]
    }

    fn run_rig(
        mode: RenderMode,
        viewport: Viewport,
        multi: MultiGpuConfig,
    ) -> (Vec<FrameStats>, u64, MultiGpuReport) {
        let t = shaders();
        let mut cfg = GpuConfig::small(viewport.width, viewport.height);
        cfg.viewport = viewport;
        cfg.render_mode = mode;
        let renderer = Renderer::new(RenderConfig { viewport, mode });
        let mut rig = MultiGpu::new(cfg, multi);
        let stats: Vec<FrameStats> = scene()
            .iter()
            .map(|f| rig.simulate_frame(&renderer.render_frame(f, &t), &t))
            .collect();
        let now = rig.now();
        (stats, now, rig.report())
    }

    fn run_single(mode: RenderMode, viewport: Viewport) -> (Vec<FrameStats>, u64) {
        let t = shaders();
        let mut cfg = GpuConfig::small(viewport.width, viewport.height);
        cfg.viewport = viewport;
        cfg.render_mode = mode;
        let renderer = Renderer::new(RenderConfig { viewport, mode });
        let mut gpu = Gpu::new(cfg);
        let stats = scene()
            .iter()
            .map(|f| gpu.simulate_frame(&renderer.render_frame(f, &t), &t))
            .collect();
        (stats, gpu.now())
    }

    const MODES: [RenderMode; 3] = [
        RenderMode::TileBased,
        RenderMode::TileBasedDeferred,
        RenderMode::Immediate,
    ];

    #[test]
    fn distributor_splits_tiles_contiguously() {
        let d = WorkDistributor::new(4, DispatchMode::SplitFrame);
        assert_eq!(d.tile_ranges(10), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(d.tile_ranges(2), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(d.tile_ranges(0), vec![0..0, 0..0, 0..0, 0..0]);
        let d1 = WorkDistributor::new(1, DispatchMode::SplitFrame);
        assert_eq!(d1.tile_ranges(7), vec![0..7]);
    }

    #[test]
    fn distributor_alternates_frames() {
        let d = WorkDistributor::new(3, DispatchMode::AlternateFrame);
        assert_eq!(
            (0..6).map(|i| d.gpu_for_frame(i)).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn single_gpu_rig_is_bit_identical_in_both_dispatch_modes() {
        let viewport = Viewport::new(96, 96, 32);
        for mode in MODES {
            let (base, base_now) = run_single(mode, viewport);
            for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
                for topology in [Topology::Shared, Topology::Private] {
                    let multi = MultiGpuConfig::new(1, dispatch, topology);
                    let (stats, now, report) = run_rig(mode, viewport, multi);
                    assert_eq!(stats, base, "{mode:?} {dispatch:?} {topology:?}");
                    assert_eq!(now, base_now, "{mode:?} {dispatch:?} {topology:?} clock");
                    assert_eq!(report.transfers(), 0, "N=1 never crosses a link");
                }
            }
        }
    }

    #[test]
    fn afr_stripes_frames_and_pays_transfers() {
        let viewport = Viewport::new(96, 96, 32);
        let multi = MultiGpuConfig::new(2, DispatchMode::AlternateFrame, Topology::Private);
        let (stats, _, report) = run_rig(RenderMode::TileBased, viewport, multi);
        assert_eq!(report.frames_per_gpu, vec![2, 1]);
        // Frame 1 ran on GPU 1: a full 96×96×4-byte scan-out moved.
        assert_eq!(report.bytes(), 96 * 96 * 4);
        assert!(report.transfers() > 0);
        assert!(stats[1].cycles > 0);
    }

    #[test]
    fn sfr_splits_work_and_duplicates_geometry() {
        let viewport = Viewport::new(128, 128, 32);
        let single = run_single(RenderMode::TileBased, viewport).0;
        let multi = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private);
        let (stats, _, report) = run_rig(RenderMode::TileBased, viewport, multi);
        assert_eq!(report.frames_per_gpu, vec![3, 3]);
        // Both GPUs fetch the whole frame's vertices.
        assert!(stats[0].vertex_cache.accesses() >= 2 * single[0].vertex_cache.accesses());
        // GPU 1's band pixels crossed the link each frame.
        assert!(report.bytes() > 0);
        // Raster work split: the per-frame raster phase is shorter than
        // the single GPU's.
        assert!(stats[0].raster_cycles < single[0].raster_cycles);
    }

    #[test]
    fn shared_topology_contends_private_does_not() {
        let viewport = Viewport::new(128, 128, 32);
        let shared = run_rig(
            RenderMode::TileBased,
            viewport,
            MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared),
        )
        .0;
        let private = run_rig(
            RenderMode::TileBased,
            viewport,
            MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private),
        )
        .0;
        // The duplicated polygon lists hit in the one shared L2 but
        // miss across two private ones, so the private rig re-fetches
        // from DRAM.
        let shared_dram: u64 = shared.iter().map(|s| s.dram_accesses()).sum();
        let private_dram: u64 = private.iter().map(|s| s.dram_accesses()).sum();
        assert!(
            private_dram > shared_dram,
            "private {private_dram} vs shared {shared_dram}"
        );
    }

    #[test]
    fn sfr_rig_is_thread_count_invariant() {
        let viewport = Viewport::new(96, 96, 16);
        for topology in [Topology::Shared, Topology::Private] {
            let multi = MultiGpuConfig::new(3, DispatchMode::SplitFrame, topology);
            let base =
                megsim_exec::with_threads(1, || run_rig(RenderMode::TileBased, viewport, multi));
            for threads in [2, 8] {
                let got = megsim_exec::with_threads(threads, || {
                    run_rig(RenderMode::TileBased, viewport, multi)
                });
                assert_eq!(got, base, "{topology:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn drain_flushes_every_backend() {
        let viewport = Viewport::new(96, 96, 32);
        let t = shaders();
        let cfg = GpuConfig::small(96, 96);
        let renderer = Renderer::new(RenderConfig {
            viewport,
            mode: RenderMode::TileBased,
        });
        let multi = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private);
        let mut rig = MultiGpu::new(cfg, multi);
        for f in scene() {
            rig.simulate_frame(&renderer.render_frame(&f, &t), &t);
        }
        let wb = rig.drain_l2();
        assert!(wb > 0);
        assert_eq!(rig.drain_l2(), 0, "second drain finds clean L2s");
    }

    #[test]
    fn empty_frames_cost_only_overhead_on_any_rig() {
        let viewport = Viewport::new(96, 96, 32);
        let t = shaders();
        let cfg = GpuConfig::small(96, 96);
        let overhead = cfg.frame_overhead_cycles;
        let fill = u64::from(cfg.vertex_queue.entries);
        let renderer = Renderer::new(RenderConfig {
            viewport,
            mode: RenderMode::TileBased,
        });
        let trace = renderer.render_frame(&Frame::new(), &t);
        for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
            let mut rig = MultiGpu::new(
                cfg.clone(),
                MultiGpuConfig::new(4, dispatch, Topology::Shared),
            );
            let s0 = rig.simulate_frame(&trace, &t);
            assert_eq!(s0.cycles, overhead + fill, "{dispatch:?}");
            assert_eq!(s0.dram_accesses(), 0, "{dispatch:?}");
        }
    }
}
