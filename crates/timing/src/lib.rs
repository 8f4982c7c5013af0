//! # megsim-timing
//!
//! The cycle-level Tile-Based Rendering GPU model of the MEGsim
//! reproduction — the role TEAPOT's cycle-accurate simulator plays in
//! the paper. It consumes the per-frame [`megsim_funcsim::FrameTrace`]
//! produced by the functional renderer, models the Table I machine
//! (four Vertex Processors, four Fragment Processors, the Tiling
//! Engine, the Fig. 1 cache hierarchy and a banked LPDDR-style DRAM)
//! and reports the statistics the paper's accuracy study evaluates:
//! total cycles, DRAM accesses, L2 accesses and Tile-cache accesses.
//!
//! A frame's raster phase has one implementation: a pure tile recorder
//! whose events a replay applies to the GPU's caches and clocks. When
//! the calling thread's worker count is above one (set it with
//! [`megsim_exec::with_threads`]), the call is not already inside a
//! pool worker and the frame has at least two tiles, the recorder runs
//! over tile shards on the [`megsim_exec`] worker pool and the replay
//! consumes their logs in tile order; otherwise it feeds the replay
//! directly. The replay sees the same events either way, so the count
//! only trades overhead against parallelism.
//!
//! ```
//! use megsim_timing::{Gpu, GpuConfig};
//! use megsim_funcsim::{Renderer, RenderConfig};
//! use megsim_gfx::prelude::*;
//!
//! let config = GpuConfig::small(128, 128);
//! let viewport = config.viewport;
//! let mut gpu = Gpu::new(config);
//!
//! let mut shaders = ShaderTable::new();
//! shaders.add(ShaderProgram::vertex(0, "vs", 10));
//! shaders.add(ShaderProgram::fragment(0, "fs", 8, vec![]));
//! let trace = Renderer::new(RenderConfig::tbr(viewport))
//!     .render_frame(&Frame::new(), &shaders);
//! let stats = gpu.simulate_frame(&trace, &shaders);
//! assert!(stats.cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod gpu;
pub mod multi_gpu;
pub(crate) mod shard;
pub mod stats;
#[cfg(any(test, feature = "reference"))]
pub mod timing_reference;

pub use config::{GpuConfig, QueueConfig};
pub use gpu::Gpu;
pub use multi_gpu::{
    DispatchMode, MultiGpu, MultiGpuConfig, MultiGpuReport, WorkDistributor, MAX_GPUS,
};
// The rig's topology and link knobs are part of its configuration
// surface; re-exported so downstream crates need no megsim-mem dep.
pub use megsim_mem::{LinkConfig, Topology};
pub use stats::{FrameStats, UnitBusy};
#[cfg(any(test, feature = "reference"))]
pub use timing_reference::ReferenceGpu;
