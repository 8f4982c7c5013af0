//! # megsim-funcsim
//!
//! The functional GPU simulator of the MEGsim reproduction — the role
//! Gallium3D's Softpipe plays in the paper's TEAPOT toolchain. It
//! executes frames through the full Fig. 1 pipeline (Geometry Pipeline
//! → Tiling Engine → Raster Pipeline) at functional fidelity, in any of
//! three rendering architectures ([`RenderMode`]): tile-based (the
//! paper's baseline), tile-based deferred with Hidden Surface Removal,
//! or immediate-mode. It produces:
//!
//! * [`FrameActivity`]: the per-frame counters MEGsim characterizes
//!   frames with (per-shader invocation counts, primitives, fragments,
//!   texture samples, …), and
//! * [`FrameTrace`]: the per-tile work stream the cycle-level timing
//!   model (`megsim-timing`) consumes.
//!
//! ```
//! use std::sync::Arc;
//! use megsim_gfx::prelude::*;
//! use megsim_funcsim::{RenderConfig, Renderer};
//!
//! let mut shaders = ShaderTable::new();
//! shaders.add(ShaderProgram::vertex(0, "vs", 10));
//! shaders.add(ShaderProgram::fragment(0, "fs", 8, vec![]));
//!
//! let mesh = Arc::new(Mesh::new(
//!     vec![
//!         Vertex::at(Vec3::new(-0.5, -0.5, 0.0)),
//!         Vertex::at(Vec3::new(0.5, -0.5, 0.0)),
//!         Vertex::at(Vec3::new(0.0, 0.5, 0.0)),
//!     ],
//!     vec![0, 1, 2],
//!     0,
//! ));
//! let mut frame = Frame::new();
//! frame.draws.push(DrawCall {
//!     mesh,
//!     transform: Mat4::IDENTITY,
//!     vertex_shader: ShaderId(0),
//!     fragment_shader: ShaderId(0),
//!     texture: None,
//!     blend: BlendMode::Opaque,
//!     depth_test: true,
//! });
//!
//! let renderer = Renderer::new(RenderConfig::tbr(Viewport::new(64, 64, 32)));
//! let activity = renderer.frame_activity(&frame, &shaders);
//! assert_eq!(activity.primitives_emitted, 1);
//! assert!(activity.fragments_shaded > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod binning;
pub mod geometry;
pub mod raster;
#[cfg(any(test, feature = "reference"))]
pub mod raster_reference;
pub mod renderer;
pub mod trace;

pub use activity::FrameActivity;
pub use renderer::{RenderConfig, RenderMode, Renderer};
pub use trace::{DrawGeometry, FrameTrace, QuadTrace, TilePrim, TileTrace};
