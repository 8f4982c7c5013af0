//! # megsim-workloads
//!
//! Synthetic Android-game-like graphics workloads mirroring the paper's
//! Table II benchmark set (asp, bbr1, bbr2, hcr, hwh, jjo, pvz, spd).
//!
//! The paper evaluates on OpenGL traces captured from commercial
//! Android games; those traces are proprietary, so this crate
//! substitutes *scripted synthetic games*: deterministic frame
//! generators whose timelines alternate recurring segment templates
//! (menu, straight, turn, wave, boss, …) with per-frame noise and
//! spikes. What MEGsim consumes — per-frame shader invocation counts
//! and primitive counts with recurring phase structure — is preserved;
//! see DESIGN.md for the substitution argument.
//!
//! ```
//! use megsim_workloads::{by_alias, BENCHMARKS};
//!
//! let bbr = by_alias("bbr1", 0.01, 42).expect("known alias");
//! assert_eq!(bbr.shaders().vertex_count(), 73); // Table II
//! let frame = bbr.frame(0);
//! assert!(!frame.draws.is_empty());
//! assert_eq!(BENCHMARKS.len(), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod game;
pub mod meshes;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod suite;

pub use game::{GameType, ObjectClass, Segment, SegmentTemplate, Workload, WorkloadSpec};
#[cfg(any(test, feature = "reference"))]
pub use reference::ReferenceWorkload;
pub use suite::{build, by_alias, check_scale, suite, BenchmarkInfo, BENCHMARKS, MAX_FRAMES};
