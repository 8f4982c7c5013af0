//! # megsim-mem
//!
//! Memory-system substrate of the MEGsim reproduction: set-associative
//! write-back caches, a banked open-page DRAM model (the DRAMsim2
//! substitute of the paper's evaluation stack) and the shared L2 + DRAM
//! hierarchy that every first-level cache of the Fig. 1 GPU refills
//! through.
//!
//! ```
//! use megsim_mem::{CacheConfig, MemoryHierarchy, DramConfig};
//!
//! let mut mem = MemoryHierarchy::mali450_baseline();
//! let miss = mem.access(0x1000, 0, false);
//! let hit = mem.access(0x1000, miss.ready_at, false);
//! assert!(!miss.l2_hit);
//! assert!(hit.l2_hit);
//! assert!(hit.latency < miss.latency);
//! # let _ = (CacheConfig::new("x", 1024, 64, 2, 1, 1), DramConfig::default());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod cache;
#[cfg(any(test, feature = "reference"))]
pub mod cache_reference;
pub mod dram;
pub mod hierarchy;
#[cfg(any(test, feature = "reference"))]
pub mod hierarchy_reference;
pub mod interconnect;
pub mod runlog;
pub mod topology;

pub use addr::AddressSpace;
pub use cache::{Cache, CacheAccess, CacheConfig, CacheStats, GroupLine};
#[cfg(any(test, feature = "reference"))]
pub use cache_reference::ReferenceCache;
pub use dram::{Dram, DramAccess, DramConfig, DramStats};
pub use hierarchy::{HierarchyAccess, MemoryHierarchy, MemoryStats};
#[cfg(any(test, feature = "reference"))]
pub use hierarchy_reference::{ReferenceDram, ReferenceMemoryHierarchy};
pub use interconnect::{Link, LinkConfig, LinkStats, LinkTransfer};
pub use runlog::LineGrouper;
pub use topology::{MemoryPool, Topology};
