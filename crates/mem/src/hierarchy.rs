//! The shared L2 + DRAM back end of the memory system.
//!
//! Every L1-class cache of the GPU (vertex cache, texture caches, tile
//! cache) refills through this hierarchy, exactly as in the Fig. 1
//! machine where the L2 sits between all first-level caches and main
//! memory.

use serde::{Deserialize, Serialize};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::dram::{Dram, DramConfig, DramStats};

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Cycle at which the requested data is available.
    pub ready_at: u64,
    /// End-to-end latency observed by the requesting unit.
    pub latency: u64,
    /// Whether the L2 serviced the request without going to DRAM.
    pub l2_hit: bool,
}

/// Aggregated counters of the shared memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// L2 counters.
    pub l2: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
}

impl MemoryStats {
    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.l2.merge(&other.l2);
        self.dram.merge(&other.dram);
    }
}

/// Shared L2 cache backed by DRAM.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l2: Cache,
    dram: Dram,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from cache and DRAM configurations.
    pub fn new(l2: CacheConfig, dram: DramConfig) -> Self {
        Self {
            l2: Cache::new(l2),
            dram: Dram::new(dram),
        }
    }

    /// The Table I baseline: 256 KiB, 8-bank, 18-cycle L2 over LPDDR3.
    pub fn mali450_baseline() -> Self {
        Self::new(
            CacheConfig::new("L2", 256 * 1024, 64, 2, 8, 18),
            DramConfig::lpddr3_baseline(),
        )
    }

    /// Accesses `addr` through the L2; on a miss the line is fetched from
    /// DRAM and any dirty victim is written back.
    #[inline]
    pub fn access(&mut self, addr: u64, now: u64, is_write: bool) -> HierarchyAccess {
        self.access_run(addr, now, is_write, 1)
    }

    /// Services `count` back-to-back accesses to the line of `addr`, all
    /// issued at cycle `now`, with a single L2 lookup.
    ///
    /// Bit-identical to the scalar loop: only the first access can miss
    /// (and go to DRAM); the remaining `count - 1` are L2 hits because
    /// the first access leaves the line resident and most recently used
    /// and nothing else touches the L2 inside the run. The returned
    /// [`HierarchyAccess`] describes the **first** access; the tail
    /// accesses each observe the plain L2 hit latency.
    fn access_run(&mut self, addr: u64, now: u64, is_write: bool, count: u64) -> HierarchyAccess {
        let l2_latency = self.l2.config().latency;
        let result = self.l2.access_run(addr, is_write, count);
        if result.hit {
            return HierarchyAccess {
                ready_at: now + l2_latency,
                latency: l2_latency,
                l2_hit: true,
            };
        }
        // Dirty victim goes to DRAM; it does not delay the demand fetch
        // (posted write), but it occupies bus bandwidth.
        if let Some(victim) = result.writeback {
            self.dram.access(victim, now + l2_latency, true);
        }
        let fill = self.dram.access(addr, now + l2_latency, false);
        HierarchyAccess {
            ready_at: fill.ready_at,
            latency: fill.ready_at - now,
            l2_hit: false,
        }
    }

    /// Flushes the L2, writing dirty lines to DRAM (device idle time at
    /// the end of a warm sequence). Returns the number of writebacks.
    pub fn flush_l2(&mut self) -> u64 {
        self.l2.flush()
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            l2: *self.l2.stats(),
            dram: *self.dram.stats(),
        }
    }

    /// Resets counters (cache/DRAM state persists across frames).
    pub fn reset_stats(&mut self) {
        self.l2.reset_stats();
        self.dram.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MemoryHierarchy {
        MemoryHierarchy::new(
            CacheConfig::new("L2", 1024, 64, 2, 1, 10),
            DramConfig::lpddr3_baseline(),
        )
    }

    #[test]
    fn l2_hit_costs_l2_latency_only() {
        let mut h = tiny();
        let miss = h.access(0, 0, false);
        assert!(!miss.l2_hit);
        assert!(miss.latency >= 10 + 100);
        let hit = h.access(0, miss.ready_at, false);
        assert!(hit.l2_hit);
        assert_eq!(hit.latency, 10);
    }

    #[test]
    fn miss_counts_dram_access() {
        let mut h = tiny();
        h.access(0, 0, false);
        h.access(0, 500, false);
        let s = h.stats();
        assert_eq!(s.l2.accesses(), 2);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.dram.accesses(), 1);
    }

    #[test]
    fn dirty_l2_victim_reaches_dram() {
        let mut h = tiny();
        // 8 sets; addresses 0x000, 0x200, 0x400 share set 0 (1024/64/2=8).
        h.access(0x000, 0, true);
        h.access(0x200, 0, false);
        h.access(0x400, 0, false); // evicts dirty 0x000
        assert_eq!(h.stats().dram.writes, 1);
    }

    #[test]
    fn access_run_matches_scalar_loop() {
        let mut run = tiny();
        let mut scalar = tiny();
        // Cold line: miss + 3 hits.
        let a = run.access_run(0x80, 0, false, 4);
        let mut first = None;
        for k in 0..4 {
            let b = scalar.access(0x80 + k * 8, 0, false);
            if k == 0 {
                first = Some(b);
            } else {
                assert!(b.l2_hit);
            }
        }
        assert_eq!(Some(a), first);
        assert_eq!(run.stats(), scalar.stats());
        // Warm line: all hits.
        let a = run.access_run(0x80, 1000, true, 3);
        let b = scalar.access(0x80, 1000, true);
        scalar.access(0x90, 1000, true);
        scalar.access(0xa0, 1000, true);
        assert_eq!(a, b);
        assert_eq!(run.stats(), scalar.stats());
    }

    #[test]
    fn flush_cleans_dirty_lines() {
        let mut h = tiny();
        h.access(0, 0, true);
        assert_eq!(h.flush_l2(), 1);
        assert!(!h.access(0, 0, false).l2_hit);
    }
}
