//! The pre-optimization DRAM and L2-hierarchy models, kept verbatim as
//! the oracle (and the honest benchmark baseline) for the shift-mapped
//! [`crate::dram::Dram`] and run-coalescing
//! [`crate::hierarchy::MemoryHierarchy`].
//!
//! [`ReferenceDram`] re-derives the bank/row decomposition with 64-bit
//! divides on every access and recomputes the transfer-cycle count per
//! call; [`ReferenceMemoryHierarchy`] issues one scalar
//! [`ReferenceCache`] lookup per access. Together with
//! [`ReferenceCache`] these are exactly the memory models the seed's
//! timing simulator ran on, so `ReferenceGpu` (in `megsim-timing`)
//! measures the true before/after of the timing fast path. The
//! proptests at the bottom drive random timed access streams through
//! both model pairs and assert access-by-access bit-equality.

use crate::cache_reference::ReferenceCache;
use crate::dram::{DramAccess, DramConfig, DramStats};
use crate::hierarchy::{HierarchyAccess, MemoryStats};
use crate::CacheConfig;

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The pre-optimization banked DRAM device (divide-based address
/// decomposition, no precomputed transfer width).
#[derive(Debug, Clone)]
pub struct ReferenceDram {
    config: DramConfig,
    banks: Vec<Bank>,
    bus_free_at: u64,
    stats: DramStats,
}

impl ReferenceDram {
    /// Builds an idle DRAM with all rows closed.
    fn new(config: DramConfig) -> Self {
        Self {
            banks: vec![Bank::default(); config.banks as usize],
            bus_free_at: 0,
            stats: DramStats::default(),
            config,
        }
    }

    /// Current counters.
    fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets counters; bank state persists.
    fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_size;
        let bank = (line % u64::from(self.config.banks)) as usize;
        let row = addr / (self.config.row_bytes * u64::from(self.config.banks));
        (bank, row)
    }

    /// Performs one line-sized access starting no earlier than `now`.
    fn access(&mut self, addr: u64, now: u64, is_write: bool) -> DramAccess {
        let (bank_idx, row) = self.bank_and_row(addr);
        let bank = &mut self.banks[bank_idx];
        let row_hit = bank.open_row == Some(row);
        let latency_core = if row_hit {
            self.config.row_hit_latency
        } else {
            self.config.row_miss_latency
        };
        let start = now.max(bank.busy_until);
        let transfer = self.config.transfer_cycles();
        let bus_start = (start + latency_core).max(self.bus_free_at);
        let ready_at = bus_start + transfer;
        bank.open_row = Some(row);
        bank.busy_until = bus_start;
        self.bus_free_at = ready_at;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.bus_busy_cycles += transfer;
        DramAccess {
            ready_at,
            latency: ready_at - now,
            row_hit,
        }
    }
}

/// The pre-optimization shared L2 + DRAM back end: one scalar
/// [`ReferenceCache`] lookup per access, refilling through
/// [`ReferenceDram`].
#[derive(Debug, Clone)]
pub struct ReferenceMemoryHierarchy {
    l2: ReferenceCache,
    dram: ReferenceDram,
}

impl ReferenceMemoryHierarchy {
    /// Builds the hierarchy from cache and DRAM configurations.
    pub fn new(l2: CacheConfig, dram: DramConfig) -> Self {
        Self {
            l2: ReferenceCache::new(l2),
            dram: ReferenceDram::new(dram),
        }
    }

    /// Accesses `addr` through the L2; on a miss the line is fetched
    /// from DRAM and any dirty victim is written back.
    pub fn access(&mut self, addr: u64, now: u64, is_write: bool) -> HierarchyAccess {
        let l2_latency = self.l2.config().latency;
        let result = self.l2.access(addr, is_write);
        if result.hit {
            return HierarchyAccess {
                ready_at: now + l2_latency,
                latency: l2_latency,
                l2_hit: true,
            };
        }
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
    use crate::dram::Dram;
    use crate::hierarchy::MemoryHierarchy;
    use proptest::prelude::*;

    /// Random timed access stream: (line index, issue-cycle delta,
    /// is_write).
    fn stream_strategy() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
        proptest::collection::vec((0u64..256, 0u64..200, proptest::bool::ANY), 1..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shift-mapped DRAM replays the divide-based reference
        /// access-by-access.
        #[test]
        fn dram_matches_reference(stream in stream_strategy()) {
            let config = DramConfig::lpddr3_baseline();
            let mut optimized = Dram::new(config);
            let mut reference = ReferenceDram::new(config);
            let mut now = 0;
            for &(line, dt, is_write) in &stream {
                now += dt;
                let addr = line * config.line_size;
                prop_assert_eq!(
                    optimized.access(addr, now, is_write),
                    reference.access(addr, now, is_write)
                );
            }
            prop_assert_eq!(optimized.stats(), reference.stats());
        }

        /// The run-coalescing hierarchy replays the scalar reference
        /// access-by-access (timings, hit levels and all counters).
        #[test]
        fn hierarchy_matches_reference(stream in stream_strategy()) {
            let l2 = CacheConfig::new("L2", 4096, 64, 2, 8, 18);
            let dram = DramConfig::lpddr3_baseline();
            let mut optimized = MemoryHierarchy::new(l2.clone(), dram);
            let mut reference = ReferenceMemoryHierarchy::new(l2, dram);
            let mut now = 0;
            for &(line, dt, is_write) in &stream {
                now += dt;
                let addr = line * 64;
                prop_assert_eq!(
                    optimized.access(addr, now, is_write),
                    reference.access(addr, now, is_write)
                );
            }
            prop_assert_eq!(optimized.stats(), reference.stats());
        }
    }
}
