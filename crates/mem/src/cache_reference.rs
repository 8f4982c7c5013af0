//! The original array-of-structs cache model, kept verbatim as the
//! oracle for the way-compact, run-coalescing [`crate::cache::Cache`].
//!
//! Every access recomputes the tag shift from `set_mask.count_ones()`
//! and walks `Line` records — exactly the code the optimized cache
//! replaced. The proptests at the bottom of this file drive random
//! address streams through both models and assert access-by-access
//! bit-equality (hit/miss, writeback addresses, stats, flush counts);
//! the `reference` cargo feature exposes this module to benchmarks so
//! speedups are measured against the true baseline.

use crate::cache::{CacheAccess, CacheConfig, CacheStats};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic counter value of the last touch (for LRU).
    last_use: u64,
}

/// The pre-optimization set-associative write-back cache.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    config: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl ReferenceCache {
    /// Builds a cold cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let lines = vec![Line::default(); (sets * u64::from(config.ways)) as usize];
        let line_shift = config.line_size.trailing_zeros();
        Self {
            set_mask: sets - 1,
            line_shift,
            lines,
            tick: 0,
            stats: CacheStats::default(),
            config,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets counters but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses `addr`; returns hit/miss and any writeback generated.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let ways = self.config.ways as usize;
        let base = set * ways;
        // Hit path.
        for way in 0..ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.last_use = self.tick;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: None,
                };
            }
        }
        // Miss: find victim (invalid first, else LRU).
        self.stats.misses += 1;
        let mut victim = base;
        for way in 0..ways {
            let line = &self.lines[base + way];
            if !line.valid {
                victim = base + way;
                break;
            }
            if line.last_use < self.lines[victim].last_use {
                victim = base + way;
            }
        }
        let evicted = self.lines[victim];
        let writeback = if evicted.valid && evicted.dirty {
            self.stats.writebacks += 1;
            let victim_line = (evicted.tag << self.set_mask.count_ones()) | set as u64;
            Some(victim_line << self.line_shift)
        } else {
            None
        };
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: is_write,
            last_use: self.tick,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Writes back all dirty lines and invalidates the cache, returning
    /// the number of writebacks produced (end-of-frame flush).
    #[cfg(test)]
    fn flush(&mut self) -> u64 {
        let mut wb = 0;
        for line in &mut self.lines {
            if line.valid && line.dirty {
                wb += 1;
            }
            *line = Line::default();
        }
        self.stats.writebacks += wb;
        wb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use proptest::prelude::*;

    /// One step of a random access stream: a (small) address, a
    /// read/write flag, and a run length for the coalesced path.
    fn stream_strategy() -> impl Strategy<Value = Vec<(u64, bool, u64)>> {
        // Addresses confined to a few KiB so the tiny caches below see
        // real conflict pressure; run lengths 1..5.
        proptest::collection::vec((0u64..0x1000, proptest::bool::ANY, 1u64..5), 1..200)
    }

    fn configs() -> Vec<CacheConfig> {
        vec![
            CacheConfig::new("direct", 256, 64, 1, 1, 1),
            CacheConfig::new("2way", 512, 64, 2, 1, 1),
            CacheConfig::new("4way", 2048, 64, 4, 2, 2),
            CacheConfig::new("small-lines", 512, 32, 2, 1, 1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The way-compact cache replays the reference access-by-access:
        /// identical hit/miss decisions, writeback addresses and stats.
        #[test]
        fn scalar_access_matches_reference(stream in stream_strategy()) {
            for config in configs() {
                let mut optimized = Cache::new(config.clone());
                let mut reference = ReferenceCache::new(config);
                for &(addr, is_write, _) in &stream {
                    let a = optimized.access(addr, is_write);
                    let b = reference.access(addr, is_write);
                    prop_assert_eq!(a, b);
                }
                prop_assert_eq!(optimized.stats(), reference.stats());
                prop_assert_eq!(optimized.flush(), reference.flush());
                prop_assert_eq!(optimized.stats(), reference.stats());
            }
        }

        /// `access_run` over same-line streaks is bit-identical to the
        /// scalar loop on the reference model: the first access's
        /// outcome matches and the end state (stats + subsequent LRU
        /// behaviour) agrees.
        #[test]
        fn access_run_matches_scalar_reference(stream in stream_strategy()) {
            for config in configs() {
                let line = config.line_size;
                let mut optimized = Cache::new(config.clone());
                let mut reference = ReferenceCache::new(config);
                for &(addr, is_write, count) in &stream {
                    let a = optimized.access_run(addr, is_write, count);
                    let mut first = None;
                    for k in 0..count {
                        // Same line, varied offsets within it.
                        let offset = (addr + k * 7) % line;
                        let b = reference.access((addr / line) * line + offset, is_write);
                        if k == 0 {
                            first = Some(b);
                        } else {
                            prop_assert!(b.hit, "run tail must hit");
                        }
                    }
                    prop_assert_eq!(Some(a), first);
                }
                prop_assert_eq!(optimized.stats(), reference.stats());
                // Post-run accesses agree, so LRU state converged too.
                for probe in (0..0x1000u64).step_by(64) {
                    prop_assert_eq!(
                        optimized.access(probe, false),
                        reference.access(probe, false)
                    );
                }
            }
        }
    }
}
