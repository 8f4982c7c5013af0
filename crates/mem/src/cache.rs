//! Set-associative write-back cache model with LRU replacement.
//!
//! Models the caches of Table I (vertex cache, texture caches, tile
//! cache, L2): 64-byte lines, 2-way associativity, configurable size,
//! banks and access latency. The model is *functional + counting*: it
//! tracks hit/miss/writeback behaviour exactly, while latency is consumed
//! by the timing crate.
//!
//! The hot path is built for the address streams the timing model
//! produces: tags, LRU stamps and valid/dirty flags live in separate
//! way-compact arrays (the hit scan touches only tags and flags), the
//! tag shift is precomputed at construction, and [`Cache::access_run`]
//! services a streak of same-line accesses with a single tag lookup
//! plus replayed tick/stat bookkeeping. The pre-optimization
//! implementation is retained in `crate::cache_reference` and pinned
//! bit-for-bit by proptests there.

use serde::{Deserialize, Serialize};

/// Static configuration of one cache.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Human-readable name used in stats dumps (e.g. `"L2"`).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (Table I: 64).
    pub line_size: u64,
    /// Associativity (Table I: 2-way).
    pub ways: u32,
    /// Number of banks (affects throughput in the timing model).
    pub banks: u32,
    /// Hit latency in GPU cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or the geometry is
    /// inconsistent (capacity not divisible by `line_size * ways`).
    pub fn new(
        name: impl Into<String>,
        size_bytes: u64,
        line_size: u64,
        ways: u32,
        banks: u32,
        latency: u64,
    ) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0 && banks > 0, "ways and banks must be non-zero");
        assert_eq!(
            size_bytes % (line_size * u64::from(ways)),
            0,
            "capacity must be divisible by line_size * ways"
        );
        let sets = size_bytes / (line_size * u64::from(ways));
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            name: name.into(),
            size_bytes,
            line_size,
            ways,
            banks,
            latency,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> u64 {
        self.size_bytes / (self.line_size * u64::from(self.ways))
    }
}

/// Hit/miss and traffic counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Hits (reads + writes).
    pub hits: u64,
    /// Misses (reads + writes).
    pub misses: u64,
    /// Dirty lines written back on eviction or flush.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Miss ratio in `[0, 1]`; zero when the cache was never accessed.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Accumulates another stats block (used when merging frames).
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

const FLAG_VALID: u8 = 0b01;
const FLAG_DIRTY: u8 = 0b10;

/// A set-associative write-back, write-allocate cache.
///
/// Line state is stored way-compact (structure-of-arrays): the hit scan
/// walks `ways` consecutive tags + flags, the LRU stamps are touched
/// only on the selected way.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    tags: Vec<u64>,
    last_use: Vec<u64>,
    flags: Vec<u8>,
    tick: u64,
    stats: CacheStats,
    set_mask: u64,
    /// Precomputed `set_mask.count_ones()` — the tag shift.
    set_shift: u32,
    line_shift: u32,
}

impl Cache {
    /// Builds a cold cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let lines = (sets * u64::from(config.ways)) as usize;
        let line_shift = config.line_size.trailing_zeros();
        let set_mask = sets - 1;
        Self {
            set_mask,
            set_shift: set_mask.count_ones(),
            line_shift,
            tags: vec![0; lines],
            last_use: vec![0; lines],
            flags: vec![0; lines],
            tick: 0,
            stats: CacheStats::default(),
            config,
        }
    }

    /// The cache's configuration.
    pub(crate) fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets counters but keeps cache contents (used between frames to
    /// attribute traffic per frame while modelling warm caches).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses `addr`; returns hit/miss and any writeback generated.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.access_run(addr, is_write, 1)
    }

    /// Services `count` back-to-back accesses that all fall on the line
    /// of `addr` with a single tag lookup, replaying the tick and stat
    /// bookkeeping of the equivalent scalar [`Cache::access`] loop
    /// bit-for-bit.
    ///
    /// The returned [`CacheAccess`] describes the **first** access of
    /// the run; the remaining `count - 1` are hits by construction
    /// (the first access leaves the line resident and most recently
    /// used, and nothing else touches the cache inside the run), so
    /// callers charge them the hit latency with no memory traffic.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `count` is zero.
    #[inline]
    pub fn access_run(&mut self, addr: u64, is_write: bool, count: u64) -> CacheAccess {
        debug_assert!(count >= 1, "a run needs at least one access");
        // Scalar replay: each access bumps the tick and re-stamps the
        // line, so the run leaves tick advanced by `count` and the line
        // stamped with the final value.
        self.tick += count;
        if is_write {
            self.stats.writes += count;
        } else {
            self.stats.reads += count;
        }
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let dirty_bit = if is_write { FLAG_DIRTY } else { 0 };
        // Hit probe. The dominant 2-way shape is resolved branchlessly:
        // which way hit is close to a coin flip in steady state, so a
        // branch-per-way scan eats a mispredict on almost every lookup.
        // At most one way can match (a line is filled only after a whole-
        // set miss), so the hit way is the sum of per-way match masks.
        let hit_way = if ways == 2 {
            let m0 = self.flags[base] & FLAG_VALID != 0 && self.tags[base] == tag;
            let m1 = self.flags[base + 1] & FLAG_VALID != 0 && self.tags[base + 1] == tag;
            if m0 | m1 {
                Some(base + m1 as usize)
            } else {
                None
            }
        } else {
            let set_tags = &self.tags[base..base + ways];
            let set_flags = &self.flags[base..base + ways];
            set_tags
                .iter()
                .zip(set_flags)
                .position(|(&t, &f)| f & FLAG_VALID != 0 && t == tag)
                .map(|w| base + w)
        };
        if let Some(way) = hit_way {
            self.last_use[way] = self.tick;
            self.flags[way] |= dirty_bit;
            self.stats.hits += count;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
        // Miss (first access only): find victim (invalid first, else LRU).
        self.stats.misses += 1;
        self.stats.hits += count - 1;
        let mut victim = base;
        for way in base..base + ways {
            if self.flags[way] & FLAG_VALID == 0 {
                victim = way;
                break;
            }
            if self.last_use[way] < self.last_use[victim] {
                victim = way;
            }
        }
        let evicted_flags = self.flags[victim];
        let writeback = if evicted_flags & FLAG_VALID != 0 && evicted_flags & FLAG_DIRTY != 0 {
            self.stats.writebacks += 1;
            let victim_line = (self.tags[victim] << self.set_shift) | set as u64;
            Some(victim_line << self.line_shift)
        } else {
            None
        };
        self.tags[victim] = tag;
        self.flags[victim] = FLAG_VALID | dirty_bit;
        self.last_use[victim] = self.tick;
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Writes back all dirty lines and invalidates the cache, returning
    /// the number of writebacks produced (end-of-frame flush).
    pub(crate) fn flush(&mut self) -> u64 {
        let mut wb = 0;
        for i in 0..self.flags.len() {
            if self.flags[i] & (FLAG_VALID | FLAG_DIRTY) == FLAG_VALID | FLAG_DIRTY {
                wb += 1;
            }
            self.tags[i] = 0;
            self.last_use[i] = 0;
            self.flags[i] = 0;
        }
        self.stats.writebacks += wb;
        wb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig::new("t", 512, 64, 2, 1, 1))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new("L2", 256 * 1024, 64, 2, 8, 18);
        assert_eq!(c.sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn config_rejects_bad_geometry() {
        let _ = CacheConfig::new("x", 100, 64, 2, 1, 1);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x7f, false).hit, "same line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with line_addr % 4 == 0: 0x000, 0x100, 0x200.
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch 0x000 again; 0x100 is now LRU
        let miss = c.access(0x200, false);
        assert!(!miss.hit);
        assert!(c.access(0x000, false).hit, "recently used line survived");
        assert!(!c.access(0x100, false).hit, "LRU line was evicted");
    }

    #[test]
    fn dirty_eviction_produces_writeback_with_original_address() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        let a = c.access(0x200, false); // evicts 0x000
        assert_eq!(a.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x100, false);
        let a = c.access(0x200, false);
        assert_eq!(a.writeback, None);
    }

    #[test]
    fn flush_writes_back_dirty_lines_and_cools_cache() {
        let mut c = tiny();
        c.access(0x00, true);
        c.access(0x40, false);
        assert_eq!(c.flush(), 1);
        assert!(!c.access(0x00, false).hit, "flush invalidates");
    }

    #[test]
    fn miss_ratio_counts() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn access_run_equals_scalar_loop() {
        // A run over a cold line: 1 miss + (count-1) hits, end state
        // identical to the scalar loop on a twin cache.
        let mut run = tiny();
        let mut scalar = tiny();
        let first = run.access_run(0x80, true, 4);
        let mut scalar_first = None;
        for i in 0..4 {
            let a = scalar.access(0x80 + i * 8, true);
            if i == 0 {
                scalar_first = Some(a);
            }
        }
        assert_eq!(Some(first), scalar_first);
        assert_eq!(run.stats(), scalar.stats());
        // Same LRU outcome afterwards.
        run.access(0x000, false);
        run.access(0x100, false);
        scalar.access(0x000, false);
        scalar.access(0x100, false);
        assert_eq!(run.access(0x200, false), scalar.access(0x200, false));
    }

    #[test]
    fn access_run_on_resident_line_is_all_hits() {
        let mut c = tiny();
        c.access(0x40, false);
        let a = c.access_run(0x40, false, 5);
        assert!(a.hit);
        assert_eq!(c.stats().hits, 5);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().reads, 6);
    }
}
