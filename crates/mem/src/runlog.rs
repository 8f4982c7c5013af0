//! Coalesced access-run logging: the building blocks of record/replay
//! memory simulation.
//!
//! The timing model's fast paths service address streams as same-line
//! **runs** — `count` back-to-back accesses that share one cache line
//! cost one tag probe ([`crate::Cache::access_run`]) plus replayed
//! bookkeeping. Intra-frame tile sharding extends the idea across
//! threads: parallel shard workers *record* their would-be traffic as
//! `(addr, count)` runs without touching any shared cache, and a
//! deterministic tile-ordered merge *replays* the logs through the
//! existing `access_run` entry points, leaving every cache, DRAM row
//! buffer and stat counter in exactly the state the sequential
//! simulation would have produced.
//!
//! [`RunCoalescer`] is the shared merge machine: it folds an address
//! stream into maximal same-line runs with the exact boundaries a
//! sequential scan would produce, so the recorded log replays
//! bit-identically. [`Cache::access_run`] is the replay entry point.
//!
//! [`Cache::access_run`]: crate::Cache::access_run

/// Folds an address stream into maximal same-line `(addr, count)` runs.
///
/// Feeding addresses (or pre-coalesced same-line sub-runs) through
/// [`RunCoalescer::push`] emits a closed run every time the line
/// changes; [`RunCoalescer::flush`] emits the final open run. The
/// emitted sequence has exactly the boundaries of a sequential
/// same-line scan over the flat address stream: a run is extended if
/// and only if the next address lands on the open run's line, so
/// replaying the runs in order through an `access_run` entry point is
/// bit-identical to issuing the flat stream through scalar accesses.
///
/// The coalescer carries no cache state — it is pure address
/// arithmetic, safe to use from parallel shard workers that must not
/// touch the shared memory hierarchy.
#[derive(Debug, Clone)]
pub struct RunCoalescer {
    line_shift: u32,
    addr: u64,
    line: u64,
    count: u64,
}

impl RunCoalescer {
    /// Creates an empty coalescer for `1 << line_shift`-byte lines.
    #[inline]
    pub fn new(line_shift: u32) -> Self {
        Self {
            line_shift,
            addr: 0,
            line: 0,
            count: 0,
        }
    }

    /// Adds `count` accesses starting at `addr`, all guaranteed by the
    /// caller to fall on one line (single addresses use `count == 1`).
    /// Emits the previously open run if `addr` starts a new line.
    #[inline]
    pub fn push(&mut self, addr: u64, count: u64, mut emit: impl FnMut(u64, u64)) {
        let line = addr >> self.line_shift;
        if self.count > 0 && line == self.line {
            self.count += count;
        } else {
            if self.count > 0 {
                emit(self.addr, self.count);
            }
            self.addr = addr;
            self.line = line;
            self.count = count;
        }
    }

    /// Emits the open run, if any, and resets the coalescer.
    #[inline]
    pub fn flush(&mut self, mut emit: impl FnMut(u64, u64)) {
        if self.count > 0 {
            emit(self.addr, self.count);
            self.count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(addrs: &[u64], line_shift: u32) -> Vec<(u64, u64)> {
        let mut c = RunCoalescer::new(line_shift);
        let mut out = Vec::new();
        for &a in addrs {
            c.push(a, 1, |addr, count| out.push((addr, count)));
        }
        c.flush(|addr, count| out.push((addr, count)));
        out
    }

    #[test]
    fn coalesces_same_line_streaks() {
        // 64-byte lines: 0x00..0x3f share a line, 0x40 starts the next.
        assert_eq!(
            runs_of(&[0x00, 0x08, 0x3f, 0x40, 0x41, 0x00], 6),
            vec![(0x00, 3), (0x40, 2), (0x00, 1)]
        );
    }

    #[test]
    fn run_boundaries_match_sequential_scan() {
        // Alternating lines never merge; repeated flushes are stable.
        assert_eq!(
            runs_of(&[0x00, 0x40, 0x00, 0x40], 6),
            vec![(0x00, 1), (0x40, 1), (0x00, 1), (0x40, 1)]
        );
    }

    #[test]
    fn pre_coalesced_sub_runs_extend_open_run() {
        let mut c = RunCoalescer::new(6);
        let mut out = Vec::new();
        c.push(0x00, 2, |a, n| out.push((a, n)));
        c.push(0x10, 2, |a, n| out.push((a, n)));
        c.push(0x80, 4, |a, n| out.push((a, n)));
        c.flush(|a, n| out.push((a, n)));
        assert_eq!(out, vec![(0x00, 4), (0x80, 4)]);
    }

    #[test]
    fn empty_flush_emits_nothing() {
        let mut c = RunCoalescer::new(6);
        c.flush(|_, _| panic!("no run recorded"));
    }

    #[test]
    fn concatenated_runs_replay_to_identical_cache_state() {
        use crate::{Cache, CacheConfig};
        let addrs: Vec<u64> = (0..200u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 3) % 0x800)
            .collect();
        let mut scalar = Cache::new(CacheConfig::new("t", 512, 64, 2, 1, 1));
        let mut replay = scalar.clone();
        for &a in &addrs {
            scalar.access(a, a % 3 == 0);
        }
        // Record with the coalescer, replay through access_run. Writes
        // vs reads must split runs too, so coalesce per kind streak.
        let mut c = RunCoalescer::new(6);
        let mut runs: Vec<(u64, u64, bool)> = Vec::new();
        let mut kind = false;
        for &a in &addrs {
            let w = a % 3 == 0;
            if w != kind {
                c.flush(|addr, count| runs.push((addr, count, kind)));
                kind = w;
            }
            c.push(a, 1, |addr, count| runs.push((addr, count, w)));
        }
        c.flush(|addr, count| runs.push((addr, count, kind)));
        for (addr, count, w) in runs {
            replay.access_run(addr, w, count);
        }
        assert_eq!(scalar.stats(), replay.stats());
        // Post-state agrees: the next eviction decision is identical.
        assert_eq!(scalar.access(0x1234, false), replay.access(0x1234, false));
    }
}
