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
//! [`LineGrouper`] goes one step further for a group of reads that no
//! other access to the cache interleaves (one quad's texture samples):
//! it folds the group into its distinct lines, which
//! [`Cache::read_group`] replays with one tag lookup per line.
//!
//! [`Cache::access_run`]: crate::Cache::access_run
//! [`Cache::read_group`]: crate::Cache::read_group

use crate::cache::GroupLine;

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

/// Keys a [`LineGrouper`] tells apart: `0..GROUP_KEYS`.
const GROUP_KEYS: usize = 32;

/// Marks a key with no line yet in [`LineGrouper`]'s slot table.
const NO_LINE: u8 = u8::MAX;

/// Folds one group of reads into its distinct lines in first-touch
/// order plus its trailing repeat count — the input of
/// [`crate::Cache::read_group`].
///
/// The group is fed, after [`LineGrouper::clear`], one access at a time
/// in stream order, each with a **key** below 32 that the caller
/// guarantees identifies its line within the group (same key if and
/// only if same line), so no access compares addresses. A line's first
/// run is the maximal streak of accesses that first touches it; every
/// later access to it is a repeat, counted into the `gap` of the next
/// new line or into [`LineGrouper::trailing`]. The grouped lines carry
/// the address of their first touch. Like [`RunCoalescer`] this is pure
/// arithmetic, safe in parallel shard workers.
#[derive(Debug, Clone)]
pub struct LineGrouper {
    /// Index in `lines` of each key's line, or [`NO_LINE`].
    slot: [u8; GROUP_KEYS],
    /// The group's lines.
    lines: [GroupLine; GROUP_KEYS],
    /// Lines in the group.
    n: usize,
    /// Index in `lines` of the last access's line.
    open: usize,
    /// Whether the last access extended its line's first run.
    open_first: bool,
    /// Accesses pushed since the group started.
    len: u32,
    /// Repeat accesses since the newest line's first run.
    pending: u32,
}

impl Default for LineGrouper {
    fn default() -> Self {
        Self {
            slot: [NO_LINE; GROUP_KEYS],
            lines: [GroupLine::default(); GROUP_KEYS],
            n: 0,
            open: 0,
            open_first: false,
            len: 0,
            pending: 0,
        }
    }
}

impl LineGrouper {
    /// Starts a new group.
    pub fn clear(&mut self) {
        self.slot = [NO_LINE; GROUP_KEYS];
        self.n = 0;
        self.len = 0;
        self.pending = 0;
    }

    /// Adds one access to `addr`, whose line the group knows by `key`;
    /// returns whether it is the line's first touch.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not below 32.
    pub fn push(&mut self, key: u8, addr: u64) -> bool {
        self.len += 1;
        let slot = &mut self.slot[usize::from(key)];
        if *slot == NO_LINE {
            *slot = self.n as u8;
            self.lines[self.n] = GroupLine {
                addr,
                gap: self.pending,
                run: 1,
                last: self.len,
            };
            self.pending = 0;
            self.open = self.n;
            self.open_first = true;
            self.n += 1;
            return true;
        }
        let idx = usize::from(*slot);
        if idx == self.open && self.open_first {
            self.lines[idx].run += 1;
        } else {
            self.pending += 1;
            self.open_first = false;
        }
        self.lines[idx].last = self.len;
        self.open = idx;
        false
    }

    /// The group's distinct lines in first-touch order.
    pub fn lines(&self) -> &[GroupLine] {
        &self.lines[..self.n]
    }

    /// Repeat accesses after the last line's first run.
    pub fn trailing(&self) -> u32 {
        self.pending
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
    fn grouper_folds_repeats_into_gaps_and_trailing() {
        use crate::{CacheConfig, GroupLine};
        // 64-byte lines, 4 sets × 2 ways; keyed by line number. Stream
        // (lines): A A | B | A A | B | C | A — C is new after four
        // repeats, A trails.
        let config = CacheConfig::new("t", 512, 64, 2, 1, 1);
        let mut g = LineGrouper::default();
        let push = |g: &mut LineGrouper, addr: u64| g.push((addr >> 6) as u8, addr);
        g.clear();
        let first_touches: Vec<bool> = [0x08, 0x0c, 0x40, 0x10, 0x14, 0x48, 0x80, 0x00]
            .into_iter()
            .map(|addr| push(&mut g, addr))
            .collect();
        assert_eq!(
            first_touches,
            [true, false, true, false, false, false, true, false]
        );
        let line = |addr, gap, run, last| GroupLine {
            addr,
            gap,
            run,
            last,
        };
        assert_eq!(
            g.lines(),
            [
                line(0x08, 0, 2, 8),
                line(0x40, 0, 1, 6),
                line(0x80, 3, 1, 7)
            ]
        );
        assert_eq!(g.trailing(), 1);
        assert!(config.fits_group(g.lines()));
        // Set 0 holds lines 0x000 and 0x100; a third (0x200) overflows
        // its two ways.
        push(&mut g, 0x100);
        assert!(config.fits_group(g.lines()));
        push(&mut g, 0x200);
        assert!(!config.fits_group(g.lines()));
        g.clear();
        assert!(g.lines().is_empty() && g.trailing() == 0);
        push(&mut g, 0x40);
        assert_eq!(g.lines(), [line(0x40, 0, 1, 1)]);
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
