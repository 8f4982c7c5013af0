//! Read grouping: the building block of record/replay texture timing.
//!
//! The timing model's recorders describe memory traffic without
//! touching any cache, so parallel shard workers can record while a
//! deterministic tile-ordered merge replays the logs, leaving every
//! cache, DRAM row buffer and stat counter in exactly the state the
//! sequential simulation would have produced.
//!
//! [`LineGrouper`] folds a group of reads that no other access to the
//! cache interleaves (one quad's texture samples) into its distinct
//! lines, which [`Cache::read_group`] replays with one tag lookup per
//! line.
//!
//! [`Cache::read_group`]: crate::Cache::read_group

use crate::cache::GroupLine;

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
/// the address of their first touch. This is pure arithmetic, safe in
/// parallel shard workers.
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
}
