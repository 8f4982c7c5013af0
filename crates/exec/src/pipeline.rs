//! Ordered bounded streaming pipelines.
//!
//! [`iter_pipeline`] decouples a parallelizable *map* stage from an
//! order-dependent *consume* stage: workers pull the input iterator in
//! turn, map its items across the worker pool and run ahead by at most
//! `capacity` items, and the consumer runs **on the caller thread,
//! strictly in index order**. This is the shape of
//! warm-sequence GPU simulation — frame `N + 1` renders (stateless,
//! parallel) while frame `N` runs through the timing model (stateful,
//! sequential) — and of any other stateful-fold-over-parallel-map
//! stage. [`iter_fold`] and [`shard_merge`] are thin shapes over it.

use std::sync::{Condvar, Mutex};

use crossbeam::thread::scope;

use crate::{in_pool, thread_count, IN_POOL};

/// Runs a cleanup closure on drop unless disarmed — used to mark the
/// pipeline failed (waking every blocked stage) when the caller-thread
/// consume stage unwinds, so the scope join can propagate the panic
/// instead of deadlocking.
struct UnwindGuard<F: Fn()> {
    on_unwind: F,
    armed: bool,
}

impl<F: Fn()> Drop for UnwindGuard<F> {
    fn drop(&mut self) {
        if self.armed {
            (self.on_unwind)();
        }
    }
}

/// Output-side state of [`iter_pipeline`]: the ordered ring plus the
/// total item count, known only once the source is exhausted.
struct StreamShared<U> {
    ring: Vec<Option<U>>,
    consumed: usize,
    total: Option<usize>,
    failed: bool,
}

/// Streaming pipeline over a sequential source of unknown length: the
/// worker pool pulls `source` in turn, maps items concurrently, and
/// `consume(i, mapped)` runs on the caller thread in strict index
/// order.
///
/// This is the decode → render → timing shape of streaming trace
/// replay: workers decode frames off the trace reader one at a time and
/// render them while the caller's stateful timing model consumes the
/// oldest one. Taking an iterator rather than an index range is what
/// lets it drive producers that cannot be indexed randomly (an iterator
/// is the only way to observe a streaming decoder).
///
/// ## Determinism
///
/// Items are tagged with their pull order (pulls are serialized by a
/// lock around the source), `map(i, item)` must depend only on its
/// arguments (plus shared read-only captures), and the consumer
/// observes results in index order on one thread — so the fold is
/// bit-identical to the plain sequential `for` loop at every thread
/// count and capacity.
///
/// ## Backpressure
///
/// At most `capacity` mapped-but-unconsumed items are buffered, and a
/// worker that pulled item `i` waits until `i` fits the consumer's
/// window before mapping it. Peak memory is therefore bounded by
/// `capacity` mapped items plus one item per worker, regardless of
/// stream length.
///
/// Falls back to the inline sequential loop when the pool would not
/// help (one thread, nested inside a pool worker, `capacity == 0`, or a
/// source whose `size_hint` promises at most one item), and never
/// spawns more workers than that upper bound. Panics in `source`, `map`
/// or `consume` propagate to the caller.
pub fn iter_pipeline<I, T, U, M, C>(source: I, capacity: usize, map: M, mut consume: C)
where
    I: Iterator<Item = T> + Send,
    T: Send,
    U: Send,
    M: Fn(usize, T) -> U + Sync,
    C: FnMut(usize, U),
{
    let max_items = source.size_hint().1.unwrap_or(usize::MAX);
    let workers = thread_count().saturating_sub(1).min(max_items);
    if workers == 0 || in_pool() || capacity == 0 || max_items <= 1 {
        for (i, item) in source.enumerate() {
            let mapped = map(i, item);
            consume(i, mapped);
        }
        return;
    }
    // The source plus the number of items pulled so far. Fused, so once
    // one worker sees it end every later pull sees the same end.
    let input = Mutex::new((source.fuse(), 0usize));
    let output: Mutex<StreamShared<U>> = Mutex::new(StreamShared {
        ring: (0..capacity).map(|_| None).collect(),
        consumed: 0,
        total: None,
        failed: false,
    });
    let out_ready = Condvar::new(); // consumer waits for its slot
    let out_space = Condvar::new(); // workers wait for the window

    // Marks the pipeline failed and wakes every waiter, so a panic in
    // any stage unblocks the others and the scope join can propagate it.
    let fail_all = || {
        if let Ok(mut st) = output.lock() {
            st.failed = true;
        }
        out_ready.notify_all();
        out_space.notify_all();
    };
    scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                    // A poisoned source lock means another worker
                    // panicked pulling; it fails the pipeline itself.
                    let Ok(mut src) = input.lock() else {
                        return;
                    };
                    let (iter, pulled) = &mut *src;
                    let i = *pulled;
                    let Some(item) = iter.next() else {
                        drop(src);
                        output.lock().expect("stream output state").total = Some(i);
                        out_ready.notify_all();
                        return;
                    };
                    *pulled += 1;
                    drop(src);
                    // Backpressure: wait until index `i` fits in the
                    // window the consumer has opened.
                    {
                        let mut st = output.lock().expect("stream output state");
                        while i >= st.consumed + capacity && !st.failed {
                            st = out_space.wait(st).expect("stream output state");
                        }
                        if st.failed {
                            return;
                        }
                    }
                    let mapped = map(i, item);
                    let mut st = output.lock().expect("stream output state");
                    let slot = i % capacity;
                    debug_assert!(st.ring[slot].is_none(), "slot reused before consumption");
                    st.ring[slot] = Some(mapped);
                    drop(st);
                    out_ready.notify_all();
                }));
                if let Err(payload) = result {
                    fail_all();
                    std::panic::resume_unwind(payload);
                }
            });
        }
        // Consume stage: the caller thread folds in index order. The
        // guard marks the pipeline failed if `consume` unwinds, so the
        // workers wake up and exit instead of deadlocking the scope
        // join.
        let mut guard = UnwindGuard {
            on_unwind: &fail_all,
            armed: true,
        };
        let mut i = 0usize;
        loop {
            let item = {
                let slot = i % capacity;
                let mut st = output.lock().expect("stream output state");
                loop {
                    if st.failed || st.total.is_some_and(|t| i >= t) {
                        break None;
                    }
                    if st.ring[slot].is_some() {
                        let item = st.ring[slot].take().expect("slot filled");
                        st.consumed = i + 1;
                        break Some(item);
                    }
                    st = out_ready.wait(st).expect("stream output state");
                }
            };
            let Some(item) = item else {
                break;
            };
            out_space.notify_all();
            consume(i, item);
            i += 1;
        }
        guard.armed = false;
    });
}

/// [`iter_pipeline`] folding into an accumulator: the pool pulls the
/// iterator in order and maps, and `fold(&mut acc, i,
/// mapped)` runs on the caller thread in strict index order — the
/// single-pass shape of a fused characterize → online-cluster pipeline,
/// where the accumulator is a streaming clusterer consuming one mapped
/// frame at a time.
///
/// Because the fold observes items in index order on one thread, the
/// result is bit-identical to the plain sequential loop at every
/// thread count and capacity (same contract as [`iter_pipeline`]).
/// Panics in any stage propagate to the caller.
pub fn iter_fold<I, T, U, A, M, F>(source: I, capacity: usize, map: M, init: A, mut fold: F) -> A
where
    I: Iterator<Item = T> + Send,
    T: Send,
    U: Send,
    M: Fn(usize, T) -> U + Sync,
    F: FnMut(&mut A, usize, U),
{
    let mut acc = init;
    iter_pipeline(source, capacity, map, |i, item| fold(&mut acc, i, item));
    acc
}

/// Shards `0..n` into fixed `chunk`-sized ranges, maps each range on
/// the worker pool, and merges the results **in shard order** on the
/// caller thread — the record/replay shape of intra-frame parallel
/// timing: shard workers record independent per-tile logs while the
/// caller replays completed shards against shared stateful machinery
/// (caches, DRAM), with producers running at most `capacity` shards
/// ahead of the merge.
///
/// Shard boundaries depend only on `n` and `chunk`, and the merge
/// observes shards in ascending index order on one thread, so the
/// merged result is bit-identical to the sequential
/// `map → merge` loop at every thread count *and* every chunk size
/// whose per-shard map is itself chunk-independent (a pure map over
/// the range's items). Built on [`iter_pipeline`] over the shard
/// ranges, so the map stage overlaps the merge of earlier shards
/// instead of barriering.
///
/// # Panics
///
/// Panics if `chunk` is zero; panics in `map`/`merge` propagate.
pub fn shard_merge<T, M, F>(n: usize, chunk: usize, capacity: usize, map: M, mut merge: F)
where
    T: Send,
    M: Fn(std::ops::Range<usize>) -> T + Sync,
    F: FnMut(std::ops::Range<usize>, T),
{
    assert!(chunk > 0, "shard size must be positive");
    let range_of = move |s: usize| s * chunk..((s + 1) * chunk).min(n);
    iter_pipeline(
        (0..n.div_ceil(chunk)).map(range_of),
        capacity,
        |_, range| map(range),
        |s, item| merge(range_of(s), item),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn iter_fold_matches_sequential_at_any_thread_count() {
        // An order-sensitive accumulator over a sequential source: the
        // streaming-clusterer shape (push rows in arrival order).
        let run = || {
            iter_fold(
                (0..311u64).map(|x| x.wrapping_mul(0x2545_F491_4F6C_DD1D)),
                4,
                |i, x| x.rotate_left((i % 29) as u32),
                (0u64, Vec::new()),
                |acc: &mut (u64, Vec<u64>), i, v| {
                    acc.0 = acc.0.wrapping_mul(31).wrapping_add(v ^ i as u64);
                    acc.1.push(v);
                },
            )
        };
        let baseline = with_threads(1, run);
        assert_eq!(baseline.1.len(), 311);
        for threads in [2, 3, 8] {
            assert_eq!(with_threads(threads, run), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn shard_merge_covers_ranges_in_order_at_any_thread_count() {
        let run = |threads: usize| {
            with_threads(threads, || {
                // Order-sensitive merge over per-shard partial sums: the
                // stateful-replay shape of sharded timing.
                let mut folded = 0u64;
                let mut seen: Vec<std::ops::Range<usize>> = Vec::new();
                shard_merge(
                    103,
                    8,
                    4,
                    |r| r.map(|i| (i as u64).wrapping_mul(31)).sum::<u64>(),
                    |r, sum: u64| {
                        folded = folded.rotate_left(7) ^ sum;
                        seen.push(r);
                    },
                );
                (folded, seen)
            })
        };
        let (baseline, ranges) = run(1);
        assert_eq!(ranges.len(), 13);
        assert_eq!(ranges[0], 0..8);
        assert_eq!(ranges[12], 96..103);
        for threads in [2, 8] {
            assert_eq!(run(threads).0, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn shard_merge_handles_empty_and_single() {
        with_threads(4, || {
            let mut calls = 0;
            shard_merge(0, 4, 2, |r| r.len(), |_, _| calls += 1);
            assert_eq!(calls, 0);
            shard_merge(
                3,
                8,
                2,
                |r| r.len(),
                |r, len| {
                    calls += 1;
                    assert_eq!(r, 0..3);
                    assert_eq!(len, 3);
                },
            );
            assert_eq!(calls, 1);
        });
    }

    #[test]
    fn iter_pipeline_consumes_in_order_at_any_thread_count() {
        let run = |threads: usize| {
            with_threads(threads, || {
                // Order-sensitive fold over a mapped stream: the
                // streamed decode -> render -> timing shape.
                let mut folded = 0u64;
                let mut order = Vec::new();
                iter_pipeline(
                    (0..257u64).map(|i| i * 3),
                    4,
                    |i, v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
                    |i, v| {
                        folded = folded.rotate_left((i % 11) as u32) ^ v;
                        order.push(i);
                    },
                );
                (folded, order)
            })
        };
        let (baseline, order) = run(1);
        assert_eq!(order, (0..257).collect::<Vec<_>>());
        for threads in [2, 3, 8] {
            assert_eq!(run(threads).0, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn iter_pipeline_bounds_buffered_items() {
        let pulled = AtomicU64::new(0);
        let mut consumed = 0u64;
        let capacity = 3u64;
        let workers = 7u64; // thread_count() - 1 map workers
        with_threads(8, || {
            iter_pipeline(
                (0..200u64).inspect(|_| {
                    pulled.fetch_add(1, Ordering::SeqCst);
                }),
                capacity as usize,
                |_, v| v,
                |_, _| {
                    consumed += 1;
                    let in_flight = pulled.load(Ordering::SeqCst) - consumed;
                    // Source queue + ordered ring are each capped at
                    // `capacity`; up to one more item per worker may be
                    // mid-map, and the source holds one pulled item while
                    // it waits for queue space.
                    assert!(
                        in_flight <= 2 * capacity + workers + 1,
                        "{in_flight} items outstanding"
                    );
                },
            );
        });
        assert_eq!(consumed, 200);
    }

    #[test]
    fn iter_pipeline_handles_empty_and_tiny_streams() {
        with_threads(4, || {
            let mut calls = 0;
            iter_pipeline(std::iter::empty::<u32>(), 4, |_, v| v, |_, _| calls += 1);
            assert_eq!(calls, 0);
            let mut seen = Vec::new();
            iter_pipeline(std::iter::once(41u32), 4, |_, v| v + 1, |_, v| seen.push(v));
            assert_eq!(seen, vec![42]);
            // Capacity 1: full lock-step, still complete and ordered.
            let mut n = 0usize;
            iter_pipeline(
                0..64usize,
                1,
                |_, v| v,
                |i, v| {
                    assert_eq!(i, v);
                    n += 1;
                },
            );
            assert_eq!(n, 64);
        });
    }

    #[test]
    fn iter_pipeline_nested_inside_pool_runs_inline() {
        let out = with_threads(4, || {
            crate::par_map_range(4, |i| {
                let mut inner = Vec::new();
                iter_pipeline(0..5usize, 2, |_, j| i * 10 + j, |_, v| inner.push(v));
                inner
            })
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_merge_nested_inside_pool_runs_inline() {
        let out = with_threads(4, || {
            crate::par_map_range(4, |i| {
                let mut inner = Vec::new();
                shard_merge(5, 2, 2, |r| i * 10 + r.start, |_, v| inner.push(v));
                inner
            })
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, vec![i * 10, i * 10 + 2, i * 10 + 4]);
        }
    }

    #[test]
    fn iter_pipeline_propagates_a_source_panic() {
        let source = (0..64u32).inspect(|&i| assert!(i != 20, "source failed"));
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || iter_pipeline(source, 4, |_, v| v, |_, _| {}))
        });
        assert!(result.is_err(), "a source panic must reach the caller");
    }

    #[test]
    fn shard_merge_propagates_panics_from_either_stage() {
        let map_panic = std::panic::catch_unwind(|| {
            with_threads(4, || {
                shard_merge(
                    64,
                    4,
                    2,
                    |r| {
                        assert!(r.start != 32, "map failed");
                        r.len()
                    },
                    |_, _| {},
                )
            })
        });
        let merge_panic = std::panic::catch_unwind(|| {
            with_threads(4, || {
                shard_merge(
                    64,
                    4,
                    2,
                    |r| r.start,
                    |_, start| assert!(start != 32, "merge failed"),
                )
            })
        });
        assert!(map_panic.is_err(), "a map panic must reach the caller");
        assert!(merge_panic.is_err(), "a merge panic must reach the caller");
    }
}
