//! # megsim-exec
//!
//! Deterministic parallel execution layer for the MEGsim workspace.
//!
//! Every parallel stage in the reproduction — per-frame functional and
//! cycle-level simulation, similarity-matrix row blocks, multi-seed
//! k-means, random-sampling trials, the per-benchmark experiment
//! fan-out — goes through this crate's ordered-collection primitives:
//!
//! * [`par_map_range`] — map `0..n` to a `Vec` of results **in index
//!   order**, work-stealing across a scoped worker pool.
//! * [`par_map_indexed`] — the same over a slice, passing `(index,
//!   &item)`.
//!
//! ## Determinism
//!
//! Output is *bit-identical regardless of thread count* by
//! construction: the closure for index `i` receives only `i` (plus
//! shared read-only state captured by the caller), and results are
//! collected into their input slots, so scheduling order can never
//! leak into the output. Anything seeded must derive its stream from
//! `i`, never from a shared mutable RNG — the same discipline the
//! workloads crate already uses for per-frame seeds.
//!
//! ## Thread-count control
//!
//! Worker count resolves, in order: the innermost [`with_threads`]
//! scope on the calling thread (e.g. from a `--threads N` flag), the
//! `MEGSIM_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. The count is per-thread
//! state, so concurrent callers (two tests, two batch drivers) each run
//! at the count they asked for. A value of `1` runs inline on the
//! caller with zero pool overhead. No source may ask for more than
//! [`MAX_THREADS`].
//!
//! Nested calls do not oversubscribe: a `par_map_range` issued from
//! inside a pool worker runs sequentially on that worker, so an outer
//! fan-out over benchmarks combined with an inner fan-out over frames
//! still uses exactly the configured number of threads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod pipeline;
pub mod single_flight;

pub use cache::ConcurrentCache;
pub use pipeline::{iter_pipeline, shard_merge};
pub use single_flight::{FlightOutcome, SingleFlight};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crossbeam::thread::{available_parallelism, scope};
use parking_lot::Mutex;

/// The most worker threads any parallel call spawns. Streaming sources
/// (a trace decoder) report no length, so a pass over one spawns the
/// full thread count; an unbounded count would try to spawn that many
/// OS threads. [`with_threads`] clamps to this value and a larger
/// `MEGSIM_THREADS` is ignored as invalid.
pub const MAX_THREADS: usize = 1024;

/// Cached environment/hardware default, resolved once.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set while executing inside a pool worker; nested parallel calls
    /// check it and degrade to sequential execution.
    pub(crate) static IN_POOL: Cell<bool> = const { Cell::new(false) };

    /// This thread's count from the innermost [`with_threads`] scope;
    /// 0 = the `MEGSIM_THREADS` / hardware default.
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Restores the outer scope's count on drop, so a panic inside a
/// [`with_threads`] body cannot leak the inner count.
struct RestoreThreads(usize);

impl Drop for RestoreThreads {
    fn drop(&mut self) {
        SCOPED_THREADS.with(|c| c.set(self.0));
    }
}

/// Runs `f` with the calling thread's worker count set to `n`, clamped
/// to [`MAX_THREADS`]; `0` selects the `MEGSIM_THREADS` / available
/// parallelism default. The previous count is restored when `f`
/// returns or unwinds. Pool workers never read the count, because
/// nested parallel calls run inline; a thread that `f` spawns itself
/// starts at the default.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _restore = RestoreThreads(SCOPED_THREADS.with(|c| c.replace(n.min(MAX_THREADS))));
    f()
}

/// The worker-thread count parallel calls on this thread will use.
pub fn thread_count() -> usize {
    let explicit = SCOPED_THREADS.with(Cell::get);
    if explicit > 0 {
        return explicit;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(value) = std::env::var("MEGSIM_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                if (1..=MAX_THREADS).contains(&n) {
                    return n;
                }
            }
            eprintln!("warning: ignoring invalid MEGSIM_THREADS={value:?}");
        }
        available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
    })
}

/// Whether the current thread is already a pool worker (nested
/// parallel calls run sequentially).
pub fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Maps `0..n` through `f` on the worker pool, returning results in
/// index order.
///
/// `f` must derive everything it needs from the index (plus shared
/// read-only captures); see the crate docs for the determinism
/// contract. Panics in `f` propagate to the caller after all workers
/// have stopped.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = thread_count().min(n);
    if threads <= 1 || in_pool() {
        return (0..n).map(f).collect();
    }
    // Work-stealing index counter: cheap dynamic load balancing that
    // cannot affect the output, because results land in their slots.
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..n).map(|_| None).collect());
    scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                // One lock per worker, at the end, to merge results.
                let mut slots = slots.lock();
                for (i, value) in local {
                    slots[i] = Some(value);
                }
            });
        }
    });
    slots
        .into_inner()
        .into_iter()
        .map(|slot| slot.expect("every index produced"))
        .collect()
}

/// Maps a slice through `f(index, &item)` on the worker pool,
/// returning results in input order.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_range(items.len(), |i| f(i, &items[i]))
}

/// Maps `0..n` in fixed-size chunks through `f(range)` on the worker
/// pool, returning one result per chunk in chunk order.
///
/// The chunk boundaries depend only on `n` and `chunk`, never on the
/// thread count, so splitting work this way preserves the determinism
/// contract even when `f` accumulates floating-point state per chunk:
/// the caller can reduce the returned chunk results in their fixed
/// order.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn par_map_chunks<U, F>(n: usize, chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let chunks = n.div_ceil(chunk);
    par_map_range(chunks, |c| f(c * chunk..((c + 1) * chunk).min(n)))
}

/// Maps `0..n` in fixed-size chunks through `f(range)` on the worker
/// pool and flattens the per-chunk vectors into one `Vec` in index
/// order.
///
/// This is the batch-generation shape: `f` produces one output per
/// index of its chunk (e.g. one synthesized frame per frame index),
/// and because the chunk boundaries depend only on `n` and `chunk`,
/// the concatenated output is bit-identical at every thread count.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn par_flat_map_chunks<U, F>(n: usize, chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<U> + Sync,
{
    let chunks = par_map_chunks(n, chunk, f);
    let mut out = Vec::with_capacity(n);
    for part in chunks {
        out.extend(part);
    }
    out
}

/// Consumes a vector of independent work items on the worker pool,
/// work-stealing one item at a time.
///
/// Unlike [`par_map_range`] this variant lets each item *own* mutable
/// state — typically disjoint `&mut` sub-slices produced by
/// `chunks_mut`/`split_at_mut` — so in-place chunked updates (e.g. a
/// label-assignment pass writing into per-chunk slices of one shared
/// buffer) can run on the pool without collecting and copying results.
/// Scheduling order cannot leak into the output as long as items touch
/// only the state they own.
///
/// Runs inline on the caller when the pool is unavailable (one thread,
/// or already inside a pool worker). Panics in `f` propagate.
pub fn par_for_each_task<T, F>(tasks: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let threads = thread_count().min(tasks.len());
    if threads <= 1 || in_pool() {
        for task in tasks {
            f(task);
        }
        return;
    }
    let queue = Mutex::new(tasks.into_iter());
    scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let task = queue.lock().next();
                    match task {
                        Some(task) => f(task),
                        None => break,
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order() {
        let out = with_threads(8, || par_map_range(1000, |i| i * i));
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let work = |i: usize| {
            // Index-derived pseudo-random work, as the determinism
            // contract requires.
            let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..10 {
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            x
        };
        let outputs: Vec<Vec<u64>> = [1, 2, 3, 8]
            .into_iter()
            .map(|threads| with_threads(threads, || par_map_range(257, work)))
            .collect();
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = with_threads(4, || {
            par_map_range(333, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert_eq!(calls.load(Ordering::Relaxed), 333);
        assert_eq!(out, (0..333).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_do_not_explode() {
        let out = with_threads(4, || {
            par_map_range(6, |i| {
                assert!(in_pool());
                // Inner call runs sequentially on this worker.
                par_map_range(5, move |j| i * 10 + j)
            })
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_indexed_passes_items() {
        let items: Vec<String> = (0..50).map(|i| format!("item{i}")).collect();
        let out = with_threads(3, || par_map_indexed(&items, |i, s| format!("{i}:{s}")));
        assert_eq!(out[49], "49:item49");
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let out: Vec<usize> = par_map_range(0, |i| i);
        assert!(out.is_empty());
        assert_eq!(par_map_range(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_chunks_covers_every_index_once() {
        let chunks = with_threads(4, || par_map_chunks(103, 10, |r| r.collect::<Vec<usize>>()));
        assert_eq!(chunks.len(), 11);
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_chunks_is_thread_count_independent() {
        // Per-chunk float accumulation: chunk boundaries (not the
        // scheduler) define the reduction tree.
        let outputs: Vec<Vec<f64>> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                with_threads(threads, || {
                    par_map_chunks(1000, 64, |r| r.map(|i| (i as f64).sqrt()).sum::<f64>())
                })
            })
            .collect();
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn par_flat_map_chunks_flattens_in_index_order() {
        let outputs: Vec<Vec<usize>> = [1, 4, 8]
            .into_iter()
            .map(|threads| {
                with_threads(threads, || {
                    par_flat_map_chunks(103, 10, |r| r.map(|i| i * 7).collect::<Vec<usize>>())
                })
            })
            .collect();
        assert_eq!(outputs[0], (0..103).map(|i| i * 7).collect::<Vec<_>>());
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn par_for_each_task_runs_every_item_with_owned_state() {
        let mut buffer = vec![0usize; 257];
        let tasks: Vec<(usize, &mut [usize])> = buffer
            .chunks_mut(16)
            .enumerate()
            .map(|(c, chunk)| (c * 16, chunk))
            .collect();
        with_threads(4, || {
            par_for_each_task(tasks, |(start, chunk)| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = (start + off) * 3;
                }
            });
        });
        for (i, v) in buffer.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn par_for_each_task_handles_empty_input() {
        let tasks: Vec<usize> = Vec::new();
        par_for_each_task(tasks, |_| panic!("must not run"));
    }

    #[test]
    fn concurrent_scopes_each_see_their_own_count() {
        // Both threads enter their scope before either checks, so a
        // shared count would be overwritten by the other thread.
        let entered = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for threads in [3, 5] {
                let entered = &entered;
                s.spawn(move || {
                    with_threads(threads, || {
                        entered.wait();
                        assert_eq!(thread_count(), threads);
                        let out = par_map_range(64, |i| i + 1);
                        assert_eq!(out, (1..=64).collect::<Vec<_>>());
                        entered.wait();
                        assert_eq!(thread_count(), threads);
                    });
                });
            }
        });
    }

    #[test]
    fn scopes_nest_and_restore_on_return_and_on_panic() {
        with_threads(3, || {
            with_threads(7, || assert_eq!(thread_count(), 7));
            assert_eq!(thread_count(), 3);
            let unwound =
                std::panic::catch_unwind(|| with_threads(5, || panic!("inside the scope")));
            assert!(unwound.is_err());
            assert_eq!(thread_count(), 3, "a panic must restore the outer count");
        });
    }

    #[test]
    fn counts_clamp_and_zero_selects_the_default() {
        let default = thread_count();
        assert!((1..=MAX_THREADS).contains(&default));
        with_threads(MAX_THREADS + 1, || assert_eq!(thread_count(), MAX_THREADS));
        with_threads(2, || {
            with_threads(0, || assert_eq!(thread_count(), default));
            assert_eq!(thread_count(), 2);
        });
        assert_eq!(thread_count(), default);
    }
}
