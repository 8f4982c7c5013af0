//! In-flight computation dedup ("single-flight") for content-addressed
//! work.
//!
//! A [`ConcurrentCache`](crate::ConcurrentCache) miss computes outside
//! any lock, so two threads missing on the same key both compute —
//! fine for cheap values, wasteful when the value is a full frame
//! simulation. A [`SingleFlight`] map closes that
//! window: the first thread to claim a key becomes the *leader* and
//! computes; any thread arriving while the computation is in flight
//! becomes a *follower*, blocks, and receives a clone of the leader's
//! result. This is what lets two concurrent batch campaigns hitting the
//! same frame simulate it once.
//!
//! Correctness relies on the same content-addressing contract as the
//! cache: a value is a pure function of its key, so serving a follower
//! the leader's result is bit-identical to computing it again.
//!
//! ## Panic safety
//!
//! If a leader's computation panics, the flight is *poisoned*: every
//! follower wakes, abandons the dead flight, and re-contends — one of
//! them becomes the next leader and simply computes. The panic
//! propagates only on the leader's thread.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// How a [`SingleFlight::run`] call obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// This thread ran the computation.
    Led,
    /// This thread waited for a concurrent identical computation and
    /// shares its result.
    Shared,
}

/// State of one in-flight computation.
enum FlightState<V> {
    Running,
    Done(V),
    /// The leader panicked; followers must re-contend.
    Poisoned,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

/// Marks the flight poisoned if the leader unwinds before publishing.
struct PoisonGuard<'a, V> {
    flights: &'a Mutex<HashMap<u128, Arc<Flight<V>>>>,
    flight: &'a Arc<Flight<V>>,
    key: u128,
    armed: bool,
}

impl<V> Drop for PoisonGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            // Remove first so re-contending followers start a fresh
            // flight instead of re-joining the dead one.
            self.flights.lock().expect("flight map").remove(&self.key);
            *self.flight.state.lock().expect("flight state") = FlightState::Poisoned;
            self.flight.done.notify_all();
        }
    }
}

/// A keyed in-flight computation dedup map.
///
/// Holds one entry per key *currently being computed*; completed
/// flights are removed immediately, so memory is bounded by concurrency
/// rather than key cardinality (long-term storage is the cache's job).
pub struct SingleFlight<V> {
    flights: Mutex<HashMap<u128, Arc<Flight<V>>>>,
}

impl<V: Clone> SingleFlight<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Returns `compute()`'s value for `key`, running it on this thread
    /// if no identical computation is in flight, otherwise waiting for
    /// the one that is.
    ///
    /// `compute` must be a pure function of `key` (the value may be
    /// served to concurrent callers). Panics in `compute` propagate to
    /// the leader and make the followers re-contend.
    pub fn run(&self, key: u128, compute: impl FnOnce() -> V) -> (V, FlightOutcome) {
        // One compute closure, shared across loop iterations of the
        // re-contention path (a follower whose leader panicked).
        let mut compute = Some(compute);
        loop {
            let (flight, leader) = {
                let mut flights = self.flights.lock().expect("flight map");
                match flights.get(&key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Running),
                            done: Condvar::new(),
                        });
                        flights.insert(key, Arc::clone(&flight));
                        (flight, true)
                    }
                }
            };
            if leader {
                let mut guard = PoisonGuard {
                    flights: &self.flights,
                    flight: &flight,
                    key,
                    armed: true,
                };
                let value = (compute.take().expect("leader computes once"))();
                guard.armed = false;
                drop(guard);
                self.flights.lock().expect("flight map").remove(&key);
                *flight.state.lock().expect("flight state") = FlightState::Done(value.clone());
                flight.done.notify_all();
                return (value, FlightOutcome::Led);
            }
            // Follower: wait for the leader to publish or poison.
            let mut state = flight.state.lock().expect("flight state");
            loop {
                match &*state {
                    FlightState::Running => {
                        state = flight.done.wait(state).expect("flight state");
                    }
                    FlightState::Done(value) => return (value.clone(), FlightOutcome::Shared),
                    FlightState::Poisoned => break,
                }
            }
            // Leader died; loop and re-contend for a fresh flight.
        }
    }

    /// Keys currently being computed.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.flights.lock().expect("flight map").len()
    }
}

impl<V: Clone> Default for SingleFlight<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_calls_each_lead() {
        let sf = SingleFlight::new();
        let (v, outcome) = sf.run(1, || 10u64);
        assert_eq!((v, outcome), (10, FlightOutcome::Led));
        // The flight is gone once done: the next call computes afresh.
        let (v, outcome) = sf.run(1, || 20u64);
        assert_eq!((v, outcome), (20, FlightOutcome::Led));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let sf = Arc::new(SingleFlight::new());
        let computes = Arc::new(AtomicU64::new(0));
        let shared = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let computes = Arc::clone(&computes);
                let shared = Arc::clone(&shared);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    let (v, outcome) = sf.run(42, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        // Widen the in-flight window so followers pile up.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        7u64
                    });
                    assert_eq!(v, 7);
                    if outcome == FlightOutcome::Shared {
                        shared.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // All eight calls raced the same key. At least one led; the
        // sleep makes "exactly one" overwhelmingly likely, but the only
        // *guarantee* is computes + shared == 8.
        let computes = computes.load(Ordering::Relaxed);
        let shared = shared.load(Ordering::Relaxed);
        assert!(computes >= 1);
        assert_eq!(computes + shared, 8);
        assert!(shared > 0, "no dedup observed despite the window");
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_do_not_serialize() {
        let sf = Arc::new(SingleFlight::new());
        let threads: Vec<_> = (0..4u64)
            .map(|k| {
                let sf = Arc::clone(&sf);
                std::thread::spawn(move || sf.run(u128::from(k), move || k * 3))
            })
            .collect();
        let results: Vec<(u64, FlightOutcome)> =
            threads.into_iter().map(|t| t.join().unwrap()).collect();
        let values: Vec<u64> = results.iter().map(|r| r.0).collect();
        assert_eq!(values, vec![0, 3, 6, 9]);
        assert!(results.iter().all(|r| r.1 == FlightOutcome::Led));
    }

    #[test]
    fn leader_panic_poisons_and_followers_recover() {
        let sf = Arc::new(SingleFlight::new());
        let gate = Arc::new(Barrier::new(2));
        let leader = {
            let sf = Arc::clone(&sf);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _ = sf.run(9, || {
                    gate.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("leader dies");
                    #[allow(unreachable_code)]
                    0u64
                });
            })
        };
        let follower = {
            let sf = Arc::clone(&sf);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                // Arrive while the leader is (probably) still alive;
                // either join-and-recover or lead directly — both must
                // produce the value.
                sf.run(9, || 5u64).0
            })
        };
        assert!(leader.join().is_err(), "leader panic must propagate");
        assert_eq!(follower.join().unwrap(), 5);
        assert_eq!(sf.in_flight(), 0, "poisoned flight must not leak");
    }
}
