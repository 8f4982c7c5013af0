//! A small sharded concurrent memoization cache.
//!
//! Built for the frame-result memoization of the MEGsim pipeline:
//! many worker threads look up 128-bit content keys and misses compute
//! outside any lock. Determinism note: because values stored under a
//! key are themselves deterministic functions of the key
//! (content-addressed), a lost insert race or a capacity-dropped entry
//! can only cause *recompute*, never a different result — so results
//! are bit-identical whether the cache is cold, warm, full, or absent.

use std::collections::HashMap;

use parking_lot::Mutex;

/// Number of independently-locked shards (power of two).
const SHARDS: usize = 16;

/// A fixed-capacity concurrent `u128 → V` map.
///
/// Keys are expected to already be uniformly distributed (content
/// hashes); the top bits select the shard. When a shard reaches its
/// capacity share, further inserts into it are dropped — a full cache
/// degrades to recomputation, never to eviction churn.
pub struct ConcurrentCache<V> {
    shards: Vec<Mutex<HashMap<u128, V>>>,
    per_shard_capacity: usize,
}

impl<V: Clone> ConcurrentCache<V> {
    /// Creates a cache holding at most roughly `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
        }
    }

    #[inline]
    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, V>> {
        &self.shards[(key >> 124) as usize & (SHARDS - 1)]
    }

    /// The value stored under `key`, if any.
    pub fn lookup(&self, key: u128) -> Option<V> {
        self.shard(key).lock().get(&key).cloned()
    }

    /// Stores `key → value` unless the shard is at capacity (the value
    /// is then simply dropped; see the type docs for why that is safe).
    pub fn insert(&self, key: u128, value: V) {
        let mut shard = self.shard(key).lock();
        if shard.len() < self.per_shard_capacity || shard.contains_key(&key) {
            shard.insert(key, value);
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_only_inserted_keys() {
        let cache = ConcurrentCache::new(64);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(1), None);
        cache.insert(1, 10u64);
        assert_eq!(cache.lookup(1), Some(10));
        assert_eq!(cache.lookup(2), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_inserts_per_shard() {
        let cache = ConcurrentCache::new(SHARDS); // 1 entry per shard
                                                  // Keys differing only in low bits land in the same shard.
        cache.insert(1, 1u64);
        cache.insert(2, 2u64);
        assert_eq!(cache.lookup(1), Some(1));
        assert_eq!(cache.lookup(2), None, "shard full: insert dropped");
        // Overwriting an existing key is always allowed.
        cache.insert(1, 3u64);
        assert_eq!(cache.lookup(1), Some(3));
    }

    #[test]
    fn concurrent_use_is_consistent() {
        use std::sync::Arc;
        let cache = Arc::new(ConcurrentCache::new(1024));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for k in 0..256u128 {
                        let key = k << 120; // top bits vary → all shards
                        let v = cache.lookup(key).unwrap_or_else(|| {
                            cache.insert(key, k as u64 * 3);
                            k as u64 * 3
                        });
                        assert_eq!(v, k as u64 * 3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.len(), 256);
    }
}
