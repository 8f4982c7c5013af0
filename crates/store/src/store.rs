//! The persistent content-addressed store: sharded append-only log
//! segments under one directory, an in-memory index built on open, and
//! write-behind flushes sealed by atomic rename.
//!
//! ## Layout
//!
//! A store directory holds sealed segment files named
//! `s<shard:02x>-<seq:06>-<pid>.seg` plus short-lived `*.tmp` files
//! that a flush is still writing. Only `.seg` files are ever read:
//! a flush builds the complete segment image in memory, writes it to a
//! `.tmp` sibling, syncs it, and atomically renames it into place — so
//! a crash at any point leaves either no new segment or a fully valid
//! one, and a reader never observes a half-written file name it would
//! trust. The pid in the name keeps concurrent processes writing to the
//! same directory from colliding; duplicate keys across segments are
//! harmless because values are content-addressed (identical by
//! construction), with later segments winning the index.
//!
//! ## Degradation contract
//!
//! Nothing this store reads can fail a run. Corrupt headers, torn
//! tails, CRC failures and vanished files all degrade to *misses*
//! (counted in [`StoreStats`]), and the caller falls back to
//! recomputation — the same result, computed instead of read.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use crate::segment::{self, RecordRef, MAX_PAYLOAD};

/// Number of independently locked shards; segment files are also
/// per-shard. Matches the in-memory cache's shard selection (top bits
/// of the uniformly distributed fingerprint).
const SHARDS: usize = 16;

/// Where an indexed record lives on disk.
#[derive(Debug, Clone, Copy)]
struct Loc {
    /// Index into [`Store::segments`].
    file: u32,
    /// Offset of the record start within that segment.
    offset: u64,
    /// Total record length, framing included.
    len: u32,
}

/// One shard: its in-memory index plus records buffered for the next
/// flush.
#[derive(Debug, Default)]
struct Shard {
    index: HashMap<u128, Loc>,
    pending: HashMap<u128, Vec<u8>>,
}

/// Counters describing the store's health and traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files indexed.
    pub segments: u64,
    /// Records currently indexed (readable from disk).
    pub records: u64,
    /// Records buffered for the next flush.
    pub pending: u64,
    /// Records (or whole segments) dropped because they failed framing
    /// or CRC checks — on open or on a disk read.
    pub corrupt_records: u64,
    /// Disk-tier reads that returned a payload.
    pub reads_served: u64,
    /// Disk-tier reads that missed (absent, corrupt, or unreadable).
    pub reads_missed: u64,
}

/// A persistent `u128 → bytes` store over one directory.
pub struct Store {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
    /// Open sealed segments; a `Loc::file` indexes this list. Pushed
    /// only while holding `flush_lock`, read under the `RwLock`.
    segments: RwLock<Vec<Mutex<File>>>,
    /// Serializes flush rotations.
    flush_lock: Mutex<()>,
    /// Next segment sequence number for this process.
    next_seq: AtomicU64,
    corrupt_records: AtomicU64,
    reads_served: AtomicU64,
    reads_missed: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, scanning every
    /// sealed segment into the in-memory index.
    ///
    /// Damaged segments degrade to fewer indexed records, never to an
    /// error; only directory creation/listing problems fail.
    pub fn open(dir: &Path) -> std::io::Result<Store> {
        fs::create_dir_all(dir)?;
        let mut names: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        // Deterministic open order; later files win duplicate keys.
        names.sort();
        let store = Store {
            dir: dir.to_path_buf(),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            segments: RwLock::new(Vec::new()),
            flush_lock: Mutex::new(()),
            next_seq: AtomicU64::new(0),
            corrupt_records: AtomicU64::new(0),
            reads_served: AtomicU64::new(0),
            reads_missed: AtomicU64::new(0),
        };
        let mut max_seq = 0u64;
        for path in names {
            max_seq = max_seq.max(sequence_of(&path));
            store.index_segment(&path);
        }
        store.next_seq.store(max_seq + 1, Ordering::Relaxed);
        Ok(store)
    }

    /// Reads, scans and indexes one sealed segment. Unreadable or
    /// corrupt content degrades to fewer records.
    fn index_segment(&self, path: &Path) {
        let mut bytes = Vec::new();
        let Ok(mut file) = File::open(path) else {
            self.corrupt_records.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if file.read_to_end(&mut bytes).is_err() {
            self.corrupt_records.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let outcome = segment::scan(&bytes);
        if outcome.corrupt {
            self.corrupt_records.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.records.is_empty() {
            return;
        }
        let file_idx = {
            let mut segments = self.segments.write();
            segments.push(Mutex::new(file));
            (segments.len() - 1) as u32
        };
        for RecordRef {
            key,
            offset,
            payload_len,
        } in outcome.records
        {
            self.shard(key).lock().index.insert(
                key,
                Loc {
                    file: file_idx,
                    offset,
                    len: (segment::RECORD_OVERHEAD + payload_len as usize) as u32,
                },
            );
        }
    }

    #[inline]
    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key >> 124) as usize & (SHARDS - 1)]
    }

    /// Looks `key` up: first in the un-flushed pending buffer, then on
    /// disk. A record that fails re-verification (bit rot since open)
    /// counts as corrupt and misses.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        let loc = {
            let shard = self.shard(key).lock();
            if let Some(payload) = shard.pending.get(&key) {
                self.reads_served.fetch_add(1, Ordering::Relaxed);
                return Some(payload.clone());
            }
            shard.index.get(&key).copied()
        };
        let Some(loc) = loc else {
            self.reads_missed.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match self.read_at(loc, key) {
            Some(payload) => {
                self.reads_served.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                // The entry indexed fine on open but no longer reads
                // back: drop it so later lookups miss cheaply.
                self.shard(key).lock().index.remove(&key);
                self.corrupt_records.fetch_add(1, Ordering::Relaxed);
                self.reads_missed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Reads and re-verifies one record image from its segment.
    fn read_at(&self, loc: Loc, key: u128) -> Option<Vec<u8>> {
        let segments = self.segments.read();
        let mut file = segments.get(loc.file as usize)?.lock();
        let mut image = vec![0u8; loc.len as usize];
        file.seek(SeekFrom::Start(loc.offset)).ok()?;
        file.read_exact(&mut image).ok()?;
        segment::verify_record(&image, key).map(<[u8]>::to_vec)
    }

    /// Buffers `key → payload` for the next [`flush`](Store::flush)
    /// (write-behind). Re-puts of an already stored or pending key are
    /// dropped: values are content-addressed, so the first write is as
    /// good as any.
    ///
    /// Oversized payloads (over [`MAX_PAYLOAD`]) are silently dropped —
    /// the store only ever degrades to recomputation.
    pub fn put(&self, key: u128, payload: Vec<u8>) {
        if payload.len() > MAX_PAYLOAD {
            return;
        }
        let mut shard = self.shard(key).lock();
        if shard.index.contains_key(&key) || shard.pending.contains_key(&key) {
            return;
        }
        shard.pending.insert(key, payload);
    }

    /// Seals every shard's pending records into new segment files:
    /// each image is fully written to a `.tmp` sibling, synced, then
    /// atomically renamed into place, so a crash never publishes a
    /// partial segment.
    ///
    /// Returns the number of records sealed. IO failures leave the
    /// affected records pending (retried by a later flush) and return
    /// the error after attempting every shard.
    pub fn flush(&self) -> std::io::Result<u64> {
        let _rotation = self.flush_lock.lock();
        let mut sealed = 0u64;
        let mut first_error = None;
        for shard_idx in 0..SHARDS {
            // Snapshot and release: simulation threads keep hitting the
            // shard while its image is built and written.
            let pending: Vec<(u128, Vec<u8>)> = {
                let shard = self.shards[shard_idx].lock();
                let mut p: Vec<_> = shard.pending.iter().map(|(k, v)| (*k, v.clone())).collect();
                // Deterministic record order within a segment.
                p.sort_by_key(|(k, _)| *k);
                p
            };
            if pending.is_empty() {
                continue;
            }
            match self.seal_segment(shard_idx, &pending) {
                Ok(file_idx) => {
                    sealed += pending.len() as u64;
                    let mut image_offset = segment::HEADER_LEN as u64;
                    let mut shard = self.shards[shard_idx].lock();
                    for (key, payload) in pending {
                        let len = (segment::RECORD_OVERHEAD + payload.len()) as u32;
                        shard.index.insert(
                            key,
                            Loc {
                                file: file_idx,
                                offset: image_offset,
                                len,
                            },
                        );
                        image_offset += u64::from(len);
                        shard.pending.remove(&key);
                    }
                }
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(sealed),
        }
    }

    /// Builds, writes, syncs and renames one segment; returns its index
    /// in the open-segment list.
    fn seal_segment(&self, shard_idx: usize, records: &[(u128, Vec<u8>)]) -> std::io::Result<u32> {
        let mut image = Vec::new();
        segment::write_header(&mut image);
        for (key, payload) in records {
            segment::append_record(&mut image, *key, payload);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let final_name = format!("s{shard_idx:02x}-{seq:06}-{pid}.seg");
        let tmp_path = self.dir.join(format!("{final_name}.tmp"));
        let final_path = self.dir.join(&final_name);
        let mut tmp = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp_path)?;
        let write = std::io::Write::write_all(&mut tmp, &image).and_then(|()| tmp.sync_all());
        if let Err(e) = write {
            drop(tmp);
            let _ = fs::remove_file(&tmp_path);
            return Err(e);
        }
        drop(tmp);
        if let Err(e) = fs::rename(&tmp_path, &final_path) {
            let _ = fs::remove_file(&tmp_path);
            return Err(e);
        }
        let file = File::open(&final_path)?;
        let mut segments = self.segments.write();
        segments.push(Mutex::new(file));
        Ok((segments.len() - 1) as u32)
    }

    /// Current counters.
    fn stats(&self) -> StoreStats {
        let mut records = 0u64;
        let mut pending = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            records += shard.index.len() as u64;
            pending += shard.pending.len() as u64;
        }
        StoreStats {
            segments: self.segments.read().len() as u64,
            records,
            pending,
            corrupt_records: self.corrupt_records.load(Ordering::Relaxed),
            reads_served: self.reads_served.load(Ordering::Relaxed),
            reads_missed: self.reads_missed.load(Ordering::Relaxed),
        }
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Store {
    /// Best-effort final flush: write-behind records are sealed when
    /// the store goes away, and failures only cost warmth.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Parses the sequence number out of a segment file name; unknown
/// shapes sort as zero (harmless: sequence only seeds `next_seq`).
fn sequence_of(path: &Path) -> u64 {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.split('-').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("megsim_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let store = Store::open(&dir).expect("open");
            store.put(1, b"one".to_vec());
            store.put(2 << 120, b"two".to_vec());
            // Pending entries are readable before any flush.
            assert_eq!(store.get(1), Some(b"one".to_vec()));
            assert_eq!(store.flush().expect("flush"), 2);
        }
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.get(1), Some(b"one".to_vec()));
        assert_eq!(store.get(2 << 120), Some(b"two".to_vec()));
        assert_eq!(store.get(3), None);
        let stats = store.stats();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.reads_served, 2);
        assert_eq!(stats.reads_missed, 1);
        assert_eq!(stats.corrupt_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reput_of_existing_key_is_dropped() {
        let dir = tmp_dir("reput");
        let store = Store::open(&dir).expect("open");
        store.put(9, b"first".to_vec());
        store.put(9, b"second".to_vec());
        assert_eq!(store.get(9), Some(b"first".to_vec()));
        store.flush().expect("flush");
        store.put(9, b"third".to_vec());
        assert_eq!(store.stats().pending, 0, "re-put after seal must drop");
        assert_eq!(store.get(9), Some(b"first".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_of_empty_store_is_a_noop() {
        let dir = tmp_dir("empty");
        let store = Store::open(&dir).expect("open");
        assert_eq!(store.flush().expect("flush"), 0);
        assert_eq!((store.stats().records, store.stats().pending), (0, 0));
        assert_eq!(store.stats().segments, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_files_from_a_crashed_flush_are_ignored() {
        let dir = tmp_dir("tmpfiles");
        {
            let store = Store::open(&dir).expect("open");
            store.put(5, b"kept".to_vec());
            store.flush().expect("flush");
        }
        // A crash between tmp write and rename leaves a .tmp sibling —
        // plausibly even one full of valid records.
        let mut orphan = Vec::new();
        segment::write_header(&mut orphan);
        segment::append_record(&mut orphan, 6, b"never sealed");
        fs::write(dir.join("s00-000099-1.seg.tmp"), &orphan).expect("write orphan");
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.get(5), Some(b"kept".to_vec()));
        assert_eq!(store.get(6), None, "unsealed tmp data must stay invisible");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_degrades_to_the_clean_prefix() {
        let dir = tmp_dir("torn");
        let seg_path;
        {
            let store = Store::open(&dir).expect("open");
            store.put(1, b"first".to_vec());
            store.put(1 << 8, b"second".to_vec());
            store.flush().expect("flush");
            seg_path = fs::read_dir(&dir)
                .expect("list")
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|e| e == "seg"))
                .expect("segment exists");
        }
        // Chop the last 3 bytes off the sealed segment (torn tail).
        let bytes = fs::read(&seg_path).expect("read");
        fs::write(&seg_path, &bytes[..bytes.len() - 3]).expect("truncate");
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.stats().records, 1, "one record survives the tear");
        assert!(store.stats().corrupt_records > 0);
        // Whichever record tore, lookups still never error.
        let survivors = [store.get(1), store.get(1 << 8)];
        assert_eq!(survivors.iter().flatten().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_is_dropped() {
        let dir = tmp_dir("oversize");
        let store = Store::open(&dir).expect("open");
        store.put(1, vec![0u8; MAX_PAYLOAD + 1]);
        assert_eq!(store.stats().pending, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        use std::sync::Arc;
        let dir = tmp_dir("concurrent");
        let store = Arc::new(Store::open(&dir).expect("open"));
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..128u128 {
                        let key = i << 120 | u128::from(t);
                        store.put(key, key.to_le_bytes().to_vec());
                        assert_eq!(store.get(key), Some(key.to_le_bytes().to_vec()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        store.flush().expect("flush");
        assert_eq!(store.stats().records, 4 * 128);
        let _ = fs::remove_dir_all(&dir);
    }
}
