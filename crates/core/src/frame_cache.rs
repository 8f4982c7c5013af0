//! Content-addressed memoization of per-frame simulation results.
//!
//! The experiment sweeps (random-sampling trials, per-seed/per-mode
//! grids, representative re-simulation) render and time the *same*
//! frames many times over. Because per-frame simulation is
//! independent — every frame is rendered from scratch and timed on a
//! freshly reset GPU — a frame's [`FrameActivity`] is a pure function
//! of `(frame content, render config, shader table)` and its
//! [`FrameStats`] a pure function of `(frame content, GPU config, rig
//! shape, shader table)`. That purity is exactly what makes
//! memoization sound: this module hashes the full frame content
//! (meshes, transforms, shader bindings, textures, blend/depth state)
//! together with the config into a 128-bit key, and a [`FrameCache`]
//! maps keys to results.
//!
//! A [`FrameCache`] is one run's state, passed explicitly (as an
//! `Option<&FrameCache>`) to the passes that look frames up; nothing
//! about it is process-global, so two caches in one process never see
//! each other's entries or counts. `None` is no cache at all (the
//! CLI's `--no-frame-cache`). The cache is transparent by construction
//! — a hit returns a value that recomputation would reproduce bit for
//! bit, so passing a cache or not (or racing inserts, or dropping
//! entries at capacity) can never change pipeline output, only
//! wall-clock time. `tests/frame_cache.rs` checks that property on
//! every run.
//!
//! ## Tiers
//!
//! A lookup walks up to three tiers, each transparent in the same
//! sense:
//!
//! 1. **Memory** — two [`ConcurrentCache`] maps (activity, stats).
//! 2. **Disk** — an optional [`megsim_store::Store`] attached by
//!    [`FrameCache::open`] (the CLI's `--cache-dir`). Reads are
//!    CRC-verified and re-decoded; anything torn or corrupt is a miss.
//!    Computed results are written behind (buffered in the store,
//!    flushed to a sealed segment by [`FrameCache::flush`] or on drop),
//!    so a later process starts warm.
//! 3. **Compute** — render / simulate the frame.
//!
//! The miss path (disk + compute) runs under a
//! [`megsim_exec::SingleFlight`] keyed by the same fingerprint, so
//! concurrent identical frames — e.g. two batch campaigns over
//! overlapping traces — simulate once and share the result.
//!
//! ## Counting
//!
//! Every lookup counts the tier that served it in [`TierCounts`].
//! [`FrameCache::scope`] returns a handle over the same tiers with its
//! own zeroed counts, which also roll up into the parent's. The batch
//! runner gives each campaign a scope and the experiment binaries give
//! each pass one; either reads its unit's counts alone, whichever
//! threads its lookups ran on.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use megsim_exec::{ConcurrentCache, FlightOutcome, SingleFlight};
use megsim_funcsim::{FrameActivity, RenderConfig};
use megsim_gfx::draw::{BlendMode, DrawCall, Frame};
use megsim_gfx::geometry::Mesh;
use megsim_gfx::shader::ShaderTable;
use megsim_store::{codec, Store};
use megsim_timing::{FrameStats, GpuConfig, MultiGpuConfig};

use parking_lot::Mutex;

/// Entries per memory map (activity and stats each); beyond this,
/// inserts are dropped and the pipeline just recomputes.
const CACHE_CAPACITY: usize = 1 << 14;

/// Which result kind a lookup was for.
#[derive(Clone, Copy)]
enum Kind {
    Activity,
    Stats,
}

/// Which tier ultimately served a lookup.
#[derive(Clone, Copy)]
enum Tier {
    Memory,
    Disk,
    Shared,
    Computed,
}

/// Per-tier lookup counts for one scope (a pass, a campaign, or a whole
/// run). `memory`/`disk`/`shared` are hits at the named tier;
/// `computed` lookups fell through everything and simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Activity lookups served by the in-memory cache.
    pub activity_memory: u64,
    /// Activity lookups served by the disk store.
    pub activity_disk: u64,
    /// Activity lookups served by a concurrent identical computation.
    pub activity_shared: u64,
    /// Activity lookups that computed.
    pub activity_computed: u64,
    /// Stats lookups served by the in-memory cache.
    pub stats_memory: u64,
    /// Stats lookups served by the disk store.
    pub stats_disk: u64,
    /// Stats lookups served by a concurrent identical computation.
    pub stats_shared: u64,
    /// Stats lookups that computed.
    pub stats_computed: u64,
}

impl TierCounts {
    /// All-zero counts (`Default` is identical; this one is `const`).
    pub const ZERO: TierCounts = TierCounts {
        activity_memory: 0,
        activity_disk: 0,
        activity_shared: 0,
        activity_computed: 0,
        stats_memory: 0,
        stats_disk: 0,
        stats_shared: 0,
        stats_computed: 0,
    };

    fn add(&mut self, kind: Kind, tier: Tier) {
        let slot = match (kind, tier) {
            (Kind::Activity, Tier::Memory) => &mut self.activity_memory,
            (Kind::Activity, Tier::Disk) => &mut self.activity_disk,
            (Kind::Activity, Tier::Shared) => &mut self.activity_shared,
            (Kind::Activity, Tier::Computed) => &mut self.activity_computed,
            (Kind::Stats, Tier::Memory) => &mut self.stats_memory,
            (Kind::Stats, Tier::Disk) => &mut self.stats_disk,
            (Kind::Stats, Tier::Shared) => &mut self.stats_shared,
            (Kind::Stats, Tier::Computed) => &mut self.stats_computed,
        };
        *slot += 1;
    }

    /// Total lookups in this scope.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.activity_computed + self.stats_computed
    }

    /// Lookups served without computing (any hit tier).
    fn hits(&self) -> u64 {
        self.activity_memory
            + self.activity_disk
            + self.activity_shared
            + self.stats_memory
            + self.stats_disk
            + self.stats_shared
    }

    /// Lookups served from disk.
    pub fn disk_hits(&self) -> u64 {
        self.activity_disk + self.stats_disk
    }

    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (campaign → batch totals).
    pub(crate) fn merge(&mut self, other: &TierCounts) {
        self.activity_memory += other.activity_memory;
        self.activity_disk += other.activity_disk;
        self.activity_shared += other.activity_shared;
        self.activity_computed += other.activity_computed;
        self.stats_memory += other.stats_memory;
        self.stats_disk += other.stats_disk;
        self.stats_shared += other.stats_shared;
        self.stats_computed += other.stats_computed;
    }

    /// One-line `mem/disk/shared/computed` summary across both kinds.
    pub(crate) fn summary(&self) -> String {
        format!(
            "mem {} disk {} shared {} computed {} ({:.1}% hit)",
            self.activity_memory + self.stats_memory,
            self.activity_disk + self.stats_disk,
            self.activity_shared + self.stats_shared,
            self.activity_computed + self.stats_computed,
            self.hit_rate() * 100.0,
        )
    }
}

/// The tiers a cache shares with all of its scopes.
struct Tiers {
    activity: ConcurrentCache<FrameActivity>,
    stats: ConcurrentCache<FrameStats>,
    activity_flights: SingleFlight<FrameActivity>,
    stats_flights: SingleFlight<FrameStats>,
    store: Option<Store>,
}

/// One scope's tier counts. Each count also lands in every enclosing
/// scope, so a run's counts are the sum of its scopes'.
struct Counter {
    counts: Mutex<TierCounts>,
    parent: Option<Arc<Counter>>,
}

impl Counter {
    fn new(parent: Option<Arc<Counter>>) -> Arc<Self> {
        Arc::new(Self {
            counts: Mutex::new(TierCounts::ZERO),
            parent,
        })
    }

    fn add(&self, kind: Kind, tier: Tier) {
        self.counts.lock().add(kind, tier);
        if let Some(parent) = &self.parent {
            parent.add(kind, tier);
        }
    }
}

/// The frame-result cache of one run: the memory maps, the in-flight
/// tables, the optional disk tier and the tier counts (see the module
/// docs). Dropping the last handle flushes the disk tier best-effort.
pub struct FrameCache {
    tiers: Arc<Tiers>,
    counter: Arc<Counter>,
}

impl FrameCache {
    /// An empty cache without a disk tier.
    pub fn new() -> Self {
        Self::with_store(None)
    }

    /// An empty memory tier over the disk tier under `dir`, whose index
    /// is rebuilt from the segments found there.
    ///
    /// Corrupt or torn segment data is tolerated (it degrades to
    /// misses); only directory-level problems — cannot create, cannot
    /// list — return an error. Callers should treat that error as a
    /// *warning* and run without the disk tier: a missing store must
    /// never fail a run.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(Self::with_store(Some(Store::open(dir)?)))
    }

    fn with_store(store: Option<Store>) -> Self {
        Self {
            tiers: Arc::new(Tiers {
                activity: ConcurrentCache::new(CACHE_CAPACITY),
                stats: ConcurrentCache::new(CACHE_CAPACITY),
                activity_flights: SingleFlight::new(),
                stats_flights: SingleFlight::new(),
                store,
            }),
            counter: Counter::new(None),
        }
    }

    /// A handle over the same tiers with its own zeroed counts. Lookups
    /// through it also count in `self`.
    pub fn scope(&self) -> FrameCache {
        FrameCache {
            tiers: Arc::clone(&self.tiers),
            counter: Counter::new(Some(Arc::clone(&self.counter))),
        }
    }

    /// Lookups through this handle and its scopes, per serving tier.
    pub fn counts(&self) -> TierCounts {
        *self.counter.counts.lock()
    }

    /// Entries in the memory tier, both kinds.
    pub fn entries(&self) -> usize {
        self.tiers.activity.len() + self.tiers.stats.len()
    }

    /// Flushes write-behind results to a durable sealed segment,
    /// returning the number of records sealed; `Ok(0)` without a disk
    /// tier.
    pub fn flush(&self) -> io::Result<u64> {
        match &self.tiers.store {
            Some(store) => store.flush(),
            None => Ok(0),
        }
    }

    /// One-line summary of [`counts`](Self::counts) and
    /// [`entries`](Self::entries). The `key value` pairs are stable and
    /// machine-parseable (the cross-process warm-start test greps them).
    pub fn summary(&self) -> String {
        let t = self.counts();
        format!(
            "frame cache: activity mem {} disk {} shared {} computed {}, \
             stats mem {} disk {} shared {} computed {} \
             ({:.1}% hit, {} entries)",
            t.activity_memory,
            t.activity_disk,
            t.activity_shared,
            t.activity_computed,
            t.stats_memory,
            t.stats_disk,
            t.stats_shared,
            t.stats_computed,
            t.hit_rate() * 100.0,
            self.entries(),
        )
    }

    /// Returns the cached [`FrameActivity`] for `(config_fp, frame)`,
    /// or computes (and caches) it.
    pub(crate) fn activity_or_else(
        &self,
        config_fp: u128,
        frame: &Frame,
        compute: impl FnOnce() -> FrameActivity,
    ) -> FrameActivity {
        self.tiered_or_else(
            Kind::Activity,
            &self.tiers.activity,
            &self.tiers.activity_flights,
            combine(config_fp, frame_fingerprint(frame)),
            codec::decode_activity,
            codec::encode_activity,
            compute,
        )
    }

    /// Returns the cached [`FrameStats`] for `(config_fp, frame)`, or
    /// computes (and caches) it.
    pub(crate) fn stats_or_else(
        &self,
        config_fp: u128,
        frame: &Frame,
        compute: impl FnOnce() -> FrameStats,
    ) -> FrameStats {
        self.tiered_or_else(
            Kind::Stats,
            &self.tiers.stats,
            &self.tiers.stats_flights,
            combine(config_fp, frame_fingerprint(frame)),
            codec::decode_stats,
            codec::encode_stats,
            compute,
        )
    }

    /// The shared three-tier lookup: memory, then (under single-flight)
    /// disk, then compute with write-behind. See the module docs for
    /// why every tier is transparent.
    #[allow(clippy::too_many_arguments)]
    fn tiered_or_else<V: Clone>(
        &self,
        kind: Kind,
        cache: &ConcurrentCache<V>,
        flights: &SingleFlight<V>,
        key: u128,
        decode: impl Fn(&[u8]) -> Option<V>,
        encode: impl Fn(&V) -> Vec<u8>,
        compute: impl FnOnce() -> V,
    ) -> V {
        let count = |tier| self.counter.add(kind, tier);
        if let Some(v) = cache.lookup(key) {
            count(Tier::Memory);
            return v;
        }
        let store = self.tiers.store.as_ref();
        let (v, outcome) = flights.run(key, || {
            if let Some(v) = store.and_then(|s| s.get(key)).and_then(|b| decode(&b)) {
                count(Tier::Disk);
                cache.insert(key, v.clone());
                return v;
            }
            let v = compute();
            count(Tier::Computed);
            cache.insert(key, v.clone());
            if let Some(store) = store {
                store.put(key, encode(&v));
            }
            v
        });
        if outcome == FlightOutcome::Shared {
            // The leader already counted its tier and populated the
            // memory cache; this lookup only waited.
            count(Tier::Shared);
        }
        v
    }
}

impl Default for FrameCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for FrameCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameCache")
            .field("counts", &self.counts())
            .field("entries", &self.entries())
            .field("store", &self.tiers.store.as_ref().map(Store::dir))
            .finish()
    }
}

/// A 128-bit streaming content fingerprint: two 64-bit lanes fed with
/// every word, each mixed splitmix64-style. Not cryptographic — it only
/// needs to make accidental collisions among a few thousand frames
/// astronomically unlikely (≈ 2⁻⁹⁷ for 10⁴ distinct frames).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    h0: u64,
    h1: u64,
}

impl Fingerprint {
    /// A fresh fingerprint with fixed, distinct lane seeds.
    fn new() -> Self {
        Self {
            h0: 0xcbf2_9ce4_8422_2325,
            h1: 0x9e37_79b9_7f4a_7c15,
        }
    }

    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        let mut x = (h ^ v).wrapping_mul(0x2545_f491_4f6c_dd1d);
        x ^= x >> 29;
        x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^= x >> 32;
        x
    }

    /// Feeds one 64-bit word.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.h0 = Self::mix(self.h0, v);
        self.h1 = Self::mix(self.h1, v ^ 0xa5a5_a5a5_a5a5_a5a5);
    }

    /// Feeds one 32-bit word.
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Feeds an `f32` by bit pattern (so `-0.0` and `0.0` differ —
    /// exactness matters more than float semantics here).
    #[inline]
    fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Feeds a byte slice (word-at-a-time, length-prefixed).
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The 128-bit digest.
    fn finish(&self) -> u128 {
        (u128::from(self.h0) << 64) | u128::from(self.h1)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

fn mesh_fingerprint(mesh: &Mesh) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64(mesh.vertices.len() as u64);
    for v in &mesh.vertices {
        fp.write_f32(v.position.x);
        fp.write_f32(v.position.y);
        fp.write_f32(v.position.z);
        fp.write_f32(v.normal.x);
        fp.write_f32(v.normal.y);
        fp.write_f32(v.normal.z);
        fp.write_f32(v.uv.x);
        fp.write_f32(v.uv.y);
    }
    fp.write_u64(mesh.indices.len() as u64);
    for &i in &mesh.indices {
        fp.write_u32(i);
    }
    fp.write_u64(mesh.base_address);
    fp.finish()
}

fn write_draw(fp: &mut Fingerprint, draw: &DrawCall, meshes: &mut HashMap<*const Mesh, u128>) {
    // Meshes are shared via `Arc` across draws (and frames), so hash
    // each distinct mesh once per frame and feed the digest.
    let key = std::sync::Arc::as_ptr(&draw.mesh);
    let mesh_fp = *meshes
        .entry(key)
        .or_insert_with(|| mesh_fingerprint(&draw.mesh));
    fp.write_u64((mesh_fp >> 64) as u64);
    fp.write_u64(mesh_fp as u64);
    for col in &draw.transform.cols {
        fp.write_f32(col.x);
        fp.write_f32(col.y);
        fp.write_f32(col.z);
        fp.write_f32(col.w);
    }
    fp.write_u32(draw.vertex_shader.0);
    fp.write_u32(draw.fragment_shader.0);
    match draw.texture {
        None => fp.write_u32(0),
        Some(t) => {
            fp.write_u32(1);
            fp.write_u32(t.id.0);
            fp.write_u32(t.width);
            fp.write_u32(t.height);
            fp.write_u32(t.bytes_per_texel);
            fp.write_u64(t.base_address);
        }
    }
    fp.write_u32(match draw.blend {
        BlendMode::Opaque => 0,
        BlendMode::AlphaBlend => 1,
        BlendMode::Additive => 2,
    });
    fp.write_u32(u32::from(draw.depth_test));
}

/// Content fingerprint of a frame: every field of every draw call that
/// the functional renderer or the timing model can observe.
pub fn frame_fingerprint(frame: &Frame) -> u128 {
    let mut fp = Fingerprint::new();
    let mut meshes = HashMap::new();
    fp.write_u64(frame.draws.len() as u64);
    for draw in &frame.draws {
        write_draw(&mut fp, draw, &mut meshes);
    }
    fp.finish()
}

/// Fingerprint of everything besides frame content that determines a
/// characterization result: the render config and the shader table.
///
/// Both types are plain data with derived `Debug`, so their full debug
/// representation is a faithful (if verbose) serialization — computed
/// once per sequence, not per frame.
pub(crate) fn activity_config_fingerprint(config: &RenderConfig, shaders: &ShaderTable) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64(0x41435449); // "ACTI" domain tag
    fp.write_bytes(format!("{config:?}|{shaders:?}").as_bytes());
    fp.finish()
}

/// Fingerprint of everything besides frame content that determines a
/// timing result: the full GPU config (which embeds the render mode and
/// viewport), the rig shape (GPU count, dispatch, memory topology and
/// link) and the shader table. Keying on the rig means a result cached
/// for one rig is never served to another.
pub(crate) fn stats_config_fingerprint(
    config: &GpuConfig,
    rig: &MultiGpuConfig,
    shaders: &ShaderTable,
) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64(0x53544154); // "STAT" domain tag
    fp.write_bytes(format!("{config:?}|{rig:?}|{shaders:?}").as_bytes());
    fp.finish()
}

#[inline]
fn combine(config_fp: u128, frame_fp: u128) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64((config_fp >> 64) as u64);
    fp.write_u64(config_fp as u64);
    fp.write_u64((frame_fp >> 64) as u64);
    fp.write_u64(frame_fp as u64);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_gfx::geometry::Vertex;
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::ShaderId;
    use std::sync::Arc;

    fn frame_with(z: f32) -> Frame {
        let mesh = Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.5, -0.5, z)),
                Vertex::at(Vec3::new(0.5, -0.5, z)),
                Vertex::at(Vec3::new(0.0, 0.5, z)),
            ],
            vec![0, 1, 2],
            0x100,
        ));
        let mut f = Frame::new();
        f.draws.push(DrawCall {
            mesh,
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: None,
            blend: BlendMode::Opaque,
            depth_test: true,
        });
        f
    }

    #[test]
    fn identical_content_hashes_identically() {
        // Distinct allocations, same content: the fingerprint must be
        // content-addressed, not identity-addressed.
        assert_eq!(
            frame_fingerprint(&frame_with(0.25)),
            frame_fingerprint(&frame_with(0.25))
        );
    }

    #[test]
    fn content_changes_change_the_hash() {
        let base = frame_fingerprint(&frame_with(0.25));
        assert_ne!(base, frame_fingerprint(&frame_with(0.26)));
        let mut f = frame_with(0.25);
        f.draws[0].depth_test = false;
        assert_ne!(base, frame_fingerprint(&f));
        let mut f = frame_with(0.25);
        f.draws[0].blend = BlendMode::Additive;
        assert_ne!(base, frame_fingerprint(&f));
        let mut f = frame_with(0.25);
        f.draws[0].transform = Mat4::translation(Vec3::new(0.1, 0.0, 0.0));
        assert_ne!(base, frame_fingerprint(&f));
    }

    #[test]
    fn empty_frame_differs_from_nonempty() {
        assert_ne!(
            frame_fingerprint(&Frame::new()),
            frame_fingerprint(&frame_with(0.5))
        );
    }

    #[test]
    fn domain_tags_separate_activity_and_stats_keys() {
        let shaders = ShaderTable::new();
        let rc = RenderConfig::default();
        let gc = GpuConfig::default();
        assert_ne!(
            activity_config_fingerprint(&rc, &shaders),
            stats_config_fingerprint(&gc, &MultiGpuConfig::single(), &shaders)
        );
    }

    #[test]
    fn rig_shape_separates_stats_keys() {
        use megsim_timing::{DispatchMode, Topology};
        let shaders = ShaderTable::new();
        let gc = GpuConfig::default();
        let keys: Vec<u128> = [
            MultiGpuConfig::single(),
            MultiGpuConfig::new(2, DispatchMode::AlternateFrame, Topology::Private),
            MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private),
            MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared),
        ]
        .iter()
        .map(|rig| stats_config_fingerprint(&gc, rig, &shaders))
        .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn bytes_hashing_is_length_prefixed() {
        let mut a = Fingerprint::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = Fingerprint::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    fn stats_with(cycles: u64) -> FrameStats {
        FrameStats {
            cycles,
            ..FrameStats::default()
        }
    }

    #[test]
    fn separate_caches_never_share_entries_or_counts() {
        let a = FrameCache::new();
        let b = FrameCache::new();
        let frame = frame_with(0.25);
        assert_eq!(a.stats_or_else(7, &frame, || stats_with(1)).cycles, 1);
        // Same key in another cache: not served from `a`, computes.
        assert_eq!(b.stats_or_else(7, &frame, || stats_with(2)).cycles, 2);
        assert_eq!(a.stats_or_else(7, &frame, || stats_with(3)).cycles, 1);
        let (ca, cb) = (a.counts(), b.counts());
        assert_eq!((ca.stats_computed, ca.stats_memory), (1, 1));
        assert_eq!((cb.stats_computed, cb.stats_memory), (1, 0));
        assert_eq!((a.entries(), b.entries()), (1, 1));
    }

    #[test]
    fn scopes_share_tiers_and_roll_their_counts_up() {
        let run = FrameCache::new();
        let (first, second) = (run.scope(), run.scope());
        let frame = frame_with(0.5);
        first.stats_or_else(9, &frame, || stats_with(4));
        let nested = second.scope();
        assert_eq!(nested.stats_or_else(9, &frame, || stats_with(5)).cycles, 4);
        assert_eq!(first.counts().stats_computed, 1);
        assert_eq!(first.counts().lookups(), 1);
        assert_eq!(nested.counts().stats_memory, 1);
        assert_eq!(second.counts(), nested.counts());
        let mut sum = first.counts();
        sum.merge(&second.counts());
        assert_eq!(run.counts(), sum);
        assert_eq!(run.entries(), 1);
        assert!(run
            .summary()
            .starts_with("frame cache: activity mem 0 disk 0"));
    }
}
