//! Texture descriptors and texel address computation.
//!
//! Textures never hold pixel data in this simulator — only the metadata
//! needed to turn a `(u, v)` sample into the set of memory addresses the
//! texture caches and DRAM will observe.

use serde::{Deserialize, Serialize};

use crate::math::Vec2;
use crate::shader::TextureFilter;

/// Identifies a texture within one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TextureId(pub u32);

/// Metadata of one texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TextureDesc {
    /// Texture identifier.
    pub id: TextureId,
    /// Width in texels (power of two).
    pub width: u32,
    /// Height in texels (power of two).
    pub height: u32,
    /// Bytes per texel (e.g. 4 for RGBA8).
    pub bytes_per_texel: u32,
    /// Base address of mip level 0 in the simulated address space.
    pub base_address: u64,
}

impl TextureDesc {
    /// Creates a texture descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are not powers of two or zero, which
    /// would break the wrap-around addressing below.
    pub fn new(id: u32, width: u32, height: u32, bytes_per_texel: u32, base_address: u64) -> Self {
        assert!(
            width.is_power_of_two(),
            "texture width must be a power of two"
        );
        assert!(
            height.is_power_of_two(),
            "texture height must be a power of two"
        );
        assert!(bytes_per_texel > 0, "texel size must be non-zero");
        Self {
            id: TextureId(id),
            width,
            height,
            bytes_per_texel,
            base_address,
        }
    }

    /// Total size in bytes of mip level 0.
    pub fn level0_bytes(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height) * u64::from(self.bytes_per_texel)
    }

    /// Address of the texel at integer coordinates, wrapping (GL_REPEAT).
    ///
    /// Texels are stored in 4×4 tiles (Morton-lite layout) so that a
    /// bilinear footprint usually touches a single cache line, matching
    /// how mobile GPUs lay out textures.
    pub fn texel_address(&self, x: i64, y: i64, level: u32) -> u64 {
        let w = (self.width >> level).max(1);
        let h = (self.height >> level).max(1);
        let x = x.rem_euclid(i64::from(w)) as u64;
        let y = y.rem_euclid(i64::from(h)) as u64;
        // 4×4 texel blocks, row-major blocks, row-major texels inside.
        let bw = u64::from(w.div_ceil(4));
        let block = (y / 4) * bw + x / 4;
        let within = (y % 4) * 4 + x % 4;
        self.level_base(level) + (block * 16 + within) * u64::from(self.bytes_per_texel)
    }

    /// Base address of a mip level.
    fn level_base(&self, level: u32) -> u64 {
        let mut base = self.base_address;
        for l in 0..level {
            let w = u64::from((self.width >> l).max(1));
            let h = u64::from((self.height >> l).max(1));
            base += w * h * u64::from(self.bytes_per_texel);
        }
        base
    }

    /// Highest addressable mip level (down to 1×1).
    pub fn max_level(&self) -> u32 {
        self.width.min(self.height).trailing_zeros()
    }

    /// Generates the memory addresses one sample at `(u, v)` touches for
    /// the given filter mode at mip level 0, pushing them into `out`.
    ///
    /// The number of addresses equals [`TextureFilter::memory_accesses`],
    /// which is the invariant the paper's §III-B weighting relies on.
    pub fn sample_addresses(&self, uv: Vec2, filter: TextureFilter, out: &mut Vec<u64>) {
        self.sample_addresses_lod(uv, filter, 0, out);
    }

    /// LOD-aware variant of [`TextureDesc::sample_addresses`]: samples at
    /// mip `level` (clamped to [`TextureDesc::max_level`]), which is how
    /// the hardware keeps the texel:pixel ratio near one.
    pub fn sample_addresses_lod(
        &self,
        uv: Vec2,
        filter: TextureFilter,
        level: u32,
        out: &mut Vec<u64>,
    ) {
        let level = level.min(self.max_level());
        let w = (self.width >> level).max(1);
        let h = (self.height >> level).max(1);
        let x = (uv.x * w as f32).floor() as i64;
        let y = (uv.y * h as f32).floor() as i64;
        match filter {
            TextureFilter::Nearest => out.push(self.texel_address(x, y, level)),
            TextureFilter::Linear => {
                out.push(self.texel_address(x, y, level));
                out.push(self.texel_address(x + 1, y, level));
            }
            TextureFilter::Bilinear => {
                for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    out.push(self.texel_address(x + dx, y + dy, level));
                }
            }
            TextureFilter::Trilinear => {
                let next = (level + 1).min(self.max_level());
                for (l, shift) in [(level, 0u32), (next, 1)] {
                    let lx = x >> shift;
                    let ly = y >> shift;
                    for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                        out.push(self.texel_address(lx + dx, ly + dy, l));
                    }
                }
            }
        }
    }

    /// Precomputes the per-level addressing constants for a
    /// `(filter, lod)` pair, so a hot loop sampling many `(u, v)`
    /// positions of the same texture skips the per-call level clamp,
    /// mip-chain walk (`level_base` loops over levels) and euclidean
    /// remainders.
    ///
    /// [`LodSampler::addresses`] is bit-identical to
    /// [`TextureDesc::sample_addresses_lod`] with the same arguments
    /// (pinned by tests below): dimensions are powers of two, so the
    /// wrap `x.rem_euclid(w)` is exactly `x & (w - 1)` in two's
    /// complement.
    pub fn lod_sampler(&self, filter: TextureFilter, level: u32) -> LodSampler {
        let level = level.min(self.max_level());
        let next = (level + 1).min(self.max_level());
        LodSampler {
            filter,
            bytes_per_texel: u64::from(self.bytes_per_texel),
            near: self.level_params(level),
            far: self.level_params(next),
        }
    }

    fn level_params(&self, level: u32) -> LevelParams {
        let w = (self.width >> level).max(1);
        let h = (self.height >> level).max(1);
        LevelParams {
            w,
            h,
            wf: w as f32,
            hf: h as f32,
            x_mask: i64::from(w) - 1,
            y_mask: i64::from(h) - 1,
            block_row: u64::from(w.div_ceil(4)),
            base: self.level_base(level),
        }
    }
}

/// Addressing constants of one mip level (see [`TextureDesc::lod_sampler`]).
#[derive(Debug, Clone, Copy)]
struct LevelParams {
    w: u32,
    h: u32,
    /// `w`/`h` as f32, so UV scaling skips the per-sample conversion.
    wf: f32,
    hf: f32,
    x_mask: i64,
    y_mask: i64,
    /// Number of 4×4 blocks per block row.
    block_row: u64,
    /// Precomputed [`TextureDesc::level_base`] of the level.
    base: u64,
}

impl LevelParams {
    /// [`TextureDesc::texel_address`] with the level constants hoisted.
    #[inline]
    fn texel_address(&self, x: i64, y: i64, bytes_per_texel: u64) -> u64 {
        let x = (x & self.x_mask) as u64;
        let y = (y & self.y_mask) as u64;
        let block = (y / 4) * self.block_row + x / 4;
        let within = (y % 4) * 4 + x % 4;
        self.base + (block * 16 + within) * bytes_per_texel
    }

    /// Partial address terms of one wrapped x (or y) coordinate, so a
    /// 2×2 footprint shares them instead of recomputing
    /// [`Self::texel_address`] per tap. Pure regrouping of the same
    /// integer arithmetic — the composed addresses are identical.
    #[inline]
    fn x_terms(&self, x: i64) -> (u64, u64) {
        let x = (x & self.x_mask) as u64;
        (x / 4, x % 4)
    }

    /// `(block-row term, within-block row term)` for a wrapped y.
    #[inline]
    fn y_terms(&self, y: i64) -> (u64, u64) {
        let y = (y & self.y_mask) as u64;
        ((y / 4) * self.block_row, (y % 4) * 4)
    }

    /// Composes [`Self::x_terms`] and [`Self::y_terms`] into the texel
    /// address.
    #[inline]
    fn compose(&self, (xb, xw): (u64, u64), (yb, yw): (u64, u64), bytes_per_texel: u64) -> u64 {
        self.base + ((yb + xb) * 16 + yw + xw) * bytes_per_texel
    }

    /// The four bilinear taps `(x, y), (x+1, y), (x, y+1), (x+1, y+1)`
    /// with the shared per-coordinate terms computed once.
    #[inline]
    fn quad_taps(&self, x: i64, y: i64, bpt: u64, out: &mut [u64]) {
        let x0 = self.x_terms(x);
        let x1 = self.x_terms(x + 1);
        let y0 = self.y_terms(y);
        let y1 = self.y_terms(y + 1);
        out[0] = self.compose(x0, y0, bpt);
        out[1] = self.compose(x1, y0, bpt);
        out[2] = self.compose(x0, y1, bpt);
        out[3] = self.compose(x1, y1, bpt);
    }

    /// Whether `x` and `x + 1` wrap into the same 4-texel block column
    /// (so a 2-wide footprint stays inside one block horizontally).
    /// `(x & mask) & 3 == 3` is exactly the straddle case: either the
    /// next texel enters the neighbouring block or it wraps to column 0.
    #[inline]
    fn x_pair_in_block(&self, x: i64) -> bool {
        (x & self.x_mask) & 3 != 3
    }

    /// [`Self::x_pair_in_block`] for the y direction.
    #[inline]
    fn y_pair_in_block(&self, y: i64) -> bool {
        (y & self.y_mask) & 3 != 3
    }

    /// The bilinear quad as same-line `(first address, count)` runs,
    /// passed to `emit` in stream order.
    ///
    /// Concatenating the runs reproduces [`Self::quad_taps`]'s address
    /// stream in order; a multi-tap run is emitted only when all its
    /// taps provably share one `line_size`-byte cache line (the whole
    /// footprint, or one footprint row, inside a single 16-texel block
    /// that itself fits the line). Falls back to per-tap runs
    /// otherwise.
    #[inline]
    fn quad_runs(&self, x: i64, y: i64, bpt: u64, line_size: u64, emit: &mut impl FnMut(u64, u64)) {
        let block_bytes = 16 * bpt;
        if block_bytes <= line_size
            && self.base.is_multiple_of(block_bytes)
            && self.x_pair_in_block(x)
        {
            if self.y_pair_in_block(y) {
                emit(self.texel_address(x, y, bpt), 4);
                return;
            }
            emit(self.texel_address(x, y, bpt), 2);
            emit(self.texel_address(x, y + 1, bpt), 2);
            return;
        }
        let mut taps = [0u64; 4];
        self.quad_taps(x, y, bpt, &mut taps);
        for addr in taps {
            emit(addr, 1);
        }
    }
}

/// The most addresses one filter tap can produce (trilinear: 2×2 taps
/// on each of two mip levels).
pub const MAX_SAMPLE_ADDRESSES: usize = 8;

/// Memoized sample-address generator for one (texture, filter, lod)
/// triple; built once per primitive by [`TextureDesc::lod_sampler`] and
/// queried once per fragment.
#[derive(Debug, Clone, Copy)]
pub struct LodSampler {
    filter: TextureFilter,
    bytes_per_texel: u64,
    /// The selected mip level.
    near: LevelParams,
    /// The next-coarser level (trilinear's second tap set; equals
    /// `near` at the bottom of the mip chain).
    far: LevelParams,
}

/// `f.floor() as i64` without the libc `floorf` call: the x86-64
/// baseline has no `roundss` instruction, so `f32::floor` lowers to a
/// library call on every fragment. Truncating casts saturate in Rust,
/// so truncate-and-adjust (with a saturating adjust for the
/// below-`i64::MIN` edge) is bit-identical for every input, including
/// NaN and the saturation boundaries.
#[inline]
fn floor_i64(f: f32) -> i64 {
    let t = f as i64;
    t.saturating_sub((t as f32 > f) as i64)
}

impl LodSampler {
    /// Footprint of the selected mip level in texels: `(1/w, 1/h)`.
    pub fn texel_extent(&self) -> Vec2 {
        Vec2::new(1.0 / self.near.w as f32, 1.0 / self.near.h as f32)
    }

    /// Pushes the sample addresses for `(u, v)`; bit-identical to
    /// [`TextureDesc::sample_addresses_lod`] at the sampler's filter
    /// and level.
    pub fn addresses(&self, uv: Vec2, out: &mut Vec<u64>) {
        let mut buf = [0u64; MAX_SAMPLE_ADDRESSES];
        let n = self.addresses_array(uv, &mut buf);
        out.extend_from_slice(&buf[..n]);
    }

    /// Streams the sample addresses for `(u, v)` as same-line
    /// `(first address, count)` runs, in stream order: concatenating the
    /// runs yields exactly [`Self::addresses_array`]'s address stream,
    /// and every address of a run falls on the same
    /// `1 << line_shift`-byte cache line. The timing hot loop feeds
    /// these straight into its run-coalescing state machine, so the
    /// common all-taps-in-one-block footprint costs one address
    /// computation instead of four — and the closure form keeps the
    /// runs in registers instead of staging them through memory.
    #[inline]
    pub fn for_each_run(&self, uv: Vec2, line_shift: u32, mut emit: impl FnMut(u64, u64)) {
        let bpt = self.bytes_per_texel;
        let line_size = 1u64 << line_shift;
        let x = floor_i64(uv.x * self.near.wf);
        let y = floor_i64(uv.y * self.near.hf);
        match self.filter {
            TextureFilter::Nearest => emit(self.near.texel_address(x, y, bpt), 1),
            TextureFilter::Linear => {
                let block_bytes = 16 * bpt;
                if block_bytes <= line_size
                    && self.near.base.is_multiple_of(block_bytes)
                    && self.near.x_pair_in_block(x)
                {
                    emit(self.near.texel_address(x, y, bpt), 2);
                } else {
                    emit(self.near.texel_address(x, y, bpt), 1);
                    emit(self.near.texel_address(x + 1, y, bpt), 1);
                }
            }
            TextureFilter::Bilinear => self.near.quad_runs(x, y, bpt, line_size, &mut emit),
            TextureFilter::Trilinear => {
                self.near.quad_runs(x, y, bpt, line_size, &mut emit);
                self.far
                    .quad_runs(x >> 1, y >> 1, bpt, line_size, &mut emit);
            }
        }
    }

    /// [`Self::for_each_run`] collected into a fixed buffer, returning
    /// the run count (the form the equivalence tests pin against
    /// [`Self::addresses_array`]).
    pub fn sample_runs(
        &self,
        uv: Vec2,
        line_shift: u32,
        out: &mut [(u64, u64); MAX_SAMPLE_ADDRESSES],
    ) -> usize {
        let mut n = 0;
        self.for_each_run(uv, line_shift, |addr, count| {
            out[n] = (addr, count);
            n += 1;
        });
        n
    }

    /// [`Self::addresses`] into a fixed buffer, returning the address
    /// count — the allocation-free form [`Self::sample_runs`] is pinned
    /// against.
    #[inline]
    pub fn addresses_array(&self, uv: Vec2, out: &mut [u64; MAX_SAMPLE_ADDRESSES]) -> usize {
        let bpt = self.bytes_per_texel;
        let x = floor_i64(uv.x * self.near.wf);
        let y = floor_i64(uv.y * self.near.hf);
        match self.filter {
            TextureFilter::Nearest => {
                out[0] = self.near.texel_address(x, y, bpt);
                1
            }
            TextureFilter::Linear => {
                out[0] = self.near.texel_address(x, y, bpt);
                out[1] = self.near.texel_address(x + 1, y, bpt);
                2
            }
            TextureFilter::Bilinear => {
                self.near.quad_taps(x, y, bpt, &mut out[..4]);
                4
            }
            TextureFilter::Trilinear => {
                self.near.quad_taps(x, y, bpt, &mut out[..4]);
                self.far.quad_taps(x >> 1, y >> 1, bpt, &mut out[4..8]);
                8
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex() -> TextureDesc {
        TextureDesc::new(0, 64, 64, 4, 0x1000)
    }

    #[test]
    fn floor_i64_matches_float_floor_everywhere() {
        let mut cases: Vec<f32> = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN,
            f32::MAX,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            9.2233715e18, // largest f32 below 2^63
            -9.3e18,      // below i64::MIN: both forms saturate
        ];
        // Every exponent with a spread of mantissas, both signs.
        for exp_bits in 0..=0xffu32 {
            for mant in [0u32, 1, 0x1234, 0x3f_ffff, 0x40_0000, 0x7f_ffff] {
                let bits = (exp_bits << 23) | mant;
                cases.push(f32::from_bits(bits));
                cases.push(f32::from_bits(bits | 0x8000_0000));
            }
        }
        for f in cases {
            assert_eq!(
                floor_i64(f),
                f.floor() as i64,
                "floor_i64({f:?}) [bits {:#010x}]",
                f.to_bits()
            );
        }
    }

    #[test]
    fn sample_address_count_matches_filter_weight() {
        let t = tex();
        for filter in TextureFilter::ALL {
            let mut out = Vec::new();
            t.sample_addresses(Vec2::new(0.3, 0.7), filter, &mut out);
            assert_eq!(out.len(), filter.memory_accesses() as usize, "{filter:?}");
        }
    }

    #[test]
    fn addresses_wrap_at_edges() {
        let t = tex();
        let a = t.texel_address(-1, 0, 0);
        let b = t.texel_address(63, 0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn mip_level_bases_do_not_overlap() {
        let t = tex();
        assert!(t.level_base(1) >= t.base_address + t.level0_bytes());
    }

    #[test]
    fn bilinear_footprint_often_shares_cache_line() {
        // With 4×4×4-byte blocks (64 B = one cache line), a footprint
        // entirely inside a block touches one line.
        let t = tex();
        let mut out = Vec::new();
        t.sample_addresses(
            Vec2::new(1.5 / 64.0, 1.5 / 64.0),
            TextureFilter::Bilinear,
            &mut out,
        );
        let lines: std::collections::HashSet<u64> = out.iter().map(|a| a / 64).collect();
        assert_eq!(lines.len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = TextureDesc::new(0, 48, 64, 4, 0);
    }

    #[test]
    fn lod_sampler_matches_sample_addresses_lod() {
        // Non-square texture exercises the independent x/y wrap masks;
        // uv sweep includes negatives (wrap) and magnitudes past 1.
        let t = TextureDesc::new(7, 128, 32, 4, 0xABC0_0000);
        let mut slow = Vec::new();
        let mut fast = Vec::new();
        for filter in TextureFilter::ALL {
            for lod in 0..=t.max_level() + 2 {
                let sampler = t.lod_sampler(filter, lod);
                for i in -40i32..40 {
                    for j in -40i32..40 {
                        let uv = Vec2::new(i as f32 * 0.07, j as f32 * 0.11);
                        slow.clear();
                        fast.clear();
                        t.sample_addresses_lod(uv, filter, lod, &mut slow);
                        sampler.addresses(uv, &mut fast);
                        assert_eq!(slow, fast, "{filter:?} lod {lod} uv {uv:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sample_runs_replay_addresses_in_order_and_share_lines() {
        // Line-aligned and deliberately misaligned bases (the latter
        // must force per-tap runs), plus an 8-byte-per-texel format
        // whose blocks straddle 64-byte lines.
        let textures = [
            TextureDesc::new(0, 128, 32, 4, 0xABC0_0000),
            TextureDesc::new(1, 64, 64, 4, 0x5000 + 16),
            TextureDesc::new(2, 32, 32, 8, 0x9000),
        ];
        for t in textures {
            for filter in TextureFilter::ALL {
                for lod in 0..=t.max_level() + 1 {
                    let sampler = t.lod_sampler(filter, lod);
                    for i in -25i32..25 {
                        for j in -25i32..25 {
                            let uv = Vec2::new(i as f32 * 0.083, j as f32 * 0.129);
                            let mut addrs = [0u64; MAX_SAMPLE_ADDRESSES];
                            let n = sampler.addresses_array(uv, &mut addrs);
                            let mut runs = [(0u64, 0u64); MAX_SAMPLE_ADDRESSES];
                            let m = sampler.sample_runs(uv, 6, &mut runs);
                            let mut flat = Vec::new();
                            for &(addr, count) in &runs[..m] {
                                for k in 0..count {
                                    // Every address of a run shares the
                                    // first address's 64-byte line.
                                    flat.push((addr >> 6, if k == 0 { Some(addr) } else { None }));
                                }
                            }
                            assert_eq!(flat.len(), n, "{filter:?} lod {lod} uv {uv:?}");
                            for (k, &addr) in addrs[..n].iter().enumerate() {
                                assert_eq!(flat[k].0, addr >> 6, "{filter:?} lod {lod} uv {uv:?}");
                                if let Some(first) = flat[k].1 {
                                    assert_eq!(first, addr, "{filter:?} lod {lod} uv {uv:?}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lod_sampler_texel_extent_matches_level_dims() {
        let t = TextureDesc::new(0, 64, 16, 4, 0);
        let s = t.lod_sampler(TextureFilter::Bilinear, 2);
        assert_eq!(s.texel_extent(), Vec2::new(1.0 / 16.0, 1.0 / 4.0));
        // Clamped past the bottom of the chain.
        let s = t.lod_sampler(TextureFilter::Bilinear, 9);
        assert_eq!(s.texel_extent(), Vec2::new(1.0 / 4.0, 1.0));
    }
}
