//! Texture descriptors and texel address computation.
//!
//! Textures never hold pixel data in this simulator — only the metadata
//! needed to turn a `(u, v)` sample into the set of memory addresses the
//! texture caches and DRAM will observe.
//!
//! [`TextureDesc::sample_addresses_lod`] computes one sample's addresses
//! from scratch. The timing model's address generator is the
//! [`LodSampler`]: per quad it computes the texel coordinates the quad's
//! fragments share once ([`LodSampler::quad_footprint`]), and names each
//! tap by a code that [`LodSampler::tap_address`] turns into the same
//! address and [`QuadFootprint::key`] into a block key.

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
    fn texel_address(&self, x: i64, y: i64, level: u32) -> u64 {
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
    /// the given filter mode at mip `level` (clamped to
    /// [`TextureDesc::max_level`]), pushing them into `out`; sampling a
    /// coarser level is how the hardware keeps the texel:pixel ratio
    /// near one.
    ///
    /// The number of addresses equals [`TextureFilter::memory_accesses`],
    /// which is the invariant the paper's §III-B weighting relies on.
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
    /// The sampler's quad taps address exactly the texels of
    /// [`TextureDesc::sample_addresses_lod`] with the same arguments
    /// (pinned by tests below): dimensions are powers of two, so the
    /// wrap `x.rem_euclid(w)` is exactly `x & (w - 1)` in two's
    /// complement. `line_shift` sizes the cache lines that
    /// [`LodSampler::keys_are_lines`] compares blocks with.
    pub fn lod_sampler(&self, filter: TextureFilter, level: u32, line_shift: u32) -> LodSampler {
        let level = level.min(self.max_level());
        let next = (level + 1).min(self.max_level());
        LodSampler {
            filter,
            bytes_per_texel: u64::from(self.bytes_per_texel),
            near: self.level_params(level, line_shift),
            far: self.level_params(next, line_shift),
        }
    }

    fn level_params(&self, level: u32, line_shift: u32) -> LevelParams {
        let w = (self.width >> level).max(1);
        let h = (self.height >> level).max(1);
        let base = self.level_base(level);
        let block_bytes = 16 * u64::from(self.bytes_per_texel);
        LevelParams {
            w,
            h,
            wf: w as f32,
            hf: h as f32,
            x_mask: i64::from(w) - 1,
            y_mask: i64::from(h) - 1,
            block_row: u64::from(w.div_ceil(4)),
            base,
            block_is_line: block_bytes == 1 << line_shift
                && base.is_multiple_of(block_bytes)
                && w >= 4
                && h >= 4,
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
    /// Whether the level tiles into whole 4×4 blocks that are each
    /// exactly one aligned cache line, so two texels share a line if
    /// and only if they share a block — also across levels, whose
    /// blocks then never share a line.
    block_is_line: bool,
}

impl LevelParams {
    /// A quad's texel coordinates `x`, `y` on this level, wrapped, with
    /// the [`same_pairs`] bits of the block columns and rows of the four
    /// x and four y slots `x[0], x[0] + 1, x[1], x[1] + 1` (and likewise
    /// for y) its taps use.
    #[inline]
    fn slots(&self, x: [i64; 2], y: [i64; 2]) -> (LevelSlots, u32, u32) {
        // The masks are below the u32 dimensions, so wrapping in u32 is
        // exact: `(x & mask) as u32 == x as u32 & mask as u32`.
        let (x_mask, y_mask) = (self.x_mask as u32, self.y_mask as u32);
        let slots = LevelSlots {
            x: [x[0] as u32 & x_mask, x[1] as u32 & x_mask],
            y: [y[0] as u32 & y_mask, y[1] as u32 & y_mask],
        };
        let blocks = |s: usize, v: [u32; 2], mask: u32| slot(v, s, mask) / 4;
        let x_same = same_pairs([0, 1, 2, 3].map(|s| blocks(s, slots.x, x_mask)));
        let y_same = same_pairs([0, 1, 2, 3].map(|s| blocks(s, slots.y, y_mask)));
        (slots, x_same, y_same)
    }
}

/// Memoized sample-address generator for one (texture, filter, lod)
/// triple; built once per primitive by [`TextureDesc::lod_sampler`] and
/// queried once per quad.
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
///
/// Inside the i32 range (every texel coordinate a real workload has),
/// the truncation is a plain 32-bit conversion that needs no saturation
/// fix-ups; `t as f32` rounds the same from i32 as from i64.
#[inline]
fn floor_i64(f: f32) -> i64 {
    if f.abs() < 2_147_483_648.0 {
        let t = f as i32;
        return i64::from(t - i32::from(t as f32 > f));
    }
    let t = f as i64;
    t.saturating_sub((t as f32 > f) as i64)
}

impl LodSampler {
    /// Footprint of the selected mip level in texels: `(1/w, 1/h)`.
    pub fn texel_extent(&self) -> Vec2 {
        Vec2::new(1.0 / self.near.w as f32, 1.0 / self.near.h as f32)
    }

    /// Whether [`QuadFootprint`] block keys identify cache lines for
    /// this sampler's taps: every level it reads tiles into whole 4×4
    /// blocks that are each exactly one aligned line. (Trilinear's
    /// coarser level then differs from the selected one: at the bottom
    /// of the mip chain a level is narrower than a block.)
    pub fn keys_are_lines(&self) -> bool {
        self.near.block_is_line
            && (self.filter != TextureFilter::Trilinear || self.far.block_is_line)
    }

    /// The footprint of a quad sampling at `uv + {0, texel.x} ×
    /// {0, texel.y}`; `far` adds the next-coarser level, which
    /// trilinear samplers read.
    #[inline]
    pub fn quad_footprint(&self, uv: Vec2, texel: Vec2, far: bool) -> QuadFootprint {
        // Fragment `f` (`0..4`, row-major) samples at `(x[f % 2],
        // y[f / 2])` of the selected level: the quad shares two x and two
        // y coordinates, so they are computed once.
        let x = [
            floor_i64(uv.x * self.near.wf),
            floor_i64((uv.x + texel.x) * self.near.wf),
        ];
        let y = [
            floor_i64(uv.y * self.near.hf),
            floor_i64((uv.y + texel.y) * self.near.hf),
        ];
        let (near, near_x, near_y) = self.near.slots(x, y);
        let (far, far_x, far_y) = if far {
            self.far.slots(x.map(|x| x >> 1), y.map(|y| y >> 1))
        } else {
            (LevelSlots::default(), 0, 0)
        };
        QuadFootprint {
            levels: [near, far],
            pattern: near_x | near_y << 6 | far_x << 12 | far_y << 18,
        }
    }

    /// The address of tap `tap` of a quad with footprint `footprint`
    /// (the texel address arithmetic of
    /// [`TextureDesc::sample_addresses_lod`]).
    #[inline]
    pub fn tap_address(&self, footprint: &QuadFootprint, tap: u8) -> u64 {
        let (level, xs, ys) = tap_slots(tap);
        let (params, slots) = if level == 0 {
            (&self.near, &footprint.levels[0])
        } else {
            (&self.far, &footprint.levels[1])
        };
        let x = u64::from(slot(slots.x, xs, params.x_mask as u32));
        let y = u64::from(slot(slots.y, ys, params.y_mask as u32));
        let block = (y / 4) * params.block_row + x / 4;
        let within = (y % 4) * 4 + x % 4;
        params.base + (block * 16 + within) * self.bytes_per_texel
    }

    /// Streams the tap codes of fragment `f` (`0..4`, row-major) of a
    /// quad, in [`TextureDesc::sample_addresses_lod`] order at the
    /// fragment's position; a [`QuadFootprint`] turns them into
    /// addresses. Trilinear taps read the footprint's coarser level.
    #[inline]
    pub fn for_each_quad_tap(&self, f: usize, mut emit: impl FnMut(u8)) {
        let xs = 2 * (f as u8 & 1);
        let ys = 2 * (f as u8 >> 1);
        let taps: &[u8] = match self.filter {
            TextureFilter::Nearest => &[tap(0, 0, 0)],
            TextureFilter::Linear => &[tap(0, 0, 0), tap(0, 1, 0)],
            TextureFilter::Bilinear => &[tap(0, 0, 0), tap(0, 1, 0), tap(0, 0, 1), tap(0, 1, 1)],
            TextureFilter::Trilinear => &[
                tap(0, 0, 0),
                tap(0, 1, 0),
                tap(0, 0, 1),
                tap(0, 1, 1),
                tap(1, 0, 0),
                tap(1, 1, 0),
                tap(1, 0, 1),
                tap(1, 1, 1),
            ],
        };
        for &t in taps {
            emit(t + tap(0, xs, ys));
        }
    }
}

/// Which pairs of four values are equal, one bit per pair `(i, j)`,
/// `i < j`, in the order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
#[inline]
fn same_pairs(v: [u32; 4]) -> u32 {
    u32::from(v[0] == v[1])
        | u32::from(v[0] == v[2]) << 1
        | u32::from(v[0] == v[3]) << 2
        | u32::from(v[1] == v[2]) << 3
        | u32::from(v[1] == v[3]) << 4
        | u32::from(v[2] == v[3]) << 5
}

/// The label of slot `i` under [`same_pairs`] bits `same`: the first
/// slot equal to it, so two slots get the same label if and only if
/// their values are equal.
fn label(same: u32, i: usize) -> u8 {
    // Bit of pair (j, i) for j < i.
    const PAIR_BIT: [[u32; 4]; 4] = [[0, 0, 1, 2], [0, 0, 3, 4], [0, 0, 0, 5], [0; 4]];
    (0..i)
        .find(|&j| same >> PAIR_BIT[j][i] & 1 != 0)
        .unwrap_or(i) as u8
}

/// One level's share of a [`QuadFootprint`]: the quad's two x and two
/// y texel coordinates, wrapped.
#[derive(Debug, Clone, Copy, Default)]
struct LevelSlots {
    x: [u32; 2],
    y: [u32; 2],
}

/// The wrapped coordinate of slot `s` (`0..4`: `v[0], v[0] + 1, v[1],
/// v[1] + 1`) of wrapped coordinates `v`; `(v + 1) & mask` wraps once
/// more. Selects rather than indexes, so the coordinates can stay in
/// registers.
#[inline]
fn slot(v: [u32; 2], s: usize, mask: u32) -> u32 {
    let base = if s & 2 == 0 { v[0] } else { v[1] };
    base.wrapping_add((s & 1) as u32) & mask
}

/// The texel footprint of one quad on a texture's selected level and
/// the next-coarser one, built once per quad by
/// [`LodSampler::quad_footprint`] and shared by every sampler of the
/// primitive (they sample one texture at one LOD).
///
/// A quad's taps are named by **tap codes** ([`LodSampler::for_each_quad_tap`]):
/// level, x coordinate slot `x[0], x[0] + 1, x[1], x[1] + 1` and y slot
/// likewise. [`LodSampler::tap_address`] turns a code into its address
/// and [`QuadFootprint::key`] into its **block key**, below 32: two taps
/// share a key if and only if they share a 4×4 texel block, which on a
/// sampler whose [`LodSampler::keys_are_lines`] holds is sharing a cache
/// line. The keys depend on the footprint only through
/// [`QuadFootprint::pattern`].
#[derive(Debug, Clone, Copy)]
pub struct QuadFootprint {
    levels: [LevelSlots; 2],
    pattern: u32,
}

impl QuadFootprint {
    /// The block key of tap `tap`.
    pub fn key(&self, tap: u8) -> u8 {
        let (level, xs, ys) = tap_slots(tap);
        let same = |axis: usize| self.pattern >> (12 * level + 6 * axis) & 63;
        (level as u8) << 4 | label(same(1), ys) << 2 | label(same(0), xs)
    }

    /// Which coordinate slots share a block column or row: per level
    /// and axis, one bit per pair of the four slots, in 24 bits. Two
    /// footprints with the same pattern give every tap code the same
    /// key.
    #[inline]
    pub fn pattern(&self) -> u32 {
        self.pattern
    }
}

/// `(level, x slot, y slot)` of a tap code.
#[inline]
fn tap_slots(tap: u8) -> (usize, usize, usize) {
    (
        usize::from(tap >> 4) & 1,
        usize::from(tap) & 3,
        usize::from(tap >> 2) & 3,
    )
}

/// The tap code of level `level`, x slot `xs` and y slot `ys`.
const fn tap(level: u8, xs: u8, ys: u8) -> u8 {
    level << 4 | ys << 2 | xs
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
            9.2233715e18,    // largest f32 below 2^63
            -9.3e18,         // below i64::MIN: both forms saturate
            2_147_483_520.0, // largest f32 below 2^31: the i32 path
            -2_147_483_520.0,
            2_147_483_648.0, // 2^31: the i64 path
            -2_147_483_648.0,
            -0.5,
            -1.0,
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
            t.sample_addresses_lod(Vec2::new(0.3, 0.7), filter, 0, &mut out);
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
        t.sample_addresses_lod(
            Vec2::new(1.5 / 64.0, 1.5 / 64.0),
            TextureFilter::Bilinear,
            0,
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
    fn quad_footprint_taps_match_samples_and_keys_match_lines() {
        // Every fragment's taps on the quad footprint address exactly the
        // reference samples at the fragment's position, for each sampler
        // of a primitive, on every level and one past the bottom of the
        // chain (clamped); where the sampler's keys are lines, two taps
        // of the quad — across its fragments and samplers — share a key
        // if and only if they share a 64-byte line. The uv grids sweep
        // negatives (wrap) and magnitudes past 1; the textures include a
        // non-square one (independent x/y wrap masks), a misaligned base
        // and 8-byte texels whose blocks straddle lines.
        use TextureFilter::{Bilinear, Linear, Nearest, Trilinear};
        let textures = [
            TextureDesc::new(7, 128, 32, 4, 0xABC0_0000),
            TextureDesc::new(1, 64, 64, 4, 0x5000 + 16),
            TextureDesc::new(2, 32, 32, 8, 0x9000),
            TextureDesc::new(3, 256, 16, 4, 0x8000),
        ];
        let combos: [&[TextureFilter]; 6] = [
            &[Nearest],
            &[Linear],
            &[Bilinear],
            &[Trilinear],
            &[Bilinear, Trilinear],
            &[Trilinear, Nearest],
        ];
        let mut keyed = 0;
        let (mut taps, mut expected, mut got) = (Vec::new(), Vec::new(), Vec::new());
        for t in textures {
            for filters in combos {
                for lod in 0..=t.max_level() + 1 {
                    let samplers: Vec<_> =
                        filters.iter().map(|&f| t.lod_sampler(f, lod, 6)).collect();
                    let keys_are_lines = samplers.iter().all(|s| s.keys_are_lines());
                    let texel = samplers[0].texel_extent();
                    let far = filters.contains(&Trilinear);
                    // Every grid point for one sampler, every other one
                    // per axis for several.
                    let step = if filters.len() == 1 { 1 } else { 2 };
                    // (grid half-width, u step, v step).
                    for (n, du, dv) in [(40i32, 0.07f32, 0.11f32), (25, 0.083, 0.129)] {
                        let axis = move || (-n..n).step_by(step);
                        for (i, j) in axis().flat_map(|i| axis().map(move |j| (i, j))) {
                            let uv = Vec2::new(i as f32 * du, j as f32 * dv);
                            let footprint = samplers[0].quad_footprint(uv, texel, far);
                            taps.clear();
                            for f in 0..4 {
                                let (dx, dy) = ((f % 2) as f32, (f / 2) as f32);
                                let fuv = Vec2::new(uv.x + texel.x * dx, uv.y + texel.y * dy);
                                for (s, &filter) in samplers.iter().zip(filters) {
                                    expected.clear();
                                    t.sample_addresses_lod(fuv, filter, lod, &mut expected);
                                    got.clear();
                                    s.for_each_quad_tap(f, |tap| {
                                        let addr = s.tap_address(&footprint, tap);
                                        got.push(addr);
                                        if keys_are_lines {
                                            taps.push((footprint.key(tap), addr));
                                        }
                                    });
                                    assert_eq!(
                                        got, expected,
                                        "{filters:?} lod {lod} uv {uv:?} f {f}"
                                    );
                                }
                            }
                            if keys_are_lines {
                                // Each key has one line, and no two keys
                                // share one.
                                keyed += 1;
                                let mut line_of = [None; 32];
                                for &(key, addr) in &taps {
                                    let line = line_of[usize::from(key)].get_or_insert(addr >> 6);
                                    assert_eq!(*line, addr >> 6, "{filters:?} lod {lod} uv {uv:?}");
                                }
                                let mut lines: Vec<u64> =
                                    line_of.iter().flatten().copied().collect();
                                let keys = lines.len();
                                lines.sort_unstable();
                                lines.dedup();
                                assert_eq!(lines.len(), keys, "{filters:?} lod {lod} uv {uv:?}");
                            }
                        }
                    }
                }
            }
        }
        assert!(keyed > 0, "some combinations have keyed footprints");
    }

    #[test]
    fn keys_are_lines_only_for_whole_aligned_line_blocks() {
        use TextureFilter::{Bilinear, Trilinear};
        // 4-byte texels on 64-byte lines: a block is one line.
        let t = TextureDesc::new(0, 64, 64, 4, 0x8000);
        assert!(t.lod_sampler(Bilinear, 0, 6).keys_are_lines());
        assert!(t.lod_sampler(Trilinear, 3, 6).keys_are_lines());
        // Levels narrower than a block, including the bottom of the chain.
        assert!(!t.lod_sampler(Bilinear, 5, 6).keys_are_lines());
        assert!(!t.lod_sampler(Trilinear, 4, 6).keys_are_lines());
        assert!(!t.lod_sampler(Trilinear, 9, 6).keys_are_lines());
        // Blocks of two lines, half a line, or off line alignment.
        assert!(!TextureDesc::new(0, 64, 64, 8, 0x8000)
            .lod_sampler(Bilinear, 0, 6)
            .keys_are_lines());
        assert!(!TextureDesc::new(0, 64, 64, 2, 0x8000)
            .lod_sampler(Bilinear, 0, 6)
            .keys_are_lines());
        assert!(!TextureDesc::new(0, 64, 64, 4, 0x8010)
            .lod_sampler(Bilinear, 0, 6)
            .keys_are_lines());
    }

    #[test]
    fn lod_sampler_texel_extent_matches_level_dims() {
        let t = TextureDesc::new(0, 64, 16, 4, 0);
        let s = t.lod_sampler(TextureFilter::Bilinear, 2, 6);
        assert_eq!(s.texel_extent(), Vec2::new(1.0 / 16.0, 1.0 / 4.0));
        // Clamped past the bottom of the chain.
        let s = t.lod_sampler(TextureFilter::Bilinear, 9, 6);
        assert_eq!(s.texel_extent(), Vec2::new(1.0 / 4.0, 1.0));
    }
}
