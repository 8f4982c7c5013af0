//! Scripted synthetic games.
//!
//! A [`Workload`] generates a deterministic sequence of [`Frame`]s from
//! a *timeline* of scripted segments (menu, straight, turn, boss, …).
//! Segments of the same template produce statistically similar frames —
//! the recurring phase behaviour that real gameplay exhibits and that
//! MEGsim's clustering exploits — while per-frame noise, sinusoidal
//! intensity modulation and occasional spikes keep frames from being
//! identical.
//!
//! ## Generation fast path
//!
//! Everything frame-invariant is memoized once per workload in a
//! `GeometryTemplates` cache built by [`Workload::new`]:
//!
//! * per-(class, instance) placements (`px`, `py`, `phase`) — in the
//!   seed generator these cost a fresh `SmallRng` seeding plus three
//!   uniform draws for *every instance of every frame*, even though
//!   they only depend on the workload seed;
//! * per-class static draw-call skeletons (mesh `Arc`, shader pair,
//!   texture, blend/depth state) and the trig-bearing constant
//!   matrices `rotation_x(tilt)` / `scale(size)`;
//! * the shared perspective projection of 3-D games (one `tan` per
//!   instance in the seed path).
//!
//! Only animated attributes — per-frame noise draws, spike injection,
//! drift/rotation trig and the model-view-projection products — are
//! recomputed per frame, replaying the seed generator's exact RNG draw
//! order and exact left-associated `Mat4` multiply chain, so every
//! frame is bit-identical to the retained
//! `crate::reference::ReferenceWorkload` (the proptest oracles in
//! this crate and the `workloads` bench check that on every run).
//!
//! [`Workload::generate_frames`] additionally fans frame synthesis out
//! across the `megsim-exec` worker pool in fixed chunks, so batch
//! generation is parallel *and* thread-count-independent.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use megsim_gfx::draw::{BlendMode, DrawCall, Frame};
use megsim_gfx::geometry::Mesh;
use megsim_gfx::math::{Mat4, Vec3, Vec4};
use megsim_gfx::shader::{ShaderId, ShaderTable};
use megsim_gfx::texture::TextureDesc;

/// 2-D (sprite/orthographic) or 3-D (perspective) game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GameType {
    /// Orthographic sprite game.
    TwoD,
    /// Perspective 3-D game.
    ThreeD,
}

impl std::fmt::Display for GameType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GameType::TwoD => write!(f, "2D"),
            GameType::ThreeD => write!(f, "3D"),
        }
    }
}

/// One drawable object family within a segment template.
#[derive(Debug, Clone)]
pub struct ObjectClass {
    /// Index into the workload's mesh library.
    pub mesh: usize,
    /// Vertex shader used by instances of this class.
    pub vertex_shader: ShaderId,
    /// Fragment shader used by instances of this class.
    pub fragment_shader: ShaderId,
    /// Index into the workload's texture library, if textured.
    pub texture: Option<usize>,
    /// Blend mode (particles/UI are blended).
    pub blend: BlendMode,
    /// Whether instances are depth tested.
    pub depth_test: bool,
    /// Baseline instance count per frame.
    pub base_count: f64,
    /// Amplitude of the sinusoidal count modulation.
    pub count_amplitude: f64,
    /// Frequency of the modulation, radians per frame.
    pub wobble_freq: f64,
    /// World-space (3-D) or NDC-space (2-D) size of one instance.
    pub size: f32,
    /// Rotation about the X axis (radians), used to tilt terrain strips
    /// toward the camera.
    pub tilt: f32,
    /// Mean camera distance band for 3-D placement.
    pub distance: f32,
}

/// A reusable segment recipe (e.g. "straight road", "menu").
#[derive(Debug, Clone)]
pub struct SegmentTemplate {
    /// Human-readable label (shows up in experiment dumps).
    pub label: String,
    /// Object classes active while this template plays.
    pub classes: Vec<ObjectClass>,
}

/// One occurrence of a template on the timeline.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Index into the template list.
    pub template: usize,
    /// First frame of the segment.
    pub start: usize,
    /// Length in frames.
    pub len: usize,
    /// Per-occurrence intensity multiplier (~1.0).
    pub intensity: f64,
}

/// Stable per-(class, instance) placement parameters. In the seed
/// generator these are drawn from a per-instance `SmallRng`; they
/// depend only on `(workload seed, class index, instance index)`, so
/// the fast path computes each triple once per workload.
#[derive(Debug, Clone, Copy)]
struct Placement {
    px: f32,
    py: f32,
    phase: f32,
}

impl Placement {
    /// Replays the seed generator's exact per-instance RNG draws.
    fn compute(seed: u64, class_index: usize, j: usize) -> Self {
        let mut prng = SmallRng::seed_from_u64(
            seed ^ ((class_index as u64) << 32) ^ (j as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let px = prng.gen_range(-0.85..0.85f32);
        let py = prng.gen_range(-0.75..0.75f32);
        let phase = prng.gen_range(0.0..std::f32::consts::TAU);
        Self { px, py, phase }
    }
}

/// Inputs smaller than this take the generic matrix chain: the
/// specialized kernels assume every surviving product is nonzero, so
/// values near the underflow range (or exact zeros, whose *sign* the
/// generic chain's `±0.0` sums control) must not reach them.
const TRIG_EPS: f32 = 1e-6;

/// Which specialized transform kernel a class is eligible for.
///
/// The specialized kernels compute the exact bits the generic chain
/// `translation * rotation * rotation_x(tilt) * scale` produces, by
/// replaying only the surviving operations of `Mat4::mul`'s
/// left-associated component sums. That replay is exact only when the
/// skipped terms are provably-absorbed signed zeros, which needs the
/// class constants comfortably away from zero — classes that fail the
/// audit always take the generic chain.
#[derive(Debug, Clone, Copy)]
enum FastKind {
    /// `tilt == +0.0` exactly: `rotation_x(0.0)`'s `±0`/`1` entries
    /// make it a bit-exact no-op inside the chain.
    Untilted,
    /// `sin(tilt)`/`cos(tilt)` both comfortably nonzero.
    Tilted {
        /// `sin(tilt)` as `Mat4::rotation_x` computes it.
        st: f32,
        /// `cos(tilt)`.
        ct: f32,
        /// `-sin(tilt)` — the negated entry of `rotation_x`'s col 2.
        mst: f32,
    },
    /// Degenerate constants: always use the generic matrix chain.
    Generic,
}

/// Frame-invariant per-class state: the draw-call skeleton (everything
/// but the transform), the constant tail matrices of the transform
/// chain (for the generic path), and the constants feeding the
/// specialized kernels. Caching the *construction* of
/// `rotation_x`/`scale` is exact: the same inputs produce the same
/// bits, and the multiply chain still evaluates in the seed generator's
/// left-associated order.
#[derive(Debug, Clone)]
struct ClassStatic {
    base: DrawCall,
    tilt: Mat4,
    scale: Mat4,
    /// Uniform scale factor (`class.size`).
    k: f32,
    kind: FastKind,
    /// 2-D tilted col1.z / col2.z: `st * k`, `ct * k`.
    stk: f32,
    ctk: f32,
    /// 3-D tilted col1.y / col2.y: `(p1 * ct) * k`, `(p1 * -st) * k`.
    p1ctk: f32,
    p1mstk: f32,
    /// 3-D untilted col1.y: `p1 * k`.
    p1k: f32,
}

/// The per-workload memoized geometry-template cache.
#[derive(Debug, Clone)]
struct GeometryTemplates {
    /// `[template][class]` static draw state.
    class_static: Vec<Vec<ClassStatic>>,
    /// `[class index][instance]` placement triples, sized by a
    /// conservative peak-count bound; indices beyond the bound fall
    /// back to [`Placement::compute`].
    placements: Vec<Vec<Placement>>,
    /// The shared 3-D projection (`Mat4::perspective(1.05, 2, 0.5,
    /// 120)` in the seed generator, rebuilt per instance there).
    proj: Mat4,
    /// The projection's nonzero entries, as the specialized 3-D kernel
    /// consumes them: `cols[0].x`, `cols[1].y`, `cols[2].z`,
    /// `cols[3].z`.
    p0: f32,
    p1: f32,
    p2: f32,
    p3: f32,
}

/// A complete synthetic game workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Full game name (e.g. `"Beach Buggy Racing"`).
    pub name: String,
    /// Short alias used in the paper's tables (e.g. `"bbr1"`).
    pub alias: String,
    /// 2-D or 3-D.
    pub game_type: GameType,
    pub(crate) shaders: ShaderTable,
    /// The texture and mesh libraries, kept for the reference generator
    /// (the fast path reads them through its geometry cache).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) textures: Vec<TextureDesc>,
    #[cfg(any(test, feature = "reference"))]
    pub(crate) meshes: Vec<Arc<Mesh>>,
    pub(crate) templates: Vec<SegmentTemplate>,
    pub(crate) timeline: Vec<Segment>,
    pub(crate) frames: usize,
    pub(crate) seed: u64,
    /// Relative per-frame count noise (e.g. 0.05 = ±5 %).
    pub(crate) noise: f64,
    /// Probability a frame doubles one class's count (explosions …).
    pub(crate) spike_probability: f64,
    /// Load multiplier of the first frames of each segment (scene
    /// build, asset instantiation, full-screen fades). Decays over the
    /// first few frames; 1.0 disables the effect.
    pub(crate) transition_boost: f64,
    /// Memoized frame-invariant geometry/draw state.
    cache: GeometryTemplates,
}

/// Frames per chunk in [`Workload::generate_frames`]. Fixed (never
/// derived from the thread count) so chunk boundaries — and therefore
/// the output — are identical at any pool size.
const GENERATION_CHUNK: usize = 16;

/// Builder-style constructor input for [`Workload`].
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Full game name.
    pub name: String,
    /// Table II alias.
    pub alias: String,
    /// 2-D or 3-D.
    pub game_type: GameType,
    /// Shader library.
    pub shaders: ShaderTable,
    /// Texture library.
    pub textures: Vec<TextureDesc>,
    /// Mesh library.
    pub meshes: Vec<Arc<Mesh>>,
    /// Segment templates.
    pub templates: Vec<SegmentTemplate>,
    /// Timeline as (template index, frame count) pairs.
    pub timeline: Vec<(usize, usize)>,
    /// Master seed.
    pub seed: u64,
    /// Per-frame relative noise.
    pub noise: f64,
    /// Spike probability per frame.
    pub spike_probability: f64,
    /// Load multiplier of segment-transition frames (≥ 1.0).
    pub transition_boost: f64,
}

impl Workload {
    /// Builds a workload from its spec.
    ///
    /// # Panics
    ///
    /// Panics if the timeline references unknown templates, a class
    /// references an unknown mesh/texture/shader, or the timeline is
    /// empty.
    pub fn new(spec: WorkloadSpec) -> Self {
        assert!(!spec.timeline.is_empty(), "timeline must not be empty");
        for t in &spec.templates {
            for c in &t.classes {
                assert!(c.mesh < spec.meshes.len(), "unknown mesh index");
                if let Some(tx) = c.texture {
                    assert!(tx < spec.textures.len(), "unknown texture index");
                }
                assert!(
                    (c.vertex_shader.0 as usize) < spec.shaders.vertex_count(),
                    "unknown vertex shader"
                );
                assert!(
                    (c.fragment_shader.0 as usize) < spec.shaders.fragment_count(),
                    "unknown fragment shader"
                );
            }
        }
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xC0FF_EE00);
        let mut timeline = Vec::with_capacity(spec.timeline.len());
        let mut start = 0usize;
        for &(template, len) in &spec.timeline {
            assert!(template < spec.templates.len(), "unknown template index");
            timeline.push(Segment {
                template,
                start,
                len,
                intensity: 1.0 + rng.gen_range(-0.06..0.06),
            });
            start += len;
        }
        let transition_boost = spec.transition_boost.max(1.0);
        let cache = Self::build_cache(&spec, &timeline, transition_boost);
        Self {
            name: spec.name,
            alias: spec.alias,
            game_type: spec.game_type,
            shaders: spec.shaders,
            #[cfg(any(test, feature = "reference"))]
            textures: spec.textures,
            #[cfg(any(test, feature = "reference"))]
            meshes: spec.meshes,
            templates: spec.templates,
            timeline,
            frames: start,
            seed: spec.seed,
            noise: spec.noise,
            spike_probability: spec.spike_probability,
            transition_boost,
            cache,
        }
    }

    /// Builds the memoized geometry-template cache: static draw
    /// skeletons, constant matrices and per-instance placements.
    fn build_cache(spec: &WorkloadSpec, timeline: &[Segment], boost: f64) -> GeometryTemplates {
        let proj = Mat4::perspective(1.05, 2.0, 0.5, 120.0);
        let (p0, p1) = (proj.cols[0].x, proj.cols[1].y);
        let (p2, p3) = (proj.cols[2].z, proj.cols[3].z);
        let class_static = spec
            .templates
            .iter()
            .map(|t| {
                t.classes
                    .iter()
                    .map(|c| {
                        let k = c.size;
                        let (st, ct) = c.tilt.sin_cos();
                        let kind = if k <= TRIG_EPS {
                            FastKind::Generic
                        } else if c.tilt.to_bits() == 0.0f32.to_bits() {
                            FastKind::Untilted
                        } else if st.abs() > TRIG_EPS && ct.abs() > TRIG_EPS {
                            FastKind::Tilted { st, ct, mst: -st }
                        } else {
                            FastKind::Generic
                        };
                        ClassStatic {
                            base: DrawCall {
                                mesh: Arc::clone(&spec.meshes[c.mesh]),
                                transform: Mat4::IDENTITY,
                                vertex_shader: c.vertex_shader,
                                fragment_shader: c.fragment_shader,
                                texture: c.texture.map(|i| spec.textures[i]),
                                blend: c.blend,
                                depth_test: c.depth_test,
                            },
                            tilt: Mat4::rotation_x(c.tilt),
                            scale: Mat4::scale(Vec3::splat(c.size)),
                            k,
                            kind,
                            stk: st * k,
                            ctk: ct * k,
                            p1ctk: (p1 * ct) * k,
                            p1mstk: (p1 * -st) * k,
                            p1k: p1 * k,
                        }
                    })
                    .collect()
            })
            .collect();

        // Conservative per-class peak instance count: base count at the
        // loudest segment intensity, full wobble amplitude, peak
        // transition boost, peak noise, and a ×2 spike — plus slack.
        // The bound only sizes the placement cache; `placement()` falls
        // back to on-the-fly computation past it, so correctness never
        // depends on this estimate.
        let mut max_intensity = vec![0.0f64; spec.templates.len()];
        for s in timeline {
            max_intensity[s.template] = max_intensity[s.template].max(s.intensity);
        }
        let class_columns = spec
            .templates
            .iter()
            .map(|t| t.classes.len())
            .max()
            .unwrap_or(0);
        let placements = (0..class_columns)
            .map(|ci| {
                let bound = spec
                    .templates
                    .iter()
                    .enumerate()
                    .filter_map(|(ti, t)| {
                        t.classes.get(ci).map(|c| {
                            let peak = (c.base_count * max_intensity[ti] + c.count_amplitude.abs())
                                * boost
                                * (1.0 + spec.noise.abs())
                                * 2.0;
                            peak.max(0.0).round() as usize + 2
                        })
                    })
                    .max()
                    .unwrap_or(0);
                (0..bound)
                    .map(|j| Placement::compute(spec.seed, ci, j))
                    .collect()
            })
            .collect();

        GeometryTemplates {
            class_static,
            placements,
            proj,
            p0,
            p1,
            p2,
            p3,
        }
    }

    /// Number of frames in the sequence.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The game's shader library.
    pub fn shaders(&self) -> &ShaderTable {
        &self.shaders
    }

    /// The segment templates (for reporting).
    pub fn templates(&self) -> &[SegmentTemplate] {
        &self.templates
    }

    /// The timeline (for reporting).
    pub fn timeline(&self) -> &[Segment] {
        &self.timeline
    }

    /// The segment active at frame `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.frames()`.
    pub fn segment_at(&self, i: usize) -> &Segment {
        assert!(i < self.frames, "frame index out of range");
        let pos = self.timeline.partition_point(|s| s.start + s.len <= i);
        &self.timeline[pos]
    }

    /// Generates frame `i` deterministically.
    ///
    /// Bit-identical to the seed generator (retained as
    /// `crate::reference::ReferenceWorkload`): the frame RNG draws in
    /// the seed's exact order — spike coin, spike class, one noise draw
    /// per class — and the per-instance placement/matrix work replays
    /// the seed's exact arithmetic against the memoized cache.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.frames()`.
    pub fn frame(&self, i: usize) -> Frame {
        let segment = *self.segment_at(i);
        let template = &self.templates[segment.template];
        let statics = &self.cache.class_static[segment.template];
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let t = i as f32 * 0.03;
        let spike_class = if rng.gen_bool(self.spike_probability) {
            Some(rng.gen_range(0..template.classes.len().max(1)))
        } else {
            None
        };
        // Segment transitions are expensive: the first frames carry the
        // scene build / fade-in load, decaying geometrically. The window
        // scales with the segment (1 frame for short test segments, up
        // to 3 for full-length ones) so scaled-down sequences keep the
        // same transition *fraction* as paper-sized ones.
        let offset = i - segment.start;
        let window = (segment.len / 12).clamp(1, 3);
        let transition = if offset < window {
            1.0 + (self.transition_boost - 1.0) * 0.5f64.powi(offset as i32)
        } else {
            1.0
        };
        // Per-class instance counts first (the seed generator's per-
        // instance work never touches the frame RNG, so hoisting the
        // count loop preserves the draw order exactly) — this sizes the
        // draw list in one allocation instead of growth doublings.
        let mut counts = Vec::with_capacity(template.classes.len());
        let mut total = 0usize;
        for (ci, class) in template.classes.iter().enumerate() {
            let wobble = (t as f64 * class.wobble_freq + ci as f64 * 1.7).sin();
            let mut count = (class.base_count * segment.intensity + class.count_amplitude * wobble)
                * transition;
            count *= 1.0 + self.noise * rng.gen_range(-1.0..1.0);
            if spike_class == Some(ci) {
                count *= 2.0;
            }
            let count = count.round().max(0.0) as usize;
            counts.push(count);
            total += count;
        }
        let mut frame = Frame {
            draws: Vec::with_capacity(total),
        };
        for ((class, st), (ci, &count)) in template
            .classes
            .iter()
            .zip(statics)
            .zip(counts.iter().enumerate())
        {
            for j in 0..count {
                frame.draws.push(self.instance(class, st, ci, j, t));
            }
        }
        frame
    }

    /// Iterates over all frames of the sequence.
    pub fn iter_frames(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.frames).map(move |i| self.frame(i))
    }

    /// Generates the whole sequence, fanning out across the
    /// `megsim-exec` worker pool in fixed `GENERATION_CHUNK`-frame
    /// chunks. Bit-identical to collecting [`Workload::iter_frames`] at
    /// every thread count.
    pub fn generate_frames(&self) -> Vec<Frame> {
        self.generate_range(0..self.frames)
    }

    /// Generates the frames of `range` in parallel, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > self.frames()`.
    pub fn generate_range(&self, range: std::ops::Range<usize>) -> Vec<Frame> {
        assert!(range.end <= self.frames, "frame range out of bounds");
        let start = range.start;
        megsim_exec::par_flat_map_chunks(range.len(), GENERATION_CHUNK, |r| {
            r.map(|k| self.frame(start + k)).collect()
        })
    }

    /// The placement triple of instance `j` of class column `ci` —
    /// cached, with an exact on-the-fly fallback past the cache bound.
    #[inline]
    fn placement(&self, ci: usize, j: usize) -> Placement {
        match self.cache.placements.get(ci).and_then(|v| v.get(j)) {
            Some(p) => *p,
            None => Placement::compute(self.seed, ci, j),
        }
    }

    fn instance(
        &self,
        class: &ObjectClass,
        st: &ClassStatic,
        class_index: usize,
        j: usize,
        t: f32,
    ) -> DrawCall {
        // Stable per-(class, instance) placement that drifts with time:
        // instances keep their identity across frames of a segment.
        let Placement { px, py, phase } = self.placement(class_index, j);
        let drift_x = (t * 0.8 + phase).sin() * 0.12;
        let drift_y = (t * 0.5 + phase).cos() * 0.08;
        let transform = match self.game_type {
            GameType::TwoD => {
                // Orthographic: place directly in NDC; layer by class.
                let layer = class_index as f32 * 0.01 + j as f32 * 1e-4;
                let (tx, ty, tz) = (px + drift_x, py + drift_y, -layer);
                let angle = (t + phase) * 0.3;
                // `Mat4::rotation_z` draws its entries from `sin_cos`;
                // calling the same intrinsic here keeps the bits equal.
                let (s, c) = angle.sin_cos();
                self.fast_2d(st, tx, ty, tz, s, c).unwrap_or_else(|| {
                    Mat4::translation(Vec3::new(tx, ty, tz))
                        * Mat4::rotation_z(angle)
                        * st.tilt
                        * st.scale
                })
            }
            GameType::ThreeD => {
                let dist = class.distance * (1.0 + 0.3 * (t * 0.4 + phase).sin());
                let tx = (px + drift_x) * dist * 0.9;
                let ty = (py + drift_y) * dist * 0.55;
                let tz = -dist;
                let angle = t * 0.7 + phase;
                let (sy, cy) = angle.sin_cos();
                self.fast_3d(st, tx, ty, tz, sy, cy).unwrap_or_else(|| {
                    self.cache.proj
                        * Mat4::translation(Vec3::new(tx, ty, tz))
                        * Mat4::rotation_y(angle)
                        * st.tilt
                        * st.scale
                })
            }
        };
        let mut draw = st.base.clone();
        draw.transform = transform;
        draw
    }

    /// Specialized 2-D transform: the exact bits of
    /// `translation(tx,ty,tz) * rotation_z(θ) * tilt * scale` under
    /// `Mat4::mul`'s left-associated component sums, with every
    /// statically-absorbed term skipped. Returns `None` (→ generic
    /// chain) whenever a skipped `±0.0` term could have controlled a
    /// result sign: zero translations, near-zero sin/cos, or a class
    /// that failed the constant audit.
    fn fast_2d(&self, st: &ClassStatic, tx: f32, ty: f32, tz: f32, s: f32, c: f32) -> Option<Mat4> {
        if s.abs() <= TRIG_EPS || c.abs() <= TRIG_EPS || tx == 0.0 || ty == 0.0 || tz == 0.0 {
            return None;
        }
        let k = st.k;
        let col3 = Vec4::new(tx, ty, tz, 1.0);
        match st.kind {
            FastKind::Generic => None,
            FastKind::Untilted => Some(Mat4::from_cols(
                Vec4::new(c * k, s * k, 0.0, 0.0),
                Vec4::new(-s * k, c * k, 0.0, 0.0),
                Vec4::new(0.0, 0.0, k, 0.0),
                col3,
            )),
            FastKind::Tilted { ct, mst, .. } => {
                let ms = -s;
                Some(Mat4::from_cols(
                    Vec4::new(c * k, s * k, 0.0, 0.0),
                    Vec4::new((ms * ct) * k, (c * ct) * k, st.stk, 0.0),
                    Vec4::new((ms * mst) * k, (c * mst) * k, st.ctk, 0.0),
                    col3,
                ))
            }
        }
    }

    /// Specialized 3-D transform: the exact bits of
    /// `proj * translation(tx,ty,tz) * rotation_y(θ) * tilt * scale`,
    /// same contract as [`Workload::fast_2d`].
    fn fast_3d(
        &self,
        st: &ClassStatic,
        tx: f32,
        ty: f32,
        tz: f32,
        sy: f32,
        cy: f32,
    ) -> Option<Mat4> {
        if sy.abs() <= TRIG_EPS || cy.abs() <= TRIG_EPS || tx == 0.0 || ty == 0.0 {
            return None;
        }
        let (p0, p1, p2, p3) = (self.cache.p0, self.cache.p1, self.cache.p2, self.cache.p3);
        let z3 = p2 * tz + p3;
        if z3 == 0.0 {
            return None;
        }
        let k = st.k;
        let col3 = Vec4::new(p0 * tx, p1 * ty, z3, -tz);
        let nsy = -sy;
        let ncy = -cy;
        let col0 = Vec4::new((p0 * cy) * k, 0.0, (p2 * nsy) * k, sy * k);
        match st.kind {
            FastKind::Generic => None,
            FastKind::Untilted => Some(Mat4::from_cols(
                col0,
                Vec4::new(0.0, st.p1k, 0.0, 0.0),
                Vec4::new((p0 * sy) * k, 0.0, (p2 * cy) * k, ncy * k),
                col3,
            )),
            FastKind::Tilted { st: stt, ct, .. } => {
                let q = p0 * sy;
                let r = p2 * cy;
                Some(Mat4::from_cols(
                    col0,
                    Vec4::new((q * stt) * k, st.p1ctk, (r * stt) * k, (ncy * stt) * k),
                    Vec4::new((q * ct) * k, st.p1mstk, (r * ct) * k, (ncy * ct) * k),
                    col3,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meshes::unit_quad;
    use megsim_gfx::shader::ShaderProgram;

    fn tiny_workload(frames_per_segment: usize) -> Workload {
        let mut shaders = ShaderTable::new();
        shaders.add(ShaderProgram::vertex(0, "v0", 10));
        shaders.add(ShaderProgram::vertex(1, "v1", 20));
        shaders.add(ShaderProgram::fragment(0, "f0", 8, vec![]));
        shaders.add(ShaderProgram::fragment(1, "f1", 16, vec![]));
        let class = |vs: u32, fs: u32, base: f64| ObjectClass {
            mesh: 0,
            vertex_shader: ShaderId(vs),
            fragment_shader: ShaderId(fs),
            texture: None,
            blend: BlendMode::Opaque,
            depth_test: true,
            base_count: base,
            count_amplitude: 1.0,
            wobble_freq: 0.5,
            size: 0.2,
            tilt: 0.0,
            distance: 5.0,
        };
        Workload::new(WorkloadSpec {
            name: "Test Game".into(),
            alias: "tst".into(),
            game_type: GameType::TwoD,
            shaders,
            textures: vec![],
            meshes: vec![unit_quad(0)],
            templates: vec![
                SegmentTemplate {
                    label: "menu".into(),
                    classes: vec![class(0, 0, 3.0)],
                },
                SegmentTemplate {
                    label: "play".into(),
                    classes: vec![class(1, 1, 10.0), class(0, 1, 4.0)],
                },
            ],
            timeline: vec![
                (0, frames_per_segment),
                (1, frames_per_segment),
                (0, frames_per_segment),
            ],
            seed: 42,
            noise: 0.05,
            spike_probability: 0.0,
            transition_boost: 1.0,
        })
    }

    #[test]
    fn frame_count_is_timeline_total() {
        let w = tiny_workload(10);
        assert_eq!(w.frames(), 30);
    }

    #[test]
    fn segments_resolve_by_frame_index() {
        let w = tiny_workload(10);
        assert_eq!(w.segment_at(0).template, 0);
        assert_eq!(w.segment_at(10).template, 1);
        assert_eq!(w.segment_at(19).template, 1);
        assert_eq!(w.segment_at(29).template, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_at_rejects_overflow() {
        let w = tiny_workload(10);
        let _ = w.segment_at(30);
    }

    #[test]
    fn frames_are_deterministic() {
        let w = tiny_workload(10);
        let a = w.frame(5);
        let b = w.frame(5);
        assert_eq!(a.draws.len(), b.draws.len());
        for (x, y) in a.draws.iter().zip(&b.draws) {
            assert_eq!(x.transform, y.transform);
            assert_eq!(x.vertex_shader, y.vertex_shader);
        }
    }

    #[test]
    fn different_segments_use_different_shaders() {
        let w = tiny_workload(10);
        let menu = w.frame(2);
        let play = w.frame(15);
        assert!(menu.draws.iter().all(|d| d.vertex_shader == ShaderId(0)));
        assert!(play.draws.iter().any(|d| d.vertex_shader == ShaderId(1)));
        assert!(play.draws.len() > menu.draws.len());
    }

    #[test]
    fn same_template_segments_are_similar() {
        let w = tiny_workload(10);
        // Frames 2 and 22 are both "menu": draw counts within noise.
        let a = w.frame(2).draws.len() as f64;
        let b = w.frame(22).draws.len() as f64;
        assert!((a - b).abs() <= 3.0, "a = {a}, b = {b}");
    }

    #[test]
    fn iter_frames_covers_sequence() {
        let w = tiny_workload(5);
        assert_eq!(w.iter_frames().count(), 15);
    }

    #[test]
    #[should_panic(expected = "unknown mesh")]
    fn spec_validation_catches_bad_mesh() {
        let mut w = tiny_workload(1);
        let mut spec_template = w.templates()[0].clone();
        spec_template.classes[0].mesh = 99;
        // Rebuild with a corrupted template.
        let mut shaders = ShaderTable::new();
        shaders.add(ShaderProgram::vertex(0, "v0", 10));
        shaders.add(ShaderProgram::fragment(0, "f0", 8, vec![]));
        w = Workload::new(WorkloadSpec {
            name: "x".into(),
            alias: "x".into(),
            game_type: GameType::TwoD,
            shaders,
            textures: vec![],
            meshes: vec![unit_quad(0)],
            templates: vec![spec_template],
            timeline: vec![(0, 1)],
            seed: 0,
            noise: 0.0,
            spike_probability: 0.0,
            transition_boost: 1.0,
        });
        let _ = w;
    }
}
