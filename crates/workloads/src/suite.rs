//! The Table II benchmark set: eight synthetic games mirroring the
//! paper's commercial Android workloads in frame counts, shader counts,
//! 2D/3D mix and phase structure.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use megsim_gfx::draw::BlendMode;
use megsim_gfx::geometry::Mesh;
use megsim_gfx::shader::{ShaderId, ShaderProgram, ShaderTable, TextureFilter};
use megsim_gfx::texture::TextureDesc;
use megsim_mem::AddressSpace;

use crate::game::{GameType, ObjectClass, SegmentTemplate, Workload, WorkloadSpec};
use crate::meshes;

/// Static description of one Table II row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkInfo {
    /// Full game name.
    pub name: &'static str,
    /// Short alias (`asp`, `bbr1`, …).
    pub alias: &'static str,
    /// Genre description from Table II.
    pub description: &'static str,
    /// 2D or 3D.
    pub game_type: GameType,
    /// Google Play downloads bracket (millions), from Table II.
    pub downloads_millions: &'static str,
    /// Frames in the evaluated sequence (Table II).
    pub frames: usize,
    /// Number of vertex shaders (Table II).
    pub vertex_shaders: usize,
    /// Number of fragment shaders (Table II).
    pub fragment_shaders: usize,
    /// Number of distinct gameplay segment templates (controls the
    /// phase richness of the synthetic script).
    gameplay_templates: usize,
    /// Overall object-count multiplier for this game.
    intensity: f64,
}

/// The eight benchmarks of Table II.
pub const BENCHMARKS: [BenchmarkInfo; 8] = [
    BenchmarkInfo {
        name: "Asphalt 9: Legends",
        alias: "asp",
        description: "Racing",
        game_type: GameType::ThreeD,
        downloads_millions: "50-100",
        frames: 4000,
        vertex_shaders: 42,
        fragment_shaders: 45,
        gameplay_templates: 11,
        intensity: 1.3,
    },
    BenchmarkInfo {
        name: "Beach Buggy Racing",
        alias: "bbr1",
        description: "Racing",
        game_type: GameType::ThreeD,
        downloads_millions: "100-500",
        frames: 2500,
        vertex_shaders: 73,
        fragment_shaders: 62,
        gameplay_templates: 9,
        intensity: 1.1,
    },
    BenchmarkInfo {
        name: "Beach Buggy Racing",
        alias: "bbr2",
        description: "Racing",
        game_type: GameType::ThreeD,
        downloads_millions: "100-500",
        frames: 4000,
        vertex_shaders: 66,
        fragment_shaders: 59,
        gameplay_templates: 10,
        intensity: 1.1,
    },
    BenchmarkInfo {
        name: "Hill Climb Racing",
        alias: "hcr",
        description: "Platforms",
        game_type: GameType::TwoD,
        downloads_millions: "500-1000",
        frames: 2000,
        vertex_shaders: 5,
        fragment_shaders: 5,
        gameplay_templates: 6,
        intensity: 0.8,
    },
    BenchmarkInfo {
        name: "Hot Wheels",
        alias: "hwh",
        description: "Racing",
        game_type: GameType::ThreeD,
        downloads_millions: "50-100",
        frames: 4000,
        vertex_shaders: 30,
        fragment_shaders: 30,
        gameplay_templates: 8,
        intensity: 1.2,
    },
    BenchmarkInfo {
        name: "Jetpack Joyride",
        alias: "jjo",
        description: "Side-scrolling endless runner",
        game_type: GameType::TwoD,
        downloads_millions: "100-500",
        frames: 5000,
        vertex_shaders: 4,
        fragment_shaders: 5,
        gameplay_templates: 7,
        intensity: 0.9,
    },
    BenchmarkInfo {
        name: "Plants vs Zombies",
        alias: "pvz",
        description: "Tower defense",
        game_type: GameType::TwoD,
        downloads_millions: "100-500",
        frames: 5000,
        vertex_shaders: 4,
        fragment_shaders: 5,
        gameplay_templates: 8,
        intensity: 1.0,
    },
    BenchmarkInfo {
        name: "Spider-Man Unlimited",
        alias: "spd",
        description: "Side-scrolling endless runner",
        game_type: GameType::ThreeD,
        downloads_millions: "1-5",
        frames: 5000,
        vertex_shaders: 16,
        fragment_shaders: 26,
        gameplay_templates: 9,
        intensity: 1.15,
    },
];

/// The longest workload [`build`] makes, in frames: 20× the longest
/// Table II benchmark. A frame scale read from user input can ask for
/// more frames than any host can hold; front ends validate it with
/// [`check_scale`] and report an input error instead.
pub const MAX_FRAMES: usize = 100_000;

/// Checks a user-supplied `--scale`: a finite positive number small
/// enough that every benchmark stays within [`MAX_FRAMES`].
///
/// # Errors
///
/// Returns a message naming `--scale` for any other value.
pub fn check_scale(scale: f64) -> Result<(), String> {
    let longest = BENCHMARKS.iter().map(|b| b.frames).max().unwrap_or(1);
    let max = MAX_FRAMES as f64 / longest as f64;
    if scale.is_finite() && scale > 0.0 && scale <= max {
        Ok(())
    } else {
        Err(format!(
            "--scale must be a positive number of at most {max}, got {scale}"
        ))
    }
}

/// Builds one benchmark's workload.
///
/// `frame_scale` multiplies the Table II frame count (1.0 = paper
/// length; at least 16 frames); `seed` perturbs the script
/// deterministically.
///
/// # Panics
///
/// Panics if the scaled frame count exceeds [`MAX_FRAMES`].
pub fn build(info: &BenchmarkInfo, frame_scale: f64, seed: u64) -> Workload {
    let frames = (info.frames as f64 * frame_scale).round().max(16.0);
    assert!(
        frames <= MAX_FRAMES as f64,
        "a workload holds at most {MAX_FRAMES} frames, got {frames} ({} at scale {frame_scale})",
        info.alias
    );
    let frames = frames as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ hash_alias(info.alias));
    let shaders = build_shaders(info, &mut rng);
    let textures = build_textures(info);
    let mesh_lib = build_meshes();
    let templates = build_templates(info, &mesh_lib, &textures, &mut rng);
    let timeline = build_timeline(info, frames, templates.len(), &mut rng);
    Workload::new(WorkloadSpec {
        name: info.name.to_string(),
        alias: info.alias.to_string(),
        game_type: info.game_type,
        shaders,
        textures,
        meshes: mesh_lib,
        templates,
        timeline,
        seed: seed ^ hash_alias(info.alias),
        noise: 0.04,
        spike_probability: 0.02,
        transition_boost: 3.0,
    })
}

/// Builds the whole Table II suite at the given frame scale.
pub fn suite(frame_scale: f64, seed: u64) -> Vec<Workload> {
    BENCHMARKS
        .iter()
        .map(|info| build(info, frame_scale, seed))
        .collect()
}

/// Looks up a benchmark by alias and builds it.
pub fn by_alias(alias: &str, frame_scale: f64, seed: u64) -> Option<Workload> {
    BENCHMARKS
        .iter()
        .find(|b| b.alias == alias)
        .map(|info| build(info, frame_scale, seed))
}

fn hash_alias(alias: &str) -> u64 {
    alias.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn build_shaders(info: &BenchmarkInfo, rng: &mut SmallRng) -> ShaderTable {
    let mut table = ShaderTable::new();
    for i in 0..info.vertex_shaders {
        // 3-D games carry heavier vertex work (skinning, lighting).
        let heavy = matches!(info.game_type, GameType::ThreeD);
        let base = if heavy { 14 } else { 8 };
        let alu = base + ((i * 11) % 34) as u32 + rng.gen_range(0..4);
        table.add(ShaderProgram::vertex(i as u32, format!("vs_{i}"), alu));
    }
    for j in 0..info.fragment_shaders {
        let alu = 5 + ((j * 7) % 24) as u32 + rng.gen_range(0..3);
        let samples = match j % 5 {
            0 => vec![TextureFilter::Bilinear],
            1 => vec![TextureFilter::Linear],
            2 => vec![TextureFilter::Bilinear, TextureFilter::Trilinear],
            3 => vec![TextureFilter::Nearest],
            _ => vec![], // flat-colored (UI, particles)
        };
        table.add(ShaderProgram::fragment(
            j as u32,
            format!("fs_{j}"),
            alu,
            samples,
        ));
    }
    table
}

fn build_textures(info: &BenchmarkInfo) -> Vec<TextureDesc> {
    let count = (info.fragment_shaders / 3).clamp(3, 12) as u32;
    (0..count)
        .map(|i| {
            let size = 64u32 << (i % 3); // 64, 128, 256
            TextureDesc::new(
                i,
                size,
                size,
                4,
                AddressSpace::TEXTURE_BASE + u64::from(i) * 0x10_0000,
            )
        })
        .collect()
}

fn build_meshes() -> Vec<Arc<Mesh>> {
    // The library is identical for every benchmark and every seed, so
    // it is built once per process and shared: every workload's draw
    // calls then point at the *same* `Arc<Mesh>` allocations, which
    // also lets downstream per-mesh memoization (frame fingerprints,
    // geometry scratch) hit across workloads.
    static LIBRARY: std::sync::OnceLock<Vec<Arc<Mesh>>> = std::sync::OnceLock::new();
    LIBRARY
        .get_or_init(|| {
            // Bases are staggered by a non-power-of-two stride so
            // distinct meshes spread over the vertex cache's sets
            // instead of aliasing.
            let base = |i: u64| AddressSpace::VERTEX_BASE + i * 0x10C0;
            vec![
                meshes::unit_quad(base(0)),  // 0: sprite
                meshes::unit_cube(base(1)),  // 1: crate/vehicle body
                meshes::grid(6, 6, base(2)), // 2: terrain/road strip
                meshes::disc(8, base(3)),    // 3: particles, coins
                meshes::gem(6, base(4)),     // 4: character blob
            ]
        })
        .clone()
}

fn build_templates(
    info: &BenchmarkInfo,
    _mesh_lib: &[Arc<Mesh>],
    textures: &[TextureDesc],
    rng: &mut SmallRng,
) -> Vec<SegmentTemplate> {
    let k = info.gameplay_templates;
    let max_shaders = info.vertex_shaders.max(info.fragment_shaders);
    let classes_per_template = max_shaders.div_ceil(k).clamp(3, 12);
    let is_3d = matches!(info.game_type, GameType::ThreeD);
    let mut templates = Vec::with_capacity(k + 1);

    // Menu template: a few big flat UI sprites, cheap shaders.
    let menu_classes = (0..3)
        .map(|c| ObjectClass {
            mesh: 0,
            vertex_shader: ShaderId((c % info.vertex_shaders) as u32),
            fragment_shader: ShaderId((c % info.fragment_shaders) as u32),
            texture: Some(c % textures.len()),
            blend: BlendMode::AlphaBlend,
            depth_test: false,
            base_count: 3.0 * info.intensity,
            count_amplitude: 0.5,
            wobble_freq: 0.2,
            size: if is_3d { 1.2 } else { 0.08 },
            tilt: 0.0,
            distance: 6.0,
        })
        .collect();
    templates.push(SegmentTemplate {
        label: "menu".into(),
        classes: menu_classes,
    });

    // Gameplay templates: disjoint-ish shader subsets so phases are
    // distinguishable in VSCV/FSCV space.
    let mut class_counter = 0usize;
    for tpl in 0..k {
        let mut classes = Vec::with_capacity(classes_per_template + 1);
        if is_3d {
            // Environment strip (road/terrain) — always present, varies
            // in size per template (straight vs turn vs tunnel).
            classes.push(ObjectClass {
                mesh: 2,
                vertex_shader: ShaderId((class_counter % info.vertex_shaders) as u32),
                fragment_shader: ShaderId((class_counter % info.fragment_shaders) as u32),
                texture: Some(class_counter % textures.len()),
                blend: BlendMode::Opaque,
                depth_test: true,
                base_count: 1.0,
                count_amplitude: 0.0,
                wobble_freq: 0.0,
                size: rng.gen_range(1.2..1.9),
                tilt: -1.1,
                distance: rng.gen_range(7.0..10.0),
            });
            class_counter += 1;
        }
        for _ in 0..classes_per_template {
            let mesh = if is_3d {
                [1usize, 3, 4, 1, 4][class_counter % 5]
            } else {
                [0usize, 0, 3, 0][class_counter % 4]
            };
            let blended = class_counter % 6 == 5;
            classes.push(ObjectClass {
                mesh,
                vertex_shader: ShaderId((class_counter % info.vertex_shaders) as u32),
                // `c % q` covers every fragment shader while `c / q`
                // decorrelates the pairing on later laps of the pool.
                fragment_shader: ShaderId(
                    ((class_counter + class_counter / info.fragment_shaders)
                        % info.fragment_shaders) as u32,
                ),
                texture: (class_counter % 7 != 6).then_some(class_counter % textures.len()),
                blend: if blended {
                    BlendMode::Additive
                } else {
                    BlendMode::Opaque
                },
                depth_test: is_3d,
                base_count: rng.gen_range(2.0..7.0) * info.intensity,
                count_amplitude: rng.gen_range(0.3..1.2),
                wobble_freq: rng.gen_range(0.2..1.2),
                size: if is_3d {
                    rng.gen_range(0.35..0.95)
                } else {
                    rng.gen_range(0.03..0.08)
                },
                tilt: 0.0,
                distance: rng.gen_range(6.0..20.0),
            });
            class_counter += 1;
        }
        templates.push(SegmentTemplate {
            label: format!("gameplay_{tpl}"),
            classes,
        });
    }
    templates
}

fn build_timeline(
    _info: &BenchmarkInfo,
    frames: usize,
    template_count: usize,
    rng: &mut SmallRng,
) -> Vec<(usize, usize)> {
    let k = template_count - 1; // template 0 is the menu
    let mut timeline = Vec::new();
    let menu_len = (frames / 30).max(4);
    timeline.push((0usize, menu_len));
    let mut remaining = frames.saturating_sub(menu_len);
    // Gameplay loop: rotate through templates with jittered lengths and
    // the occasional pause-menu, so the same phase recurs many times.
    let base_len = (frames / 45).max(8);
    let mut order: Vec<usize> = (1..=k).collect();
    let mut cursor = 0usize;
    while remaining > 0 {
        if cursor % (k + 3) == k + 2 {
            // Pause menu between laps/levels.
            let len = (base_len / 3).max(2).min(remaining);
            timeline.push((0, len));
            remaining -= len;
        } else {
            // `% k == 0` rather than `is_multiple_of` (MSRV 1.75).
            #[allow(clippy::manual_is_multiple_of)]
            if cursor % k == 0 && rng.gen_bool(0.3) {
                // Occasionally shuffle two phases (different lap lines,
                // different waves) so the loop is not perfectly periodic.
                let a = rng.gen_range(0..k);
                let b = rng.gen_range(0..k);
                order.swap(a, b);
            }
            let tpl = order[cursor % k];
            let len = ((base_len as f64 * rng.gen_range(0.6..1.5)) as usize)
                .max(4)
                .min(remaining);
            timeline.push((tpl, len));
            remaining -= len;
        }
        cursor += 1;
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_benchmarks_matching_table2() {
        let workloads = suite(0.01, 7);
        assert_eq!(workloads.len(), 8);
        for (w, info) in workloads.iter().zip(&BENCHMARKS) {
            assert_eq!(w.alias, info.alias);
            assert_eq!(w.shaders().vertex_count(), info.vertex_shaders);
            assert_eq!(w.shaders().fragment_count(), info.fragment_shaders);
            assert_eq!(w.game_type, info.game_type);
        }
    }

    #[test]
    fn frame_scale_controls_length() {
        let full = build(&BENCHMARKS[3], 1.0, 1); // hcr: 2000 frames
        let tenth = build(&BENCHMARKS[3], 0.1, 1);
        assert_eq!(full.frames(), 2000);
        assert_eq!(tenth.frames(), 200);
    }

    #[test]
    fn scale_check_bounds_every_benchmark_by_max_frames() {
        let max = MAX_FRAMES as f64 / 5000.0; // the longest benchmarks
        assert!(check_scale(max).is_ok());
        assert!(check_scale(0.01).is_ok());
        for bad in [0.0, -1.0, max * 1.01, f64::NAN, f64::INFINITY, 1e30] {
            let err = check_scale(bad).unwrap_err();
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 100000 frames")]
    fn build_rejects_more_than_max_frames() {
        build(&BENCHMARKS[0], 1e12, 1);
    }

    #[test]
    fn by_alias_finds_benchmarks() {
        assert!(by_alias("bbr1", 0.01, 0).is_some());
        assert!(by_alias("nope", 0.01, 0).is_none());
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = build(&BENCHMARKS[0], 0.01, 123);
        let b = build(&BENCHMARKS[0], 0.01, 123);
        assert_eq!(a.frame(5).draws.len(), b.frame(5).draws.len());
        let c = build(&BENCHMARKS[0], 0.01, 124);
        // A different seed perturbs the script (counts may coincide, the
        // timeline should not be identical in every segment).
        let differs = (0..a.frames().min(c.frames()))
            .any(|i| a.frame(i).draws.len() != c.frame(i).draws.len());
        assert!(differs);
    }

    #[test]
    fn all_shaders_are_exercised_somewhere() {
        for info in &BENCHMARKS {
            let w = build(info, 0.01, 3);
            let mut vs_used = vec![false; info.vertex_shaders];
            let mut fs_used = vec![false; info.fragment_shaders];
            for t in w.templates() {
                for c in &t.classes {
                    vs_used[c.vertex_shader.0 as usize] = true;
                    fs_used[c.fragment_shader.0 as usize] = true;
                }
            }
            let vs_cov = vs_used.iter().filter(|&&u| u).count() as f64 / info.vertex_shaders as f64;
            let fs_cov =
                fs_used.iter().filter(|&&u| u).count() as f64 / info.fragment_shaders as f64;
            assert!(vs_cov > 0.9, "{}: vs coverage {vs_cov}", info.alias);
            assert!(fs_cov > 0.75, "{}: fs coverage {fs_cov}", info.alias);
        }
    }

    #[test]
    fn timeline_revisits_templates() {
        let w = build(&BENCHMARKS[1], 0.5, 5);
        let mut visits = vec![0usize; w.templates().len()];
        for s in w.timeline() {
            visits[s.template] += 1;
        }
        // The menu and most gameplay templates recur.
        assert!(visits[0] >= 2, "menu visits = {}", visits[0]);
        let recurring = visits.iter().filter(|&&v| v >= 2).count();
        assert!(recurring >= w.templates().len() / 2);
    }

    #[test]
    fn frames_have_work() {
        let w = build(&BENCHMARKS[5], 0.02, 9);
        for i in 0..w.frames() {
            let f = w.frame(i);
            assert!(!f.draws.is_empty(), "frame {i} is empty");
        }
    }
}
