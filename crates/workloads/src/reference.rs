//! The seed workload generator, retained verbatim.
//!
//! [`ReferenceWorkload`] wraps a [`Workload`] and regenerates its frames
//! with the *original* per-instance code path: a fresh `SmallRng`
//! seeding plus three uniform draws per instance, per frame, and every
//! matrix (including the constant `rotation_x(tilt)` / `scale(size)` /
//! `perspective` factors) rebuilt from scratch. The optimized
//! [`Workload::frame`] must stay bit-identical to this for every frame
//! of every benchmark — the proptest oracles in
//! `tests/reference_oracle.rs` and the `workloads` bench enforce that.
//!
//! This module is compiled only under `cfg(test)` or the `reference`
//! feature; it never ships in the production build.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use megsim_gfx::draw::{DrawCall, Frame};
use megsim_gfx::math::{Mat4, Vec3};

use crate::game::{GameType, ObjectClass, Workload};

/// Seed-code frame generator view over a [`Workload`].
#[derive(Debug, Clone, Copy)]
pub struct ReferenceWorkload<'a>(pub &'a Workload);

impl ReferenceWorkload<'_> {
    /// Generates frame `i` with the seed generator's exact code.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.0.frames()`.
    pub fn frame(&self, i: usize) -> Frame {
        let w = self.0;
        let segment = *w.segment_at(i);
        let template = &w.templates[segment.template];
        let mut rng =
            SmallRng::seed_from_u64(w.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let t = i as f32 * 0.03;
        let spike_class = if rng.gen_bool(w.spike_probability) {
            Some(rng.gen_range(0..template.classes.len().max(1)))
        } else {
            None
        };
        let offset = i - segment.start;
        let window = (segment.len / 12).clamp(1, 3);
        let transition = if offset < window {
            1.0 + (w.transition_boost - 1.0) * 0.5f64.powi(offset as i32)
        } else {
            1.0
        };
        let mut frame = Frame::new();
        for (ci, class) in template.classes.iter().enumerate() {
            let wobble = (t as f64 * class.wobble_freq + ci as f64 * 1.7).sin();
            let mut count = (class.base_count * segment.intensity + class.count_amplitude * wobble)
                * transition;
            count *= 1.0 + w.noise * rng.gen_range(-1.0..1.0);
            if spike_class == Some(ci) {
                count *= 2.0;
            }
            let count = count.round().max(0.0) as usize;
            for j in 0..count {
                frame
                    .draws
                    .push(self.instance(class, ci, j, i, t, &mut rng));
            }
        }
        frame
    }

    /// Iterates over all frames with the seed generator.
    pub fn iter_frames(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.0.frames()).map(move |i| self.frame(i))
    }

    fn instance(
        &self,
        class: &ObjectClass,
        class_index: usize,
        j: usize,
        frame_index: usize,
        t: f32,
        rng: &mut SmallRng,
    ) -> DrawCall {
        let w = self.0;
        // Stable per-(class, instance) placement that drifts with time:
        // instances keep their identity across frames of a segment.
        let mut prng = SmallRng::seed_from_u64(
            w.seed ^ ((class_index as u64) << 32) ^ (j as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let px = prng.gen_range(-0.85..0.85f32);
        let py = prng.gen_range(-0.75..0.75f32);
        let phase = prng.gen_range(0.0..std::f32::consts::TAU);
        let drift_x = (t * 0.8 + phase).sin() * 0.12;
        let drift_y = (t * 0.5 + phase).cos() * 0.08;
        let _ = frame_index;
        let transform = match w.game_type {
            GameType::TwoD => {
                // Orthographic: place directly in NDC; layer by class.
                let layer = class_index as f32 * 0.01 + j as f32 * 1e-4;
                Mat4::translation(Vec3::new(px + drift_x, py + drift_y, -layer))
                    * Mat4::rotation_z((t + phase) * 0.3)
                    * Mat4::rotation_x(class.tilt)
                    * Mat4::scale(Vec3::splat(class.size))
            }
            GameType::ThreeD => {
                let dist = class.distance * (1.0 + 0.3 * (t * 0.4 + phase).sin());
                let proj = Mat4::perspective(1.05, 2.0, 0.5, 120.0);
                proj * Mat4::translation(Vec3::new(
                    (px + drift_x) * dist * 0.9,
                    (py + drift_y) * dist * 0.55,
                    -dist,
                )) * Mat4::rotation_y(t * 0.7 + phase)
                    * Mat4::rotation_x(class.tilt)
                    * Mat4::scale(Vec3::splat(class.size))
            }
        };
        let _ = rng;
        DrawCall {
            mesh: Arc::clone(&w.meshes[class.mesh]),
            transform,
            vertex_shader: class.vertex_shader,
            fragment_shader: class.fragment_shader,
            texture: class.texture.map(|i| w.textures[i]),
            blend: class.blend,
            depth_test: class.depth_test,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise view of a matrix: stricter than `PartialEq` (which is
    /// f32 value equality and would conflate `-0.0` with `0.0`).
    fn mat_bits(m: &Mat4) -> [[u32; 4]; 4] {
        let c = |v: &megsim_gfx::math::Vec4| {
            [v.x.to_bits(), v.y.to_bits(), v.z.to_bits(), v.w.to_bits()]
        };
        [c(&m.cols[0]), c(&m.cols[1]), c(&m.cols[2]), c(&m.cols[3])]
    }

    /// The optimized generator must match the seed generator bit for
    /// bit on real suite workloads at a tiny scale (the integration
    /// oracle covers all 8 aliases under `--features reference`).
    #[test]
    fn optimized_matches_reference_on_tiny_workload() {
        // One 2-D and one 3-D game: spikes, noise and transitions all
        // exercised at frame_scale 0.01.
        for alias in ["bbr1", "asp"] {
            let w = crate::by_alias(alias, 0.01, 42).expect("known alias");
            let refw = ReferenceWorkload(&w);
            for i in 0..w.frames() {
                let fast = w.frame(i);
                let seed = refw.frame(i);
                assert_eq!(fast.draws.len(), seed.draws.len(), "{alias} frame {i}");
                for (a, b) in fast.draws.iter().zip(&seed.draws) {
                    assert_eq!(
                        mat_bits(&a.transform),
                        mat_bits(&b.transform),
                        "{alias} frame {i}"
                    );
                    assert_eq!(a.vertex_shader, b.vertex_shader);
                    assert_eq!(a.fragment_shader, b.fragment_shader);
                    assert_eq!(a.texture, b.texture);
                    assert_eq!(a.blend, b.blend);
                    assert_eq!(a.depth_test, b.depth_test);
                    assert!(Arc::ptr_eq(&a.mesh, &b.mesh), "{alias} frame {i}");
                }
            }
        }
    }

    /// Parallel batch generation is bit-identical to sequential
    /// iteration at several thread counts.
    #[test]
    fn generate_frames_matches_iter_frames_across_threads() {
        let w = crate::by_alias("hcr", 0.01, 7).expect("known alias");
        let serial: Vec<_> = w.iter_frames().collect();
        for threads in [1, 2, 8] {
            let batch = megsim_exec::with_threads(threads, || w.generate_frames());
            assert_eq!(batch.len(), serial.len());
            for (i, (a, b)) in batch.iter().zip(&serial).enumerate() {
                assert_eq!(a.draws.len(), b.draws.len(), "frame {i} @ {threads}t");
                for (x, y) in a.draws.iter().zip(&b.draws) {
                    assert_eq!(mat_bits(&x.transform), mat_bits(&y.transform));
                }
            }
        }
    }
}
