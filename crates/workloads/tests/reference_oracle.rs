//! Bit-identity oracle: the memoized-template fast path must reproduce
//! the retained seed generator (`ReferenceWorkload`) bit for bit for
//! every frame of every Table II benchmark, at every thread count.
//!
//! Gated behind `--features reference` (CI runs it per-crate in the
//! oracle matrix); plain `cargo test` skips the heavy sweep and relies
//! on the in-crate unit oracle instead.

#![cfg(feature = "reference")]

use proptest::prelude::*;

use megsim_gfx::draw::{DrawCall, Frame};
use megsim_workloads::{build, suite, ReferenceWorkload, BENCHMARKS};

/// Bitwise draw-call comparison: transform bits (stricter than the f32
/// `PartialEq`, which conflates `-0.0` with `0.0`), full pipeline
/// state, and pointer-identical meshes.
fn assert_draws_identical(alias: &str, i: usize, fast: &Frame, seed: &Frame) {
    assert_eq!(
        fast.draws.len(),
        seed.draws.len(),
        "{alias} frame {i}: draw count"
    );
    for (d, (a, b)) in fast.draws.iter().zip(&seed.draws).enumerate() {
        assert_eq!(
            transform_bits(a),
            transform_bits(b),
            "{alias} frame {i} draw {d}: transform bits"
        );
        assert_eq!(
            a.vertex_shader, b.vertex_shader,
            "{alias} frame {i} draw {d}"
        );
        assert_eq!(
            a.fragment_shader, b.fragment_shader,
            "{alias} frame {i} draw {d}"
        );
        assert_eq!(a.texture, b.texture, "{alias} frame {i} draw {d}");
        assert_eq!(a.blend, b.blend, "{alias} frame {i} draw {d}");
        assert_eq!(a.depth_test, b.depth_test, "{alias} frame {i} draw {d}");
        assert!(
            std::sync::Arc::ptr_eq(&a.mesh, &b.mesh),
            "{alias} frame {i} draw {d}: mesh identity"
        );
    }
}

fn transform_bits(d: &DrawCall) -> [u32; 16] {
    let mut out = [0u32; 16];
    for (c, col) in d.transform.cols.iter().enumerate() {
        out[c * 4] = col.x.to_bits();
        out[c * 4 + 1] = col.y.to_bits();
        out[c * 4 + 2] = col.z.to_bits();
        out[c * 4 + 3] = col.w.to_bits();
    }
    out
}

/// Every frame of every Table II benchmark, all three CI thread
/// counts: the parallel batch path must equal the seed generator.
#[test]
fn full_suite_is_bit_identical_at_1_2_8_threads() {
    let workloads = suite(0.01, 42);
    assert_eq!(workloads.len(), BENCHMARKS.len());
    for threads in [1usize, 2, 8] {
        for w in &workloads {
            let reference: Vec<Frame> = ReferenceWorkload(w).iter_frames().collect();
            let batch = megsim_exec::with_threads(threads, || w.generate_frames());
            assert_eq!(batch.len(), reference.len(), "{}", w.alias);
            for (i, (fast, seed)) in batch.iter().zip(&reference).enumerate() {
                assert_draws_identical(&w.alias, i, fast, seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized (benchmark, scale, seed) sweep: single frames probed
    /// across the sequence, plus a parallel sub-range.
    #[test]
    fn random_workloads_match_reference(
        bench in 0usize..8,
        scale in 0.002f64..0.02,
        seed in 0u64..10_000,
        probe in 0.0f64..1.0,
    ) {
        let w = build(&BENCHMARKS[bench], scale, seed);
        let r = ReferenceWorkload(&w);
        let i = ((w.frames() - 1) as f64 * probe) as usize;
        // The probed frame, its neighbors, and the segment-transition
        // frame 0 (spike/transition boost paths).
        for idx in [0, i.saturating_sub(1), i, (i + 1).min(w.frames() - 1)] {
            let fast = w.frame(idx);
            let seed_frame = r.frame(idx);
            assert_draws_identical(&w.alias, idx, &fast, &seed_frame);
        }
        // A parallel sub-range around the probe.
        let start = i.saturating_sub(8);
        let end = (i + 8).min(w.frames());
        let batch = w.generate_range(start..end);
        for (k, fast) in batch.iter().enumerate() {
            let seed_frame = r.frame(start + k);
            assert_draws_identical(&w.alias, start + k, fast, &seed_frame);
        }
    }
}
