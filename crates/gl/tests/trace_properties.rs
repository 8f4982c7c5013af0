//! Property tests of the GL trace layer: record/replay fidelity on real
//! workloads and decoder robustness against arbitrary bytes.

use std::path::PathBuf;

use proptest::prelude::*;

use megsim_gl::{decode, encode, encode_v2, play, record_sequence};
use megsim_workloads::{build, BENCHMARKS};

/// Loads a golden corpus file (`v2 = false` for `tests/data`, `true`
/// for `tests/data/v2`).
fn corpus_bytes(alias: &str, v2: bool) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(if v2 { "tests/data/v2" } else { "tests/data" })
        .join(format!("{alias}.mglt"));
    std::fs::read(path).expect("corpus file present")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full TEAPOT-style loop — record a workload, write the trace
    /// file, read it back, replay — must reproduce every draw call.
    #[test]
    fn workload_trace_roundtrip(bench in 0usize..8, seed in 0u64..50) {
        let w = build(&BENCHMARKS[bench], 0.002, seed);
        let frames: Vec<_> = w.iter_frames().collect();
        let stream = record_sequence(w.shaders(), &frames);
        let bytes = encode(&stream);
        let decoded = decode(&bytes).expect("self-produced trace decodes");
        prop_assert_eq!(&stream, &decoded);
        let replay = play(&decoded).expect("self-produced trace plays");
        prop_assert_eq!(replay.frames.len(), frames.len());
        prop_assert_eq!(replay.shaders.vertex_count(), w.shaders().vertex_count());
        prop_assert_eq!(replay.shaders.fragment_count(), w.shaders().fragment_count());
        for (orig, back) in frames.iter().zip(&replay.frames) {
            prop_assert_eq!(orig.draws.len(), back.draws.len());
            for (a, b) in orig.draws.iter().zip(&back.draws) {
                prop_assert_eq!(&*a.mesh, &*b.mesh);
                prop_assert_eq!(a.transform, b.transform);
                prop_assert_eq!(a.vertex_shader, b.vertex_shader);
                prop_assert_eq!(a.fragment_shader, b.fragment_shader);
                prop_assert_eq!(a.texture, b.texture);
                prop_assert_eq!(a.blend, b.blend);
                prop_assert_eq!(a.depth_test, b.depth_test);
            }
        }
    }

    /// The decoder must never panic on arbitrary input.
    #[test]
    fn decoder_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// Bit-flipping a valid trace must either decode to *something* or
    /// fail cleanly — never panic.
    #[test]
    fn decoder_survives_corruption(bench in 0usize..4, flip in 0usize..4096, bit in 0u8..8) {
        let w = build(&BENCHMARKS[bench], 0.001, 3);
        let frames: Vec<_> = w.iter_frames().take(3).collect();
        let stream = record_sequence(w.shaders(), &frames);
        let mut bytes = encode(&stream).to_vec();
        let idx = flip % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = decode(&bytes);
    }

    /// Recording through the v2 wire format is as lossless as v1: both
    /// encodings of the same workload decode to the same stream.
    #[test]
    fn v2_roundtrip_matches_v1(bench in 0usize..8, seed in 0u64..50) {
        let w = build(&BENCHMARKS[bench], 0.001, seed);
        let frames: Vec<_> = w.iter_frames().take(3).collect();
        let stream = record_sequence(w.shaders(), &frames);
        let v1 = decode(&encode(&stream)).expect("v1 decodes");
        let v2 = decode(&encode_v2(&stream)).expect("v2 decodes");
        prop_assert_eq!(&stream, &v1);
        prop_assert_eq!(&v1, &v2);
    }

    /// Flipping any single bit of a golden corpus file (either wire
    /// version) must decode cleanly or fail with an error whose byte
    /// offset lies inside the file — never panic, never point past the
    /// bytes that exist.
    #[test]
    fn corpus_survives_bit_flips(bench in 0usize..8, v2 in any::<bool>(), flip in 0usize..8192, bit in 0u8..8) {
        let mut bytes = corpus_bytes(BENCHMARKS[bench].alias, v2);
        let idx = flip % bytes.len();
        bytes[idx] ^= 1 << bit;
        if let Err(e) = decode(&bytes) {
            prop_assert!(
                e.offset <= bytes.len() as u64,
                "error offset {} past end of {}-byte input: {e}",
                e.offset,
                bytes.len()
            );
        }
    }

    /// Truncating a golden corpus file anywhere before its end must
    /// fail (the header's command count can no longer be satisfied)
    /// with an error offset at or before the cut.
    #[test]
    fn corpus_truncation_errors_in_range(bench in 0usize..8, v2 in any::<bool>(), cut in 0usize..8192) {
        let bytes = corpus_bytes(BENCHMARKS[bench].alias, v2);
        let cut = cut % bytes.len();
        let err = decode(&bytes[..cut]).expect_err("truncated trace must not decode");
        prop_assert!(
            err.offset <= cut as u64,
            "error offset {} past the {cut}-byte cut: {err}",
            err.offset
        );
    }
}
