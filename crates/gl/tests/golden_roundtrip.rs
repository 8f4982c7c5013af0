//! Golden round-trip tests over a checked-in `MGLT` corpus.
//!
//! One small trace per Table II benchmark lives under `tests/data/`.
//! The corpus pins the on-disk format: decoding it, re-encoding it, and
//! re-recording the same workload must all agree byte for byte. Any
//! codec change that alters the wire format fails here and forces a
//! [`FORMAT_VERSION`] bump plus corpus regeneration (run the `#[ignore]`
//! `regenerate_corpus` test).

use std::fs;
use std::path::PathBuf;

use megsim_gl::{
    decode, encode, encode_v2, play, record_sequence, FORMAT_VERSION, FORMAT_VERSION_V2,
};
use megsim_workloads::{build, BENCHMARKS};

/// Corpus parameters: small enough to keep the files a few KiB each,
/// large enough to exercise every command kind (uploads, state changes,
/// draws, swaps).
const SCALE: f64 = 0.002;
const SEED: u64 = 42;
const FRAMES: usize = 4;

fn corpus_path(alias: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{alias}.mglt"))
}

fn corpus_path_v2(alias: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/v2")
        .join(format!("{alias}.mglt"))
}

fn record_alias(alias: &str) -> (Vec<megsim_gfx::draw::Frame>, bytes::Bytes) {
    let info = BENCHMARKS
        .iter()
        .find(|b| b.alias == alias)
        .expect("known alias");
    let w = build(info, SCALE, SEED);
    let frames: Vec<_> = w.iter_frames().take(FRAMES).collect();
    let stream = record_sequence(w.shaders(), &frames);
    (frames, encode(&stream))
}

/// The format version the corpus was generated with. A bump without
/// regenerating the corpus is caught here before the byte comparison
/// produces a confusing diff.
#[test]
fn corpus_matches_current_format_version() {
    assert_eq!(FORMAT_VERSION, 1, "bump => regenerate tests/data corpus");
    assert_eq!(
        FORMAT_VERSION_V2, 2,
        "bump => regenerate tests/data/v2 corpus"
    );
    for b in BENCHMARKS {
        for (path, expected) in [
            (corpus_path(b.alias), FORMAT_VERSION),
            (corpus_path_v2(b.alias), FORMAT_VERSION_V2),
        ] {
            let bytes = fs::read(&path).expect("corpus file present");
            assert_eq!(&bytes[..4], b"MGLT", "{}: magic", b.alias);
            let version = u16::from_le_bytes([bytes[4], bytes[5]]);
            assert_eq!(version, expected, "{}: header version", b.alias);
        }
    }
}

/// Decode corpus → re-encode → identical bytes (canonical encoding),
/// and a fresh recording of the same workload produces the same trace.
#[test]
fn corpus_roundtrips_byte_identical() {
    for b in BENCHMARKS {
        let golden = fs::read(corpus_path(b.alias)).expect("corpus file present");
        let stream = decode(&golden).expect("corpus decodes");
        assert_eq!(
            encode(&stream).as_ref(),
            golden.as_slice(),
            "{}: re-encode is not byte-identical",
            b.alias
        );
        let (_, fresh) = record_alias(b.alias);
        assert_eq!(
            fresh.as_ref(),
            golden.as_slice(),
            "{}: fresh recording drifted from corpus",
            b.alias
        );
    }
}

/// The varint v2 corpus decodes to exactly the same command stream as
/// the v1 corpus, re-encodes byte-identically (canonical varints), and
/// matches a fresh recording — while staying at least 25% smaller than
/// the v1 bytes on every benchmark.
#[test]
fn v2_corpus_roundtrips_byte_identical_and_compact() {
    for b in BENCHMARKS {
        let golden_v1 = fs::read(corpus_path(b.alias)).expect("v1 corpus present");
        let golden_v2 = fs::read(corpus_path_v2(b.alias)).expect("v2 corpus present");
        let from_v1 = decode(&golden_v1).expect("v1 corpus decodes");
        let from_v2 = decode(&golden_v2).expect("v2 corpus decodes");
        assert_eq!(
            from_v1, from_v2,
            "{}: wire versions decode to different streams",
            b.alias
        );
        assert_eq!(
            encode_v2(&from_v2).as_ref(),
            golden_v2.as_slice(),
            "{}: v2 re-encode is not byte-identical",
            b.alias
        );
        assert!(
            golden_v2.len() * 4 <= golden_v1.len() * 3,
            "{}: v2 ({} bytes) is not >=25% smaller than v1 ({} bytes)",
            b.alias,
            golden_v2.len(),
            golden_v1.len()
        );
    }
}

/// Cross-version round trip: decode v1 → encode v2 → decode → the same
/// command stream (and back the other way). Transcoding between wire
/// versions is lossless in both directions.
#[test]
fn cross_version_transcode_is_lossless() {
    for b in BENCHMARKS {
        let golden = fs::read(corpus_path(b.alias)).expect("corpus file present");
        let stream = decode(&golden).expect("corpus decodes");
        let via_v2 = decode(&encode_v2(&stream)).expect("transcoded v2 decodes");
        assert_eq!(stream, via_v2, "{}: v1 -> v2 -> decode drifted", b.alias);
        let back_to_v1 = encode(&via_v2);
        assert_eq!(
            back_to_v1.as_ref(),
            golden.as_slice(),
            "{}: v2 -> v1 did not reproduce the golden bytes",
            b.alias
        );
    }
}

/// Replaying the corpus reproduces the original workload frames.
#[test]
fn corpus_replays_to_original_frames() {
    for b in BENCHMARKS {
        let golden = fs::read(corpus_path(b.alias)).expect("corpus file present");
        let stream = decode(&golden).expect("corpus decodes");
        let replay = play(&stream).expect("corpus plays");
        let (frames, _) = record_alias(b.alias);
        assert_eq!(replay.frames.len(), frames.len(), "{}", b.alias);
        for (i, (orig, back)) in frames.iter().zip(&replay.frames).enumerate() {
            assert_eq!(orig.draws.len(), back.draws.len(), "{} frame {i}", b.alias);
            for (a, bd) in orig.draws.iter().zip(&back.draws) {
                assert_eq!(&*a.mesh, &*bd.mesh, "{} frame {i}", b.alias);
                assert_eq!(a.transform, bd.transform, "{} frame {i}", b.alias);
                assert_eq!(a.vertex_shader, bd.vertex_shader, "{} frame {i}", b.alias);
                assert_eq!(
                    a.fragment_shader, bd.fragment_shader,
                    "{} frame {i}",
                    b.alias
                );
                assert_eq!(a.texture, bd.texture, "{} frame {i}", b.alias);
                assert_eq!(a.blend, bd.blend, "{} frame {i}", b.alias);
                assert_eq!(a.depth_test, bd.depth_test, "{} frame {i}", b.alias);
            }
        }
    }
}

/// Rewrites the corpus from the current codec. Run after an intentional
/// format change (with a `FORMAT_VERSION` bump):
/// `cargo test -p megsim-gl --test golden_roundtrip -- --ignored`
#[test]
#[ignore = "regenerates tests/data — run only after an intentional format change"]
fn regenerate_corpus() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    fs::create_dir_all(dir.join("v2")).expect("create corpus dirs");
    for b in BENCHMARKS {
        let (_, bytes) = record_alias(b.alias);
        fs::write(corpus_path(b.alias), &bytes).expect("write corpus file");
        let stream = decode(&bytes).expect("self-produced trace decodes");
        fs::write(corpus_path_v2(b.alias), encode_v2(&stream)).expect("write v2 corpus file");
    }
}
