//! Trace codec benchmark: the varint v2 wire format (PR 7) against the
//! frozen v1 bytes, and streamed replay (decode → render → timing
//! overlapped through the frame pipeline) against the materialized
//! decode-everything-first path.
//!
//! Three readings are printed:
//!
//! * encoded size of the 8-alias golden-corpus workloads under each
//!   wire version (the acceptance bar is v2 ≥ 25% smaller),
//! * decode throughput in MB/s for each version,
//! * warm-replay frames/s streamed vs. materialized at 1/2/max worker
//!   threads, printed next to the available core count — on a
//!   1-core runner decode/render/timing overlap is impossible and
//!   ~1.0× is the expected reading.

use std::io::Cursor;
use std::time::Instant;

use megsim_bench::report::{available_cores, core_note};
use megsim_core::{simulate, FrameStart};
use megsim_gl::{decode, encode, encode_v2, play, record_sequence, FrameIter};
use megsim_timing::{GpuConfig, MultiGpuConfig};
use megsim_workloads::{build, by_alias, BENCHMARKS};

/// Best-of-three wall-clock seconds for `f` (after one warm-up pass).
fn secs(mut f: impl FnMut()) -> f64 {
    f();
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The 1/2/max thread sweep (clamped to 2 points minimum so a 1-core
/// box still records an oversubscribed reading).
fn sweep_points(cores: usize) -> Vec<usize> {
    let mut points = vec![1, 2, cores.max(2)];
    points.dedup();
    points
}

fn main() {
    let cores = available_cores();

    // Wire-format size: the golden-corpus workloads (same scale/seed/
    // frame-count as crates/gl/tests/data) encoded under each version.
    let mut v1_total = 0usize;
    let mut v2_total = 0usize;
    for b in BENCHMARKS {
        let w = build(&b, 0.002, 42);
        let frames: Vec<_> = w.iter_frames().take(4).collect();
        let stream = record_sequence(w.shaders(), &frames);
        v1_total += encode(&stream).len();
        v2_total += encode_v2(&stream).len();
    }
    let shrink = 100.0 * (1.0 - v2_total as f64 / v1_total as f64);
    println!("codec size: v1 {v1_total} B, v2 {v2_total} B ({shrink:.1}% smaller)");

    // Decode throughput on a longer single-workload trace.
    let workload = by_alias("pvz", 0.02, 42).expect("known alias");
    let frames: Vec<_> = workload.iter_frames().collect();
    let stream = record_sequence(workload.shaders(), &frames);
    for (name, bytes) in [("v1", encode(&stream)), ("v2", encode_v2(&stream))] {
        let t = secs(|| {
            std::hint::black_box(decode(&bytes).expect("valid trace"));
        });
        let mb_per_sec = bytes.len() as f64 / t / 1e6;
        println!(
            "codec decode {name}: {mb_per_sec:.1} MB/s over {} B",
            bytes.len()
        );
    }

    // Streamed vs. materialized warm replay. Materialized decodes and
    // plays the whole trace, then simulates; streamed pulls frames off
    // the byte stream through the decode/render/timing pipeline.
    let bytes = encode_v2(&stream);
    let n = frames.len() as f64;
    let cfg = GpuConfig::mali450_like();
    for &threads in &sweep_points(cores) {
        let (materialized, streamed) = megsim_exec::with_threads(threads, || {
            let materialized = secs(|| {
                let replay = play(&decode(&bytes).expect("valid trace")).expect("valid stream");
                std::hint::black_box(simulate(
                    replay.frames.iter().cloned(),
                    &replay.shaders,
                    &cfg,
                    MultiGpuConfig::single(),
                    FrameStart::Warm,
                ));
            });
            let streamed = secs(|| {
                let iter = FrameIter::new(Cursor::new(&bytes[..])).expect("valid header");
                let shaders = iter.shaders().clone();
                std::hint::black_box(simulate(
                    iter.map(|f| f.expect("valid frame")),
                    &shaders,
                    &cfg,
                    MultiGpuConfig::single(),
                    FrameStart::Warm,
                ));
            });
            (materialized, streamed)
        });
        println!(
            "codec replay: streamed t{threads} {:.1} frames/s vs materialized {:.1} ({:.2}x on {cores} core(s)){}",
            n / streamed,
            n / materialized,
            materialized / streamed,
            if threads > 1 { core_note(cores) } else { "" }
        );
    }
}
