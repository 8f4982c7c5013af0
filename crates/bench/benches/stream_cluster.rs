//! Streaming online clustering benchmark: the single-pass bounded-memory
//! selection path against the exact two-pass batch path, across three
//! decades of trace length (10³, 10⁴, 10⁵ synthetic frames).
//!
//! Three claims are printed: (1) the headline wall-clock speedup at 10⁵ frames, (2) the
//! streaming path's near-linear n-scaling (the 10⁵/10⁴ time ratio,
//! guarded below 30× — an O(n²) path would read ~100×), and (3) the
//! bounded-memory fence (peak retained rows vs the reservoir knob).
//! A fourth leg drives 10⁴ real frames through the fused
//! decode→characterize→cluster pipeline to time the end-to-end path.

use std::time::Instant;

use megsim_bench::report::available_cores;
use megsim_core::evaluate::characterize_stream;
use megsim_core::pipeline::{
    select_representatives, select_representatives_stream, MegsimConfig, StreamClusterConfig,
};
use megsim_core::{FeatureMatrix, FrameCache};
use megsim_timing::GpuConfig;
use megsim_workloads::by_alias;

/// Best-of-`reps` wall-clock seconds for `f`.
fn secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A synthetic two-phase feature matrix of `n` frames: alternating
/// 18-frame "menu" and "gameplay" scenes with jittered shader activity,
/// the shape of the paper's workloads stretched to arbitrary length.
fn two_phase_matrix(n: usize) -> FeatureMatrix {
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let jitter = (i as f64 * 0.7).sin() * 5.0;
        if (i / 18) % 2 == 0 {
            rows.push(vec![100.0 + jitter, 0.0, 500.0 + jitter, 0.0, 50.0]);
        } else {
            rows.push(vec![0.0, 900.0 + jitter, 0.0, 4000.0 + jitter, 300.0]);
        }
    }
    FeatureMatrix::from_rows(rows, 2, 2)
}

fn main() {
    let cores = available_cores();
    let config = MegsimConfig::default().with_seed(42);
    let stream = StreamClusterConfig::default();
    // Every streaming reading is unreadable without the knobs that
    // bounded it and the hardware it ran on.
    println!(
        "stream bench: reservoir {} rows, mini-batch {}, {cores} available core(s)",
        stream.reservoir_capacity, stream.batch_size
    );

    let mut stream_secs_by_n = Vec::new();
    for &n in &[1_000usize, 10_000, 100_000] {
        let matrix = two_phase_matrix(n);
        // The exact path re-runs the full k-search over all n rows; one
        // rep at the largest size keeps the bench CI-sized.
        let reps = if n >= 100_000 { 1 } else { 3 };
        let batch = secs(reps, || {
            std::hint::black_box(select_representatives(&matrix, &config));
        });
        let streamed = secs(reps, || {
            std::hint::black_box(select_representatives_stream(&matrix, &config, &stream));
        });
        let outcome = select_representatives_stream(&matrix, &config, &stream);
        let fence = stream.reservoir_capacity + stream.batch_size;
        assert!(
            outcome.peak_rows_retained <= fence,
            "memory fence breached at n={n}: peak {} > {}",
            outcome.peak_rows_retained,
            fence
        );
        println!(
            "n={n}: batch {batch:.3}s, stream {streamed:.3}s ({:.1}x), k={} peak_rows={}",
            batch / streamed,
            outcome.selection.k(),
            outcome.peak_rows_retained
        );
        stream_secs_by_n.push(streamed);
    }

    // n-scaling guard: a 10x problem must cost nowhere near 100x. The
    // streaming path is O(n·k); a quadratic regression would read ~100.
    let scaling = stream_secs_by_n[2] / stream_secs_by_n[1];
    println!("stream n-scaling 1e5/1e4: {scaling:.1}x (guard < 30)");
    assert!(
        scaling < 30.0,
        "streaming path lost its linear n-scaling: 10x the frames cost {scaling:.1}x the time"
    );

    // End-to-end fused pipeline: 10⁴ real frames (a 100-frame workload
    // cycled with the frame cache on, so replay cost stays realistic
    // without 10⁴ distinct renders) through decode→characterize→cluster.
    let workload = by_alias("jjo", 0.02, 42).expect("known alias");
    let frames: Vec<_> = workload.generate_frames();
    let gpu = GpuConfig::small(192, 192);
    let n_e2e = 10_000usize;
    let cache = FrameCache::new();
    let e2e = secs(1, || {
        let sel = characterize_stream(
            frames.iter().cycle().take(n_e2e).cloned(),
            workload.shaders(),
            &gpu,
            &config,
            &stream,
            Some(&cache),
        );
        assert_eq!(sel.selection.labels.len(), n_e2e);
        std::hint::black_box(sel);
    });
    println!(
        "fused characterize+cluster: {} frames in {e2e:.2}s ({:.0} frames/s)",
        n_e2e,
        n_e2e as f64 / e2e
    );
}
