//! Intra-frame parallel timing benchmark: the raster phase recorded as
//! tile-shard logs in parallel and replayed in order, against the same
//! recorder feeding its replay directly at one thread, swept over
//! 1/2/max worker threads, plus the same sweep for the warm-sequence
//! render/timing pipeline. Both parallel paths are bit-identical to
//! their one-thread baselines at every point of the sweep (pinned by
//! `tests/determinism.rs`), so the curve measures pure overlap.
//!
//! Every speedup is printed next to the available core count: on a
//! 1-core runner overlap is impossible and ~1.0× (or slightly below,
//! from record-stage overhead) is the expected reading — the printed
//! note and core count keep that from masquerading as a regression or
//! a win.

use std::time::Instant;

use megsim_bench::report::{available_cores, core_note};
use megsim_core::{simulate, FrameStart};
use megsim_funcsim::{FrameTrace, RenderConfig, RenderMode, Renderer};
use megsim_timing::{Gpu, GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

const MODES: [(&str, RenderMode); 3] = [
    ("tbr", RenderMode::TileBased),
    ("tbdr", RenderMode::TileBasedDeferred),
    ("imr", RenderMode::Immediate),
];

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

/// The 1/2/4/max thread sweep. On a 1-core box max is clamped to 2 so
/// the curve still has an oversubscribed point (documenting the
/// overhead of sharding without parallelism); the 4-thread point — the
/// CI scaling gate's reading — is only swept when 4 cores are actually
/// available.
fn sweep_points(cores: usize) -> Vec<usize> {
    let mut points = vec![1, 2];
    if cores >= 4 {
        points.push(4);
    }
    if cores.max(2) > *points.last().expect("non-empty") {
        points.push(cores.max(2));
    }
    points
}

fn main() {
    let cores = available_cores();
    let sweep = sweep_points(cores);
    println!("intra-frame bench: {cores} available core(s), thread sweep {sweep:?}");

    // Tile-sharded timing: simulate a warm trace sequence per render
    // mode at each thread count above one, where the raster phase
    // records shard logs in parallel, against one thread, where the
    // recorder feeds the replay directly.
    let workload = by_alias("bbr1", 0.01, 7).expect("known alias");
    let shaders = workload.shaders();
    let mut best_t4_speedup = 0.0f64;
    for (name, mode) in MODES {
        let mut cfg = GpuConfig::mali450_like();
        cfg.render_mode = mode;
        let renderer = Renderer::new(RenderConfig {
            viewport: cfg.viewport,
            mode,
        });
        let traces: Vec<FrameTrace> = workload
            .iter_frames()
            .map(|f| renderer.render_frame(&f, shaders))
            .collect();
        let n = traces.len() as f64;
        let run = || {
            let mut gpu = Gpu::new(cfg.clone());
            for t in &traces {
                std::hint::black_box(gpu.simulate_frame(t, shaders).cycles);
            }
        };
        let direct = megsim_exec::with_threads(1, || secs(run));
        for &threads in sweep.iter().filter(|&&t| t > 1) {
            let sharded = megsim_exec::with_threads(threads, || secs(run));
            if threads == 4 {
                best_t4_speedup = best_t4_speedup.max(direct / sharded);
            }
            println!(
                "intra-frame {name}: sharded t{threads} {:.1} frames/s vs direct (t1) {:.1} ({:.2}x on {cores} core(s)){}",
                n / sharded,
                n / direct,
                direct / sharded,
                core_note(cores)
            );
        }
    }

    // Warm-sequence pipeline (render frame N+1 while timing frame N)
    // under the same sweep; at one thread the pipeline degrades to the
    // inline sequential loop, so t1 is its own baseline.
    let cfg = GpuConfig::mali450_like();
    let frames = workload.frames() as f64;
    let mut warm_t1 = f64::NAN;
    for &threads in &sweep {
        let warm = megsim_exec::with_threads(threads, || {
            secs(|| {
                std::hint::black_box(simulate(
                    workload.iter_frames(),
                    workload.shaders(),
                    &cfg,
                    MultiGpuConfig::single(),
                    FrameStart::Warm,
                ));
            })
        });
        if threads == 1 {
            warm_t1 = warm;
        }
        println!(
            "warm pipeline: t{threads} {:.1} frames/s ({:.2}x vs t1 on {cores} core(s)){}",
            frames / warm,
            warm_t1 / warm,
            if threads > 1 { core_note(cores) } else { "" }
        );
    }

    if cores >= 4 {
        println!("intra-frame best sharded speedup at 4 threads: {best_t4_speedup:.2}x");
    }

    // CI scaling gate (`MEGSIM_SCALING_GATE=<min speedup>`): on a
    // machine with at least 4 cores, the best 4-thread sharded speedup
    // across render modes must clear the threshold — multi-core overlap
    // is a deliverable, not a best-effort. Below 4 cores the gate
    // cannot measure anything meaningful and skips with a warning
    // (matching the in-job `available_parallelism` assertion in CI).
    if let Ok(gate) = std::env::var("MEGSIM_SCALING_GATE") {
        let gate: f64 = gate
            .parse()
            .unwrap_or_else(|_| panic!("invalid MEGSIM_SCALING_GATE '{gate}' (want e.g. 1.5)"));
        if cores < 4 {
            eprintln!(
                "warning: scaling gate skipped: {cores} core(s) available, the 4-thread \
                 reading needs at least 4"
            );
        } else if best_t4_speedup < gate {
            eprintln!(
                "scaling gate FAILED: best sharded speedup at 4 threads is \
                 {best_t4_speedup:.2}x, gate requires {gate:.2}x"
            );
            std::process::exit(1);
        } else {
            println!(
                "scaling gate passed: best sharded speedup at 4 threads \
                 {best_t4_speedup:.2}x >= {gate:.2}x"
            );
        }
    }
}
