//! Functional-simulator benchmarks: per-frame characterization cost
//! across the three rendering architectures, and whole-sequence
//! characterization fanned out on the `megsim-exec` worker pool across
//! a thread sweep (the cost MEGsim pays on *every* frame, so its
//! throughput bounds the end-to-end speedup).

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use megsim_funcsim::raster_reference::render_frame_reference;
use megsim_funcsim::{RenderConfig, RenderMode, Renderer};
use megsim_gfx::draw::Viewport;
use megsim_workloads::by_alias;

fn bench_render_modes(c: &mut Criterion) {
    let workload = by_alias("bbr1", 0.02, 7).expect("known alias");
    let shaders = workload.shaders();
    let frame = workload.frame(workload.frames() / 2);

    let mut group = c.benchmark_group("funcsim_frame_activity_modes");
    for (name, mode) in [
        ("tbr", RenderMode::TileBased),
        ("tbdr", RenderMode::TileBasedDeferred),
        ("imr", RenderMode::Immediate),
    ] {
        let renderer = Renderer::new(RenderConfig {
            viewport: Viewport::MALI450_BASELINE,
            mode,
        });
        group.bench_function(name, |b| {
            b.iter(|| renderer.frame_activity(&frame, shaders));
        });
    }
    group.finish();
}

fn bench_sequence_characterization(c: &mut Criterion) {
    let workload = by_alias("jjo", 0.05, 7).expect("known alias");
    let shaders = workload.shaders();
    let renderer = Renderer::new(RenderConfig::default());
    let frames: Vec<_> = workload.iter_frames().collect();

    let max = std::thread::available_parallelism().map_or(1, usize::from);
    let mut sweep = vec![1];
    if max >= 2 {
        sweep.push(2);
    }
    if max > 2 {
        sweep.push(max);
    }

    let mut group = c.benchmark_group("funcsim_sequence_characterization_jjo");
    group.sample_size(10);
    for threads in sweep {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                megsim_exec::with_threads(threads, || {
                    b.iter(|| {
                        megsim_exec::par_map_indexed(&frames, |_, f| {
                            renderer.frame_activity(f, shaders)
                        })
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_render_modes, bench_sequence_characterization
}

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

/// Measures single-thread frames/sec of the retained scalar reference
/// rasterizer vs the optimized span path (activity-only, the
/// characterization hot loop) over a small bundled-workload suite, and
/// prints the numbers.
fn print_bench_summary() {
    let suite: Vec<_> = ["bbr1", "jjo", "pvz"]
        .iter()
        .map(|alias| by_alias(alias, 0.02, 7).expect("known alias"))
        .collect();
    let frame_count: usize = suite.iter().map(megsim_workloads::Workload::frames).sum();
    let mut total_reference = 0.0;
    let mut total_optimized = 0.0;
    for (name, mode) in [
        ("tbr", RenderMode::TileBased),
        ("tbdr", RenderMode::TileBasedDeferred),
        ("imr", RenderMode::Immediate),
    ] {
        let config = RenderConfig {
            viewport: Viewport::MALI450_BASELINE,
            mode,
        };
        let renderer = Renderer::new(config);
        let reference = secs(|| {
            for w in &suite {
                for f in w.iter_frames() {
                    black_box(render_frame_reference(config, &f, w.shaders(), false).activity);
                }
            }
        });
        let optimized = secs(|| {
            for w in &suite {
                for f in w.iter_frames() {
                    black_box(renderer.frame_activity(&f, w.shaders()));
                }
            }
        });
        total_reference += reference;
        total_optimized += optimized;
        let n = frame_count as f64;
        println!(
            "funcsim {name}: reference {:.1} frames/s, optimized {:.1} frames/s ({:.2}x)",
            n / reference,
            n / optimized,
            reference / optimized
        );
    }
    let overall = total_reference / total_optimized;
    println!("funcsim overall single-thread speedup: {overall:.2}x");
}

fn main() {
    benches();
    print_bench_summary();
}
