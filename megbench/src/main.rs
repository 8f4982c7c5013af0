//! Per-crate tracer for the MEGsim benchmark.
//!
//! Replays what `megsim estimate <trace> --ground-truth` computes, one
//! crate call at a time, with a timed span around every call into a
//! layer: trace decode (`megsim-gl`), functional characterization and
//! raster traces (`megsim-funcsim`), feature extraction and
//! normalization (`megsim-core`), the BIC/k-means search
//! (`megsim-cluster`) and cycle-level timing of the representatives and
//! of the full sequence (`megsim-timing`, which drives `megsim-mem`).
//! The spans are sequential and never nest, so each span's duration is
//! its layer's self time.
//!
//! One pass runs both flows on every trace given; passes repeat for
//! `--seconds` seconds (at least one). The output is one JSON object with
//! each span's median total per pass and, per trace, the flow's results
//! (frame count, representatives, estimated and full cycles, cycle
//! error), which the benchmark compares against the CLI's output.
//!
//! `megbench-trace --calibrate` instead runs a fixed kernel the
//! benchmark times next to every measured process, to factor the host's
//! momentary speed out of its figures.
//!
//! ```text
//! megbench-trace <trace.mglt>... [--seconds S] [--gpus N --dispatch afr|sfr --mem shared|private]
//! megbench-trace --calibrate
//! ```

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;

use megsim_cluster::search_clusters;
use megsim_core::{feature_matrix, metric_errors, normalize, sequence_totals, MegsimConfig};
use megsim_funcsim::{RenderConfig, Renderer};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_gl::FrameIter;
use megsim_timing::{DispatchMode, FrameStats, Gpu, GpuConfig, MultiGpu, MultiGpuConfig, Topology};

/// Span names, in flow order; indices into [`Spans::ms`].
const SPANS: [&str; 7] = [
    "gl_decode",
    "funcsim_activity",
    "core_features",
    "cluster_search",
    "funcsim_raster",
    "timing_reps",
    "timing_full",
];
const GL_DECODE: usize = 0;
const FUNCSIM_ACTIVITY: usize = 1;
const CORE_FEATURES: usize = 2;
const CLUSTER_SEARCH: usize = 3;
const FUNCSIM_RASTER: usize = 4;
const TIMING_REPS: usize = 5;
const TIMING_FULL: usize = 6;

/// Milliseconds spent in each span during one flow.
#[derive(Default)]
struct Spans {
    ms: [f64; SPANS.len()],
}

impl Spans {
    fn time<T>(&mut self, span: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.ms[span] += start.elapsed().as_secs_f64() * 1e3;
        value
    }
}

/// What one flow computed; identical on every repetition.
#[derive(PartialEq)]
struct Outcome {
    frames: usize,
    representatives: usize,
    estimated_cycles: u64,
    full_cycles: u64,
    cycle_error: f64,
}

fn decode(path: &str) -> Result<(ShaderTable, Vec<Frame>), String> {
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut frames = FrameIter::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let shaders = frames.shaders().clone();
    let frames = frames
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((shaders, frames))
}

/// The clustering seed `megsim estimate` uses when given no `--seed`.
const CLI_DEFAULT_SEED: u64 = 42;

/// One pass of the estimate flow followed by the ground-truth flow, with
/// the CLI's defaults (Mali-450-like GPU, default MEGsim config).
fn run_flow(path: &str, rig: Option<MultiGpuConfig>, spans: &mut Spans) -> Result<Outcome, String> {
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default().with_seed(CLI_DEFAULT_SEED);
    let (shaders, frames) = spans.time(GL_DECODE, || decode(path))?;
    if frames.is_empty() {
        return Err(format!("{path}: trace has no frames"));
    }
    let renderer = Renderer::new(RenderConfig {
        viewport: gpu.viewport,
        mode: gpu.render_mode,
    });
    let activities: Vec<_> = spans.time(FUNCSIM_ACTIVITY, || {
        frames
            .iter()
            .map(|f| renderer.frame_activity(f, &shaders))
            .collect()
    });
    let data = spans.time(CORE_FEATURES, || {
        let matrix = feature_matrix(&activities, &shaders, &config.characterization);
        normalize(&matrix, &config.weights)
    });
    let found = spans.time(CLUSTER_SEARCH, || search_clusters(&data, &config.search));
    let reps = found.clustering.representatives(&data);
    let sizes = found.clustering.cluster_sizes();

    // Estimate: each representative on a fresh GPU (or rig), scaled by
    // its cluster size.
    let mut estimated = FrameStats::default();
    for (&frame, &size) in reps.iter().zip(&sizes) {
        let trace = spans.time(FUNCSIM_RASTER, || {
            renderer.render_frame(&frames[frame], &shaders)
        });
        let stats = spans.time(TIMING_REPS, || match rig {
            Some(m) => MultiGpu::new(gpu.clone(), m).simulate_frame(&trace, &shaders),
            None => Gpu::new(gpu.clone()).simulate_frame(&trace, &shaders),
        });
        estimated.merge(&stats.scaled(size as u64));
    }

    // Ground truth: every frame on a fresh GPU, or the whole sequence on
    // one warm rig whose L2 drains onto the last frame.
    let mut warm_rig = rig.map(|m| MultiGpu::new(gpu.clone(), m));
    let mut per_frame = Vec::with_capacity(frames.len());
    for f in &frames {
        let trace = spans.time(FUNCSIM_RASTER, || renderer.render_frame(f, &shaders));
        per_frame.push(spans.time(TIMING_FULL, || match &mut warm_rig {
            Some(r) => r.simulate_frame(&trace, &shaders),
            None => Gpu::new(gpu.clone()).simulate_frame(&trace, &shaders),
        }));
    }
    if let Some(r) = &mut warm_rig {
        let writebacks = spans.time(TIMING_FULL, || r.drain_l2());
        if let Some(last) = per_frame.last_mut() {
            last.memory.l2.writebacks += writebacks;
        }
    }
    let actual = sequence_totals(&per_frame);
    Ok(Outcome {
        frames: frames.len(),
        representatives: reps.len(),
        estimated_cycles: estimated.cycles,
        full_cycles: actual.cycles,
        cycle_error: metric_errors(&estimated, &actual).cycles,
    })
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Parsed command line: trace paths, seconds to repeat for, and the rig.
struct Args {
    traces: Vec<String>,
    seconds: f64,
    rig: Option<MultiGpuConfig>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut traces = Vec::new();
    let mut seconds = 0.0;
    let (mut gpus, mut dispatch, mut topology) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        if !args[i].starts_with("--") {
            traces.push(args[i].clone());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", args[i]))?;
        match args[i].as_str() {
            "--seconds" => seconds = value.parse().map_err(|_| "invalid --seconds")?,
            "--gpus" => match value.parse() {
                Ok(n) if n > 0 => gpus = Some(n),
                _ => return Err(format!("invalid --gpus: {value}")),
            },
            "--dispatch" => {
                dispatch = Some(match value.as_str() {
                    "afr" => DispatchMode::AlternateFrame,
                    "sfr" => DispatchMode::SplitFrame,
                    other => return Err(format!("invalid --dispatch: {other}")),
                })
            }
            "--mem" => {
                topology = Some(match value.as_str() {
                    "shared" => Topology::Shared,
                    "private" => Topology::Private,
                    other => return Err(format!("invalid --mem: {other}")),
                })
            }
            flag => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if traces.is_empty() {
        return Err("expected at least one trace file".into());
    }
    // The CLI's rule: any rig flag selects the rig, with afr/private as
    // the defaults of the others.
    let rig = (gpus.is_some() || dispatch.is_some() || topology.is_some()).then(|| {
        MultiGpuConfig::new(
            gpus.unwrap_or(1),
            dispatch.unwrap_or_default(),
            topology.unwrap_or_default(),
        )
    });
    Ok(Args {
        traces,
        seconds,
        rig,
    })
}

/// Runs passes until `args.seconds` have elapsed; returns each span's
/// per-pass totals and the first pass's outcomes, checking that every
/// later pass reproduces them.
fn run_passes(args: &Args) -> Result<(Vec<Vec<f64>>, Vec<Outcome>), String> {
    let start = Instant::now();
    let mut per_span: Vec<Vec<f64>> = vec![Vec::new(); SPANS.len()];
    let mut first: Option<Vec<Outcome>> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let mut spans = Spans::default();
        let outcomes = args
            .traces
            .iter()
            .map(|t| run_flow(t, args.rig, &mut spans))
            .collect::<Result<Vec<_>, _>>()?;
        match &first {
            Some(f) if *f != outcomes => {
                return Err("a repeated pass produced different results".into())
            }
            Some(_) => {}
            None => first = Some(outcomes),
        }
        for (samples, ms) in per_span.iter_mut().zip(spans.ms) {
            samples.push(ms);
        }
    }
    Ok((per_span, first.expect("at least one pass ran")))
}

/// The host-speed calibration kernel (`--calibrate`): random
/// read-modify-writes over a 64 MiB table, a fixed amount of
/// cache-missing work like the timing model's, independent of every
/// MEGsim crate so that no change to them moves it. Returns a checksum.
fn calibrate() -> u64 {
    let mut table = vec![0u64; 1 << 23];
    let mask = table.len() as u64 - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..2_500_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x & mask) as usize];
        *slot = slot.wrapping_mul(31).wrapping_add(x >> 11);
    }
    table.iter().fold(0, |a, &b| a ^ b)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--calibrate"] {
        println!("{}", calibrate());
        return ExitCode::SUCCESS;
    }
    let (per_span, outcomes) = match parse_args(&args) {
        Ok(args) => match run_passes(&args) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("megbench-trace: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("megbench-trace: {e}");
            return ExitCode::from(2);
        }
    };
    let spans: Vec<String> = SPANS
        .iter()
        .zip(&per_span)
        .map(|(name, samples)| format!("\"{name}\": {}", median(samples.clone())))
        .collect();
    let outcomes: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{{\"frames\": {}, \"representatives\": {}, \"estimated_cycles\": {}, \
                 \"full_cycles\": {}, \"cycle_error\": {}}}",
                o.frames, o.representatives, o.estimated_cycles, o.full_cycles, o.cycle_error
            )
        })
        .collect();
    println!(
        "{{\"passes\": {}, \"spans_ms\": {{{}}}, \"outcomes\": [{}]}}",
        per_span[0].len(),
        spans.join(", "),
        outcomes.join(", ")
    );
    ExitCode::SUCCESS
}
