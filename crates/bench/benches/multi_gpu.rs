//! Multi-GPU scenario benchmark: N-instance rig throughput per
//! (dispatch, topology) at N = 1/2/4, the interconnect-bound vs
//! compute-bound crossover of the split-frame link, and the
//! representative-vs-full accuracy deltas of the MEGsim methodology on
//! each rig shape (the PR 10 Fig.-7-style table).
//!
//! Rig simulation is single-threaded timing-model work by construction
//! (only the pure tile-record stage fans out), so the throughput numbers
//! measure model cost, not host parallelism; the available core count
//! is printed alongside for context.

use std::time::Instant;

use megsim_bench::report::available_cores;
use megsim_core::evaluate::{characterize_sequence, simulate, FrameStart};
use megsim_core::pipeline::{select_representatives, MegsimConfig};
use megsim_core::{metric_errors, scaled_totals, sequence_totals};
use megsim_funcsim::{FrameTrace, RenderConfig, Renderer};
use megsim_timing::{
    DispatchMode, FrameStats, GpuConfig, LinkConfig, MultiGpu, MultiGpuConfig, Topology,
};
use megsim_workloads::by_alias;

const PAIRS: [(&str, DispatchMode, Topology); 4] = [
    (
        "afr_private",
        DispatchMode::AlternateFrame,
        Topology::Private,
    ),
    ("afr_shared", DispatchMode::AlternateFrame, Topology::Shared),
    ("sfr_private", DispatchMode::SplitFrame, Topology::Private),
    ("sfr_shared", DispatchMode::SplitFrame, Topology::Shared),
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

/// Warm rig sequence over pre-rendered traces with the end-of-sequence
/// L2 drain — bitwise the `simulate(.., FrameStart::Warm)` semantics,
/// minus the re-render.
fn rig_sequence(
    cfg: &GpuConfig,
    multi: MultiGpuConfig,
    traces: &[FrameTrace],
    shaders: &megsim_gfx::shader::ShaderTable,
) -> Vec<FrameStats> {
    let mut rig = MultiGpu::new(cfg.clone(), multi);
    let mut stats: Vec<FrameStats> = traces
        .iter()
        .map(|t| rig.simulate_frame(t, shaders))
        .collect();
    let writebacks = rig.drain_l2();
    if let Some(last) = stats.last_mut() {
        last.memory.l2.writebacks += writebacks;
    }
    stats
}

fn main() {
    println!("multi-GPU bench: {} available core(s)", available_cores());
    megsim_exec::set_threads(1);
    let workload = by_alias("jjo", 0.01, 7).expect("known alias"); // 50 frames
    let shaders = workload.shaders();
    let cfg = GpuConfig::small(256, 256);
    let renderer = Renderer::new(RenderConfig {
        viewport: cfg.viewport,
        mode: cfg.render_mode,
    });
    let traces: Vec<FrameTrace> = workload
        .iter_frames()
        .map(|f| renderer.render_frame(&f, shaders))
        .collect();
    let n_frames = traces.len() as f64;

    // Rig throughput (host frames/s) and simulated frame latency per
    // (dispatch, topology) at N = 1/2/4. Simulated cycles show the
    // scaling story — AFR hides whole frames, SFR splits raster — while
    // host throughput shows what the extra modeled GPUs cost to
    // simulate.
    for (label, dispatch, topology) in PAIRS {
        for n in [1usize, 2, 4] {
            let multi = MultiGpuConfig::new(n, dispatch, topology);
            let total_cycles: u64 = rig_sequence(&cfg, multi, &traces, shaders)
                .iter()
                .map(|s| s.cycles)
                .sum();
            let wall = secs(|| {
                let mut rig = MultiGpu::new(cfg.clone(), multi);
                for t in &traces {
                    std::hint::black_box(rig.simulate_frame(t, shaders).cycles);
                }
            });
            println!(
                "multi-GPU {label} N={n}: {:.1} frames/s simulated, {:.0} model cycles/frame",
                n_frames / wall,
                total_cycles as f64 / n_frames
            );
        }
    }

    // Interconnect-bound vs compute-bound crossover: N = 2 split-frame
    // over private memory, sweeping link bandwidth. At low
    // bytes-per-cycle the worker GPU's band transfer extends the frame
    // (interconnect-bound); the crossover is the narrowest link whose
    // simulated cycles are within 1% of the widest link's
    // (compute-bound).
    let bandwidths = [1u64, 2, 4, 8, 16, 32, 64];
    let mut cycles_at = Vec::new();
    for &bw in &bandwidths {
        let mut multi = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Private);
        multi.link = LinkConfig {
            bytes_per_cycle: bw,
            ..LinkConfig::baseline()
        };
        let total: u64 = rig_sequence(&cfg, multi, &traces, shaders)
            .iter()
            .map(|s| s.cycles)
            .sum();
        cycles_at.push(total as f64);
    }
    let sweep: Vec<String> = bandwidths
        .iter()
        .zip(&cycles_at)
        .map(|(bw, c)| format!("{bw}: {c:.0}"))
        .collect();
    println!(
        "interconnect sweep (N=2 sfr private, bytes/cycle: sim cycles): {}",
        sweep.join(", ")
    );
    let compute_bound = cycles_at.last().copied().expect("non-empty sweep");
    let crossover = bandwidths
        .iter()
        .zip(&cycles_at)
        .find(|(_, &c)| c <= compute_bound * 1.01)
        .map(|(&bw, _)| bw)
        .expect("widest link is its own bound");
    println!(
        "interconnect crossover: compute-bound from {crossover} bytes/cycle \
         ({:.2}x cycles at 1 byte/cycle)",
        cycles_at[0] / compute_bound
    );

    // Representative-vs-full accuracy per rig shape: MEGsim selects
    // representatives once (selection is rig-independent — it only sees
    // functional features), then each rig's cold representative
    // estimate is compared against its own warm full-sequence ground
    // truth. The cycles delta quantifies how much warm-state and
    // cross-GPU contention the cold representative rigs miss.
    let megsim = MegsimConfig::default().with_seed(3);
    let matrix = characterize_sequence(workload.iter_frames(), shaders, &cfg, &megsim, None);
    let selection = select_representatives(&matrix, &megsim);
    println!(
        "accuracy: {} of {} frames simulated per rig ({:.1}x reduction)",
        selection.k(),
        workload.frames(),
        selection.reduction_factor()
    );
    println!(
        "  (N=1 rows are the cold-representative-vs-warm-sequence baseline; \
         growth beyond them is what the rig adds — transfers, duplicated \
         geometry, shared-memory contention)"
    );
    println!("  N  dispatch+mem  cycles-err  dram-err  l2-err");
    for (label, dispatch, topology) in PAIRS {
        for n in [1usize, 2, 4] {
            let multi = MultiGpuConfig::new(n, dispatch, topology);
            let actual = sequence_totals(&rig_sequence(&cfg, multi, &traces, shaders));
            let reps = &selection.representatives;
            let (rep_stats, _) = simulate(
                reps.iter().map(|r| workload.frame(r.frame_index)),
                shaders,
                &cfg,
                multi,
                FrameStart::Cold(None),
            );
            let estimated = scaled_totals(reps, &rep_stats);
            let errors = metric_errors(&estimated, &actual);
            println!(
                "  {n}  {label:<12} {:>9.2}% {:>8.2}% {:>7.2}%",
                errors.cycles * 100.0,
                errors.dram_accesses * 100.0,
                errors.l2_accesses * 100.0
            );
        }
    }
    megsim_exec::set_threads(0);
}
