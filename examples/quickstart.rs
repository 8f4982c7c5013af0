//! Quickstart: run MEGsim end-to-end on one synthetic benchmark.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Flow (paper §III): fast functional characterization of every frame →
//! k-means/BIC clustering → simulate only the representative frames on
//! the cycle-level model → scale by cluster sizes → compare against the
//! full simulation.

use megsim_core::evaluate::{characterize_sequence, evaluate_megsim, simulate, FrameStart};
use megsim_core::pipeline::MegsimConfig;
use megsim_timing::{GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

fn main() {
    // A scaled-down "Jetpack Joyride"-like 2-D endless runner
    // (500 frames instead of the paper's 5000, for a fast demo).
    let workload = by_alias("jjo", 0.1, 42).expect("known benchmark alias");
    let gpu = GpuConfig::mali450_like(); // the Table I machine
    let config = MegsimConfig::default();

    println!(
        "workload: {} ({} frames, {} vertex + {} fragment shaders)",
        workload.name,
        workload.frames(),
        workload.shaders().vertex_count(),
        workload.shaders().fragment_count()
    );

    // 1. Fast functional characterization (the paper's §III-B pass).
    println!("characterizing frames functionally...");
    let matrix = characterize_sequence(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        &config,
        None,
    );

    // 2. Ground truth: full cycle-level simulation (what MEGsim avoids).
    println!("running the full cycle-level simulation (ground truth)...");
    let (per_frame, _) = simulate(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        MultiGpuConfig::single(),
        FrameStart::Cold(None),
    );

    // 3. MEGsim: cluster, pick representatives, estimate, compare.
    let run = evaluate_megsim(&matrix, &per_frame, &config);

    println!();
    println!(
        "MEGsim simulates {} of {} frames — a {:.1}x reduction",
        run.frames_simulated(),
        workload.frames(),
        run.reduction_factor()
    );
    println!("relative errors vs full simulation:");
    println!("  total cycles       {:>7.3}%", run.errors.cycles * 100.0);
    println!(
        "  DRAM accesses      {:>7.3}%",
        run.errors.dram_accesses * 100.0
    );
    println!(
        "  L2 accesses        {:>7.3}%",
        run.errors.l2_accesses * 100.0
    );
    println!(
        "  tile-cache accesses{:>7.3}%",
        run.errors.tile_cache_accesses * 100.0
    );
    println!();
    println!(
        "estimated cycles {:>14}  actual {:>14}",
        run.estimated.cycles, run.actual.cycles
    );
}
