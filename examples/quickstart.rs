//! Quickstart: run MEGsim end-to-end on one synthetic benchmark.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Flow (paper §III): fast functional characterization of every frame →
//! k-means/BIC clustering → simulate only the representative frames on
//! the cycle-level model → scale by cluster sizes → compare against the
//! full simulation. `megsim_core::flow` runs all of it in one call.

use megsim_core::flow::{self, Flow};
use megsim_core::pipeline::MegsimConfig;
use megsim_timing::GpuConfig;
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

    // The flow with its ground truth: one full cycle-level simulation
    // (what MEGsim avoids), whose per-frame statistics also carry the
    // functional activity that characterizes each frame; then cluster,
    // pick representatives, estimate and compare.
    println!("running the full cycle-level simulation (ground truth)...");
    let source = (workload.shaders(), || workload.iter_frames());
    let run = flow::ground_truth(&source, &Flow::new(&gpu, config))
        .expect("the workload has frames")
        .run();

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
