//! Design-space exploration with MEGsim — the use-case the paper's
//! introduction motivates: sweeping a GPU design space would normally
//! require hundreds of full cycle-accurate runs; with MEGsim each
//! configuration only simulates the representative frames.
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```
//!
//! The sweep varies the L2 capacity and the number of Fragment
//! Processors, evaluating each design point on the representative
//! frames selected *once* from the architecture-independent
//! characterization (the paper stresses that MEGsim's inputs do not
//! depend on the simulated microarchitecture, §III-B).

use megsim_core::evaluate::{characterize_sequence, simulate, FrameStart};
use megsim_core::pipeline::{select_representatives, MegsimConfig};
use megsim_core::scaled_totals;
use megsim_mem::CacheConfig;
use megsim_timing::{GpuConfig, MultiGpuConfig};
use megsim_workloads::by_alias;

fn main() {
    let workload = by_alias("hcr", 0.1, 7).expect("known benchmark alias"); // 200 frames
    let baseline = GpuConfig::mali450_like();
    let config = MegsimConfig::default();

    // Characterize once — valid for every design point.
    println!("characterizing {} frames once...", workload.frames());
    let matrix = characterize_sequence(
        workload.iter_frames(),
        workload.shaders(),
        &baseline,
        &config,
        None,
    );
    let selection = select_representatives(&matrix, &config);
    println!(
        "selected {} representatives ({:.1}x fewer frames per design point)\n",
        selection.k(),
        selection.reduction_factor()
    );

    println!(
        "{:>8} {:>4} {:>16} {:>12} {:>10}",
        "L2 KiB", "FPs", "est. cycles", "DRAM acc.", "IPC"
    );
    for l2_kib in [128u64, 256, 512] {
        for fps in [2usize, 4, 8] {
            let mut gpu = baseline.clone();
            gpu.l2 = CacheConfig::new("L2", l2_kib * 1024, 64, 2, 8, 18);
            gpu.fragment_processors = fps;
            // Simulate only the representatives, each on a fresh GPU.
            let reps = &selection.representatives;
            let (rep_stats, _) = simulate(
                reps.iter().map(|r| workload.frame(r.frame_index)),
                workload.shaders(),
                &gpu,
                MultiGpuConfig::single(),
                FrameStart::Cold(None),
            );
            // Scale representative statistics to full-sequence totals.
            let total = scaled_totals(reps, &rep_stats);
            println!(
                "{:>8} {:>4} {:>16} {:>12} {:>10.2}",
                l2_kib,
                fps,
                total.cycles,
                total.dram_accesses(),
                total.ipc()
            );
        }
    }
    println!(
        "\neach design point simulated {} frames instead of {}",
        selection.k(),
        workload.frames()
    );
}
