//! "Shape" tests: scaled-down versions of the paper's headline claims.
//! Absolute numbers differ from the paper (our substrate is a synthetic
//! simulator, not TEAPOT + commercial games), but the qualitative
//! results must hold even at reduced frame counts.

use megsim_bench::experiments::{correlation_row, power_study};
use megsim_bench::{compute_suite, Context, ExperimentArgs};
use megsim_core::random_sampling;
use megsim_workloads::GameType;

fn context(scale: f64, aliases: &str) -> Context {
    Context::new(ExperimentArgs {
        scale,
        seed: 42,
        benchmarks: aliases.split(',').map(str::to_string).collect(),
        ..ExperimentArgs::default()
    })
}

#[test]
fn megsim_reduces_frames_by_an_order_of_magnitude_with_small_error() {
    // Fig. 7 / Table III shape on three benchmarks at 1/10 scale.
    let ctx = context(0.1, "hcr,jjo,bbr1");
    let data = compute_suite(&ctx);
    for d in &data {
        let r = &d.run;
        assert!(
            r.reduction_factor() > 3.0,
            "{}: reduction {:.1}",
            d.info.alias,
            r.reduction_factor()
        );
        // Thresholds are looser than the full-scale run's ~2 % averages:
        // at 1/10 scale the segment-transition spikes are a larger
        // fraction of each cluster and estimation noise grows.
        assert!(
            r.errors.cycles < 0.07,
            "{}: cycles error {:.4}",
            d.info.alias,
            r.errors.cycles
        );
        assert!(
            r.errors.max() < 0.12,
            "{}: worst error {:.4}",
            d.info.alias,
            r.errors.max()
        );
    }
}

#[test]
fn shader_counts_correlate_strongly_with_cycles() {
    // Fig. 3 shape: shader-count vectors are highly predictive of the
    // total cycles; PRIM correlates but less.
    let ctx = context(0.05, "bbr1,pvz");
    let data = compute_suite(&ctx);
    for d in &data {
        let r = correlation_row(d);
        assert!(
            r.shaders > 0.8,
            "{}: shaders R = {:.3}",
            d.info.alias,
            r.shaders
        );
        assert!(r.fscv > 0.7, "{}: FSCV R = {:.3}", d.info.alias, r.fscv);
        // The paper finds PRIM's correlation "more limited"; require it
        // to be meaningful for geometry-heavy 3-D games only.
        if d.info.game_type == GameType::ThreeD {
            assert!(r.prim > 0.1, "{}: PRIM rho = {:.3}", d.info.alias, r.prim);
        }
        assert!((0.0..=1.0).contains(&r.prim));
    }
}

#[test]
fn raster_phase_dominates_power() {
    // Fig. 4 shape: Raster >> Tiling, Geometry smallest or comparable.
    let ctx = context(0.03, "asp,jjo,hwh");
    let data = compute_suite(&ctx);
    let (breakdowns, weights) = power_study(&data);
    for (d, b) in data.iter().zip(&breakdowns) {
        let f = b.fractions();
        assert!(
            f.raster > 0.5,
            "{}: raster fraction {:.3}",
            d.info.alias,
            f.raster
        );
    }
    assert!(weights.raster > weights.geometry);
    assert!(weights.raster > weights.tiling);
    assert!((weights.geometry + weights.raster + weights.tiling - 1.0).abs() < 1e-9);
}

#[test]
fn three_d_games_cost_more_cycles_per_frame_than_two_d() {
    let ctx = context(0.02, "asp,bbr1,hcr,jjo");
    let data = compute_suite(&ctx);
    let mean_cycles = |ty: GameType| {
        let sel: Vec<f64> = data
            .iter()
            .filter(|d| d.info.game_type == ty)
            .map(|d| d.run.actual.cycles as f64 / d.workload.frames() as f64)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    assert!(mean_cycles(GameType::ThreeD) > 2.0 * mean_cycles(GameType::TwoD));
}

#[test]
fn random_subsampling_needs_more_frames_than_megsim() {
    // Table IV shape on one benchmark: to reach MEGsim's accuracy the
    // random baseline needs more frames.
    let ctx = context(0.1, "pvz");
    let data = compute_suite(&ctx);
    let run = &data[0].run;
    let cycles = data[0].cycles_series();
    let target = run.errors.cycles.max(1e-4);
    let random_frames = random_sampling::frames_needed_for_target(&cycles, target, 300, 0.95, 7);
    assert!(
        random_frames > run.frames_simulated(),
        "random {} vs megsim {}",
        random_frames,
        run.frames_simulated()
    );
}
