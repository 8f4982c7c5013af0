//! Runs the design-choice ablation studies called out in DESIGN.md §5:
//! weighting scheme, BIC threshold, texture-filter weighting, k-means
//! initialization and the BIC stop rule.
use megsim_bench::experiments::{
    ablation_init, ablation_patience, ablation_selection_criterion, ablation_texture_weights,
    ablation_threshold, ablation_weights,
};
use megsim_bench::{compute_suite, Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        let data = compute_suite(&ctx);
        println!("{}", ablation_weights(&data, &ctx.megsim));
        println!("{}", ablation_threshold(&data, &ctx.megsim));
        println!("{}", ablation_texture_weights(&data, &ctx.megsim));
        println!("{}", ablation_init(&data, &ctx.megsim));
        println!("{}", ablation_patience(&data, &ctx.megsim));
        println!("{}", ablation_selection_criterion(&data, &ctx.megsim));
    });
}
