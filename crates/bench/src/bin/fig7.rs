//! Prints Fig. 7 (relative error of the four evaluated metrics).
use megsim_bench::experiments::{fig7, run_all_megsim};
use megsim_bench::{compute_suite, Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        let data = compute_suite(&ctx);
        let runs = run_all_megsim(&data, &ctx.megsim);
        print!("{}", fig7(&data, &runs));
    });
}
