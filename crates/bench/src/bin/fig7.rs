//! Prints Fig. 7 (relative error of the four evaluated metrics).
use megsim_bench::experiments::fig7;
use megsim_bench::{compute_suite, Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        let data = compute_suite(&ctx);
        print!("{}", fig7(&data));
    });
}
