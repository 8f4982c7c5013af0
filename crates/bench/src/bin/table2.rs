//! Prints Table II (evaluated benchmark set).
use megsim_bench::{compute_suite, Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        let data = compute_suite(&ctx);
        print!("{}", megsim_bench::experiments::table2(&data));
    });
}
