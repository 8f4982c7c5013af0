//! Prints Table I (GPU simulation parameters).
use megsim_bench::{Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        print!("{}", megsim_bench::experiments::table1(&ctx));
    });
}
