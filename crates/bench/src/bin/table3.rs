//! Prints Table III (frame-reduction factor per benchmark).
use megsim_bench::experiments::table3;
use megsim_bench::{compute_suite, Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        let data = compute_suite(&ctx);
        print!("{}", table3(&data));
    });
}
