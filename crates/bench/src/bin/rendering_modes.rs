//! Compares the three rendering architectures (TBR / TBDR+HSR / IMR)
//! on the benchmark suite — the §II-A background claims quantified.
use megsim_bench::{Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        print!("{}", megsim_bench::experiments::rendering_modes(&ctx, 40));
    });
}
