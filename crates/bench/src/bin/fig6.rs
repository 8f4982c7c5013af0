//! Prints Fig. 6 (k-means clusters of bbr1 along the matrix diagonal).
use megsim_bench::{compute_benchmark, Context, ExperimentArgs};
use megsim_workloads::BENCHMARKS;

fn main() {
    let mut args = ExperimentArgs::from_env();
    if args.benchmarks.is_empty() {
        args.benchmarks = vec!["bbr1".to_string()];
    }
    let alias = args.benchmarks[0].clone();
    let ctx = Context::new(args);
    megsim_exec::with_threads(ctx.args.threads, || {
        let info = BENCHMARKS
            .iter()
            .find(|b| b.alias == alias)
            .unwrap_or_else(|| {
                eprintln!("unknown benchmark: {alias}");
                std::process::exit(2);
            });
        let d = compute_benchmark(&ctx, info);
        print!("{}", megsim_bench::experiments::fig6(&d));
    });
}
