//! Prints Fig. 5 (similarity matrix of bbr1) and writes the full-size
//! PGM image to the output directory.
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
        print!("{}", megsim_bench::experiments::fig5(&d, &ctx.megsim, 60));
        let sim = megsim_bench::experiments::similarity_of(&d, &ctx.megsim);
        std::fs::create_dir_all(&ctx.args.out_dir).expect("create out dir");
        let path = format!("{}/fig5_{}.pgm", ctx.args.out_dir, alias);
        std::fs::write(&path, sim.to_pgm()).expect("write pgm");
        eprintln!("full-resolution similarity matrix written to {path}");
    });
}
