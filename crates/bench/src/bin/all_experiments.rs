//! Runs every table and figure of the paper's evaluation in one pass,
//! reusing the per-benchmark simulations.
use megsim_bench::experiments::{
    fig3, fig4, fig5, fig6, fig7, resimulate_representatives, run_all_megsim, similarity_of,
    table1, table2, table3, table4,
};
use megsim_bench::{compute_suite, Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    println!(
        "MEGsim reproduction — all experiments (scale {}, seed {})\n",
        ctx.args.scale, ctx.args.seed
    );
    println!("{}", table1(&ctx));
    let data = compute_suite(&ctx);
    println!("{}", table2(&data));
    println!("{}", fig3(&data));
    println!("{}", fig4(&data));
    if let Some(bbr) = data.iter().find(|d| d.info.alias == "bbr1") {
        println!("{}", fig5(bbr, &ctx.megsim, 60));
        std::fs::create_dir_all(&ctx.args.out_dir).ok();
        let path = format!("{}/fig5_bbr1.pgm", ctx.args.out_dir);
        if std::fs::write(&path, similarity_of(bbr, &ctx.megsim).to_pgm()).is_ok() {
            eprintln!("similarity matrix PGM written to {path}");
        }
        println!("{}", fig6(bbr, &ctx.megsim));
    }
    let runs = run_all_megsim(&data, &ctx.megsim);
    // Machine-readable artifacts for external plotting.
    for (d, run) in data.iter().zip(&runs) {
        let dir = &ctx.args.out_dir;
        let ok = megsim_bench::report::write_artifact(
            dir,
            &format!("per_frame_{}.csv", d.info.alias),
            &megsim_bench::report::per_frame_csv(&d.per_frame),
        )
        .and_then(|()| {
            megsim_bench::report::write_artifact(
                dir,
                &format!("features_{}.csv", d.info.alias),
                &megsim_bench::report::feature_matrix_csv(&d.matrix),
            )
        })
        .and_then(|()| {
            megsim_bench::report::write_artifact(
                dir,
                &format!("megsim_{}.csv", d.info.alias),
                &megsim_bench::report::megsim_run_csv(run),
            )
        });
        if let Err(e) = ok {
            eprintln!(
                "warning: could not write artifacts for {}: {e}",
                d.info.alias
            );
        }
    }
    println!("{}", table3(&data, &runs));
    println!("{}", fig7(&data, &runs));
    println!(
        "{}",
        table4(&data, &ctx.megsim, ctx.args.seeds, ctx.args.trials)
    );
    // Deployment-style pass: simulate each benchmark's representatives
    // standalone. The content-addressed frame cache serves these from
    // the ground-truth pass; the pass's own scope counts just this pass,
    // so the hit rate reflects the pass itself.
    let pass = ctx.cache.scope();
    let reps = resimulate_representatives(&data, &runs, &ctx.gpu, &pass);
    eprintln!(
        "re-simulated {reps} representative frames; {}",
        pass.summary()
    );
}
