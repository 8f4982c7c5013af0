//! Runs every table and figure of the paper's evaluation in one pass,
//! reusing the per-benchmark simulations.
use megsim_bench::experiments::{
    fig3, fig4, fig5, fig6, fig7, frame_source, similarity_of, table1, table2, table3, table4,
};
use megsim_bench::{compute_suite, Context, ExperimentArgs};
use megsim_core::flow::{self, Flow};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
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
            println!("{}", fig6(bbr));
        }
        // Machine-readable artifacts for external plotting.
        for d in &data {
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
                    &megsim_bench::report::megsim_run_csv(&d.run),
                )
            });
            if let Err(e) = ok {
                eprintln!(
                    "warning: could not write artifacts for {}: {e}",
                    d.info.alias
                );
            }
        }
        println!("{}", table3(&data));
        println!("{}", fig7(&data));
        println!(
            "{}",
            table4(&data, &ctx.megsim, ctx.args.seeds, ctx.args.trials)
        );
        // Deployment-style pass: simulate each benchmark's representatives
        // standalone. The content-addressed frame cache serves these from
        // the ground-truth pass; the pass's own scope counts just this pass,
        // so the hit rate reflects the pass itself.
        let pass = ctx.cache.scope();
        let reps_flow = Flow {
            cache: Some(&pass),
            ..ctx.flow()
        };
        for d in &data {
            let source = frame_source(&d.workload);
            let estimated = flow::simulate_representatives(&source, &d.run.selection, &reps_flow);
            assert_eq!(
                estimated,
                Ok(d.run.estimated.clone()),
                "[{}] standalone representative re-simulation diverged",
                d.info.alias
            );
        }
        let reps: usize = data.iter().map(|d| d.run.frames_simulated()).sum();
        eprintln!(
            "re-simulated {reps} representative frames; {}",
            pass.summary()
        );
    });
}
