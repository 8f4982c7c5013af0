//! Prints Table IV (MEGsim vs random sub-sampling at equal accuracy).
use megsim_bench::experiments::{frame_source, table4};
use megsim_bench::{compute_suite, Context, ExperimentArgs};
use megsim_core::flow::{self, Flow};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    megsim_exec::with_threads(ctx.args.threads, || {
        let data = compute_suite(&ctx);
        print!(
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
