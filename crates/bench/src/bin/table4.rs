//! Prints Table IV (MEGsim vs random sub-sampling at equal accuracy).
use megsim_bench::experiments::{resimulate_representatives, run_all_megsim, table4};
use megsim_bench::{compute_suite, Context, ExperimentArgs};

fn main() {
    let ctx = Context::new(ExperimentArgs::from_env());
    let data = compute_suite(&ctx);
    print!(
        "{}",
        table4(&data, &ctx.megsim, ctx.args.seeds, ctx.args.trials)
    );
    // Deployment-style pass: simulate each benchmark's representatives
    // standalone. The content-addressed frame cache serves these from
    // the ground-truth pass; the pass's own scope counts just this pass,
    // so the hit rate reflects the pass itself.
    let runs = run_all_megsim(&data, &ctx.megsim);
    let pass = ctx.cache.scope();
    let reps = resimulate_representatives(&data, &runs, &ctx.gpu, &pass);
    eprintln!(
        "re-simulated {reps} representative frames; {}",
        pass.summary()
    );
}
