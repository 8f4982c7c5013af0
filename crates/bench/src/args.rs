//! Minimal argument parsing shared by the experiment binaries.
//!
//! Supported flags: `--scale <f64>` (workload frame-count multiplier,
//! default 0.25), `--seed <u64>`, `--benchmarks a,b,c` (alias filter),
//! `--seeds <usize>` (MEGsim seeds for Table IV), `--trials <usize>`
//! (random sub-sampling trials), `--out <dir>` (artifact directory),
//! `--threads <usize>` (worker threads; 0 = `MEGSIM_THREADS` env or
//! all cores — results are identical at any thread count).

/// Parsed experiment options.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// Frame-count multiplier vs the paper's Table II (1.0 = full).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Benchmark alias filter (empty = all eight).
    pub benchmarks: Vec<String>,
    /// Number of k-means seedings for the Table IV confidence study
    /// (the paper uses 100).
    pub seeds: usize,
    /// Random sub-sampling trials per `k` (the paper uses 1000).
    pub trials: usize,
    /// Output directory for artifacts (PGM images, CSV dumps).
    pub out_dir: String,
    /// Worker threads for the parallel stages (0 = `MEGSIM_THREADS`
    /// env or available parallelism). Purely a wall-clock knob: every
    /// result is bit-identical at any thread count.
    pub threads: usize,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        Self {
            scale: 0.25,
            seed: 42,
            benchmarks: Vec::new(),
            seeds: 12,
            trials: 1000,
            out_dir: "target/experiments".to_string(),
            threads: 0,
        }
    }
}

impl ExperimentArgs {
    /// Parses `std::env::args`-style strings (the first element is the
    /// program name and is skipped).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown flags or malformed
    /// values.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--scale" => {
                    out.scale = value("--scale")?
                        .parse()
                        .map_err(|e| format!("bad --scale: {e}"))?;
                    megsim_workloads::check_scale(out.scale)?;
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--benchmarks" => {
                    out.benchmarks = value("--benchmarks")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "--seeds" => {
                    out.seeds = value("--seeds")?
                        .parse()
                        .map_err(|e| format!("bad --seeds: {e}"))?;
                }
                "--trials" => {
                    out.trials = value("--trials")?
                        .parse()
                        .map_err(|e| format!("bad --trials: {e}"))?;
                }
                "--out" => out.out_dir = value("--out")?,
                "--threads" => {
                    out.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?;
                }
                "--help" | "-h" => {
                    return Err(concat!(
                        "usage: <bin> [--scale F] [--seed N] [--benchmarks a,b]",
                        " [--seeds N] [--trials N] [--out DIR] [--threads N]"
                    )
                    .into())
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        Ok(out)
    }

    /// Parses the real process arguments, exiting with a message on
    /// error (binary entry-point convenience).
    pub fn from_env() -> Self {
        match Self::parse(std::env::args()) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// True when `alias` passes the benchmark filter.
    pub(crate) fn selects(&self, alias: &str) -> bool {
        self.benchmarks.is_empty() || self.benchmarks.iter().any(|b| b == alias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse(
            std::iter::once("bin".to_string()).chain(s.iter().map(|s| s.to_string())),
        )
    }

    #[test]
    fn defaults_without_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, ExperimentArgs::default());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--benchmarks",
            "asp,jjo",
            "--seeds",
            "3",
            "--trials",
            "50",
            "--out",
            "/tmp/x",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.benchmarks, vec!["asp", "jjo"]);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.trials, 50);
        assert_eq!(a.out_dir, "/tmp/x");
        assert_eq!(a.threads, 4);
    }

    #[test]
    fn filter_logic() {
        let a = parse(&["--benchmarks", "asp"]).unwrap();
        assert!(a.selects("asp"));
        assert!(!a.selects("jjo"));
        assert!(parse(&[]).unwrap().selects("anything"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale", "zero"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        for scale in ["nan", "inf", "1e30"] {
            let err = parse(&["--scale", scale]).unwrap_err();
            assert!(err.contains("--scale"), "--scale {scale}: {err}");
        }
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
    }
}
