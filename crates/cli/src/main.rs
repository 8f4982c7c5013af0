//! The `megsim` command-line tool.
//!
//! A TEAPOT-style trace workflow over the MEGsim stack:
//!
//! ```text
//! megsim record --benchmark bbr1 --scale 0.1 --out bbr1.mglt
//! megsim info bbr1.mglt
//! megsim characterize bbr1.mglt --out features.csv
//! megsim select bbr1.mglt --out plan.csv
//! megsim estimate bbr1.mglt [--ground-truth]
//! ```

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match commands::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg == commands::STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("megsim: {msg}");
            ExitCode::from(2)
        }
    }
}
