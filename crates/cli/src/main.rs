//! `cellflow` — command-line driver for the distributed cellular flows
//! system: run simulations, watch them as ASCII animations, regenerate the
//! paper's figures, and model-check small instances.

use std::process::ExitCode;

mod args;
mod commands;
#[cfg(test)]
mod parse_fuzz;
mod record;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
