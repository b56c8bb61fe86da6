// Unit tests assert on known-good values; unwrap is fine there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! `winrs` — command-line interface to the WinRS library.
//!
//! ```text
//! winrs plan    --n 32 --res 56 --ic 128 --oc 128 --f 3 [--device 4090] [--fp16]
//! winrs verify  --n 2  --res 24 --ic 8   --oc 8   --f 5
//! winrs cost    --n 32 --res 56 --ic 128 --oc 128 --f 3 [--device l40s]
//! winrs profile --n 2  --res 24 --ic 8   --oc 8   --f 3 [--trips 3]
//! winrs kernels
//! winrs devices
//! ```
//!
//! `plan` prints the adaptive configuration for a layer, `verify` executes
//! WinRS on random tensors and reports the MARE against f64 direct
//! convolution, `cost` prints the modelled time/throughput/workspace,
//! `profile` executes BFC and prints the *measured* per-phase cost
//! breakdown (wall phases plus the FT/IT/EWMM/OT busy split), and
//! `kernels`/`devices` list the inventory and the modelled GPUs.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
