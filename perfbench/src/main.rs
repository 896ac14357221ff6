//! End-to-end and per-layer benchmark of the nistream placements.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ni-overload|chassis-busbound|engine-1stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, the output checks, and as its
//! last line one JSON object: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. See `NOTES.md` for what each metric
//! means and why each workload exists.

mod chassis;
mod engine;
mod measure;
mod ni;
mod report;
mod sim;

use report::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <ni-overload|chassis-busbound|engine-1stream> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "ni-overload" => ni::run(&args),
        "chassis-busbound" => chassis::run(&args),
        "engine-1stream" => engine::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    out.print(args.trace);
    ExitCode::SUCCESS
}
