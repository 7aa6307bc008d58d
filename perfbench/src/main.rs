//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload explore|scale|daemon --seed N --seconds S --trace 0|1
//!           [--serviced PATH] [--out DIR]
//! perfbench --write-expected FILE
//! ```
//!
//! The last line on stdout is the result object; a readable report goes to
//! stderr.

use std::process::ExitCode;

use perfbench::run::{run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = argv.as_slice() {
        if flag == "--write-expected" {
            return match perfbench::expected::generate() {
                Ok(text) => match std::fs::write(path, text) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("perfbench: cannot write {path}: {e}");
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("perfbench: {note}");
            }
            for why in &report.failures {
                eprintln!("perfbench: FAILED {why}");
            }
            for m in &report.metrics {
                eprintln!("perfbench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
