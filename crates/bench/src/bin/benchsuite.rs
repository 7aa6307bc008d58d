//! The benchsuite runner: drives every headline workload (Tables 1–3,
//! Fig. 9, Fig. 11) cold and under the interval cache rule, plus the
//! corpus and
//! service groups, and writes the portable regression lock to
//! `BENCH_partita.json`.
//!
//! ```text
//! benchsuite [--out PATH] [--compare BASELINE]
//! ```
//!
//! With `--compare`, the fresh run is gated against the baseline report:
//! any drift in selections, cache counters, corpus or service tallies, and
//! any node-count or simplex-ops growth (total pivots, allocating tableau
//! builds) exits nonzero. Every figure is exact, so the
//! committed file is the baseline on any machine. Wall time is measured by
//! `perfbench`, not here. An `--out` that names the baseline file (the
//! default `--out` is `BENCH_partita.json`) is refused before anything is
//! written: the run would overwrite the baseline and then compare against
//! itself.

use std::process::ExitCode;

use partita_bench::suite::{compare_reports, run_suite, SuiteReport};

fn usage() -> ! {
    eprintln!("usage: benchsuite [--out PATH] [--compare BASELINE]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut out = "BENCH_partita.json".to_string();
    let mut compare = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--out" => out = value,
            "--compare" => compare = Some(value),
            _ => usage(),
        }
    }
    if let Some(baseline_path) = &compare {
        let same = std::fs::canonicalize(&out)
            .ok()
            .zip(std::fs::canonicalize(baseline_path).ok())
            .is_some_and(|(o, b)| o == b);
        if same {
            eprintln!(
                "benchsuite: --out {out} is the --compare baseline {baseline_path}; \
                 pass a different --out"
            );
            return ExitCode::from(2);
        }
    }
    let report = run_suite(false);
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("benchsuite: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("benchsuite: wrote {out} ({} configs)", report.configs.len());
    let Some(baseline_path) = compare else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| SuiteReport::from_json(&text))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchsuite: bad baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let regressions = compare_reports(&baseline, &report);
    if regressions.is_empty() {
        eprintln!("benchsuite: no regressions against {baseline_path}");
        return ExitCode::SUCCESS;
    }
    for r in &regressions {
        eprintln!("REGRESSION {r}");
    }
    eprintln!(
        "benchsuite: {} regression(s) against {baseline_path}",
        regressions.len()
    );
    ExitCode::FAILURE
}
