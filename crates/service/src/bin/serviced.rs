//! `serviced` — the partita solve daemon.
//!
//! ```text
//! serviced [--stdio] [--workers N]          serve stdin/stdout (default)
//! serviced --unix PATH [--workers N]        listen on a Unix socket
//! serviced --tcp ADDR [--workers N]         listen on a TCP address
//! serviced --replay FILE [--check FILE]     scripted replay; with --check,
//!                                           diff against a golden log and
//!                                           exit nonzero on any mismatch
//! serviced --replay FILE --write FILE       regenerate a golden log
//! ```
//!
//! `--workers N` sizes the solver pool of each served stream: stdin/stdout
//! has one pool, and a socket listener starts one per accepted connection
//! (default: one thread per core per pool).
//!
//! The protocol is one JSON request envelope per line (see
//! `docs/SERVICE.md`). Telemetry follows the usual `PARTITA_TRACE` /
//! `PARTITA_TRACE_PATH` environment switches.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use partita_service::{replay, server, ServiceConfig, ServiceCore};

fn fail(msg: &str) -> ExitCode {
    eprintln!("serviced: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workers: Option<usize> = None;
    let mut unix: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut write_path: Option<String> = None;
    let mut stdio = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--workers" => match value("--workers").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => workers = Some(n.max(1)),
                _ => return fail("--workers needs a positive integer"),
            },
            "--unix" => match value("--unix") {
                Ok(v) => unix = Some(v),
                Err(e) => return fail(&e),
            },
            "--tcp" => match value("--tcp") {
                Ok(v) => tcp = Some(v),
                Err(e) => return fail(&e),
            },
            "--replay" => match value("--replay") {
                Ok(v) => replay_path = Some(v),
                Err(e) => return fail(&e),
            },
            "--check" => match value("--check") {
                Ok(v) => check_path = Some(v),
                Err(e) => return fail(&e),
            },
            "--write" => match value("--write") {
                Ok(v) => write_path = Some(v),
                Err(e) => return fail(&e),
            },
            "--help" | "-h" => {
                println!(
                    "usage: serviced [--stdio] [--unix PATH] [--tcp ADDR] [--workers N]\n\
                     \x20      serviced --replay FILE [--check FILE | --write FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other}")),
        }
    }

    let mut config = ServiceConfig::default();
    if let Some(w) = workers {
        config.workers = w;
    }
    let core = Arc::new(ServiceCore::new(config));

    if let Some(path) = replay_path {
        let requests = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        let responses = replay::replay(&core, &requests);
        if let Some(out) = write_path {
            let mut rendered = responses.join("\n");
            rendered.push('\n');
            if let Err(e) = std::fs::write(&out, rendered) {
                return fail(&format!("cannot write {out}: {e}"));
            }
            eprintln!("serviced: wrote {} responses to {out}", responses.len());
            return ExitCode::SUCCESS;
        }
        if let Some(golden_path) = check_path {
            let golden = match std::fs::read_to_string(&golden_path) {
                Ok(text) => text,
                Err(e) => return fail(&format!("cannot read {golden_path}: {e}")),
            };
            let mismatches = replay::diff_golden(&responses, &golden);
            if mismatches.is_empty() {
                eprintln!(
                    "serviced: {} responses match {golden_path}",
                    responses.len()
                );
                return ExitCode::SUCCESS;
            }
            for m in &mismatches {
                eprintln!("{m}");
            }
            return fail(&format!(
                "{} mismatch(es) against {golden_path}",
                mismatches.len()
            ));
        }
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in &responses {
            if writeln!(out, "{line}").is_err() {
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let workers = core.config().workers;
    let served = if let Some(path) = unix {
        server::serve_unix(core, std::path::Path::new(&path), workers)
    } else if let Some(addr) = tcp {
        server::serve_tcp(core, addr.as_str(), workers)
    } else {
        // Default mode, also selected by --stdio.
        let _ = stdio;
        server::serve_stdio(&core, workers)
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&format!("transport error: {e}")),
    }
}
