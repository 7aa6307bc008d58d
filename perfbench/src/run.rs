//! Argument parsing and the per-workload runs: set-up timing, the
//! untraced measurement, and the traced run.

use std::path::PathBuf;
use std::time::Instant;

use crate::e2e::{emit, E2e};
use crate::explore::Explore;
use crate::inputs::{Inst, Pinned};
use crate::layers;
use crate::scale::Scale;
use crate::trace::Tracer;
use crate::util::{median, ms, peak_rss_mb, ratio, timed, Report, Rng};

/// Fewest set-ups timed before the measured work.
pub const SETUPS_BEFORE: usize = 9;
/// Wall time a run spends timing set-ups before the measured work, and an
/// untraced run again after it. `setup_s` is the median of both groups: a
/// set-up takes only 15–50 ms, so a fixed count of them is a small sample,
/// and the host's speed changes in episodes of up to seconds, which
/// set-ups timed at one moment would sample only once.
pub const SETUP_WINDOW_S: f64 = 1.5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serviced: Option<PathBuf>,
    pub out: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--serviced P]
    /// [--out DIR]`.
    ///
    /// # Errors
    ///
    /// A missing or malformed argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            serviced: None,
            out: PathBuf::from(".bench_build/perfbench"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone();
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--serviced" => args.serviced = Some(PathBuf::from(&value)),
                "--out" => args.out = PathBuf::from(&value),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !["explore", "scale", "daemon"].contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be explore, scale or daemon, got {:?}",
                args.workload
            ));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// A set-up failure (build, digest, daemon start-up).
pub fn run(args: &Args) -> Result<Report, String> {
    let pinned = Pinned::committed();
    match args.workload.as_str() {
        "explore" => closed_loop(
            args,
            &pinned,
            Explore::setup,
            |w| &w.insts,
            |w, p, r, s, rep, tr| w.run(p, r, s, rep, tr),
        ),
        "scale" => closed_loop(
            args,
            &pinned,
            Scale::setup,
            |w| &w.insts,
            |w, p, r, s, rep, tr| w.run(p, r, s, rep, tr),
        ),
        _ => crate::daemon::run(args, &pinned),
    }
}

/// Repeats the set-up until it ran `n` times (at least once) and
/// `budget_s` of wall time passed, adding each time in seconds to `times`;
/// returns the last one built.
///
/// # Errors
///
/// The first set-up failure.
pub fn time_setups<W>(
    times: &mut Vec<f64>,
    n: usize,
    budget_s: f64,
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<W, String> {
    let started = Instant::now();
    let mut last = None;
    let mut done = 0;
    while done < n.max(1) || started.elapsed().as_secs_f64() < budget_s {
        let (w, d) = timed(&mut setup);
        times.push(d.as_secs_f64());
        last = Some(w?);
        done += 1;
    }
    Ok(last.expect("at least one set-up"))
}

type RunFn<W> = fn(&W, &Pinned, &mut Rng, f64, &mut Report, Option<&mut Tracer>) -> E2e;

fn closed_loop<W>(
    args: &Args,
    pinned: &Pinned,
    setup: fn(&Pinned) -> Result<W, String>,
    insts: fn(&W) -> &Vec<Inst>,
    body: RunFn<W>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_times = Vec::new();
    let w = time_setups(&mut setup_times, SETUPS_BEFORE, SETUP_WINDOW_S, || {
        setup(pinned)
    })?;
    if !args.trace {
        let e = body(
            &w,
            pinned,
            &mut Rng::new(args.seed),
            args.seconds,
            &mut report,
            None,
        );
        let rss = peak_rss_mb("self");
        drop(w);
        time_setups(&mut setup_times, 1, SETUP_WINDOW_S, || setup(pinned))?;
        emit(&mut report, &setup_times, &e, rss, None);
        return Ok(report);
    }
    // Traced run: the first half untraced, the second half traced on the
    // same seeded inputs. The tracing overhead is the difference in wall
    // time per point, the traced work included.
    let mut tr = Tracer::default();
    layers::impdb(&mut tr, insts(&w));
    let half = args.seconds / 2.0;
    let (plain, plain_wall) = timed(|| {
        body(
            &w,
            pinned,
            &mut Rng::new(args.seed),
            half,
            &mut report,
            None,
        )
    });
    let (traced, traced_wall) = timed(|| {
        body(
            &w,
            pinned,
            &mut Rng::new(args.seed),
            half,
            &mut report,
            Some(&mut tr),
        )
    });
    let per_point = |wall: std::time::Duration, e: &E2e| ratio(ms(wall), e.points as f64);
    let overhead = 100.0 * (per_point(traced_wall, &traced) / per_point(plain_wall, &plain) - 1.0);
    finish_trace(
        args,
        &mut report,
        &tr,
        &[
            (
                "workloads.build_ms",
                ms(std::time::Duration::from_secs_f64(median(&setup_times))),
            ),
            ("trace.overhead_pct", overhead),
            (
                "trace.unattributed_pct",
                100.0 * tr.unattributed_share("solver.solve"),
            ),
            ("trace.points", traced.points as f64),
        ],
    );
    Ok(report)
}

/// Emits the per-layer metrics and writes the spans out.
pub fn finish_trace(args: &Args, report: &mut Report, tr: &Tracer, extra: &[(&str, f64)]) {
    let mut extra = extra.to_vec();
    extra.push(("trace.spans", tr.len() as f64));
    layers::emit(report, tr, &extra);
    tr.write(
        &args
            .out
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
    );
}
