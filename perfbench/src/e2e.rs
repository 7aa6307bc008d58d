//! End-to-end accumulators shared by the workloads, and the printed
//! end-to-end metric set.

use std::time::Duration;

use crate::inputs::AreaRatio;
use crate::util::{ms, ratio, summarize, Report};

/// What the untraced loop of a workload measured.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    /// Per-point latency samples, ms.
    pub lat_ms: Vec<f64>,
    /// Points answered.
    pub points: u64,
    /// Calls (library calls or daemon requests) answered.
    pub calls: u64,
    /// Time spent inside the measured calls.
    pub busy: Duration,
    /// Points returned with status `optimal`.
    pub proven: u64,
    pub area: AreaRatio,
}

impl E2e {
    /// Records one timed call that answered `points` points; each point
    /// gets an equal share of the call's time as its latency.
    pub fn call(&mut self, d: Duration, points: usize) {
        self.busy += d;
        self.calls += 1;
        self.points += points as u64;
        let each = ms(d) / points.max(1) as f64;
        self.lat_ms.extend(std::iter::repeat_n(each, points));
    }
}

/// The rates an open-loop workload's rate search measured.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Points answered per second in the steps `max_rate_rps` comes from.
    pub points_per_s: f64,
    /// The highest rate that meets the latency limit, requests per second.
    pub max_rate_rps: f64,
}

/// Pushes the end-to-end metric set onto `report`. `open` carries the
/// daemon's rate search; closed-loop workloads pass `None` and report the
/// rates their one caller completes points and calls at. `setup_s` is the
/// median of `setup_times`, seconds.
pub fn emit(
    report: &mut Report,
    setup_times: &[f64],
    e: &E2e,
    rss_mb: f64,
    open: Option<OpenLoop>,
) {
    let mut lat = e.lat_ms.clone();
    let s = summarize(&mut lat);
    let busy_s = e.busy.as_secs_f64();
    let mut setups = setup_times.to_vec();
    let setup = summarize(&mut setups);
    report.push("setup_s", setup.p50, "s");
    report.notes.push(format!(
        "set-up: {} samples, min {:.4} s, median {:.4} s, max {:.4} s",
        setup.count,
        setups.first().copied().unwrap_or(0.0),
        setup.p50,
        setups.last().copied().unwrap_or(0.0)
    ));
    report.push(
        "points_per_s",
        open.map_or_else(|| ratio(e.points as f64, busy_s), |o| o.points_per_s),
        "1/s",
    );
    report.push("latency_p50_ms", s.p50, "ms");
    report.push("latency_tail_ms", s.tail, "ms");
    report.push("peak_rss_mb", rss_mb, "MB");
    report.push(
        "proven_optimal_share",
        ratio(e.proven as f64, e.points as f64),
        "ratio",
    );
    report.push("area_vs_greedy_pct", e.area.pct(), "%");
    report.push(
        "max_rate_rps",
        open.map_or_else(|| ratio(e.calls as f64, busy_s), |o| o.max_rate_rps),
        "1/s",
    );
    report.notes.push(format!(
        "latency: {} samples, tail is p{}; failed_share {:.6} ({} of {} points)",
        s.count,
        s.tail_pct,
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
}
