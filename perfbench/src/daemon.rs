//! `daemon`: open-loop load over TCP loopback against a `serviced --tcp`
//! child started with `--workers 1`, driven by two connections from one
//! thread each.
//!
//! The request stream is `explore`'s loop sent over the wire: three
//! tenants make seeded exploration visits to `synth:micro` and a
//! stratified draw of the DSP family entries. A visit is the `sweep`, the
//! down-and-up `delta` walk and the `solve` revisits `explore` makes, plus
//! one `batch` in which a teammate (another tenant) re-reads the swept
//! points. Every request carries `audit:true`; arrivals are Poisson. The
//! workload reports latency at one fixed offered rate, then searches for
//! the highest rate whose tail meets the latency limit without a growing
//! backlog.
//!
//! Every request is timed from when it was due, not from when it was sent.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use partita_core::api::{BatchItem, Request, RequestBody, SolveSpec, API_VERSION};
use partita_core::sweep::canonical_solve_key;
use partita_core::telemetry::json::JsonValue;
use partita_core::{Backend, Redaction};
use partita_mop::Cycles;
use partita_service::{ServiceConfig, ServiceCore};

use crate::e2e::{emit, E2e, OpenLoop};
use crate::explore::REVISIT_SHARE;
use crate::inputs::{build, manifest_ids, options, stratified, GreedyAreas, Inst, Pinned};
use crate::layers;
use crate::run::{finish_trace, time_setups, Args, SETUPS_BEFORE, SETUP_WINDOW_S};
use crate::trace::Tracer;
use crate::util::{median, ms, percentile, ratio, summarize, Report, Rng};

/// The fixed offered rate, requests per second: a quarter of the
/// `max_rate_rps` measured at the seed commit (255–290), rounded down. At
/// half that rate the cold first visits of a run already pushed requests
/// past the latency limit; a quarter keeps the fixed phase free of backlog,
/// so its latency is the per-request path plus light queueing.
pub const FIXED_RATE: f64 = 65.0;
/// Share of the run spent at the fixed rate; the rest is the rate search,
/// which needs the larger part: its answer steadies with its step count.
pub const FIXED_SHARE: f64 = 1.0 / 3.0;
/// The latency limit: a search step whose tail exceeds it fails.
pub const LATENCY_LIMIT_MS: f64 = 200.0;
/// A request answered later than this after it was due is a failure.
/// Five times the latency limit: `serviced` writes a reply and its newline
/// in two writes without `TCP_NODELAY`, so the newline waits for the
/// client's delayed ACK, which Linux holds for 40 to 200 ms. A request
/// that lands on a 200 ms ACK while the host is slow misses the latency
/// limit without anything being wrong with its answer; it shows in
/// `latency_tail_ms` and in the count of late requests instead.
pub const TIMEOUT_MS: f64 = 1000.0;
/// The generator's own lateness bound: beyond it (at the p99 of send lag)
/// the run refuses to report `daemon` latency. A quarter of the latency
/// limit: the shared host stalls the whole machine for tens of
/// milliseconds at times, which delays the daemon alike and is counted in
/// latency anyway (requests are timed from when they were due); a tighter
/// bound refused such runs.
pub const LAG_BOUND_MS: f64 = 50.0;
/// Length of one rate-search step.
pub const STEP_SECONDS: f64 = 1.5;
/// Factor a rate-search step moves the rate by: up after a step that
/// passed, down after one that failed.
pub const STEP_FACTOR: f64 = 1.06;
/// Tenants sending requests.
pub const TENANTS: [&str; 3] = ["t0", "t1", "t2"];
/// Family entries drawn per family (one per cost stratum).
pub const PER_FAMILY: usize = 10;
/// Connections (and generator threads).
pub const CONNECTIONS: usize = 2;

/// The instances the daemon workload names: every `synth:micro` entry and
/// a stratified draw of each DSP family.
#[must_use]
pub fn pool_ids(pinned: &Pinned, rng: &mut Rng) -> Vec<String> {
    let mut ids: Vec<String> = manifest_ids(&["synth:micro"])
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    for family in ["viterbi", "adpcm", "lms", "fft_radix4"] {
        let members: Vec<String> = manifest_ids(&[family])
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        ids.extend(stratified(
            rng,
            &members,
            |id| pinned.sweep_nodes(id),
            PER_FAMILY,
        ));
    }
    ids
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// When it is due, from the phase start.
    pub due: Duration,
    pub conn: usize,
    pub request: Request,
    /// Its points, in answer order: (instance index, RG).
    pub points: Vec<(usize, u64)>,
}

fn spec(rg: u64) -> SolveSpec {
    SolveSpec {
        rg,
        audit: true,
        ..SolveSpec::default()
    }
}

/// One request of a visit: its tenant, body and points.
pub type VisitRequest = (&'static str, RequestBody, Vec<(usize, u64)>);

/// One exploration visit's requests, in order.
///
/// The visiting tenant sends the `sweep` of the instance's RGs, the `delta`
/// walk down and up the same RGs, and a `solve` for each of its
/// `REVISIT_SHARE` revisits, as `explore` does through the library; a
/// teammate then re-reads the swept points in one `batch`. With `k` = 4
/// RGs a visit is 16 points, 4 of them cross-tenant repeats.
pub fn visit(rng: &mut Rng, pool: &[Inst]) -> Vec<VisitRequest> {
    let i = rng.below(pool.len());
    let tenant = rng.below(TENANTS.len());
    let teammate = (tenant + 1 + rng.below(TENANTS.len() - 1)) % TENANTS.len();
    let rgs: Vec<u64> = pool[i].w.rg_sweep.iter().map(|c| c.get()).collect();
    let mut desc = rgs.clone();
    desc.sort_unstable_by(|a, b| b.cmp(a));
    let mut walk = desc.clone();
    walk.extend(desc.iter().rev().skip(1));
    let mut revisit: Vec<u64> = rgs.clone();
    rng.shuffle(&mut revisit);
    revisit.truncate(((rgs.len() as f64 * REVISIT_SHARE).round() as usize).max(1));

    let instance = &pool[i].id;
    let points = |rgs: &[u64]| rgs.iter().map(|&rg| (i, rg)).collect::<Vec<_>>();
    let mut out = vec![
        (
            TENANTS[tenant],
            RequestBody::Sweep {
                instance: instance.clone(),
                spec: spec(rgs[0]),
                rgs: rgs.clone(),
            },
            points(&rgs),
        ),
        (
            TENANTS[tenant],
            RequestBody::Delta {
                instance: instance.clone(),
                spec: spec(walk[0]),
                rgs: walk.clone(),
            },
            points(&walk),
        ),
    ];
    for rg in revisit {
        out.push((
            TENANTS[tenant],
            RequestBody::Solve {
                instance: instance.clone(),
                spec: spec(rg),
            },
            vec![(i, rg)],
        ));
    }
    let jobs = rgs
        .iter()
        .map(|&rg| BatchItem {
            instance: instance.clone(),
            spec: spec(rg),
        })
        .collect();
    out.push((TENANTS[teammate], RequestBody::Batch { jobs }, points(&rgs)));
    out
}

/// The seeded request stream of one phase: Poisson arrivals at `rate` for
/// `seconds`, carrying the requests of successive visits in order, each
/// on a uniformly drawn connection. `first` numbers the request ids.
pub fn plan(rng: &mut Rng, pool: &[Inst], rate: f64, seconds: f64, first: usize) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut pending = std::collections::VecDeque::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        if pending.is_empty() {
            pending.extend(visit(rng, pool));
        }
        let (tenant, body, points) = pending.pop_front().expect("a visit has requests");
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            conn: rng.below(CONNECTIONS),
            request: Request {
                api_version: API_VERSION,
                id: format!("r{}", first + out.len()),
                tenant: tenant.to_string(),
                body,
            },
            points,
        });
    }
}

/// One answered (or unanswered) request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// From due time to the response, ms; `None` when never answered.
    pub latency_ms: Option<f64>,
    /// How late the request was sent, ms.
    pub lag_ms: f64,
    pub response: String,
}

/// The `serviced` child; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    fn start(bin: &Path) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(bin)
            .args(["--tcp", &addr, "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Daemon { child, addr })
    }

    fn connect(&mut self) -> Result<TcpStream, String> {
        let started = Instant::now();
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => {
                    s.set_nodelay(true).map_err(|e| e.to_string())?;
                    return Ok(s);
                }
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("serviced exited early: {status}"));
                    }
                    if started.elapsed() > Duration::from_secs(20) {
                        return Err(format!("serviced never accepted on {}: {e}", self.addr));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::util::peak_rss_mb(&self.child.id().to_string())
    }
}

/// Sends one line and waits for its one-line answer.
fn call(stream: &mut TcpStream, line: &str) -> Result<String, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut got = Vec::new();
    let mut byte = [0u8; 4096];
    loop {
        let n = stream.read(&mut byte).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed".into());
        }
        got.extend_from_slice(&byte[..n]);
        if got.ends_with(b"\n") {
            return Ok(String::from_utf8_lossy(&got).trim_end().to_string());
        }
    }
}

/// The lazy resolve of every named instance: one batch of cheap greedy
/// solves (the greedy backend keys its cache entries apart from the
/// measured exact solves).
fn resolve_line(pool: &[Inst]) -> String {
    let jobs = pool
        .iter()
        .map(|inst| BatchItem {
            instance: inst.id.clone(),
            spec: SolveSpec {
                rg: inst.w.rg_sweep[0].get(),
                backend: Backend::Greedy,
                ..SolveSpec::default()
            },
        })
        .collect();
    Request {
        api_version: API_VERSION,
        id: "resolve".into(),
        tenant: "setup".into(),
        body: RequestBody::Batch { jobs },
    }
    .to_json()
}

/// Start-up until the first ping is answered, plus the lazy resolves.
fn setup(bin: &Path, pool: &[Inst]) -> Result<(Daemon, Vec<TcpStream>), String> {
    let mut d = Daemon::start(bin)?;
    let mut first = d.connect()?;
    let pong = call(
        &mut first,
        r#"{"api_version":1,"id":"ping","tenant":"setup","method":"ping"}"#,
    )?;
    if !pong.contains("\"pong\":true") {
        return Err(format!("bad ping answer {pong}"));
    }
    // Greedy may find no selection at the lowest RG; only a failed
    // resolve (unknown instance, digest mismatch) fails the set-up.
    let resolved = call(&mut first, &resolve_line(pool))?;
    if !resolved.contains("\"tenant\":\"setup\",\"ok\":true")
        || resolved.contains("\"code\":103")
        || resolved.contains("\"code\":300")
    {
        return Err(format!("lazy resolve failed: {resolved}"));
    }
    let mut conns = vec![first];
    while conns.len() < CONNECTIONS {
        conns.push(d.connect()?);
    }
    Ok((d, conns))
}

/// The echoed request id of an answer line (answers start with
/// `{"api_version":1,"id":"…"`).
fn answer_id(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"id\":\"")? + 6..];
    Some(&rest[..rest.find('"')?])
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::os::raw::c_int;
}

/// Waits until `stream` has data to read or `timeout` passes. Socket read
/// timeouts tick in scheduler jiffies, far too coarse for sub-millisecond
/// send schedules; `ppoll` sleeps on a high-resolution timer and still
/// wakes the moment an answer arrives.
fn wait_readable(stream: &TcpStream, timeout: Duration) {
    use std::os::fd::AsRawFd as _;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 1, // POLLIN
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd` and
    // `struct timespec` values (64-bit Linux) for the whole call; the count
    // is 1 and a null signal mask leaves the mask unchanged. The result is
    // only a wake-up hint: the caller reads non-blockingly afterwards.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Drives one connection's share of a phase; returns outcomes by plan index.
fn drive_conn(
    stream: &mut TcpStream,
    plan: &[Planned],
    mine: &[usize],
    start: Instant,
    drain: Duration,
) -> Vec<(usize, Outcome)> {
    if stream.set_nonblocking(true).is_err() {
        return Vec::new();
    }
    let mut out: HashMap<usize, Outcome> = HashMap::new();
    let index: HashMap<&str, usize> = mine
        .iter()
        .map(|&i| (plan[i].request.id.as_str(), i))
        .collect();
    let mut next = 0;
    let mut answered = 0;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let end = plan.last().map_or(Duration::ZERO, |p| p.due) + drain;
    loop {
        let now = start.elapsed();
        while next < mine.len() && plan[mine[next]].due <= now {
            let p = &plan[mine[next]];
            let line = format!("{}\n", p.request.to_json());
            let lag = ms(start.elapsed().saturating_sub(p.due));
            if stream.write_all(line.as_bytes()).is_err() {
                return out.into_iter().collect();
            }
            out.insert(
                mine[next],
                Outcome {
                    latency_ms: None,
                    lag_ms: lag,
                    response: String::new(),
                },
            );
            next += 1;
        }
        if answered == mine.len() || now > end {
            break;
        }
        // Block until an answer arrives or the next request is due.
        let wait = if next < mine.len() {
            plan[mine[next]].due.saturating_sub(now)
        } else {
            Duration::from_millis(20)
        };
        wait_readable(stream, wait);
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return out.into_iter().collect(),
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    let at = start.elapsed();
                    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = buf.drain(..=pos).collect();
                        let line = String::from_utf8_lossy(&line).trim_end().to_string();
                        if let Some(&i) = answer_id(&line).and_then(|id| index.get(id)) {
                            if let Some(o) = out.get_mut(&i) {
                                o.latency_ms = Some(ms(at.saturating_sub(plan[i].due)));
                                o.response = line;
                                answered += 1;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return out.into_iter().collect(),
            }
        }
    }
    out.into_iter().collect()
}

/// Drives a whole phase over the connections; outcomes in plan order.
fn drive(conns: &mut [TcpStream], plan: &[Planned], drain: Duration) -> Vec<Option<Outcome>> {
    let start = Instant::now();
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, p) in plan.iter().enumerate() {
        per_conn[p.conn % conns.len()].push(i);
    }
    let mut out: Vec<Option<Outcome>> = vec![None; plan.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per_conn)
            .map(|(stream, mine)| s.spawn(move || drive_conn(stream, plan, mine, start, drain)))
            .collect();
        for h in handles {
            for (i, o) in h.join().expect("generator thread panicked") {
                out[i] = Some(o);
            }
        }
    });
    out
}

/// Decimal `"digest":` values of a response line, in order (the JSON
/// reader holds numbers as `f64`, which cannot carry a 64-bit digest).
fn digests(line: &str) -> Vec<u64> {
    line.match_indices("\"digest\":")
        .filter_map(|(at, key)| {
            let rest = &line[at + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// The run's answer checking: the pinned answers, the greedy areas they
/// are compared with, and the report failures are counted in.
struct Checker<'a> {
    pool: &'a [Inst],
    pinned: &'a Pinned,
    greedy: GreedyAreas,
    report: Report,
}

/// What checking a phase's answers found.
#[derive(Debug, Default)]
struct Checked {
    e: E2e,
    lat_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    overload: u64,
    /// Requests answered after the latency limit.
    late: u64,
    cache_hits: u64,
    unanswered: u64,
}

/// Checks every answered point against the pinned answers. In the
/// fixed-rate phase (`fixed`) every shortfall is a failure: no answer, an
/// error answer, a 429, a degraded point, an answer past `TIMEOUT_MS`. In
/// a search step those are overload, which fails the step; a wrong answer
/// is a failure in both.
fn check_phase(
    ck: &mut Checker<'_>,
    plan: &[Planned],
    outcomes: &[Option<Outcome>],
    fixed: bool,
) -> Checked {
    let report = &mut ck.report;
    let mut c = Checked::default();
    for (p, o) in plan.iter().zip(outcomes) {
        let id = &p.request.id;
        let short = |c: &mut Checked, report: &mut Report, why: String| {
            c.overload += 1;
            if fixed {
                report.fail(why);
            }
        };
        if fixed {
            report.attempted += p.points.len() as u64;
        }
        let Some(o) = o else {
            c.unanswered += 1;
            short(&mut c, report, format!("{id}: never sent"));
            continue;
        };
        c.lag_ms.push(o.lag_ms);
        let Some(lat) = o.latency_ms else {
            c.unanswered += 1;
            short(&mut c, report, format!("{id}: no answer"));
            continue;
        };
        c.lat_ms.push(lat);
        c.e.calls += 1;
        if lat > TIMEOUT_MS {
            short(&mut c, report, format!("{id}: {lat:.1} ms timed out"));
        }
        if lat > LATENCY_LIMIT_MS {
            c.late += 1;
        }
        let doc = JsonValue::parse(&o.response).unwrap_or(JsonValue::Null);
        if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            short(&mut c, report, format!("{id}: error answer {}", o.response));
            continue;
        }
        // Point answers in request order: a solve's `result`, a sweep's or
        // delta's `results`, a batch's `results` of `{ok, result|error}`.
        let items: Vec<Option<&JsonValue>> = match (doc.get("result"), doc.get("results")) {
            (Some(r), _) => vec![Some(r)],
            (None, Some(JsonValue::Array(items))) => items
                .iter()
                .map(|item| match item.get("ok").and_then(JsonValue::as_bool) {
                    Some(false) => None,
                    Some(true) => item.get("result"),
                    None => Some(item),
                })
                .collect(),
            _ => Vec::new(),
        };
        if items.len() != p.points.len() {
            report.fail(format!(
                "{id}: {} answers for {} points",
                items.len(),
                p.points.len()
            ));
            continue;
        }
        let mut digests = digests(&o.response).into_iter();
        for (&(i, rg), item) in p.points.iter().zip(&items) {
            let Some(r) = item else {
                short(
                    &mut c,
                    report,
                    format!("{id} rg {rg}: error answer {}", o.response),
                );
                continue;
            };
            let got = digests.next().unwrap_or(0);
            c.e.points += 1;
            if r.get("cache_hit").and_then(JsonValue::as_bool) == Some(true) {
                c.cache_hits += 1;
            }
            if r.get("degraded").and_then(JsonValue::as_bool) == Some(true) {
                short(&mut c, report, format!("{id} rg {rg}: degraded"));
                continue;
            }
            if !fixed {
                report.attempted += 1;
            }
            let inst = &ck.pool[i];
            let want = ck.pinned.points.get(&(inst.id.clone(), rg, 0));
            if want.map(|w| w.digest) != Some(got) {
                report.fail(format!(
                    "{id} {} rg {rg}: digest {got:016x}, pinned {:?}",
                    inst.id,
                    want.map(|w| format!("{:016x}", w.digest))
                ));
                continue;
            }
            if r.get("status").and_then(JsonValue::as_str) == Some("optimal") {
                c.e.proven += 1;
            }
            let area = r
                .get("area_tenths")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as i64;
            c.e.area.add(&mut ck.greedy, inst, Cycles(rg), area);
        }
    }
    c
}

/// Wall time of a phase, s: from its start until its last answer arrived.
fn phase_span(plan: &[Planned], outcomes: &[Option<Outcome>]) -> f64 {
    plan.iter()
        .zip(outcomes)
        .filter_map(|(p, o)| Some(p.due.as_secs_f64() + o.as_ref()?.latency_ms? / 1e3))
        .fold(0.0, f64::max)
        .max(1e-9)
}

/// What the rate search found.
struct Searched {
    /// The highest passing rate, requests per second.
    max_rate: f64,
    /// Points answered per second in the steps `max_rate` comes from;
    /// `None` when no step passed.
    points_per_s: Option<f64>,
    /// Each step's rate, marked `+` when it passed and `-` when not.
    steps: Vec<String>,
}

/// The rate search, a staircase: start at four times the fixed rate (about
/// the seed commit's maximum) and, until the time is up, raise the rate by
/// `STEP_FACTOR` after a step that passed and lower it by the same factor
/// after one that failed. The staircase settles on the highest passing
/// rate and oscillates about it. `max_rate` is the mean rate of the
/// passing steps from the first change of direction on, which averages
/// out the pass/fail noise of single steps and, unlike their median, is
/// not held to the staircase's 6% grid (with no change of direction, the
/// highest passing rate). The fixed rate, which the fixed phase passed, is
/// the floor.
fn search(
    conns: &mut [TcpStream],
    ck: &mut Checker<'_>,
    rng: &mut Rng,
    seconds: f64,
    next_id: &mut usize,
) -> Searched {
    let started = Instant::now();
    let mut rate = 4.0 * FIXED_RATE;
    let mut steps = Vec::new();
    // (rate, points per second, settled) of every passing step.
    let mut passed: Vec<(f64, f64, bool)> = Vec::new();
    let mut last = None;
    let mut settled = false;
    while started.elapsed().as_secs_f64() + STEP_SECONDS < seconds && rate >= FIXED_RATE {
        let step = plan(rng, ck.pool, rate, STEP_SECONDS, *next_id);
        *next_id += step.len();
        let outcomes = drive(conns, &step, Duration::from_secs(2));
        let c = check_phase(ck, &step, &outcomes, false);
        let mut lat = c.lat_ms.clone();
        let tail = summarize(&mut lat).tail;
        // A growing backlog makes the step's last requests wait longer
        // than its first ones.
        let q = c.lat_ms.len() / 4;
        let early = median(&c.lat_ms[..q]);
        let late = median(&c.lat_ms[c.lat_ms.len() - q..]);
        let growing = q == 0 || late > 3.0 * early + 20.0;
        let pass = c.overload == 0 && c.unanswered == 0 && tail <= LATENCY_LIMIT_MS && !growing;
        steps.push(format!("{rate:.0}{}", if pass { "+" } else { "-" }));
        settled |= last.is_some_and(|l| l != pass);
        last = Some(pass);
        if pass {
            let pps = c.e.points as f64 / phase_span(&step, &outcomes);
            passed.push((rate, pps, settled));
            rate *= STEP_FACTOR;
        } else {
            rate /= STEP_FACTOR;
        }
    }
    let (rates, pps): (Vec<f64>, Vec<f64>) = if settled {
        passed.iter().filter(|p| p.2).map(|p| (p.0, p.1)).unzip()
    } else {
        passed.last().map(|p| (p.0, p.1)).into_iter().unzip()
    };
    Searched {
        max_rate: if rates.is_empty() {
            FIXED_RATE
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        },
        points_per_s: (!pps.is_empty()).then(|| median(&pps)),
        steps,
    }
}

/// Runs the `daemon` workload.
///
/// # Errors
///
/// A start-up failure, or a generator that ran late beyond its bound.
pub fn run(args: &Args, pinned: &Pinned) -> Result<Report, String> {
    let bin = args
        .serviced
        .clone()
        .unwrap_or_else(|| PathBuf::from(".bench_build/release/serviced"));
    let mut rng = Rng::new(args.seed);
    let ids = pool_ids(pinned, &mut rng);
    let (pool, build_time) = crate::util::timed(|| build(&ids, pinned));
    let pool = pool?;
    let mut ck = Checker {
        pool: &pool,
        pinned,
        greedy: GreedyAreas::default(),
        report: Report::default(),
    };
    let mut setup_times = Vec::new();
    let (daemon, mut conns) = time_setups(&mut setup_times, SETUPS_BEFORE, SETUP_WINDOW_S, || {
        setup(&bin, &pool)
    })?;

    let fixed_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds * FIXED_SHARE
    };
    let fixed_plan = plan(&mut rng, &pool, FIXED_RATE, fixed_seconds, 0);
    let mut next_id = fixed_plan.len();
    let outcomes = drive(&mut conns, &fixed_plan, Duration::from_secs(5));
    let checked = check_phase(&mut ck, &fixed_plan, &outcomes, true);
    let mut lag = checked.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    let lag_p99 = percentile(&lag, 99.0);
    if lag_p99 > LAG_BOUND_MS {
        return Err(format!(
            "the load generator ran {lag_p99:.2} ms late at p99 (bound {LAG_BOUND_MS} ms, \
             max {:.2} ms over {} requests); refusing to report daemon latency",
            percentile(&lag, 100.0),
            lag.len()
        ));
    }
    let mut e = checked.e.clone();
    e.lat_ms = checked.lat_ms.clone();
    e.busy = Duration::from_secs_f64(phase_span(&fixed_plan, &outcomes));
    ck.report.notes.push(format!(
        "fixed rate {FIXED_RATE} rps for {fixed_seconds:.1} s: {} requests, {} points, \
         generator lag p99 {lag_p99:.3} ms, cache hits {}, {} requests past the \
         {LATENCY_LIMIT_MS} ms limit",
        fixed_plan.len(),
        e.points,
        checked.cache_hits,
        checked.late
    ));

    if !args.trace {
        let found = search(
            &mut conns,
            &mut ck,
            &mut rng,
            args.seconds - fixed_seconds,
            &mut next_id,
        );
        ck.report.notes.push(format!(
            "rate search (rps, +pass -fail): {}; max rate {:.1} rps, {:.1} points/s there",
            found.steps.join(" "),
            found.max_rate,
            found.points_per_s.unwrap_or(0.0)
        ));
        let rss = daemon.peak_rss_mb();
        drop(conns);
        drop(daemon);
        time_setups(&mut setup_times, 1, SETUP_WINDOW_S, || setup(&bin, &pool))?;
        // With no passing step, the fixed phase's rate stands in.
        let open = OpenLoop {
            points_per_s: found
                .points_per_s
                .unwrap_or_else(|| e.points as f64 / e.busy.as_secs_f64()),
            max_rate_rps: found.max_rate,
        };
        emit(&mut ck.report, &setup_times, &e, rss, Some(open));
        return Ok(ck.report);
    }

    // Traced run: a second fixed-rate phase whose requests are also
    // replayed in process, so each request's TCP latency splits into
    // parse, handle, serialize and the remainder (queue wait and
    // transport).
    let traced_plan = plan(&mut rng, &pool, FIXED_RATE, args.seconds / 2.0, next_id);
    let traced_out = drive(&mut conns, &traced_plan, Duration::from_secs(5));
    let traced = check_phase(&mut ck, &traced_plan, &traced_out, true);
    let stats = call(
        &mut conns[0],
        r#"{"api_version":1,"id":"stats","tenant":"setup","method":"stats"}"#,
    )?;
    drop(conns);
    drop(daemon);

    let mut tr = Tracer::default();
    layers::impdb(&mut tr, &pool);
    let core = ServiceCore::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let _ = core.handle_line(&resolve_line(&pool));
    let mut order: Vec<usize> = (0..traced_plan.len()).collect();
    order.sort_by_key(|&i| traced_plan[i].due);
    let mut waits = Vec::new();
    let mut decomposed = std::collections::HashSet::new();
    for i in order {
        let p = &traced_plan[i];
        let id = i as u64;
        let Some(lat) = traced_out[i].as_ref().and_then(|o| o.latency_ms) else {
            continue;
        };
        let root = tr.record(
            id,
            "daemon.request",
            None,
            Duration::from_secs_f64(lat / 1e3),
            Vec::new(),
        );
        let line = p.request.to_json();
        let (req, _) = tr.span(id, "api.parse", Some(root), || Request::parse(&line));
        let Ok(req) = req else { continue };
        let (resp, h) = tr.span(id, "service.handle", Some(root), || {
            core.handle_request(&req)
        });
        let (json, _) = tr.span(id, "api.serialize", Some(root), || {
            resp.to_json(Redaction::None)
        });
        std::hint::black_box(json);
        waits.push(lat * 1e3 - tr.dur_us(h));
        for &(inst, rg) in &p.points {
            let opts = options(Cycles(rg), 0);
            let (key, _) = tr.span(id, "cache.key", None, || {
                canonical_solve_key(&pool[inst].w.instance, &pool[inst].w.imps, &opts)
            });
            std::hint::black_box(key);
            if decomposed.insert((inst, rg)) {
                layers::decompose(&mut tr, id, &pool[inst], Cycles(rg), 0);
            }
        }
    }
    let wait = summarize(&mut waits);
    let stat = |key: &str| {
        JsonValue::parse(&stats)
            .ok()
            .and_then(|v| {
                v.get("stats")
                    .and_then(|s| s.get(key))
                    .and_then(JsonValue::as_f64)
            })
            .unwrap_or(0.0)
    };
    let requests = (fixed_plan.len() + traced_plan.len()) as f64;
    let points = (checked.e.points + traced.e.points) as f64;
    let mut lat_a = checked.lat_ms.clone();
    let mut lat_b = traced.lat_ms.clone();
    let overhead = 100.0 * (summarize(&mut lat_b).p50 / summarize(&mut lat_a).p50 - 1.0);
    let mut all_lag = lag;
    all_lag.extend(traced.lag_ms.iter().copied());
    all_lag.sort_by(f64::total_cmp);
    let backlog_max = outstanding_max(&traced_plan, &traced_out) as f64;
    let mut report = ck.report;
    finish_trace(
        args,
        &mut report,
        &tr,
        &[
            ("workloads.build_ms", ms(build_time)),
            ("cache.hit_share", ratio(stat("cache_hits"), points)),
            ("service.degraded_share", ratio(stat("degraded"), points)),
            ("service.rejected_share", ratio(stat("rejected"), requests)),
            ("server.wait_p50_us", wait.p50),
            ("server.wait_tail_us", wait.tail),
            ("loadgen.lag_ms", percentile(&all_lag, 99.0)),
            ("loadgen.backlog_max", backlog_max),
            ("trace.overhead_pct", overhead),
            (
                "trace.unattributed_pct",
                100.0 * tr.unattributed_share("daemon.request"),
            ),
            ("trace.points", traced.e.points as f64),
        ],
    );
    Ok(report)
}

/// The most requests that were due but not yet answered at any moment.
fn outstanding_max(plan: &[Planned], outcomes: &[Option<Outcome>]) -> usize {
    let mut events: Vec<(f64, i32)> = Vec::new();
    for (p, o) in plan.iter().zip(outcomes) {
        let due = p.due.as_secs_f64() * 1e3;
        events.push((due, 1));
        if let Some(lat) = o.as_ref().and_then(|o| o.latency_ms) {
            events.push((due + lat, -1));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut cur, mut max) = (0i32, 0i32);
    for (_, d) in events {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}
