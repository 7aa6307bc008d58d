//! NDJSON transports: a worker pool with a fair per-tenant FIFO, pumping
//! any `BufRead`/`Write` pair — stdin/stdout, a Unix socket connection, or
//! a TCP connection. Each served stream runs its own pool of `workers`
//! threads, so a listener with `c` open connections runs `c × workers`
//! solver threads.
//!
//! Scheduling is round-robin across tenants and FIFO within one: a tenant
//! that floods the daemon fills only its own queue, and each scheduling
//! step offers the next *tenant* (not the next request) a worker, capped
//! at 4 jobs in flight per tenant. Queue overflow (1,024 waiting jobs per
//! tenant) is refused immediately with error code 429 rather than
//! buffered without bound.
//!
//! Both caps are accounted on [`ServiceCore`], shared by every served
//! connection — opening more connections does not multiply a tenant's
//! allowance. Because a slot freed on one connection's pool only notifies
//! that pool's condvar, parked workers use a short timed wait to observe
//! cross-connection frees.
//!
//! Responses are written in completion order, one line per request; the
//! envelope's echoed `id` is what correlates them. Callers that need
//! request-order replies (scripted replay, goldens) use
//! [`crate::replay`], which is single-threaded by construction.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use partita_core::api::{ApiError, Request, Response};
use partita_core::Redaction;

use crate::ServiceCore;

/// Longest request line the reader buffers, newline excluded. A longer
/// line is answered with [`ApiError::Malformed`] and skipped up to its
/// newline without being stored, so a client that never sends a newline
/// cannot grow the daemon's memory without bound. The largest request the
/// bundled tooling sends (a batch resolving a whole instance pool) is a few
/// KiB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Per-tenant FIFOs plus the round-robin ring the workers pull from.
/// In-flight and queue *counts* live on [`ServiceCore`], shared across
/// connections; this holds only this connection's pending requests.
struct Sched {
    queues: HashMap<String, VecDeque<Request>>,
    /// Tenants in arrival order; the rotating cursor makes the scan fair.
    ring: Vec<String>,
    cursor: usize,
    /// Whether the reader is still producing lines.
    open: bool,
}

impl Sched {
    fn new() -> Sched {
        Sched {
            queues: HashMap::new(),
            ring: Vec::new(),
            cursor: 0,
            open: true,
        }
    }

    fn queued_total(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    fn enqueue(&mut self, req: Request) {
        if !self.queues.contains_key(&req.tenant) {
            self.ring.push(req.tenant.clone());
        }
        self.queues
            .entry(req.tenant.clone())
            .or_default()
            .push_back(req);
    }

    /// The next runnable job under the fair policy: starting at the
    /// cursor, the first tenant with queued work and spare process-wide
    /// in-flight allowance ([`ServiceCore::try_start`]). Advancing the
    /// cursor past the chosen tenant is what prevents one tenant with a
    /// deep queue from monopolising workers.
    fn pick(&mut self, core: &ServiceCore) -> Option<Request> {
        let n = self.ring.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            let tenant = &self.ring[idx];
            let has_work = self.queues.get(tenant).is_some_and(|q| !q.is_empty());
            if !has_work || !core.try_start(tenant) {
                continue;
            }
            let req = self
                .queues
                .get_mut(tenant)
                .and_then(VecDeque::pop_front)
                .expect("non-empty under the scheduler lock");
            self.cursor = (idx + 1) % n;
            return Some(req);
        }
        None
    }
}

/// Reverses one picked job's accounting when it leaves scope — the
/// process-wide in-flight slot, the load counter, and a wake-up for
/// parked local workers — so it runs on every worker exit path,
/// including `?` early returns on a write error.
struct JobGuard<'a> {
    core: &'a Arc<ServiceCore>,
    cvar: &'a Condvar,
    tenant: &'a str,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.core.finish_job(self.tenant);
        self.core.load_exit();
        self.cvar.notify_all();
    }
}

/// Pumps `input` through `core` onto `output` with `workers` solver
/// threads (clamped to at least 1), returning when `input` reaches EOF
/// and every queued job is answered.
///
/// The caller's thread runs the reader (parse, admission, enqueue);
/// workers run [`ServiceCore::handle_request`]. Every response line — a
/// worker's answer or the reader's inline error — is one `write_all` of
/// the line and its newline under a shared mutex, so concurrent
/// completions never tear. One write, not two, also keeps TCP replies
/// prompt: a newline written on its own is held by Nagle's algorithm
/// until the client ACKs the line, and the client delays that ACK.
pub fn serve<R, W>(
    core: &Arc<ServiceCore>,
    mut input: R,
    output: W,
    workers: usize,
    redaction: Redaction,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let sched = Mutex::new(Sched::new());
    let cvar = Condvar::new();
    let output = Mutex::new(output);
    let workers = workers.max(1);

    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            pool.push(scope.spawn(|| -> std::io::Result<()> {
                loop {
                    let job = {
                        let mut guard = sched.lock().expect("scheduler lock");
                        loop {
                            if let Some(req) = guard.pick(core) {
                                break Some(req);
                            }
                            if !guard.open {
                                break None;
                            }
                            // Timed: a slot freed on another connection's
                            // pool notifies that pool's condvar, not ours.
                            let (g, _) = cvar
                                .wait_timeout(guard, Duration::from_millis(25))
                                .expect("scheduler lock");
                            guard = g;
                        }
                    };
                    let Some(req) = job else { return Ok(()) };
                    let _done = JobGuard {
                        core,
                        cvar: &cvar,
                        tenant: &req.tenant,
                    };
                    write_reply(&output, &core.handle_request(&req), redaction)?;
                }
            }));
        }

        // Reader: this thread. Errors (a connection reset mid-stream, a
        // failed error-reply write) must not return before the shutdown
        // path below — parked workers wait on `open`, and `thread::scope`
        // would block on them forever.
        let read_result = (|| -> std::io::Result<()> {
            let reply_inline = |resp: Response| write_reply(&output, &resp, redaction);
            // One byte past the cap tells an over-long line from one that
            // fits exactly.
            let cap = MAX_LINE_BYTES as u64 + 1;
            let mut buf: Vec<u8> = Vec::new();
            loop {
                buf.clear();
                if (&mut input).take(cap).read_until(b'\n', &mut buf)? == 0 {
                    return Ok(());
                }
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                } else if buf.len() > MAX_LINE_BYTES {
                    skip_line(&mut input)?;
                    let err =
                        ApiError::Malformed(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                    reply_inline(Response::error("", "", err))?;
                    continue;
                }
                let Ok(line) = std::str::from_utf8(&buf) else {
                    let err = ApiError::Malformed("request line is not valid UTF-8".into());
                    reply_inline(Response::error("", "", err))?;
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                match Request::parse(line) {
                    Ok(req) => {
                        if !core.try_admit(&req.tenant) {
                            core.note_rejected();
                            reply_inline(Response::error(
                                &req.id,
                                &req.tenant,
                                ApiError::Overloaded {
                                    tenant: req.tenant.clone(),
                                    detail: "queue full".into(),
                                },
                            ))?;
                            continue;
                        }
                        core.load_enter();
                        sched.lock().expect("scheduler lock").enqueue(req);
                        cvar.notify_all();
                    }
                    Err(err) => {
                        // Answer protocol errors inline; they never occupy
                        // a worker.
                        let (id, tenant) = crate::best_effort_ids(line);
                        reply_inline(Response::error(&id, &tenant, err))?;
                    }
                }
            }
        })();

        // Shutdown — reached on EOF *and* on reader error: close the
        // scheduler, wake and join the workers, then reverse the
        // accounting of any job admitted but never served (reader error
        // above, or the pool dying on a write error).
        sched.lock().expect("scheduler lock").open = false;
        cvar.notify_all();
        let mut worker_result: std::io::Result<()> = Ok(());
        for worker in pool {
            let joined = worker.join().expect("worker panicked");
            if worker_result.is_ok() {
                worker_result = joined;
            }
        }
        {
            let mut guard = sched.lock().expect("scheduler lock");
            debug_assert!(
                read_result.is_err() || worker_result.is_err() || guard.queued_total() == 0,
                "clean shutdown left unserved jobs"
            );
            for (tenant, queue) in &mut guard.queues {
                while queue.pop_front().is_some() {
                    core.drop_queued(tenant);
                    core.load_exit();
                }
            }
        }
        read_result.and(worker_result)
    })
}

/// Writes `resp` as one NDJSON line: serialized and newline-terminated in
/// one buffer, then one `write_all` and `flush` under the output lock
/// (why one write: see [`serve`]).
fn write_reply<W: Write>(
    output: &Mutex<W>,
    resp: &Response,
    redaction: Redaction,
) -> std::io::Result<()> {
    let mut line = resp.to_json(redaction);
    line.push('\n');
    let mut out = output.lock().expect("output lock");
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Discards `input` up to and including the next newline (or to EOF)
/// without buffering it.
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        if let Some(at) = chunk.iter().position(|&b| b == b'\n') {
            input.consume(at + 1);
            return Ok(());
        }
        let len = chunk.len();
        input.consume(len);
    }
}

/// Serves stdin → stdout until EOF. The interactive / piped mode of the
/// `serviced` binary.
pub fn serve_stdio(core: &Arc<ServiceCore>, workers: usize) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    serve(
        core,
        stdin.lock(),
        std::io::stdout(),
        workers,
        Redaction::None,
    )
}

/// Accepts connections on an already-bound Unix listener forever, one
/// serving thread per connection (each with its own worker pool over the
/// shared core — the cache and the per-tenant in-flight and queue
/// admission counters are process-wide).
pub fn serve_unix_listener(
    core: Arc<ServiceCore>,
    listener: UnixListener,
    workers: usize,
) -> std::io::Result<()> {
    for conn in listener.incoming() {
        let conn = conn?;
        spawn_connection(&core, conn.try_clone(), conn, workers);
    }
    Ok(())
}

/// Binds `path` and serves it forever (see [`serve_unix_listener`]).
pub fn serve_unix(core: Arc<ServiceCore>, path: &Path, workers: usize) -> std::io::Result<()> {
    serve_unix_listener(core, UnixListener::bind(path)?, workers)
}

/// Accepts connections on an already-bound TCP listener forever (see
/// [`serve_unix_listener`]; same per-connection model). Every connection
/// sets `TCP_NODELAY`: with Nagle's algorithm on, a reply finished while
/// an earlier one is still unacknowledged waits for the client's
/// (possibly delayed) ACK.
pub fn serve_tcp_listener(
    core: Arc<ServiceCore>,
    listener: TcpListener,
    workers: usize,
) -> std::io::Result<()> {
    for conn in listener.incoming() {
        let conn = conn?;
        let reader = conn.set_nodelay(true).and_then(|()| conn.try_clone());
        spawn_connection(&core, reader, conn, workers);
    }
    Ok(())
}

/// Serves one accepted connection on a thread of its own: `reader` is its
/// read half (a clone of `conn`), `conn` takes the replies. A connection
/// whose set-up failed is dropped.
fn spawn_connection<S>(core: &Arc<ServiceCore>, reader: std::io::Result<S>, conn: S, workers: usize)
where
    S: Read + Write + Send + 'static,
{
    let Ok(reader) = reader else { return };
    let core = core.clone();
    std::thread::spawn(move || {
        let _ = serve(
            &core,
            BufReader::new(reader),
            conn,
            workers,
            Redaction::None,
        );
    });
}

/// Binds `addr` (e.g. `127.0.0.1:7414`) and serves it forever.
pub fn serve_tcp<A: ToSocketAddrs>(
    core: Arc<ServiceCore>,
    addr: A,
    workers: usize,
) -> std::io::Result<()> {
    serve_tcp_listener(core, TcpListener::bind(addr)?, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    #[test]
    fn serve_answers_every_line_and_drains() {
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        let input = concat!(
            r#"{"api_version":1,"id":"a","tenant":"t1","method":"ping"}"#,
            "\n",
            "\n", // blank lines are skipped
            r#"{"api_version":1,"id":"b","tenant":"t2","method":"ping"}"#,
            "\n",
            "garbage\n",
        );
        let mut out: Vec<u8> = Vec::new();
        serve(&core, input.as_bytes(), &mut out, 4, Redaction::None).expect("serve ok");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"pong\":true")).count(),
            2
        );
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"code\":100")).count(),
            1
        );
    }

    /// Claims all of `tenant`'s 1,024 process-wide queue slots, as if
    /// other connections held its waiting jobs.
    fn fill_queue(core: &ServiceCore, tenant: &str) {
        for _ in 0..crate::MAX_QUEUED {
            assert!(core.try_admit(tenant));
        }
    }

    /// Gives back the slots [`fill_queue`] claimed.
    fn release_queue(core: &ServiceCore, tenant: &str) {
        for _ in 0..crate::MAX_QUEUED {
            core.drop_queued(tenant);
        }
    }

    #[test]
    fn queue_cap_rejects_with_429() {
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        fill_queue(&core, "greedy-tenant");
        let input = r#"{"api_version":1,"id":"a","tenant":"greedy-tenant","method":"ping"}"#
            .to_string()
            + "\n";
        let mut out: Vec<u8> = Vec::new();
        serve(&core, input.as_bytes(), &mut out, 1, Redaction::None).expect("serve ok");
        release_queue(&core, "greedy-tenant");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"code\":429"), "{text}");
        assert_eq!(core.stats().rejected, 1);
    }

    #[test]
    fn unterminated_oversized_line_is_answered_not_buffered() {
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        // A client that never sends a newline: the reader stops buffering
        // at the cap, answers once, and sees EOF.
        let input = vec![b'{'; 2 * MAX_LINE_BYTES + 7];
        let mut out: Vec<u8> = Vec::new();
        serve(&core, input.as_slice(), &mut out, 1, Redaction::None).expect("serve ok");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"code\":100"), "{text}");
        assert_eq!(core.current_load(), 0);
    }

    /// A line nested far past the JSON parser's depth cap, on a connection
    /// thread's default stack, is answered with code 100; the same
    /// connection and a second one keep being served.
    #[test]
    fn deeply_nested_line_is_refused_and_the_connection_survives() {
        use std::io::{BufRead, BufReader, Write};
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let _ = serve_tcp_listener(core, listener, 1);
        });
        let ping = |conn: &mut std::net::TcpStream, replies: &mut BufReader<_>, id: &str| {
            let line = format!(
                "{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"t\",\"method\":\"ping\"}}\n"
            );
            conn.write_all(line.as_bytes()).expect("send ping");
            let mut reply = String::new();
            replies.read_line(&mut reply).expect("ping reply");
            assert!(reply.contains("\"pong\":true"), "{reply}");
            assert!(reply.contains(&format!("\"id\":\"{id}\"")), "{reply}");
        };
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        let mut replies = BufReader::new(conn.try_clone().expect("clone"));
        let mut hostile = "[".repeat(100_000);
        hostile.push('\n');
        conn.write_all(hostile.as_bytes())
            .expect("send hostile line");
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("hostile reply");
        assert!(reply.contains("\"code\":100"), "{reply}");
        ping(&mut conn, &mut replies, "same");
        let mut other = std::net::TcpStream::connect(addr).expect("connect again");
        let mut other_replies = BufReader::new(other.try_clone().expect("clone"));
        ping(&mut other, &mut other_replies, "other");
    }

    /// Yields its data, then fails the next read — a TCP peer resetting
    /// mid-stream.
    struct FailAfter {
        data: &'static [u8],
        pos: usize,
    }

    impl std::io::Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.data.len() {
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "peer reset",
                ))
            }
        }
    }

    #[test]
    fn reader_error_shuts_down_instead_of_hanging() {
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        let input = BufReader::new(FailAfter {
            data: b"{\"api_version\":1,\"id\":\"a\",\"tenant\":\"t\",\"method\":\"ping\"}\n",
            pos: 0,
        });
        let mut out: Vec<u8> = Vec::new();
        let err = serve(&core, input, &mut out, 2, Redaction::None)
            .expect_err("reader error must propagate");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        // The line read before the reset was still answered, and no load
        // accounting leaked.
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"pong\":true"), "{text}");
        assert_eq!(core.current_load(), 0);
    }

    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_error_releases_accounting_and_reports() {
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        let ping = |id: &str| {
            format!("{{\"api_version\":1,\"id\":\"{id}\",\"tenant\":\"t\",\"method\":\"ping\"}}\n")
        };
        let input: String = ["a", "b", "c", "d"].iter().map(|id| ping(id)).collect();
        let err = serve(&core, input.as_bytes(), FailingWriter, 1, Redaction::None)
            .expect_err("write error must propagate");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // Picked and drained jobs alike released their load entries and
        // the tenant's in-flight slot: a later stream still serves it.
        assert_eq!(core.current_load(), 0);
        let mut out: Vec<u8> = Vec::new();
        serve(&core, ping("e").as_bytes(), &mut out, 1, Redaction::None).expect("healthy stream");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"pong\":true"), "{text}");
    }

    /// Logs every `write` call it receives, whole.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write() {
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        fill_queue(&core, "full");
        let mut input: Vec<u8> = Vec::new();
        // A worker reply.
        input.extend_from_slice(
            b"{\"api_version\":1,\"id\":\"p\",\"tenant\":\"t\",\"method\":\"ping\"}\n",
        );
        // Inline replies: an over-long line, a non-UTF-8 line, a garbage
        // line (code 100 each) and a full queue (429).
        input.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        input.push(b'\n');
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(b"garbage\n");
        input.extend_from_slice(
            b"{\"api_version\":1,\"id\":\"q\",\"tenant\":\"full\",\"method\":\"ping\"}\n",
        );
        let mut out = RecordingWriter::default();
        serve(&core, input.as_slice(), &mut out, 1, Redaction::None).expect("serve ok");
        release_queue(&core, "full");
        assert_eq!(out.writes.len(), 5, "one write per reply");
        for write in &out.writes {
            let text = String::from_utf8_lossy(write);
            assert!(text.ends_with('\n'), "{text}");
            assert_eq!(text.matches('\n').count(), 1, "{text}");
        }
        let count = |needle: &str| {
            let lines = out.writes.iter().map(|w| String::from_utf8_lossy(w));
            lines.filter(|l| l.contains(needle)).count()
        };
        assert_eq!(count("\"pong\":true"), 1);
        assert_eq!(count("\"code\":100"), 3);
        assert_eq!(count("\"code\":429"), 1);
    }

    /// Sequential pings over loopback TCP come back promptly. A reply
    /// whose newline trails in a second write, on a socket left to
    /// Nagle's algorithm, waits for the client's delayed ACK — about
    /// 40 ms a round trip on Linux, against well under 1 ms here.
    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        use std::time::Instant;
        let core = Arc::new(ServiceCore::new(ServiceConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let _ = serve_tcp_listener(core, listener, 1);
        });
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        let mut replies = BufReader::new(conn.try_clone().expect("clone"));
        let mut round_trips: Vec<Duration> = (0..40)
            .map(|i| {
                let start = Instant::now();
                let ping = format!(
                    "{{\"api_version\":1,\"id\":\"n{i}\",\"tenant\":\"t\",\"method\":\"ping\"}}\n"
                );
                conn.write_all(ping.as_bytes()).expect("send");
                let mut reply = String::new();
                replies.read_line(&mut reply).expect("reply");
                assert!(reply.contains("\"pong\":true"), "{reply}");
                assert!(reply.contains(&format!("\"id\":\"n{i}\"")), "{reply}");
                start.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(10),
            "median round trip {median:?}"
        );
    }
}
