//! The network server: a thread-per-connection accept loop serving the
//! [wire protocol](crate::proto) over one [`SharedDatabase`].
//!
//! Every connection gets its own [`Session`] — its own resource limits
//! and cancellation state — while all connections share the catalog,
//! the result cache and the admission gate. A
//! connection over the `max_conn` cap is answered with a single
//! `ERR OVERLOADED` line and closed; query-level overload (the admission
//! gate shedding) surfaces per request the same way, so a flooded server
//! degrades into typed errors instead of hangs.
//!
//! Sockets carry read/write timeouts: a connection idle past
//! `idle_timeout` is reaped with one `ERR TIMEOUT` line instead of
//! pinning a thread forever. Shutdown is graceful — in-flight requests
//! drain up to a `grace` deadline while every new request (and new
//! connection) is answered with the typed `ERR SHUTDOWN` line, never a
//! silently dropped socket.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conquer_engine::{
    EngineError, ExecLimits, ExecOutcome, Session, SessionOutcome, SessionResult, SharedDatabase,
};

use crate::proto::{
    engine_err_line, err_line, escape, push_escaped, push_row, Request, PROTO_CODE,
};

/// Server configuration. `#[non_exhaustive]` — start from
/// [`ServerConfig::default`] or [`ServerConfig::from_env`] and adjust
/// fields.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to listen on. Use port `0` to let the OS pick (the bound
    /// address is available via [`Server::local_addr`]).
    pub addr: String,
    /// Connections served concurrently; arrivals past the cap get one
    /// `ERR OVERLOADED` line and are closed.
    pub max_conn: usize,
    /// Socket read/write timeout; a connection idle this long is reaped
    /// with one `ERR TIMEOUT` line and closed. `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// How long [`ServerHandle::shutdown`] waits for in-flight requests
    /// to drain before giving up on them.
    pub grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            max_conn: 64,
            idle_timeout: Some(Duration::from_secs(300)),
            grace: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Configuration from the environment, falling back to the defaults:
    /// `CONQUER_ADDR` (listen address), `CONQUER_MAX_CONN`
    /// (concurrent-connection cap), `CONQUER_IDLE_MS` (idle-connection
    /// reap timeout in milliseconds, `0` disables), and
    /// `CONQUER_GRACE_MS` (shutdown drain deadline in milliseconds).
    pub fn from_env() -> Self {
        let mut cfg = ServerConfig::default();
        if let Ok(addr) = std::env::var("CONQUER_ADDR") {
            if !addr.trim().is_empty() {
                cfg.addr = addr.trim().to_string();
            }
        }
        if let Some(n) = std::env::var("CONQUER_MAX_CONN")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            cfg.max_conn = n.max(1);
        }
        if let Some(ms) = std::env::var("CONQUER_IDLE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            cfg.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(ms) = std::env::var("CONQUER_GRACE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            cfg.grace = Duration::from_millis(ms);
        }
        cfg
    }
}

/// State shared between the accept loop, the connection threads, and the
/// [`ServerHandle`]: the hard-stop flag, the draining flag, and the count
/// of requests currently executing.
#[derive(Debug, Default)]
struct Lifecycle {
    shutdown: AtomicBool,
    draining: AtomicBool,
    inflight: AtomicUsize,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: SharedDatabase,
    max_conn: usize,
    idle_timeout: Option<Duration>,
    grace: Duration,
    lifecycle: Arc<Lifecycle>,
}

/// Handle to a server spawned on a background thread; dropping it does
/// *not* stop the server — call [`ServerHandle::shutdown`].
#[must_use = "keep the handle and call shutdown(); dropping it leaks the server thread"]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    lifecycle: Arc<Lifecycle>,
    grace: Duration,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Gracefully stop the server with the configured grace period: stop
    /// taking new work (every new request or connection is answered with
    /// the typed `ERR SHUTDOWN` line), wait for in-flight requests to
    /// drain, then close the listener and join the accept thread.
    pub fn shutdown(mut self) {
        let grace = self.grace;
        self.stop(grace);
    }

    /// [`ServerHandle::shutdown`] with an explicit drain deadline.
    pub fn shutdown_within(mut self, grace: Duration) {
        self.stop(grace);
    }

    fn stop(&mut self, grace: Duration) {
        self.lifecycle.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + grace;
        while self.lifecycle.inflight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.lifecycle.shutdown.store(true, Ordering::Release);
        // The accept loop blocks in `accept()`; poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let grace = self.grace;
            self.stop(grace);
        }
    }
}

impl Server {
    /// Bind to `config.addr` without accepting yet.
    pub fn bind(shared: SharedDatabase, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            shared,
            max_conn: config.max_conn.max(1),
            idle_timeout: config.idle_timeout,
            grace: config.grace,
            lifecycle: Arc::new(Lifecycle::default()),
        })
    }

    /// The address this server is bound to.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections on the calling thread until shut down (via the
    /// flags a [`ServerHandle`] holds) or the listener fails.
    pub fn run(self) -> std::io::Result<()> {
        let conns = Arc::new(AtomicUsize::new(0));
        for stream in self.listener.incoming() {
            if self.lifecycle.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.lifecycle.draining.load(Ordering::Acquire) {
                refuse_connection(stream, &EngineError::Shutdown);
                continue;
            }
            if conns.load(Ordering::Acquire) >= self.max_conn {
                let gate = self.shared.admission();
                refuse_connection(
                    stream,
                    &EngineError::Overloaded {
                        running: gate.running(),
                        queued: gate.queued(),
                        max_queue: self.shared.config().max_queue,
                    },
                );
                continue;
            }
            configure(&stream, self.idle_timeout);
            conns.fetch_add(1, Ordering::AcqRel);
            let session = self.shared.session();
            let conns = Arc::clone(&conns);
            let lifecycle = Arc::clone(&self.lifecycle);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &session, &lifecycle);
                conns.fetch_sub(1, Ordering::AcqRel);
            });
        }
        Ok(())
    }

    /// Serve on a background thread, returning a handle with the bound
    /// address and a shutdown switch.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let lifecycle = Arc::clone(&self.lifecycle);
        let grace = self.grace;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            lifecycle,
            grace,
            thread: Some(thread),
        })
    }
}

/// Set up an accepted connection before serving it.
fn configure(stream: &TcpStream, idle_timeout: Option<Duration>) {
    // Timeouts cover both directions so neither a silent client nor a
    // stalled write can pin this connection's thread.
    let _ = stream.set_read_timeout(idle_timeout);
    let _ = stream.set_write_timeout(idle_timeout);
    // A reply larger than the `BufWriter` leaves in several writes and is
    // flushed once; under Nagle's algorithm its last segment would wait
    // for the ACK of the one before, which the client delays (~40 ms).
    let _ = stream.set_nodelay(true);
}

/// Answer a connection the server will not serve (over the cap, or
/// draining) with one typed error line and close it.
fn refuse_connection(stream: TcpStream, err: &EngineError) {
    let mut w = BufWriter::new(stream);
    let _ = writeln!(w, "{}", engine_err_line(err));
    let _ = w.flush();
}

/// Serve one connection: read request lines, write response lines, until
/// `QUIT`, EOF, idle timeout, shutdown, or an I/O error.
fn serve_connection(
    stream: TcpStream,
    session: &Session,
    lifecycle: &Lifecycle,
) -> std::io::Result<()> {
    // Connection threads block on socket reads for up to the idle
    // timeout; the analyzer asserts no ranked lock is ever held here
    // (session locks are scoped inside the per-request calls below).
    let _io = conquer_sync::blocking_region("server::connection-io");
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle past the socket timeout: reap with a typed line
                // instead of holding the thread.
                let _ = writeln!(
                    writer,
                    "{}",
                    engine_err_line(&EngineError::Timeout {
                        limit: Duration::ZERO,
                    })
                );
                let _ = writer.flush();
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        if lifecycle.draining.load(Ordering::Acquire) {
            // Draining: answer (don't drop the socket), then close.
            writeln!(writer, "{}", engine_err_line(&EngineError::Shutdown))?;
            writer.flush()?;
            return Ok(());
        }
        let request = match Request::parse(trimmed) {
            Ok(r) => r,
            Err(msg) => {
                writeln!(writer, "{}", err_line(PROTO_CODE, &msg))?;
                writer.flush()?;
                continue;
            }
        };
        let quit = matches!(request, Request::Quit);
        lifecycle.inflight.fetch_add(1, Ordering::AcqRel);
        let result = respond(&mut writer, session, request);
        lifecycle.inflight.fetch_sub(1, Ordering::AcqRel);
        result?;
        writer.flush()?;
        if quit {
            return Ok(());
        }
    }
}

/// Execute one parsed request and write its full response.
fn respond(w: &mut impl Write, session: &Session, request: Request) -> std::io::Result<()> {
    match request {
        Request::Sql(sql) => match session.execute(&sql) {
            Ok(SessionOutcome::Rows(r)) => write_rows(w, &r),
            Ok(SessionOutcome::Done(outcome)) => writeln!(w, "OK {}", summarize(&outcome)),
            Err(e) => writeln!(w, "{}", engine_err_line(&e)),
        },
        Request::Query(sql) => match session.query(&sql) {
            Ok(r) => write_rows(w, &r),
            Err(e) => writeln!(w, "{}", engine_err_line(&e)),
        },
        Request::Limit(arg) => match apply_limit(session, &arg) {
            Ok(summary) => writeln!(w, "OK {summary}"),
            Err(msg) => writeln!(w, "{}", err_line(PROTO_CODE, &msg)),
        },
        Request::Stats => {
            let stats = session.shared().stats();
            let gate = session.shared().admission();
            for (key, value) in [
                ("epoch", stats.epoch),
                ("result_hits", stats.result_hits),
                ("result_misses", stats.result_misses),
                ("result_entries", stats.result_entries as u64),
                ("plan_misses", stats.plan_misses),
                ("evictions", stats.evictions),
                ("admitted", stats.admitted),
                ("shed", stats.shed),
                ("wal_commits", stats.wal_commits),
                ("checkpoints", stats.checkpoints),
                ("io_errors", stats.io_errors),
                ("fsync_failures", stats.fsync_failures),
                ("scrub_runs", stats.scrub_runs),
                ("corrupt_frames", stats.corrupt_frames),
                ("degraded", stats.degraded as u64),
                ("running", gate.running() as u64),
                ("queued", gate.queued() as u64),
                ("views", stats.views as u64),
                ("view_rows", stats.view_rows as u64),
                ("view_deltas_applied", stats.view_deltas_applied),
                ("view_refreshes", stats.view_refreshes),
            ] {
                writeln!(w, "STAT {key} {value}")?;
            }
            for v in session.shared().snapshot().db().view_stats() {
                writeln!(w, "STAT view.{}.rows {}", v.name, v.rows)?;
                writeln!(
                    w,
                    "STAT view.{}.deltas_applied {}",
                    v.name, v.deltas_applied
                )?;
                writeln!(w, "STAT view.{}.refreshes {}", v.name, v.refreshes)?;
            }
            writeln!(w, "OK stats")
        }
        Request::Epoch => writeln!(w, "OK {}", session.shared().epoch()),
        Request::Checkpoint => match session.shared().checkpoint() {
            Ok(Some(info)) => writeln!(
                w,
                "OK checkpoint epoch {} folded {} bytes",
                info.epoch, info.wal_bytes_folded
            ),
            Ok(None) => writeln!(w, "OK checkpoint noop (in-memory database)"),
            Err(e) => writeln!(w, "{}", engine_err_line(&e)),
        },
        Request::Scrub => match session.shared().scrub() {
            Ok(Some(report)) => {
                writeln!(w, "STAT clean {}", report.clean)?;
                writeln!(w, "STAT corrupt {}", report.corrupt)?;
                writeln!(w, "STAT quarantined {}", report.quarantined)?;
                writeln!(w, "STAT wal_corrupt_frames {}", report.wal_corrupt_frames)?;
                writeln!(w, "STAT issues {}", report.issues.len())?;
                // Issue text goes in the OK summary (STAT values are
                // numeric on the wire); one line keeps it parseable.
                if report.is_clean() {
                    writeln!(w, "OK scrub clean")
                } else {
                    let first = report.issues.first().map_or("", String::as_str);
                    writeln!(
                        w,
                        "OK scrub found corruption ({}); writes refused until a checkpoint repairs it",
                        escape(first)
                    )
                }
            }
            Ok(None) => writeln!(w, "OK scrub noop (in-memory database)"),
            Err(e) => writeln!(w, "{}", engine_err_line(&e)),
        },
        Request::Ping => writeln!(w, "OK pong"),
        Request::Quit => writeln!(w, "OK bye"),
    }
}

/// Write a row set, each line built in one buffer reused for the whole
/// reply and handed to the writer whole.
fn write_rows(w: &mut impl Write, r: &SessionResult) -> std::io::Result<()> {
    let (columns, rows) = (&r.result.columns, &r.result.rows);
    let mut line = String::new();
    // Writing into a `String` never fails.
    let _ = write!(line, "COLS {} ", columns.len());
    for (i, name) in columns.iter().enumerate() {
        if i > 0 {
            line.push('\t');
        }
        push_escaped(&mut line, name);
    }
    line.push('\n');
    w.write_all(line.as_bytes())?;
    for row in rows {
        line.clear();
        line.push_str("ROW ");
        push_row(&mut line, row);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    writeln!(w, "END {} {} {}", rows.len(), r.source.as_str(), r.epoch)
}

fn summarize(outcome: &ExecOutcome) -> String {
    match outcome {
        ExecOutcome::Created => "created".to_string(),
        ExecOutcome::Inserted(n) => format!("inserted {n}"),
        ExecOutcome::Dropped => "dropped".to_string(),
        ExecOutcome::Deleted(n) => format!("deleted {n}"),
        ExecOutcome::Updated(n) => format!("updated {n}"),
        ExecOutcome::Rows(r) => format!("rows {}", r.len()),
        ExecOutcome::CreatedView(n) => format!("created view ({n} groups)"),
        ExecOutcome::DroppedView => "dropped view".to_string(),
        ExecOutcome::RefreshedView(n) => format!("refreshed view ({n} groups)"),
        ExecOutcome::Reclustered(n) => format!("reclustered {n}"),
        ExecOutcome::Reannotated(n) => format!("reannotated {n}"),
        ExecOutcome::CrossrefApplied(n) => format!("crossref applied ({n} clusters)"),
    }
}

/// The limits a `LIMIT` request can set, as its error messages name them.
const LIMIT_TARGETS: &str = "mem <bytes> | disk <bytes> | time <ms> | off";

/// Apply a `LIMIT` request to the session. Empty argument = show current
/// limits; `off` clears them; `mem|disk <bytes>` or `time <ms>` set one
/// budget.
fn apply_limit(session: &Session, arg: &str) -> Result<String, String> {
    let arg = arg.trim();
    if arg.is_empty() {
        return Ok(describe_limits(&session.limits()));
    }
    if arg.eq_ignore_ascii_case("off") {
        session.set_limits(ExecLimits::none());
        return Ok(describe_limits(&ExecLimits::none()));
    }
    let (what, value) = arg
        .split_once(' ')
        .ok_or_else(|| format!("LIMIT expects {LIMIT_TARGETS}, got {arg:?}"))?;
    let n: u64 = value
        .trim()
        .parse()
        .map_err(|_| format!("LIMIT value must be a non-negative integer, got {value:?}"))?;
    let mut limits = session.limits();
    match what.to_ascii_lowercase().as_str() {
        "mem" => limits.mem_bytes = Some(n),
        "disk" => limits.disk_bytes = Some(n),
        "time" => limits.timeout = Some(Duration::from_millis(n)),
        other => {
            return Err(format!(
                "unknown LIMIT target {other:?}; valid limits: {LIMIT_TARGETS}"
            ))
        }
    }
    session.set_limits(limits);
    Ok(describe_limits(&limits))
}

fn describe_limits(limits: &ExecLimits) -> String {
    let opt = |v: Option<u64>| v.map_or("off".to_string(), |n| n.to_string());
    format!(
        "mem={} disk={} time_ms={}",
        opt(limits.mem_bytes),
        opt(limits.disk_bytes),
        opt(limits.timeout.map(|t| t.as_millis() as u64)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_parses_and_describes() {
        let shared = SharedDatabase::new(conquer_engine::Database::new());
        let session = shared.session();
        // `Database::new` reads CONQUER_MEM_BUDGET (a CI job sets it);
        // start from no limits whatever the environment.
        session.set_limits(ExecLimits::none());
        assert_eq!(
            apply_limit(&session, "").unwrap(),
            "mem=off disk=off time_ms=off"
        );
        apply_limit(&session, "mem 1024").unwrap();
        apply_limit(&session, "time 250").unwrap();
        let shown = apply_limit(&session, "").unwrap();
        assert_eq!(shown, "mem=1024 disk=off time_ms=250");
        assert_eq!(session.limits().timeout, Some(Duration::from_millis(250)));
        apply_limit(&session, "off").unwrap();
        assert!(session.limits().is_unlimited());
        assert!(apply_limit(&session, "mem lots").is_err());
        assert!(apply_limit(&session, "bogus 1").is_err());
        // The per-query thread count is gone; an old client is told so.
        let err = apply_limit(&session, "threads 4").unwrap_err();
        assert!(
            err.contains("mem <bytes> | disk <bytes> | time <ms> | off"),
            "{err}"
        );
        assert_eq!(session.limits(), ExecLimits::none());
    }

    #[test]
    fn accepted_sockets_have_no_delay_and_carry_the_idle_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let idle = Some(Duration::from_secs(7));
        configure(&stream, idle);
        assert!(stream.nodelay().unwrap());
        assert_eq!(stream.read_timeout().unwrap(), idle);
        assert_eq!(stream.write_timeout().unwrap(), idle);
    }

    #[test]
    fn exec_outcomes_summarize() {
        assert_eq!(summarize(&ExecOutcome::Inserted(3)), "inserted 3");
        assert_eq!(summarize(&ExecOutcome::Created), "created");
    }
}
