//! A blocking client for the [wire protocol](crate::proto): connects over
//! TCP, sends one request line at a time, and parses the response into
//! typed values. Used by the CLI's `--connect` mode, the concurrency
//! bench, and the smoke tests.
//!
//! Clients built through [`Client::builder`] transparently retry requests
//! the server *answered* with a retryable error
//! ([`ErrorKind::is_retryable`]: `OVERLOADED`, `TIMEOUT`, `CANCELLED`) —
//! the answer proves the statement never executed, so resending is safe
//! even for writes. Each retry reconnects (a shed connection is closed
//! server-side after its error line) and backs off exponentially with
//! jitter, up to [`RetryPolicy::max_attempts`]. Transport errors are
//! *not* retried: without a response there is no proof the request
//! didn't execute.

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use conquer_engine::ErrorKind;

use crate::proto::{decode_fields, escape, unescape};

/// A server-reported error (an `ERR` line), carrying the stable kind code
/// so callers dispatch on [`ClientError::kind`] instead of message text.
#[derive(Debug, Clone)]
pub struct ServerError {
    /// The wire code, verbatim (an [`ErrorKind`] spelling or `PROTO`).
    pub code: String,
    /// The human-readable message.
    pub message: String,
}

/// Everything that can go wrong on the client side of a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with an `ERR` line.
    Server(ServerError),
    /// The server answered with something the client cannot parse.
    Proto(String),
}

impl ClientError {
    /// The engine [`ErrorKind`] of a server-reported error, when the code
    /// is one ( `PROTO` and transport errors return `None`).
    pub fn kind(&self) -> Option<ErrorKind> {
        match self {
            ClientError::Server(e) => e.code.parse().ok(),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server(e) => write!(f, "server error [{}]: {}", e.code, e.message),
            ClientError::Proto(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A row set (`COLS`/`ROW`.../`END`).
    Rows(Rows),
    /// A single `OK <summary>` line.
    Ok(String),
    /// `STAT` lines folded into key/value pairs (from `STATS`).
    Stats(Vec<(String, u64)>),
}

/// A decoded row set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    /// Column names.
    pub columns: Vec<String>,
    /// Row values as decoded strings (the wire's canonical rendering, so
    /// comparing two `Rows` compares answers byte-for-byte).
    pub rows: Vec<Vec<String>>,
    /// Which layer answered: `fresh` or `result-cache`.
    pub source: String,
    /// The catalog epoch the answer is valid for.
    pub epoch: u64,
}

/// Automatic-retry policy for errors the server answered with a
/// [retryable](ErrorKind::is_retryable) kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "never retry").
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Cap on the per-retry backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based): capped
    /// exponential, scaled by a jitter factor in `[0.5, 1.0]` so a
    /// thundering herd of shed clients decorrelates.
    fn delay(&self, retry: u32, jitter: f64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16));
        exp.min(self.max_delay).mul_f64(0.5 + 0.5 * jitter)
    }
}

/// A cheap std-only jitter source in `[0.0, 1.0)`: a SplitMix64 step over
/// a clock-derived seed. Not statistically strong — it only needs to
/// decorrelate concurrent retry loops.
fn jitter01(salt: u64) -> f64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    let mut z = nanos ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Builder for a [`Client`] with reconnect-and-retry behavior. Created by
/// [`Client::builder`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    retry: Option<RetryPolicy>,
    read_timeout: Option<Duration>,
}

impl ClientBuilder {
    /// Use an explicit retry policy (the default is
    /// [`RetryPolicy::default`]).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Opt out of automatic retries: every server error surfaces to the
    /// caller on the first answer.
    pub fn no_retry(mut self) -> Self {
        self.retry = None;
        self
    }

    /// Set the socket read timeout applied to every (re)connection.
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Connect.
    pub fn connect(self) -> Result<Client, ClientError> {
        let mut client = Client::connect(&self.addr)?;
        client.reconnect_addr = Some(self.addr);
        client.retry = self.retry;
        client.read_timeout = self.read_timeout;
        client.set_read_timeout(self.read_timeout)?;
        Ok(client)
    }
}

/// A blocking connection to a ConQuer server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Every response line is read into this one buffer.
    line: String,
    /// Address to reconnect to on retry; only builder-made clients have
    /// one (plain [`Client::connect`] takes `impl ToSocketAddrs`, which
    /// cannot be stored).
    reconnect_addr: Option<String>,
    retry: Option<RetryPolicy>,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connect to `addr` with no automatic retries (see
    /// [`Client::builder`] for the retrying variant).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let (reader, writer) = open(addr, None)?;
        Ok(Client {
            reader,
            writer,
            line: String::new(),
            reconnect_addr: None,
            retry: None,
            read_timeout: None,
        })
    }

    /// A client that reconnects and retries requests shed with a
    /// [retryable](ErrorKind::is_retryable) error, with capped
    /// exponential backoff and jitter. Opt out with
    /// [`ClientBuilder::no_retry`].
    pub fn builder(addr: impl Into<String>) -> ClientBuilder {
        ClientBuilder {
            addr: addr.into(),
            retry: Some(RetryPolicy::default()),
            read_timeout: None,
        }
    }

    /// Set (or clear) the read timeout, so a hung server surfaces as an
    /// I/O error instead of blocking forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.read_timeout = timeout;
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Send one raw request line and parse the response, retrying (per
    /// the builder's [`RetryPolicy`]) when the server answers with a
    /// retryable error.
    pub fn request(&mut self, line: &str) -> Result<Response, ClientError> {
        let Some(policy) = self.retry else {
            return self.request_once(line);
        };
        let mut attempt = 1;
        loop {
            let err = match self.request_once(line) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            let retryable = err.kind().is_some_and(|k| k.is_retryable());
            if !retryable || attempt >= policy.max_attempts.max(1) {
                return Err(err);
            }
            std::thread::sleep(policy.delay(attempt, jitter01(attempt as u64)));
            // The server closes shed connections after the error line;
            // reconnect before resending. A still-healthy connection is
            // replaced harmlessly.
            self.reconnect()?;
            attempt += 1;
        }
    }

    fn reconnect(&mut self) -> Result<(), ClientError> {
        let addr = self.reconnect_addr.as_deref().ok_or_else(|| {
            ClientError::Proto("cannot reconnect: client was not built with an address".into())
        })?;
        (self.reader, self.writer) = open(addr, self.read_timeout)?;
        Ok(())
    }

    /// One request/response exchange, no retries.
    fn request_once(&mut self, line: &str) -> Result<Response, ClientError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `SQL <sql>` — auto-routed; queries return [`Response::Rows`],
    /// commands [`Response::Ok`].
    pub fn sql(&mut self, sql: &str) -> Result<Response, ClientError> {
        self.request(&format!("SQL {}", sanitize(sql)))
    }

    /// `QUERY <sql>` — read-only; always rows on success.
    pub fn query(&mut self, sql: &str) -> Result<Rows, ClientError> {
        match self.request(&format!("QUERY {}", sanitize(sql)))? {
            Response::Rows(rows) => Ok(rows),
            other => Err(ClientError::Proto(format!(
                "QUERY answered without rows: {other:?}"
            ))),
        }
    }

    /// `EXEC <sql>` — any statement.
    pub fn exec(&mut self, sql: &str) -> Result<Response, ClientError> {
        self.request(&format!("EXEC {}", sanitize(sql)))
    }

    /// `STATS` — the server's cache/admission counters.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.request("STATS")? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Proto(format!(
                "STATS answered unexpectedly: {other:?}"
            ))),
        }
    }

    /// `EPOCH` — the server's current catalog epoch.
    pub fn epoch(&mut self) -> Result<u64, ClientError> {
        match self.request("EPOCH")? {
            Response::Ok(s) => s
                .parse()
                .map_err(|_| ClientError::Proto(format!("EPOCH answered {s:?}"))),
            other => Err(ClientError::Proto(format!(
                "EPOCH answered unexpectedly: {other:?}"
            ))),
        }
    }

    /// `PING` — liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request("PING").map(|_| ())
    }

    /// `QUIT` — tell the server to close this connection.
    pub fn quit(&mut self) -> Result<(), ClientError> {
        self.request("QUIT").map(|_| ())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut stats = Vec::new();
        loop {
            let line = next_line(&mut self.reader, &mut self.line)?;
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "OK" => {
                    return Ok(if stats.is_empty() {
                        Response::Ok(rest.to_string())
                    } else {
                        Response::Stats(stats)
                    });
                }
                "ERR" => return Err(parse_err(rest)),
                "STAT" => {
                    let (key, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| ClientError::Proto(format!("bad STAT line: {line:?}")))?;
                    let value = value
                        .parse()
                        .map_err(|_| ClientError::Proto(format!("bad STAT value: {line:?}")))?;
                    stats.push((key.to_string(), value));
                }
                "COLS" => {
                    let columns = decode_cols(rest)?;
                    return self.read_rows(columns);
                }
                other => {
                    return Err(ClientError::Proto(format!(
                        "unexpected response line tag {other:?}"
                    )))
                }
            }
        }
    }

    fn read_rows(&mut self, columns: Vec<String>) -> Result<Response, ClientError> {
        let mut rows = Vec::new();
        loop {
            let line = next_line(&mut self.reader, &mut self.line)?;
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "ROW" => rows.push(decode_fields(rest).map_err(ClientError::Proto)?),
                "END" => {
                    let mut parts = rest.split(' ');
                    let nrows: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ClientError::Proto(format!("bad END line: {line:?}")))?;
                    let source = parts
                        .next()
                        .ok_or_else(|| ClientError::Proto(format!("bad END line: {line:?}")))?
                        .to_string();
                    let epoch: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ClientError::Proto(format!("bad END line: {line:?}")))?;
                    if nrows != rows.len() {
                        return Err(ClientError::Proto(format!(
                            "END announced {nrows} rows but {} arrived",
                            rows.len()
                        )));
                    }
                    return Ok(Response::Rows(Rows {
                        columns,
                        rows,
                        source,
                        epoch,
                    }));
                }
                "ERR" => return Err(parse_err(rest)),
                other => {
                    return Err(ClientError::Proto(format!(
                        "unexpected line tag {other:?} inside a row set"
                    )))
                }
            }
        }
    }
}

/// Connect with no Nagle delay, so a request leaves as soon as it is
/// flushed, and with `read_timeout` on reads.
fn open(
    addr: impl ToSocketAddrs,
    read_timeout: Option<Duration>,
) -> std::io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    Ok((BufReader::new(stream.try_clone()?), BufWriter::new(stream)))
}

/// Read one response line into `buf`, reused across lines, and return it
/// without its line terminator.
fn next_line<'a>(
    reader: &mut BufReader<TcpStream>,
    buf: &'a mut String,
) -> Result<&'a str, ClientError> {
    buf.clear();
    if reader.read_line(buf)? == 0 {
        return Err(ClientError::Proto(
            "server closed the connection mid-response".to_string(),
        ));
    }
    Ok(buf.trim_end_matches(['\n', '\r']))
}

/// Decode a `COLS` payload (`<ncols> <names>`) into its column names.
fn decode_cols(payload: &str) -> Result<Vec<String>, ClientError> {
    let (ncols, names) = payload.split_once(' ').unwrap_or((payload, ""));
    let ncols: usize = ncols
        .parse()
        .map_err(|_| ClientError::Proto(format!("bad COLS count: {payload:?}")))?;
    let columns = decode_fields(names).map_err(ClientError::Proto)?;
    if columns.len() != ncols {
        return Err(ClientError::Proto(format!(
            "COLS announced {ncols} columns but named {}",
            columns.len()
        )));
    }
    Ok(columns)
}

/// Requests are single lines; fold any embedded newlines in user SQL into
/// spaces (SQL is whitespace-insensitive) so multi-line statements from
/// scripts still travel.
fn sanitize(sql: &str) -> String {
    if sql.contains(['\n', '\r']) {
        sql.replace(['\n', '\r'], " ")
    } else {
        sql.to_string()
    }
}

fn parse_err(payload: &str) -> ClientError {
    let (code, message) = payload.split_once(' ').unwrap_or((payload, ""));
    ClientError::Server(ServerError {
        code: code.to_string(),
        message: unescape(message).unwrap_or_else(|_| message.to_string()),
    })
}

/// Render a row set back into canonical wire form (one string per row,
/// escaped and tab-separated). Two answers are byte-identical iff their
/// wire forms are equal — this is what the smoke test and bench compare.
pub fn wire_form(rows: &Rows) -> Vec<String> {
    rows.rows
        .iter()
        .map(|row| row.iter().map(|v| escape(v)).collect::<Vec<_>>().join("\t"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_error_kinds_parse() {
        let err = parse_err("OVERLOADED server overloaded: 4 queries running");
        match &err {
            ClientError::Server(e) => {
                assert_eq!(e.code, "OVERLOADED");
                assert!(e.message.starts_with("server overloaded"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(err.kind(), Some(ErrorKind::Overloaded));
        assert_eq!(parse_err("PROTO bad verb").kind(), None);
    }

    #[test]
    fn connected_and_reconnected_sockets_have_no_delay() {
        // The kernel completes a connect into the listener's backlog, so
        // nothing needs to accept.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let no_delay = |c: &Client| {
            c.reader.get_ref().nodelay().unwrap() && c.writer.get_ref().nodelay().unwrap()
        };
        assert!(no_delay(&Client::connect(addr).unwrap()));

        let mut client = Client::builder(addr.to_string()).connect().unwrap();
        let first = client.writer.get_ref().local_addr().unwrap();
        client.reconnect().unwrap();
        assert_ne!(client.writer.get_ref().local_addr().unwrap(), first);
        assert!(no_delay(&client));
    }

    #[test]
    fn sanitize_folds_newlines() {
        assert_eq!(sanitize("SELECT 1"), "SELECT 1");
        assert_eq!(sanitize("SELECT\n  1\r\n"), "SELECT   1  ");
    }

    #[test]
    fn retry_backoff_is_capped_exponential_with_bounded_jitter() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
        };
        // Full jitter factor: exact exponential, then the cap.
        assert_eq!(p.delay(1, 1.0), Duration::from_millis(10));
        assert_eq!(p.delay(2, 1.0), Duration::from_millis(20));
        assert_eq!(p.delay(3, 1.0), Duration::from_millis(40));
        assert_eq!(p.delay(5, 1.0), Duration::from_millis(100), "capped");
        assert_eq!(p.delay(30, 1.0), Duration::from_millis(100), "no overflow");
        // Minimum jitter halves the delay, never zeroes it.
        assert_eq!(p.delay(1, 0.0), Duration::from_millis(5));
        for salt in 0..64 {
            let j = jitter01(salt);
            assert!((0.0..1.0).contains(&j), "{j}");
        }
    }
}
