//! The ConQuer wire protocol: line-oriented, UTF-8, human-debuggable with
//! `nc`.
//!
//! # Requests
//!
//! One request per line (`\n`-terminated; a trailing `\r` is tolerated).
//! The verb is case-insensitive; everything after the first space is the
//! verb's argument, uninterpreted:
//!
//! ```text
//! SQL <statement>        auto-routed: queries read-share, commands take the write lock
//! QUERY <select>         must be a SELECT/EXPLAIN (errors on DDL/DML)
//! EXEC <statement>       the same as SQL
//! LIMIT                  show this session's resource limits
//! LIMIT mem <bytes> | disk <bytes> | time <ms> | off
//! STATS                  shared cache/admission counters
//! EPOCH                  current catalog epoch
//! CHECKPOINT             compact the WAL into a fresh base (durable servers)
//! SCRUB                  checksum-sweep the persistence directory (durable servers)
//! PING                   liveness check
//! QUIT                   close the connection
//! ```
//!
//! # Responses
//!
//! Row-producing requests answer with a header, zero or more rows, and a
//! trailer; everything else answers with a single `OK` line. All payload
//! fields are [escaped](escape) so a response line never contains a raw
//! tab or newline:
//!
//! ```text
//! COLS <ncols> <name>\t<name>...
//! ROW <value>\t<value>...
//! END <nrows> <source> <epoch>      source: fresh | result-cache
//! OK <summary>
//! STAT <key> <value>                (STATS emits one per counter, then OK)
//! ERR <KIND> <message>              KIND: a stable ErrorKind code or PROTO
//! ```
//!
//! The `<source>` field in `END` is how clients observe cache behavior
//! (`result-cache` answers skipped parsing and execution entirely;
//! `fresh` ones were prepared and run); `<epoch>` identifies the catalog
//! snapshot the answer is valid for. Error kinds are the
//! [`ErrorKind::as_str`] spellings — stable, so clients dispatch on them
//! instead of matching message text; `PROTO` (not an engine kind) marks
//! malformed requests.

use std::fmt::{self, Write as _};

use conquer_engine::ErrorKind;
use conquer_storage::Value;

/// Wire code for protocol (framing) errors, distinct from every
/// [`ErrorKind`] code.
pub const PROTO_CODE: &str = "PROTO";

/// Escape a payload field for single-line transport: `\` → `\\`, TAB →
/// `\t`, LF → `\n`, CR → `\r`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Append `s` to `out` [escaped](escape): a text with nothing to escape
/// in one `push_str`, otherwise the runs between its escapes.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        // The four escaped bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        out.push_str(escaped);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// A [`fmt::Write`] that [escapes](escape) what is written through it into
/// a `String`, so a `Display` renders straight into a wire line.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// Append one result row to `out` as the `ROW` payload [`encode_row`]
/// returns, with no `String` per cell.
pub(crate) fn push_row(out: &mut String, row: &[Value]) {
    for (i, value) in row.iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        match value {
            // A text's `Display` is the text itself.
            Value::Text(s) => push_escaped(out, s),
            // Writing into a `String` never fails.
            other => {
                let _ = write!(Escaping(out), "{other}");
            }
        }
    }
}

/// Invert [`escape`]. Errors on a dangling or unknown escape sequence. A
/// field with no `\` is copied once, without the escape loop.
pub fn unescape(s: &str) -> Result<String, String> {
    if !s.contains('\\') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape sequence \\{other}")),
            None => return Err("dangling backslash".to_string()),
        }
    }
    Ok(out)
}

/// Render one result row as the tab-separated, escaped `ROW` payload: each
/// cell's `Value` `Display` rendering, [escaped](escape), joined by TABs.
/// `Value` rendering is deterministic (floats print in shortest
/// round-trip form), so identical rows always encode to identical bytes.
/// The server appends the same bytes to one reused line buffer per reply.
pub fn encode_row(row: &[Value]) -> String {
    let mut out = String::new();
    push_row(&mut out, row);
    out
}

/// Split an escaped tab-separated payload back into fields. A payload has
/// at least one field — an empty one is a single empty string, as a
/// one-column row holding `''` encodes — since every result has a column.
pub fn decode_fields(payload: &str) -> Result<Vec<String>, String> {
    payload.split('\t').map(unescape).collect()
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `SQL <statement>` or `EXEC <statement>` — auto-routed.
    Sql(String),
    /// `QUERY <select>` — read-only.
    Query(String),
    /// `LIMIT [<what> <n> | off]` — the raw argument (possibly empty).
    Limit(String),
    /// `STATS`.
    Stats,
    /// `EPOCH`.
    Epoch,
    /// `CHECKPOINT`.
    Checkpoint,
    /// `SCRUB`.
    Scrub,
    /// `PING`.
    Ping,
    /// `QUIT`.
    Quit,
}

impl Request {
    /// Parse one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.strip_suffix('\r').unwrap_or(line);
        let (verb, arg) = match line.split_once(' ') {
            Some((v, a)) => (v, a.trim()),
            None => (line.trim(), ""),
        };
        let need = |name: &str| -> Result<String, String> {
            if arg.is_empty() {
                Err(format!("{name} requires an argument"))
            } else {
                Ok(arg.to_string())
            }
        };
        match verb.to_ascii_uppercase().as_str() {
            verb @ ("SQL" | "EXEC") => Ok(Request::Sql(need(verb)?)),
            "QUERY" => Ok(Request::Query(need("QUERY")?)),
            "LIMIT" => Ok(Request::Limit(arg.to_string())),
            "STATS" => Ok(Request::Stats),
            "EPOCH" => Ok(Request::Epoch),
            "CHECKPOINT" => Ok(Request::Checkpoint),
            "SCRUB" => Ok(Request::Scrub),
            "PING" => Ok(Request::Ping),
            "QUIT" => Ok(Request::Quit),
            "" => Err("empty request".to_string()),
            other => Err(format!("unknown verb {other:?}")),
        }
    }
}

/// Format an `ERR` line from a stable kind code and message.
pub fn err_line(code: &str, message: &str) -> String {
    format!("ERR {code} {}", escape(message))
}

/// Format the `ERR` line for an engine error using its [`ErrorKind`].
pub fn engine_err_line(e: &conquer_engine::EngineError) -> String {
    err_line(e.kind().as_str(), &e.to_string())
}

/// Parse the code of an `ERR` line into an [`ErrorKind`], when it is one.
pub fn parse_err_kind(code: &str) -> Option<ErrorKind> {
    code.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_adversarial_text() {
        for s in [
            "",
            "plain",
            "tab\there",
            "nl\nhere",
            "cr\rhere",
            "back\\slash",
            "\\t not a tab",
            "mix\t\n\r\\\\t end",
        ] {
            let escaped = escape(s);
            assert!(!escaped.contains('\n') && !escaped.contains('\t'));
            assert_eq!(unescape(&escaped).unwrap(), s);
        }
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\x").is_err());
    }

    #[test]
    fn rows_encode_deterministically() {
        let row = vec![
            Value::Int(1),
            Value::Float(0.1 + 0.2),
            Value::text("a\tb"),
            Value::Null,
        ];
        let enc = encode_row(&row);
        assert_eq!(enc, encode_row(&row));
        let fields = decode_fields(&enc).unwrap();
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[2], "a\tb");
        // Shortest round-trip float rendering: parsing back is bit-exact.
        assert_eq!(fields[1].parse::<f64>().unwrap(), 0.1 + 0.2);
        // A one-column row holding '' is one empty field, not no fields.
        let empty = encode_row(&[Value::text("")]);
        assert_eq!(decode_fields(&empty).unwrap(), vec![String::new()]);
    }

    #[test]
    fn requests_parse() {
        assert_eq!(
            Request::parse("SQL SELECT 1 FROM t").unwrap(),
            Request::Sql("SELECT 1 FROM t".into())
        );
        assert_eq!(
            Request::parse("exec DROP TABLE t").unwrap(),
            Request::Sql("DROP TABLE t".into())
        );
        assert!(Request::parse("EXEC").is_err());
        assert_eq!(
            Request::parse("query select a from t\r").unwrap(),
            Request::Query("select a from t".into())
        );
        assert_eq!(Request::parse("LIMIT").unwrap(), Request::Limit("".into()));
        assert_eq!(
            Request::parse("LIMIT mem 1024").unwrap(),
            Request::Limit("mem 1024".into())
        );
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(Request::parse("scrub").unwrap(), Request::Scrub);
        assert!(Request::parse("QUERY").is_err());
        assert!(Request::parse("BOGUS x").is_err());
        assert!(Request::parse("").is_err());
    }

    #[test]
    fn err_lines_carry_stable_kinds() {
        let e = conquer_engine::EngineError::Cancelled;
        let line = engine_err_line(&e);
        assert!(line.starts_with("ERR CANCELLED "), "{line}");
        assert_eq!(parse_err_kind("CANCELLED"), Some(ErrorKind::Cancelled));
        assert_eq!(parse_err_kind(PROTO_CODE), None);
    }
}
