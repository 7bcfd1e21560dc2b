//! Engine errors.

use std::fmt;
use std::time::Duration;

use conquer_sql::ParseError;
use conquer_storage::StorageError;

/// Errors raised anywhere in the parse→bind→plan→execute pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// SQL text failed to parse.
    Parse(ParseError),
    /// Storage-layer failure (missing table, type mismatch on insert, …).
    Storage(StorageError),
    /// Name-resolution or semantic analysis failure.
    Bind(String),
    /// Runtime evaluation failure (division by zero, overflow, bad types).
    Exec(String),
    /// The query ran out of budgeted resources: it tried to materialize
    /// more state (hash tables, sort buffers, result rows) than its memory
    /// budget allows and could not (or was not allowed to) spill the
    /// excess to disk — either spilling is disabled, the operator has no
    /// external-memory strategy, or the spill-disk budget is exhausted
    /// too.
    ResourceExhausted {
        /// The budget that was exceeded (memory or spill-disk), in bytes.
        limit_bytes: u64,
        /// Bytes the query would have held after the rejected charge.
        attempted_bytes: u64,
    },
    /// The query ran past its configured wall-clock deadline.
    Timeout {
        /// The configured time limit.
        limit: Duration,
    },
    /// The query was cancelled through its
    /// [`CancelToken`](crate::context::CancelToken).
    Cancelled,
    /// The query was rejected by admission control: the shared database's
    /// concurrency slots were all busy and its bounded wait queue was full
    /// (see [`AdmissionGate`](crate::shared::AdmissionGate)). The request
    /// was shed *before* consuming execution resources; retrying later is
    /// safe.
    Overloaded {
        /// Queries running when the request was rejected.
        running: usize,
        /// Requests already waiting in the admission queue.
        queued: usize,
        /// The queue's capacity.
        max_queue: usize,
    },
    /// The server is draining for shutdown: the request was answered but
    /// not executed. Not retryable against the same server.
    Shutdown,
    /// An internal invariant was violated (malformed plan or operator
    /// state). Never caused by user input alone; indicates an engine bug,
    /// but surfaces as an error instead of a panic so a bad plan cannot
    /// take the process down.
    Internal(String),
    /// `CREATE MATERIALIZED VIEW` was given a query outside the
    /// delta-maintainable class (GROUP BY keys + one SUM, the shape every
    /// Definition-7 rewriting has). The message names the first offending
    /// construct. Classified as
    /// [`ErrorKind::NotRewritable`] — the same boundary, seen from the
    /// maintenance side.
    NotMaintainable(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::Bind(m) => write!(f, "binding error: {m}"),
            EngineError::Exec(m) => write!(f, "execution error: {m}"),
            EngineError::ResourceExhausted {
                limit_bytes,
                attempted_bytes,
            } => write!(
                f,
                "query exhausted its resource budget: needed {attempted_bytes} bytes \
                 of materialized or spilled state, limit is {limit_bytes} bytes"
            ),
            EngineError::Timeout { limit } => {
                write!(f, "query exceeded its time limit of {limit:?}")
            }
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::Overloaded {
                running,
                queued,
                max_queue,
            } => write!(
                f,
                "server overloaded: {running} queries running and {queued}/{max_queue} \
                 admission-queue slots taken; retry later"
            ),
            EngineError::Shutdown => {
                write!(f, "server is shutting down and no longer accepts requests")
            }
            EngineError::Internal(m) => write!(f, "internal engine error: {m}"),
            EngineError::NotMaintainable(m) => {
                write!(f, "view is not delta-maintainable: {m}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// Stable, coarse-grained classification of every error the workspace can
/// produce, for programmatic dispatch — servers map kinds to wire codes,
/// clients map wire codes back, retry policies branch on them — without
/// string matching on `Display` output.
///
/// The enum is `#[non_exhaustive]`: new kinds may appear in later versions,
/// so downstream `match`es need a `_` arm. The [`ErrorKind::as_str`] names
/// are a stable wire-format commitment (SCREAMING_SNAKE_CASE, round-trips
/// through `ErrorKind::from_str`).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// SQL text failed to parse.
    Parse,
    /// Name resolution or semantic analysis failed.
    Bind,
    /// Runtime evaluation failed (division by zero, bad types, …).
    Exec,
    /// Schema-level storage failure (missing table/column, type mismatch).
    Schema,
    /// Persisted state failed integrity verification (checksums,
    /// truncation, missing manifests).
    Corrupt,
    /// Underlying I/O failure.
    Io,
    /// The durable store is degraded (a scrub found corruption, or an
    /// epoch had to be recovered by fallback): reads still work, writes
    /// are refused until a checkpoint repairs the directory or a clean
    /// scrub clears the flag. Not retryable — retrying cannot repair.
    Degraded,
    /// A memory or spill-disk budget was exhausted.
    ResourceExhausted,
    /// A wall-clock deadline was exceeded.
    Timeout,
    /// The request was cancelled.
    Cancelled,
    /// Admission control shed the request before execution; safe to retry.
    Overloaded,
    /// The server is draining for shutdown and no longer accepts new
    /// requests. Not retryable against the same server — reconnect
    /// elsewhere or give up.
    Shutdown,
    /// The query is outside the rewritable class (Definition 7).
    NotRewritable,
    /// The dirty database violates Definition 2 or naive enumeration
    /// limits.
    InvalidDirty,
    /// An internal invariant was violated — an engine bug, not user error.
    Internal,
}

impl ErrorKind {
    /// The stable wire-code spelling of this kind (e.g.
    /// `"RESOURCE_EXHAUSTED"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Parse => "PARSE",
            ErrorKind::Bind => "BIND",
            ErrorKind::Exec => "EXEC",
            ErrorKind::Schema => "SCHEMA",
            ErrorKind::Corrupt => "CORRUPT",
            ErrorKind::Io => "IO",
            ErrorKind::Degraded => "DEGRADED",
            ErrorKind::ResourceExhausted => "RESOURCE_EXHAUSTED",
            ErrorKind::Timeout => "TIMEOUT",
            ErrorKind::Cancelled => "CANCELLED",
            ErrorKind::Overloaded => "OVERLOADED",
            ErrorKind::Shutdown => "SHUTDOWN",
            ErrorKind::NotRewritable => "NOT_REWRITABLE",
            ErrorKind::InvalidDirty => "INVALID_DIRTY",
            ErrorKind::Internal => "INTERNAL",
        }
    }

    /// True for the load-management kinds a client may transparently retry
    /// ([`Overloaded`](ErrorKind::Overloaded),
    /// [`Timeout`](ErrorKind::Timeout),
    /// [`Cancelled`](ErrorKind::Cancelled)): the statement itself was fine,
    /// policy aborted it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ErrorKind::Overloaded | ErrorKind::Timeout | ErrorKind::Cancelled
        )
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ErrorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "PARSE" => ErrorKind::Parse,
            "BIND" => ErrorKind::Bind,
            "EXEC" => ErrorKind::Exec,
            "SCHEMA" => ErrorKind::Schema,
            "CORRUPT" => ErrorKind::Corrupt,
            "IO" => ErrorKind::Io,
            "DEGRADED" => ErrorKind::Degraded,
            "RESOURCE_EXHAUSTED" => ErrorKind::ResourceExhausted,
            "TIMEOUT" => ErrorKind::Timeout,
            "CANCELLED" => ErrorKind::Cancelled,
            "OVERLOADED" => ErrorKind::Overloaded,
            "SHUTDOWN" => ErrorKind::Shutdown,
            "NOT_REWRITABLE" => ErrorKind::NotRewritable,
            "INVALID_DIRTY" => ErrorKind::InvalidDirty,
            "INTERNAL" => ErrorKind::Internal,
            other => return Err(format!("unknown error kind {other:?}")),
        })
    }
}

/// The [`ErrorKind`] of a storage error (shared by the engine and facade
/// `kind()` implementations).
pub fn storage_error_kind(e: &StorageError) -> ErrorKind {
    match e {
        StorageError::Corrupt { .. } => ErrorKind::Corrupt,
        StorageError::Degraded(_) => ErrorKind::Degraded,
        // ENOSPC joins the resource-exhaustion ladder: the write rolled
        // back and publishing nothing, and retrying without freeing disk
        // space is pointless (exactly like a blown spill budget).
        StorageError::NoSpace(_) => ErrorKind::ResourceExhausted,
        StorageError::Io(_) => ErrorKind::Io,
        // The rows (not the schema) violate a dirty-data contract — a
        // cross-reference table with NULL/conflicting keys, unmapped
        // tuples: Definition-2 violations.
        StorageError::InvalidData(_) => ErrorKind::InvalidDirty,
        _ => ErrorKind::Schema,
    }
}

impl EngineError {
    /// Shorthand for a binding error.
    pub fn bind(msg: impl Into<String>) -> Self {
        EngineError::Bind(msg.into())
    }

    /// Shorthand for an execution error.
    pub fn exec(msg: impl Into<String>) -> Self {
        EngineError::Exec(msg.into())
    }

    /// Shorthand for an internal invariant violation.
    pub fn internal(msg: impl Into<String>) -> Self {
        EngineError::Internal(msg.into())
    }

    /// True for the resource-governance errors ([`ResourceExhausted`],
    /// [`Timeout`], [`Cancelled`], [`Overloaded`]): the query was aborted
    /// by policy, not because it was wrong, and the database remains fully
    /// usable.
    ///
    /// [`ResourceExhausted`]: EngineError::ResourceExhausted
    /// [`Timeout`]: EngineError::Timeout
    /// [`Cancelled`]: EngineError::Cancelled
    /// [`Overloaded`]: EngineError::Overloaded
    pub fn is_governance(&self) -> bool {
        matches!(
            self,
            EngineError::ResourceExhausted { .. }
                | EngineError::Timeout { .. }
                | EngineError::Cancelled
                | EngineError::Overloaded { .. }
        )
    }

    /// The stable [`ErrorKind`] of this error, for mapping to wire codes
    /// and retry policies without string matching.
    pub fn kind(&self) -> ErrorKind {
        match self {
            EngineError::Parse(_) => ErrorKind::Parse,
            EngineError::Storage(e) => storage_error_kind(e),
            EngineError::Bind(_) => ErrorKind::Bind,
            EngineError::Exec(_) => ErrorKind::Exec,
            EngineError::ResourceExhausted { .. } => ErrorKind::ResourceExhausted,
            EngineError::Timeout { .. } => ErrorKind::Timeout,
            EngineError::Cancelled => ErrorKind::Cancelled,
            EngineError::Overloaded { .. } => ErrorKind::Overloaded,
            EngineError::Shutdown => ErrorKind::Shutdown,
            EngineError::Internal(_) => ErrorKind::Internal,
            EngineError::NotMaintainable(_) => ErrorKind::NotRewritable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_wire_codes() {
        let kinds = [
            ErrorKind::Parse,
            ErrorKind::Bind,
            ErrorKind::Exec,
            ErrorKind::Schema,
            ErrorKind::Corrupt,
            ErrorKind::Io,
            ErrorKind::Degraded,
            ErrorKind::ResourceExhausted,
            ErrorKind::Timeout,
            ErrorKind::Cancelled,
            ErrorKind::Overloaded,
            ErrorKind::Shutdown,
            ErrorKind::NotRewritable,
            ErrorKind::InvalidDirty,
            ErrorKind::Internal,
        ];
        for k in kinds {
            assert_eq!(k.as_str().parse::<ErrorKind>().unwrap(), k);
        }
        assert!("NOPE".parse::<ErrorKind>().is_err());
        assert!(!ErrorKind::Shutdown.is_retryable());
        assert!(!ErrorKind::Degraded.is_retryable());
    }

    #[test]
    fn engine_errors_classify_without_string_matching() {
        assert_eq!(EngineError::bind("x").kind(), ErrorKind::Bind);
        assert_eq!(
            EngineError::Storage(StorageError::Corrupt {
                path: "p".into(),
                detail: "d".into(),
            })
            .kind(),
            ErrorKind::Corrupt
        );
        assert_eq!(
            EngineError::Storage(StorageError::NoSuchTable("t".into())).kind(),
            ErrorKind::Schema
        );
        assert_eq!(
            EngineError::Storage(StorageError::NoSpace("disk full".into())).kind(),
            ErrorKind::ResourceExhausted
        );
        assert_eq!(
            EngineError::Storage(StorageError::Degraded("scrub found rot".into())).kind(),
            ErrorKind::Degraded
        );
        assert_eq!(
            EngineError::NotMaintainable("DISTINCT".into()).kind(),
            ErrorKind::NotRewritable
        );
        assert_eq!(
            EngineError::Storage(StorageError::InvalidData("bad xref".into())).kind(),
            ErrorKind::InvalidDirty
        );
        let overloaded = EngineError::Overloaded {
            running: 4,
            queued: 16,
            max_queue: 16,
        };
        assert_eq!(overloaded.kind(), ErrorKind::Overloaded);
        assert!(overloaded.is_governance());
        assert!(overloaded.kind().is_retryable());
        assert!(!EngineError::bind("x").kind().is_retryable());
    }
}
