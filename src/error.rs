//! The workspace-wide error type.
//!
//! Each layer keeps its own focused enum ([`StorageError`], [`ParseError`],
//! [`EngineError`], [`CoreError`]), but applications that mix layers — load
//! a catalog, prepare a statement, rewrite a query — shouldn't need a
//! `map_err` at every boundary. [`ConquerError`] is the single sink every
//! layer error converts into, and [`Result`] is the alias the prelude
//! exports.
//!
//! Conversions *flatten*: an [`EngineError`] that merely wraps a parse or
//! storage failure becomes [`ConquerError::Parse`] / [`ConquerError::Storage`]
//! (and likewise for [`CoreError::Engine`]), so matching on the variant
//! tells you which layer actually failed, not which layer reported it.

use std::fmt;

use conquer_core::CoreError;
use conquer_engine::{EngineError, ErrorKind};
use conquer_sql::ParseError;
use conquer_storage::StorageError;

/// Any error the ConQuer workspace can produce, by originating layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ConquerError {
    /// SQL text failed to parse.
    Parse(ParseError),
    /// Storage-layer failure (missing table, type mismatch, I/O, corruption).
    Storage(StorageError),
    /// Query engine failure (binding, planning, execution).
    Engine(EngineError),
    /// Clean-answer layer failure (rewritability, dirty-spec validation,
    /// candidate-enumeration limits).
    Core(CoreError),
    /// A query exhausted its configured memory and spill-disk budgets
    /// (see [`conquer_engine::ExecLimits`]).
    ResourceExhausted {
        /// The configured budget, in bytes.
        limit_bytes: u64,
        /// Bytes the query would have held after the rejected charge.
        attempted_bytes: u64,
    },
    /// A query exceeded its configured wall-clock deadline.
    Timeout(std::time::Duration),
    /// A query was cancelled through its
    /// [`conquer_engine::CancelToken`].
    Cancelled,
    /// A request was shed by admission control before execution (shared
    /// handle / server overload; see
    /// [`conquer_engine::shared::AdmissionGate`]). Safe to retry.
    Overloaded {
        /// Queries running when the request was rejected.
        running: usize,
        /// Requests already waiting in the admission queue.
        queued: usize,
        /// The queue's capacity.
        max_queue: usize,
    },
}

/// Workspace-wide result alias; the default error is [`ConquerError`].
pub type Result<T, E = ConquerError> = std::result::Result<T, E>;

impl fmt::Display for ConquerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConquerError::Parse(e) => write!(f, "{e}"),
            ConquerError::Storage(e) => write!(f, "{e}"),
            ConquerError::Engine(e) => write!(f, "{e}"),
            ConquerError::Core(e) => write!(f, "{e}"),
            ConquerError::ResourceExhausted {
                limit_bytes,
                attempted_bytes,
            } => write!(
                f,
                "query exhausted its resource budget: needed {attempted_bytes} bytes \
                 of materialized or spilled state, limit is {limit_bytes} bytes"
            ),
            ConquerError::Timeout(limit) => {
                write!(f, "query exceeded its time limit of {limit:?}")
            }
            ConquerError::Cancelled => write!(f, "query cancelled"),
            ConquerError::Overloaded {
                running,
                queued,
                max_queue,
            } => write!(
                f,
                "server overloaded: {running} queries running and {queued}/{max_queue} \
                 admission-queue slots taken; retry later"
            ),
        }
    }
}

impl std::error::Error for ConquerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConquerError::Parse(e) => Some(e),
            ConquerError::Storage(e) => Some(e),
            ConquerError::Engine(e) => Some(e),
            ConquerError::Core(e) => Some(e),
            ConquerError::ResourceExhausted { .. }
            | ConquerError::Timeout(_)
            | ConquerError::Cancelled
            | ConquerError::Overloaded { .. } => None,
        }
    }
}

impl From<ParseError> for ConquerError {
    fn from(e: ParseError) -> Self {
        ConquerError::Parse(e)
    }
}

impl From<StorageError> for ConquerError {
    fn from(e: StorageError) -> Self {
        ConquerError::Storage(e)
    }
}

impl From<EngineError> for ConquerError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Parse(p) => ConquerError::Parse(p),
            EngineError::Storage(s) => ConquerError::Storage(s),
            EngineError::ResourceExhausted {
                limit_bytes,
                attempted_bytes,
            } => ConquerError::ResourceExhausted {
                limit_bytes,
                attempted_bytes,
            },
            EngineError::Timeout { limit } => ConquerError::Timeout(limit),
            EngineError::Cancelled => ConquerError::Cancelled,
            EngineError::Overloaded {
                running,
                queued,
                max_queue,
            } => ConquerError::Overloaded {
                running,
                queued,
                max_queue,
            },
            other => ConquerError::Engine(other),
        }
    }
}

impl From<CoreError> for ConquerError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Engine(inner) => inner.into(),
            other => ConquerError::Core(other),
        }
    }
}

impl ConquerError {
    /// The stable [`ErrorKind`] of this error, regardless of which layer
    /// produced it. This is the supported way for servers and clients to
    /// map errors to wire codes or retry policies — never match on
    /// `Display` strings.
    ///
    /// ```
    /// use conquer::{ConquerError, ErrorKind};
    ///
    /// let e = ConquerError::Cancelled;
    /// assert_eq!(e.kind(), ErrorKind::Cancelled);
    /// assert!(e.kind().is_retryable());
    /// ```
    pub fn kind(&self) -> ErrorKind {
        match self {
            ConquerError::Parse(_) => ErrorKind::Parse,
            ConquerError::Storage(e) => conquer_engine::error::storage_error_kind(e),
            ConquerError::Engine(e) => e.kind(),
            ConquerError::Core(e) => match e {
                CoreError::Engine(inner) => inner.kind(),
                CoreError::NotRewritable(_) => ErrorKind::NotRewritable,
                CoreError::InvalidDirty(_) => ErrorKind::InvalidDirty,
                CoreError::TooManyCandidates { .. } => ErrorKind::ResourceExhausted,
            },
            ConquerError::ResourceExhausted { .. } => ErrorKind::ResourceExhausted,
            ConquerError::Timeout(_) => ErrorKind::Timeout,
            ConquerError::Cancelled => ErrorKind::Cancelled,
            ConquerError::Overloaded { .. } => ErrorKind::Overloaded,
        }
    }
}

impl From<std::io::Error> for ConquerError {
    fn from(e: std::io::Error) -> Self {
        ConquerError::Storage(StorageError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_flatten_to_the_originating_layer() {
        let parse_err = conquer_sql::parse_statement("SELEKT 1").unwrap_err();
        let via_engine: ConquerError = EngineError::Parse(parse_err.clone()).into();
        assert!(
            matches!(via_engine, ConquerError::Parse(_)),
            "{via_engine:?}"
        );

        let storage = StorageError::NoSuchTable("t".into());
        let via_core: ConquerError =
            CoreError::Engine(EngineError::Storage(storage.clone())).into();
        assert_eq!(via_core, ConquerError::Storage(storage));

        let bind: ConquerError = EngineError::bind("nope").into();
        assert!(matches!(bind, ConquerError::Engine(EngineError::Bind(_))));

        let core: ConquerError = CoreError::InvalidDirty("p".into()).into();
        assert!(matches!(core, ConquerError::Core(_)));
    }

    #[test]
    fn question_mark_works_across_layers() {
        fn end_to_end() -> Result<usize> {
            let mut db = conquer_engine::Database::new();
            db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2)")?;
            let dirty = conquer_core::DirtyDatabase::new_unvalidated(
                db,
                conquer_core::DirtySpec::uniform(&[] as &[&str]),
            );
            let n = dirty
                .db()
                .prepare("SELECT a FROM t")?
                .query(dirty.db())?
                .len();
            Ok(n)
        }
        assert_eq!(end_to_end().unwrap(), 2);
    }

    #[test]
    fn kind_classifies_every_layer() {
        let parse: ConquerError = conquer_sql::parse_statement("SELEKT 1").unwrap_err().into();
        assert_eq!(parse.kind(), ErrorKind::Parse);
        let corrupt = ConquerError::Storage(StorageError::Corrupt {
            path: "x".into(),
            detail: "bad checksum".into(),
        });
        assert_eq!(corrupt.kind(), ErrorKind::Corrupt);
        let core: ConquerError = CoreError::InvalidDirty("p".into()).into();
        assert_eq!(core.kind(), ErrorKind::InvalidDirty);
        let overloaded = ConquerError::Overloaded {
            running: 1,
            queued: 2,
            max_queue: 2,
        };
        assert_eq!(overloaded.kind(), ErrorKind::Overloaded);
        assert_eq!(overloaded.kind().as_str(), "OVERLOADED");
        assert!(overloaded.kind().is_retryable());
    }

    #[test]
    fn display_and_source_delegate() {
        let e = ConquerError::Storage(StorageError::NoSuchTable("zzz".into()));
        assert!(e.to_string().contains("zzz"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
