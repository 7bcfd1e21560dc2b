//! The workspace-wide result alias.
//!
//! Each layer keeps its own focused enum ([`StorageError`], [`ParseError`],
//! [`EngineError`], [`CoreError`]), but applications that mix layers — load
//! a catalog, prepare a statement, rewrite a query — shouldn't need a
//! `map_err` at every boundary. [`CoreError`], the top layer's error,
//! already converts from every layer below it, so [`Result`] — the alias
//! the prelude exports — defaults to it, and [`CoreError::kind`] names the
//! layer that failed.
//!
//! [`StorageError`]: conquer_storage::StorageError
//! [`ParseError`]: conquer_sql::ParseError
//! [`EngineError`]: conquer_engine::EngineError

use conquer_core::CoreError;

/// Workspace-wide result alias; the default error is [`CoreError`].
///
/// ```
/// use conquer::prelude::*;
///
/// fn run(db: &Database, sql: &str) -> Result<QueryResult> {
///     Ok(db.prepare(sql)?.query(db)?)
/// }
///
/// let e = run(&Database::new(), "SELEKT 1").unwrap_err();
/// assert_eq!(e.kind(), ErrorKind::Parse);
/// assert!(!e.kind().is_retryable());
/// ```
pub type Result<T, E = CoreError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_engine::{EngineError, ErrorKind};
    use conquer_storage::StorageError;

    #[test]
    fn conversions_flatten_to_the_originating_layer() {
        let parse_err = conquer_sql::parse_statement("SELEKT 1").unwrap_err();
        let via_parse: CoreError = parse_err.clone().into();
        assert_eq!(via_parse, CoreError::Engine(EngineError::Parse(parse_err)));
        assert_eq!(via_parse.kind(), ErrorKind::Parse);

        let storage = StorageError::NoSuchTable("t".into());
        let via_storage: CoreError = storage.clone().into();
        assert_eq!(
            via_storage,
            CoreError::Engine(EngineError::Storage(storage))
        );

        let bind: CoreError = EngineError::bind("nope").into();
        assert!(matches!(bind, CoreError::Engine(EngineError::Bind(_))));
        assert_eq!(bind.kind(), ErrorKind::Bind);
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
            let _ = conquer_sql::parse_select("SELECT a FROM t")?;
            Ok(n)
        }
        assert_eq!(end_to_end().unwrap(), 2);
    }

    #[test]
    fn kind_classifies_every_layer() {
        let parse: CoreError = conquer_sql::parse_statement("SELEKT 1").unwrap_err().into();
        assert_eq!(parse.kind(), ErrorKind::Parse);
        let corrupt: CoreError = StorageError::Corrupt {
            path: "x".into(),
            detail: "bad checksum".into(),
        }
        .into();
        assert_eq!(corrupt.kind(), ErrorKind::Corrupt);
        let core = CoreError::InvalidDirty("p".into());
        assert_eq!(core.kind(), ErrorKind::InvalidDirty);
        let overloaded: CoreError = EngineError::Overloaded {
            running: 1,
            queued: 2,
            max_queue: 2,
        }
        .into();
        assert_eq!(overloaded.kind(), ErrorKind::Overloaded);
        assert_eq!(overloaded.kind().as_str(), "OVERLOADED");
        assert!(overloaded.kind().is_retryable());
        let too_many = CoreError::TooManyCandidates {
            candidates: 2,
            limit: 1,
        };
        assert_eq!(too_many.kind(), ErrorKind::ResourceExhausted);
    }

    #[test]
    fn display_and_source_delegate() {
        let e: CoreError = StorageError::NoSuchTable("zzz".into()).into();
        assert!(e.to_string().contains("zzz"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
