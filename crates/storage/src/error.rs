//! Storage-layer errors.

use std::fmt;
use std::path::Path;

use crate::value::DataType;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// No table with this name exists in the catalog.
    NoSuchTable(String),
    /// No column with this name exists in the table.
    NoSuchColumn {
        /// The table searched.
        table: String,
        /// The missing column name.
        column: String,
    },
    /// A duplicate column name was used when defining a schema.
    DuplicateColumn(String),
    /// A row had the wrong number of values for the table's schema.
    ArityMismatch {
        /// The target table.
        table: String,
        /// Expected value count.
        expected: usize,
        /// Provided value count.
        got: usize,
    },
    /// A value did not conform to its column's declared type.
    TypeMismatch {
        /// The target table.
        table: String,
        /// The offending column.
        column: String,
        /// The column's declared type.
        expected: DataType,
        /// The provided value's type (or "NULL").
        got: String,
    },
    /// The schema text of a persisted table image could not be parsed.
    Schema {
        /// The file whose schema text failed to parse.
        path: String,
        /// What was wrong with it.
        message: String,
    },
    /// A persisted catalog failed integrity verification (a frame whose
    /// checksum fails, a base cut short, a directory in an older layout).
    Corrupt {
        /// The offending file or directory.
        path: String,
        /// What the verification found.
        detail: String,
    },
    /// The disk (or disk quota) is full. Split out from [`Io`] so the
    /// engine can fold it into its resource-exhaustion ladder: a commit
    /// that hits ENOSPC rolls back and publishes nothing, and retrying
    /// without freeing space is pointless.
    ///
    /// [`Io`]: StorageError::Io
    NoSpace(String),
    /// The durable handle refuses the operation until it is repaired
    /// (e.g. a scrub found corruption, or a poisoned WAL was not healed).
    Degraded(String),
    /// Underlying I/O failure (persistence, spilling).
    Io(String),
    /// The data itself violates an operation's contract (e.g. a
    /// cross-reference table with NULL or conflicting keys, a dirty
    /// relation with unmapped keys). The schema is fine; the rows are not.
    InvalidData(String),
}

/// A [`StorageError::Corrupt`] naming the file at `path`.
pub(crate) fn corrupt(path: &Path, detail: String) -> StorageError {
    StorageError::Corrupt {
        path: path.display().to_string(),
        detail,
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(t) => write!(f, "table {t:?} already exists"),
            StorageError::NoSuchTable(t) => write!(f, "no such table: {t:?}"),
            StorageError::NoSuchColumn { table, column } => {
                write!(f, "no column {column:?} in table {table:?}")
            }
            StorageError::DuplicateColumn(c) => {
                write!(f, "duplicate column name {c:?} in schema")
            }
            StorageError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row arity mismatch for table {table:?}: expected {expected} values, got {got}"
            ),
            StorageError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch for {table}.{column}: expected {expected}, got {got}"
            ),
            StorageError::Schema { path, message } => {
                write!(f, "schema error in {path}: {message}")
            }
            StorageError::Corrupt { path, detail } => {
                write!(f, "corrupt catalog data in {path}: {detail}")
            }
            StorageError::NoSpace(msg) => write!(f, "disk full: {msg}"),
            StorageError::Degraded(msg) => write!(f, "storage degraded: {msg}"),
            StorageError::Io(msg) => write!(f, "I/O error: {msg}"),
            StorageError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Unix `errno` for "no space left on device".
const ENOSPC: i32 = 28;

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        if e.raw_os_error() == Some(ENOSPC) {
            return StorageError::NoSpace(e.to_string());
        }
        StorageError::Io(e.to_string())
    }
}
