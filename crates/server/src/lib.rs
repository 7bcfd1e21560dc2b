//! Multi-client network front-end for the ConQuer engine.
//!
//! Three layers, one per module:
//!
//! * [`proto`] — the line-oriented wire protocol: request/response
//!   grammar, field escaping, stable error codes.
//! * [`server`] — a thread-per-connection TCP server over one
//!   [`SharedDatabase`](conquer_engine::SharedDatabase): every connection
//!   gets its own [`Session`](conquer_engine::Session), all connections
//!   share the catalog, the clean-answer result cache and the admission
//!   gate.
//! * [`client`] — a blocking client used by the CLI's `--connect` mode,
//!   the concurrency bench, and the smoke tests.
//!
//! The concurrency semantics (catalog epochs, cache invalidation,
//! load-shedding) live in the engine's `shared` module; this crate only
//! puts them on the network.
//!
//! ```no_run
//! use conquer_engine::{Database, SharedDatabase};
//! use conquer_server::{Client, Server, ServerConfig};
//!
//! let mut config = ServerConfig::default();
//! config.addr = "127.0.0.1:0".to_string(); // let the OS pick a port
//! let server = Server::bind(SharedDatabase::new(Database::new()), &config).unwrap();
//! let handle = server.spawn().unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.exec("CREATE TABLE t (a INTEGER)").unwrap();
//! client.exec("INSERT INTO t VALUES (1), (2)").unwrap();
//! let rows = client.query("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(rows.rows, vec![vec!["2".to_string()]]);
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientBuilder, ClientError, Response, RetryPolicy, Rows, ServerError};
pub use server::{Server, ServerConfig, ServerHandle};
