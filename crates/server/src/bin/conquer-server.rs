//! `conquer-server` — serve one database to many clients over TCP.
//!
//! ```text
//! conquer-server [--addr HOST:PORT] [--load DIR | --gen SF IF]
//! ```
//!
//! With `--load DIR` the server opens DIR as a *durable* database:
//! recovery replays any committed write-ahead-log suffix (printing a
//! report of anything repaired along the way), and every write served
//! afterwards is WAL-committed before it is acknowledged — crash-safe.
//! With `--gen` (default `--gen 0.01 3`) it serves an in-memory
//! UIS-dirtied TPC-H-lite instance instead. The result-cache size,
//! admission slots, WAL checkpointing, timeouts, and the listen address
//! also come from the environment (`CONQUER_RESULT_CACHE`,
//! `CONQUER_ADMIT`, `CONQUER_QUEUE`, `CONQUER_WAL_LIMIT`,
//! `CONQUER_ADDR`, `CONQUER_MAX_CONN`, `CONQUER_IDLE_MS`,
//! `CONQUER_GRACE_MS`); flags win over the environment.

use std::process::ExitCode;

use conquer_datagen::{
    dirty::{dirty_database, ProbMode, UisConfig},
    perturb::PerturbOptions,
    tpch::TpchConfig,
};
use conquer_engine::{SharedConfig, SharedDatabase};
use conquer_server::{Server, ServerConfig};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("conquer-server: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut config = ServerConfig::from_env();
    let mut load: Option<String> = None;
    let mut gen: (f64, u32) = (0.01, 3);

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = args.next().ok_or("--addr needs HOST:PORT")?;
            }
            "--load" => {
                load = Some(args.next().ok_or("--load needs a directory")?);
            }
            "--gen" => {
                let sf = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--gen needs a scale factor (e.g. 0.01)")?;
                let if_factor = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--gen needs an inconsistency factor (e.g. 3)")?;
                gen = (sf, if_factor);
            }
            "--help" | "-h" => {
                println!("usage: conquer-server [--addr HOST:PORT] [--load DIR | --gen SF IF]");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }

    let shared = match &load {
        Some(dir) => {
            eprintln!("opening durable database at {dir} ...");
            let (shared, report) =
                SharedDatabase::open_durable(std::path::Path::new(dir), SharedConfig::from_env())
                    .map_err(|e| format!("opening {dir}: {e}"))?;
            match report.base_seq {
                Some(seq) => eprintln!(
                    "recovered the log's base (sealed at {seq}) + {} WAL commit(s)",
                    report.wal_commits_replayed
                ),
                None => eprintln!("no write-ahead log; starting an empty database"),
            }
            for issue in &report.issues {
                eprintln!("recovery: {issue}");
            }
            shared
        }
        None => {
            let (sf, if_factor) = gen;
            eprintln!("generating dirty TPC-H-lite (sf={sf}, if={if_factor}) ...");
            let dirty = dirty_database(UisConfig {
                tpch: TpchConfig { sf, seed: 2024 },
                if_factor,
                prob_mode: ProbMode::Uniform,
                perturb: PerturbOptions::default(),
            })
            .map_err(|e| format!("generating data: {e}"))?;
            SharedDatabase::with_config(dirty.db().clone(), SharedConfig::from_env())
        }
    };

    let server =
        Server::bind(shared, &config).map_err(|e| format!("binding {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("conquer-server listening on {addr}");
    server.run().map_err(|e| format!("serving: {e}"))
}
