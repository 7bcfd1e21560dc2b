//! End-to-end smoke tests over a real TCP socket: many concurrent clients
//! running the paper's 13-template workload must get byte-identical
//! answers to a single client, cache hits must be visible in `STATS`, and
//! overload must surface as the typed `OVERLOADED` wire code — never a
//! hang or a dropped connection without an error line.

use std::time::Duration;

use conquer_datagen::{
    dirty::{dirty_database, ProbMode, UisConfig},
    perturb::PerturbOptions,
    queries::{query_sql, QUERY_IDS},
    tpch::TpchConfig,
};
use conquer_engine::{Database, ErrorKind, SharedConfig, SharedDatabase};
use conquer_server::{
    client::wire_form, proto::escape, Client, ClientError, Response, RetryPolicy, Server,
    ServerConfig, ServerHandle,
};

fn spawn_server(shared: SharedDatabase, max_conn: usize) -> ServerHandle {
    let mut config = ServerConfig::default();
    config.addr = "127.0.0.1:0".to_string();
    config.max_conn = max_conn;
    Server::bind(shared, &config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn tiny_shared() -> SharedDatabase {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (a INTEGER, b TEXT);
         INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'y')",
    )
    .unwrap();
    SharedDatabase::new(db)
}

#[test]
fn concurrent_clients_get_byte_identical_answers_on_the_paper_workload() {
    let dirty = dirty_database(UisConfig {
        tpch: TpchConfig {
            sf: 0.005,
            seed: 2024,
        },
        if_factor: 3,
        prob_mode: ProbMode::Uniform,
        perturb: PerturbOptions::default(),
    })
    .unwrap();
    let shared = SharedDatabase::new(dirty.db().clone());
    let handle = spawn_server(shared.clone(), 32);
    let addr = handle.addr();

    // The workload: all 13 templates, original and rewritten form.
    let mut workload = Vec::new();
    for &id in &QUERY_IDS {
        let sql = query_sql(id, false);
        workload.push(dirty.rewrite(&sql).unwrap().to_string());
        workload.push(sql);
    }

    // Single-client reference.
    let mut single = Client::connect(addr).unwrap();
    let reference: Vec<Vec<String>> = workload
        .iter()
        .map(|sql| wire_form(&single.query(sql).unwrap()))
        .collect();

    // The single client's answers are the engine's: each equals the
    // in-process answer rendered by the reference row encoding (each
    // cell's `Display`, escaped, joined by TABs).
    let snapshot = shared.snapshot();
    let db = snapshot.db();
    for (sql, served) in workload.iter().zip(&reference) {
        let result = db.prepare(sql).and_then(|p| p.query(db)).unwrap();
        let rendered: Vec<String> = result
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| escape(&v.to_string()))
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect();
        assert_eq!(
            served, &rendered,
            "served answer differs from the engine's for {sql}"
        );
        assert_eq!(single.query(sql).unwrap().columns, result.columns, "{sql}");
    }

    // 8 concurrent clients over the same workload.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let workload = &workload;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (sql, expected) in workload.iter().zip(reference) {
                    let rows = client.query(sql).unwrap();
                    assert_eq!(&wire_form(&rows), expected, "answer diverged for {sql}");
                }
            });
        }
    });

    // The concurrent pass can only have been served from the caches; the
    // stats must prove re-preparation was skipped.
    let stats = shared.stats();
    assert!(
        stats.result_hits >= 8 * workload.len() as u64,
        "expected at least {} result-cache hits, saw {stats:?}",
        8 * workload.len()
    );
    assert_eq!(stats.plan_misses as usize, workload.len());
    handle.shutdown();
}

#[test]
fn stats_expose_cache_hits_over_the_wire() {
    let handle = spawn_server(tiny_shared(), 8);
    let mut client = Client::connect(handle.addr()).unwrap();

    client.query("SELECT a FROM t ORDER BY a").unwrap();
    let first = client.query("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(first.source, "result-cache");
    // EXEC of the same text is the same read: same cache, same answer.
    let exec = client.exec("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(exec, Response::Rows(first));

    let stats = client.stats().unwrap();
    let get = |key: &str| {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("STATS missing {key}: {stats:?}"))
            .1
    };
    assert_eq!(get("result_hits"), 2);
    assert_eq!(get("result_misses"), 1);
    assert_eq!(get("plan_misses"), 1);
    assert_eq!(get("epoch"), 0);
    handle.shutdown();
}

#[test]
fn writes_bump_the_epoch_and_invalidate_over_the_wire() {
    let handle = spawn_server(tiny_shared(), 8);
    let mut client = Client::connect(handle.addr()).unwrap();

    let before = client.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(before.rows, vec![vec!["3".to_string()]]);
    assert_eq!(before.epoch, 0);

    match client.sql("INSERT INTO t VALUES (4, 'z')").unwrap() {
        Response::Ok(summary) => assert_eq!(summary, "inserted 1"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.epoch().unwrap(), 1);

    let after = client.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(after.rows, vec![vec!["4".to_string()]]);
    assert_eq!(after.source, "fresh", "the cached answer must be evicted");
    assert_eq!(after.epoch, 1);
    handle.shutdown();
}

#[test]
fn admission_overload_is_a_typed_wire_error() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)")
        .unwrap();
    let mut config = SharedConfig::default();
    config.max_running = 1;
    config.max_queue = 0;
    let shared = SharedDatabase::with_config(db, config);
    let handle = spawn_server(shared.clone(), 8);

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Hold the only execution slot server-side, then watch the request
    // come back shed — immediately, with the stable error code.
    let slot = shared.admission().admit(None).unwrap();
    let err = client.query("SELECT a FROM t").unwrap_err();
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, "OVERLOADED", "{e:?}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(err.kind(), Some(ErrorKind::Overloaded));

    // The connection survives the error and serves again once the slot
    // frees up.
    drop(slot);
    assert_eq!(
        client.query("SELECT a FROM t").unwrap().rows,
        vec![vec!["1".to_string()]]
    );
    handle.shutdown();
}

#[test]
fn connection_cap_sheds_with_typed_error() {
    let handle = spawn_server(tiny_shared(), 1);
    let mut first = Client::connect(handle.addr()).unwrap();
    first.ping().unwrap(); // the one slot is definitely taken

    let mut second = Client::connect(handle.addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let err = second.ping().unwrap_err();
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, "OVERLOADED", "{e:?}"),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn malformed_requests_get_proto_errors_not_disconnects() {
    let handle = spawn_server(tiny_shared(), 8);
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client.request("FROBNICATE now").unwrap_err();
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, "PROTO", "{e:?}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(err.kind(), None, "PROTO is not an engine error kind");

    // There is no per-query thread count to set: the old target is refused
    // with the list of limits that exist.
    match client.request("LIMIT threads 4").unwrap_err() {
        ClientError::Server(e) => {
            assert_eq!(e.code, "PROTO", "{e:?}");
            assert!(
                e.message
                    .contains("mem <bytes> | disk <bytes> | time <ms> | off"),
                "{e:?}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // A bad SQL statement maps to a stable engine kind.
    let err = client.query("SELEC a FROM t").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::Parse), "{err}");

    // The connection still works afterwards.
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn a_shed_request_eventually_succeeds_with_retry() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)")
        .unwrap();
    let mut config = SharedConfig::default();
    config.max_running = 1;
    config.max_queue = 0;
    let shared = SharedDatabase::with_config(db, config);
    let handle = spawn_server(shared.clone(), 8);
    let addr = handle.addr().to_string();

    // Hold the only execution slot for a while, then release it: every
    // request sent in the meantime is shed with `ERR OVERLOADED`.
    let holder_db = shared.clone();
    let holder = std::thread::spawn(move || {
        let slot = holder_db.admission().admit(None).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        drop(slot);
    });
    std::thread::sleep(Duration::from_millis(30)); // the slot is taken

    // Without retries the shed surfaces immediately...
    let mut bare = Client::builder(&addr).no_retry().connect().unwrap();
    let err = bare.query("SELECT a FROM t").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::Overloaded), "{err}");

    // ...with retries the same request rides out the overload.
    let mut retrying = Client::builder(&addr)
        .retry(RetryPolicy {
            max_attempts: 50,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
        })
        .connect()
        .unwrap();
    let rows = retrying.query("SELECT a FROM t").unwrap();
    assert_eq!(rows.rows, vec![vec!["1".to_string()]]);

    holder.join().unwrap();
    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_with_a_typed_timeout() {
    let mut config = ServerConfig::default();
    config.addr = "127.0.0.1:0".to_string();
    config.max_conn = 8;
    config.idle_timeout = Some(Duration::from_millis(50));
    let handle = Server::bind(tiny_shared(), &config)
        .expect("bind")
        .spawn()
        .expect("spawn");

    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // The server reaped the idle connection: either we read its parting
    // `ERR TIMEOUT` line, or the socket is already gone.
    let err = client.ping().unwrap_err();
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, "TIMEOUT", "{e:?}"),
        ClientError::Io(_) => {}
        other => panic!("unexpected {other:?}"),
    }

    // Reaping frees the slot for fresh connections.
    Client::connect(handle.addr()).unwrap().ping().unwrap();
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_queries_and_refuses_new_work() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)")
        .unwrap();
    let mut config = SharedConfig::default();
    config.max_running = 1;
    config.max_queue = 10;
    let shared = SharedDatabase::with_config(db, config);
    let handle = spawn_server(shared.clone(), 8);
    let addr = handle.addr();

    // Park an in-flight query: the test holds the only execution slot, so
    // the query below blocks in the admission queue server-side.
    let slot = shared.admission().admit(None).unwrap();
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query("SELECT a FROM t")
    });
    std::thread::sleep(Duration::from_millis(50));

    let mut pre_drain = Client::connect(addr).unwrap();
    pre_drain.ping().unwrap();

    let drainer = std::thread::spawn(move || handle.shutdown_within(Duration::from_secs(10)));

    // A connection opened before the drain is answered with the typed
    // SHUTDOWN error once draining starts — not a dropped socket.
    let err = loop {
        match pre_drain.ping() {
            Ok(()) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break e,
        }
    };
    assert_eq!(err.kind(), Some(ErrorKind::Shutdown), "{err}");

    // New connections are refused with the same typed error.
    let mut late = Client::connect(addr).unwrap();
    let err = late.ping().unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::Shutdown), "{err}");

    // The parked query drains to completion instead of being dropped.
    drop(slot);
    let rows = inflight.join().unwrap().unwrap();
    assert_eq!(rows.rows, vec![vec!["1".to_string()]]);
    drainer.join().unwrap();
}

#[test]
fn checkpoint_round_trips_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("conquer-smoke-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Durable server: CHECKPOINT folds the WAL and reports what it did.
    let (shared, report) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let handle = spawn_server(shared, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.exec("CREATE TABLE t (a INTEGER)").unwrap();
    client.exec("INSERT INTO t VALUES (1), (2)").unwrap();
    match client.request("CHECKPOINT").unwrap() {
        Response::Ok(s) => assert!(s.starts_with("checkpoint epoch "), "{s}"),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();

    // In-memory server: CHECKPOINT is an explicit noop, not an error.
    let handle = spawn_server(tiny_shared(), 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.request("CHECKPOINT").unwrap() {
        Response::Ok(s) => assert!(s.contains("noop"), "{s}"),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn values_with_tabs_and_newlines_survive_the_wire() {
    let handle = spawn_server(tiny_shared(), 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .exec("INSERT INTO t VALUES (9, 'tab\there and\\nnothing')")
        .unwrap();
    let rows = client.query("SELECT b FROM t WHERE a = 9").unwrap();
    assert_eq!(rows.rows.len(), 1);
    assert!(rows.rows[0][0].contains('\t') || rows.rows[0][0].contains("tab"));
    handle.shutdown();
}

#[test]
fn scrub_round_trips_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("conquer-smoke-scrub-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Durable server, clean disk: SCRUB reports counters and stays healthy.
    let (shared, _) = SharedDatabase::open_durable(&dir, SharedConfig::default()).unwrap();
    let handle = spawn_server(shared, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.exec("CREATE TABLE t (a INTEGER)").unwrap();
    client.exec("INSERT INTO t VALUES (1), (2)").unwrap();
    match client.request("CHECKPOINT").unwrap() {
        Response::Ok(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    let stats = match client.request("SCRUB").unwrap() {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    };
    let get = |k: &str| {
        stats
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("missing STAT {k}: {stats:?}"))
            .1
    };
    assert!(get("clean") > 0, "{stats:?}");
    assert_eq!(get("corrupt"), 0, "{stats:?}");

    // Rot a byte of the log's base behind the server's back (past the
    // 35-byte header, inside t's put frame): the next SCRUB must report
    // corruption and degrade writes with the typed wire kind, while
    // reads keep answering.
    let data = dir.join(conquer_storage::wal::WAL_FILE);
    let mut bytes = std::fs::read(&data).unwrap();
    bytes[35 + 12 + 4] ^= 0x01;
    std::fs::write(&data, &bytes).unwrap();
    let stats = match client.request("SCRUB").unwrap() {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    };
    let corrupt = stats.iter().find(|(k, _)| k == "corrupt").unwrap().1;
    assert!(corrupt > 0, "{stats:?}");
    let err = client.exec("INSERT INTO t VALUES (3)").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::Degraded), "{err}");
    let rows = client.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rows.rows, vec![vec!["2".to_string()]]);

    // STATS now carries the degraded flag; CHECKPOINT repairs it.
    let all = client.stats().unwrap();
    let degraded = all.iter().find(|(k, _)| k == "degraded").unwrap().1;
    assert_eq!(degraded, 1, "{all:?}");
    match client.request("CHECKPOINT").unwrap() {
        Response::Ok(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    client.exec("INSERT INTO t VALUES (3)").unwrap();
    handle.shutdown();

    // In-memory server: SCRUB is an explicit noop, not an error.
    let handle = spawn_server(tiny_shared(), 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.request("SCRUB").unwrap() {
        Response::Ok(s) => assert!(s.contains("noop"), "{s}"),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
