//! `served_read` and `served_mix` — an in-process `conquer-server` driven
//! over TCP by two closed-loop clients (this host has two cores; more
//! clients would measure the scheduler).
//!
//! * `served_read` is read-only: 13 templates × 24 literal variants = 312
//!   distinct statements against a 128-entry result cache and a 256-entry
//!   plan cache, so the hot head fits and the tail does not. Wire,
//!   admission and cache do the work on hits; the executor only on the
//!   miss tail. An executor gain should move `read_p99_ms` here but not
//!   `read_p50_ms`; a cache or wire change the reverse.
//! * `served_mix` is the same stream on a durable handle, with client 0
//!   replacing every 12th statement by one DML. Every commit bumps the
//!   epoch and sweeps both caches, clones the whole database, writes a
//!   whole-table WAL image and fsyncs while readers hold snapshots — the
//!   same `shared` layer used differently. A write-path gain that costs
//!   readers, or a cache deletion that is free here but expensive on
//!   `served_read`, shows as one row moving against the other.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use conquer_engine::{CacheStats, SharedConfig, SharedDatabase, Snapshot};
use conquer_server::{Client, Server, ServerConfig, ServerHandle};

use crate::fingerprint;
use crate::host::{self, ScratchDir};
use crate::inputs::{self, ReadStatement, StagedData, VARIANTS};
use crate::layers::{self, WalWatch, WriteObs};
use crate::report::{end_to_end_metrics, per_layer_metrics, Checks, WorkloadReport};
use crate::samples::Samples;
use crate::trace::Recorder;
use crate::workloads::{fail_share, probability_ok, SetupTimes};

/// Load-generator threads / connections.
pub const CLIENTS: usize = 2;

/// Input sizes. Only the op counts scale with `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// TPC-H-lite scale factor.
    pub sf: f64,
    /// `QUERY` slots per client.
    pub ops_per_client: usize,
    /// Literal variants per template.
    pub variants: usize,
    /// Client 0 replaces every `write_every`-th statement by one DML
    /// (`0`: read-only).
    pub write_every: usize,
    /// A snapshot is pinned for the answer check every this many commits.
    pub pin_every: usize,
    /// Times the set-up is repeated (median reported).
    pub setups: usize,
}

impl Sizes {
    /// Sizes for a `--seconds` budget, from throughput measured on the
    /// 2-core reference host (`served_read` ≈ 70 statements/s over both
    /// clients, `served_mix` ≈ 50).
    pub fn for_seconds(mix: bool, seconds: u64) -> Sizes {
        let per_second = if mix { 25 } else { 35 };
        Sizes {
            sf: 0.05,
            ops_per_client: (seconds as usize * per_second).max(26),
            variants: VARIANTS,
            write_every: if mix { 12 } else { 0 },
            pin_every: 20,
            setups: 3,
        }
    }
}

/// Where an answer came from, per the wire's `END` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    ResultCache,
    PlanCache,
    Fresh,
}

impl Source {
    fn parse(s: &str) -> Source {
        match s {
            "result-cache" => Source::ResultCache,
            "plan-cache" => Source::PlanCache,
            _ => Source::Fresh,
        }
    }
}

struct ReadObs {
    statement: usize,
    latency: Duration,
    source: Source,
    epoch: u64,
    fingerprint: u64,
}

#[derive(Default)]
struct ClientLog {
    reads: Vec<ReadObs>,
    writes: Vec<WriteObs>,
    failures: Vec<String>,
    pinned: Vec<Snapshot>,
}

/// A running server over a freshly generated database.
struct Stack {
    data: StagedData,
    statements: Vec<ReadStatement>,
    dml: Vec<String>,
    shared: SharedDatabase,
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    clients: Vec<Client>,
    /// Durable handles live in a scratch directory.
    dir: Option<ScratchDir>,
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// Everything before the first measured statement: generate the data,
/// rewrite the statement set, open the handle, start the server, connect
/// the clients, and warm the 13 base templates once.
fn setup(seed: u64, sizes: Sizes) -> Result<Stack, String> {
    let mix = sizes.write_every > 0;
    let data = inputs::generate(sizes.sf, inputs::DATA_SEED);
    let statements = inputs::read_statements(&data.dirty, sizes.variants);
    let writes = if mix {
        sizes.ops_per_client / sizes.write_every
    } else {
        0
    };
    let dml = inputs::dml_stream(data.dirty.db(), seed, writes);

    // Explicit configuration throughout: default caches (256 plans, 128
    // results), unlimited admission, 16 MiB WAL limit, fsync every commit.
    let config = SharedConfig::default();
    let (shared, dir) = if mix {
        let dir = ScratchDir::new("served_mix").map_err(|e| e.to_string())?;
        let (shared, _report) =
            SharedDatabase::open_durable(dir.path(), config).map_err(|e| e.to_string())?;
        let initial = data.dirty.db().clone();
        shared
            .mutate(move |db| {
                *db = initial;
                Ok(())
            })
            .map_err(|e| e.to_string())?;
        (shared, Some(dir))
    } else {
        (
            SharedDatabase::with_config(data.dirty.db().clone(), config),
            None,
        )
    };

    let mut server_config = ServerConfig::default();
    server_config.addr = "127.0.0.1:0".to_string();
    let handle = Server::bind(shared.clone(), &server_config)
        .and_then(Server::spawn)
        .map_err(|e| format!("starting the server: {e}"))?;
    let addr = handle.addr();
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Client::connect(addr).map_err(|e| format!("connecting: {e}"))?);
    }
    for s in statements.iter().filter(|s| s.variant == 0) {
        clients[0]
            .query(&s.rewritten)
            .map_err(|e| format!("warming {}: {e}", s.label()))?;
    }
    Ok(Stack {
        data,
        statements,
        dml,
        shared,
        handle: Some(handle),
        addr,
        clients,
        dir,
    })
}

struct Measured {
    logs: Vec<ClientLog>,
    wall: Duration,
    before: CacheStats,
    after: CacheStats,
    rec: Recorder,
}

/// The measured phase: every client runs its stream closed-loop; client 0
/// also issues the DML.
fn measure(stack: &mut Stack, seed: u64, sizes: Sizes, traced: bool) -> Measured {
    let streams: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| inputs::read_stream(seed, c, sizes.ops_per_client, sizes.variants))
        .collect();
    let before = stack.shared.stats();
    let barrier = Barrier::new(CLIENTS);
    let origin = Instant::now();
    let wal_dir = stack.dir.as_ref().map(|d| d.path().to_path_buf());
    let statements = &stack.statements;
    let dml = &stack.dml;
    let shared = &stack.shared;
    let mut rec = Recorder::new(traced, origin);

    let mut logs = Vec::new();
    let mut wall = Duration::ZERO;
    std::thread::scope(|scope| {
        let workers: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(&streams)
            .enumerate()
            .map(|(c, (client, stream))| {
                let (barrier, wal_dir) = (&barrier, wal_dir.as_deref());
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut rec = Recorder::new(traced, origin);
                    let mut next_write = 0usize;
                    let mut watch = WalWatch::new(shared, wal_dir);
                    if c == 0 && sizes.write_every > 0 {
                        log.pinned.push(shared.snapshot());
                    }
                    barrier.wait();
                    let start = Instant::now();
                    for (k, &statement) in stream.iter().enumerate() {
                        let request = (c * stream.len() + k) as u64;
                        let is_write =
                            c == 0 && sizes.write_every > 0 && (k + 1) % sizes.write_every == 0;
                        if is_write && next_write < dml.len() {
                            let sql = &dml[next_write];
                            next_write += 1;
                            watch.before();
                            let t0 = Instant::now();
                            let reply = client.exec(sql);
                            let latency = t0.elapsed();
                            rec.record("request.write", request, t0, latency);
                            match reply {
                                Err(e) => log.failures.push(format!("{sql}: {e}")),
                                Ok(_) => {
                                    let (wal_growth, checkpointed) = watch.after();
                                    log.writes.push(WriteObs {
                                        latency,
                                        wal_growth,
                                        checkpointed,
                                    });
                                    if next_write.is_multiple_of(sizes.pin_every)
                                        || next_write == dml.len()
                                    {
                                        log.pinned.push(shared.snapshot());
                                    }
                                }
                            }
                            continue;
                        }
                        let sql = &statements[statement].rewritten;
                        let t0 = Instant::now();
                        let reply = client.query(sql);
                        let latency = t0.elapsed();
                        rec.record("request.read", request, t0, latency);
                        match reply {
                            Err(e) => log
                                .failures
                                .push(format!("{}: {e}", statements[statement].label())),
                            Ok(rows) => log.reads.push(ReadObs {
                                statement,
                                latency,
                                source: Source::parse(&rows.source),
                                epoch: rows.epoch,
                                fingerprint: fingerprint::wire(&rows.columns, &rows.rows),
                            }),
                        }
                    }
                    (log, start.elapsed(), rec)
                })
            })
            .collect();
        for w in workers {
            let (log, elapsed, thread_rec) = w.join().expect("load-generator thread");
            wall = wall.max(elapsed);
            rec.merge(thread_rec);
            logs.push(log);
        }
    });
    let after = stack.shared.stats();
    Measured {
        logs,
        wall,
        before,
        after,
        rec,
    }
}

/// Check the served answers and collect fingerprints.
fn verify(
    stack: &Stack,
    m: &Measured,
    checks: &mut Checks,
    fingerprints: &mut BTreeMap<String, String>,
) {
    let statements = &stack.statements;
    let reads = || m.logs.iter().flat_map(|l| &l.reads);

    // 1. One (statement, epoch) has one answer, whichever client asked and
    //    whichever layer answered.
    let mut seen: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    let mut violations = Vec::new();
    for r in reads() {
        let first = *seen.entry((r.statement, r.epoch)).or_insert(r.fingerprint);
        if first != r.fingerprint {
            violations.push(format!(
                "{} at epoch {} answered two ways",
                statements[r.statement].label(),
                r.epoch
            ));
        }
    }
    checks.all(
        "fingerprint identical across repetitions",
        reads().count(),
        violations,
    );

    // 2. Served answer == in-process answer at the same `Rows.epoch`, on
    //    every pinned snapshot, for up to two statements per template.
    let mut pinned: BTreeMap<u64, &Snapshot> = BTreeMap::new();
    for snap in m.logs.iter().flat_map(|l| &l.pinned) {
        pinned.insert(snap.epoch(), snap);
    }
    let read_only;
    if pinned.is_empty() {
        read_only = stack.shared.snapshot();
        pinned.insert(read_only.epoch(), &read_only);
    }
    let (mut compared, mut answers) = (0usize, 0usize);
    let mut mismatches = Vec::new();
    let mut bad_probabilities = Vec::new();
    let mut picked: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut per_template: BTreeMap<(u64, u8), usize> = BTreeMap::new();
    for r in reads() {
        let Some(snap) = pinned.get(&r.epoch) else {
            continue;
        };
        let s = &statements[r.statement];
        let slots = per_template.entry((r.epoch, s.template)).or_insert(0);
        if *slots >= 2 || !picked.insert((r.epoch, r.statement)) {
            continue;
        }
        *slots += 1;
        compared += 1;
        let db = snap.db();
        match db.prepare(&s.rewritten).and_then(|p| p.query(db)) {
            Err(e) => mismatches.push(format!("{} in process: {e}", s.label())),
            Ok(result) => {
                if fingerprint::wire_of_values(&result.columns, &result.rows) != r.fingerprint {
                    mismatches.push(format!(
                        "{} at epoch {}: served answer differs from in-process answer",
                        s.label(),
                        r.epoch
                    ));
                }
                for row in &result.rows {
                    answers += 1;
                    match row.last().and_then(|v| v.as_f64()) {
                        Some(p) if probability_ok(p) => {}
                        other => {
                            bad_probabilities.push(format!("{} probability {other:?}", s.label()))
                        }
                    }
                }
            }
        }
    }
    checks.all(
        "served answer equals in-process answer at the same epoch",
        compared,
        mismatches,
    );
    checks.all("every probability in (0, 1]", answers, bad_probabilities);

    // Fingerprints that depend on the seed alone: the 13 base templates on
    // the final state, and the final state itself (which epoch a given read
    // observed under concurrent writes is timing, not input).
    let last = stack.shared.snapshot();
    for s in statements.iter().filter(|s| s.variant == 0) {
        if let Ok(result) = last
            .db()
            .prepare(&s.rewritten)
            .and_then(|p| p.query(last.db()))
        {
            fingerprints.insert(
                format!("q{}r@final", s.template),
                fingerprint::hex(fingerprint::rows(&result.columns, &result.rows)),
            );
        }
    }
    let tables = fingerprint::catalog(last.db().catalog());
    fingerprints.insert(
        "final_state".into(),
        fingerprint::hex(fingerprint::combine(
            tables.iter().map(|(n, fp)| (n.as_str(), *fp)),
        )),
    );
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// What the measured rounds left behind.
struct Outcome {
    stack: Stack,
    m: Measured,
    /// Wall time of the untraced reference round (traced runs only).
    reference_wall: Option<Duration>,
    setup_times: SetupTimes,
}

/// Set up and run the measured phase. Untraced: several set-ups (median),
/// then one measured phase. Traced: two fresh stacks run the identical
/// stream, first with the recorder off, then on — their difference is the
/// tracing overhead.
fn execute(seed: u64, traced: bool, sizes: Sizes) -> Result<Outcome, String> {
    let mut setup_times = SetupTimes::default();
    let mut reference_wall = None;
    let rounds: &[bool] = if traced { &[false, true] } else { &[false] };
    for (round, &record) in rounds.iter().enumerate() {
        let mut stack = None;
        for _ in 0..if traced { 1 } else { sizes.setups.max(1) } {
            drop(stack.take());
            let t0 = Instant::now();
            let s = setup(seed, sizes)?;
            setup_times.push(t0.elapsed(), &s.data);
            stack = Some(s);
        }
        let mut stack = stack.expect("at least one set-up ran");
        let m = measure(&mut stack, seed, sizes, record);
        if round + 1 == rounds.len() {
            return Ok(Outcome {
                stack,
                m,
                reference_wall,
                setup_times,
            });
        }
        reference_wall = Some(m.wall);
    }
    unreachable!("the last round returns")
}

/// Run `served_read` (`mix = false`) or `served_mix` (`mix = true`).
pub fn run(mix: bool, seed: u64, seconds: u64, traced: bool, sizes: Sizes) -> WorkloadReport {
    let workload = if mix { "served_mix" } else { "served_read" };
    match execute(seed, traced, sizes) {
        Ok(outcome) => finish(workload, seed, seconds, traced, sizes, outcome),
        Err(e) => WorkloadReport::failed_setup(workload, seed, seconds, traced, e),
    }
}

/// Check what was observed and compute the metrics.
fn finish(
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
    sizes: Sizes,
    outcome: Outcome,
) -> WorkloadReport {
    let mix = sizes.write_every > 0;
    let Outcome {
        mut stack,
        m,
        reference_wall,
        setup_times,
    } = outcome;
    let mut checks = Checks::default();
    let mut fingerprints = BTreeMap::new();
    let mut samples = BTreeMap::new();
    let mut counts = BTreeMap::new();

    let failures: Vec<&String> = m.logs.iter().flat_map(|l| &l.failures).collect();
    let reads: Vec<&ReadObs> = m.logs.iter().flat_map(|l| &l.reads).collect();
    let writes: Vec<&WriteObs> = m.logs.iter().flat_map(|l| &l.writes).collect();
    let failed = failures.len() as u64;
    let acknowledged = (reads.len() + writes.len()) as u64;
    let attempted = acknowledged + failed;
    checks.all(
        "no statement failed or was refused",
        attempted as usize,
        failures.iter().map(|f| f.to_string()).collect(),
    );
    verify(&stack, &m, &mut checks, &mut fingerprints);
    // The op stream itself: statement texts, each client's order, the DML.
    let mut stream = fingerprint::Fnv::default();
    for s in &stack.statements {
        stream.str(&s.rewritten);
    }
    for c in 0..CLIENTS {
        for i in inputs::read_stream(seed, c, sizes.ops_per_client, sizes.variants) {
            stream.bytes(&(i as u64).to_le_bytes());
        }
    }
    for sql in &stack.dml {
        stream.str(sql);
    }
    fingerprints.insert("op_stream".into(), fingerprint::hex(stream.finish()));

    let read_ms = Samples::new(
        reads
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect(),
    );
    let write_ms = Samples::new(
        writes
            .iter()
            .map(|w| w.latency.as_secs_f64() * 1e3)
            .collect(),
    );
    let write_obs: Vec<WriteObs> = writes.iter().map(|w| **w).collect();
    let wal_bytes_per_commit = layers::wal_bytes_per_commit(&write_obs);
    counts.insert("reads".into(), reads.len() as u64);
    counts.insert("writes".into(), writes.len() as u64);
    counts.insert("clients".into(), CLIENTS as u64);
    counts.insert("distinct_statements".into(), stack.statements.len() as u64);
    counts.insert("epochs".into(), m.after.epoch - m.before.epoch);
    counts.insert(
        "rows".into(),
        stack.data.dirty.db().catalog().total_rows() as u64,
    );
    counts.insert(
        "wal_bytes_total".into(),
        write_obs.iter().filter_map(|w| w.wal_growth).sum(),
    );
    samples.insert("read_ms".into(), read_ms.clone());
    if mix {
        samples.insert("write_ms".into(), write_ms.clone());
    }
    samples.insert("setup_s".into(), setup_times.samples());
    // Percentiles the fixed metric names promise need enough samples
    // beyond them; say so when a short run cannot support them.
    checks.record(
        "sample supports the named percentiles",
        true,
        format!(
            "read p99 {} ({} reads); write p90 {} ({} writes)",
            if read_ms.supports(99.0) {
                "supported"
            } else {
                "UNSUPPORTED"
            },
            read_ms.count(),
            if !mix || write_ms.supports(90.0) {
                "supported"
            } else {
                "UNSUPPORTED"
            },
            write_ms.count()
        ),
    );

    let by_source = |src: Source| {
        Samples::new(
            reads
                .iter()
                .filter(|r| r.source == src)
                .map(|r| r.latency.as_secs_f64() * 1e3)
                .collect(),
        )
    };
    let qps = acknowledged as f64 / m.wall.as_secs_f64();
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    if !traced {
        let mut values = vec![
            ("setup_s", setup_times.setup_s()),
            ("qps", qps),
            ("read_p50_ms", read_ms.median()),
            ("read_hit_p50_ms", by_source(Source::ResultCache).median()),
            (
                "read_geomean_ms",
                crate::samples::geomean(
                    &reads
                        .iter()
                        .map(|r| r.latency.as_secs_f64() * 1e3)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("read_p99_ms", read_ms.percentile(99.0)),
            ("fail_share", fail_share(failed, attempted)),
            ("peak_rss_mb", host::peak_rss_mb()),
        ];
        if mix {
            values.push(("write_p50_ms", write_ms.median()));
            values.push(("write_p90_ms", write_ms.percentile(90.0)));
            values.push(("wal_bytes_per_commit", wal_bytes_per_commit));
        }
        end_to_end = end_to_end_metrics(workload, &values);
    } else {
        let mut layer = BTreeMap::new();
        setup_times.layer_metrics(&mut layer);

        // engine.shared, from the handle's own counters across the
        // measured phase.
        let (b, a) = (&m.before, &m.after);
        layer.insert(
            "shared.result_hit_ratio".into(),
            ratio(
                a.result_hits - b.result_hits,
                a.result_misses - b.result_misses,
            ),
        );
        layer.insert(
            "shared.plan_hit_ratio".into(),
            ratio(a.plan_hits - b.plan_hits, a.plan_misses - b.plan_misses),
        );
        layer.insert(
            "shared.evictions".into(),
            (a.evictions - b.evictions) as f64,
        );
        layer.insert("shared.epochs".into(), (a.epoch - b.epoch) as f64);
        layer.insert("shared.admitted".into(), (a.admitted - b.admitted) as f64);
        layer.insert("shared.shed".into(), (a.shed - b.shed) as f64);

        // server, by the `source` each reply names.
        let hit = by_source(Source::ResultCache);
        layer.insert("server.hit_ms".into(), hit.median());
        layer.insert(
            "server.plan_hit_ms".into(),
            by_source(Source::PlanCache).median(),
        );
        layer.insert("server.miss_ms".into(), by_source(Source::Fresh).median());
        let total_ms = read_ms.sum() + write_ms.sum();
        layer.insert(
            "share.cache_served".into(),
            hit.count() as f64 / reads.len().max(1) as f64,
        );
        // Executor (and compile) time seen from outside: what each
        // executed reply cost beyond a cache hit.
        let beyond_hit: f64 = reads
            .iter()
            .filter(|r| r.source != Source::ResultCache)
            .map(|r| (r.latency.as_secs_f64() * 1e3 - hit.median()).max(0.0))
            .sum();
        layer.insert(
            "share.exec".into(),
            beyond_hit / total_ms.max(f64::MIN_POSITIVE),
        );

        // Probes on the live stack, after the counters were read.
        server_probe(&mut stack, &mut layer);
        let hot: Vec<String> = stack
            .statements
            .iter()
            .filter(|s| s.variant == 0)
            .map(|s| s.rewritten.clone())
            .collect();
        layers::shared_probe(&stack.shared, &hot, &mut layer);
        let wire_hit = layer["server.wire_hit_probe_ms"];
        layer.remove("server.wire_hit_probe_ms");
        layer.insert(
            "server.wire_overhead_ms".into(),
            wire_hit - layer["shared.session_hit_us"] / 1e3,
        );

        // The compile and executor layers on this dataset: what a miss pays.
        checks.all(
            "staged probe ran",
            3,
            layers::pipeline_probe(&stack.data.dirty, 3, &mut layer),
        );

        if mix {
            // The write path without durability or the wire: the same DML
            // stream through `Session::execute` on an in-memory twin.
            let twin =
                SharedDatabase::with_config(stack.data.dirty.db().clone(), SharedConfig::default());
            let commit = layers::run_dml(&twin, None, &stack.dml, &mut Recorder::off());
            layer.insert(
                "shared.commit_ms".into(),
                Samples::from_ms(&commit.latencies()).median(),
            );
            checks.all(
                "in-memory twin accepted the DML stream",
                stack.dml.len(),
                commit.failures,
            );
            if let Some(dir) = &stack.dir {
                layers::storage_probe(&stack.shared, dir.path(), &mut layer);
            }
            let checkpointed: Vec<Duration> = writes
                .iter()
                .filter(|w| w.checkpointed)
                .map(|w| w.latency)
                .collect();
            let plain: Vec<Duration> = writes
                .iter()
                .filter(|w| !w.checkpointed)
                .map(|w| w.latency)
                .collect();
            layer.insert(
                "storage.checkpoints".into(),
                (a.checkpoints - b.checkpoints) as f64,
            );
            layer.insert(
                "storage.checkpoint_write_ms".into(),
                Samples::from_ms(&checkpointed).median(),
            );
            layer.insert(
                "storage.plain_write_ms".into(),
                Samples::from_ms(&plain).median(),
            );
            // What durability and the wire add to a write, as a share of
            // all statement time.
            let commit_ms = layer["shared.commit_ms"];
            let extra: f64 = writes
                .iter()
                .map(|w| (w.latency.as_secs_f64() * 1e3 - commit_ms).max(0.0))
                .sum();
            layer.insert(
                "share.view_wal".into(),
                extra / total_ms.max(f64::MIN_POSITIVE),
            );
        }

        layer.insert(
            "trace.unattributed_share".into(),
            m.rec.unattributed_share(),
        );
        let reference = reference_wall.map_or(m.wall, |d| d).as_secs_f64();
        layer.insert(
            "trace.overhead_share".into(),
            m.wall.as_secs_f64() / reference - 1.0,
        );
        layer.insert("proc.peak_rss_mb".into(), host::peak_rss_mb());
        per_layer = per_layer_metrics(&layer);
        m.rec.write_trace(workload);
    }

    WorkloadReport {
        workload,
        seed,
        seconds,
        traced,
        attempted,
        failed,
        checks: checks.into_vec(),
        end_to_end,
        per_layer,
        counts,
        fingerprints,
        samples,
    }
}

/// Probes of the `server` layer on the live stack: `PING` round trip,
/// connection set-up, a result-cache hit over the wire for the 13 base
/// statements (the twin of `shared.session_hit_us`), and row encoding.
fn server_probe(stack: &mut Stack, out: &mut BTreeMap<String, f64>) {
    let client = &mut stack.clients[0];
    let pings: Vec<Duration> = (0..500)
        .map(|_| {
            let t0 = Instant::now();
            let _ = client.ping();
            t0.elapsed()
        })
        .collect();
    out.insert("server.ping_us".into(), Samples::from_us(&pings).median());

    let addr = stack.addr;
    let connects: Vec<Duration> = (0..50)
        .filter_map(|_| {
            let t0 = Instant::now();
            let mut c = Client::connect(addr).ok()?;
            c.ping().ok()?;
            let took = t0.elapsed();
            let _ = c.quit();
            Some(took)
        })
        .collect();
    out.insert(
        "server.connect_us".into(),
        Samples::from_us(&connects).median(),
    );

    let mut hits = Vec::new();
    let (mut encode, mut rows) = (Duration::ZERO, 0usize);
    let snap = stack.shared.snapshot();
    for s in stack.statements.iter().filter(|s| s.variant == 0) {
        let _ = client.query(&s.rewritten);
        for _ in 0..5 {
            let t0 = Instant::now();
            let reply = client.query(&s.rewritten);
            if reply.is_ok_and(|r| r.source == "result-cache") {
                hits.push(t0.elapsed());
            }
        }
        if let Ok(result) = snap
            .db()
            .prepare(&s.rewritten)
            .and_then(|p| p.query(snap.db()))
        {
            let t0 = Instant::now();
            for row in &result.rows {
                std::hint::black_box(conquer_server::proto::encode_row(row));
            }
            encode += t0.elapsed();
            rows += result.rows.len();
        }
    }
    out.insert(
        "server.wire_hit_probe_ms".into(),
        Samples::from_ms(&hits).median(),
    );
    out.insert(
        "server.encode_us_per_row".into(),
        encode.as_secs_f64() * 1e6 / rows.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            sf: 0.005,
            ops_per_client: 30,
            variants: 3,
            write_every: 0,
            pin_every: 2,
            setups: 1,
        }
    }

    #[test]
    fn a_corrupted_served_answer_fails_the_run() {
        let mut o = execute(3, false, tiny()).expect("set-up");
        // The first reply differs from what the engine computes in process.
        o.m.logs[0].reads[0].fingerprint ^= 1;
        let r = finish("served_read", 3, 1, false, tiny(), o);
        assert!(!r.correct());
        assert!(r
            .checks
            .iter()
            .any(|c| !c.passed && c.name.starts_with("served answer equals")));
    }
}
