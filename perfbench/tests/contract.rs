//! The benchmark against its own contract, at sf = 0.005 with a handful of
//! operations: every declared metric is emitted with its unit, every
//! output check passes, one seed gives one op stream and one set of
//! fingerprints and exact counts, another seed gives another stream, and
//! ambient `CONQUER_*` configuration aborts the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use conquer_perfbench::driver::RUN_SECONDS;
use conquer_perfbench::json::Json;
use conquer_perfbench::metrics::{self, legal_name, END_TO_END, UNIVERSAL, WORKLOADS};
use conquer_perfbench::report::WorkloadReport;
use conquer_perfbench::workloads::{adhoc_fig8, durable_dml, served};

const SF: f64 = 0.005;

fn run(workload: &str, seed: u64, traced: bool) -> WorkloadReport {
    let served_sizes = |write_every| served::Sizes {
        sf: SF,
        ops_per_client: 36,
        variants: 3,
        write_every,
        pin_every: 2,
        setups: 2,
    };
    match workload {
        "adhoc_fig8" => adhoc_fig8::run(
            seed,
            1,
            traced,
            adhoc_fig8::Sizes {
                sf: SF,
                passes: 2,
                original_every: 2,
                setups: 2,
            },
        ),
        "served_read" => served::run(false, seed, 1, traced, served_sizes(0)),
        "served_mix" => served::run(true, seed, 1, traced, served_sizes(6)),
        "durable_dml" => durable_dml::run(
            seed,
            1,
            traced,
            durable_dml::Sizes {
                sf: SF,
                statements: 10,
                setups: 2,
            },
        ),
        other => panic!("unknown workload {other}"),
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn assert_all_checks_pass(r: &WorkloadReport) {
    for c in &r.checks {
        assert!(c.passed, "{}: {} — {}", r.workload, c.name, c.detail);
    }
    assert!(
        r.correct() && r.failed == 0 && r.attempted > 0,
        "{}",
        r.workload
    );
}

/// `name -> unit` of a metric list in `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .expect(key)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue_and_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_i64),
        Some(RUN_SECONDS as i64)
    );

    let workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.fields().len(), 2);
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let e2e = doc.get("end_to_end").expect("end_to_end").items();
    assert_eq!(e2e.len(), UNIVERSAL.len());
    for (m, u) in e2e.iter().zip(UNIVERSAL) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(u.name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(u.unit));
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(u.better.as_str())
        );
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(u.bound));
        assert_eq!(m.fields().len(), 4);
    }
    let layers = doc.get("per_layer").expect("per_layer").items();
    let catalogue = metrics::per_layer();
    assert_eq!(layers.len(), catalogue.len());
    for (m, c) in layers.iter().zip(&catalogue) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(c.name.as_str()));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(c.unit));
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(c.better.as_str())
        );
        assert_eq!(m.fields().len(), 3);
    }
    for (name, unit) in declared(&doc, "end_to_end")
        .into_iter()
        .chain(declared(&doc, "per_layer"))
    {
        assert!(legal_name(&name), "{name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    let paths: Vec<&str> = doc
        .get("paths")
        .expect("paths")
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perfbench"]);
}

#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
    let doc = benchmark_json();
    let universal = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    for workload in WORKLOADS {
        // Untraced: the workload's own end-to-end vocabulary, and the
        // contract line carrying exactly the universal list.
        let r = run(workload, 7, false);
        assert_all_checks_pass(&r);
        let own: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.applies_to(workload))
            .map(|m| m.name)
            .collect();
        let got: Vec<&str> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, own, "{workload}");
        let line = Json::parse(&r.contract_line()).expect("result line parses");
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
        let metrics = line.get("metrics").expect("metrics").fields();
        assert_eq!(metrics.len(), universal.len(), "{workload}");
        for ((name, m), (want, unit)) in metrics.iter().zip(&universal) {
            assert_eq!(name, want, "{workload}");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}");
        }

        // Traced: every per-layer name, in catalogue order, finite.
        let t = run(workload, 7, true);
        assert_all_checks_pass(&t);
        let line = Json::parse(&t.contract_line()).expect("result line parses");
        let metrics = line.get("metrics").expect("metrics").fields();
        assert_eq!(metrics.len(), layers.len(), "{workload}");
        for ((name, m), (want, unit)) in metrics.iter().zip(&layers) {
            assert_eq!(name, want, "{workload}");
            assert!(legal_name(name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            let v = m.get("value").and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{workload} {name} = {v:?}");
        }
        assert!(t.per_layer("sql.parse_us").unwrap() > 0.0, "{workload}");
        assert!(
            t.per_layer("datagen.generate_ms").unwrap() > 0.0,
            "{workload}"
        );
    }
}

#[test]
fn layers_a_workload_never_enters_read_zero() {
    let adhoc = run("adhoc_fig8", 7, true);
    for name in [
        "server.ping_us",
        "wal.commit_us",
        "view.maintain_ms",
        "shared.clone_ms",
    ] {
        assert_eq!(adhoc.per_layer(name), Some(0.0), "{name}");
    }
    assert!(adhoc.per_layer("share.exec").unwrap() > 0.5);
    assert!(adhoc.per_layer("trace.unattributed_share").unwrap() < 0.10);

    let durable = run("durable_dml", 7, true);
    assert_eq!(durable.per_layer("server.ping_us"), Some(0.0));
    assert_eq!(durable.per_layer("share.exec"), Some(0.0));
    for name in [
        "wal.commit_us",
        "view.create_ms",
        "view.deltas_applied",
        "storage.dir_bytes",
    ] {
        assert!(durable.per_layer(name).unwrap() > 0.0, "{name}");
    }
    let read = run("served_read", 7, true);
    assert_eq!(read.per_layer("view.maintain_ms"), Some(0.0));
    assert_eq!(read.per_layer("shared.epochs"), Some(0.0));
    assert!(read.per_layer("server.ping_us").unwrap() > 0.0);
    assert!(read.per_layer("share.cache_served").unwrap() > 0.0);
    let mix = run("served_mix", 7, true);
    assert_eq!(mix.per_layer("shared.epochs"), Some(6.0));
    assert!(mix.per_layer("shared.commit_ms").unwrap() > 0.0);
}

#[test]
fn one_seed_one_stream_another_seed_another_stream() {
    for workload in WORKLOADS {
        let a = run(workload, 21, false);
        let b = run(workload, 21, false);
        assert_eq!(a.fingerprints, b.fingerprints, "{workload}");
        let exact = |r: &WorkloadReport| -> BTreeMap<String, u64> { r.counts.clone() };
        assert_eq!(exact(&a), exact(&b), "{workload}");
        assert_eq!(
            (a.attempted, a.failed),
            (b.attempted, b.failed),
            "{workload}"
        );
        if workload != "adhoc_fig8" {
            assert_eq!(
                a.end_to_end("wal_bytes_per_commit"),
                b.end_to_end("wal_bytes_per_commit"),
                "{workload}"
            );
        }
        let c = run(workload, 22, false);
        assert_all_checks_pass(&c);
        assert_ne!(
            a.fingerprints["op_stream"], c.fingerprints["op_stream"],
            "{workload}: a different seed must give a different op stream"
        );
    }
}

fn bench(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("running the bench binary")
}

#[test]
fn ambient_conquer_configuration_aborts_the_run() {
    let out = bench(
        &[
            "--workload",
            "served_read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[("CONQUER_RESULT_CACHE", "0")],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("CONQUER_RESULT_CACHE"), "{err}");
}

#[test]
fn the_command_line_is_checked() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "adhoc_fig8",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "adhoc_fig8",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &[
            "--workload",
            "adhoc_fig8",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "adhoc_fig8"][..],
        &["diff", "only-one.json"][..],
        &[][..],
    ] {
        let out = bench(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
