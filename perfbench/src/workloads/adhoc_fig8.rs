//! `adhoc_fig8` — the paper's Figure 8 as a library call: the 13 TPC-H
//! templates, original and rewritten, SQL text in → answers out, one
//! caller, no caches, no disk. `engine.exec` does almost all of the work
//! here and `shared` / `wal` / `server` none, so executor, planner,
//! parallel-pipeline and canonical-`SUM` changes show on this workload and
//! nowhere else. Its set-up runs the generator stage by stage, so
//! `setup_s` here *is* the paper's Figure 7.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use conquer_core::{CleanAnswers, DirtyDatabase};
use conquer_datagen::queries::QUERY_IDS;
use conquer_storage::Row;

use crate::fingerprint;
use crate::host;
use crate::inputs::{self, variant_sql};
use crate::layers::{self, PipelineProbe};
use crate::report::{end_to_end_metrics, per_layer_metrics, Checks, WorkloadReport};
use crate::samples::{geomean, Samples};
use crate::trace::Recorder;
use crate::workloads::{fail_share, probability_ok, SetupTimes};

/// Input sizes. Only `passes` scales with `--seconds`; the data never does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// TPC-H-lite scale factor.
    pub sf: f64,
    /// Timed passes over the 13 rewritten templates (one more runs first,
    /// untimed).
    pub passes: usize,
    /// The 13 original templates run on every `original_every`-th timed
    /// pass (and on the warm-up): they only feed `rewrite_overhead`, and
    /// the time they free buys more samples of what every other metric
    /// measures.
    pub original_every: usize,
    /// Times the set-up is repeated (median reported).
    pub setups: usize,
}

impl Sizes {
    /// Sizes for a `--seconds` budget: on the 2-core reference host a
    /// rewritten pass takes ≈ 1.1 s and an original pass ≈ 1.25 s, so three
    /// timed passes with one original pass among them take ≈ 4.6 s.
    pub fn for_seconds(seconds: u64) -> Sizes {
        Sizes {
            sf: 0.2,
            passes: (seconds as usize * 13 / 20).max(3),
            original_every: 3,
            setups: 3,
        }
    }
}

/// One template's repeated measurements.
#[derive(Default)]
struct Template {
    rewritten: Vec<Duration>,
    original: Vec<Duration>,
    staged: Vec<Duration>,
    /// Fingerprint of every one-call answer, warm-up included.
    rewritten_fps: Vec<u64>,
    /// Fingerprint of every original-query result.
    original_fps: Vec<u64>,
    /// Fingerprint of every staged-pipeline answer.
    staged_fps: Vec<u64>,
    answers: usize,
    /// First probability outside `(0, 1]`, if any.
    bad_probability: Option<String>,
    /// First answer that is not a tuple of the original, if any.
    not_subset: Option<String>,
}

/// Everything the measured phase saw; [`report`] judges it.
pub struct Observed {
    templates: Vec<Template>,
    attempted: u64,
    errors: Vec<String>,
    setup: SetupTimes,
    rec: Recorder,
    probe: PipelineProbe,
    order: Vec<usize>,
    rows: u64,
}

fn one_call(dirty: &DirtyDatabase, sql: &str) -> Result<(CleanAnswers, Duration), String> {
    let t0 = Instant::now();
    let answers = dirty.clean_answers(sql);
    let took = t0.elapsed();
    answers.map(|a| (a, took)).map_err(|e| e.to_string())
}

fn original(dirty: &DirtyDatabase, sql: &str) -> Result<(Vec<String>, Vec<Row>, Duration), String> {
    let db = dirty.db();
    let t0 = Instant::now();
    let result = db.prepare(sql).and_then(|s| s.query(db));
    let took = t0.elapsed();
    result
        .map(|r| (r.columns.clone(), r.rows, took))
        .map_err(|e| e.to_string())
}

/// Set up and run the measured phase.
pub fn observe(seed: u64, traced: bool, sizes: Sizes) -> Observed {
    let mut setup = SetupTimes::default();
    let mut data = None;
    for _ in 0..if traced { 1 } else { sizes.setups.max(1) } {
        drop(data.take());
        let t0 = Instant::now();
        let staged = inputs::generate(sizes.sf, inputs::DATA_SEED);
        setup.push(t0.elapsed(), &staged);
        data = Some(staged);
    }
    let dirty = data.expect("at least one set-up ran").dirty;

    let sqls: Vec<String> = QUERY_IDS.iter().map(|&id| variant_sql(id, 0)).collect();
    let mut o = Observed {
        templates: QUERY_IDS.iter().map(|_| Template::default()).collect(),
        attempted: 0,
        errors: Vec::new(),
        setup,
        rec: Recorder::new(traced, Instant::now()),
        probe: PipelineProbe::default(),
        order: Vec::new(),
        rows: dirty.db().catalog().total_rows() as u64,
    };

    // Pass-major order: pass 0 is the untimed warm-up. The seed shuffles
    // the templates within each pass (what runs before a template changes
    // the cache and allocator state it meets). Within a pass each template
    // runs rewritten then (on the passes that run it) original, so slow
    // drift lands on both sides of every ratio alike.
    for pass in 0..=sizes.passes {
        let timed = pass > 0;
        let with_original = !traced && pass % sizes.original_every.max(1) == 0;
        let order = inputs::template_order(seed, pass, sqls.len());
        for &slot in &order {
            let (id, sql) = (QUERY_IDS[slot], &sqls[slot]);
            let t = &mut o.templates[slot];
            o.attempted += 1;
            match one_call(&dirty, sql) {
                Err(e) => o.errors.push(format!("Q{id}r failed: {e}")),
                Ok((answers, took)) => {
                    if timed {
                        t.rewritten.push(took);
                    }
                    t.rewritten_fps
                        .push(fingerprint::answers(&answers.columns, &answers.rows));
                    // Probabilities and containment in the original are
                    // checked once, on the warm-up.
                    if !timed {
                        t.answers = answers.len();
                        t.bad_probability = answers
                            .rows
                            .iter()
                            .find(|(_, p)| !probability_ok(*p))
                            .map(|(_, p)| format!("Q{id}r probability {p:?}"));
                        t.not_subset = match original(&dirty, sql) {
                            Err(e) => Some(format!("Q{id} failed: {e}")),
                            Ok((_, rows, _)) => {
                                let distinct: BTreeSet<String> =
                                    rows.iter().map(|r| format!("{r:?}")).collect();
                                answers
                                    .rows
                                    .iter()
                                    .find(|(r, _)| !distinct.contains(&format!("{r:?}")))
                                    .map(|(r, _)| {
                                        format!("Q{id}r answer {r:?} is not an original tuple")
                                    })
                            }
                        };
                    }
                }
            }
            if with_original {
                o.attempted += 1;
                match original(&dirty, sql) {
                    Err(e) => o.errors.push(format!("Q{id} failed: {e}")),
                    Ok((columns, rows, took)) => {
                        if timed {
                            t.original.push(took);
                        }
                        t.original_fps.push(fingerprint::rows(&columns, &rows));
                    }
                }
            }
        }
        o.order.extend(order);
        if traced && timed {
            // The traced request: the same 13 statements taken apart into
            // one public call per layer.
            let base = (pass * QUERY_IDS.len()) as u64;
            let before = o.rec.spans().len();
            match layers::staged_pass(&dirty, &mut o.rec, base, &mut o.probe) {
                Err(e) => o.errors.push(e),
                Ok(answers) => {
                    for (slot, a) in answers.iter().enumerate() {
                        o.templates[slot]
                            .staged_fps
                            .push(fingerprint::answers(&a.columns, &a.rows));
                    }
                    for s in &o.rec.spans()[before..] {
                        if s.name == "request" {
                            o.templates[(s.request - base) as usize]
                                .staged
                                .push(Duration::from_nanos(s.duration_ns()));
                        }
                    }
                }
            }
            if let Err(e) = layers::prepare_and_original_pass(&dirty, &mut o.probe) {
                o.errors.push(e);
            }
        }
    }
    o
}

/// Check what was observed and compute the metrics.
pub fn report(seed: u64, seconds: u64, traced: bool, sizes: Sizes, o: Observed) -> WorkloadReport {
    let mut checks = Checks::default();
    let failed = o.errors.len() as u64;
    checks.all(
        "no statement failed or was refused",
        o.attempted as usize,
        o.errors.clone(),
    );
    let differing = |fps: &[u64], reference: Option<u64>| -> usize {
        fps.iter().filter(|&&fp| Some(fp) != reference).count()
    };
    let mut repeats = Vec::new();
    let mut staged = Vec::new();
    for (t, id) in o.templates.iter().zip(QUERY_IDS) {
        let first = t.rewritten_fps.first().copied();
        for (label, n) in [
            (format!("Q{id}r"), differing(&t.rewritten_fps, first)),
            (
                format!("Q{id}"),
                differing(&t.original_fps, t.original_fps.first().copied()),
            ),
        ] {
            if n > 0 {
                repeats.push(format!("{label}: {n} repetitions differ from the first"));
            }
        }
        let n = differing(&t.staged_fps, first);
        if n > 0 {
            staged.push(format!(
                "Q{id}r: {n} staged answers differ from clean_answers"
            ));
        }
    }
    let count = |pick: fn(&Template) -> usize| o.templates.iter().map(pick).sum::<usize>();
    checks.all(
        "fingerprint identical across repetitions",
        count(|t| t.rewritten_fps.len() + t.original_fps.len()),
        repeats,
    );
    checks.all(
        "every probability in (0, 1]",
        count(|t| t.answers),
        o.templates
            .iter()
            .filter_map(|t| t.bad_probability.clone())
            .collect(),
    );
    checks.all(
        "rewritten answers within the original's distinct projection",
        QUERY_IDS.len(),
        o.templates
            .iter()
            .filter_map(|t| t.not_subset.clone())
            .collect(),
    );
    if traced {
        checks.all(
            "staged pipeline fingerprint-matches the one-call path",
            count(|t| t.staged_fps.len()),
            staged,
        );
    }

    let mut fingerprints = BTreeMap::new();
    let mut samples = BTreeMap::new();
    let mut counts = BTreeMap::new();
    for (t, id) in o.templates.iter().zip(QUERY_IDS) {
        if let Some(&fp) = t.rewritten_fps.first() {
            fingerprints.insert(format!("q{id}r"), fingerprint::hex(fp));
        }
        if let Some(&fp) = t.original_fps.first() {
            fingerprints.insert(format!("q{id}"), fingerprint::hex(fp));
        }
        samples.insert(format!("q{id}r_ms"), Samples::from_ms(&t.rewritten));
        if !traced {
            samples.insert(format!("q{id}_ms"), Samples::from_ms(&t.original));
        }
        counts.insert(format!("answers.q{id}r"), t.answers as u64);
    }
    let mut stream = fingerprint::Fnv::default();
    for &slot in &o.order {
        stream.bytes(&(slot as u64).to_le_bytes());
    }
    fingerprints.insert("op_stream".into(), fingerprint::hex(stream.finish()));
    counts.insert("passes".into(), sizes.passes as u64);
    counts.insert("statements".into(), o.attempted);
    counts.insert("rows".into(), o.rows);
    samples.insert("setup_s".into(), o.setup.samples());

    let medians = |pick: fn(&Template) -> &Vec<Duration>| -> Vec<f64> {
        o.templates
            .iter()
            .map(|t| Samples::from_ms(pick(t)).median())
            .collect()
    };
    let rw = medians(|t| &t.rewritten);
    let clean_pass_ms: f64 = rw.iter().sum();

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    if traced {
        let mut layer = BTreeMap::new();
        let mut probe = o.probe;
        o.setup.layer_metrics(&mut layer);
        probe.absorb_spans(&o.rec, 0);
        probe.metrics(&mut layer);
        let staged_pass_ms: f64 = medians(|t| &t.staged).iter().sum();
        layer.insert(
            "trace.unattributed_share".into(),
            o.rec.unattributed_share(),
        );
        layer.insert(
            "trace.overhead_share".into(),
            staged_pass_ms / clean_pass_ms - 1.0,
        );
        let totals = o.rec.totals_ms();
        layer.insert(
            "share.exec".into(),
            totals.get("engine.exec").copied().unwrap_or(0.0)
                / totals.get("request").copied().unwrap_or(1.0),
        );
        layer.insert("proc.peak_rss_mb".into(), host::peak_rss_mb());
        per_layer = per_layer_metrics(&layer);
        o.rec.write_trace("adhoc_fig8");
    } else {
        let orig = medians(|t| &t.original);
        let ratios: Vec<f64> = rw.iter().zip(&orig).map(|(r, o)| r / o).collect();
        end_to_end = end_to_end_metrics(
            "adhoc_fig8",
            &[
                ("setup_s", o.setup.setup_s()),
                ("clean_pass_ms", clean_pass_ms),
                ("clean_per_s", QUERY_IDS.len() as f64 * 1e3 / clean_pass_ms),
                ("clean_geomean_ms", geomean(&rw)),
                ("clean_worst_ms", rw.iter().copied().fold(0.0, f64::max)),
                ("rewrite_overhead", geomean(&ratios)),
                ("orig_geomean_ms", geomean(&orig)),
                ("fail_share", fail_share(failed, o.attempted)),
                ("peak_rss_mb", host::peak_rss_mb()),
            ],
        );
    }

    WorkloadReport {
        workload: "adhoc_fig8",
        seed,
        seconds,
        traced,
        attempted: o.attempted,
        failed,
        checks: checks.into_vec(),
        end_to_end,
        per_layer,
        counts,
        fingerprints,
        samples,
    }
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, traced: bool, sizes: Sizes) -> WorkloadReport {
    report(seed, seconds, traced, sizes, observe(seed, traced, sizes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            sf: 0.005,
            passes: 2,
            original_every: 2,
            setups: 1,
        }
    }

    #[test]
    fn a_corrupted_answer_fails_the_run() {
        let mut o = observe(5, false, tiny());
        // One repetition of one template answers differently: one flipped
        // bit, as a last-ulp change in one probability would give.
        o.templates[4].rewritten_fps[1] ^= 1;
        let r = report(5, 1, false, tiny(), o);
        assert!(!r.correct());
        let failed: Vec<&str> = r
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(failed, ["fingerprint identical across repetitions"]);
        assert!(r.contract_line().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn a_staged_answer_that_differs_from_the_one_call_path_fails_the_run() {
        let mut o = observe(5, true, tiny());
        o.templates[0].staged_fps[0] ^= 1 << 63;
        let r = report(5, 1, true, tiny(), o);
        assert!(r
            .checks
            .iter()
            .any(|c| !c.passed && c.name.starts_with("staged pipeline")));
    }
}
