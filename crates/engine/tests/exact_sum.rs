//! Property test for `ExactSum` against an independent reference: a
//! Shewchuk-style exact summation (the algorithm behind Python's
//! `math.fsum`: a non-overlapping expansion of partials, then one
//! correctly rounded collapse).
//!
//! Inputs are random term multisets that mix subnormals, ±0, `1e-17`
//! next to `0.7`, magnitudes near `f64::MAX`, NaN and ±∞. For each one the
//! test demands that every order of the terms gives identical encodings
//! and identical `value().to_bits()`, that the value matches the reference,
//! that adding and then retracting any subset restores the encoding byte
//! for byte, and that `decode(encode(s)) == s`.
//!
//! The executor is one more input: over the finite families, an ad-hoc
//! `SUM` in memory, a `GROUP BY` forced to spill, a maintained view and
//! `AVG` (the rounded sum over the count) must each give the reference's
//! bits.
//!
//! A view's fold merges exact partial sums, one per (group, sign) of a
//! delta query, through the aggregate's `COUNT` and `SUM` states: signed
//! multisets split into random partials must merge to the term-by-term
//! sum and count, byte for byte.

use conquer_engine::exact::ExactSum;
use conquer_engine::exec::{Count, Sum};
use conquer_engine::{Database, ExecLimits, QueryResult};
use conquer_storage::Value;

/// Deterministic xorshift, so a failure reproduces run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One random term. `huge` selects the family with magnitudes near
/// `f64::MAX` (and no subnormals, see [`reference`]).
fn term(rng: &mut Rng, huge: bool) -> f64 {
    let sign = if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
    let x = match rng.below(12) {
        0 => 0.0,
        1 => -0.0,
        2 => 0.7,
        3 => 1e-17,
        4 => 0.1,
        5 => (rng.next() >> 12) as f64 / (1u64 << 52) as f64, // a probability
        6 if huge => f64::MAX / f64::from_bits(0x3ff0_0000_0000_0000 | (rng.next() >> 12)),
        6 => f64::from_bits(rng.next() & ((1 << 52) - 1)), // a subnormal
        7 if huge => f64::MAX,
        7 => f64::MIN_POSITIVE,
        8 => {
            // Any normal magnitude the family allows.
            let top: u64 = if huge { 0x7fe } else { 0x7c0 };
            // Scaled by 2^-600, the huge family must stay normal.
            let lowest: u64 = if huge { 0x300 } else { 1 };
            let exp = lowest + rng.next() % (top - lowest + 1);
            f64::from_bits(exp << 52 | (rng.next() >> 12))
        }
        9 => match rng.below(3) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        },
        _ => (rng.below(1000) as f64) / 1024.0, // dyadic
    };
    sign * x
}

/// Correctly rounded sum of finite terms by Shewchuk's algorithm, as in
/// CPython's `math.fsum`. Valid while no partial overflows, so terms near
/// `f64::MAX` are summed scaled down by 2^-600 (exact for every term of
/// that family, which has no subnormals) and scaled back up once. An exact
/// zero is `+0.0`.
fn reference(terms: &[f64], scaled: bool) -> f64 {
    let scale = if scaled { 2f64.powi(-600) } else { 1.0 };
    let mut partials: Vec<f64> = Vec::new();
    for &t in terms {
        let mut x = t * scale;
        let mut i = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        partials.truncate(i);
        partials.push(x);
    }
    // Collapse from the top; a half-way residue is broken by the sign of
    // the next partial down.
    let mut hi = 0.0;
    if let Some(mut n) = partials.len().checked_sub(1) {
        hi = partials[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = partials[n];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
    }
    let hi = hi / scale;
    if hi == 0.0 {
        0.0
    } else {
        hi
    }
}

/// The expected value: the IEEE rules for the non-finite terms, else the
/// reference sum of the finite ones.
fn expected(terms: &[f64], scaled: bool) -> Option<f64> {
    if terms.is_empty() {
        return None;
    }
    let nan = terms.iter().any(|t| t.is_nan());
    let pos = terms.contains(&f64::INFINITY);
    let neg = terms.contains(&f64::NEG_INFINITY);
    Some(match (nan, pos, neg) {
        (true, _, _) | (_, true, true) => f64::NAN,
        (_, true, false) => f64::INFINITY,
        (_, false, true) => f64::NEG_INFINITY,
        _ => reference(terms, scaled),
    })
}

fn sum(terms: &[f64]) -> ExactSum {
    let mut s = ExactSum::new();
    for &t in terms {
        s.add(t);
    }
    s
}

fn bits(v: Option<f64>) -> Option<u64> {
    // Every NaN is the same answer.
    v.map(|x| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    })
}

/// Every permutation of `terms` (Heap's algorithm), for small multisets.
fn permutations(terms: &[f64]) -> Vec<Vec<f64>> {
    fn heap(k: usize, a: &mut Vec<f64>, out: &mut Vec<Vec<f64>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, a, out);
            let j = if k.is_multiple_of(2) { i } else { 0 };
            a.swap(j, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(terms.len(), &mut terms.to_vec(), &mut out);
    out
}

#[test]
fn exact_sum_matches_the_reference_in_every_order() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for case in 0..3000 {
        let huge = case % 3 == 0;
        let len = rng.below(if case % 2 == 0 { 7 } else { 40 });
        let terms: Vec<f64> = (0..len).map(|_| term(&mut rng, huge)).collect();
        let base = sum(&terms);
        let ctx = format!("case {case}: {terms:?}");

        assert_eq!(bits(base.value()), bits(expected(&terms, huge)), "{ctx}");
        assert_eq!(
            ExactSum::decode(&base.encode()),
            Some(base.clone()),
            "{ctx}"
        );

        let orders = if terms.len() <= 6 {
            permutations(&terms)
        } else {
            (0..24)
                .map(|_| {
                    let mut t = terms.clone();
                    rng.shuffle(&mut t);
                    t
                })
                .collect()
        };
        for order in orders {
            let s = sum(&order);
            assert_eq!(s.encode(), base.encode(), "{ctx} reordered {order:?}");
            assert_eq!(
                bits(s.value()),
                bits(base.value()),
                "{ctx} reordered {order:?}"
            );
        }

        // Add then retract a random subset (in a different order): the
        // prior encoding comes back byte for byte.
        let extra: Vec<f64> = (0..rng.below(8)).map(|_| term(&mut rng, huge)).collect();
        let mut s = base.clone();
        for &t in &extra {
            s.add(t);
        }
        let mut back = extra.clone();
        rng.shuffle(&mut back);
        for &t in &back {
            s.retract(t);
        }
        assert_eq!(s.encode(), base.encode(), "{ctx} after +/- {extra:?}");

        // Retracting a subset of the original terms equals summing the rest.
        let keep = rng.next();
        let mut s = base.clone();
        let mut rest = Vec::new();
        for (i, &t) in terms.iter().enumerate() {
            if keep >> (i % 64) & 1 == 0 {
                s.retract(t);
            } else {
                rest.push(t);
            }
        }
        assert_eq!(s.encode(), sum(&rest).encode(), "{ctx} minus a subset");
    }
}

#[test]
fn long_probability_sums_round_once() {
    // 10 000 products of probabilities: the fold order of a plain `+=`
    // changes the last bits, the exact sum's does not.
    let mut rng = Rng(42);
    let terms: Vec<f64> = (0..10_000)
        .map(|_| {
            let p = |r: &mut Rng| (r.below(1 << 20) as f64 + 1.0) / (1u64 << 20) as f64;
            p(&mut rng) * p(&mut rng) * 0.1
        })
        .collect();
    let forward = sum(&terms);
    let mut shuffled = terms.clone();
    rng.shuffle(&mut shuffled);
    assert_eq!(sum(&shuffled).encode(), forward.encode());
    assert_eq!(
        bits(forward.value()),
        bits(Some(reference(&terms, false))),
        "exact sum differs from the reference"
    );
}

/// A run of `sql` under `limits`.
fn run(db: &Database, sql: &str, limits: ExecLimits) -> QueryResult {
    db.prepare(sql)
        .unwrap()
        .query_with(db, &db.exec_context(limits))
        .unwrap()
}

/// `(group, bits of each float after it)` per row.
fn float_bits(r: &QueryResult) -> Vec<(i64, Vec<u64>)> {
    let cell = |v: &Value| match v {
        Value::Float(x) => x.to_bits(),
        other => panic!("expected a float, got {other:?}"),
    };
    r.rows
        .iter()
        .map(|row| match &row[..] {
            [Value::Int(g), rest @ ..] => (*g, rest.iter().map(cell).collect()),
            other => panic!("unexpected row {other:?}"),
        })
        .collect()
}

/// Group 0 is ten `0.1`s, whose sum folded left to right is
/// `0.9999999999999999`; groups `1..` are random finite families. Each
/// group's terms are split between `t` and `staging`, and the rows of
/// all groups are interleaved, so a spilled aggregate adds terms to the
/// groups it keeps in memory all through its input, between the tuples
/// it writes to partitions for the others.
fn executor_cases() -> (Database, Vec<Vec<f64>>) {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut cases = vec![vec![0.1; 10]];
    for case in 1..400 {
        let huge = case % 3 == 0;
        let len = 1 + rng.below(if case % 2 == 0 { 7 } else { 40 });
        let finite = |rng: &mut Rng| loop {
            let t = term(rng, huge);
            if t.is_finite() {
                break t;
            }
        };
        cases.push((0..len).map(|_| finite(&mut rng)).collect());
    }
    let mut db = Database::new();
    db.set_limits(ExecLimits::none());
    db.execute_script(
        "CREATE TABLE t (g INTEGER, x DOUBLE); CREATE TABLE staging (g INTEGER, x DOUBLE)",
    )
    .unwrap();
    let longest = cases.iter().map(Vec::len).max().unwrap();
    for i in 0..longest {
        for (g, terms) in cases.iter().enumerate() {
            if let Some(&x) = terms.get(i) {
                let table = if i < terms.len() / 2 { "t" } else { "staging" };
                let row = vec![Value::Int(g as i64), Value::Float(x)];
                db.catalog_mut()
                    .table_mut(table)
                    .unwrap()
                    .insert(row)
                    .unwrap();
            }
        }
    }
    (db, cases)
}

#[test]
fn every_execution_path_sums_to_the_reference() {
    let (mut db, cases) = executor_cases();
    // The view is created over half of each group and maintained through
    // the other half.
    db.execute_script(
        "CREATE MATERIALIZED VIEW v AS SELECT g, SUM(x) AS s FROM t GROUP BY g; \
         INSERT INTO t SELECT g, x FROM staging",
    )
    .unwrap();
    let want: Vec<(i64, Vec<u64>)> = cases
        .iter()
        .enumerate()
        .map(|(g, terms)| {
            let sum = expected(terms, g % 3 == 0 && g > 0).unwrap();
            let avg = sum / terms.len() as f64;
            (g as i64, vec![sum.to_bits(), avg.to_bits()])
        })
        .collect();
    let sql = "SELECT g, SUM(x), AVG(x) FROM t GROUP BY g ORDER BY g";
    let in_memory = run(&db, sql, ExecLimits::none());
    assert_eq!(float_bits(&in_memory), want, "in memory");

    let spilled = run(&db, sql, ExecLimits::none().with_mem_bytes(64 * 1024));
    assert!(spilled.stats().unwrap().disk_charged > 0, "did not spill");
    assert_eq!(float_bits(&spilled), want, "spilled");

    let view = run(&db, "SELECT g, s FROM v ORDER BY g", ExecLimits::none());
    let sums: Vec<(i64, Vec<u64>)> = want.iter().map(|(g, b)| (*g, b[..1].to_vec())).collect();
    assert_eq!(float_bits(&view), sums, "maintained view");

    for g in [0, 1, 2, 3] {
        let global = run(
            &db,
            &format!("SELECT {g}, SUM(x), AVG(x) FROM t WHERE g = {g}"),
            ExecLimits::none(),
        );
        assert_eq!(float_bits(&global), want[g..=g], "global SUM of group {g}");
    }
    // Ten 0.1s are exactly 1.0 on every path.
    assert_eq!(want[0].1[0], 1.0f64.to_bits());
}

/// One signed term of a partial-merge case: `None` is a NULL term, which
/// counts but adds nothing.
type Signed = (Option<f64>, bool);

/// A term of [`term`]'s families, or NULL, sometimes scaled 2^±300 away
/// from the others.
fn nullable_term(rng: &mut Rng) -> Option<f64> {
    let x = term(rng, false);
    match rng.below(8) {
        0 => None,
        1 => Some(x * 2f64.powi(300)),
        2 => Some(x * 2f64.powi(-300)),
        _ => Some(x),
    }
}

/// The exact sum and count of `terms` folded one at a time.
fn term_by_term(terms: &[Signed]) -> (ExactSum, i64) {
    let mut s = ExactSum::new();
    let mut count = 0;
    for &(x, added) in terms {
        count += if added { 1 } else { -1 };
        match x {
            Some(x) if added => s.add(x),
            Some(x) => s.retract(x),
            None => {}
        }
    }
    (s, count)
}

#[test]
fn partials_merge_to_the_term_by_term_sum() {
    let mut rng = Rng(0x5851_f42d_4c95_7f2d);
    for case in 0..3000 {
        // Added terms, then a random sub-multiset of them retracted, in
        // one shuffled stream, as a delta's signed rows arrive.
        let added: Vec<Option<f64>> = (0..rng.below(40))
            .map(|_| nullable_term(&mut rng))
            .collect();
        let keep = rng.next();
        let retracted = added
            .iter()
            .enumerate()
            .filter(|(i, _)| keep >> (i % 64) & 1 == 0);
        let mut terms: Vec<Signed> = added.iter().map(|&x| (x, true)).collect();
        terms.extend(retracted.map(|(_, &x)| (x, false)));
        rng.shuffle(&mut terms);
        let (whole, count) = term_by_term(&terms);

        // Random runs of the stream, each split by sign into two partials
        // (the view's (group, sign) groups), merged in stream order through
        // the aggregate's `COUNT` and `SUM` states, as the fold merges them.
        let mut merged = Sum::default();
        let mut merged_count = Count::default();
        let mut rest = &terms[..];
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(1 + rng.below(rest.len()));
            rest = tail;
            for sign in [true, false] {
                let part: Vec<Signed> = run
                    .iter()
                    .filter(|t| t.1 == sign)
                    .map(|&(x, _)| (x, true))
                    .collect();
                let (sum, n) = term_by_term(&part);
                let decoded = Sum::decode(&sum.encode()).unwrap();
                if sign {
                    merged.merge(&decoded);
                    merged_count.merge(&Count(n));
                } else {
                    merged.retract(&decoded);
                    merged_count.retract(&Count(n));
                }
            }
        }
        let ctx = format!("case {case}: {terms:?}");
        let merged = merged.exact();
        assert_eq!(merged, &whole, "{ctx}");
        assert_eq!(merged.encode(), whole.encode(), "{ctx}");
        assert_eq!(bits(merged.value()), bits(whole.value()), "{ctx}");
        assert_eq!(merged_count, Count(count), "{ctx}");
    }
}

/// `0.0` and `-0.0` are two groups of a maintained view, as they are of
/// the executor's `GROUP BY`: the fold finds a stored group by `Value`'s
/// order, which tells them apart just as the aggregate's key equality
/// does.
#[test]
fn a_view_keeps_signed_zeros_apart() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE g (x DOUBLE, prob DOUBLE);
         INSERT INTO g VALUES (0.0, 0.5), (-0.0, 0.25), (1.0, 0.125);
         CREATE MATERIALIZED VIEW v AS SELECT x, SUM(prob) AS p FROM g GROUP BY x;
         INSERT INTO g VALUES (-0.0, 2.0), (0.0, 8.0), (1.0, 16.0), (-0.0, 4.0);
         DELETE FROM g WHERE prob = 0.25",
    )
    .unwrap();
    let contents = |db: &Database| db.catalog().table("v").unwrap().rows().to_vec();
    let maintained = contents(&db);
    db.execute_script("REFRESH MATERIALIZED VIEW v").unwrap();
    assert_eq!(contents(&db), maintained);
    let groups: Vec<(u64, f64)> = maintained
        .iter()
        .map(|row| (row[0].as_f64().unwrap().to_bits(), row[1].as_f64().unwrap()))
        .collect();
    let want = [(-0.0f64, 6.0), (0.0, 8.5), (1.0, 16.125)];
    let want: Vec<(u64, f64)> = want.iter().map(|&(k, p)| (k.to_bits(), p)).collect();
    assert_eq!(groups, want);
}
