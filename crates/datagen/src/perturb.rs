//! Perturbation primitives: how one source's record differs from another's.
//!
//! The UIS generator the paper uses injects typographical errors and value
//! noise into duplicates of a master record. This module provides the same
//! kinds of perturbation over our [`Value`] model, all driven by a seeded
//! RNG for reproducible datasets.

use conquer_storage::{Date, SharedRow, Value};
use rand::{Rng, RngExt};

/// Apply a single random typo to a string: swap, delete, insert or replace
/// one character. Empty strings are returned unchanged.
pub fn typo<R: Rng>(rng: &mut R, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let pos = rng.random_range(0..chars.len());
    let mut out = chars.clone();
    match rng.random_range(0..4u8) {
        // swap with the next character
        0 if chars.len() >= 2 => {
            let p = pos.min(chars.len() - 2);
            out.swap(p, p + 1);
        }
        // delete
        1 if chars.len() >= 2 => {
            out.remove(pos);
        }
        // insert a nearby letter
        2 => {
            let c = random_letter(rng);
            out.insert(pos, c);
        }
        // replace
        _ => {
            out[pos] = random_letter(rng);
        }
    }
    out.into_iter().collect()
}

fn random_letter<R: Rng>(rng: &mut R) -> char {
    (b'a' + rng.random_range(0..26u8)) as char
}

/// Apply `n` independent typos.
pub fn typos<R: Rng>(rng: &mut R, s: &str, n: usize) -> String {
    let mut out = s.to_string();
    for _ in 0..n {
        out = typo(rng, &out);
    }
    out
}

/// Relative numeric noise: `x · (1 ± magnitude)` uniformly.
pub fn numeric_noise<R: Rng>(rng: &mut R, x: f64, magnitude: f64) -> f64 {
    let factor = 1.0 + rng.random_range(-magnitude..=magnitude);
    x * factor
}

/// Shift a date by up to `max_days` in either direction (never zero shift
/// unless `max_days` is 0).
pub fn date_jitter<R: Rng>(rng: &mut R, d: Date, max_days: i32) -> Date {
    if max_days == 0 {
        return d;
    }
    let mut shift = rng.random_range(-max_days..=max_days);
    if shift == 0 {
        shift = 1;
    }
    d.add_days(shift)
}

/// Options controlling how a duplicate diverges from its master tuple.
#[derive(Debug, Clone, Copy)]
pub struct PerturbOptions {
    /// Probability that any given field is perturbed at all.
    pub field_probability: f64,
    /// Maximum typos applied to a perturbed string field.
    pub max_typos: usize,
    /// Relative magnitude of numeric noise.
    pub numeric_magnitude: f64,
    /// Maximum day shift of a perturbed date field.
    pub date_days: i32,
}

impl Default for PerturbOptions {
    fn default() -> Self {
        PerturbOptions {
            field_probability: 0.35,
            max_typos: 2,
            numeric_magnitude: 0.15,
            date_days: 15,
        }
    }
}

/// Perturb one value according to its type. NULLs stay NULL; booleans flip.
pub fn perturb_value<R: Rng>(rng: &mut R, v: &Value, opts: &PerturbOptions) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Bool(b) => Value::Bool(!b),
        Value::Int(i) => {
            let noisy = numeric_noise(rng, *i as f64, opts.numeric_magnitude).round();
            Value::Int(noisy as i64)
        }
        Value::Float(x) => Value::Float(numeric_noise(rng, *x, opts.numeric_magnitude)),
        Value::Text(s) => {
            let n = rng.random_range(1..=opts.max_typos.max(1));
            Value::Text(typos(rng, s, n))
        }
        Value::Date(d) => Value::Date(date_jitter(rng, *d, opts.date_days)),
    }
}

/// Perturb a whole row, skipping the column positions in `keep` (keys,
/// identifiers and foreign keys must survive duplication untouched). The
/// row is built as a table holds it.
pub fn perturb_row<R: Rng>(
    rng: &mut R,
    row: &[Value],
    keep: &[usize],
    opts: &PerturbOptions,
) -> SharedRow {
    row.iter()
        .enumerate()
        .map(|(i, v)| {
            if keep.contains(&i) || !rng.random_bool(opts.field_probability) {
                v.clone()
            } else {
                perturb_value(rng, v, opts)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn typo_changes_string_slightly() {
        let mut r = rng();
        for s in ["John", "building", "Jones Ave", "x"] {
            let t = typo(&mut r, s);
            let d = conquer_prob::text::levenshtein(s, &t);
            assert!(d <= 2, "one typo should move at most 2 edits: {s} -> {t}");
        }
        assert_eq!(typo(&mut r, ""), "");
    }

    #[test]
    fn typos_bounded_by_count() {
        let mut r = rng();
        let s = "international";
        let t = typos(&mut r, s, 3);
        assert!(conquer_prob::text::levenshtein(s, &t) <= 6);
    }

    #[test]
    fn numeric_noise_bounded() {
        let mut r = rng();
        for _ in 0..100 {
            let y = numeric_noise(&mut r, 100.0, 0.1);
            assert!((90.0..=110.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn date_jitter_moves_but_not_far() {
        let mut r = rng();
        let d: Date = "1995-06-15".parse().unwrap();
        for _ in 0..50 {
            let j = date_jitter(&mut r, d, 15);
            let delta = (j.days() - d.days()).abs();
            assert!((1..=15).contains(&delta));
        }
        assert_eq!(date_jitter(&mut r, d, 0), d);
    }

    #[test]
    fn perturb_row_keeps_protected_columns() {
        let mut r = rng();
        let row = vec![Value::Int(1), Value::text("name"), Value::Float(5.0)];
        let opts = PerturbOptions {
            field_probability: 1.0,
            ..Default::default()
        };
        for _ in 0..20 {
            let p = perturb_row(&mut r, &row, &[0], &opts);
            assert_eq!(p[0], Value::Int(1), "protected column must not change");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(typo(&mut a, "hello"), typo(&mut b, "hello"));
    }
}
