//! Bit-level fingerprints of answers and tables.
//!
//! Two answers fingerprint equal iff they hold the same values in the same
//! order with floats compared by `f64::to_bits` — `==` would conflate
//! `0.0` with `-0.0` and hide a last-ulp difference in a probability.
//! Fingerprints go into the result file so two commits can be compared.

use conquer_storage::{Catalog, Row, Table, Value};

/// Streaming FNV-1a (64-bit), the checksum the storage layer already uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in a length-prefixed string (so `("ab","c")` ≠ `("a","bc")`).
    pub fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    /// Mix in one value, tagged by type.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Int(i) => {
                self.bytes(&[2]);
                self.bytes(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.bytes(&[3]);
                self.bytes(&f.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                self.bytes(&[4]);
                self.str(s);
            }
            Value::Date(d) => {
                self.bytes(&[5]);
                self.bytes(&d.days().to_le_bytes());
            }
        }
    }

    /// Mix in one row.
    pub fn row(&mut self, row: &[Value]) {
        self.bytes(&(row.len() as u64).to_le_bytes());
        for v in row {
            self.value(v);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of an ordered row set with its column names.
pub fn rows(columns: &[String], rows: &[Row]) -> u64 {
    let mut h = Fnv::default();
    for c in columns {
        h.str(c);
    }
    h.bytes(&(rows.len() as u64).to_le_bytes());
    for r in rows {
        h.row(r);
    }
    h.finish()
}

/// Fingerprint of a clean-answer set: tuples plus probability bits.
pub fn answers(columns: &[String], rows: &[(Row, f64)]) -> u64 {
    let mut h = Fnv::default();
    for c in columns {
        h.str(c);
    }
    h.bytes(&(rows.len() as u64).to_le_bytes());
    for (r, p) in rows {
        h.row(r);
        h.bytes(&p.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Fingerprint of a wire answer (decoded strings, in order). The wire
/// prints floats in shortest round-trip form, so equal strings mean equal
/// bits.
pub fn wire(columns: &[String], rows: &[Vec<String>]) -> u64 {
    let mut h = Fnv::default();
    for c in columns {
        h.str(c);
    }
    h.bytes(&(rows.len() as u64).to_le_bytes());
    for r in rows {
        h.bytes(&(r.len() as u64).to_le_bytes());
        for v in r {
            h.str(v);
        }
    }
    h.finish()
}

/// The wire fingerprint an in-process result would have if served.
pub fn wire_of_values(columns: &[String], rows: &[Row]) -> u64 {
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Value::to_string).collect())
        .collect();
    wire(columns, &rendered)
}

/// Fingerprint of one table: column names and rows in storage order.
pub fn table(t: &Table) -> u64 {
    let columns: Vec<String> = t
        .schema()
        .columns()
        .iter()
        .map(|c| c.name().to_string())
        .collect();
    rows(&columns, t.rows())
}

/// Per-table fingerprints of a whole catalog, in name order (hidden view
/// state tables included — a reopened database must match those too).
pub fn catalog(catalog: &Catalog) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = catalog
        .tables()
        .map(|t| (t.name().to_string(), table(t)))
        .collect();
    out.sort();
    out
}

/// Fold many named fingerprints into one (order-sensitive).
pub fn combine<'a>(parts: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
    let mut h = Fnv::default();
    for (name, fp) in parts {
        h.str(name);
        h.bytes(&fp.to_le_bytes());
    }
    h.finish()
}

/// Render a fingerprint the way result files spell it.
pub fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_bits_not_float_equality() {
        let cols = vec!["p".to_string()];
        let a = rows(&cols, &[vec![Value::Float(0.0)]]);
        let b = rows(&cols, &[vec![Value::Float(-0.0)]]);
        assert_ne!(a, b);
        let ulp = f64::from_bits(0.3f64.to_bits() + 1);
        assert_ne!(
            answers(&cols, &[(vec![Value::Int(1)], 0.3)]),
            answers(&cols, &[(vec![Value::Int(1)], ulp)])
        );
    }

    #[test]
    fn order_types_and_boundaries_matter() {
        let cols = vec!["a".to_string(), "b".to_string()];
        let r1 = vec![Value::text("ab"), Value::text("c")];
        let r2 = vec![Value::text("a"), Value::text("bc")];
        assert_ne!(
            rows(&cols, std::slice::from_ref(&r1)),
            rows(&cols, std::slice::from_ref(&r2))
        );
        assert_ne!(
            rows(&cols, &[r1.clone(), r2.clone()]),
            rows(&cols, &[r2, r1])
        );
        assert_ne!(
            rows(&cols, &[vec![Value::Int(1), Value::Null]]),
            rows(&cols, &[vec![Value::Float(1.0), Value::Null]])
        );
    }

    #[test]
    fn wire_matches_rendered_values() {
        let cols = vec!["x".to_string()];
        let data = vec![vec![Value::Float(0.1 + 0.2)], vec![Value::text("t\tab")]];
        let rendered: Vec<Vec<String>> = data
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        assert_eq!(wire(&cols, &rendered), wire_of_values(&cols, &data));
    }
}
