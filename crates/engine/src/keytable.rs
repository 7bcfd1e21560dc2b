//! The executor's one value-keyed hash table.
//!
//! `HashAggregate`, the hash-join build side, `DISTINCT` and the seen set
//! of an aggregate's `DISTINCT` all need the same thing: map a fixed-width
//! tuple of [`Value`]s to a dense index, remember the order keys first
//! appeared in, and never iterate in an order that depends on a
//! per-process hash seed. [`KeyTable`] is that and nothing more — callers
//! keep their payload (accumulators, build rows) in their own vectors
//! indexed by the entry number it hands out.
//!
//! Layout: an open-addressing `slots` array of entry numbers over a dense
//! arena — one `u64` hash and `width` key cells per entry, the cells of
//! all entries flat in one `Vec<Value>`. Entries are appended and never
//! move, so arena order *is* first-seen order: draining in order is a walk
//! of the arena, not a rank-and-sort of a map's iteration order.
//!
//! A lookup takes the key as borrowed cells (`&[Cow<Value>]`, `&[Value]`)
//! and compares them in place; a key is copied into the arena only by
//! [`KeyTable::push`], once per distinct key. The caller computes the hash
//! once with [`hash_key`] and passes it to both calls.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use conquer_storage::{Row, Value};

use crate::error::EngineError;
use crate::Result;

/// Marks a free slot; also bounds the number of entries.
const EMPTY: u32 = u32::MAX;

/// Slots allocated by the first [`KeyTable::push`].
const MIN_SLOTS: usize = 16;

/// A first-seen-order table of `width`-cell keys. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct KeyTable {
    width: usize,
    /// Entry number per slot, or [`EMPTY`]. Length is zero or a power of
    /// two at least twice the entry count, so a probe always ends.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's home slot is its top bits, the
    /// ones a multiply mixes best.
    shift: u32,
    hashes: Vec<u64>,
    /// Entry `i` is `keys[i * width..(i + 1) * width]`.
    keys: Vec<Value>,
}

impl KeyTable {
    /// An empty table of `width`-cell keys. Allocates nothing.
    pub(crate) fn new(width: usize) -> KeyTable {
        KeyTable {
            width,
            slots: Vec::new(),
            shift: 0,
            hashes: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Number of distinct keys held.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The cells of entry `i`.
    pub(crate) fn key(&self, i: usize) -> &[Value] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// The entry holding `key`, whose [`hash_key`] is `hash`.
    #[inline]
    pub(crate) fn find<K: Borrow<Value>>(&self, hash: u64, key: &[K]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.width);
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        loop {
            let entry = self.slots[at];
            if entry == EMPTY {
                return None;
            }
            let entry = entry as usize;
            if self.hashes[entry] == hash
                && self
                    .key(entry)
                    .iter()
                    .zip(key)
                    .all(|(a, b)| a == b.borrow())
            {
                return Some(entry);
            }
            at = (at + 1) & mask;
        }
    }

    /// Append `key` — which [`find`](Self::find) just missed — as the next
    /// entry and return its number.
    pub(crate) fn push(
        &mut self,
        hash: u64,
        key: impl IntoIterator<Item = Value>,
    ) -> Result<usize> {
        let entry = self.hashes.len();
        let slot_value = u32::try_from(entry)
            .ok()
            .filter(|&e| e != EMPTY)
            .ok_or_else(|| EngineError::exec("too many distinct keys in one hash table"))?;
        if (entry + 1) * 2 > self.slots.len() {
            self.grow();
        }
        self.keys.extend(key);
        debug_assert_eq!(self.keys.len(), (entry + 1) * self.width);
        self.hashes.push(hash);
        self.place(hash, slot_value);
        Ok(entry)
    }

    /// Append `key` as the next entry without indexing it: [`find`]
    /// misses it until [`index`](Self::index) runs. For a caller that
    /// finds its recent entries another way (a run-mode aggregate scans
    /// its open run) and hashes nothing until it has to.
    ///
    /// [`find`]: Self::find
    pub(crate) fn push_unindexed(&mut self, key: impl IntoIterator<Item = Value>) -> Result<usize> {
        let entry = self.hashes.len();
        if u32::try_from(entry).map_or(true, |e| e == EMPTY) {
            return Err(EngineError::exec(
                "too many distinct keys in one hash table",
            ));
        }
        self.keys.extend(key);
        debug_assert_eq!(self.keys.len(), (entry + 1) * self.width);
        self.hashes.push(0);
        Ok(entry)
    }

    /// Hash and index every entry, those [`push_unindexed`] added
    /// included, so [`find`] sees them all.
    ///
    /// [`push_unindexed`]: Self::push_unindexed
    /// [`find`]: Self::find
    pub(crate) fn index(&mut self) {
        for entry in 0..self.hashes.len() {
            self.hashes[entry] = hash_key(self.key(entry));
        }
        self.reslot((2 * self.hashes.len()).next_power_of_two().max(MIN_SLOTS));
    }

    /// Forget every key, keeping the slot array for the next fill.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.hashes.clear();
        self.keys.clear();
    }

    /// Empty the table, yielding each key in first-seen order as a row
    /// with room for `extra` more cells.
    pub(crate) fn drain_rows(&mut self, extra: usize) -> impl Iterator<Item = Row> {
        let width = self.width;
        let n = self.hashes.len();
        let mut cells = std::mem::take(&mut self.keys).into_iter();
        self.clear();
        (0..n).map(move |_| {
            let mut row = Vec::with_capacity(width + extra);
            row.extend(cells.by_ref().take(width));
            row
        })
    }

    /// Claim the first free slot at or after `hash`'s home slot.
    fn place(&mut self, hash: u64, entry: u32) {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = entry;
    }

    /// Double the slot array.
    fn grow(&mut self) {
        self.reslot((self.slots.len() * 2).max(MIN_SLOTS));
    }

    /// Make the slot array `n` (a power of two) long and re-place every
    /// entry from its stored hash; keys are not touched.
    fn reslot(&mut self, n: usize) {
        self.slots = vec![EMPTY; n];
        self.shift = 64 - n.trailing_zeros();
        for entry in 0..self.hashes.len() {
            self.place(self.hashes[entry], entry as u32);
        }
    }
}

/// Hash a key's cells, through `impl Hash for Value` — the one definition
/// of what about a value is hashed — into a [`KeyHasher`].
#[inline]
pub(crate) fn hash_key<K: Borrow<Value>>(key: &[K]) -> u64 {
    let mut h = KeyHasher(0);
    for cell in key {
        cell.borrow().hash(&mut h);
    }
    h.finish()
}

/// A multiply-rotate hasher (the FxHash recurrence): one rotate, xor and
/// multiply per word. Not collision-resistant against crafted keys; the
/// tables it feeds are per-query, live under the query's memory budget,
/// and probe by full key equality, so a bad distribution costs time only.
struct KeyHasher(u64);

/// FxHash's multiplier.
const MUL: u64 = 0x517c_c1b7_2722_0a95;

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for KeyHasher {
    /// A multiply only carries differences upwards, and small floats
    /// differ from each other only in their top bits: fold the high half
    /// down and multiply once more, so the top bits — a key's home slot —
    /// depend on every input bit.
    #[inline]
    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(MUL)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::Date;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A small pool, so keys repeat: signed zeros, two NaN payloads,
    /// `Int(1)` beside `Float(1.0)`, text long enough to span hash words.
    fn cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-2i64..3).prop_map(Value::Int),
            prop::sample::select(vec![
                0.0,
                -0.0,
                1.0,
                -1.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY
            ])
            .prop_map(Value::Float),
            "[ab]{0,2}".prop_map(Value::text),
            "[ab]{9,10}".prop_map(Value::text),
            (0i32..3).prop_map(|d| Value::Date(Date::from_days(d))),
        ]
    }

    /// Feed `keys` to a table and to the model map, checking after every
    /// step that they agree on membership and entry number, and at the end
    /// that the arena holds the distinct keys in first-seen order.
    fn check_against_model(
        width: usize,
        keys: &[Vec<Value>],
        hash: impl Fn(&[Value]) -> u64,
    ) -> std::result::Result<(), TestCaseError> {
        let mut table = KeyTable::new(width);
        let mut model: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for key in keys {
            let key = &key[..width];
            let h = hash(key);
            let found = table.find(h, key);
            prop_assert_eq!(found, model.get(key).copied(), "key {:?}", key);
            if found.is_none() {
                let entry = table.push(h, key.iter().cloned()).unwrap();
                prop_assert_eq!(entry, order.len());
                model.insert(key.to_vec(), entry);
                order.push(key.to_vec());
            }
            prop_assert_eq!(table.len(), order.len());
        }
        // Every key is still where it was put, through every growth.
        for (i, key) in order.iter().enumerate() {
            prop_assert_eq!(table.key(i), &key[..]);
            prop_assert_eq!(table.find(hash(key), key), Some(i));
        }
        let drained: Vec<Row> = table.drain_rows(1).collect();
        prop_assert_eq!(&drained, &order);
        prop_assert!(drained.iter().all(|r| r.capacity() == width + 1));
        prop_assert_eq!(table.len(), 0);
        for key in &order {
            prop_assert_eq!(table.find(hash(key), key), None);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn key_table_matches_a_hash_map_model(
            width in 0usize..4,
            keys in prop::collection::vec(prop::collection::vec(cell(), 3), 0..200),
        ) {
            check_against_model(width, &keys, hash_key)?;
            // Every insert collides; the home slot is the last one, so the
            // chain wraps, and growth re-places one full chain.
            check_against_model(width, &keys, |_| u64::MAX)?;
        }
    }

    #[test]
    fn grouping_equality_is_value_equality() {
        let keys = [
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Null,
        ];
        let mut table = KeyTable::new(1);
        let mut entries = Vec::new();
        for k in &keys {
            let key = std::slice::from_ref(k);
            let h = hash_key(key);
            entries.push(match table.find(h, key) {
                Some(e) => e,
                None => table.push(h, key.iter().cloned()).unwrap(),
            });
        }
        assert_eq!(entries, [0, 1, 2, 3, 4, 4, 5, 5]);
    }

    #[test]
    fn unindexed_entries_are_found_once_indexed() {
        let key = |i: i64| [Value::Int(i), Value::text(format!("k{i}"))];
        let mut table = KeyTable::new(2);
        for i in 0..40 {
            assert_eq!(table.push_unindexed(key(i)).unwrap(), i as usize);
        }
        assert_eq!(table.find(hash_key(&key(3)), &key(3)), None);
        table.index();
        // Indexed pushes continue past them, growing the slots as usual.
        for i in 40..100 {
            let k = key(i);
            assert_eq!(table.push(hash_key(&k), k).unwrap(), i as usize);
        }
        for i in 0..100 {
            let k = key(i);
            assert_eq!(table.find(hash_key(&k), &k), Some(i as usize));
            assert_eq!(table.key(i as usize), k);
        }
    }

    #[test]
    fn borrowed_and_owned_cells_hash_and_compare_alike() {
        use std::borrow::Cow;
        let owned = vec![Value::text("a long text key"), Value::Int(7)];
        let cows: Vec<Cow<'_, Value>> = owned.iter().map(Cow::Borrowed).collect();
        assert_eq!(hash_key(&owned), hash_key(&cows));
        let mut table = KeyTable::new(2);
        let h = hash_key(&cows);
        let e = table
            .push(h, cows.iter().map(|c| c.clone().into_owned()))
            .unwrap();
        assert_eq!(table.find(h, &owned), Some(e));
        assert_eq!(table.find(h, &cows), Some(e));
    }

    #[test]
    fn small_float_and_int_keys_spread_over_the_slots() {
        // Keys that differ only in high mantissa bits (small floats) or
        // only in low bits (small ints) must not pile onto one chain.
        for make in [
            (|i: i64| Value::Float(i as f64)) as fn(i64) -> Value,
            Value::Int,
        ] {
            let homes: std::collections::HashSet<u64> = (0..1024)
                .map(|i| hash_key(&[make(i)]) >> (64 - 11))
                .collect();
            assert!(homes.len() > 512, "{} distinct home slots", homes.len());
        }
    }
}
