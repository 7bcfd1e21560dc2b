//! An exact, order-independent floating-point sum.
//!
//! [`ExactSum`] holds every finite term it has been given *exactly*, as one
//! two's-complement fixed-point integer in units of 2⁻¹⁰⁷⁴ (the smallest
//! subnormal). Every finite `f64` is an integer multiple of that unit, so
//! adding a term is integer addition and [`ExactSum::retract`] (adding
//! `−x`) removes `x` without a trace. Two sums merge (or one is retracted
//! from the other) the same way, limb by limb, so a multiset summed in
//! parts and merged is the multiset summed whole. The sum is
//! rounded once, in
//! [`ExactSum::value`], so the result depends on the multiset of terms and
//! not on the order they arrived in.
//!
//! The integer is stored as a window of 64-bit limbs: only the limbs
//! between the lowest non-zero one and the sign limb are kept, so a sum
//! costs memory in proportion to the exponent span of its terms (a sum of
//! probability products spans a few limbs, not the 33 a full-range
//! accumulator would need). The first four limbs live inside the sum
//! itself; a window wider than that moves to the heap. Non-finite terms
//! are counted, not added: the IEEE rules for NaN and ±∞ depend only on
//! which of them are present.

use std::borrow::Cow;
use std::ops::{Deref, DerefMut};

/// Limb width in bits.
const LIMB: usize = 64;

/// Limbs a sum holds without a heap block: enough for terms within ~2^64
/// of each other.
const INLINE_LIMBS: usize = 4;

/// The window's limbs, least significant first: inline while they fit in
/// [`INLINE_LIMBS`], on the heap from the first limb past them. Compares
/// as its slice, wherever it is stored.
#[derive(Clone)]
enum Limbs {
    Inline { len: u8, buf: [u64; INLINE_LIMBS] },
    Heap(Vec<u64>),
}

impl Limbs {
    fn push(&mut self, limb: u64) {
        match self {
            Limbs::Inline { len, buf } if usize::from(*len) < INLINE_LIMBS => {
                buf[usize::from(*len)] = limb;
                *len += 1;
            }
            Limbs::Inline { buf, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE_LIMBS);
                heap.extend_from_slice(buf);
                heap.push(limb);
                *self = Limbs::Heap(heap);
            }
            Limbs::Heap(heap) => heap.push(limb),
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            Limbs::Inline { len, .. } => *len = usize::from(*len).min(n) as u8,
            Limbs::Heap(heap) => heap.truncate(n),
        }
    }
}

impl Default for Limbs {
    fn default() -> Self {
        Limbs::Inline {
            len: 0,
            buf: [0; INLINE_LIMBS],
        }
    }
}

impl Deref for Limbs {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Limbs::Inline { len, buf } => &buf[..usize::from(*len)],
            Limbs::Heap(heap) => heap,
        }
    }
}

impl DerefMut for Limbs {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Limbs::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Limbs::Heap(heap) => heap,
        }
    }
}

impl PartialEq for Limbs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Limbs {}

impl std::fmt::Debug for Limbs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// An exact sum of `f64` terms (see the module docs).
///
/// Equality is equality of the exact sums and term counts: the window is
/// kept normalized (no zero low limb, no redundant sign limb), so equal
/// sums have equal limbs and [`ExactSum::encode`] to equal bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactSum {
    /// Terms that are not NULL (every term given to `add`).
    nonnull: i64,
    /// NaN terms.
    nan: i64,
    /// `+∞` terms.
    pos_inf: i64,
    /// `−∞` terms.
    neg_inf: i64,
    /// Index of the lowest stored limb: limb `i` weighs `2^(64·(lo+i))`
    /// units. Zero when `limbs` is empty.
    lo: usize,
    /// The finite part, two's complement, least significant limb first;
    /// the top limb carries the sign. Empty means exactly zero.
    limbs: Limbs,
}

impl ExactSum {
    /// An empty sum: no terms, [`ExactSum::value`] is `None` (SQL NULL).
    pub fn new() -> Self {
        ExactSum::default()
    }

    /// Fold one term in. Exact.
    pub fn add(&mut self, x: f64) {
        self.apply(x, 1);
    }

    /// Remove one term that was added before. Exact: adding `x` and then
    /// retracting it restores the previous state bit for bit.
    pub fn retract(&mut self, x: f64) {
        self.apply(x, -1);
    }

    /// Non-NULL terms held: added, less retracted.
    pub fn count(&self) -> i64 {
        self.nonnull
    }

    /// Has no term been added (or has every added term been retracted)?
    pub fn is_empty(&self) -> bool {
        *self == ExactSum::default()
    }

    fn apply(&mut self, x: f64, sign: i64) {
        self.nonnull += sign;
        if x.is_nan() {
            self.nan += sign;
        } else if x == f64::INFINITY {
            self.pos_inf += sign;
        } else if x == f64::NEG_INFINITY {
            self.neg_inf += sign;
        } else {
            let bits = x.to_bits();
            let biased = ((bits >> 52) & 0x7ff) as usize;
            let frac = bits & ((1 << 52) - 1);
            // A subnormal is `frac` units; a normal is the mantissa with
            // its implicit bit, `biased − 1` binary places up.
            let (mantissa, shift) = match biased {
                0 => (frac, 0),
                _ => (frac | 1 << 52, biased - 1),
            };
            if mantissa != 0 {
                let negative = (bits >> 63 == 1) != (sign < 0);
                let wide = (mantissa as u128) << (shift % LIMB);
                let halves = [wide as u64, (wide >> 64) as u64];
                self.add_limbs(shift / LIMB, &halves, 0, negative);
            }
        }
    }

    /// Fold in every term of `other` (`sign` 1), as if each had been
    /// [`add`](ExactSum::add)ed, or remove them (`sign` −1), each of which
    /// was added before, as [`retract`](ExactSum::retract)ing them one by
    /// one would. Exact: counts and finite part move limb by limb.
    pub(crate) fn merge(&mut self, other: &ExactSum, sign: i64) {
        self.nonnull += sign * other.nonnull;
        self.nan += sign * other.nan;
        self.pos_inf += sign * other.pos_inf;
        self.neg_inf += sign * other.neg_inf;
        if !other.limbs.is_empty() {
            let fill = if other.negative() { u64::MAX } else { 0 };
            self.add_limbs(other.lo, &other.limbs, fill, sign < 0);
        }
    }

    /// Add (or subtract) `operand · 2^(64·at)` units to the finite part:
    /// `operand`'s limbs least significant first, and above them `fill`,
    /// its sign extension.
    #[inline(always)]
    fn add_limbs(&mut self, at: usize, operand: &[u64], fill: u64, negative: bool) {
        // Widen the window to cover the operand plus one limb of headroom
        // above both its top and the old top: the result then fits, and
        // the carry out of the top limb is the discarded two's-complement
        // wrap.
        let top = at + operand.len();
        let top = match self.limbs.len() {
            0 => top,
            n => (self.lo + n).max(top),
        };
        self.widen(at, top);
        let mut carry = false;
        for (j, limb) in self.limbs[at - self.lo..].iter_mut().enumerate() {
            if j >= operand.len() && fill == 0 && !carry {
                break;
            }
            let operand = operand.get(j).copied().unwrap_or(fill);
            let (r, c1) = if negative {
                limb.overflowing_sub(operand)
            } else {
                limb.overflowing_add(operand)
            };
            let (r, c2) = if negative {
                r.overflowing_sub(carry as u64)
            } else {
                r.overflowing_add(carry as u64)
            };
            *limb = r;
            carry = c1 || c2;
        }
        self.normalize();
    }

    /// Extend the window to cover limb indices `lo..=hi` (zeros below,
    /// sign extension above).
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.limbs.is_empty() {
            self.lo = lo;
            for _ in lo..=hi {
                self.limbs.push(0);
            }
            return;
        }
        if lo < self.lo {
            // Push the new zero limbs on top, then rotate them to the
            // bottom.
            let below = self.lo - lo;
            for _ in 0..below {
                self.limbs.push(0);
            }
            self.limbs.rotate_right(below);
            self.lo = lo;
        }
        let fill = if self.negative() { u64::MAX } else { 0 };
        while self.lo + self.limbs.len() <= hi {
            self.limbs.push(fill);
        }
    }

    /// Drop zero low limbs and redundant sign limbs, so the representation
    /// of a value is unique.
    fn normalize(&mut self) {
        let zeros = self.limbs.iter().take_while(|&&l| l == 0).count();
        let len = self.limbs.len();
        if zeros == len {
            self.limbs.truncate(0);
            self.lo = 0;
            return;
        }
        if zeros > 0 {
            self.limbs.rotate_left(zeros);
            self.limbs.truncate(len - zeros);
            self.lo += zeros;
        }
        while let [.., below, top] = self.limbs[..] {
            if !redundant(below, top) {
                break;
            }
            self.limbs.truncate(self.limbs.len() - 1);
        }
    }

    /// Is the window as [`normalize`](ExactSum::normalize) leaves it?
    fn is_normalized(&self) -> bool {
        match self.limbs[..] {
            [] => self.lo == 0,
            [0, ..] => false,
            [.., below, top] => !redundant(below, top),
            [_] => true,
        }
    }

    fn negative(&self) -> bool {
        self.limbs.last().is_some_and(|top| top >> 63 == 1)
    }

    /// The sum, rounded once: `None` when no non-NULL term is present;
    /// NaN or ±∞ by the IEEE rules when such terms are present (NaN, or
    /// both infinities, give NaN); otherwise the exact sum of the finite
    /// terms rounded to nearest, ties to even, overflowing to ±∞. An exact
    /// zero is `+0.0`, as a fold that starts from `0.0` gives.
    ///
    /// Meaningful for any state reached by retracting only terms that were
    /// added.
    pub fn value(&self) -> Option<f64> {
        if self.nonnull == 0 {
            return None;
        }
        if self.nan != 0 || (self.pos_inf != 0 && self.neg_inf != 0) {
            return Some(f64::NAN);
        }
        if self.pos_inf != 0 {
            return Some(f64::INFINITY);
        }
        if self.neg_inf != 0 {
            return Some(f64::NEG_INFINITY);
        }
        Some(self.round())
    }

    fn round(&self) -> f64 {
        let negative = self.negative();
        let magnitude = if negative {
            Cow::Owned(negate(&self.limbs))
        } else {
            Cow::Borrowed(&self.limbs[..])
        };
        let Some(t) = magnitude.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        // `p` is the absolute position of the leading one bit.
        let p = LIMB * (self.lo + t) + 63 - magnitude[t].leading_zeros() as usize;
        let bits = if p <= 52 {
            // Below 2^53 units every integer is an `f64` whose bit
            // pattern is the integer itself (subnormal, or the first
            // binade of normals).
            magnitude[0]
        } else {
            // The leading 64 bits, left-justified, and whether anything
            // below them is set.
            let limb = |abs: usize| {
                abs.checked_sub(self.lo)
                    .and_then(|i| magnitude.get(i))
                    .copied()
                    .unwrap_or(0)
            };
            let (window, below) = if p < 63 {
                (magnitude[0] << (63 - p), false)
            } else {
                let start = p - 63;
                let (q, r) = (start / LIMB, start % LIMB);
                let window = match r {
                    0 => limb(q),
                    _ => (limb(q) >> r) | (limb(q + 1) << (LIMB - r)),
                };
                let below =
                    (self.lo..q).any(|a| limb(a) != 0) || (r != 0 && limb(q) & ((1 << r) - 1) != 0);
                (window, below)
            };
            let mut mantissa = window >> 11;
            let half = (window >> 10) & 1 == 1;
            let sticky = below || window & 0x3ff != 0;
            let mut p = p;
            if half && (sticky || mantissa & 1 == 1) {
                mantissa += 1;
                if mantissa == 1 << 53 {
                    mantissa >>= 1;
                    p += 1;
                }
            }
            // Leading bit at `p` units = 2^(p−1074): biased exponent p−51.
            let biased = (p - 51) as u64;
            if biased >= 0x7ff {
                f64::INFINITY.to_bits()
            } else {
                biased << 52 | (mantissa & ((1 << 52) - 1))
            }
        };
        let x = f64::from_bits(bits);
        if negative {
            -x
        } else {
            x
        }
    }

    /// One canonical text cell: the four term counts, the window's lowest
    /// limb index, then the limbs as fixed-width hex, most significant
    /// first. Equal sums encode to equal bytes.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(5 * 4 + 4 + 16 * self.limbs.len());
        for count in [self.nonnull, self.nan, self.pos_inf, self.neg_inf] {
            if count < 0 {
                out.push('-');
            }
            push_decimal(&mut out, count.unsigned_abs());
            out.push(':');
        }
        push_decimal(&mut out, self.lo as u64);
        out.push(':');
        for limb in self.limbs.iter().rev() {
            for shift in (0..LIMB).step_by(4).rev() {
                out.push(char::from(HEX_DIGITS[(limb >> shift) as usize & 0xf]));
            }
        }
        out
    }

    /// Read back a cell written by [`ExactSum::encode`]. `None` unless the
    /// text is exactly the canonical encoding of some sum: counts without
    /// a `+`, leading zeros or `-0`, lowercase hex and a normalized window.
    pub fn decode(text: &str) -> Option<ExactSum> {
        let mut fields = text.split(':');
        let mut count = || {
            let field = fields.next()?;
            let digits = field.strip_prefix('-').unwrap_or(field);
            // A zero count is written `0`, never `-0`.
            let negative_zero = digits == "0" && digits.len() < field.len();
            if !canonical_decimal(digits) || negative_zero {
                return None;
            }
            field.parse::<i64>().ok()
        };
        let (nonnull, nan, pos_inf, neg_inf) = (count()?, count()?, count()?, count()?);
        let lo = fields.next().filter(|f| canonical_decimal(f))?;
        let lo = lo.parse::<usize>().ok()?;
        let hex = fields.next()?;
        if fields.next().is_some() || hex.len() % 16 != 0 {
            return None;
        }
        let mut limbs = Limbs::default();
        for chunk in hex.as_bytes().chunks_exact(16).rev() {
            let mut limb = 0u64;
            for &digit in chunk {
                let nibble = match digit {
                    b'0'..=b'9' => digit - b'0',
                    b'a'..=b'f' => digit - b'a' + 10,
                    _ => return None,
                };
                limb = limb << 4 | u64::from(nibble);
            }
            limbs.push(limb);
        }
        let sum = ExactSum {
            nonnull,
            nan,
            pos_inf,
            neg_inf,
            lo,
            limbs,
        };
        sum.is_normalized().then_some(sum)
    }
}

/// Lowercase hex digits, by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Is the top limb `top` only the sign extension of the limb below it?
fn redundant(below: u64, top: u64) -> bool {
    (top == 0 && below >> 63 == 0) || (top == u64::MAX && below >> 63 == 1)
}

/// Append `n` in decimal.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Is `field` a decimal natural number as [`push_decimal`] writes it:
/// digits only, and no leading zero but in `0` itself?
fn canonical_decimal(field: &str) -> bool {
    let bytes = field.as_bytes();
    !bytes.is_empty()
        && bytes.iter().all(u8::is_ascii_digit)
        && (bytes[0] != b'0' || bytes.len() == 1)
}

/// Two's-complement negation of a limb vector.
fn negate(limbs: &[u64]) -> Vec<u64> {
    let mut carry = true;
    limbs
        .iter()
        .map(|&l| {
            let (r, c) = (!l).overflowing_add(carry as u64);
            carry = c;
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(terms: &[f64]) -> ExactSum {
        let mut s = ExactSum::new();
        for &t in terms {
            s.add(t);
        }
        s
    }

    #[test]
    fn empty_and_zero() {
        assert_eq!(ExactSum::new().value(), None);
        assert!(ExactSum::new().is_empty());
        let z = sum(&[-0.0, 0.0, -0.0]);
        assert_eq!(z.value().map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_eq!(sum(&[1.5, -1.5]).value(), Some(0.0));
    }

    #[test]
    fn order_does_not_matter_where_a_fold_would() {
        let a = sum(&[0.1, 0.2, 0.3, 1e-17, 0.7]);
        let b = sum(&[0.7, 1e-17, 0.3, 0.2, 0.1]);
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode());
        // 1e16 + 1 + 1 rounds to 1e16 folded left to right; exactly it is
        // 1e16 + 2.
        assert_eq!(sum(&[1e16, 1.0, 1.0]).value(), Some(1e16 + 2.0));
        assert_eq!(sum(&[1.0, 1e100, 1.0, -1e100]).value(), Some(2.0));
    }

    /// Bytes `s` holds on the heap: none while its window fits in its
    /// four inline limbs, the allocated limbs once it has outgrown them.
    fn heap_bytes(s: &ExactSum) -> u64 {
        match &s.limbs {
            Limbs::Inline { .. } => 0,
            Limbs::Heap(heap) => (heap.capacity() * std::mem::size_of::<u64>()) as u64,
        }
    }

    #[test]
    fn four_limbs_hold_terms_within_two_to_the_sixty_of_each_other() {
        let mut s = ExactSum::new();
        assert_eq!(heap_bytes(&s), 0);
        for i in 0..=60 {
            s.add(0.7 * 2f64.powi(-i));
            s.add(-0.3 * 2f64.powi(-i));
            assert_eq!(heap_bytes(&s), 0, "{i}");
        }
        let inline = s.clone();
        // A term 2^300 above the others needs a wider window: it moves to
        // the heap, and the sum still compares and encodes as its value.
        s.add(1e90);
        assert!(heap_bytes(&s) >= 8 * INLINE_LIMBS as u64 + 8);
        s.retract(1e90);
        assert!(heap_bytes(&s) > 0);
        assert_eq!(s, inline);
        assert_eq!(s.encode(), inline.encode());
        assert_eq!(ExactSum::decode(&s.encode()), Some(inline));
    }

    #[test]
    fn rounding_edges() {
        let min = f64::from_bits(1);
        assert_eq!(sum(&[min, min]).value(), Some(2.0 * min));
        assert_eq!(sum(&[-min]).value(), Some(-min));
        assert_eq!(sum(&[f64::MAX, f64::MAX]).value(), Some(f64::INFINITY));
        assert_eq!(
            sum(&[-f64::MAX, -f64::MAX]).value(),
            Some(f64::NEG_INFINITY)
        );
        assert_eq!(
            sum(&[f64::MAX, f64::MAX, -f64::MAX]).value(),
            Some(f64::MAX)
        );
        // 1 + 2^-53 is a tie: to even, 1.0. One more 2^-80 breaks it up.
        let half_ulp = 2f64.powi(-53);
        assert_eq!(sum(&[1.0, half_ulp]).value(), Some(1.0));
        assert_eq!(
            sum(&[1.0, half_ulp, 2f64.powi(-80)]).value(),
            Some(1.0 + 2f64.powi(-52))
        );
    }

    #[test]
    fn non_finite_terms_follow_ieee() {
        assert!(sum(&[1.0, f64::NAN]).value().unwrap().is_nan());
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY])
            .value()
            .unwrap()
            .is_nan());
        assert_eq!(sum(&[1.0, f64::INFINITY]).value(), Some(f64::INFINITY));
        let mut s = sum(&[0.5, f64::NEG_INFINITY]);
        assert_eq!(s.value(), Some(f64::NEG_INFINITY));
        s.retract(f64::NEG_INFINITY);
        assert_eq!(s.value(), Some(0.5));
    }

    #[test]
    fn merged_parts_equal_the_whole() {
        let (a, b) = ([0.1, 1e-300, -0.0, f64::NAN], [0.2, 1e300, f64::INFINITY]);
        let mut merged = sum(&a);
        merged.merge(&sum(&b), 1);
        assert_eq!(merged, sum(&[a.as_slice(), &b].concat()));
        merged.merge(&sum(&a), -1);
        assert_eq!(merged, sum(&b));
        merged.merge(&sum(&b), -1);
        assert!(merged.is_empty());
        // A negative part is sign-extended across a wider window.
        let mut s = sum(&[1e100, 3.0]);
        s.merge(&sum(&[-1e-100]), 1);
        s.merge(&sum(&[1e100]), -1);
        assert_eq!(s, sum(&[3.0, -1e-100]));
    }

    /// The encoder as first written, one `format!` per field and limb:
    /// the byte-for-byte reference of [`ExactSum::encode`].
    fn formatted(s: &ExactSum) -> String {
        let mut out = format!(
            "{}:{}:{}:{}:{}:",
            s.nonnull, s.nan, s.pos_inf, s.neg_inf, s.lo
        );
        for limb in s.limbs.iter().rev() {
            out.push_str(&format!("{limb:016x}"));
        }
        out
    }

    use proptest::prelude::*;

    /// A finite or non-finite term: any bit pattern, so subnormals and
    /// terms far apart (windows on the heap) are common.
    fn any_term() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            0.0..1.0f64,
            Just(-0.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_codec_matches_the_formatted_reference(
            added in prop::collection::vec(any_term(), 0..24),
            retracted in prop::collection::vec(any_term(), 0..8),
        ) {
            let mut s = sum(&added);
            for &x in &retracted {
                s.retract(x);
            }
            let text = s.encode();
            prop_assert_eq!(&text, &formatted(&s));
            prop_assert_eq!(ExactSum::decode(&text), Some(s));
        }
    }

    #[test]
    fn decode_rejects_non_canonical_text() {
        let s = sum(&[0.25, 3.0]);
        assert_eq!(ExactSum::decode(&s.encode()), Some(s.clone()));
        let text = s.encode();
        for bad in [
            String::new(),
            format!("{text}:"),
            format!("{text}0000000000000000"),
            text.replace(':', ";"),
            "1:0:0:0:3:".to_string(),
        ] {
            assert_eq!(ExactSum::decode(&bad), None, "{bad}");
        }
    }
}
