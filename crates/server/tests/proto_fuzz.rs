//! Property tests of the line protocol's parsing surface. Whatever a peer
//! sends — bytes that are not UTF-8 (decoded lossily, as the server reads
//! them), control bytes, stray or dangling `\` escapes — `Request::parse`,
//! `proto::unescape` and `proto::decode_fields` answer `Ok` or `Err` and
//! never panic; and every row the server can send decodes back to the
//! fields it was rendered from. The bytes themselves are pinned: a row
//! encodes to exactly the reference formula below (each cell's `Display`,
//! escaped by the original character loop, joined by TABs), and
//! `escape`/`unescape` agree with that loop and its inverse on any string.
//!
//! Case counts are tunable via `CONQUER_PROPTEST_CASES` (see DESIGN.md).

use conquer_server::proto::{decode_fields, encode_row, escape, unescape, Request};
use conquer_storage::{Date, Value};
use proptest::prelude::*;

/// `CONQUER_PROPTEST_CASES`, or `default` when unset or unparsable.
fn cases(default: u32) -> u32 {
    std::env::var("CONQUER_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Bytes biased toward what framing code trips on: the verbs, spaces,
/// tabs, CR/LF, backslashes and escape letters, NUL and other control
/// bytes, and lone UTF-8 continuation and lead bytes.
fn wire_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        4 => any::<u8>(),
        2 => prop::sample::select(b"\\\\\\tnrx \t\r\n\0\x1b\x7f".to_vec()),
        1 => prop::sample::select(vec![0x80u8, 0xbf, 0xc3, 0xe2, 0xf0, 0xff]),
    ]
}

fn wire_line() -> impl Strategy<Value = String> {
    let verb = prop::sample::select(vec![
        "",
        "SQL ",
        "query ",
        "EXEC ",
        "LIMIT ",
        "STATS",
        "EPOCH",
        "PING",
        "QUIT",
        "SCRUB",
        "CHECKPOINT",
        "bogus ",
    ]);
    (verb, prop::collection::vec(wire_byte(), 0..48)).prop_map(|(verb, bytes)| {
        let mut line = verb.as_bytes().to_vec();
        line.extend(bytes);
        String::from_utf8_lossy(&line).into_owned()
    })
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z\\\t\n\r ]{0,8}".prop_map(Value::Text),
        ".{0,8}".prop_map(Value::Text),
        (-800_000i32..800_000).prop_map(|d| Value::Date(Date::from_days(d))),
    ]
}

/// Floats whose `Display` is easy to get wrong: NaN, signed zeros and
/// infinities, subnormals, and integral values on both sides of 1e15,
/// where `Value`'s `Display` switches from `{:.1}` to `{}`.
fn edge_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => any::<f64>(),
        2 => prop::sample::select(vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            1e15,
            -1e15,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15 + 1.0,
            0.1 + 0.2,
            1.0 / 3.0,
        ]),
        2 => (999_999_999_999_990i64..=1_000_000_000_000_010)
            .prop_map(|i| i as f64),
        1 => (-1_000_000_000_000_010i64..=-999_999_999_999_990)
            .prop_map(|i| i as f64),
        1 => (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
    ]
}

/// Texts mixing the escaped bytes with multibyte characters, and `''`.
fn edge_text() -> impl Strategy<Value = String> {
    prop_oneof![
        1 => Just(String::new()),
        3 => "[ab\\\t\n\r é漢🦀]{0,10}",
        2 => ".{0,12}",
    ]
}

fn edge_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => any::<i64>().prop_map(Value::Int),
        4 => edge_float().prop_map(Value::Float),
        4 => edge_text().prop_map(Value::Text),
        1 => (-800_000i32..800_000).prop_map(|d| Value::Date(Date::from_days(d))),
    ]
}

/// The original escaping character loop, kept as the reference.
fn reference_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// The original row encoding, kept as the reference for the wire bytes.
fn reference_encode_row(row: &[Value]) -> String {
    row.iter()
        .map(|v| reference_escape(&v.to_string()))
        .collect::<Vec<_>>()
        .join("\t")
}

/// The original unescaping character loop, kept as the reference.
fn reference_unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape sequence \\{other}")),
            None => return Err("dangling backslash".to_string()),
        }
    }
    Ok(out)
}

/// Strings dense in `\`, escape letters and bytes that need escaping, so
/// dangling and unknown escapes (`\x`, `\é`) are common.
fn escape_soup() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => "[\\\\\\tnrxé \t\n\r]{0,12}",
        1 => ".{0,12}",
        1 => ".{0,6}\\\\",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(512)))]

    #[test]
    fn arbitrary_lines_never_panic_the_parsers(line in wire_line()) {
        let _ = Request::parse(&line);
        let _ = unescape(&line);
        let _ = decode_fields(&line);
        // The server hands the parser a line without its `\n`.
        let _ = Request::parse(line.split('\n').next().unwrap_or(""));
    }

    #[test]
    fn encoded_rows_decode_to_their_rendered_fields(
        row in prop::collection::vec(value(), 1..6),
    ) {
        let payload = encode_row(&row);
        prop_assert!(!payload.contains('\n') && !payload.contains('\r'), "{payload:?}");
        let rendered: Vec<String> = row.iter().map(Value::to_string).collect();
        prop_assert_eq!(decode_fields(&payload), Ok(rendered));
    }

    #[test]
    fn rows_encode_to_the_reference_bytes(
        row in prop::collection::vec(edge_value(), 1..6),
    ) {
        prop_assert_eq!(encode_row(&row), reference_encode_row(&row));
    }

    #[test]
    fn escape_and_unescape_match_the_reference_loops(s in escape_soup()) {
        prop_assert_eq!(unescape(&s), reference_unescape(&s));
        prop_assert_eq!(escape(&s), reference_escape(&s));
        prop_assert_eq!(unescape(&escape(&s)), Ok(s.clone()));
    }
}

#[test]
fn edge_floats_encode_to_the_reference_bytes() {
    // The 1e15 switch, spelled out: below it an integral float keeps its
    // `.0`; at and above it, `Display`'s own form.
    let row = [
        Value::Float(1e15 - 1.0),
        Value::Float(1e15),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(f64::from_bits(1)),
    ];
    assert_eq!(encode_row(&row), reference_encode_row(&row));
    assert_eq!(encode_row(&row[..2]), "999999999999999.0\t1000000000000000");
}
