//! Property tests of the line protocol's parsing surface. Whatever a peer
//! sends — bytes that are not UTF-8 (decoded lossily, as the server reads
//! them), control bytes, stray or dangling `\` escapes — `Request::parse`,
//! `proto::unescape` and `proto::decode_fields` answer `Ok` or `Err` and
//! never panic; and every row the server can send decodes back to the
//! fields it was rendered from.
//!
//! Case counts are tunable via `CONQUER_PROPTEST_CASES` (see DESIGN.md).

use conquer_server::proto::{decode_fields, encode_row, unescape, Request};
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
}
