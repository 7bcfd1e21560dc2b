//! The table image: the one encoding in which a table reaches disk.
//!
//! A write-ahead-log put frame ([`crate::wal`]) is a tag byte followed by
//! an image, in the log's base and in its commits alike. A checkpoint
//! therefore reloads every value a replay of the same commits would: NULL
//! and `''` stay apart, and floats keep their bits (NaN payloads and
//! `-0.0` included).
//!
//! ```text
//! [u32 LE name length][name, UTF-8]
//! [u32 LE schema length][schema text: one "<column> <type>\n" per column,
//!                        then one "@<key> <value>\n" per table property]
//! [u32 LE row count]
//! per row: [u32 LE value count][values in the spill value codec]
//! ```
//!
//! A property value escapes `\` as `\\` and a newline as `\n`. No column
//! name starts with `@` (no SQL identifier can), and a table without
//! properties keeps the image it had before properties existed.
//!
//! An [`Edit`] — the payload of the log's edit frame — reuses the row
//! encoding, with positions as `u32 LE` like the image's row count:
//!
//! ```text
//! [u32 LE changed count]
//! per changed row: [u32 LE position][u8: 0 removes, 1 replaces][row, if replaced]
//! [u32 LE inserted count]
//! per inserted row: [u32 LE position][row]
//! ```
//!
//! The integrity check lives in the container (the WAL's per-frame
//! checksum); decoding only has to refuse bytes that do not parse, and it
//! refuses them with a typed [`StorageError::Corrupt`] or
//! [`StorageError::Schema`] naming the file.

use std::path::Path;

use crate::error::{corrupt, StorageError};
use crate::schema::Schema;
use crate::spill::{decode_value, encode_value, take, take_arr};
use crate::table::{Edit, Properties, SharedRow, Table, PROPERTY_KEYS};
use crate::value::{DataType, Value};

fn type_name(t: DataType) -> &'static str {
    match t {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Text => "text",
        DataType::Date => "date",
    }
}

fn parse_type(s: &str, path: &Path) -> Result<DataType, StorageError> {
    Ok(match s {
        "bool" => DataType::Bool,
        "int" => DataType::Int,
        "float" => DataType::Float,
        "text" => DataType::Text,
        "date" => DataType::Date,
        other => {
            return Err(StorageError::Schema {
                path: path.display().to_string(),
                message: format!("unknown column type {other:?}"),
            })
        }
    })
}

/// Parse the line-oriented schema text: its `<column> <type>` lines and
/// its `@<key> <value>` property lines.
fn parse_schema_text(text: &str, path: &Path) -> Result<(Schema, Properties), StorageError> {
    let mut pairs = Vec::new();
    let mut properties = Properties::new();
    for line in text.split('\n') {
        if let Some(property) = line.strip_prefix('@') {
            let (key, value) = property.split_once(' ').unwrap_or((property, ""));
            let Some(key) = PROPERTY_KEYS.into_iter().find(|k| *k == key) else {
                let message = format!("unknown table property key {key:?}");
                let path = path.display().to_string();
                return Err(StorageError::Schema { path, message });
            };
            properties.insert(key, unescape(value));
            continue;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (col, ty) = line.split_once(' ').ok_or_else(|| StorageError::Schema {
            path: path.display().to_string(),
            message: format!("malformed schema line {line:?} (expected \"<column> <type>\")"),
        })?;
        pairs.push((col.to_string(), parse_type(ty.trim(), path)?));
    }
    Ok((Schema::from_pairs(pairs)?, properties))
}

/// A property value as written: every `\\` pair is one `\`, and `\n`
/// outside those pairs a newline.
fn unescape(line: &str) -> String {
    let pieces: Vec<String> = line.split("\\\\").map(|p| p.replace("\\n", "\n")).collect();
    pieces.join("\\")
}

pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn take_u32(buf: &[u8], pos: &mut usize, path: &Path) -> Result<u32, StorageError> {
    Ok(u32::from_le_bytes(take_arr(buf, pos, path)?))
}

pub(crate) fn take_str(buf: &[u8], pos: &mut usize, path: &Path) -> Result<String, StorageError> {
    let len = take_u32(buf, pos, path)? as usize;
    let bytes = take(buf, pos, len, path)?;
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| corrupt(path, "string is not valid UTF-8".into()))
}

/// Append the image of `table` to `out`.
pub(crate) fn encode_table(table: &Table, out: &mut Vec<u8>) {
    let mut schema_text = String::new();
    for c in table.schema().columns() {
        schema_text.push_str(&format!("{} {}\n", c.name(), type_name(c.data_type())));
    }
    for (key, value) in &table.properties {
        let value = value.replace('\\', "\\\\").replace('\n', "\\n");
        schema_text.push_str(&format!("@{key} {value}\n"));
    }
    push_str(out, table.name());
    push_str(out, &schema_text);
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for row in table.shared_rows() {
        encode_row(row, out);
    }
}

fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        encode_value(v, out);
    }
}

fn decode_row(buf: &[u8], pos: &mut usize, path: &Path) -> Result<SharedRow, StorageError> {
    let nvals = take_u32(buf, pos, path)? as usize;
    // Cap the pre-allocation: the count is corruption-controlled.
    let mut row = Vec::with_capacity(nvals.min(1024));
    for _ in 0..nvals {
        row.push(decode_value(buf, pos, path)?);
    }
    Ok(row.into())
}

/// Append the encoding of `edit` to `out`.
pub(crate) fn encode_edit(edit: &Edit, out: &mut Vec<u8>) {
    out.extend_from_slice(&(edit.changed.len() as u32).to_le_bytes());
    for (pos, row) in &edit.changed {
        out.extend_from_slice(&(*pos as u32).to_le_bytes());
        match row {
            None => out.push(0),
            Some(row) => {
                out.push(1);
                encode_row(row, out);
            }
        }
    }
    out.extend_from_slice(&(edit.inserted.len() as u32).to_le_bytes());
    for (pos, row) in &edit.inserted {
        out.extend_from_slice(&(*pos as u32).to_le_bytes());
        encode_row(row, out);
    }
}

/// Decode one edit starting at `*pos`.
pub(crate) fn decode_edit(buf: &[u8], pos: &mut usize, path: &Path) -> Result<Edit, StorageError> {
    let mut edit = Edit::default();
    for _ in 0..take_u32(buf, pos, path)? {
        let at = take_u32(buf, pos, path)? as usize;
        let row = match take_arr::<1>(buf, pos, path)? {
            [0] => None,
            [1] => Some(decode_row(buf, pos, path)?),
            [kind] => {
                return Err(corrupt(
                    path,
                    format!("edit row kind {kind} is neither 0 nor 1"),
                ))
            }
        };
        edit.changed.push((at, row));
    }
    for _ in 0..take_u32(buf, pos, path)? {
        let at = take_u32(buf, pos, path)? as usize;
        edit.inserted.push((at, decode_row(buf, pos, path)?));
    }
    Ok(edit)
}

/// Decode one image that spans all of `buf`; `path` names the file the
/// bytes came from in any error.
pub(crate) fn decode_table(buf: &[u8], path: &Path) -> Result<Table, StorageError> {
    let mut pos = 0;
    let name = take_str(buf, &mut pos, path)?;
    let (schema, properties) = parse_schema_text(&take_str(buf, &mut pos, path)?, path)?;
    let nrows = take_u32(buf, &mut pos, path)? as usize;
    let mut table = Table::new(&name, schema);
    table.properties = properties;
    for _ in 0..nrows {
        table.insert(decode_row(buf, &mut pos, path)?)?;
    }
    if pos != buf.len() {
        return Err(corrupt(
            path,
            format!(
                "table image for {name:?} has {} trailing bytes",
                buf.len() - pos
            ),
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;

    fn pair() -> Table {
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]).unwrap();
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Int(7), Value::text("x")]).unwrap();
        t.insert(vec![Value::Null, Value::text("")]).unwrap();
        t
    }

    /// A table without properties keeps the image it had before
    /// properties existed, byte for byte.
    #[test]
    fn a_property_less_image_is_unchanged() {
        let mut bytes = Vec::new();
        encode_table(&pair(), &mut bytes);
        let mut want = vec![1, 0, 0, 0, b't', 13, 0, 0, 0];
        want.extend_from_slice(b"a int\nb text\n");
        want.extend_from_slice(&[2, 0, 0, 0]);
        want.extend_from_slice(&[2, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0, b'x']);
        want.extend_from_slice(&[2, 0, 0, 0, 0, 4, 0, 0, 0, 0]);
        assert_eq!(bytes, want);
    }

    #[test]
    fn an_unknown_property_key_is_refused_naming_it() {
        let path = Path::new("somewhere/props.tbl");
        let err = parse_schema_text("a int\n@colour blue\n", path).unwrap_err();
        assert!(
            matches!(&err, StorageError::Schema { message, .. } if message.contains("\"colour\"")),
            "{err:?}"
        );
        let err = pair().set_property("colour", "blue".into()).unwrap_err();
        assert!(matches!(&err, StorageError::Schema { message, .. } if message.contains("colour")));
    }

    proptest! {
        /// Any UTF-8 value survives the image: newlines, backslashes, a
        /// leading `@` and the empty string included.
        #[test]
        fn a_property_value_roundtrips(
            chars in proptest::collection::vec(
                prop_oneof![Just('\n'), Just('\\'), Just('n'), Just('@'), Just('\r'), any::<char>()],
                0..16,
            )
        ) {
            let value: String = chars.into_iter().collect();
            let mut t = pair();
            t.set_property("view", value.clone()).unwrap();
            let mut bytes = Vec::new();
            encode_table(&t, &mut bytes);
            let back = decode_table(&bytes, Path::new("p.tbl")).unwrap();
            prop_assert_eq!(back.property("view"), Some(value.as_str()));
            prop_assert_eq!(back.schema(), t.schema());
            prop_assert_eq!(back.rows(), t.rows());
        }
    }

    #[test]
    fn malformed_schema_rejected_with_schema_error_naming_the_file() {
        let path = Path::new("somewhere/bad.tbl");
        let err = parse_schema_text("no-type-here\n", path).unwrap_err();
        match &err {
            StorageError::Schema { path, .. } => assert!(path.contains("bad.tbl"), "{err}"),
            other => panic!("expected Schema error, got {other:?}"),
        }
        let err = parse_schema_text("col weirdtype\n", path).unwrap_err();
        assert!(
            matches!(&err, StorageError::Schema { message, .. } if message.contains("weirdtype")),
            "{err:?}"
        );
    }

    #[test]
    fn every_value_shape_roundtrips_and_every_cut_is_refused() {
        let mut t = Table::new(
            "v",
            Schema::from_pairs([("s", DataType::Text), ("f", DataType::Float)]).unwrap(),
        );
        for row in [
            vec![Value::Null, Value::Float(-f64::NAN)],
            vec![Value::text(""), Value::Float(-0.0)],
            vec![Value::text("a,\"b\"\n"), Value::Null],
        ] {
            t.insert(row).unwrap();
        }
        let mut bytes = Vec::new();
        encode_table(&t, &mut bytes);
        let path = Path::new("v.tbl");
        let back = decode_table(&bytes, path).unwrap();
        assert_eq!((back.name(), back.schema()), (t.name(), t.schema()));
        assert_eq!(back.rows(), t.rows(), "Value equality compares float bits");
        for cut in 0..bytes.len() {
            assert!(decode_table(&bytes[..cut], path).is_err(), "cut at {cut}");
        }
        bytes.push(0);
        assert!(decode_table(&bytes, path).is_err(), "trailing byte");
    }
}
