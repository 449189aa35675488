//! Equivalence battery for the ARFF row path.
//!
//! `parse_arff` encodes cells through one borrowing encoder with a
//! split-on-commas fast path for lines without quotes, and `write_arff`
//! writes labels straight into its output. These tests pin both against
//! the behaviour they replaced: `parse_arff(write_arff(ds)) == ds` over
//! generated datasets, `write_arff` byte-equal to a reference writer
//! built from `format_value` + quoting, and exact error variants,
//! messages and line numbers on unquoted and quoted data lines.

use dm_data::arff::{parse_arff, write_arff};
use dm_data::error::DataError;
use dm_data::{Attribute, Dataset, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// The writer `write_arff` replaced: render each cell with
/// `format_value`, write `?` bare and quote everything else on demand.
fn reference_write(ds: &Dataset) -> String {
    fn quote(token: &str) -> String {
        if token.is_empty() || token.contains([' ', ',', '{', '}', '%', '\'', '"']) {
            format!("'{}'", token.replace('\'', "\\'"))
        } else {
            token.to_string()
        }
    }
    let mut out = format!("@relation {}\n\n", quote(ds.relation()));
    for attr in ds.attributes() {
        out.push_str(&format!(
            "@attribute {} {}\n",
            quote(attr.name()),
            attr.arff_type()
        ));
    }
    out.push_str("\n@data\n");
    for row in 0..ds.num_instances() {
        let cells: Vec<String> = (0..ds.num_attributes())
            .map(|a| match ds.format_value(row, a) {
                text if text == "?" => text,
                text => quote(&text),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Build a dataset from sampled material: `kinds` picks each column's
/// type (plain-label nominal, quoting-label nominal, numeric, string),
/// and each `cells` draw fills one cell (about one in eight missing).
fn build(
    kinds: &[u8],
    plain: &[String],
    quoted: &[String],
    cells: &[u64],
    numbers: &[f64],
) -> Dataset {
    fn distinct(pool: &[String]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for label in pool {
            if !out.contains(label) {
                out.push(label.clone());
            }
        }
        out
    }
    let mixed: Vec<String> = distinct(
        &quoted
            .iter()
            .zip(plain)
            .flat_map(|(q, p)| [q.clone(), p.clone()])
            .collect::<Vec<_>>(),
    );
    let attributes: Vec<Attribute> = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            0 => Attribute::nominal(format!("a{i}"), distinct(plain)),
            1 => Attribute::nominal(format!("col {i}"), mixed.clone()),
            2 => Attribute::numeric(format!("n{i}")),
            _ => Attribute::string(format!("s {i}")),
        })
        .collect();
    let mut ds = Dataset::new("rel with space", attributes);
    for row in cells.chunks_exact(kinds.len()) {
        let mut encoded = Vec::with_capacity(row.len());
        for (a, &draw) in row.iter().enumerate() {
            let pick = (draw >> 3) as usize;
            let attr = ds.attribute(a).unwrap().clone();
            encoded.push(if draw % 8 == 0 {
                Value::MISSING
            } else if attr.is_numeric() {
                match draw % 3 {
                    0 => (pick % 2001) as f64 - 1000.0,
                    _ => numbers[pick % numbers.len()],
                }
            } else if attr.is_nominal() {
                Value::from_index(pick % attr.num_labels())
            } else {
                let text = mixed[pick % mixed.len()].clone();
                Value::from_index(ds.intern_string(text))
            });
        }
        ds.push_row(encoded).unwrap();
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn write_then_parse_is_identity(
        kinds in vec(0u8..4, 1..6),
        plain in vec("[a-z][a-z0-9_.-]{0,5}", 1..6),
        quoted in vec("[a-z][ ,{}%'\"]{1,2}[a-z]{1,3}", 1..6),
        cells in vec(any::<u64>(), 0..96),
        numbers in vec(-1.0e6f64..1.0e6, 1..8),
    ) {
        let ds = build(&kinds, &plain, &quoted, &cells, &numbers);
        let text = write_arff(&ds);
        prop_assert_eq!(&text, &reference_write(&ds));
        let back = parse_arff(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert!(back == ds, "round trip changed the dataset:\n{}", text);
        // Writing the parsed copy reproduces the same bytes.
        prop_assert_eq!(write_arff(&back), text);
    }
}

const HEADER: &str = "@relation t\n@attribute a {x,'y z'}\n@attribute b numeric\n@data\n";

fn parse_row(row: &str) -> Result<Dataset, DataError> {
    parse_arff(&format!("{HEADER}x,1\n{row}\n"))
}

fn parse_error(line: usize, message: &str) -> Result<Dataset, DataError> {
    Err(DataError::Parse {
        line,
        message: message.to_string(),
    })
}

#[test]
fn quoted_and_unquoted_rows_encode_alike() {
    let unquoted = parse_row("x , 2.5").unwrap();
    let quoted = parse_row("'x',2.5").unwrap();
    assert_eq!(unquoted, quoted);
    let ds = parse_row("'y z',?").unwrap();
    assert_eq!(ds.instance(1).label(0), Some("y z"));
    assert!(ds.instance(1).is_missing(1));
}

#[test]
fn unknown_label_error_is_pinned() {
    assert_eq!(
        parse_row("w,1"),
        parse_error(6, "label \"w\" not in domain of attribute \"a\"")
    );
    assert_eq!(
        parse_row("'w v',1"),
        parse_error(6, "label \"w v\" not in domain of attribute \"a\"")
    );
}

#[test]
fn wrong_arity_error_is_pinned() {
    assert_eq!(
        parse_row("x"),
        parse_error(6, "row has 1 values, header declares 2 attributes")
    );
    assert_eq!(
        parse_row("'y z',1,2"),
        parse_error(6, "row has 3 values, header declares 2 attributes")
    );
}

#[test]
fn non_finite_numeric_error_is_pinned() {
    assert_eq!(
        parse_row("x,NaN"),
        parse_error(6, "\"NaN\" is not a finite number (use '?' for missing)")
    );
    assert_eq!(
        parse_row("'y z',-inf"),
        parse_error(6, "\"-inf\" is not a finite number (use '?' for missing)")
    );
}

#[test]
fn escaped_quote_does_not_expose_a_quoted_percent_as_a_comment() {
    let text = "@relation t\n@attribute a {'it\\'s 5%',b}\n@data\n'it\\'s 5%' % note\n";
    let ds = parse_arff(text).unwrap();
    assert_eq!(ds.instance(0).label(0), Some("it's 5%"));
    assert_eq!(parse_arff(&write_arff(&ds)).unwrap(), ds);
}

#[test]
fn comments_and_blank_lines_keep_line_numbers() {
    let text = format!("{HEADER}% note\n\nx,1 % trailing\n'x',bad\n");
    assert_eq!(
        parse_arff(&text),
        parse_error(8, "\"bad\" is not a finite number (use '?' for missing)")
    );
}
