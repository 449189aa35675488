//! ARFF (Attribute-Relation File Format) reader and writer.
//!
//! This is the native format of the paper's Web Services: the
//! `classifyInstance` operation of the general Classifier service
//! requires "a data set in ARFF format". The dialect implemented here
//! covers what WEKA 3.4 (the version the paper wrapped) emits:
//!
//! * `% comment` lines and blank lines anywhere;
//! * `@relation <name>` with optional quoting;
//! * `@attribute <name> numeric|real|integer|string|{l1,l2,...}`;
//! * dense `@data` rows with `?` for missing values and single-quoted
//!   tokens containing separators;
//! * sparse rows `{index value, index value, ...}`.

use crate::attribute::{Attribute, AttributeKind};
use crate::dataset::{push_numeric, Dataset, Value};
use crate::error::{DataError, Result};
use std::borrow::Cow;

/// Parse an ARFF document into a [`Dataset`].
///
/// ```
/// let text = "@relation toy\n@attribute a {x,y}\n@attribute b numeric\n@data\nx,1\ny,?\n";
/// let ds = dm_data::arff::parse_arff(text).unwrap();
/// assert_eq!(ds.num_instances(), 2);
/// assert!(ds.instance(1).is_missing(1));
/// ```
pub fn parse_arff(text: &str) -> Result<Dataset> {
    let mut relation = String::from("unnamed");
    let mut attributes: Vec<Attribute> = Vec::new();
    let mut dataset: Option<Dataset> = None;

    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(ds) = dataset.as_mut() {
            // Data section: cells borrow the header's attributes from the
            // local copy, which leaves the dataset free for interning.
            if line.starts_with('{') {
                push_sparse_row(ds, &attributes, line, lineno)?;
            } else {
                push_dense_row(ds, &attributes, line, lineno)?;
            }
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("@relation") {
            relation = unquote(line["@relation".len()..].trim()).to_string();
        } else if lower.starts_with("@attribute") {
            let decl = line["@attribute".len()..].trim();
            attributes.push(parse_attribute_decl(decl, lineno)?);
        } else if lower.starts_with("@data") {
            if attributes.is_empty() {
                let message = "@data before any @attribute declaration";
                return Err(parse_error(lineno, message));
            }
            dataset = Some(Dataset::new(relation.clone(), attributes.clone()));
        } else {
            let message = format!("unrecognised header line: {line:?}");
            return Err(parse_error(lineno, message));
        }
    }

    dataset.ok_or(parse_error(0, "no @data section"))
}

fn parse_error(line: usize, message: impl Into<String>) -> DataError {
    DataError::Parse {
        line,
        message: message.into(),
    }
}

/// Without quotes, [`split_csv_line`] is exactly a split on commas with
/// each field trimmed, so such lines borrow their fields.
fn push_dense_row(ds: &mut Dataset, attrs: &[Attribute], line: &str, lineno: usize) -> Result<()> {
    let unquoted;
    let fields: Vec<&str> = if line.contains('\'') {
        unquoted = split_csv_line(line);
        unquoted.iter().map(String::as_str).collect()
    } else {
        line.split(',').map(str::trim).collect()
    };
    if fields.len() != attrs.len() {
        let (got, want) = (fields.len(), attrs.len());
        let message = format!("row has {got} values, header declares {want} attributes");
        return Err(parse_error(lineno, message));
    }
    let row = (fields.iter().zip(attrs))
        .map(|(field, attr)| encode_cell(ds, attr, field, lineno))
        .collect::<Result<_>>()?;
    ds.push_row(row)
}

fn push_sparse_row(ds: &mut Dataset, attrs: &[Attribute], line: &str, lineno: usize) -> Result<()> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| parse_error(lineno, "unterminated sparse row"))?;
    // Sparse rows default unlisted values to 0 (numeric) or first label.
    let mut row = vec![0.0; attrs.len()];
    if !inner.trim().is_empty() {
        for part in split_csv_line(inner) {
            let (idx, val) = part.split_once(char::is_whitespace).unwrap_or((&part, ""));
            let Ok(idx) = idx.trim().parse::<usize>() else {
                return Err(parse_error(lineno, "bad sparse index"));
            };
            let Some(attr) = attrs.get(idx) else {
                let message = format!("sparse index {idx} out of range");
                return Err(parse_error(lineno, message));
            };
            let val = val.trim();
            // Labels and strings are unquoted; numerics are taken as is.
            row[idx] = if val == "?" || attr.is_numeric() {
                encode_cell(ds, attr, val, lineno)?
            } else {
                encode_cell(ds, attr, &unquote(val), lineno)?
            };
        }
    }
    ds.push_row(row)
}

/// Encode one textual cell against its attribute: `?` is missing,
/// nominal labels resolve to their domain index, numerics must be
/// finite and strings are interned.
fn encode_cell(ds: &mut Dataset, attr: &Attribute, field: &str, lineno: usize) -> Result<f64> {
    if field == "?" {
        return Ok(Value::MISSING);
    }
    match attr.kind() {
        AttributeKind::Nominal(_) => {
            attr.label_index(field)
                .map(Value::from_index)
                .ok_or_else(|| {
                    let name = attr.name();
                    parse_error(
                        lineno,
                        format!("label {field:?} not in domain of attribute {name:?}"),
                    )
                })
        }
        AttributeKind::Numeric => parse_finite(field, lineno),
        AttributeKind::Str => Ok(Value::from_index(ds.intern_string(field))),
    }
}

/// Parse a numeric literal, rejecting non-finite values: `NaN` would
/// silently alias the missing-value sentinel and infinities poison
/// summary statistics, so both are malformed input here (WEKA's ARFF
/// has no non-finite literals either — `?` is the only missing marker).
fn parse_finite(field: &str, lineno: usize) -> Result<f64> {
    field
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| {
            let message = format!("{field:?} is not a finite number (use '?' for missing)");
            parse_error(lineno, message)
        })
}

fn parse_attribute_decl(decl: &str, lineno: usize) -> Result<Attribute> {
    // Name may be quoted and may contain spaces when quoted.
    let (name, rest) = take_token(decl);
    if name.is_empty() {
        return Err(parse_error(lineno, "missing attribute name"));
    }
    let rest = rest.trim();
    if rest.starts_with('{') {
        let inner = rest
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| parse_error(lineno, "unterminated nominal domain"))?;
        let labels: Vec<String> = split_csv_line(inner);
        Ok(Attribute::nominal(name, labels))
    } else {
        match rest.to_ascii_lowercase().as_str() {
            "numeric" | "real" | "integer" => Ok(Attribute::numeric(name)),
            "string" => Ok(Attribute::string(name)),
            other if other.starts_with("date") => {
                // Dates are stored as numeric timestamps; format is ignored.
                Ok(Attribute::numeric(name))
            }
            other => Err(parse_error(
                lineno,
                format!("unsupported attribute type {other:?}"),
            )),
        }
    }
}

/// Serialise a dataset to ARFF text.
pub fn write_arff(ds: &Dataset) -> String {
    let mut out = String::new();
    out.push_str(&format!("@relation {}\n\n", quote_if_needed(ds.relation())));
    for attr in ds.attributes() {
        out.push_str(&format!(
            "@attribute {} {}\n",
            quote_if_needed(attr.name()),
            attr.arff_type()
        ));
    }
    out.push_str("\n@data\n");
    for row in 0..ds.num_instances() {
        for (a, attr) in ds.attributes().iter().enumerate() {
            if a > 0 {
                out.push(',');
            }
            // Labels and strings are copied straight into `out`; only a
            // token that needs quotes allocates.
            let v = ds.value(row, a);
            let text = match attr.kind() {
                _ if Value::is_missing(v) => Some("?"),
                AttributeKind::Numeric => {
                    push_numeric(&mut out, v);
                    continue;
                }
                AttributeKind::Nominal(labels) => {
                    labels.get(Value::as_index(v)).map(String::as_str)
                }
                AttributeKind::Str => ds.string_at(Value::as_index(v)),
            };
            match text {
                // Missing cells and a literal `?` label are written bare.
                Some("?") => out.push('?'),
                Some(text) => out.push_str(&quote_if_needed(text)),
                None => out.push_str(&format!("#{}", Value::as_index(v))),
            }
        }
        out.push('\n');
    }
    out
}

/// Quote a token with single quotes when it contains ARFF separators
/// (borrowed unchanged otherwise).
pub fn quote_if_needed(token: &str) -> Cow<'_, str> {
    if token.is_empty() || token.contains([' ', ',', '{', '}', '%', '\'', '"']) {
        Cow::Owned(format!("'{}'", token.replace('\'', "\\'")))
    } else {
        Cow::Borrowed(token)
    }
}

/// Remove a trailing `%` comment, honouring quoting and, as
/// [`split_csv_line`] does, `\'` escapes inside quotes.
fn strip_comment(line: &str) -> &str {
    let (mut in_quote, mut escaped) = (false, false);
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quote => escaped = true,
            '\'' => in_quote = !in_quote,
            '%' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Split a comma-separated line, honouring single quotes, unquoting each
/// field and trimming surrounding whitespace.
pub(crate) fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quote => escaped = true,
            '\'' => in_quote = !in_quote,
            ',' if !in_quote => {
                fields.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    fields.push(cur.trim().to_string());
    fields
}

/// Take the first (possibly quoted) whitespace-delimited token.
fn take_token(s: &str) -> (String, &str) {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('\'') {
        if let Some(end) = rest.find('\'') {
            return (rest[..end].to_string(), &rest[end + 1..]);
        }
    }
    match s.find(char::is_whitespace) {
        Some(end) => (s[..end].to_string(), &s[end..]),
        None => (s.to_string(), ""),
    }
}

fn unquote(s: &str) -> String {
    let s = s.trim();
    if s.len() >= 2 && s.starts_with('\'') && s.ends_with('\'') {
        s[1..s.len() - 1].replace("\\'", "'")
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = "% a toy relation\n\
        @relation 'toy set'\n\
        @attribute outlook {sunny, overcast, rainy}\n\
        @attribute temperature real\n\
        @attribute 'play time' numeric\n\
        @attribute play {yes,no}\n\
        @data\n\
        sunny, 85, 5, no   % hot day\n\
        overcast, 83, 10, yes\n\
        rainy, ?, 0, yes\n";

    #[test]
    fn parse_toy() {
        let ds = parse_arff(TOY).unwrap();
        assert_eq!(ds.relation(), "toy set");
        assert_eq!(ds.num_attributes(), 4);
        assert_eq!(ds.num_instances(), 3);
        assert_eq!(ds.attribute(0).unwrap().labels().len(), 3);
        assert_eq!(ds.attribute(2).unwrap().name(), "play time");
        assert!(ds.instance(2).is_missing(1));
        assert_eq!(ds.instance(0).label(3), Some("no"));
    }

    #[test]
    fn roundtrip_preserves_values() {
        let ds = parse_arff(TOY).unwrap();
        let text = write_arff(&ds);
        let ds2 = parse_arff(&text).unwrap();
        assert_eq!(ds.num_instances(), ds2.num_instances());
        for r in 0..ds.num_instances() {
            for a in 0..ds.num_attributes() {
                let (x, y) = (ds.value(r, a), ds2.value(r, a));
                assert!(x.is_nan() == y.is_nan());
                if !x.is_nan() {
                    assert!((x - y).abs() < 1e-9, "mismatch at {r},{a}");
                }
            }
        }
    }

    #[test]
    fn sparse_rows() {
        let text = "@relation s\n@attribute a numeric\n@attribute b numeric\n@attribute c {u,v}\n@data\n{0 3, 2 v}\n{}\n";
        let ds = parse_arff(text).unwrap();
        assert_eq!(ds.num_instances(), 2);
        assert_eq!(ds.value(0, 0), 3.0);
        assert_eq!(ds.value(0, 1), 0.0);
        assert_eq!(ds.instance(0).label(2), Some("v"));
        assert_eq!(ds.value(1, 0), 0.0);
    }

    #[test]
    fn integer_and_date_types() {
        let text =
            "@relation t\n@attribute n integer\n@attribute d date yyyy-MM-dd\n@data\n4,100\n";
        let ds = parse_arff(text).unwrap();
        assert!(ds.attribute(0).unwrap().is_numeric());
        assert!(ds.attribute(1).unwrap().is_numeric());
    }

    #[test]
    fn string_attributes_interned() {
        let text = "@relation t\n@attribute note string\n@data\nhello\nhello\nworld\n";
        let ds = parse_arff(text).unwrap();
        assert_eq!(ds.value(0, 0), ds.value(1, 0));
        assert_ne!(ds.value(0, 0), ds.value(2, 0));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "@relation t\n@attribute a numeric\n@data\nnot_a_number\n";
        match parse_arff(text) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_data_section_is_error() {
        let text = "@relation t\n@attribute a numeric\n";
        assert!(parse_arff(text).is_err());
    }

    #[test]
    fn unknown_header_line_is_error() {
        let text = "@relation t\n@bogus x\n@data\n";
        assert!(parse_arff(text).is_err());
    }

    #[test]
    fn wrong_arity_row_is_error() {
        let text = "@relation t\n@attribute a numeric\n@attribute b numeric\n@data\n1\n";
        match parse_arff(text) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_numeric_literals_rejected() {
        for literal in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let text = format!("@relation t\n@attribute a numeric\n@data\n{literal}\n");
            match parse_arff(&text) {
                Err(DataError::Parse { line, message }) => {
                    assert_eq!(line, 4, "{literal}");
                    assert!(message.contains("finite"), "{literal}: {message}");
                }
                other => panic!("{literal} accepted as numeric: {other:?}"),
            }
        }
        // Sparse rows run through the same guard.
        let sparse = "@relation t\n@attribute a numeric\n@data\n{0 NaN}\n";
        assert!(parse_arff(sparse).is_err());
        // The explicit missing marker still works in both forms.
        let ok = "@relation t\n@attribute a numeric\n@data\n?\n{0 ?}\n";
        let ds = parse_arff(ok).unwrap();
        assert!(ds.instance(0).is_missing(0));
        assert!(ds.instance(1).is_missing(0));
    }

    #[test]
    fn quoting_labels_with_spaces() {
        let a = Attribute::nominal("x", ["big label", "ok"]);
        let mut ds = Dataset::new("q", vec![a]);
        ds.push_labels(&["big label"]).unwrap();
        let text = write_arff(&ds);
        assert!(text.contains("'big label'"));
        let ds2 = parse_arff(&text).unwrap();
        assert_eq!(ds2.instance(0).label(0), Some("big label"));
    }
}
