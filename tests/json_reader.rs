//! Pins of `wsync_core::json::parse` itself: for each document, the exact
//! [`Value`] it reads or the exact [`JsonError`] (line, column and
//! message) it fails with, and the cost of duplicate-key detection in one
//! very large object.
//!
//! Every spec file, `/run` and `/sweep` body and re-spelled store line
//! reaches the program through this reader, so a rewrite of it must keep
//! every value and every error, byte position included.
//! `tests/json_properties.rs` checks round trips and totality on random
//! documents; this file pins the answers.

use wireless_sync::sync::json::{self, JsonError, Value, MAX_NESTING_DEPTH};

fn err(line: usize, column: usize, message: &str) -> Result<Value, JsonError> {
    Err(JsonError {
        line,
        column,
        message: message.to_string(),
    })
}

fn string(text: &str) -> Result<Value, JsonError> {
    Ok(Value::Str(text.to_string()))
}

#[test]
fn every_document_reads_as_its_pinned_value_or_error() {
    let mut cases: Vec<(String, Result<Value, JsonError>)> = [
        // Truncated documents.
        ("", err(1, 1, "unexpected end of input")),
        ("   ", err(1, 4, "unexpected end of input")),
        ("{", err(1, 2, "expected '\"'")),
        ("[1,", err(1, 4, "unexpected end of input")),
        ("[1, 2", err(1, 6, "expected ',' or ']' in array")),
        ("{\"a\": ", err(1, 7, "unexpected end of input")),
        ("{\"a\": 1,", err(1, 9, "expected '\"'")),
        ("tru", err(1, 1, "expected 'true'")),
        ("nul", err(1, 1, "expected 'null'")),
        ("-", err(1, 2, "expected digits in number")),
        ("1e", err(1, 3, "expected digits in exponent")),
        ("\"unterminated", err(1, 14, "unterminated string")),
        ("\"ab\\n", err(1, 6, "unterminated string")),
        ("\"\\\"", err(1, 4, "unterminated string")),
        // Structural garbage.
        ("{\"a\"}", err(1, 5, "expected ':'")),
        ("{1: 2}", err(1, 2, "expected '\"'")),
        ("{,}", err(1, 2, "expected '\"'")),
        ("{\"a\":1,}", err(1, 8, "expected '\"'")),
        (
            "{\"a\":1 \"b\":2}",
            err(1, 8, "expected ',' or '}' in object"),
        ),
        ("[1 2]", err(1, 4, "expected ',' or ']' in array")),
        ("[1,,2]", err(1, 4, "unexpected character ','")),
        ("[1,]", err(1, 4, "unexpected character ']'")),
        ("[} ", err(1, 2, "unexpected character '}'")),
        ("+1", err(1, 1, "unexpected character '+'")),
        (".5", err(1, 1, "unexpected character '.'")),
        // Trailing garbage.
        ("{} garbage", err(1, 4, "unexpected trailing characters")),
        ("nullnull", err(1, 5, "unexpected trailing characters")),
        ("1 2", err(1, 3, "unexpected trailing characters")),
        ("1.2.3", err(1, 4, "unexpected trailing characters")),
        ("1x", err(1, 2, "unexpected trailing characters")),
        ("0-1", err(1, 2, "unexpected trailing characters")),
        // Duplicate keys, however they are spelled and wherever they nest.
        (
            "{\"a\":1,\"a\":2}",
            err(1, 11, "duplicate object key \"a\""),
        ),
        (
            "{\"a\": 1, \"a\": 2}",
            err(1, 13, "duplicate object key \"a\""),
        ),
        (
            "{\"x\": {\"k\": 1, \"k\": 1}}",
            err(1, 19, "duplicate object key \"k\""),
        ),
        (
            "{\"ab\":1,\"a\\u0062\":2}",
            err(1, 18, "duplicate object key \"ab\""),
        ),
        (
            "{\"a\\\"b\":1,\"a\\\"b\":2}",
            err(1, 17, "duplicate object key \"a\"b\""),
        ),
        (
            "[{\"a\":1},{\"b\":{\"a\":1},\"a\":2,\"b\":3}]",
            err(1, 32, "duplicate object key \"b\""),
        ),
        // Escapes, surrogates and raw control characters.
        ("\"\\q\"", err(1, 3, "invalid escape sequence")),
        ("\"\\u12\"", err(1, 4, "truncated \\u escape")),
        ("\"\\u12g4\"", err(1, 4, "invalid \\u escape digits")),
        ("\"\\u00\u{e9}\"", err(1, 4, "invalid \\u escape digits")),
        ("\"\\u0\u{1F600}\"", err(1, 4, "invalid \\u escape")),
        ("\"\\ud800\"", err(1, 8, "lone high surrogate")),
        ("\"\\ud800", err(1, 8, "lone high surrogate")),
        ("\"\\ud800x\"", err(1, 8, "lone high surrogate")),
        ("\"\\ud800\\n\"", err(1, 9, "expected 'u'")),
        ("\"\\ud800\\u00\"", err(1, 10, "truncated \\u escape")),
        ("\"\\ud800\\u0041\"", err(1, 14, "invalid low surrogate")),
        ("\"\\udc00\"", err(1, 8, "invalid unicode escape")),
        ("\"\\ud83d\\ude00\"", string("\u{1F600}")),
        ("\"\\uD83D\\uDE00\"", string("\u{1F600}")),
        ("\"\\u0000\"", string("\u{0}")),
        (
            "\"a\\u00e9\\n\\/\\b\\f\\r\\t\\\"\\\\\"",
            string("a\u{e9}\n/\u{8}\u{c}\r\t\"\\"),
        ),
        (
            "\"\u{4e2d}\u{1F600}\u{7f}\"",
            string("\u{4e2d}\u{1F600}\u{7f}"),
        ),
        (
            "\"a\tb\"",
            err(1, 3, "unescaped control character in string"),
        ),
        (
            "\"\\n\u{1}\"",
            err(1, 4, "unescaped control character in string"),
        ),
        (
            "{\"a\nb\":1}",
            err(1, 4, "unescaped control character in string"),
        ),
        // Numbers: signs, the i64 edge, leading zeros and overflow.
        ("-0", Ok(Value::Int(0))),
        ("-0.0", Ok(Value::Float(-0.0))),
        ("9223372036854775807", Ok(Value::Int(i64::MAX))),
        (
            "9223372036854775808",
            Ok(Value::Float(9.223372036854776e18)),
        ),
        ("-9223372036854775808", Ok(Value::Int(i64::MIN))),
        (
            "-9223372036854775809",
            Ok(Value::Float(-9.223372036854776e18)),
        ),
        (
            "123456789012345678",
            Ok(Value::Int(123_456_789_012_345_678)),
        ),
        ("1e-999", Ok(Value::Float(0.0))),
        ("1E+2", Ok(Value::Float(100.0))),
        ("2.5E-1", Ok(Value::Float(0.25))),
        ("0e0", Ok(Value::Float(0.0))),
        ("1.", err(1, 3, "expected digits after decimal point")),
        ("1.e5", err(1, 3, "expected digits after decimal point")),
        ("1e+", err(1, 4, "expected digits in exponent")),
        ("-a", err(1, 2, "expected digits in number")),
        ("01", err(1, 3, "leading zeros are not allowed in numbers")),
        ("01x", err(1, 3, "leading zeros are not allowed in numbers")),
        (
            "-007",
            err(1, 5, "leading zeros are not allowed in numbers"),
        ),
        (
            "00.5",
            err(1, 3, "leading zeros are not allowed in numbers"),
        ),
        (
            "{\"n\": 08}",
            err(1, 9, "leading zeros are not allowed in numbers"),
        ),
        ("1e999", err(1, 6, "number out of range")),
        ("-1e999", err(1, 7, "number out of range")),
        ("1.5e400", err(1, 8, "number out of range")),
        // Whole documents, and positions past line breaks and multi-byte
        // characters (columns count bytes).
        (" \t\n\r {} \n", Ok(Value::Object(Vec::new()))),
        (
            "{\"z\":1,\"a\":[true,false,null],\"m\":{\"\":-2.5e-3}}",
            Ok(Value::Object(vec![
                ("z".to_string(), Value::Int(1)),
                (
                    "a".to_string(),
                    Value::Array(vec![Value::Bool(true), Value::Bool(false), Value::Null]),
                ),
                (
                    "m".to_string(),
                    Value::Object(vec![(String::new(), Value::Float(-0.0025))]),
                ),
            ])),
        ),
        ("[\"\u{e9}\", x]", err(1, 8, "unexpected character 'x'")),
        ("[\r\n1,\r\n]", err(3, 1, "unexpected character ']'")),
        (
            "{\n  \"a\": 1,\n  \"b\": nope\n}",
            err(3, 8, "expected 'null'"),
        ),
    ]
    .into_iter()
    .map(|(doc, want)| (doc.to_string(), want))
    .collect();

    // Nesting: MAX_NESTING_DEPTH containers read, one more is refused at
    // the container that crosses the limit.
    let mut deepest = Value::Int(1);
    for _ in 0..MAX_NESTING_DEPTH {
        deepest = Value::Array(vec![deepest]);
    }
    let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    cases.push((nested(MAX_NESTING_DEPTH), Ok(deepest)));
    cases.push((
        nested(MAX_NESTING_DEPTH + 1),
        err(1, 129, "maximum nesting depth (128) exceeded"),
    ));
    cases.push((
        "{\"k\":".repeat(MAX_NESTING_DEPTH + 1),
        err(1, 641, "maximum nesting depth (128) exceeded"),
    ));

    assert!(cases.len() >= 40);
    for (doc, want) in &cases {
        // `Debug` tells -0.0 from 0.0, which `PartialEq` does not.
        assert_eq!(
            format!("{:?}", json::parse(doc)),
            format!("{want:?}"),
            "{doc:?}"
        );
    }
}

/// One object of 200,000 distinct keys (about 2 MB): a reader that compares
/// each key with every earlier one takes minutes here, while an ordered set
/// of the keys takes milliseconds. CI runs this test in release under a
/// time limit.
#[test]
fn an_object_of_200000_keys_reads_and_a_repeated_last_key_is_refused() {
    const KEYS: usize = 200_000;
    let members: Vec<String> = (0..KEYS).map(|i| format!("\"k{i}\":0")).collect();
    let members = members.join(",");
    let object = json::parse(&format!("{{{members}}}")).expect("distinct keys");
    let read = object.as_object().expect("an object");
    assert_eq!(read.len(), KEYS);
    assert_eq!(read[KEYS - 1].0, format!("k{}", KEYS - 1));

    let repeated = "k123456";
    let through_key = format!("{{{members},\"{repeated}\"");
    let doc = format!("{through_key}:1}}");
    assert_eq!(
        json::parse(&doc),
        err(
            1,
            through_key.len() + 1,
            &format!("duplicate object key \"{repeated}\"")
        )
    );
}
