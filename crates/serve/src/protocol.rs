//! The patty-json line protocol.
//!
//! One request object per line, one response object per line, both
//! rendered compact (patty-json's `to_string` never emits newlines).
//!
//! Request grammar:
//!
//! ```text
//! {"id": <int>, "op": "analyze"|"tune"|"faultcheck"|"trace"|"stats"|"shutdown",
//!  "source": "<minilang program>"}        // required for job ops
//! ```
//!
//! Responses always echo `id` and `op` and carry a `status`:
//!
//! ```text
//! {"id":1,"op":"analyze","status":"ok","cached":"memory"|"disk"|"coalesced"|"no",
//!  "micros":N,"result":{...}}
//! {"id":1,"op":"tune","status":"shed","retry_after_ms":N}
//! {"id":1,"op":"trace","status":"error"|"deadline","error":"..."}
//! ```

use patty_json::{de, Json};
use std::fmt::Write as _;

/// A parsed request line. `id` defaults to 0 when absent so replies
/// can always echo something.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub id: i64,
    pub op: String,
    pub source: Option<String>,
}

pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = patty_json::parse(line).map_err(|e| format!("bad request json: {e}"))?;
    let op = match &v {
        Json::Obj(_) => de::str_field(&v, "op", "request")?,
        _ => {
            return Err(format!(
                "request must be a json object, got {}",
                v.type_name()
            ))
        }
    };
    let id = v.get("id").and_then(Json::as_i64).unwrap_or(0);
    // The program text is the bulk of a request: move it out of the
    // tree (first `source` field, as `Json::get` has it), don't copy it.
    let source = match v {
        Json::Obj(fields) => fields.into_iter().find(|(key, _)| key == "source"),
        _ => None,
    };
    let source = match source {
        Some((_, Json::Str(text))) => Some(text),
        _ => None,
    };
    Ok(Request { id, op, source })
}

/// Append an `ok` response around a result that is already rendered:
/// the bytes `ok_response(id, op, cached, micros, result).to_string()`
/// yields, without building or walking a tree. `op` and `cached` are
/// protocol tokens, never client text, so they need no escaping.
pub(crate) fn write_ok(
    out: &mut String,
    id: i64,
    op: &'static str,
    cached: &'static str,
    micros: u64,
    result: &str,
) {
    let _ = write!(
        out,
        "{{\"id\":{id},\"op\":\"{op}\",\"status\":\"ok\",\"cached\":\"{cached}\",\"micros\":{},\"result\":",
        micros as i64
    );
    out.push_str(result);
    out.push('}');
}

pub fn ok_response(id: i64, op: &str, cached: &str, micros: u64, result: Json) -> Json {
    Json::obj()
        .with("id", Json::Int(id))
        .with("op", Json::Str(op.into()))
        .with("status", Json::Str("ok".into()))
        .with("cached", Json::Str(cached.into()))
        .with("micros", Json::Int(micros as i64))
        .with("result", result)
}

pub fn shed_response(id: i64, op: &str, retry_after_ms: u64) -> Json {
    Json::obj()
        .with("id", Json::Int(id))
        .with("op", Json::Str(op.into()))
        .with("status", Json::Str("shed".into()))
        .with("retry_after_ms", Json::Int(retry_after_ms as i64))
}

pub fn error_response(id: i64, op: &str, error: &str, deadline: bool) -> Json {
    let status = if deadline { "deadline" } else { "error" };
    Json::obj()
        .with("id", Json::Int(id))
        .with("op", Json::Str(op.into()))
        .with("status", Json::Str(status.into()))
        .with("error", Json::Str(error.into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request_line() {
        let req = parse_request(r#"{"id": 7, "op": "analyze", "source": "x = 1"}"#).unwrap();
        assert_eq!(
            req,
            Request {
                id: 7,
                op: "analyze".into(),
                source: Some("x = 1".into()),
            }
        );
    }

    #[test]
    fn id_and_source_are_optional_op_is_not() {
        let req = parse_request(r#"{"op": "stats"}"#).unwrap();
        assert_eq!(req.id, 0);
        assert_eq!(req.source, None);
        assert!(parse_request(r#"{"id": 1}"#).is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request("{nope").is_err());
    }

    #[test]
    fn responses_are_single_line_and_round_trip() {
        let ok = ok_response(3, "tune", "memory", 42, Json::obj().with("k", Json::Int(1)));
        let line = ok.to_string();
        assert!(!line.contains('\n'));
        let back = patty_json::parse(&line).unwrap();
        assert_eq!(back.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(back.get("micros").and_then(Json::as_i64), Some(42));

        let shed = shed_response(1, "tune", 50).to_string();
        assert!(shed.contains("\"retry_after_ms\":50"));
        let err = error_response(1, "trace", "boom", true);
        assert_eq!(err.get("status").and_then(Json::as_str), Some("deadline"));
    }

    #[test]
    fn the_first_source_field_wins_and_a_non_string_is_none() {
        let req = parse_request(r#"{"op":"tune","source":"a","source":"b"}"#).unwrap();
        assert_eq!(req.source.as_deref(), Some("a"));
        let req = parse_request(r#"{"op":"tune","source":7,"source":"b"}"#).unwrap();
        assert_eq!(req.source, None);
    }

    #[test]
    fn spliced_ok_equals_the_tree_rendering() {
        let result = Json::obj()
            .with("text", "q\"b\\n\n\u{1}é\u{1F600}")
            .with("n", -3i64);
        for (id, micros) in [(0, 0), (-7, 1), (i64::MAX, u64::MAX >> 1)] {
            let mut out = String::from("kept");
            write_ok(&mut out, id, "tune", "disk", micros, &result.to_string());
            let tree = ok_response(id, "tune", "disk", micros, result.clone());
            assert_eq!(out, format!("kept{tree}"));
        }
    }
}
