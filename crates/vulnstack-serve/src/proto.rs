//! Wire protocol: line-delimited JSON RPC.
//!
//! Every request is one JSON object on one `\n`-terminated line:
//!
//! ```text
//! {"id":1,"verb":"submit","spec":{...}}
//! {"id":2,"verb":"subscribe","handle":"c41b..."}
//! ```
//!
//! Every response echoes the request `id`. Success responses carry
//! `"ok":true` plus verb-specific fields; failures carry an `"error"`
//! object with a stable machine-readable `code` and a human-readable
//! `message`. Subscription events are pushed as id-less objects with an
//! `"event"` discriminator (`record`, `done`).
//!
//! The framing layer is deliberately paranoid: lines are capped at
//! [`MAX_LINE`] bytes (an oversized line is consumed to its newline and
//! answered with an error, the connection survives), malformed JSON
//! never panics, and unknown verbs/handles get structured errors.

use std::io::{BufRead, ErrorKind};

use vulnstack_core::json::{self, obj, s, Value};

/// Longest request line the daemon will buffer, terminator included.
pub const MAX_LINE: usize = 64 * 1024;

/// Stable error codes. Clients dispatch on these, not on messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The line exceeded [`MAX_LINE`] bytes.
    OversizedLine,
    /// The document parsed but is not a request object with an
    /// integer `id`.
    BadRequest,
    /// The `verb` field is missing or names no known verb.
    UnknownVerb,
    /// The verb's parameters are missing or malformed.
    BadParams,
    /// The referenced campaign handle does not exist.
    UnknownHandle,
    /// The daemon failed to execute an otherwise valid request.
    Internal,
}

impl ErrorCode {
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::OversizedLine => "oversized-line",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::BadParams => "bad-params",
            ErrorCode::UnknownHandle => "unknown-handle",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed request: `id` for response correlation, `verb`, and the
/// whole document for verb-specific parameter extraction.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub verb: String,
    pub body: Value,
}

/// One framed read: a request, a protocol error (answerable — the
/// connection survives), or end-of-stream.
#[derive(Debug)]
pub enum Frame {
    Request(Request),
    /// Protocol violation. `id` is the request id when one could be
    /// recovered from the document, so the client can correlate.
    Bad {
        id: Option<u64>,
        code: ErrorCode,
        message: String,
    },
    Eof,
}

/// Reads one `\n`-terminated line, enforcing [`MAX_LINE`]. An oversized
/// line is drained to its newline so the stream stays framed.
pub fn read_line(r: &mut impl BufRead) -> std::io::Result<Option<Result<String, usize>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() && overflow == 0 {
                    return Ok(None);
                }
                // Unterminated trailing data: treat as a (short) line.
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if buf.len() >= MAX_LINE {
                    overflow += 1;
                } else {
                    buf.push(byte[0]);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if overflow > 0 {
        return Ok(Some(Err(MAX_LINE + overflow)));
    }
    Ok(Some(Ok(String::from_utf8_lossy(&buf).into_owned())))
}

/// Parses one line into a [`Frame`]. Never panics on any input.
pub fn decode_line(line: Result<&str, usize>) -> Frame {
    let line = match line {
        Ok(l) => l,
        Err(len) => {
            return Frame::Bad {
                id: None,
                code: ErrorCode::OversizedLine,
                message: format!("line of {len} bytes exceeds the {MAX_LINE}-byte cap"),
            }
        }
    };
    if line.trim().is_empty() {
        return Frame::Bad {
            id: None,
            code: ErrorCode::BadRequest,
            message: "empty line".to_string(),
        };
    }
    let doc = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Frame::Bad {
                id: None,
                code: ErrorCode::BadJson,
                message: e.to_string(),
            }
        }
    };
    let id = doc.get("id").and_then(Value::as_u64);
    let Value::Obj(_) = doc else {
        return Frame::Bad {
            id,
            code: ErrorCode::BadRequest,
            message: "request must be a JSON object".to_string(),
        };
    };
    let Some(id) = id else {
        return Frame::Bad {
            id: None,
            code: ErrorCode::BadRequest,
            message: "request needs an integer \"id\"".to_string(),
        };
    };
    let Some(verb) = doc.get("verb").and_then(Value::as_str) else {
        return Frame::Bad {
            id: Some(id),
            code: ErrorCode::UnknownVerb,
            message: "request needs a string \"verb\"".to_string(),
        };
    };
    Frame::Request(Request {
        id,
        verb: verb.to_string(),
        body: doc.clone(),
    })
}

/// Reads and decodes one frame from the stream.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Frame> {
    match read_line(r)? {
        None => Ok(Frame::Eof),
        Some(line) => Ok(decode_line(line.as_deref().map_err(|e| *e))),
    }
}

/// A success response: `{"id":N,"ok":true, ...fields}`, one line.
pub fn ok_response(id: u64, mut fields: Vec<(&str, Value)>) -> String {
    let mut all = vec![("id", json::n(id)), ("ok", Value::Bool(true))];
    all.append(&mut fields);
    json::write(&obj(all)) + "\n"
}

/// An error response: `{"id":N,"ok":false,"error":{"code":..,"message":..}}`.
/// `id` 0 is used when no request id could be recovered.
pub fn err_response(id: Option<u64>, code: ErrorCode, message: &str) -> String {
    json::write(&obj(vec![
        ("id", json::n(id.unwrap_or(0))),
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![("code", s(code.name())), ("message", s(message))]),
        ),
    ])) + "\n"
}

/// A pushed subscription event (no request id).
pub fn event(kind: &str, mut fields: Vec<(&str, Value)>) -> String {
    let mut all = vec![("event", s(kind))];
    all.append(&mut fields);
    json::write(&obj(all)) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frame(text: &str) -> Frame {
        read_frame(&mut BufReader::new(text.as_bytes())).unwrap()
    }

    #[test]
    fn well_formed_request_decodes() {
        match frame("{\"id\":3,\"verb\":\"list\"}\n") {
            Frame::Request(r) => {
                assert_eq!(r.id, 3);
                assert_eq!(r.verb, "list");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_json_is_answerable_not_fatal() {
        match frame("{nope\n") {
            Frame::Bad { code, .. } => assert_eq!(code, ErrorCode::BadJson),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_line_is_drained_and_reported() {
        let big = "x".repeat(MAX_LINE + 10) + "\n{\"id\":1,\"verb\":\"list\"}\n";
        let mut r = BufReader::new(big.as_bytes());
        match read_frame(&mut r).unwrap() {
            Frame::Bad { code, .. } => assert_eq!(code, ErrorCode::OversizedLine),
            other => panic!("{other:?}"),
        }
        // The stream recovered: the next frame parses.
        match read_frame(&mut r).unwrap() {
            Frame::Request(req) => assert_eq!(req.verb, "list"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_id_or_verb_is_flagged() {
        match frame("{\"verb\":\"list\"}\n") {
            Frame::Bad { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("{other:?}"),
        }
        match frame("{\"id\":9}\n") {
            Frame::Bad { id, code, .. } => {
                assert_eq!(id, Some(9));
                assert_eq!(code, ErrorCode::UnknownVerb);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_and_truncated_frames() {
        match frame("") {
            Frame::Eof => {}
            other => panic!("{other:?}"),
        }
        // A truncated (no-newline) trailing line still decodes.
        match frame("{\"id\":1,\"verb\":\"list\"}") {
            Frame::Request(r) => assert_eq!(r.id, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_are_single_lines() {
        let ok = ok_response(4, vec![("handle", s("abc"))]);
        assert!(ok.ends_with('\n') && !ok[..ok.len() - 1].contains('\n'));
        assert!(ok.contains("\"ok\":true"));
        let err = err_response(Some(4), ErrorCode::UnknownHandle, "no such campaign");
        assert!(err.contains("\"code\":\"unknown-handle\""));
    }
}
