//! Property/fuzz tests for the RPC codec: no input — malformed JSON,
//! oversized lines, truncated frames, binary garbage — may panic the
//! framing layer, and everything it rejects must carry a structured
//! error code. Complemented by `tests/serve_protocol.rs` at the repo
//! root, which drives the same codec through a live daemon socket.

use proptest::prelude::*;
use std::io::BufReader;

use vulnstack_core::json::{self, Value};
use vulnstack_serve::proto::{self, ErrorCode, Frame, MAX_LINE};

/// A valid request every mutation starts from.
const SEED_REQUEST: &str =
    r#"{"id":7,"verb":"submit","spec":{"engine":"svf","workload":"crc32","faults":9}}"#;

/// Builds a random JSON value tree from an integer recipe — cheap
/// structured generation on top of the shim's integer strategies.
fn value_from_recipe(recipe: &[u64], depth: usize) -> Value {
    let Some((&head, rest)) = recipe.split_first() else {
        return Value::Null;
    };
    match head % if depth >= 4 { 4 } else { 6 } {
        0 => Value::Null,
        1 => Value::Bool(head & 16 != 0),
        2 => Value::Num(((head as i64) % 1_000_000) as f64),
        3 => Value::Str(format!("s{}-\"quoted\"\n\t\u{1}→{}", head % 97, head % 13)),
        4 => Value::Arr(
            rest.chunks(2)
                .take(4)
                .map(|c| value_from_recipe(c, depth + 1))
                .collect(),
        ),
        _ => Value::Obj(
            rest.chunks(3)
                .take(4)
                .enumerate()
                .map(|(i, c)| {
                    (
                        format!("k{i}-{}", c[0] % 7),
                        value_from_recipe(c, depth + 1),
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonical write → parse is the identity on arbitrary value trees.
    #[test]
    fn json_roundtrips(recipe in prop::collection::vec(any::<u64>(), 1..24)) {
        let v = value_from_recipe(&recipe, 0);
        let text = json::write(&v);
        let back = json::parse(&text);
        prop_assert!(back.is_ok(), "canonical text failed to parse: {text}");
        prop_assert_eq!(back.unwrap(), v);
    }

    /// Arbitrary binary garbage never panics the decoder, and whatever
    /// it rejects carries one of the protocol's stable error codes.
    #[test]
    fn binary_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        match proto::decode_line(Ok(&line)) {
            Frame::Request(r) => prop_assert!(!r.verb.contains('\n')),
            Frame::Bad { code, message, .. } => {
                prop_assert!(matches!(
                    code,
                    ErrorCode::BadJson | ErrorCode::BadRequest | ErrorCode::UnknownVerb
                ));
                prop_assert!(!message.is_empty());
            }
            Frame::Eof => prop_assert!(false, "decode_line never yields Eof"),
        }
    }

    /// Truncating a valid request at any byte yields a structured
    /// rejection (or, at full length, the request) — never a panic.
    #[test]
    fn truncated_frames_are_structured(cut in 0usize..80) {
        let cut = cut.min(SEED_REQUEST.len());
        let prefix: String = SEED_REQUEST.chars().take(cut).collect();
        match proto::decode_line(Ok(&prefix)) {
            Frame::Request(r) => {
                prop_assert_eq!(cut, SEED_REQUEST.len());
                prop_assert_eq!(r.verb.as_str(), "submit");
            }
            Frame::Bad { code, .. } => prop_assert!(matches!(
                code,
                ErrorCode::BadJson | ErrorCode::BadRequest
            )),
            Frame::Eof => prop_assert!(false, "decode_line never yields Eof"),
        }
    }

    /// Byte-flipping a valid request never panics, and a surviving parse
    /// still carries a usable id/verb pair.
    #[test]
    fn mutated_requests_never_panic(pos in 0usize..78, byte in any::<u8>()) {
        let mut bytes = SEED_REQUEST.as_bytes().to_vec();
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] = byte;
        let line = String::from_utf8_lossy(&bytes).into_owned();
        match proto::decode_line(Ok(&line)) {
            Frame::Request(r) => prop_assert!(!r.verb.contains('\n')),
            Frame::Bad { message, .. } => prop_assert!(!message.is_empty()),
            Frame::Eof => prop_assert!(false, "decode_line never yields Eof"),
        }
    }

    /// Oversized lines are reported with their true length and the
    /// stream stays framed: the following request still decodes.
    #[test]
    fn oversized_lines_resync(extra in 1usize..4096) {
        let stream = format!(
            "{}\n{{\"id\":2,\"verb\":\"ping\"}}\n",
            "y".repeat(MAX_LINE + extra)
        );
        let mut r = BufReader::new(stream.as_bytes());
        match proto::read_frame(&mut r).unwrap() {
            Frame::Bad { code, .. } => prop_assert_eq!(code, ErrorCode::OversizedLine),
            other => prop_assert!(false, "expected oversized-line, got {other:?}"),
        }
        match proto::read_frame(&mut r).unwrap() {
            Frame::Request(req) => prop_assert_eq!(req.verb.as_str(), "ping"),
            other => prop_assert!(false, "expected request after resync, got {other:?}"),
        }
        match proto::read_frame(&mut r).unwrap() {
            Frame::Eof => {}
            other => prop_assert!(false, "expected eof, got {other:?}"),
        }
    }

    /// Deeply nested documents are rejected by depth, not by stack
    /// overflow.
    #[test]
    fn deep_nesting_is_bounded(depth in 33usize..600) {
        let doc = "[".repeat(depth) + &"]".repeat(depth);
        let e = json::parse(&doc);
        prop_assert!(e.is_err());
    }
}
