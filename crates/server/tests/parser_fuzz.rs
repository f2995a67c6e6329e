//! No-panic property tests for the service's two hand-rolled parsers:
//! [`Json::parse`] and the HTTP request-head reader
//! [`http::read_request`]. Both face untrusted bytes from the socket, so
//! any input — random bytes, JSON-shaped noise, brackets nested far past
//! [`MAX_DEPTH`] — must come back as `Ok` or `Err`, never as a panic or
//! a stack overflow. Generated documents must also survive a
//! render → parse round trip unchanged.

use proptest::prelude::*;
use specrecon_server::http::{self, ReadError};
use specrecon_server::json::{Json, MAX_DEPTH};

/// Characters generated strings draw from: every ASCII code (controls,
/// quotes and backslashes included) plus multi-byte scalars.
fn pick_char(x: u64) -> char {
    const WIDE: [char; 5] = ['é', '€', '\u{2028}', '\u{fffd}', '😀'];
    let i = (x % 133) as usize;
    if i < 128 {
        char::from(i as u8)
    } else {
        WIDE[i - 128]
    }
}

/// Builds a JSON value from a tape of random words: the tape fixes
/// every choice, so a failing case replays from its seed. Nesting stops
/// at `depth` levels.
fn build(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let mut next = || tape.next().unwrap_or(0);
    let kind = next() % if depth == 0 { 4 } else { 6 };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(next() % 2 == 1),
        2 => {
            let bits = next();
            let n = match bits % 3 {
                // Exact integers, negative ones included.
                0 => ((bits >> 2) as i64 >> 10) as f64,
                // Short decimals.
                1 => (bits >> 2) as f64 / 1000.0,
                // Any finite double, subnormals and huge magnitudes too.
                _ => {
                    let f = f64::from_bits(next());
                    if f.is_finite() {
                        f
                    } else {
                        0.5
                    }
                }
            };
            Json::Num(n)
        }
        3 => {
            let len = next() % 12;
            Json::Str((0..len).map(|_| pick_char(next())).collect())
        }
        4 => {
            let len = next() % 4;
            Json::Arr((0..len).map(|_| build(tape, depth - 1)).collect())
        }
        _ => {
            let len = next() % 4;
            let mut fields = Vec::new();
            for _ in 0..len {
                let key_len = tape.next().unwrap_or(0) % 6;
                let key = (0..key_len).map(|_| pick_char(tape.next().unwrap_or(0))).collect();
                fields.push((key, build(tape, depth - 1)));
            }
            Json::Obj(fields)
        }
    }
}

/// `depth` openers drawn from the tape (`[`, or `{"k":`), an optional
/// scalar, and `closed` of the matching closers. Returns the text.
fn nested(tape: &[u64], depth: usize, closed: usize) -> String {
    let mut out = String::new();
    let mut closers = Vec::new();
    for i in 0..depth {
        if tape.get(i % tape.len().max(1)).copied().unwrap_or(0) % 2 == 0 {
            out.push('[');
            closers.push(']');
        } else {
            out.push_str("{\"k\":");
            closers.push('}');
        }
    }
    out.push('1');
    for c in closers.iter().rev().take(closed) {
        out.push(*c);
    }
    out
}

/// Feeds raw bytes to the request-head reader. Any outcome but a panic
/// is acceptable; a successful parse must respect the body limit.
fn read_bytes(bytes: &[u8]) -> Result<http::Request, ReadError> {
    let mut reader = bytes;
    let r = http::read_request(&mut reader);
    if let Ok(req) = &r {
        assert!(req.body.len() <= http::MAX_BODY_BYTES);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_parse_never_panics_on_json_shaped_noise(
        text in "[\\[\\]{}\":, 0-9.eE+\\-tfrunl\\\\/a]{0,120}",
    ) {
        let _ = Json::parse(&text);
    }

    #[test]
    fn nesting_past_the_bound_is_an_error(
        tape in prop::collection::vec(any::<u64>(), 1..16),
        depth in 0usize..3 * MAX_DEPTH,
        unclosed in 0usize..3,
    ) {
        let closed = depth.saturating_sub(unclosed);
        let parsed = Json::parse(&nested(&tape, depth, closed));
        if depth > MAX_DEPTH {
            prop_assert!(parsed.is_err(), "depth {} parsed", depth);
        } else {
            prop_assert_eq!(parsed.is_ok(), closed == depth, "depth {}", depth);
        }
    }

    #[test]
    fn very_deep_brackets_are_rejected_without_overflow(depth in 1_000usize..50_000) {
        prop_assert!(Json::parse(&"[".repeat(depth)).is_err());
        let open_objects = "{\"a\":".repeat(depth);
        prop_assert!(Json::parse(&open_objects).is_err());
    }

    #[test]
    fn rendered_values_parse_back_unchanged(
        tape in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let v = build(&mut tape.into_iter(), 4);
        let text = v.render();
        prop_assert_eq!(Json::parse(&text), Ok(v), "text {}", text);
    }

    #[test]
    fn request_reader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = read_bytes(&bytes);
    }

    #[test]
    fn request_reader_never_panics_on_request_shaped_noise(
        method in "(GET|POST|PUT|get|[A-Z]{0,8})",
        path in "(/|/v1/eval|/healthz|[ -~]{0,12})",
        version in "(HTTP/1.1|HTTP/1.0|HTTP/2|[ -~]{0,6})",
        headers in prop::collection::vec("[ -~]{0,24}", 0..6),
        length in "(0|4|17|[0-9]{1,8}|-1|x| 3)",
        body in "[ -~\n]{0,32}",
    ) {
        let mut raw = format!("{method} {path} {version}\r\n");
        for h in &headers {
            raw.push_str(h);
            raw.push_str("\r\n");
        }
        raw.push_str(&format!("Content-Length: {length}\r\n\r\n{body}"));
        let parsed = read_bytes(raw.as_bytes());
        if let Ok(req) = parsed {
            prop_assert!(req.body.len() <= body.len(), "body {:?}", req.body);
        }
    }
}

#[test]
fn a_well_formed_request_head_still_parses() {
    let raw = b"POST /v1/eval HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
    let req = read_bytes(raw).expect("parses");
    assert_eq!(
        (req.method.as_str(), req.path.as_str(), &req.body[..]),
        ("POST", "/v1/eval", &b"{}"[..])
    );
}

/// String scanning is linear: a body at the 1 MiB limit holding one long
/// string used to take tens of seconds (each character re-validated the
/// rest of the input as UTF-8); it now parses in milliseconds. The bound
/// leaves two orders of magnitude of headroom for slow debug builds.
#[test]
fn a_string_at_the_body_limit_parses_in_linear_time() {
    let n = http::MAX_BODY_BYTES - 16;
    let body = format!("{{\"kernel\":\"{}é\"}}", "x".repeat(n));
    let t0 = std::time::Instant::now();
    let v = Json::parse(&body).expect("parses");
    let elapsed = t0.elapsed();
    assert_eq!(v.get("kernel").and_then(Json::as_str).map(str::len), Some(n + 'é'.len_utf8()));
    assert!(elapsed < std::time::Duration::from_secs(2), "took {elapsed:?}");
}
