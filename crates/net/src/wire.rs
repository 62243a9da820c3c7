//! The framed binary wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by the payload. The payload starts with a versioned
//! two-byte header, then the body:
//!
//! | bytes | field | notes |
//! |---|---|---|
//! | 4 | frame length | payload bytes that follow; bounded by the peer's max-frame cap |
//! | 1 | protocol version | [`PROTOCOL_VERSION`]; anything else is rejected |
//! | 1 | kind | 0 = request, 1 = response |
//!
//! Request body (kind 0):
//!
//! | bytes | field |
//! |---|---|
//! | 8 | request id (echoed verbatim in the response) |
//! | 4 | deadline budget in ms (0 = no deadline) |
//! | 4 | query length `n` (≤ [`MAX_QUERY_BYTES`]) |
//! | n | query text, UTF-8, in the paper's `//a/b` notation |
//!
//! Response body (kind 1):
//!
//! | bytes | field |
//! |---|---|
//! | 8 | request id |
//! | 1 | status ([`Status`]) |
//! | 8 | index generation that served (or would have served) the query |
//! | 4 | total result rows |
//! | 4 | sampled row count `k` (≤ [`MAX_ROW_SAMPLE`], ≤ total) |
//! | 4k | sampled result node ids |
//! | 8 | pages read (cost summary) |
//! | 8 | join work (cost summary) |
//! | 8 | server-side service time in µs |
//! | 8 | plan digest (0 = no plan ran) |
//!
//! Decoding is total: every malformed input maps to a [`WireError`]
//! (truncated frame, oversized length prefix, unknown version or kind,
//! short or trailing body bytes, invalid UTF-8) and never panics — the
//! robustness suite and a proptest roundtrip in this module pin that.

use std::fmt;
use std::io::{self, Read, Write};

/// The only protocol version this build speaks; every change to a
/// frame layout bumps it, and peers speaking another version are
/// rejected.
pub const PROTOCOL_VERSION: u8 = 3;

/// Default cap on one frame's payload size (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Cap on the query text inside one request.
pub const MAX_QUERY_BYTES: usize = 1 << 16;

/// Cap on the result-row sample a response carries (the full count is
/// always reported; the ids are a prefix sample, like a `LIMIT`).
pub const MAX_ROW_SAMPLE: usize = 64;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// How the server disposed of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Executed to completion; rows and cost are authoritative.
    Ok,
    /// Shed at admission: the bounded request queue was full.
    Overloaded,
    /// The deadline passed — at dequeue, or at a mid-execution
    /// checkpoint (rows are then a partial sample, never complete).
    DeadlineExceeded,
    /// The query text did not parse; nothing executed.
    ParseError,
    /// Shed because the server is draining and no longer admits work.
    Draining,
}

impl Status {
    /// The wire byte.
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::DeadlineExceeded => 2,
            Status::ParseError => 3,
            Status::Draining => 4,
        }
    }

    /// Parses the wire byte.
    pub fn from_code(code: u8) -> Result<Status, WireError> {
        match code {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Overloaded),
            2 => Ok(Status::DeadlineExceeded),
            3 => Ok(Status::ParseError),
            4 => Ok(Status::Draining),
            _ => Err(WireError::Malformed("unknown status code")),
        }
    }

    /// True for the two admission-shed statuses (`Overloaded`,
    /// `Draining`) — the explicit refusals that replace silent drops.
    pub fn is_shed(self) -> bool {
        matches!(self, Status::Overloaded | Status::Draining)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline-exceeded",
            Status::ParseError => "parse-error",
            Status::Draining => "draining",
        };
        f.write_str(s)
    }
}

/// One query request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Deadline budget in milliseconds from server admission
    /// (0 = none; the server may still apply its configured default).
    pub deadline_ms: u32,
    /// The query in the paper's notation (`//a/b`, `//a//b`,
    /// `//a/b[text() = "v"]`).
    pub query: String,
}

/// One response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// Disposition.
    pub status: Status,
    /// The index generation that served the request — load generators
    /// watch this to observe snapshot swaps under live traffic.
    pub generation: u64,
    /// Total result rows the query produced.
    pub total_rows: u32,
    /// A prefix sample of result node ids (≤ [`MAX_ROW_SAMPLE`]).
    pub rows: Vec<u32>,
    /// Pages read, from the logical cost model.
    pub pages_read: u64,
    /// Join work, from the logical cost model.
    pub join_work: u64,
    /// Server-side service time in microseconds (queue wait excluded).
    pub server_us: u64,
    /// Digest of the plan that served the query (0 when no
    /// planner ran — sheds, parse errors). Load generators correlate
    /// this with tail latency to attribute slow requests to planning
    /// choices across generations.
    pub plan_digest: u64,
}

/// Either message kind, as decoded off a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A request frame.
    Request(Request),
    /// A response frame.
    Response(Response),
}

/// Every way a frame can fail to travel or parse.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(io::Error),
    /// The stream ended inside a frame (mid-request disconnect).
    Truncated,
    /// The length prefix exceeds the configured frame cap.
    Oversized {
        /// The advertised payload length.
        len: u64,
        /// The cap it violated.
        max: usize,
    },
    /// The payload's version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The payload's kind byte is neither request nor response.
    BadKind(u8),
    /// The stream closed cleanly where a message was still expected.
    ConnectionClosed,
    /// A structurally invalid body (short fields, trailing bytes,
    /// invalid UTF-8, out-of-range counts).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Truncated => write!(f, "stream ended inside a frame"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::ConnectionClosed => write!(f, "connection closed before a full message"),
            WireError::Malformed(why) => write!(f, "malformed body: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.off.checked_add(n).ok_or(WireError::Malformed(what))?;
        let s = self
            .buf
            .get(self.off..end)
            .ok_or(WireError::Malformed(what))?;
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = self.take(1, what)?;
        b.first().copied().ok_or(WireError::Malformed(what))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b: [u8; 4] = self
            .take(4, what)?
            .try_into()
            .map_err(|_| WireError::Malformed(what))?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b: [u8; 8] = self
            .take(8, what)?
            .try_into()
            .map_err(|_| WireError::Malformed(what))?;
        Ok(u64::from_le_bytes(b))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after body"))
        }
    }
}

impl Request {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        if self.query.len() > MAX_QUERY_BYTES {
            return Err(WireError::Malformed("query text exceeds MAX_QUERY_BYTES"));
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.extend_from_slice(&(self.query.len() as u32).to_le_bytes());
        out.extend_from_slice(self.query.as_bytes());
        Ok(())
    }

    fn decode_body(cur: &mut Cursor<'_>) -> Result<Request, WireError> {
        let id = cur.u64("request id")?;
        let deadline_ms = cur.u32("deadline")?;
        let qlen = cur.u32("query length")? as usize;
        if qlen > MAX_QUERY_BYTES {
            return Err(WireError::Malformed("query text exceeds MAX_QUERY_BYTES"));
        }
        let bytes = cur.take(qlen, "query text")?;
        let query = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("query text is not UTF-8"))?
            .to_string();
        Ok(Request {
            id,
            deadline_ms,
            query,
        })
    }
}

impl Response {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        if self.rows.len() > MAX_ROW_SAMPLE || self.rows.len() as u64 > self.total_rows as u64 {
            return Err(WireError::Malformed("row sample exceeds bounds"));
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(self.status.code());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.total_rows.to_le_bytes());
        out.extend_from_slice(&(self.rows.len() as u32).to_le_bytes());
        for r in &self.rows {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.pages_read.to_le_bytes());
        out.extend_from_slice(&self.join_work.to_le_bytes());
        out.extend_from_slice(&self.server_us.to_le_bytes());
        out.extend_from_slice(&self.plan_digest.to_le_bytes());
        Ok(())
    }

    fn decode_body(cur: &mut Cursor<'_>) -> Result<Response, WireError> {
        let id = cur.u64("response id")?;
        let status = Status::from_code(cur.u8("status")?)?;
        let generation = cur.u64("generation")?;
        let total_rows = cur.u32("total rows")?;
        let k = cur.u32("sample count")? as usize;
        if k > MAX_ROW_SAMPLE || k as u64 > total_rows as u64 {
            return Err(WireError::Malformed("row sample exceeds bounds"));
        }
        let mut rows = Vec::with_capacity(k);
        for _ in 0..k {
            rows.push(cur.u32("row id")?);
        }
        let pages_read = cur.u64("pages_read")?;
        let join_work = cur.u64("join_work")?;
        let server_us = cur.u64("server_us")?;
        let plan_digest = cur.u64("plan_digest")?;
        Ok(Response {
            id,
            status,
            generation,
            total_rows,
            rows,
            pages_read,
            join_work,
            server_us,
            plan_digest,
        })
    }
}

impl Message {
    /// Encodes the versioned payload (without the length prefix).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = vec![PROTOCOL_VERSION];
        match self {
            Message::Request(r) => {
                out.push(KIND_REQUEST);
                r.encode_body(&mut out)?;
            }
            Message::Response(r) => {
                out.push(KIND_RESPONSE);
                r.encode_body(&mut out)?;
            }
        }
        Ok(out)
    }

    /// Decodes one payload (a frame's contents, without the length
    /// prefix). Total: every non-conforming input maps to a
    /// [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut cur = Cursor::new(payload);
        let version = cur.u8("version byte")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = cur.u8("kind byte")?;
        let msg = match kind {
            KIND_REQUEST => Message::Request(Request::decode_body(&mut cur)?),
            KIND_RESPONSE => Message::Response(Response::decode_body(&mut cur)?),
            other => return Err(WireError::BadKind(other)),
        };
        cur.finish()?;
        Ok(msg)
    }
}

/// Reads exactly `buf.len()` bytes, retrying on `Interrupted`. Returns
/// the bytes read before EOF (so callers can tell "clean EOF" from
/// "EOF inside a frame").
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        let Some(rest) = buf.get_mut(got..) else {
            break; // can't occur: got < buf.len()
        };
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(got)
}

/// Reads one frame's payload (blocking). `Ok(None)` is a clean EOF at a
/// frame boundary; EOF anywhere else is [`WireError::Truncated`]; a
/// length prefix above `max_frame` is [`WireError::Oversized`] and the
/// frame is *not* consumed (callers should close the connection).
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut hdr = [0u8; 4];
    match read_full(r, &mut hdr)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(WireError::Truncated),
    }
    let len = u32::from_le_bytes(hdr) as usize;
    if len > max_frame {
        return Err(WireError::Oversized {
            len: len as u64,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    if read_full(r, &mut payload)? != len {
        return Err(WireError::Truncated);
    }
    Ok(Some(payload))
}

/// Reads and decodes one message (blocking). `Ok(None)` on clean EOF.
pub fn read_message(r: &mut impl Read, max_frame: usize) -> Result<Option<Message>, WireError> {
    match read_frame(r, max_frame)? {
        None => Ok(None),
        Some(payload) => Ok(Some(Message::decode(&payload)?)),
    }
}

/// Frames and writes one message.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    let payload = msg.encode()?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &Message) -> Message {
        let payload = msg.encode().expect("encode");
        Message::decode(&payload).expect("decode")
    }

    #[test]
    fn request_roundtrip() {
        let m = Message::Request(Request {
            id: 42,
            deadline_ms: 250,
            query: "//actor/name".into(),
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn response_roundtrip() {
        let m = Message::Response(Response {
            id: u64::MAX,
            status: Status::DeadlineExceeded,
            generation: 7,
            total_rows: 1000,
            rows: vec![1, 5, 9],
            pages_read: 123,
            join_work: 456,
            server_us: 789,
            plan_digest: 0xfeed_beef,
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let a = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//a".into(),
        });
        let b = Message::Response(Response {
            id: 1,
            status: Status::Ok,
            generation: 0,
            total_rows: 0,
            rows: vec![],
            pages_read: 0,
            join_work: 0,
            server_us: 0,
            plan_digest: 0,
        });
        let mut wire = Vec::new();
        write_message(&mut wire, &a).expect("write a");
        write_message(&mut wire, &b).expect("write b");
        let mut r = &wire[..];
        assert_eq!(read_message(&mut r, DEFAULT_MAX_FRAME).expect("a"), Some(a));
        assert_eq!(read_message(&mut r, DEFAULT_MAX_FRAME).expect("b"), Some(b));
        assert_eq!(read_message(&mut r, DEFAULT_MAX_FRAME).expect("eof"), None);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_panic() {
        let m = Message::Request(Request {
            id: 9,
            deadline_ms: 0,
            query: "//actor/name".into(),
        });
        let mut wire = Vec::new();
        write_message(&mut wire, &m).expect("write");
        // Every proper prefix must fail cleanly (clean EOF only at 0).
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            assert!(
                matches!(
                    read_message(&mut r, DEFAULT_MAX_FRAME),
                    Err(WireError::Truncated)
                ),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = &wire[..];
        assert!(matches!(
            read_message(&mut r, DEFAULT_MAX_FRAME),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn unknown_version_and_kind_are_rejected() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//a".into(),
        });
        let mut payload = m.encode().expect("encode");
        payload[0] = 99;
        assert!(matches!(
            Message::decode(&payload),
            Err(WireError::BadVersion(99))
        ));
        payload[0] = PROTOCOL_VERSION;
        payload[1] = 7;
        assert!(matches!(
            Message::decode(&payload),
            Err(WireError::BadKind(7))
        ));
    }

    #[test]
    fn short_and_trailing_bodies_are_rejected() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//a/b".into(),
        });
        let payload = m.encode().expect("encode");
        for cut in 2..payload.len() {
            assert!(
                Message::decode(&payload[..cut]).is_err(),
                "short body at {cut}"
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(matches!(
            Message::decode(&long),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn response_body_truncations_are_rejected() {
        let m = Message::Response(Response {
            id: 7,
            status: Status::Ok,
            generation: 3,
            total_rows: 2,
            rows: vec![4, 9],
            pages_read: 1,
            join_work: 2,
            server_us: 3,
            plan_digest: 4,
        });
        let payload = m.encode().expect("encode");
        for cut in 2..payload.len() {
            assert!(
                Message::decode(&payload[..cut]).is_err(),
                "short response body at {cut}"
            );
        }
    }

    #[test]
    fn invalid_utf8_query_is_rejected() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//ab".into(),
        });
        let mut payload = m.encode().expect("encode");
        let n = payload.len();
        payload[n - 1] = 0xFF; // orphan continuation byte
        assert!(matches!(
            Message::decode(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_query_text_refuses_to_encode() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "x".repeat(MAX_QUERY_BYTES + 1),
        });
        assert!(matches!(m.encode(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder() {
        // A deterministic fuzz sweep: mutate a valid payload byte by
        // byte and decode; any result is fine, a panic is not.
        let m = Message::Response(Response {
            id: 3,
            status: Status::Ok,
            generation: 1,
            total_rows: 2,
            rows: vec![10, 20],
            pages_read: 5,
            join_work: 6,
            server_us: 7,
            plan_digest: 8,
        });
        let payload = m.encode().expect("encode");
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = payload.clone();
                mutated[i] ^= 1 << bit;
                let _ = Message::decode(&mutated);
            }
        }
    }

    fn query_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..128, 0..200).prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| (b' ' + (b % 94)) as char)
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn request_codec_roundtrips(
            id in 0u64..=u64::MAX,
            deadline_ms in 0u32..=u32::MAX,
            query in query_strategy(),
        ) {
            let m = Message::Request(Request { id, deadline_ms, query: query.clone() });
            let payload = m.encode().expect("encode");
            prop_assert_eq!(Message::decode(&payload).expect("decode"), m);
        }

        #[test]
        fn response_codec_roundtrips(
            id in 0u64..=u64::MAX,
            code in 0u8..5,
            generation in 0u64..1_000_000,
            extra_rows in 0u32..10_000,
            rows in proptest::collection::vec(0u32..=u32::MAX, 0..MAX_ROW_SAMPLE),
            pages_read in 0u64..=u64::MAX,
            join_work in 0u64..=u64::MAX,
            server_us in 0u64..=u64::MAX,
            plan_digest in 0u64..=u64::MAX,
        ) {
            let status = Status::from_code(code).expect("valid code range");
            let total_rows = rows.len() as u32 + extra_rows;
            let m = Message::Response(Response {
                id, status, generation, total_rows,
                rows: rows.clone(), pages_read, join_work, server_us, plan_digest,
            });
            let payload = m.encode().expect("encode");
            prop_assert_eq!(Message::decode(&payload).expect("decode"), m);
        }

        #[test]
        fn random_payloads_never_panic(payload in proptest::collection::vec(0u8..=u8::MAX, 0..300)) {
            let _ = Message::decode(&payload);
        }
    }
}
