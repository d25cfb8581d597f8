//! Length-prefixed binary wire protocol for the `zoomer-serve` front door.
//!
//! Every frame is a `u32` little-endian payload length followed by the
//! payload. Payload layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0x5A4D ("ZM")
//! 2       1     version      1
//! 3       1     kind         1 = request · 2 = response · 3 = error
//! 4       …     body         (by kind, below)
//!
//! request body                      response body
//! ┌───────────────────────────┐     ┌──────────────────────────────┐
//! │ deadline_us   u64 (0=∞)   │     │ count          u32           │
//! │ count         u32         │     │ count × row:                 │
//! │ count × query:            │     │   status       u8 (0=ok,     │
//! │   user        u32         │     │                  1=shed,     │
//! │   query       u32         │     │                  2=rejected) │
//! │   tenant      u32         │     │   degraded     u8            │
//! │   top_k       u32         │     │   n_items      u32           │
//! │                           │     │   n_items × item u32         │
//! └───────────────────────────┘     └──────────────────────────────┘
//!
//! error body: msg_len u32, msg_len × UTF-8 bytes
//! ```
//!
//! The request header is exactly the typed [`Query`] — tenant and top-k
//! ride every request, and `deadline_us` starts the batch's [`Deadline`]
//! at decode time so queueing and transport already count against the
//! budget. Decoding never panics: every malformed input maps to a typed
//! [`WireError`] (proptest-pinned in `tests/wire_roundtrip.rs`), and
//! frames above [`MAX_FRAME_LEN`] are rejected before any allocation.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zoomer_graph::{NodeId, Query, Retrieval};
use zoomer_obs::Counter;

use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::router::TenantFairGate;
use crate::server::OnlineServer;

/// Frame magic: "ZM" little-endian.
pub const WIRE_MAGIC: u16 = 0x5A4D;
/// Current protocol version.
pub const WIRE_VERSION: u8 = 1;
/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any buffer is allocated for them.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;

/// Why a frame could not be encoded, decoded, or transported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the structure it promised.
    Truncated { needed: usize, got: usize },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized { len: usize },
    /// The first two payload bytes are not [`WIRE_MAGIC`].
    BadMagic(u16),
    /// A version this decoder does not speak.
    UnsupportedVersion(u8),
    /// An unknown frame kind, or a kind the caller did not expect.
    BadKind(u8),
    /// An unknown per-row status byte.
    BadStatus(u8),
    /// Bytes left over after the structure was fully decoded.
    TrailingBytes { extra: usize },
    /// An error frame's message was not UTF-8.
    BadErrorMessage,
    /// The peer sent a well-formed error frame; its message.
    Remote(String),
    /// Socket-level failure.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "bad or unexpected frame kind {k}"),
            WireError::BadStatus(s) => write!(f, "bad response row status {s}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
            WireError::BadErrorMessage => write!(f, "error frame message is not UTF-8"),
            WireError::Remote(msg) => write!(f, "server error: {msg}"),
            WireError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

/// A decoded request frame: the batch plus its header deadline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestFrame {
    /// Per-batch budget in microseconds; 0 = unbounded.
    pub deadline_us: u64,
    pub queries: Vec<Query>,
}

impl RequestFrame {
    /// The header budget as a running [`Deadline`], started now.
    pub fn deadline(&self) -> Deadline {
        if self.deadline_us == 0 {
            Deadline::none()
        } else {
            Deadline::after(Duration::from_micros(self.deadline_us))
        }
    }
}

/// Per-query outcome at the front door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Served; the row carries the retrieval.
    Ok,
    /// Shed by per-tenant fair admission before any serving work.
    Shed,
    /// The connection itself was over the front door's concurrent-connection
    /// cap; the client should back off and dial again.
    Rejected,
}

/// One query's row in a response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseRow {
    pub status: ResponseStatus,
    pub retrieval: Retrieval,
}

/// A decoded response frame: one row per query, in request order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseFrame {
    pub rows: Vec<ResponseRow>,
}

/// Little-endian cursor over a payload; every read is bounds-checked.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Oversized { len: usize::MAX })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated { needed: end, got: self.buf.len() });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes { extra: self.buf.len() - self.pos });
        }
        Ok(())
    }
}

fn header(kind: u8, body_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body_hint);
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(kind);
    out
}

fn decode_header(c: &mut Cursor<'_>) -> Result<u8, WireError> {
    let magic = c.u16()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = c.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    c.u8()
}

/// Encode a request payload (no length prefix).
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    let mut out = header(KIND_REQUEST, 12 + frame.queries.len() * 16);
    out.extend_from_slice(&frame.deadline_us.to_le_bytes());
    out.extend_from_slice(&(frame.queries.len() as u32).to_le_bytes());
    for q in &frame.queries {
        out.extend_from_slice(&q.user.to_le_bytes());
        out.extend_from_slice(&q.query.to_le_bytes());
        out.extend_from_slice(&q.tenant.to_le_bytes());
        out.extend_from_slice(&q.top_k.to_le_bytes());
    }
    out
}

/// Encode a response payload (no length prefix).
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let items: usize = frame.rows.iter().map(|r| r.retrieval.items.len()).sum();
    let mut out = header(KIND_RESPONSE, 4 + frame.rows.len() * 6 + items * 4);
    out.extend_from_slice(&(frame.rows.len() as u32).to_le_bytes());
    for row in &frame.rows {
        out.push(match row.status {
            ResponseStatus::Ok => 0,
            ResponseStatus::Shed => 1,
            ResponseStatus::Rejected => 2,
        });
        out.push(u8::from(row.retrieval.degraded));
        out.extend_from_slice(&(row.retrieval.items.len() as u32).to_le_bytes());
        for &item in &row.retrieval.items {
            out.extend_from_slice(&item.to_le_bytes());
        }
    }
    out
}

/// Encode an error payload (no length prefix).
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut out = header(KIND_ERROR, 4 + message.len());
    out.extend_from_slice(&(message.len() as u32).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decode a request payload. Rejects any non-request frame kind.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, WireError> {
    let mut c = Cursor::new(payload);
    let kind = decode_header(&mut c)?;
    if kind != KIND_REQUEST {
        return Err(WireError::BadKind(kind));
    }
    let deadline_us = c.u64()?;
    let count = c.u32()? as usize;
    // Cheap sanity bound before reserving: each query is 16 payload bytes.
    if count.saturating_mul(16) > payload.len() {
        return Err(WireError::Truncated { needed: 16 + count * 16, got: payload.len() });
    }
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        let (user, query) = (c.u32()?, c.u32()?);
        let (tenant, top_k) = (c.u32()?, c.u32()?);
        queries.push(Query { user, query, tenant, top_k });
    }
    c.finish()?;
    Ok(RequestFrame { deadline_us, queries })
}

/// Decode a response payload. A well-formed error frame surfaces as
/// [`WireError::Remote`]; any other kind is [`WireError::BadKind`].
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, WireError> {
    let mut c = Cursor::new(payload);
    let kind = decode_header(&mut c)?;
    if kind == KIND_ERROR {
        let len = c.u32()? as usize;
        let msg = std::str::from_utf8(c.take(len)?).map_err(|_| WireError::BadErrorMessage)?;
        return Err(WireError::Remote(msg.to_string()));
    }
    if kind != KIND_RESPONSE {
        return Err(WireError::BadKind(kind));
    }
    let count = c.u32()? as usize;
    if count.saturating_mul(6) > payload.len() {
        return Err(WireError::Truncated { needed: 8 + count * 6, got: payload.len() });
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let status = match c.u8()? {
            0 => ResponseStatus::Ok,
            1 => ResponseStatus::Shed,
            2 => ResponseStatus::Rejected,
            other => return Err(WireError::BadStatus(other)),
        };
        let degraded = c.u8()? != 0;
        let n_items = c.u32()? as usize;
        if n_items.saturating_mul(4) > payload.len() {
            return Err(WireError::Truncated { needed: n_items * 4, got: payload.len() });
        }
        let mut items = Vec::with_capacity(n_items);
        for _ in 0..n_items {
            items.push(c.u32()? as NodeId);
        }
        rows.push(ResponseRow { status, retrieval: Retrieval { items, degraded } });
    }
    c.finish()?;
    Ok(ResponseFrame { rows })
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len: payload.len() });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame. `Ok(None)` is a clean EOF at a frame
/// boundary (the peer hung up between requests).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(WireError::Truncated { needed: 4, got: filled }),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match r.read(&mut payload[read..])? {
            0 => return Err(WireError::Truncated { needed: len, got: read }),
            n => read += n,
        }
    }
    Ok(Some(payload))
}

/// Blocking TCP client for the `zoomer-serve` protocol; one in-flight
/// request per connection (the load harness opens one client per worker).
pub struct WireClient {
    stream: TcpStream,
}

impl WireClient {
    /// Connect to a `zoomer-serve` front door.
    pub fn connect(addr: &str) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Send one batch and block for its response. `deadline_us == 0` is
    /// unbounded.
    pub fn retrieve(
        &mut self,
        queries: &[Query],
        deadline_us: u64,
    ) -> Result<Vec<ResponseRow>, WireError> {
        let frame = RequestFrame { deadline_us, queries: queries.to_vec() };
        write_frame(&mut self.stream, &encode_request(&frame))?;
        let payload = read_frame(&mut self.stream)?
            .ok_or(WireError::Io(std::io::ErrorKind::UnexpectedEof))?;
        Ok(decode_response(&payload)?.rows)
    }
}

/// Default bound on concurrent handler threads per [`FrontDoor`].
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Read and write timeout on an over-cap connection: a dial that never
/// sends (or never reads its rejection) frees its thread after this long.
const REJECT_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// The TCP front door: accepts connections, decodes request frames, runs
/// per-tenant fair admission, serves admitted queries through the
/// [`OnlineServer`], and answers with response frames.
pub struct FrontDoor {
    server: Arc<OnlineServer>,
    gate: Arc<TenantFairGate>,
    max_conns: usize,
    active: Arc<AtomicUsize>,
    conn_rejected: Counter,
}

/// RAII occupancy token for one handler thread; its slot frees on drop, so
/// a handler that panics still releases capacity.
struct ConnSlot {
    active: Arc<AtomicUsize>,
}

impl ConnSlot {
    /// Claim a slot unless `max_conns` handlers are already live
    /// (`max_conns == 0` means unlimited; occupancy is still tracked).
    fn acquire(active: &Arc<AtomicUsize>, max_conns: usize) -> Option<Self> {
        active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                if max_conns != 0 && n >= max_conns {
                    None
                } else {
                    n.checked_add(1)
                }
            })
            .ok()
            .map(|_| Self { active: Arc::clone(active) })
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

impl FrontDoor {
    /// A front door over `server` admitting at most `tenant_capacity`
    /// requests per fairness window (0 disables shedding), with the
    /// concurrent-connection bound at [`DEFAULT_MAX_CONNS`].
    pub fn new(server: Arc<OnlineServer>, tenant_capacity: usize) -> Self {
        let gate = Arc::new(TenantFairGate::new(tenant_capacity, server.metrics_registry()));
        let conn_rejected = server.metrics_registry().counter("serve.frontdoor.conn_rejected");
        Self {
            server,
            gate,
            max_conns: DEFAULT_MAX_CONNS,
            active: Arc::new(AtomicUsize::new(0)),
            conn_rejected,
        }
    }

    /// Bound concurrent connections at `max_conns` (0 = unlimited). A
    /// connection over the cap gets its first request answered with every
    /// row [`ResponseStatus::Rejected`], then the stream is closed.
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns;
        self
    }

    /// The admission gate (tests drive it directly).
    pub fn gate(&self) -> &Arc<TenantFairGate> {
        &self.gate
    }

    pub fn server(&self) -> &Arc<OnlineServer> {
        &self.server
    }

    /// Live handler-thread count (occupied connection slots).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Accept loop: one handler thread per connection, at most `max_conns`
    /// at a time, until `listener` errors (e.g. the socket is closed).
    /// Over-cap connections are answered with a typed rejection and closed
    /// (counted as `serve.frontdoor.conn_rejected`) instead of spawning an
    /// unbounded handler.
    pub fn serve(&self, listener: TcpListener) {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            match ConnSlot::acquire(&self.active, self.max_conns) {
                Some(slot) => {
                    let server = Arc::clone(&self.server);
                    let gate = Arc::clone(&self.gate);
                    std::thread::spawn(move || {
                        let _slot = slot;
                        let _ = handle_connection(stream, &server, &gate);
                    });
                }
                None => {
                    self.conn_rejected.inc();
                    std::thread::spawn(move || {
                        let _ = reject_connection(stream);
                    });
                }
            }
        }
    }

    /// Serve exactly one connection on the caller's thread (tests); does
    /// not consume a connection slot.
    pub fn serve_one(&self, stream: TcpStream) -> Result<(), WireError> {
        handle_connection(stream, &self.server, &self.gate)
    }
}

/// Over-cap path: answer the connection's first frame with a typed
/// rejection — every row [`ResponseStatus::Rejected`], no items — or an
/// error frame if the frame is malformed, then drop the stream. The reply
/// lets a well-behaved client distinguish "server full, back off" from a
/// network failure. Reads and writes time out after [`REJECT_IO_TIMEOUT`],
/// so a silent dial cannot hold the thread.
fn reject_connection(mut stream: TcpStream) -> Result<(), WireError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REJECT_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(REJECT_IO_TIMEOUT))?;
    let Some(payload) = read_frame(&mut stream)? else { return Ok(()) };
    let reply = match decode_request(&payload) {
        Ok(request) => {
            let rows = request
                .queries
                .iter()
                .map(|_| ResponseRow {
                    status: ResponseStatus::Rejected,
                    retrieval: Retrieval { items: Vec::new(), degraded: true },
                })
                .collect();
            encode_response(&ResponseFrame { rows })
        }
        Err(e) => encode_error(&e.to_string()),
    };
    write_frame(&mut stream, &reply)
}

/// Per-connection loop: read request frames until EOF, answer each one.
fn handle_connection(
    mut stream: TcpStream,
    server: &OnlineServer,
    gate: &TenantFairGate,
) -> Result<(), WireError> {
    stream.set_nodelay(true)?;
    while let Some(payload) = read_frame(&mut stream)? {
        let reply = match decode_request(&payload) {
            Ok(request) => match serve_frame(server, gate, &request) {
                Ok(frame) => encode_response(&frame),
                Err(e) => encode_error(&e.to_string()),
            },
            // A malformed frame costs its sender an error reply, not the
            // connection — framing is still intact (the length prefix
            // parsed), so the stream stays usable.
            Err(e) => encode_error(&e.to_string()),
        };
        write_frame(&mut stream, &reply)?;
    }
    Ok(())
}

/// Admission + serve for one decoded request frame: shed rows never
/// reach the server; admitted rows keep request order.
pub fn serve_frame(
    server: &OnlineServer,
    gate: &TenantFairGate,
    request: &RequestFrame,
) -> Result<ResponseFrame, ServingError> {
    let deadline = request.deadline();
    let admitted_mask: Vec<bool> = request.queries.iter().map(|q| gate.admit(q.tenant)).collect();
    let admitted: Vec<Query> =
        request.queries.iter().zip(&admitted_mask).filter(|(_, &ok)| ok).map(|(&q, _)| q).collect();
    let mut served = if admitted.is_empty() {
        Vec::new()
    } else {
        server.handle_batch_with_deadline(&admitted, deadline)?
    }
    .into_iter();
    let rows = admitted_mask
        .iter()
        .map(|&ok| {
            if ok {
                ResponseRow {
                    status: ResponseStatus::Ok,
                    retrieval: served.next().unwrap_or_else(|| Retrieval::new(Vec::new())),
                }
            } else {
                ResponseRow {
                    status: ResponseStatus::Shed,
                    retrieval: Retrieval { items: Vec::new(), degraded: true },
                }
            }
        })
        .collect();
    Ok(ResponseFrame { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestFrame {
        RequestFrame {
            deadline_us: 1500,
            queries: vec![Query::new(1, 2), Query::new(3, 4).with_tenant(9).with_top_k(7)],
        }
    }

    #[test]
    fn request_roundtrip() {
        let frame = sample_request();
        assert_eq!(decode_request(&encode_request(&frame)), Ok(frame));
    }

    #[test]
    fn response_roundtrip() {
        let frame = ResponseFrame {
            rows: vec![
                ResponseRow {
                    status: ResponseStatus::Ok,
                    retrieval: Retrieval::new(vec![5, 6, 7]),
                },
                ResponseRow {
                    status: ResponseStatus::Shed,
                    retrieval: Retrieval { items: vec![], degraded: true },
                },
                ResponseRow {
                    status: ResponseStatus::Rejected,
                    retrieval: Retrieval { items: vec![], degraded: true },
                },
            ],
        };
        assert_eq!(decode_response(&encode_response(&frame)), Ok(frame));
    }

    #[test]
    fn unknown_status_byte_is_a_typed_error() {
        let frame = ResponseFrame {
            rows: vec![ResponseRow {
                status: ResponseStatus::Ok,
                retrieval: Retrieval::new(vec![]),
            }],
        };
        let mut buf = encode_response(&frame);
        // Row 0's status byte sits after the 4-byte header + 4-byte count.
        buf[8] = 9;
        assert_eq!(decode_response(&buf), Err(WireError::BadStatus(9)));
    }

    #[test]
    fn error_frame_surfaces_as_remote() {
        let err = decode_response(&encode_error("node 9 out of range"));
        assert_eq!(err, Err(WireError::Remote("node 9 out of range".into())));
    }

    #[test]
    fn truncated_and_garbage_frames_are_typed_errors() {
        let good = encode_request(&sample_request());
        for cut in 0..good.len() {
            let err = decode_request(&good[..cut]).expect_err("truncation must fail");
            assert!(matches!(err, WireError::Truncated { .. }), "cut at {cut} gave {err:?}");
        }
        assert_eq!(decode_request(&[0xFF; 8]), Err(WireError::BadMagic(0xFFFF)));
        let mut wrong_version = good.clone();
        wrong_version[2] = 9;
        assert_eq!(decode_request(&wrong_version), Err(WireError::UnsupportedVersion(9)));
        let mut trailing = good;
        trailing.push(0);
        assert_eq!(decode_request(&trailing), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn response_decoder_rejects_request_frames_and_vice_versa() {
        let req = encode_request(&sample_request());
        assert_eq!(decode_response(&req), Err(WireError::BadKind(KIND_REQUEST)));
        let resp = encode_response(&ResponseFrame { rows: vec![] });
        assert_eq!(decode_request(&resp), Err(WireError::BadKind(KIND_RESPONSE)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut buf.as_slice()).expect_err("oversized must fail");
        assert_eq!(err, WireError::Oversized { len: u32::MAX as usize });
    }

    #[test]
    fn frame_io_roundtrip_and_clean_eof() {
        let payload = encode_request(&sample_request());
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let mut reader = buf.as_slice();
        assert_eq!(read_frame(&mut reader).expect("read"), Some(payload));
        assert_eq!(read_frame(&mut reader).expect("eof"), None);
    }

    #[test]
    fn lying_count_is_rejected() {
        // A request frame claiming 1000 queries but carrying none.
        let mut out = header(KIND_REQUEST, 12);
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(decode_request(&out), Err(WireError::Truncated { .. })));
    }
}
