//! Frame layout shared by both transports.
//!
//! There is one frame format. It is *connection-scoped*: the mandatory
//! connect handshake (see [`crate::handshake`]) fixes the wire version and
//! the client's identity for the whole connection, so frames carry no
//! version marker and no client id. Encode/decode state lives in a
//! [`V3Encoder`]/[`V3Decoder`] pair per connection direction:
//!
//! * request: `[vlong seq_field][vlong retry_attempt][vlong deadline_µs]
//!   [vlong ack][vlong method_ref]([Text protocol][Text method])?[param …]`
//! * response: `[vlong seq_field][u8 status][value … | Text error]`
//!
//! `(client_id, seq, retry_attempt)` is the at-most-once identity triple:
//! all attempts of one logical call re-send the same `seq` on connections
//! of the same `client_id`, which is how the server's retry cache
//! recognizes a re-sent call.
//!
//! `deadline_µs` is the caller's remaining per-attempt deadline budget in
//! microseconds (`0` = none): the admission plane sheds a queued call
//! once that budget has elapsed instead of executing it (see
//! [`STATUS_EXPIRED`]).
//!
//! `ack` names one earlier call of the same client whose response the
//! caller already has, as the wrapping distance `seq − acked_seq` (`0` =
//! none; usually one byte in either mode): the server's retry cache lets
//! that entry go at once (see [`crate::retry_cache`]).
//!
//! In **stateful** mode (stream transports, where a lost byte kills the
//! connection and its codec state with it) `seq_field` is the wrapping
//! delta from the previous frame's seq — almost always the single byte
//! `1` — and `method_ref` names the `<protocol, method>` pair by a small
//! per-connection wire id after its first use. In **self-contained**
//! mode (datagram-like verbs completions, where the fault model can drop
//! a frame without killing the connection) every frame decodes alone:
//! `seq_field` is the absolute seq and the method strings ride inline.
//!
//! On the socket transport each payload is preceded by a 4-byte big-endian
//! length (Hadoop's `out.writeInt(dataLength)`); on the RDMA transport the
//! length travels in the completion, so no prefix is needed.

use std::io::{self, Read};
use std::time::Duration;

use bufpool::{PoolMem, PooledBuf};
use simnet::MemoryRegion;
use wire::{DataInput, DataOutput, Writable};

use crate::intern::{self, MethodKey};
use crate::transport::rdma::SlotLease;

/// Response status byte: success.
pub const STATUS_OK: u8 = 0;
/// Response status byte: the server reports an error string.
pub const STATUS_ERROR: u8 = 1;
/// Response status byte: the server's call queue is full; the call was
/// never executed and is safe to retry.
pub const STATUS_BUSY: u8 = 2;
/// Response status byte: the call's propagated deadline budget expired
/// while it was queued, so the server shed it without executing it.
/// Retrying is pointless — the caller's deadline has passed — so clients
/// classify this as a non-retryable deadline failure.
pub const STATUS_EXPIRED: u8 = 3;

/// The whole body of a busy rejection: the status byte, nothing after it.
pub const BUSY_BODY: [u8; 1] = [STATUS_BUSY];
/// The whole body of a deadline shed: the status byte, nothing after it.
pub const EXPIRED_BODY: [u8; 1] = [STATUS_EXPIRED];

/// Parsed request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Stable per-client identity, from the connection's handshake.
    pub client_id: u64,
    /// Client-assigned sequence number; retries of one logical call
    /// re-send the same value.
    pub seq: i64,
    /// 0 on the first transmission, incremented per re-send.
    pub retry_attempt: u32,
    /// Interned `<protocol, method>` key: the wire strings resolve to an
    /// id once per frame, and everything downstream carries this `Copy`
    /// handle instead of owned `String`s.
    pub key: MethodKey,
    /// Remaining per-attempt deadline budget propagated by the caller
    /// (`None` for callers with no deadline). The admission plane sheds
    /// the call once this much time has passed since admission.
    pub deadline_budget: Option<Duration>,
    /// Seq of an earlier call of this client whose response the caller
    /// has received, so the server need not keep it. A peer's value is
    /// untrusted but harmless: it can only name its own client's calls.
    pub ack: Option<i64>,
}

impl RequestHeader {
    /// Protocol half of the interned key.
    pub fn protocol(&self) -> &'static str {
        self.key.protocol()
    }

    /// Method half of the interned key.
    pub fn method(&self) -> &'static str {
        self.key.method()
    }
}

/// Stack window for decoding key strings: real `<protocol, method>` names
/// are short, so steady-state decode never touches the heap; a longer name
/// spills to a one-off heap read.
const KEY_STACK: usize = 192;

/// Longest protocol or method name a header may carry. The length is a
/// peer-supplied vint (up to `i32::MAX`) and sizes the spill buffer, so it
/// is bounded *before* anything is allocated for it.
pub const KEY_TEXT_MAX: usize = 4096;

/// Read one Hadoop `Text` string into the caller's buffers and hand back a
/// borrowed `&str` (no allocation unless the name overflows `KEY_STACK`).
fn read_key_text<'a>(
    input: &mut dyn DataInput,
    stack: &'a mut [u8; KEY_STACK],
    heap: &'a mut Vec<u8>,
) -> io::Result<&'a str> {
    let len = input.read_vint()?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&len| len <= KEY_TEXT_MAX)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("key string length {len} outside 0..={KEY_TEXT_MAX}"),
            )
        })?;
    let bytes: &mut [u8] = if len <= KEY_STACK {
        &mut stack[..len]
    } else {
        heap.resize(len, 0);
        &mut heap[..]
    };
    input.read_bytes(bytes)?;
    std::str::from_utf8(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad utf8: {e}")))
}

/// Decode a retry attempt: vlong on the wire (an `as i32` vint would flip
/// counts above `i32::MAX` negative), rejected (like other malformed
/// header fields) when it does not fit the `u32` the engine tracks
/// attempts in.
fn read_retry_attempt(input: &mut dyn DataInput) -> io::Result<u32> {
    let raw = input.read_vlong()?;
    u32::try_from(raw).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("retry_attempt {raw} out of range"),
        )
    })
}

/// Deadline budgets travel as whole microseconds (`0` = no deadline): an
/// RPC deadline is milliseconds-to-seconds scale, so sub-microsecond
/// precision buys nothing and the vlong stays short. Rounding is *up* so
/// a tiny-but-present budget never encodes as "none".
fn encode_deadline_budget(budget: Option<Duration>) -> i64 {
    match budget {
        None => 0,
        Some(d) => {
            let micros = d.as_nanos().div_ceil(1000);
            i64::try_from(micros).unwrap_or(i64::MAX).max(1)
        }
    }
}

/// Decode a deadline budget field; negative values are malformed.
fn read_deadline_budget(input: &mut dyn DataInput) -> io::Result<Option<Duration>> {
    let raw = input.read_vlong()?;
    match raw {
        0 => Ok(None),
        micros if micros > 0 => Ok(Some(Duration::from_micros(micros as u64))),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("negative deadline budget {raw}"),
        )),
    }
}

/// Read the `[Text protocol][Text method]` pair and resolve it to the
/// process-wide interned key — once per frame, lock-free after the pair's
/// first appearance.
fn read_method_key(input: &mut dyn DataInput) -> io::Result<MethodKey> {
    let (mut pstack, mut pheap) = ([0u8; KEY_STACK], Vec::new());
    let (mut mstack, mut mheap) = ([0u8; KEY_STACK], Vec::new());
    let protocol = read_key_text(input, &mut pstack, &mut pheap)?;
    let method = read_key_text(input, &mut mstack, &mut mheap)?;
    Ok(intern::method_key(protocol, method))
}

/// Serialize the tail of a response: `[u8 status][value … | Text error]`.
/// A response frame is its lead ([`V3Encoder::write_response_lead`],
/// which depends on the connection) followed by exactly these bytes
/// (which do not), which is what lets the handler serialize a result once
/// and every sender (the handler itself, the holder of a send turn it
/// queued behind, a retry-cache replay) put it on the wire of whichever
/// connection asks.
pub fn write_response_body(
    out: &mut dyn DataOutput,
    result: Result<&dyn Writable, &str>,
) -> io::Result<()> {
    match result {
        Ok(value) => {
            out.write_u8(STATUS_OK)?;
            value.write(out)
        }
        Err(message) => {
            out.write_u8(STATUS_ERROR)?;
            out.write_string(message)
        }
    }
}

/// Response disposition carried by the status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// The value follows.
    Ok,
    /// A `Text` error message follows.
    Error,
    /// The server refused admission; nothing follows. Retryable.
    Busy,
    /// The call's deadline budget expired while queued and it was shed
    /// without executing; nothing follows. Not retryable: the caller's
    /// deadline has already passed.
    Expired,
}

/// Parsed response header; the value (or error string) follows in `input`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHeader {
    pub seq: i64,
    pub status: ResponseStatus,
}

impl ResponseHeader {
    /// Convenience for the success case.
    pub fn ok(&self) -> bool {
        self.status == ResponseStatus::Ok
    }
}

fn read_status(input: &mut dyn DataInput) -> io::Result<ResponseStatus> {
    match input.read_u8()? {
        STATUS_OK => Ok(ResponseStatus::Ok),
        STATUS_ERROR => Ok(ResponseStatus::Error),
        STATUS_BUSY => Ok(ResponseStatus::Busy),
        STATUS_EXPIRED => Ok(ResponseStatus::Expired),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown response status {other}"),
        )),
    }
}

/// `method_ref` value marking inline `[Text protocol][Text method]`
/// strings with no table interaction (every self-contained frame, and any
/// stateful frame the encoder chooses not to table).
const MREF_INLINE: i64 = -1;

/// Encoder half of the connection codec. One instance per connection
/// direction (client requests, or server responses), fed frames in exact
/// wire order.
///
/// `stateful` selects the compression level. Stream transports set it:
/// deltas and the method-id table assume the peer decodes every frame we
/// encode, in order — true on a reliable stream, where any loss kills the
/// connection (and both codec halves with it). The verbs fault model can
/// drop a completion while the connection lives on, so verbs connections
/// run self-contained: absolute seqs, inline method strings, no
/// inter-frame state at all.
pub struct V3Encoder {
    stateful: bool,
    last_seq: i64,
    /// `<protocol, method>` → per-connection wire id, assigned densely in
    /// first-use order (stateful mode only).
    ids: std::collections::HashMap<MethodKey, i64>,
}

impl V3Encoder {
    pub fn new(stateful: bool) -> Self {
        V3Encoder {
            stateful,
            last_seq: 0,
            ids: std::collections::HashMap::new(),
        }
    }

    fn seq_field(&mut self, seq: i64) -> i64 {
        if self.stateful {
            let delta = seq.wrapping_sub(self.last_seq);
            self.last_seq = seq;
            delta
        } else {
            seq
        }
    }

    /// Serialize a request header that acknowledges nothing; the param
    /// bytes follow. `deadline_budget` is the caller's remaining
    /// per-attempt budget (`None` encodes as `0`: no deadline, never shed).
    pub fn write_request_header(
        &mut self,
        out: &mut dyn DataOutput,
        seq: i64,
        retry_attempt: u32,
        deadline_budget: Option<Duration>,
        key: MethodKey,
    ) -> io::Result<()> {
        self.write_request_header_acking(out, seq, retry_attempt, deadline_budget, None, key)
    }

    /// [`Self::write_request_header`], acknowledging the response of the
    /// earlier call `acked` (a seq other than `seq`).
    pub fn write_request_header_acking(
        &mut self,
        out: &mut dyn DataOutput,
        seq: i64,
        retry_attempt: u32,
        deadline_budget: Option<Duration>,
        acked: Option<i64>,
        key: MethodKey,
    ) -> io::Result<()> {
        out.write_vlong(self.seq_field(seq))?;
        out.write_vlong(i64::from(retry_attempt))?;
        out.write_vlong(encode_deadline_budget(deadline_budget))?;
        out.write_vlong(acked.map_or(0, |acked| seq.wrapping_sub(acked)))?;
        if !self.stateful {
            out.write_vlong(MREF_INLINE)?;
            out.write_string(key.protocol())?;
            return out.write_string(key.method());
        }
        if let Some(&wid) = self.ids.get(&key) {
            return out.write_vlong(wid);
        }
        // First use on this connection: announce wire id `len(ids)` (the
        // decoder independently tracks the same dense assignment) and
        // carry the strings inline this one time.
        let wid = self.ids.len() as i64;
        self.ids.insert(key, wid);
        out.write_vlong(-wid - 2)?;
        out.write_string(key.protocol())?;
        out.write_string(key.method())
    }

    /// Serialize a response lead (`[vlong seq_field]`); the
    /// `[status][body]` bytes of [`write_response_body`] follow.
    pub fn write_response_lead(&mut self, out: &mut dyn DataOutput, seq: i64) -> io::Result<()> {
        out.write_vlong(self.seq_field(seq))
    }
}

/// Decoder half of the connection codec; mirrors [`V3Encoder`] and
/// fail-stops (`InvalidData`) on any inconsistency — the connection is
/// forfeited rather than risking a misattributed frame.
pub struct V3Decoder {
    stateful: bool,
    last_seq: i64,
    /// Wire id → key, in announcement order (stateful mode only).
    table: Vec<MethodKey>,
}

impl V3Decoder {
    pub fn new(stateful: bool) -> Self {
        V3Decoder {
            stateful,
            last_seq: 0,
            table: Vec::new(),
        }
    }

    fn seq(&mut self, field: i64) -> i64 {
        if self.stateful {
            let seq = self.last_seq.wrapping_add(field);
            self.last_seq = seq;
            seq
        } else {
            field
        }
    }

    fn method_key(&mut self, input: &mut dyn DataInput, mref: i64) -> io::Result<MethodKey> {
        if mref == MREF_INLINE {
            return read_method_key(input);
        }
        if mref >= 0 {
            return usize::try_from(mref)
                .ok()
                .and_then(|idx| self.table.get(idx).copied())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("V3 method ref {mref} not announced on this connection"),
                    )
                });
        }
        // Announcement: wire id (-mref)-2 must be the next dense slot.
        let wid = mref
            .checked_neg()
            .and_then(|v| v.checked_sub(2))
            .filter(|&wid| wid == self.table.len() as i64)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "V3 method announcement {mref} out of order (expected id {})",
                        self.table.len()
                    ),
                )
            })?;
        let key = read_method_key(input)?;
        debug_assert_eq!(wid, self.table.len() as i64);
        self.table.push(key);
        Ok(key)
    }

    /// Parse a request header; `client_id` comes from the handshake
    /// (it is not on the wire per-frame). The param bytes follow.
    pub fn read_request_header(
        &mut self,
        input: &mut dyn DataInput,
        client_id: u64,
    ) -> io::Result<RequestHeader> {
        let seq = self.seq(input.read_vlong()?);
        let retry_attempt = read_retry_attempt(input)?;
        let deadline_budget = read_deadline_budget(input)?;
        let ack = match input.read_vlong()? {
            0 => None,
            distance => Some(seq.wrapping_sub(distance)),
        };
        let mref = input.read_vlong()?;
        let key = self.method_key(input, mref)?;
        Ok(RequestHeader {
            client_id,
            seq,
            retry_attempt,
            key,
            deadline_budget,
            ack,
        })
    }

    /// Parse a response header; the value/error bytes follow.
    pub fn read_response_header(
        &mut self,
        input: &mut dyn DataInput,
    ) -> io::Result<ResponseHeader> {
        let seq = self.seq(input.read_vlong()?);
        let status = read_status(input)?;
        Ok(ResponseHeader { seq, status })
    }
}

/// A received frame payload: heap bytes on the socket path (Listing 2
/// allocates per call), registered memory on the RPCoIB path — the pooled
/// buffer an eager message landed in, or the large-region slots a bulk
/// frame was RDMA-written into. Either way deserialization reads out of
/// the memory the DMA wrote: zero copies beyond it.
pub enum Payload {
    /// Freshly allocated heap buffer (socket baseline).
    Owned(Vec<u8>),
    /// A pooled registered buffer holding `len` valid bytes.
    Pooled {
        buf: PooledBuf<MemoryRegion>,
        len: usize,
    },
    /// A bulk frame where it landed: `len` bytes at `base` of the
    /// connection's large region. The slots under it stay the sender's
    /// to reuse only once this payload is dropped — dropping `lease` is
    /// what hands them back (see [`SlotLease`]) — so hold it no longer
    /// than the read takes; a reader that must wait first takes its bytes
    /// with it ([`crate::IbContext::evacuate`]). The peer holds the
    /// region's rkey and can rewrite the bytes mid-read: every byte is
    /// untrusted input however often it has been looked at.
    InPlace {
        region: MemoryRegion,
        base: usize,
        len: usize,
        lease: SlotLease,
    },
}

impl Payload {
    /// Valid byte count.
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Pooled { len, .. } | Payload::InPlace { len, .. } => *len,
        }
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A positioned reader over the payload bytes.
    pub fn reader(&self) -> PayloadReader<'_> {
        PayloadReader {
            payload: self,
            pos: 0,
            stage: [0u8; READ_STAGE],
            stage_start: 0,
            stage_len: 0,
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Owned(v) => write!(f, "Payload::Owned({} bytes)", v.len()),
            Payload::Pooled { len, .. } => write!(f, "Payload::Pooled({len} bytes)"),
            Payload::InPlace { len, .. } => write!(f, "Payload::InPlace({len} bytes)"),
        }
    }
}

/// Read-side staging size (mirrors the write-combining stage in
/// `RdmaOutputStream`): registered memory lives behind a lock, so per-field
/// reads fetch through a small local window.
const READ_STAGE: usize = 512;

/// Reader over a [`Payload`]; implements `Read`, hence `DataInput`.
pub struct PayloadReader<'a> {
    payload: &'a Payload,
    pos: usize,
    stage: [u8; READ_STAGE],
    stage_start: usize,
    stage_len: usize,
}

impl PayloadReader<'_> {
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Advance the position by `n` bytes (e.g. past an already-parsed
    /// header) without copying.
    pub fn skip(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.payload.len());
    }

    /// Run `f` on the next `len` bytes where they landed — the heap
    /// buffer, the pooled buffer or the ring slots — and step past them;
    /// a `len` beyond [`Self::remaining`] is refused before `f` runs.
    ///
    /// This is how a data plane takes a packet without a `Vec` of its
    /// own per packet: it appends to its final destination inside `f`.
    /// The borrow is closure-scoped because registered memory sits behind
    /// its region's lock, so `f` should copy and return; and because the
    /// peer holds the rkey and may rewrite the bytes once `f` has seen
    /// them, whatever is checked (a CRC, a length) must be checked on the
    /// copy `f` made — *verify what you keep* — never on a second visit.
    ///
    /// Inherent, not a `DataInput` method: the blanket
    /// `impl<R: Read> DataInput for R` admits no override, so a handler
    /// holding `&mut dyn DataInput` still reads through the stage.
    pub fn with_bytes<R>(&mut self, len: usize, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        if len > self.remaining() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("{len} bytes announced, {} left", self.remaining()),
            ));
        }
        let (start, end) = (self.pos, self.pos + len);
        let out = match self.payload {
            Payload::Owned(v) => f(&v[start..end]),
            Payload::Pooled { buf, .. } => buf.mem().with(|m| f(&m[start..end])),
            Payload::InPlace { region, base, .. } => {
                region.with(|m| f(&m[base + start..base + end]))
            }
        };
        self.pos = end;
        Ok(out)
    }
}

impl Read for PayloadReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.remaining().min(out.len());
        if n == 0 {
            return Ok(0);
        }
        // Registered memory, and where in it the payload starts.
        let (mem, origin) = match self.payload {
            Payload::Owned(v) => {
                out[..n].copy_from_slice(&v[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            Payload::Pooled { buf, .. } => (buf.mem(), 0),
            Payload::InPlace { region, base, .. } => (region, *base),
        };
        if n >= READ_STAGE {
            // Bulk read: bypass the stage.
            mem.get(origin + self.pos, &mut out[..n]);
            self.pos += n;
            return Ok(n);
        }
        // Serve from the staged window, refilling as needed.
        let in_stage = self.pos >= self.stage_start && self.pos < self.stage_start + self.stage_len;
        if !in_stage {
            let fill = self.remaining().min(READ_STAGE);
            mem.get(origin + self.pos, &mut self.stage[..fill]);
            self.stage_start = self.pos;
            self.stage_len = fill;
        }
        let off = self.pos - self.stage_start;
        let n = n.min(self.stage_len - off);
        out[..n].copy_from_slice(&self.stage[off..off + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::IntWritable;

    /// A request header up to where its inline `[Text protocol]` begins,
    /// with `retry` in the `retry_attempt` field.
    fn header_before_names(retry: i64) -> Vec<u8> {
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap(); // seq
        buf.write_vlong(retry).unwrap();
        buf.write_vlong(0).unwrap(); // no deadline
        buf.write_vlong(0).unwrap(); // no ack
        buf.write_vlong(MREF_INLINE).unwrap();
        buf
    }

    /// A complete request header whose `retry_attempt` field is `raw`.
    fn header_with_retry_field(raw: i64) -> Vec<u8> {
        let mut buf = header_before_names(raw);
        buf.write_string("p").unwrap();
        buf.write_string("m").unwrap();
        buf
    }

    #[test]
    fn error_response_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        V3Encoder::new(true)
            .write_response_lead(&mut buf, 6)
            .unwrap();
        write_response_body(&mut buf, Err("file not found")).unwrap();
        let mut input = buf.as_slice();
        let header = V3Decoder::new(true)
            .read_response_header(&mut input)
            .unwrap();
        assert_eq!(header.status, ResponseStatus::Error);
        let mut msg = String::new();
        msg.read_fields(&mut input).unwrap();
        assert_eq!(msg, "file not found");
    }

    #[test]
    fn bad_status_is_invalid_data() {
        let buf = [1, 9]; // seq delta 1, status 9
        let mut input = buf.as_slice();
        let err = V3Decoder::new(true)
            .read_response_header(&mut input)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn retry_attempt_roundtrips_across_the_i32_boundary() {
        // Regression: `retry_attempt as i32` through the signed vint path
        // flipped counts above i32::MAX negative on the wire.
        let key = crate::intern::method_key("p", "m");
        for attempt in [0u32, 1, i32::MAX as u32, (i32::MAX as u32) + 1, u32::MAX] {
            let mut buf: Vec<u8> = Vec::new();
            V3Encoder::new(true)
                .write_request_header(&mut buf, 1, attempt, None, key)
                .unwrap();
            let header = V3Decoder::new(true)
                .read_request_header(&mut buf.as_slice(), 7)
                .unwrap();
            assert_eq!(header.retry_attempt, attempt, "attempt {attempt}");
        }
    }

    #[test]
    fn out_of_range_retry_attempt_is_invalid_data() {
        assert!(V3Decoder::new(true)
            .read_request_header(&mut header_with_retry_field(0).as_slice(), 7)
            .is_ok());
        for raw in [-1i64, i64::from(u32::MAX) + 1, i64::MIN] {
            let err = V3Decoder::new(true)
                .read_request_header(&mut header_with_retry_field(raw).as_slice(), 7)
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "raw {raw}");
        }
    }

    #[test]
    fn oversized_key_text_is_refused_before_any_allocation() {
        // A 13-byte frame announcing a 2 GiB protocol name.
        let mut buf = header_before_names(0);
        buf.write_vint(i32::MAX).unwrap();
        buf.extend_from_slice(b"abc");
        assert_eq!(buf.len(), 13);
        for stateful in [true, false] {
            let err = V3Decoder::new(stateful)
                .read_request_header(&mut buf.as_slice(), 7)
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }

        // The spill buffer is never sized by a refused length, and the
        // largest admissible name still decodes.
        for len in [KEY_TEXT_MAX + 1, i32::MAX as usize] {
            let mut text: Vec<u8> = Vec::new();
            text.write_vint(len as i32).unwrap();
            let (mut stack, mut heap) = ([0u8; KEY_STACK], Vec::new());
            let err = read_key_text(&mut text.as_slice(), &mut stack, &mut heap).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len {len}");
            assert_eq!(heap.capacity(), 0, "len {len} must not size the buffer");
        }
        let name = "n".repeat(KEY_TEXT_MAX);
        let mut text: Vec<u8> = Vec::new();
        text.write_string(&name).unwrap();
        let (mut stack, mut heap) = ([0u8; KEY_STACK], Vec::new());
        assert_eq!(
            read_key_text(&mut text.as_slice(), &mut stack, &mut heap).unwrap(),
            name
        );
    }

    #[test]
    fn v3_request_roundtrip_stateful_uses_table_after_first_use() {
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        let key = crate::intern::method_key("v3.Proto", "ping");
        let mut sizes = Vec::new();
        for seq in 1..=3i64 {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, 0, None, key)
                .unwrap();
            sizes.push(buf.len());
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 42).unwrap();
            assert_eq!(header.client_id, 42, "client id comes from the handshake");
            assert_eq!(header.seq, seq);
            assert_eq!(header.key, key);
            assert!(input.is_empty());
        }
        assert!(
            sizes[1] < sizes[0] && sizes[2] == sizes[1],
            "interned form must drop the inline strings: {sizes:?}"
        );
        assert_eq!(
            sizes[1], 5,
            "delta-seq + retry + deadline + ack + method ref, one byte each"
        );
    }

    #[test]
    fn ack_roundtrips_across_the_seq_wrap_in_both_forms() {
        let key = crate::intern::method_key("v3.Proto", "ack");
        for stateful in [true, false] {
            let mut enc = V3Encoder::new(stateful);
            let mut dec = V3Decoder::new(stateful);
            for (seq, acked) in [
                (5i64, None),
                (6, Some(5)),
                (i64::MIN, Some(i64::MAX)),
                (i64::MIN + 2, Some(i64::MAX - 1)),
                (i64::MAX, Some(i64::MIN)),
                (7, Some(7 - 300)),
            ] {
                let mut buf: Vec<u8> = Vec::new();
                enc.write_request_header_acking(&mut buf, seq, 0, None, acked, key)
                    .unwrap();
                let mut input = buf.as_slice();
                let header = dec.read_request_header(&mut input, 3).unwrap();
                assert_eq!(
                    (header.seq, header.ack),
                    (seq, acked),
                    "stateful {stateful}"
                );
                assert!(input.is_empty());
            }
            // The usual ack, a few calls back, is one byte, like none.
            let mut none: Vec<u8> = Vec::new();
            enc.write_request_header(&mut none, 100, 0, None, key)
                .unwrap();
            let mut acking: Vec<u8> = Vec::new();
            enc.write_request_header_acking(&mut acking, 101, 0, None, Some(99), key)
                .unwrap();
            assert_eq!(none.len(), acking.len(), "stateful {stateful}");
        }
    }

    #[test]
    fn v3_self_contained_frames_decode_independently() {
        let mut enc = V3Encoder::new(false);
        let key = crate::intern::method_key("v3.Proto", "solo");
        let mut frames = Vec::new();
        for seq in [10i64, 11, 12] {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, 2, Some(Duration::from_millis(250)), key)
                .unwrap();
            frames.push(buf);
        }
        // Decode out of order with fresh decoders: no inter-frame state.
        for (buf, seq) in frames.iter().zip([10i64, 11, 12]).rev() {
            let mut dec = V3Decoder::new(false);
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 9).unwrap();
            assert_eq!(header.seq, seq);
            assert_eq!(header.retry_attempt, 2);
            assert_eq!(header.key, key);
            assert_eq!(header.deadline_budget, Some(Duration::from_millis(250)));
        }
    }

    #[test]
    fn v3_response_roundtrip_and_busy_body() {
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        for (seq, body) in [
            (5i64, BUSY_BODY.to_vec()),
            ((i32::MAX as i64) + 6, {
                let mut b = Vec::new();
                write_response_body(&mut b, Ok(&IntWritable(77))).unwrap();
                b
            }),
        ] {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_response_lead(&mut buf, seq).unwrap();
            buf.extend_from_slice(&body);
            let mut input = buf.as_slice();
            let header = dec.read_response_header(&mut input).unwrap();
            assert_eq!(header.seq, seq);
            if seq == 5 {
                assert_eq!(header.status, ResponseStatus::Busy);
                assert!(input.is_empty(), "busy responses carry no body");
            } else {
                let mut v = IntWritable::default();
                v.read_fields(&mut input).unwrap();
                assert_eq!(v.0, 77);
            }
        }
    }

    #[test]
    fn v3_bad_method_refs_are_invalid_data() {
        let mut dec = V3Decoder::new(true);
        // Reference to a never-announced id.
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap(); // seq delta
        buf.write_vlong(0).unwrap(); // retry
        buf.write_vlong(0).unwrap(); // no deadline
        buf.write_vlong(0).unwrap(); // no ack
        buf.write_vlong(3).unwrap(); // ref id 3, table empty
        let mut input = buf.as_slice();
        assert!(dec.read_request_header(&mut input, 1).is_err());

        // Out-of-order announcement (id 5 when 0 is expected).
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(-7).unwrap(); // announces wid 5
        buf.write_string("p").unwrap();
        buf.write_string("m").unwrap();
        let mut input = buf.as_slice();
        assert!(dec.read_request_header(&mut input, 1).is_err());

        // i64::MIN must not overflow the announcement arithmetic.
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(i64::MIN).unwrap();
        let mut input = buf.as_slice();
        assert!(dec.read_request_header(&mut input, 1).is_err());
    }

    #[test]
    fn v3_deadline_budget_roundtrips_and_rounds_up() {
        let key = crate::intern::method_key("v3.Proto", "budget");
        for (budget, expect) in [
            (None, None),
            // Sub-microsecond budgets round *up*, never to "none".
            (
                Some(Duration::from_nanos(1)),
                Some(Duration::from_micros(1)),
            ),
            (
                Some(Duration::from_micros(1500)),
                Some(Duration::from_micros(1500)),
            ),
            (Some(Duration::from_secs(30)), Some(Duration::from_secs(30))),
        ] {
            let mut enc = V3Encoder::new(true);
            let mut dec = V3Decoder::new(true);
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, 1, 0, budget, key)
                .unwrap();
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 7).unwrap();
            assert_eq!(header.deadline_budget, expect, "budget {budget:?}");
        }
    }

    #[test]
    fn negative_deadline_budget_is_invalid_data() {
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap(); // seq delta
        buf.write_vlong(0).unwrap(); // retry
        buf.write_vlong(-5).unwrap(); // malformed budget
        let mut input = buf.as_slice();
        let err = dec.read_request_header(&mut input, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn expired_response_roundtrip() {
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        enc.write_response_lead(&mut buf, 5).unwrap();
        buf.extend_from_slice(&EXPIRED_BODY);
        let mut input = buf.as_slice();
        let header = dec.read_response_header(&mut input).unwrap();
        assert_eq!(header.status, ResponseStatus::Expired);
        assert_eq!(header.seq, 5);
        assert_eq!(input.len(), 0, "expired responses carry no body");
    }

    #[test]
    fn v3_delta_seq_survives_wrapping() {
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        let key = crate::intern::method_key("v3.Proto", "wrap");
        for seq in [i64::MAX - 1, i64::MAX, i64::MIN, i64::MIN + 1, 0] {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, 0, None, key)
                .unwrap();
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 1).unwrap();
            assert_eq!(header.seq, seq);
        }
    }

    #[test]
    fn owned_payload_reader() {
        let payload = Payload::Owned(vec![1, 2, 3, 4, 5]);
        let mut reader = payload.reader();
        let mut buf = [0u8; 2];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2]);
        assert_eq!(reader.remaining(), 3);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, vec![3, 4, 5]);
    }

    #[test]
    fn with_bytes_visits_owned_bytes_in_place_and_refuses_an_overrun() {
        let payload = Payload::Owned(vec![1, 2, 3, 4, 5]);
        let mut reader = payload.reader();
        assert_eq!(reader.read_u8().unwrap(), 1);
        assert_eq!(reader.with_bytes(3, <[u8]>::to_vec).unwrap(), [2, 3, 4]);
        assert_eq!(reader.position(), 4);
        // One byte left: two are refused, `f` never runs, nothing moves.
        let err = reader.with_bytes(2, |_| panic!("visited")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(reader.position(), 4);
        assert_eq!(reader.with_bytes(0, <[u8]>::len).unwrap(), 0);
        assert_eq!(reader.read_u8().unwrap(), 5);
    }
}
