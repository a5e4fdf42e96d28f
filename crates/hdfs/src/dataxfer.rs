//! The DataNode data-transfer protocol and connection pooling.
//!
//! Block payloads do not travel over the RPC engine (exactly as in
//! Hadoop); they use a dedicated streaming protocol. Both the socket and
//! RDMA ("HDFSoIB") variants run over the message-oriented
//! [`rpcoib::transport::Conn`] interface, so the pipeline code is
//! transport-agnostic — chunks ride send/recv on the RDMA path.
//!
//! Frames (one `Conn` message each):
//!
//! * `WRITE` — `[op][block u64][vlong len][vint n][targets…]` and then the
//!   transfer's first packet, `[crc32 u32][len-prefixed bytes]`: open a
//!   write pipeline for a block of `len` bytes, so the receiver sizes the
//!   replica before it copies the first byte; it forwards a `WRITE` with
//!   the remaining targets, and the same packet, downstream;
//! * `DATA` — `[op][crc32 u32][len-prefixed bytes]`: one further packet,
//!   protected by a CRC-32 the receiver verifies (HDFS checksums every
//!   data chunk);
//! * `ACK` — `[op][status u8]`;
//! * `READ` — `[op][block u64][vlong offset][len u64]`: fetch a block range;
//! * `SIZE` — `[op][size u64]` and then the first packet, as `WRITE`: read
//!   response header; further packets follow as `DATA`.
//!
//! **Control rides the data.** A transfer's header travels in the message
//! that carries its first packet, and nothing marks its end: it is
//! complete when the bytes its header announced have arrived, at which
//! point a write's receiver stores + reports, then waits for the
//! downstream `ACK` before acking upstream. More bytes than announced, an
//! empty packet, or any other frame where a packet is due, is refused
//! ([`recv_frame_into`]). Only a transfer of no bytes sends a header
//! alone. (A payload-free message costs the fabric model's whole
//! per-message stack charge; a header and an end marker per hop were two
//! of the five messages of a 128 KiB block.)
//!
//! A packet's bytes are copied once on each side of the wire: the sender
//! hands the transport a borrowed chunk ([`send_packet`]), the receiver
//! appends it to the block it belongs to in the one visit it pays the
//! wire buffer ([`append_len_bytes`]).

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use rpcoib::frame::PayloadReader;
use rpcoib::transport::rdma::{IbContext, RdmaConn};
use rpcoib::transport::socket::SocketConn;
use rpcoib::transport::Conn;
use rpcoib::{RpcConfig, RpcError, RpcResult};
use simnet::{Fabric, ListenerCloser, NodeId, SimAddr, SimListener, SimStream};
use wire::{DataInput, DataOutput};

use crate::types::DatanodeInfo;

pub const OP_WRITE: u8 = 1;
pub const OP_DATA: u8 = 2;
pub const OP_ACK: u8 = 4;
pub const OP_READ: u8 = 5;
pub const OP_SIZE: u8 = 6;

/// Status byte carried by `ACK`.
pub const ACK_OK: u8 = 0;
pub const ACK_FAIL: u8 = 1;
/// The replica's stored data no longer matches its stored checksum (the
/// analogue of HDFS's `ChecksumException` on a corrupt replica).
pub const ACK_CORRUPT: u8 = 2;

/// Most targets a `WRITE` may name (HDFS pipelines are a replication
/// factor long); a count beyond it is refused, not allocated for.
pub const MAX_TARGETS: usize = 16;

/// Timeout for intra-pipeline waits (acks, next chunk).
pub const DATA_TIMEOUT: Duration = Duration::from_secs(20);

/// Pool of reusable data connections, keyed by destination. One checked
/// -out connection carries exactly one operation at a time (the protocol
/// is stateful), then returns for reuse — mirroring how HDFSoIB keeps
/// long-lived RDMA connections instead of paying setup per block.
pub struct DataConnPool {
    fabric: Fabric,
    local: NodeId,
    cfg: RpcConfig,
    ib: Option<IbContext>,
    idle: Mutex<HashMap<SimAddr, Vec<Arc<dyn Conn>>>>,
}

impl DataConnPool {
    /// Build a pool for one endpoint of the data plane. When the data path
    /// is RDMA it takes the node's verbs context for `cfg`'s buffers
    /// ([`IbContext::for_node`]), shared with the node's other endpoints
    /// of that geometry.
    pub fn new(fabric: &Fabric, local: NodeId, cfg: RpcConfig) -> RpcResult<DataConnPool> {
        let ib = if cfg.ib_enabled {
            Some(IbContext::for_node(fabric, local, &cfg)?)
        } else {
            None
        };
        Ok(DataConnPool {
            fabric: fabric.clone(),
            local,
            cfg,
            ib,
            idle: Mutex::new(HashMap::new()),
        })
    }

    /// Check out a connection to `addr`, reusing an idle one when possible.
    pub fn checkout(&self, addr: SimAddr) -> RpcResult<PooledConn<'_>> {
        if let Some(conn) = self.idle.lock().get_mut(&addr).and_then(Vec::pop) {
            return Ok(PooledConn {
                conn: Some(conn),
                addr,
                pool: self,
                reusable: true,
            });
        }
        let stream = SimStream::connect(&self.fabric, self.local, addr)?;
        Ok(PooledConn {
            conn: Some(open(&self.ib, &self.cfg, stream)?),
            addr,
            pool: self,
            reusable: true,
        })
    }

    /// The IB context backing RDMA data connections (None on sockets).
    pub fn ib_context(&self) -> Option<&IbContext> {
        self.ib.as_ref()
    }

    fn checkin(&self, addr: SimAddr, conn: Arc<dyn Conn>) {
        self.idle.lock().entry(addr).or_default().push(conn);
    }
}

/// Either end of a data connection over `stream`: a verbs bootstrap on
/// `ib` with `cfg`'s buffers, or a framed socket.
fn open(ib: &Option<IbContext>, cfg: &RpcConfig, stream: SimStream) -> RpcResult<Arc<dyn Conn>> {
    Ok(match ib {
        Some(ctx) => Arc::new(RdmaConn::bootstrap(&stream, ctx, cfg)?),
        None => Arc::new(SocketConn::new(stream, 4096)),
    })
}

impl std::fmt::Debug for DataConnPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataConnPool")
            .field("local", &self.local)
            .field("rdma", &self.ib.is_some())
            .finish()
    }
}

/// A checked-out data connection; returns to the pool on drop unless
/// poisoned with [`PooledConn::poison`].
pub struct PooledConn<'a> {
    conn: Option<Arc<dyn Conn>>,
    addr: SimAddr,
    pool: &'a DataConnPool,
    reusable: bool,
}

impl PooledConn<'_> {
    /// The underlying connection.
    pub fn conn(&self) -> &Arc<dyn Conn> {
        self.conn.as_ref().expect("connection already returned")
    }

    /// Mark the connection as broken mid-protocol: it will be dropped
    /// instead of pooled (a half-finished stream cannot be reused).
    pub fn poison(&mut self) {
        self.reusable = false;
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            if self.reusable {
                self.pool.checkin(self.addr, conn);
            } else {
                conn.close();
            }
        }
    }
}

/// The serving end of a data plane (a DataNode's xceivers, a
/// TaskTracker's shuffle): one thread blocked in accept, and one per
/// connection blocked in its receive. Nothing here polls: `stop` unbinds
/// the port and closes every open connection, which ends each of those
/// waits at once.
pub struct DataService {
    closer: ListenerCloser,
    serving: Arc<Serving>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

/// What a [`DataService`]'s threads share.
struct Serving {
    ib: Option<IbContext>,
    cfg: RpcConfig,
    /// The connections being served; `None` once stopped, so that a
    /// connection set up after `stop` is closed rather than served.
    open: Mutex<Option<Vec<Weak<dyn Conn>>>>,
    serve: Box<ServeFn>,
}

/// What a [`DataService`] runs on each connection it sets up.
type ServeFn = dyn Fn(&Arc<dyn Conn>) + Send + Sync;

impl DataService {
    /// Accept on `listener` from a thread named `name`. Each connection is
    /// set up on a thread of its own, named `conn_name`, on the transport
    /// and buffers of the node's side of `pool` (so both ends agree), and
    /// handed to `serve`, which returns once the connection breaks or
    /// closes.
    pub fn start(
        listener: SimListener,
        pool: &DataConnPool,
        name: String,
        conn_name: String,
        serve: impl Fn(&Arc<dyn Conn>) + Send + Sync + 'static,
    ) -> DataService {
        let serving = Arc::new(Serving {
            ib: pool.ib.clone(),
            cfg: pool.cfg.clone(),
            open: Mutex::new(Some(Vec::new())),
            serve: Box::new(serve),
        });
        let closer = listener.closer();
        let shared = Arc::clone(&serving);
        let accept_loop = move || {
            let mut served: Vec<JoinHandle<()>> = Vec::new();
            // Until unbound: `stop`, or the node was killed.
            while let Ok((stream, _)) = listener.accept() {
                served.retain(|t| !t.is_finished());
                let serving = Arc::clone(&shared);
                let conn_thread = std::thread::Builder::new().name(conn_name.clone());
                let serve = move || serving.serve(stream);
                served.push(conn_thread.spawn(serve).expect("spawn data connection"));
            }
            for t in served {
                let _ = t.join();
            }
        };
        let acceptor = std::thread::Builder::new().name(name);
        let acceptor = acceptor.spawn(accept_loop).expect("spawn acceptor");
        DataService {
            closer,
            serving,
            acceptor: Mutex::new(Some(acceptor)),
        }
    }

    /// Unbind the port, close every open connection, and join the
    /// acceptor, which joins the connections' threads. Idempotent.
    pub fn stop(&self) {
        self.closer.close();
        let open = self.serving.open.lock().take();
        for conn in open.into_iter().flatten().filter_map(|c| c.upgrade()) {
            conn.close();
        }
        if let Some(acceptor) = self.acceptor.lock().take() {
            let _ = acceptor.join();
        }
    }
}

impl Serving {
    /// Set up the connection `stream` was accepted for, and serve it
    /// until it breaks or closes.
    fn serve(&self, stream: SimStream) {
        let Ok(conn) = open(&self.ib, &self.cfg, stream) else {
            return; // a peer that vanished mid-hello
        };
        match self.open.lock().as_mut() {
            Some(open) => {
                open.retain(|c| c.strong_count() > 0);
                open.push(Arc::downgrade(&conn));
            }
            None => return conn.close(),
        }
        (self.serve)(&conn);
    }
}

// ---------------------------------------------------------------------------
// Frame helpers.
// ---------------------------------------------------------------------------

/// What opens a transfer: it announces the transfer's length, and rides
/// the message that carries its first packet.
#[derive(Debug, Clone, Copy)]
pub enum Opening<'a> {
    /// A write pipeline for `block`, `len` bytes long, through `targets`.
    Write {
        block: u64,
        len: u64,
        targets: &'a [DatanodeInfo],
    },
    /// The answer to a `READ`: this many bytes follow.
    Size(u64),
}

/// The longest lead [`send_opening`] builds: a `WRITE` naming
/// [`MAX_TARGETS`] targets (ten bytes each on the wire), then a packet's
/// CRC and length.
const LEAD_MAX: usize = 1 + 8 + 9 + 5 + MAX_TARGETS * 10 + 8;

/// Send `opening` and, riding it, the transfer's `first` packet (its CRC
/// and its bytes; `None` only for a transfer of no bytes). Like
/// [`send_packet`], nothing is staged: the lead is built on the stack.
pub fn send_opening(
    conn: &Arc<dyn Conn>,
    opening: &Opening<'_>,
    first: Option<(u32, &[u8])>,
) -> RpcResult<()> {
    let mut lead = [0u8; LEAD_MAX];
    let mut out = &mut lead[..];
    let key = match *opening {
        Opening::Write {
            block,
            len,
            targets,
        } => {
            out.write_u8(OP_WRITE)?;
            out.write_i64(block as i64)?;
            out.write_vlong(len as i64)?;
            out.write_vint(targets.len() as i32)?;
            for t in targets {
                wire::Writable::write(t, &mut out)?;
            }
            rpcoib::intern::method_key("hdfs.data", "write")
        }
        Opening::Size(size) => {
            out.write_u8(OP_SIZE)?;
            out.write_i64(size as i64)?;
            rpcoib::intern::method_key("hdfs.data", "size")
        }
    };
    let chunk = match first {
        Some((crc, chunk)) => {
            out.write_i32(crc as i32)?;
            out.write_i32(chunk.len() as i32)?;
            chunk
        }
        None => &[],
    };
    let used = LEAD_MAX - out.len();
    conn.send_serialized(key, &lead[..used], chunk)
}

/// Send a whole transfer: `opening` riding the first `chunk`-byte packet
/// of `data`, the rest of `data` behind it as `DATA` packets.
pub fn send_transfer(
    conn: &Arc<dyn Conn>,
    opening: &Opening<'_>,
    data: &[u8],
    chunk: usize,
) -> RpcResult<()> {
    let mut chunks = data.chunks(chunk);
    let first = chunks.next().map(|first| (wire::crc32(first), first));
    send_opening(conn, opening, first)?;
    chunks.try_for_each(|chunk| send_chunk(conn, chunk))
}

/// Send one data chunk, protected by a CRC-32 of its bytes.
pub fn send_chunk(conn: &Arc<dyn Conn>, chunk: &[u8]) -> RpcResult<()> {
    send_packet(conn, wire::crc32(chunk), chunk)
}

/// Send `chunk` as a `DATA` packet under a CRC the caller already holds
/// (a pipeline hop forwards with the one it has just verified). The
/// packet is not staged: nine bytes of lead on the stack and the chunk
/// where it lies go to [`Conn::send_serialized`] — one gathered write on
/// sockets, straight into pooled registered memory on verbs.
pub fn send_packet(conn: &Arc<dyn Conn>, crc: u32, chunk: &[u8]) -> RpcResult<()> {
    let mut lead = [OP_DATA; 9];
    lead[1..5].copy_from_slice(&crc.to_be_bytes());
    lead[5..].copy_from_slice(&(chunk.len() as i32).to_be_bytes());
    conn.send_serialized(
        rpcoib::intern::method_key("hdfs.data", "chunk"),
        &lead,
        chunk,
    )
}

/// Send an `ACK` with `status`.
pub fn send_ack(conn: &Arc<dyn Conn>, status: u8) -> RpcResult<()> {
    conn.send_msg(rpcoib::intern::method_key("hdfs.data", "ack"), &mut |out| {
        out.write_u8(OP_ACK)?;
        out.write_u8(status)
    })
    .map(|_| ())
}

/// Send a `READ` request for `[offset, offset+len)` of `block`
/// (`len == u64::MAX` means "to the end of the block").
pub fn send_read(conn: &Arc<dyn Conn>, block: u64, offset: u64, len: u64) -> RpcResult<()> {
    conn.send_msg(
        rpcoib::intern::method_key("hdfs.data", "read"),
        &mut |out| {
            out.write_u8(OP_READ)?;
            out.write_i64(block as i64)?;
            out.write_vlong(offset as i64)?;
            out.write_i64(len as i64)
        },
    )
    .map(|_| ())
}

/// A parsed data-plane frame. A packet it carried has been verified and
/// is now the tail of the sink it was received into; `crc` / `first` is
/// the CRC it was verified against.
#[derive(Debug)]
pub enum DataFrame {
    Write {
        block: u64,
        /// The block's length: what the sink was reserved for, and the
        /// byte count at which the transfer is complete.
        len: u64,
        targets: Vec<DatanodeInfo>,
        /// The packet that rode the header (`None`: it travelled alone).
        first: Option<u32>,
    },
    Data {
        crc: u32,
    },
    Ack(u8),
    Read {
        block: u64,
        offset: u64,
        len: u64,
    },
    Size {
        size: u64,
        first: Option<u32>,
    },
}

/// Receive and parse the next frame where no transfer may open and no
/// packet is due (either has nowhere to go and is refused).
pub fn recv_frame(conn: &Arc<dyn Conn>, timeout: Duration) -> RpcResult<DataFrame> {
    recv_frame_into(conn, timeout, &mut Vec::new(), 0)
}

/// Receive and parse the next frame of a block transfer, with `sink` to
/// receive into and `limit`, the most bytes `sink` may come to hold — a
/// constant of the caller's until a transfer is open, what its header
/// announced from then on. A header that announces more than `limit` is
/// refused; one that passes reserves `sink` for exactly what it
/// announces, once, before its packet is copied, so a peer's length
/// sizes nothing beyond the caller's constant. A packet is appended to
/// `sink` if it is not empty and fits under `limit`. Every refusal is
/// [`RpcError::Protocol`].
pub fn recv_frame_into(
    conn: &Arc<dyn Conn>,
    timeout: Duration,
    sink: &mut Vec<u8>,
    limit: usize,
) -> RpcResult<DataFrame> {
    let (payload, _) = conn.recv_msg(timeout)?;
    parse_frame(&mut payload.reader(), sink, limit).map_err(|e| RpcError::Protocol(e.to_string()))
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Append one length-prefixed run of bytes to `sink`, copied once from
/// where it landed ([`PayloadReader::with_bytes`]); returns where in
/// `sink` it starts. Refused: a negative length, one that would take
/// `sink` past `limit`, one beyond what the frame holds.
pub fn append_len_bytes(
    reader: &mut PayloadReader<'_>,
    sink: &mut Vec<u8>,
    limit: usize,
) -> io::Result<usize> {
    let len = reader.read_i32()?;
    let at = sink.len();
    let room = limit.saturating_sub(at);
    match usize::try_from(len) {
        Ok(len) if len <= room => {
            reader.with_bytes(len, |bytes| sink.extend_from_slice(bytes))?;
            Ok(at)
        }
        _ => Err(invalid(format!(
            "{len}-byte packet where {room} of {limit} bytes are left"
        ))),
    }
}

/// `[crc][len-prefixed bytes]`: append one packet to `sink` and verify
/// it there; returns its CRC. An empty packet is refused — a transfer
/// ends by byte count, so every packet must bring it nearer.
fn read_packet(
    reader: &mut PayloadReader<'_>,
    sink: &mut Vec<u8>,
    limit: usize,
) -> io::Result<u32> {
    let expected = reader.read_i32()? as u32;
    let at = append_len_bytes(reader, sink, limit)?;
    if at == sink.len() {
        return Err(invalid("empty packet".into()));
    }
    // Verify what is kept: on verbs the peer holds the rkey of the memory
    // the packet was copied from and may rewrite it after any look, so
    // the CRC is taken over the stored tail, and a packet that fails it
    // is not kept.
    let actual = wire::crc32(&sink[at..]);
    if actual != expected {
        sink.truncate(at);
        return Err(invalid(format!(
            "chunk checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
        )));
    }
    Ok(actual)
}

/// The rest of a frame that opens a transfer of `announced` bytes:
/// refuse it if it is beyond `limit`, reserve `sink` for it, and receive
/// the packet riding the header, if there is one.
fn open_transfer(
    reader: &mut PayloadReader<'_>,
    sink: &mut Vec<u8>,
    limit: usize,
    announced: u64,
) -> io::Result<Option<u32>> {
    if announced > limit as u64 {
        return Err(invalid(format!(
            "a transfer of {announced} bytes where at most {limit} fit"
        )));
    }
    let announced = announced as usize;
    sink.reserve_exact(announced.saturating_sub(sink.len()));
    match reader.remaining() {
        0 => Ok(None),
        _ => read_packet(reader, sink, announced).map(Some),
    }
}

fn parse_frame(
    reader: &mut PayloadReader<'_>,
    sink: &mut Vec<u8>,
    limit: usize,
) -> io::Result<DataFrame> {
    let op = reader.read_u8()?;
    Ok(match op {
        OP_WRITE => {
            let block = reader.read_i64()? as u64;
            let len = reader.read_vlong()?;
            let len = u64::try_from(len).map_err(|_| invalid(format!("block length {len}")))?;
            let n = reader.read_vint()?;
            let n = usize::try_from(n)
                .ok()
                .filter(|&n| n <= MAX_TARGETS)
                .ok_or_else(|| invalid(format!("{n} pipeline targets (at most {MAX_TARGETS})")))?;
            let mut targets = Vec::with_capacity(n);
            for _ in 0..n {
                let mut dn = DatanodeInfo::default();
                wire::Writable::read_fields(&mut dn, reader)?;
                targets.push(dn);
            }
            DataFrame::Write {
                block,
                len,
                targets,
                first: open_transfer(reader, sink, limit, len)?,
            }
        }
        OP_DATA => DataFrame::Data {
            crc: read_packet(reader, sink, limit)?,
        },
        OP_ACK => DataFrame::Ack(reader.read_u8()?),
        OP_READ => DataFrame::Read {
            block: reader.read_i64()? as u64,
            offset: reader.read_vlong()? as u64,
            len: reader.read_i64()? as u64,
        },
        OP_SIZE => {
            let size = reader.read_i64()? as u64;
            DataFrame::Size {
                size,
                first: open_transfer(reader, sink, limit, size)?,
            }
        }
        other => return Err(invalid(format!("unknown data opcode {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcoib::Payload;
    use simnet::{model, SimListener};
    use std::thread;
    use wire::DataOutput;

    #[test]
    fn pool_reuses_connections() {
        let fabric = Fabric::new(model::TEN_GIG_E);
        let server = fabric.add_node();
        let client = fabric.add_node();
        let addr = SimAddr::new(server, 50010);
        let listener = SimListener::bind(&fabric, addr).unwrap();
        let accepted = thread::spawn(move || {
            let (s1, _) = listener.accept().unwrap();
            // Keep the stream alive so the pooled conn stays usable.
            (listener, s1)
        });
        let pool = DataConnPool::new(&fabric, client, RpcConfig::socket()).unwrap();
        {
            let _c1 = pool.checkout(addr).unwrap();
        }
        let (_listener, _s1) = accepted.join().unwrap();
        // Second checkout must reuse, not reconnect (the listener would
        // block otherwise since nobody accepts).
        let _c2 = pool.checkout(addr).unwrap();
        assert!(pool.idle.lock().get(&addr).is_none_or(|v| v.is_empty()));
    }

    #[test]
    fn poisoned_connections_are_dropped() {
        let fabric = Fabric::new(model::TEN_GIG_E);
        let server = fabric.add_node();
        let client = fabric.add_node();
        let addr = SimAddr::new(server, 50010);
        let listener = SimListener::bind(&fabric, addr).unwrap();
        let accepted = thread::spawn(move || listener.accept().unwrap());
        let pool = DataConnPool::new(&fabric, client, RpcConfig::socket()).unwrap();
        {
            let mut c = pool.checkout(addr).unwrap();
            c.poison();
        }
        accepted.join().unwrap();
        assert!(pool.idle.lock().get(&addr).is_none_or(|v| v.is_empty()));
    }

    /// A `DATA` frame carrying `chunk` under `crc`, as it leaves `recv_msg`.
    fn data_frame(crc: u32, len: i32, chunk: &[u8]) -> Payload {
        let mut out = vec![OP_DATA];
        out.write_i32(crc as i32).unwrap();
        out.write_i32(len).unwrap();
        out.extend_from_slice(chunk);
        Payload::Owned(out)
    }

    #[test]
    fn corrupted_chunk_fails_checksum_verification_and_is_not_kept() {
        // A packet flipped after its CRC was computed, mid-block: the
        // receive path must reject it and leave the block as it was.
        let chunk = vec![7u8; 64];
        let mut corrupted = chunk.clone();
        corrupted[10] ^= 0xFF;
        let mut sink = Vec::with_capacity(256);
        for (bytes, kept) in [(&chunk, 64), (&corrupted, 64), (&chunk, 128)] {
            let frame = data_frame(wire::crc32(&chunk), 64, bytes);
            let parsed = parse_frame(&mut frame.reader(), &mut sink, 256);
            match parsed {
                Ok(DataFrame::Data { crc }) => assert_eq!(crc, wire::crc32(&chunk)),
                Ok(other) => panic!("parsed as {other:?}"),
                Err(err) => {
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert!(err.to_string().contains("checksum mismatch"), "{err}");
                }
            }
            assert_eq!(sink.len(), kept);
        }
        assert_eq!(sink, [chunk.clone(), chunk].concat());
    }

    #[test]
    fn lengths_a_peer_announces_size_nothing() {
        let parse = |frame: Payload, sink: &mut Vec<u8>, limit| {
            let capacity = sink.capacity();
            let err = parse_frame(&mut frame.reader(), sink, limit).unwrap_err();
            assert_eq!(sink.capacity(), capacity, "{err}");
            assert!(sink.is_empty(), "{err}");
            err.to_string()
        };
        let chunk = [1u8, 2, 3];
        let crc = wire::crc32(&chunk);
        let mut sink = Vec::with_capacity(2);
        // Past the limit, negative, beyond the payload; no sink at all;
        // and empty, which brings a transfer no nearer its end.
        assert!(parse(data_frame(crc, 3, &chunk), &mut sink, 2).contains("packet"));
        assert!(parse(data_frame(crc, -1, &chunk), &mut sink, 2).contains("packet"));
        assert!(parse(data_frame(crc, i32::MAX, &chunk), &mut sink, usize::MAX).contains("left"));
        assert!(parse(data_frame(crc, 3, &chunk), &mut Vec::new(), 0).contains("packet"));
        assert!(parse(data_frame(wire::crc32(&[]), 0, &[]), &mut sink, 2).contains("empty"));

        let write = |len: i64, targets: i32| {
            let mut out = vec![OP_WRITE];
            out.write_i64(42).unwrap();
            out.write_vlong(len).unwrap();
            out.write_vint(targets).unwrap();
            out
        };
        let size = |size: u64| {
            let mut out = vec![OP_SIZE];
            out.write_u64(size).unwrap();
            out
        };
        assert!(parse(Payload::Owned(write(-1, 0)), &mut sink, 0).contains("block length"));
        for n in [-1, MAX_TARGETS as i32 + 1, i32::MAX] {
            assert!(parse(Payload::Owned(write(0, n)), &mut sink, 0).contains("targets"));
        }
        // A transfer longer than the caller allows is refused by its
        // header — alone, or with a packet that would itself have fit.
        for header in [write(3, 0), write(i64::MAX, 0), size(3), size(u64::MAX)] {
            let mut riding = header.clone();
            riding.write_i32(crc as i32).unwrap();
            riding.write_i32(2).unwrap();
            riding.extend_from_slice(&chunk[..2]);
            for frame in [header, riding] {
                assert!(parse(Payload::Owned(frame), &mut sink, 2).contains("transfer"));
            }
        }
        // One that fits reserves exactly what it announces, and its
        // packet may not exceed that, whatever the caller allows.
        let mut over = write(2, 0);
        over.write_i32(crc as i32).unwrap();
        over.write_i32(3).unwrap();
        over.extend_from_slice(&chunk);
        let mut sink = Vec::new();
        let err = parse_frame(&mut Payload::Owned(over).reader(), &mut sink, 1 << 20).unwrap_err();
        assert!(
            err.to_string().contains("3-byte packet where 2 of 2"),
            "{err}"
        );
        assert_eq!((sink.len(), sink.capacity()), (0, 2));
    }

    #[test]
    fn frames_roundtrip_over_a_socket_conn() {
        let fabric = Fabric::new(model::TEN_GIG_E);
        let server = fabric.add_node();
        let client = fabric.add_node();
        let addr = SimAddr::new(server, 50010);
        let listener = SimListener::bind(&fabric, addr).unwrap();
        let srv = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let conn: Arc<dyn Conn> = Arc::new(SocketConn::new(stream, 4096));
            // A five-byte write in two-byte packets and an empty one; a
            // three-byte read answer; an ack.
            let (mut written, mut read) = (Vec::new(), Vec::new());
            let mut frames: Vec<_> = (0..4)
                .map(|_| recv_frame_into(&conn, Duration::from_secs(5), &mut written, 5).unwrap())
                .collect();
            frames.push(recv_frame_into(&conn, Duration::from_secs(5), &mut read, 3).unwrap());
            frames.push(recv_frame(&conn, Duration::from_secs(5)).unwrap());
            (frames, written, read)
        });
        let pool = DataConnPool::new(&fabric, client, RpcConfig::socket()).unwrap();
        let c = pool.checkout(addr).unwrap();
        let targets = vec![DatanodeInfo {
            id: 1,
            xfer_node: 3,
            xfer_port: 50010,
        }];
        let write = |len| Opening::Write {
            block: 42,
            len,
            targets: &targets,
        };
        send_transfer(c.conn(), &write(5), &[1, 2, 3, 4, 5], 2).unwrap();
        send_transfer(c.conn(), &write(0), &[], 2).unwrap();
        send_transfer(c.conn(), &Opening::Size(3), &[6, 7, 8], 3).unwrap();
        send_ack(c.conn(), ACK_OK).unwrap();
        let (frames, written, read) = srv.join().unwrap();
        let crc = |bytes: &[u8]| Some(wire::crc32(bytes));
        assert!(
            matches!(&frames[0], DataFrame::Write { block: 42, len: 5, targets: t, first }
                if t == &targets && *first == crc(&[1, 2]))
        );
        assert!(matches!(frames[1], DataFrame::Data { crc: c } if Some(c) == crc(&[3, 4])));
        assert!(matches!(frames[2], DataFrame::Data { crc: c } if Some(c) == crc(&[5])));
        let alone = DataFrame::Write {
            block: 42,
            len: 0,
            targets: targets.clone(),
            first: None,
        };
        assert_eq!(format!("{:?}", frames[3]), format!("{alone:?}"));
        assert!(
            matches!(frames[4], DataFrame::Size { size: 3, first } if first == crc(&[6, 7, 8]))
        );
        assert!(matches!(frames[5], DataFrame::Ack(ACK_OK)));
        assert_eq!((written, read), (vec![1, 2, 3, 4, 5], vec![6, 7, 8]));
    }
}
