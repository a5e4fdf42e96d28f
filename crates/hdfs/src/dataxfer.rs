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
//! * `WRITE` — `[op][block u64][vlong len][vint n][targets…]`: open a
//!   write pipeline for a block of `len` bytes, so the receiver sizes the
//!   replica before the first byte arrives; it forwards a `WRITE` with the
//!   remaining targets downstream;
//! * `DATA` — `[op][crc32 u32][len-prefixed bytes]`: one chunk, protected
//!   by a CRC-32 the receiver verifies (HDFS checksums every data chunk);
//! * `END` — `[op]`: end of block; receiver stores + reports, then waits
//!   for the downstream `ACK` before acking upstream;
//! * `ACK` — `[op][status u8]`;
//! * `READ` — `[op][block u64][vlong offset][len u64]`: fetch a block range;
//! * `SIZE` — `[op][size u64]`: read response header, followed by `DATA`
//!   chunks and `END`.
//!
//! A packet's bytes are copied once on each side of the wire: the sender
//! hands the transport a borrowed chunk ([`send_packet`]), the receiver
//! appends it to the block it belongs to in the one visit it pays the
//! wire buffer ([`append_len_bytes`]).

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rpcoib::frame::PayloadReader;
use rpcoib::transport::rdma::{IbContext, RdmaConn};
use rpcoib::transport::socket::SocketConn;
use rpcoib::transport::Conn;
use rpcoib::{RpcConfig, RpcError, RpcResult};
use simnet::{Fabric, NodeId, SimAddr, SimStream};
use wire::DataInput;

use crate::types::DatanodeInfo;

pub const OP_WRITE: u8 = 1;
pub const OP_DATA: u8 = 2;
pub const OP_END: u8 = 3;
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
    /// Build a pool for one endpoint of the data plane. Opens the HCA when
    /// the data path is RDMA.
    pub fn new(fabric: &Fabric, local: NodeId, cfg: RpcConfig) -> RpcResult<DataConnPool> {
        let ib = if cfg.ib_enabled {
            Some(IbContext::new(fabric, local, &cfg)?)
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
        let conn: Arc<dyn Conn> = match &self.ib {
            Some(ctx) => Arc::new(RdmaConn::bootstrap(&stream, ctx, &self.cfg)?),
            None => Arc::new(SocketConn::new(stream, 4096)),
        };
        Ok(PooledConn {
            conn: Some(conn),
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

// ---------------------------------------------------------------------------
// Frame helpers.
// ---------------------------------------------------------------------------

/// Send a `WRITE` header opening a pipeline for `block`, `len` bytes
/// long, to `targets`.
pub fn send_write_header(
    conn: &Arc<dyn Conn>,
    block: u64,
    len: u64,
    targets: &[DatanodeInfo],
) -> RpcResult<()> {
    conn.send_msg(
        rpcoib::intern::method_key("hdfs.data", "write"),
        &mut |out| {
            out.write_u8(OP_WRITE)?;
            out.write_i64(block as i64)?;
            out.write_vlong(len as i64)?;
            out.write_vint(targets.len() as i32)?;
            for t in targets {
                wire::Writable::write(t, out)?;
            }
            Ok(())
        },
    )
    .map(|_| ())
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

/// Send the end-of-block marker.
pub fn send_end(conn: &Arc<dyn Conn>) -> RpcResult<()> {
    conn.send_msg(rpcoib::intern::method_key("hdfs.data", "end"), &mut |out| {
        out.write_u8(OP_END)
    })
    .map(|_| ())
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

/// Send the `SIZE` response header of a read.
pub fn send_size(conn: &Arc<dyn Conn>, size: u64) -> RpcResult<()> {
    conn.send_msg(
        rpcoib::intern::method_key("hdfs.data", "size"),
        &mut |out| {
            out.write_u8(OP_SIZE)?;
            out.write_i64(size as i64)
        },
    )
    .map(|_| ())
}

/// A parsed data-plane frame.
#[derive(Debug)]
pub enum DataFrame {
    Write {
        block: u64,
        /// The block's announced length — a hint until `END` confirms it.
        len: u64,
        targets: Vec<DatanodeInfo>,
    },
    /// One verified packet, now the tail of the sink it was received
    /// into, and the CRC it was verified against.
    Data {
        crc: u32,
    },
    End,
    Ack(u8),
    Read {
        block: u64,
        offset: u64,
        len: u64,
    },
    Size(u64),
}

/// Receive and parse the next frame where no `DATA` is due (a packet has
/// nowhere to go and is refused).
pub fn recv_frame(conn: &Arc<dyn Conn>, timeout: Duration) -> RpcResult<DataFrame> {
    recv_frame_into(conn, timeout, &mut Vec::new(), 0)
}

/// Receive and parse the next frame of a block transfer. A `DATA` packet
/// is appended to `sink`, which it may fill up to `limit` bytes — what
/// the transfer's header announced, clamped by the caller to a constant
/// of its own, and reserved by it once: a peer's length sizes nothing
/// here. Every refusal is [`RpcError::Protocol`].
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
            }
        }
        OP_DATA => {
            let expected = reader.read_i32()? as u32;
            let at = append_len_bytes(reader, sink, limit)?;
            // Verify what is kept: on verbs the peer holds the rkey of
            // the memory the packet was copied from and may rewrite it
            // after any look, so the CRC is taken over the stored tail,
            // and a packet that fails it is not kept.
            let actual = wire::crc32(&sink[at..]);
            if actual != expected {
                sink.truncate(at);
                return Err(invalid(format!(
                    "chunk checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )));
            }
            DataFrame::Data { crc: actual }
        }
        OP_END => DataFrame::End,
        OP_ACK => DataFrame::Ack(reader.read_u8()?),
        OP_READ => DataFrame::Read {
            block: reader.read_i64()? as u64,
            offset: reader.read_vlong()? as u64,
            len: reader.read_i64()? as u64,
        },
        OP_SIZE => DataFrame::Size(reader.read_i64()? as u64),
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
        // Past the limit, negative, beyond the payload; no sink at all.
        assert!(parse(data_frame(crc, 3, &chunk), &mut sink, 2).contains("packet"));
        assert!(parse(data_frame(crc, -1, &chunk), &mut sink, 2).contains("packet"));
        assert!(parse(data_frame(crc, i32::MAX, &chunk), &mut sink, usize::MAX).contains("left"));
        assert!(parse(data_frame(crc, 3, &chunk), &mut Vec::new(), 0).contains("packet"));

        let write = |len: i64, targets: i32| {
            let mut out = vec![OP_WRITE];
            out.write_i64(42).unwrap();
            out.write_vlong(len).unwrap();
            out.write_vint(targets).unwrap();
            Payload::Owned(out)
        };
        assert!(parse(write(-1, 0), &mut sink, 0).contains("block length"));
        for n in [-1, MAX_TARGETS as i32 + 1, i32::MAX] {
            assert!(parse(write(0, n), &mut sink, 0).contains("targets"));
        }
        // A length is a hint: the largest one parses, and sizes nothing.
        let hinted = parse_frame(&mut write(i64::MAX, 0).reader(), &mut sink, 0).unwrap();
        assert!(matches!(hinted, DataFrame::Write { len, .. } if len == i64::MAX as u64));
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
            let mut sink = Vec::with_capacity(3);
            let frames: Vec<_> = (0..4)
                .map(|_| recv_frame_into(&conn, Duration::from_secs(5), &mut sink, 3).unwrap())
                .collect();
            (frames, sink)
        });
        let pool = DataConnPool::new(&fabric, client, RpcConfig::socket()).unwrap();
        let c = pool.checkout(addr).unwrap();
        let targets = vec![DatanodeInfo {
            id: 1,
            xfer_node: 3,
            xfer_port: 50010,
        }];
        send_write_header(c.conn(), 42, 3, &targets).unwrap();
        send_chunk(c.conn(), &[1, 2, 3]).unwrap();
        send_end(c.conn()).unwrap();
        send_ack(c.conn(), ACK_OK).unwrap();
        let (frames, sink) = srv.join().unwrap();
        assert!(
            matches!(&frames[0], DataFrame::Write { block: 42, len: 3, targets: t } if t == &targets)
        );
        assert!(matches!(frames[1], DataFrame::Data { crc } if crc == wire::crc32(&[1, 2, 3])));
        assert_eq!(sink, [1, 2, 3]);
        assert!(matches!(frames[2], DataFrame::End));
        assert!(matches!(frames[3], DataFrame::Ack(ACK_OK)));
    }
}
