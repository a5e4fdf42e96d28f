//! Shuffle: storage and transfer of map outputs.
//!
//! Hadoop serves map outputs over HTTP from the TaskTracker; here the
//! shuffle server answers a `FETCH` over the same pooled-connection
//! machinery the HDFS data plane uses, and as there, control rides the
//! data: the partition's length travels in the message that carries its
//! first chunk, and nothing marks its end. Frames (one `Conn` message
//! each):
//!
//! * `FETCH` — `[op][vint job][vint map][vint reduce]`;
//! * `MISSING` — `[op]`: this tracker does not (yet) hold that output;
//! * `FOUND` — `[op][vlong total][len-prefixed bytes]`: the partition's
//!   length and its first chunk (an empty partition is this frame alone,
//!   with `total` 0);
//! * `CHUNK` — `[op][len-prefixed bytes]`: the next chunk.
//!
//! A fetch is complete once exactly `total` bytes have arrived, so a
//! fetch of n chunks costs n + 1 messages. A chunk past `total`, an empty
//! chunk after the first, a stream that ends short, or any other opcode
//! is `RpcError::Protocol`.
//!
//! The shuffle follows the RPC rail: on socket configurations it stays on
//! Ethernet, and on RPCoIB configurations its 64 KiB chunks ride the
//! verbs transport's one-sided bulk plane (slot ring + RDMA write), the
//! shuffle-over-IB extension the paper's "Hadoop Acceleration" line of
//! cited work pursues.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use mini_hdfs::dataxfer::{append_len_bytes, DataConnPool};
use parking_lot::Mutex;
use rpcoib::transport::Conn;
use rpcoib::{RpcError, RpcResult};
use simnet::SimAddr;
use wire::{DataInput, DataOutput};

const OP_FETCH: u8 = 0x21;
const OP_FOUND: u8 = 0x22;
const OP_MISSING: u8 = 0x23;
const OP_CHUNK: u8 = 0x24;

/// Chunk size for shuffle transfers.
const SHUFFLE_CHUNK: usize = 64 * 1024;
/// Most a fetch reserves on the announced partition size alone; a larger
/// partition grows as its chunks arrive.
pub const FETCH_RESERVE: usize = 2 * 1024 * 1024;
/// Timeout for an in-progress fetch.
const FETCH_TIMEOUT: Duration = Duration::from_secs(20);

/// `(job, map_idx, reduce_partition)` → serialized sorted run.
type OutputKey = (u32, u32, u32);

/// In-memory map-output storage on a TaskTracker, keyed by
/// `(job, map_idx, reduce_partition)`.
#[derive(Default)]
pub struct MapOutputStore {
    outputs: Mutex<HashMap<OutputKey, Arc<Vec<u8>>>>,
}

impl MapOutputStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Store one partition of one map's output.
    pub fn insert(&self, job: u32, map_idx: u32, reduce: u32, data: Vec<u8>) {
        self.outputs
            .lock()
            .insert((job, map_idx, reduce), Arc::new(data));
    }

    /// Fetch a partition, if present.
    pub fn get(&self, job: u32, map_idx: u32, reduce: u32) -> Option<Arc<Vec<u8>>> {
        self.outputs.lock().get(&(job, map_idx, reduce)).cloned()
    }

    /// Drop all outputs of a finished job.
    pub fn clear_job(&self, job: u32) {
        self.outputs.lock().retain(|(j, _, _), _| *j != job);
    }

    /// Total bytes held (diagnostics).
    pub fn bytes(&self) -> usize {
        self.outputs.lock().values().map(|v| v.len()).sum()
    }
}

/// Serve one shuffle connection, blocked in its receive between
/// fetches, until it breaks or closes (run by the TaskTracker's shuffle
/// service, one thread per connection).
pub fn serve_connection(conn: &Arc<dyn Conn>, store: &MapOutputStore) {
    while let Ok((payload, _)) = conn.recv_msg(Duration::MAX) {
        let mut reader = payload.reader();
        let parsed = (|| -> std::io::Result<(u32, u32, u32)> {
            let op = reader.read_u8()?;
            if op != OP_FETCH {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected shuffle opcode {op}"),
                ));
            }
            Ok((
                reader.read_vint()? as u32,
                reader.read_vint()? as u32,
                reader.read_vint()? as u32,
            ))
        })();
        conn.recycle(payload);
        let Ok((job, map_idx, reduce)) = parsed else {
            return;
        };
        let result = match store.get(job, map_idx, reduce) {
            Some(data) => send_found(conn, &data),
            None => {
                let key = rpcoib::intern::method_key("mapred.shuffle", "missing");
                conn.send_serialized(key, &[OP_MISSING], &[])
            }
        };
        if result.is_err() {
            return;
        }
    }
}

/// `FOUND` riding the first chunk, then a `CHUNK` per further chunk,
/// each sent from where it lies behind a lead built on the stack.
fn send_found(conn: &Arc<dyn Conn>, data: &[u8]) -> RpcResult<()> {
    const LEAD_MAX: usize = 1 + 9 + 4;
    let mut chunks = data.chunks(SHUFFLE_CHUNK);
    let first = chunks.next().unwrap_or_default();
    let mut lead = [0u8; LEAD_MAX];
    let mut out = &mut lead[..];
    out.write_u8(OP_FOUND)?;
    out.write_vlong(data.len() as i64)?;
    out.write_i32(first.len() as i32)?;
    let used = LEAD_MAX - out.len();
    let key = rpcoib::intern::method_key("mapred.shuffle", "found");
    conn.send_serialized(key, &lead[..used], first)?;
    for chunk in chunks {
        let mut lead = [OP_CHUNK; 5];
        lead[1..].copy_from_slice(&(chunk.len() as i32).to_be_bytes());
        let key = rpcoib::intern::method_key("mapred.shuffle", "chunk");
        conn.send_serialized(key, &lead, chunk)?;
    }
    Ok(())
}

/// Fetch one map-output partition from a TaskTracker's shuffle service.
/// Returns `Ok(None)` when the server does not (yet) have the output.
pub fn fetch(
    pool: &DataConnPool,
    addr: SimAddr,
    job: u32,
    map_idx: u32,
    reduce: u32,
) -> RpcResult<Option<Vec<u8>>> {
    let mut conn = pool.checkout(addr)?;
    let protocol = |e: std::io::Error| RpcError::Protocol(e.to_string());
    let run = (|| -> RpcResult<Option<Vec<u8>>> {
        const LEAD: usize = 1 + 3 * 5;
        let mut lead = [0u8; LEAD];
        let mut out = &mut lead[..];
        out.write_u8(OP_FETCH)?;
        out.write_vint(job as i32)?;
        out.write_vint(map_idx as i32)?;
        out.write_vint(reduce as i32)?;
        let used = LEAD - out.len();
        let key = rpcoib::intern::method_key("mapred.shuffle", "fetch");
        conn.conn().send_serialized(key, &lead[..used], &[])?;
        let (payload, _) = conn.conn().recv_msg(FETCH_TIMEOUT)?;
        let mut reader = payload.reader();
        let total = match reader.read_u8().map_err(protocol)? {
            OP_MISSING => return Ok(None),
            OP_FOUND => reader.read_vlong().map_err(protocol)?,
            other => {
                return Err(RpcError::Protocol(format!(
                    "unexpected shuffle opcode {other}"
                )))
            }
        };
        let total = usize::try_from(total)
            .map_err(|_| RpcError::Protocol(format!("shuffle partition of {total} bytes")))?;
        let mut data = Vec::with_capacity(total.min(FETCH_RESERVE));
        // Appended in the one visit the wire buffer gets.
        append_len_bytes(&mut reader, &mut data, total).map_err(protocol)?;
        // Hand the first chunk's buffer back before waiting for the next:
        // on verbs it holds ring slots the sender needs back.
        conn.conn().recycle(payload);
        while data.len() < total {
            let (payload, _) = match conn.conn().recv_msg(FETCH_TIMEOUT) {
                Err(RpcError::ConnectionClosed) => {
                    return Err(RpcError::Protocol(format!(
                        "shuffle stream ended at {} of {total} bytes",
                        data.len()
                    )))
                }
                received => received?,
            };
            let mut reader = payload.reader();
            match reader.read_u8().map_err(protocol)? {
                OP_CHUNK => {
                    let at = append_len_bytes(&mut reader, &mut data, total).map_err(protocol)?;
                    if at == data.len() {
                        return Err(RpcError::Protocol("empty shuffle chunk".into()));
                    }
                    conn.conn().recycle(payload);
                }
                other => {
                    return Err(RpcError::Protocol(format!(
                        "unexpected shuffle opcode {other}"
                    )))
                }
            }
        }
        Ok(Some(data))
    })();
    if run.is_err() {
        conn.poison();
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcoib::transport::socket::SocketConn;
    use rpcoib::RpcConfig;
    use simnet::{model, Fabric, SimListener};
    use std::thread;

    #[test]
    fn fetch_roundtrip_and_missing() {
        let fabric = Fabric::new(model::TEN_GIG_E);
        let server = fabric.add_node();
        let client = fabric.add_node();
        let addr = SimAddr::new(server, 50060);
        let listener = SimListener::bind(&fabric, addr).unwrap();

        let store = Arc::new(MapOutputStore::new());
        store.insert(1, 0, 2, (0..200_000u32).map(|i| i as u8).collect());
        store.insert(1, 0, 4, Vec::new());

        let store2 = Arc::clone(&store);
        let srv = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let conn: Arc<dyn Conn> = Arc::new(SocketConn::new(stream, 4096));
            serve_connection(&conn, &store2);
        });

        let pool = DataConnPool::new(&fabric, client, RpcConfig::socket()).unwrap();
        let data = fetch(&pool, addr, 1, 0, 2).unwrap().unwrap();
        assert_eq!(data.len(), 200_000);
        assert!(data.iter().enumerate().all(|(i, &b)| b == i as u8));

        assert_eq!(fetch(&pool, addr, 1, 0, 4).unwrap(), Some(Vec::new()));
        assert!(
            fetch(&pool, addr, 1, 0, 3).unwrap().is_none(),
            "missing partition"
        );
        assert!(
            fetch(&pool, addr, 9, 9, 9).unwrap().is_none(),
            "missing job"
        );

        drop(pool);
        srv.join().unwrap();
    }

    /// The partition's length rides its first chunk and nothing marks
    /// its end: the request and one message per chunk.
    #[test]
    fn a_fetch_of_three_chunks_costs_four_messages() {
        let fabric = Fabric::new(model::TEN_GIG_E);
        let (server, client) = (fabric.add_node(), fabric.add_node());
        let addr = SimAddr::new(server, 50060);
        let listener = SimListener::bind(&fabric, addr).unwrap();
        let store = Arc::new(MapOutputStore::new());
        let partition: Vec<u8> = (0..2 * SHUFFLE_CHUNK + 100).map(|i| i as u8).collect();
        store.insert(1, 0, 0, partition.clone());
        let store2 = Arc::clone(&store);
        let srv = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let conn: Arc<dyn Conn> = Arc::new(SocketConn::new(stream, 4096));
            serve_connection(&conn, &store2);
        });

        let pool = DataConnPool::new(&fabric, client, RpcConfig::socket()).unwrap();
        // On a connection already open: a miss costs the request and
        // its answer.
        assert!(fetch(&pool, addr, 1, 0, 9).unwrap().is_none());
        let messages = || {
            fabric
                .stats()
                .messages
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        let before = messages();
        assert_eq!(fetch(&pool, addr, 1, 0, 0).unwrap().unwrap(), partition);
        assert_eq!(messages() - before, 4);

        drop(pool);
        srv.join().unwrap();
    }

    #[test]
    fn store_clear_job() {
        let store = MapOutputStore::new();
        store.insert(1, 0, 0, vec![1]);
        store.insert(1, 1, 0, vec![2]);
        store.insert(2, 0, 0, vec![3]);
        assert_eq!(store.bytes(), 3);
        store.clear_job(1);
        assert!(store.get(1, 0, 0).is_none());
        assert!(store.get(2, 0, 0).is_some());
    }
}
