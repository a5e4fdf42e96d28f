//! The DataNode: in-memory block store, streaming data-transfer service,
//! pipeline forwarding, heartbeats and block reports.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::socket::SocketConn;
use rpcoib::transport::Conn;
use rpcoib::{Client, RpcError, RpcResult};
use simnet::{ListenerCloser, SimAddr, SimListener};
use wire::{IntWritable, NullWritable};

use crate::config::{HdfsConfig, HostNet};
use crate::dataxfer::{
    recv_frame, send_ack, send_chunk, send_end, send_size, send_write_header, DataConnPool,
    DataFrame, ACK_CORRUPT, ACK_FAIL, ACK_OK, DATA_TIMEOUT,
};
use crate::types::{BlockReceivedArgs, BlockReportArgs, DatanodeInfo, DnCommand};
use crate::DATA_PORT;

const IDLE_SLICE: Duration = Duration::from_millis(100);
/// A full block report every this many heartbeats.
const REPORT_EVERY: u32 = 8;

/// A stored replica: the data plus the CRC-32 computed when the block was
/// received (the analogue of the `.meta` checksum file HDFS keeps next to
/// each block file). Reads and re-replication verify against it.
struct StoredBlock {
    data: Arc<Vec<u8>>,
    crc: u32,
}

impl StoredBlock {
    fn new(data: Vec<u8>) -> StoredBlock {
        let crc = wire::crc32(&data);
        StoredBlock {
            data: Arc::new(data),
            crc,
        }
    }

    fn is_intact(&self) -> bool {
        wire::crc32(&self.data) == self.crc
    }
}

struct DnState {
    cfg: HdfsConfig,
    id: u32,
    nn: SimAddr,
    rpc: Client,
    pool: DataConnPool,
    blocks: Mutex<HashMap<u64, StoredBlock>>,
    stop: AtomicBool,
    /// Unbinds the data port, which is what gets the acceptor out of its
    /// blocking accept at `stop`.
    acceptor: ListenerCloser,
}

/// A running DataNode.
pub struct DataNode {
    state: Arc<DnState>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl DataNode {
    /// Register with the NameNode at `nn` and start the data service on
    /// `(data_node, DATA_PORT)`.
    pub fn start(net: &HostNet, nn: SimAddr, cfg: HdfsConfig) -> RpcResult<DataNode> {
        let rpc = Client::new(&net.rpc_fabric, net.rpc_node, cfg.rpc.clone())?;
        let me = DatanodeInfo {
            id: 0,
            xfer_node: net.data_node.0,
            xfer_port: DATA_PORT,
        };
        let id: IntWritable = rpc.call(nn, "hdfs.DatanodeProtocol", "registerDatanode", &me)?;
        let pool = DataConnPool::new(&net.data_fabric, net.data_node, cfg.data_rpc_config())?;
        let listener = SimListener::bind(&net.data_fabric, SimAddr::new(net.data_node, DATA_PORT))?;

        let state = Arc::new(DnState {
            cfg,
            id: id.0 as u32,
            nn,
            rpc,
            pool,
            blocks: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            acceptor: listener.closer(),
        });

        let mut threads = Vec::new();
        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dn{}-acceptor", state.id))
                    .spawn(move || acceptor_loop(state, listener))
                    .expect("spawn dn acceptor"),
            );
        }
        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dn{}-heartbeat", state.id))
                    .spawn(move || heartbeat_loop(state))
                    .expect("spawn dn heartbeat"),
            );
        }
        Ok(DataNode {
            state,
            threads: Mutex::new(threads),
        })
    }

    /// The NameNode-assigned id of this DataNode.
    pub fn id(&self) -> u32 {
        self.state.id
    }

    /// Number of blocks stored locally.
    pub fn block_count(&self) -> usize {
        self.state.blocks.lock().len()
    }

    /// Total bytes stored locally.
    pub fn used_bytes(&self) -> usize {
        self.state
            .blocks
            .lock()
            .values()
            .map(|b| b.data.len())
            .sum()
    }

    /// Whether the local replica of `block` still matches its stored
    /// checksum (`None` if the block is not here) — what HDFS's block
    /// scanner reports per replica.
    pub fn block_is_intact(&self, block: u64) -> Option<bool> {
        self.state
            .blocks
            .lock()
            .get(&block)
            .map(StoredBlock::is_intact)
    }

    /// Failure injection: flip one byte of a stored replica without
    /// updating its stored checksum, so the next read or re-replication
    /// detects the corruption. Returns `false` if the block is not here.
    pub fn corrupt_block(&self, block: u64) -> bool {
        let mut blocks = self.state.blocks.lock();
        match blocks.get_mut(&block) {
            Some(stored) if !stored.data.is_empty() => {
                let mut data = stored.data.as_ref().clone();
                let mid = data.len() / 2;
                data[mid] ^= 0xFF;
                stored.data = Arc::new(data); // crc left stale on purpose
                true
            }
            _ => false,
        }
    }

    /// Stop all threads. Idempotent.
    pub fn stop(&self) {
        if self.state.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.state.rpc.shutdown();
        self.state.acceptor.close();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for DataNode {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for DataNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataNode")
            .field("id", &self.state.id)
            .field("blocks", &self.block_count())
            .finish()
    }
}

fn heartbeat_loop(state: Arc<DnState>) {
    let mut ticks = 0u32;
    while !state.stop.load(Ordering::Acquire) {
        std::thread::sleep(state.cfg.heartbeat);
        let commands = state.rpc.call::<IntWritable, Vec<DnCommand>>(
            state.nn,
            "hdfs.DatanodeProtocol",
            "sendHeartbeat",
            &IntWritable(state.id as i32),
        );
        for command in commands.unwrap_or_default() {
            match command {
                DnCommand::Replicate { block, targets } => {
                    // Best-effort: a failed copy is retried by the
                    // NameNode once its pending entry expires.
                    let _ = replicate_block(&state, block, &targets);
                }
                DnCommand::None => {}
            }
        }
        ticks += 1;
        if ticks.is_multiple_of(REPORT_EVERY) {
            // Corrupt replicas are left out of the report, so the NameNode
            // sees them as missing and schedules re-replication from an
            // intact copy (HDFS reports them as corrupt; the effect — a
            // fresh replica elsewhere — is the same).
            let blocks: Vec<u64> = state
                .blocks
                .lock()
                .iter()
                .filter(|(_, stored)| stored.is_intact())
                .map(|(&id, _)| id)
                .collect();
            let _ = state.rpc.call::<BlockReportArgs, NullWritable>(
                state.nn,
                "hdfs.DatanodeProtocol",
                "blockReport",
                &BlockReportArgs {
                    dn_id: state.id,
                    blocks,
                },
            );
        }
    }
}

/// Blocks in accept — an idle DataNode polls nothing here; `stop` unbinds
/// the port, which fails the accept at once.
fn acceptor_loop(state: Arc<DnState>, listener: SimListener) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.stop.load(Ordering::Acquire) {
        match listener.accept_timeout(IDLE_SLICE) {
            Ok(Some((stream, _peer))) => {
                let state2 = Arc::clone(&state);
                let handle = std::thread::Builder::new()
                    .name(format!("dn{}-xceiver", state.id))
                    .spawn(move || {
                        let conn: Arc<dyn Conn> = if state2.cfg.data_rdma {
                            match state2.pool_ctx_bootstrap(&stream) {
                                Ok(c) => c,
                                Err(_) => return,
                            }
                        } else {
                            Arc::new(SocketConn::new(stream, 4096))
                        };
                        xceiver_loop(state2, conn);
                    })
                    .expect("spawn xceiver");
                handlers.push(handle);
            }
            Ok(None) => {}
            Err(_) => break,
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

impl DnState {
    fn pool_ctx_bootstrap(&self, stream: &simnet::SimStream) -> RpcResult<Arc<dyn Conn>> {
        let ctx = self
            .pool
            .ib_context()
            .ok_or_else(|| RpcError::Config("data_rdma set but pool has no IB context".into()))?;
        Ok(Arc::new(RdmaConn::bootstrap(
            stream,
            ctx,
            &self.cfg.data_rpc_config(),
        )?))
    }
}

/// Per-connection server loop: one WRITE or READ operation at a time.
fn xceiver_loop(state: Arc<DnState>, conn: Arc<dyn Conn>) {
    while !state.stop.load(Ordering::Acquire) {
        let frame = match recv_frame(&conn, IDLE_SLICE) {
            Ok(f) => f,
            Err(RpcError::Timeout) => continue,
            Err(_) => return,
        };
        let result = match frame {
            DataFrame::Write { block, targets } => handle_write(&state, &conn, block, targets),
            DataFrame::Read { block, offset, len } => {
                handle_read(&state, &conn, block, offset, len)
            }
            _ => Err(RpcError::Protocol("unexpected leading frame".into())),
        };
        if result.is_err() {
            let _ = send_ack(&conn, ACK_FAIL);
            return; // drop a connection that broke mid-protocol
        }
    }
}

fn handle_write(
    state: &Arc<DnState>,
    upstream: &Arc<dyn Conn>,
    block: u64,
    targets: Vec<DatanodeInfo>,
) -> RpcResult<()> {
    // Open the downstream leg of the pipeline first.
    let mut downstream = match targets.split_first() {
        Some((next, rest)) => {
            let dc = state.pool.checkout(next.xfer_addr())?;
            send_write_header(dc.conn(), block, rest)?;
            Some(dc)
        }
        None => None,
    };

    let run = (|| -> RpcResult<usize> {
        let mut data = Vec::new();
        loop {
            match recv_frame(upstream, DATA_TIMEOUT)? {
                DataFrame::Data(chunk) => {
                    if let Some(d) = &downstream {
                        send_chunk(d.conn(), &chunk)?;
                    }
                    data.extend_from_slice(&chunk);
                }
                DataFrame::End => {
                    if let Some(d) = &downstream {
                        send_end(d.conn())?;
                    }
                    break;
                }
                _ => return Err(RpcError::Protocol("expected DATA or END".into())),
            }
        }
        let size = data.len();
        state.blocks.lock().insert(block, StoredBlock::new(data));
        // Report to the NameNode before acking (the paper: "once a block
        // is written to a DataNode, a block-report is sent").
        state.rpc.call::<BlockReceivedArgs, NullWritable>(
            state.nn,
            "hdfs.DatanodeProtocol",
            "blockReceived",
            &BlockReceivedArgs {
                dn_id: state.id,
                block,
                size: size as u64,
            },
        )?;
        // Wait for the downstream ack before acking upstream.
        if let Some(d) = &downstream {
            match recv_frame(d.conn(), DATA_TIMEOUT)? {
                DataFrame::Ack(ACK_OK) => {}
                DataFrame::Ack(_) => {
                    return Err(RpcError::Protocol("downstream replica failed".into()))
                }
                _ => return Err(RpcError::Protocol("expected ACK".into())),
            }
        }
        Ok(size)
    })();

    match run {
        Ok(_) => {
            send_ack(upstream, ACK_OK)?;
            Ok(())
        }
        Err(e) => {
            if let Some(d) = &mut downstream {
                d.poison();
            }
            Err(e)
        }
    }
}

/// Push a locally held block to `targets` through a write pipeline —
/// the DataNode side of NameNode-driven re-replication.
fn replicate_block(state: &Arc<DnState>, block: u64, targets: &[DatanodeInfo]) -> RpcResult<()> {
    let data = {
        let blocks = state.blocks.lock();
        let stored = blocks.get(&block).ok_or_else(|| {
            RpcError::Protocol(format!("asked to replicate unknown block {block}"))
        })?;
        // Never propagate a corrupt replica; the NameNode will retry the
        // replication from another source once its pending entry expires.
        if !stored.is_intact() {
            return Err(RpcError::Protocol(format!(
                "local replica of block {block} is corrupt"
            )));
        }
        Arc::clone(&stored.data)
    };
    let first = targets
        .first()
        .ok_or_else(|| RpcError::Protocol("replicate with no targets".into()))?;
    let mut conn = state.pool.checkout(first.xfer_addr())?;
    let run = (|| -> RpcResult<()> {
        send_write_header(conn.conn(), block, &targets[1..])?;
        for chunk in data.chunks(state.cfg.chunk) {
            send_chunk(conn.conn(), chunk)?;
        }
        send_end(conn.conn())?;
        match recv_frame(conn.conn(), DATA_TIMEOUT)? {
            DataFrame::Ack(ACK_OK) => Ok(()),
            _ => Err(RpcError::Protocol("replication pipeline failed".into())),
        }
    })();
    if run.is_err() {
        conn.poison();
    }
    run
}

fn handle_read(
    state: &Arc<DnState>,
    conn: &Arc<dyn Conn>,
    block: u64,
    offset: u64,
    len: u64,
) -> RpcResult<()> {
    let data = {
        let blocks = state.blocks.lock();
        match blocks.get(&block) {
            Some(stored) if stored.is_intact() => Arc::clone(&stored.data),
            Some(_) => {
                // Verified-on-read, like HDFS: a replica whose bytes no
                // longer match the stored checksum is never served; the
                // client fails over to another replica.
                drop(blocks);
                send_ack(conn, ACK_CORRUPT)?;
                return Ok(()); // connection stays usable
            }
            None => {
                drop(blocks);
                send_ack(conn, ACK_FAIL)?;
                return Ok(()); // connection stays usable
            }
        }
    };
    // Clamp the requested range to the block (len == u64::MAX reads to
    // the end; an offset past the end is an empty read, not an error).
    let start = (offset as usize).min(data.len());
    let end = match len {
        u64::MAX => data.len(),
        n => start.saturating_add(n as usize).min(data.len()),
    };
    let slice = &data[start..end];
    send_size(conn, slice.len() as u64)?;
    for chunk in slice.chunks(state.cfg.chunk) {
        send_chunk(conn, chunk)?;
    }
    send_end(conn)
}
