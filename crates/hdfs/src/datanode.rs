//! The DataNode: in-memory block store, streaming data-transfer service,
//! pipeline forwarding, heartbeats and block reports.

use std::collections::BTreeMap;
use std::ops::Bound;
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
    recv_frame, recv_frame_into, send_ack, send_opening, send_packet, send_transfer, DataConnPool,
    DataFrame, Opening, ACK_CORRUPT, ACK_FAIL, ACK_OK, DATA_TIMEOUT,
};
use crate::types::{BlockReceivedArgs, BlockReportArgs, DatanodeInfo, DnCommand};
use crate::DATA_PORT;

const IDLE_SLICE: Duration = Duration::from_millis(100);
/// A full block report every this many heartbeats.
const REPORT_EVERY: u32 = 8;

/// Stored bytes one block report re-verifies (HDFS's block scanner is
/// rate-limited the same way): the scan resumes where the last report
/// stopped, so its cost per report does not grow with the store. A
/// replica larger than the whole budget is verified alone.
const SCAN_BYTES_PER_REPORT: usize = 4 * 1024 * 1024;

/// A stored replica: the data plus its CRC-32, folded from the packet
/// CRCs the block was received and verified under (the analogue of the
/// `.meta` checksum file HDFS keeps next to each block file). Reads,
/// re-replication and the report scan verify against it.
struct StoredBlock {
    data: Arc<Vec<u8>>,
    crc: u32,
    /// Failed verification once: never served or reported again. Only a
    /// fresh copy written over it clears this.
    corrupt: bool,
}

/// What a look at a stored replica finds.
enum Replica {
    Intact(Arc<Vec<u8>>),
    Corrupt,
    Missing,
}

/// The node's replicas, by block id. One lock, held only to look up,
/// insert or mark: every CRC over stored bytes runs on an `Arc` clone
/// outside it (a 2 MiB CRC under it would stall every write and read of
/// the node).
#[derive(Default)]
struct BlockStore {
    blocks: Mutex<BTreeMap<u64, StoredBlock>>,
}

impl BlockStore {
    /// Store a freshly received replica (over any older copy) under the
    /// CRC it was verified against on the way in.
    fn insert(&self, block: u64, data: Vec<u8>, crc: u32) {
        let stored = StoredBlock {
            data: Arc::new(data),
            crc,
            corrupt: false,
        };
        self.blocks.lock().insert(block, stored);
    }

    /// Drop the replicas of `blocks` (those not here are ignored).
    fn remove(&self, blocks: &[u64]) {
        let mut stored = self.blocks.lock();
        for block in blocks {
            stored.remove(block);
        }
    }

    /// The replica of `block`, verified against its stored checksum; a
    /// failure is remembered.
    fn replica(&self, block: u64) -> Replica {
        let (data, crc) = match self.blocks.lock().get(&block) {
            None => return Replica::Missing,
            Some(stored) if stored.corrupt => return Replica::Corrupt,
            Some(stored) => (Arc::clone(&stored.data), stored.crc),
        };
        if wire::crc32(&data) == crc {
            return Replica::Intact(data);
        }
        self.mark_corrupt(block, &data);
        Replica::Corrupt
    }

    /// `data` failed verification as the replica of `block`. A fresh copy
    /// may have replaced it since it was cloned; that one is not blamed.
    fn mark_corrupt(&self, block: u64, data: &Arc<Vec<u8>>) {
        if let Some(stored) = self.blocks.lock().get_mut(&block) {
            stored.corrupt |= Arc::ptr_eq(&stored.data, data);
        }
    }

    /// The blocks to report: every replica not known corrupt, after
    /// re-verifying the next [`SCAN_BYTES_PER_REPORT`] of them in id
    /// order from `scanned` (wrapping). Corrupt replicas are left out, so
    /// the NameNode sees them as missing and schedules re-replication
    /// from an intact copy (HDFS reports them as corrupt; the effect — a
    /// fresh replica elsewhere — is the same).
    fn report(&self, scanned: &mut u64) -> Vec<u64> {
        let picked: Vec<u64> = {
            let blocks = self.blocks.lock();
            let mut budget = SCAN_BYTES_PER_REPORT;
            blocks
                .range((Bound::Excluded(*scanned), Bound::Unbounded))
                .chain(blocks.range(..=*scanned))
                .filter(|(_, stored)| !stored.corrupt)
                .take_while(|(_, stored)| {
                    let fits = stored.data.len() <= budget || budget == SCAN_BYTES_PER_REPORT;
                    budget = budget.saturating_sub(stored.data.len());
                    fits
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for &id in &picked {
            self.replica(id);
            *scanned = id;
        }
        let blocks = self.blocks.lock();
        let intact = blocks.iter().filter(|(_, stored)| !stored.corrupt);
        intact.map(|(&id, _)| id).collect()
    }
}

struct DnState {
    cfg: HdfsConfig,
    id: u32,
    nn: SimAddr,
    rpc: Client,
    pool: DataConnPool,
    store: BlockStore,
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
            store: BlockStore::default(),
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
        self.state.store.blocks.lock().len()
    }

    /// Total bytes stored locally.
    pub fn used_bytes(&self) -> usize {
        self.state
            .store
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
        match self.state.store.replica(block) {
            Replica::Intact(_) => Some(true),
            Replica::Corrupt => Some(false),
            Replica::Missing => None,
        }
    }

    /// Failure injection: flip one byte of a stored replica without
    /// updating its stored checksum, so the next read or re-replication
    /// detects the corruption. Returns `false` if the block is not here.
    pub fn corrupt_block(&self, block: u64) -> bool {
        let mut blocks = self.state.store.blocks.lock();
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
    // The last block id the report scan verified.
    let mut scanned = 0u64;
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
                DnCommand::Invalidate { blocks } => state.store.remove(&blocks),
                DnCommand::None => {}
            }
        }
        ticks += 1;
        if ticks.is_multiple_of(REPORT_EVERY) {
            let _ = state.rpc.call::<BlockReportArgs, NullWritable>(
                state.nn,
                "hdfs.DatanodeProtocol",
                "blockReport",
                &BlockReportArgs {
                    dn_id: state.id,
                    blocks: state.store.report(&mut scanned),
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
        // A write's replica: reserved by the frame that opens it, for the
        // length that frame announces, which `block_size` bounds.
        let mut data = Vec::new();
        // A frame this node refuses takes the broken-connection path too.
        let result = match recv_frame_into(&conn, IDLE_SLICE, &mut data, state.cfg.block_size) {
            Err(RpcError::Timeout) => continue,
            Ok(DataFrame::Write {
                block,
                len,
                targets,
                first,
            }) => handle_write(&state, &conn, block, len, targets, data, first),
            Ok(DataFrame::Read { block, offset, len }) => {
                handle_read(&state, &conn, block, offset, len)
            }
            Ok(_) => Err(RpcError::Protocol("unexpected leading frame".into())),
            Err(e) => Err(e),
        };
        if result.is_err() {
            let _ = send_ack(&conn, ACK_FAIL);
            return; // drop a connection that broke mid-protocol
        }
    }
}

/// Receive one block and pass it down the pipeline. The block's bytes are
/// allocated once: the `WRITE` header's length — a peer's word, so
/// refused beyond `block_size` — reserved `data` before the `first`
/// packet, which rode that header, was copied into it, and caps it after;
/// the block is complete when exactly that many bytes have arrived. Each
/// packet is copied once, from the wire buffer onto the block's tail,
/// verified there, and forwarded from there — the first with the header
/// for the rest of the pipeline riding it, as it came.
fn handle_write(
    state: &Arc<DnState>,
    upstream: &Arc<dyn Conn>,
    block: u64,
    len: u64,
    targets: Vec<DatanodeInfo>,
    mut data: Vec<u8>,
    first: Option<u32>,
) -> RpcResult<()> {
    // Open the downstream leg of the pipeline first.
    let mut downstream = match targets.split_first() {
        Some((next, rest)) => {
            let dc = state.pool.checkout(next.xfer_addr())?;
            let opening = Opening::Write {
                block,
                len,
                targets: rest,
            };
            send_opening(dc.conn(), &opening, first.map(|crc| (crc, &data[..])))?;
            Some(dc)
        }
        None => None,
    };

    let run = (|| -> RpcResult<()> {
        let cap = len as usize;
        // `data` so far: the first packet alone, or nothing.
        let mut crc = first.unwrap_or_else(|| wire::crc32(&[]));
        while data.len() < cap {
            let at = data.len();
            match recv_frame_into(upstream, DATA_TIMEOUT, &mut data, cap)? {
                DataFrame::Data { crc: packet } => {
                    // Forwarded from the stored tail under the CRC it has
                    // just been verified against: the wire buffer is
                    // already released, and the block's CRC is folded
                    // from the packets' without a second pass.
                    let tail = &data[at..];
                    if let Some(d) = &downstream {
                        send_packet(d.conn(), packet, tail)?;
                    }
                    crc = wire::crc32_combine(crc, packet, tail.len());
                }
                _ => {
                    return Err(RpcError::Protocol(format!(
                        "block {block} stopped at {at} of {len} announced bytes"
                    )))
                }
            }
        }
        state.store.insert(block, data, crc);
        // Report to the NameNode before acking (the paper: "once a block
        // is written to a DataNode, a block-report is sent").
        state.rpc.call::<BlockReceivedArgs, NullWritable>(
            state.nn,
            "hdfs.DatanodeProtocol",
            "blockReceived",
            &BlockReceivedArgs {
                dn_id: state.id,
                block,
                size: len,
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
        Ok(())
    })();

    match run {
        Ok(()) => {
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
    let data = match state.store.replica(block) {
        Replica::Intact(data) => data,
        // Never propagate a corrupt replica; the NameNode will retry the
        // replication from another source once its pending entry expires.
        Replica::Corrupt => {
            return Err(RpcError::Protocol(format!(
                "local replica of block {block} is corrupt"
            )))
        }
        Replica::Missing => {
            return Err(RpcError::Protocol(format!(
                "asked to replicate unknown block {block}"
            )))
        }
    };
    let first = targets
        .first()
        .ok_or_else(|| RpcError::Protocol("replicate with no targets".into()))?;
    let mut conn = state.pool.checkout(first.xfer_addr())?;
    let run = (|| -> RpcResult<()> {
        let opening = Opening::Write {
            block,
            len: data.len() as u64,
            targets: &targets[1..],
        };
        send_transfer(conn.conn(), &opening, &data, state.cfg.chunk)?;
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
    let data = match state.store.replica(block) {
        Replica::Intact(data) => data,
        // Verified-on-read, like HDFS: a replica whose bytes no longer
        // match the stored checksum is never served; the client fails
        // over to another replica. Either way the connection stays usable.
        Replica::Corrupt => return send_ack(conn, ACK_CORRUPT),
        Replica::Missing => return send_ack(conn, ACK_FAIL),
    };
    // Clamp the requested range to the block (len == u64::MAX reads to
    // the end; an offset past the end is an empty read, not an error).
    let start = (offset as usize).min(data.len());
    let end = match len {
        u64::MAX => data.len(),
        n => start.saturating_add(n as usize).min(data.len()),
    };
    let slice = &data[start..end];
    let opening = Opening::Size(slice.len() as u64);
    send_transfer(conn, &opening, slice, state.cfg.chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1024 * 1024;

    /// A store of `n` one-MiB replicas, ids `1..=n`, each stored under a
    /// CRC its bytes do not have when `corrupt(id)`.
    fn store_of(n: u64, corrupt: impl Fn(u64) -> bool) -> BlockStore {
        let store = BlockStore::default();
        for id in 1..=n {
            let data = vec![id as u8; MIB];
            let crc = wire::crc32(&data) ^ u32::from(corrupt(id));
            store.insert(id, data, crc);
        }
        store
    }

    #[test]
    fn a_report_scans_a_budget_of_bytes_and_resumes_where_it_stopped() {
        // Ten replicas, every one corrupt: each report can find only the
        // ones it verified, a budget's worth, in id order.
        let per_report = (SCAN_BYTES_PER_REPORT / MIB) as u64;
        let store = store_of(10, |_| true);
        let mut scanned = 0;
        let mut expected: Vec<u64> = (1..=10).collect();
        for round in 1..=3 {
            expected.retain(|&id| id > round * per_report);
            assert_eq!(store.report(&mut scanned), expected, "round {round}");
            assert_eq!(scanned, (round * per_report).min(10));
        }
        assert!(expected.is_empty());
        // Nothing is left to scan; the cursor stays.
        assert_eq!(store.report(&mut scanned), expected);
        assert_eq!(scanned, 10);
    }

    #[test]
    fn the_scan_wraps_and_a_corrupt_replica_stays_out_of_every_later_report() {
        let store = store_of(6, |id| id == 2);
        let mut scanned = 4;
        // 5, 6, then round to 1, 2: block 2 is found on the wrap.
        assert_eq!(store.report(&mut scanned), [1, 3, 4, 5, 6]);
        assert_eq!(scanned, 2);
        // Later scans skip it (3, 4, 5, 6 fit one budget) and so do the
        // reports, although nothing verifies it again.
        assert_eq!(store.report(&mut scanned), [1, 3, 4, 5, 6]);
        assert_eq!(scanned, 6);
        assert!(matches!(store.replica(2), Replica::Corrupt));

        // Found on a read instead: the next report already leaves it out.
        let store = store_of(6, |id| id == 5);
        assert!(matches!(store.replica(5), Replica::Corrupt));
        assert!(matches!(store.replica(4), Replica::Intact(_)));
        assert!(matches!(store.replica(7), Replica::Missing));
        let mut scanned = 0;
        assert_eq!(store.report(&mut scanned), [1, 2, 3, 4, 6]);
        assert_eq!(scanned, 4);
        // A fresh copy written over it is reported again.
        let data = vec![5u8; MIB];
        let crc = wire::crc32(&data);
        store.insert(5, data, crc);
        assert_eq!(store.report(&mut scanned), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_replica_larger_than_the_budget_is_scanned_alone() {
        let store = BlockStore::default();
        for id in 1..=2 {
            store.insert(id, vec![0u8; SCAN_BYTES_PER_REPORT + 1], 1);
        }
        let mut scanned = 0;
        assert_eq!(store.report(&mut scanned), [2]);
        assert_eq!(store.report(&mut scanned), [] as [u64; 0]);
    }
}
