//! The HRegionServer: memstores, write-ahead log, flushes to HDFS, and
//! the operation-plane RPC service.
//!
//! Puts append to the WAL buffer and the region's memstore; when the WAL
//! buffer reaches `wal_roll_bytes` a segment file is written to HDFS, and
//! when a memstore reaches `memstore_flush_bytes` it is flushed to an
//! HDFS store file. Both generate the NameNode RPC traffic (`create`,
//! `addBlock`, `complete`, `blockReceived`) that makes Put-heavy YCSB
//! workloads RPC-bound — the effect Figure 8(b)/(c) measures.
//! Flushed data stays readable through an in-memory store-file cache
//! (HBase's block cache equivalent), so Gets hit memory.
//!
//! Region hosting is **dynamic**: the server heartbeats the HMaster and
//! receives its current bucket assignment; buckets gained after another
//! server's death are *recovered* from HDFS — store files are reloaded
//! and the dead servers' WAL segments are replayed — so rows survive a
//! region-server crash.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mini_hdfs::{DfsClient, HostNet};
use parking_lot::Mutex;
use rpcoib::{Client, RpcResult, RpcService, Server, ServiceRegistry};
use simnet::{Cluster, Host, SimAddr};
use wire::{BooleanWritable, DataInput, IntWritable, Writable};

use crate::config::HBaseConfig;
use crate::types::{region_of, PutArgs, Row, ScanArgs};
use crate::RS_PORT;

/// WAL / store-file entry opcodes.
const ENTRY_PUT: u8 = 1;
const ENTRY_DELETE: u8 = 2;

/// Error message prefix a client interprets as "refresh your region map".
pub const NOT_SERVING: &str = "NotServingRegion";

type Rows = BTreeMap<Vec<u8>, Vec<u8>>;

/// A memstore snapshot whose store file is being written to HDFS
/// (outside the region lock). It stays readable here until installed.
struct Flush {
    seq: u64,
    /// Shared with the thread writing the store file.
    rows: Arc<Rows>,
    /// The HDFS write has returned; the snapshot may install once every
    /// older flush of the region has.
    written: bool,
}

struct Region {
    /// In-memory, not yet persisted.
    memstore: Rows,
    memstore_bytes: usize,
    /// Flushes in flight, oldest first (ascending `seq`).
    flushing: VecDeque<Flush>,
    /// Block-cache stand-in: flushed rows, kept queryable.
    flushed: Rows,
    flush_seq: u64,
}

impl Region {
    fn new() -> Region {
        Region {
            memstore: BTreeMap::new(),
            memstore_bytes: 0,
            flushing: VecDeque::new(),
            flushed: BTreeMap::new(),
            flush_seq: 0,
        }
    }

    /// Every place a row can live, newest first: the memstore, the
    /// in-flight flush snapshots newest to oldest, the flushed rows. The
    /// first layer holding a key has its current value.
    fn layers(&self) -> impl Iterator<Item = &Rows> {
        std::iter::once(&self.memstore)
            .chain(self.flushing.iter().rev().map(|f| &*f.rows))
            .chain(std::iter::once(&self.flushed))
    }

    fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.layers().find_map(|rows| rows.get(key))
    }

    /// Take the memstore as the next flush; its rows stay readable
    /// through `flushing` while the caller writes the store file.
    fn begin_flush(&mut self) -> (u64, Arc<Rows>) {
        let rows = Arc::new(std::mem::take(&mut self.memstore));
        self.memstore_bytes = 0;
        self.flush_seq += 1;
        self.flushing.push_back(Flush {
            seq: self.flush_seq,
            rows: Arc::clone(&rows),
            written: false,
        });
        (self.flush_seq, rows)
    }

    /// Flush `seq`'s write has returned. Snapshots install strictly in
    /// flush order: one that finishes early waits — still readable —
    /// behind an older flush in flight, so an old value can never land
    /// on top of a newer one.
    fn finish_flush(&mut self, seq: u64) {
        if let Some(flush) = self.flushing.iter_mut().find(|f| f.seq == seq) {
            flush.written = true;
        }
        while self.flushing.front().is_some_and(|f| f.written) {
            let flush = self.flushing.pop_front().expect("front checked");
            let rows = Arc::try_unwrap(flush.rows).unwrap_or_else(|shared| (*shared).clone());
            self.flushed.extend(rows);
        }
    }
}

/// What an entry occupies beside its key and value: the opcode and two
/// `u32` lengths.
const ENTRY_OVERHEAD: usize = 9;

/// Serialize entries in the WAL / store-file format.
fn append_entry(buf: &mut Vec<u8>, op: u8, key: &[u8], value: &[u8]) {
    buf.push(op);
    buf.extend_from_slice(&(key.len() as u32).to_be_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(&(value.len() as u32).to_be_bytes());
    buf.extend_from_slice(value);
}

/// Parse entries written by [`append_entry`].
fn parse_entries(data: &[u8]) -> Vec<(u8, Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 9 <= data.len() {
        let op = data[pos];
        pos += 1;
        let klen = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + klen + 4 > data.len() {
            break; // truncated tail (partial roll) — ignore, like HBase
        }
        let key = data[pos..pos + klen].to_vec();
        pos += klen;
        let vlen = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + vlen > data.len() {
            break;
        }
        let value = data[pos..pos + vlen].to_vec();
        pos += vlen;
        out.push((op, key, value));
    }
    out
}

/// Serialize `rows` as a store file, into a buffer reserved at exactly
/// its size: growing one by doubling from empty asks the allocator for
/// four times the file at every flush.
fn store_file(rows: &Rows) -> Vec<u8> {
    let size = rows
        .iter()
        .map(|(k, v)| ENTRY_OVERHEAD + k.len() + v.len())
        .sum();
    let mut buf = Vec::with_capacity(size);
    for (k, v) in rows {
        append_entry(&mut buf, ENTRY_PUT, k, v);
    }
    buf
}

/// The write-ahead log in memory: the buffer puts append to, and the one
/// the previous roll handed back once its segment was in HDFS. A roll
/// swaps the two, so after the first rolls no put grows a buffer.
#[derive(Default)]
struct Wal {
    buf: Vec<u8>,
    spare: Vec<u8>,
}

impl Wal {
    /// The buffered entries; the (empty) spare takes their place.
    fn take_segment(&mut self) -> Vec<u8> {
        let spare = std::mem::take(&mut self.spare);
        std::mem::replace(&mut self.buf, spare)
    }

    /// A written segment's buffer comes back to serve the next roll.
    fn give_back(&mut self, mut segment: Vec<u8>) {
        segment.clear();
        if segment.capacity() > self.spare.capacity() {
            self.spare = segment;
        }
    }
}

struct RsState {
    cfg: HBaseConfig,
    rs_id: u32,
    n_regions: u32,
    /// Dynamically hosted buckets.
    regions: Mutex<HashMap<u32, Region>>,
    dfs: DfsClient,
    wal: Mutex<Wal>,
    wal_seq: AtomicU64,
    puts: AtomicU64,
    gets: AtomicU64,
    stop: AtomicBool,
}

impl RsState {
    fn wal_path(&self, seq: u64) -> String {
        format!("/hbase/wal/rs{}-{seq:08}", self.rs_id)
    }

    fn append_wal(&self, op: u8, key: &[u8], value: &[u8]) -> RpcResult<()> {
        let segment = {
            let mut wal = self.wal.lock();
            append_entry(&mut wal.buf, op, key, value);
            (wal.buf.len() >= self.cfg.wal_roll_bytes).then(|| wal.take_segment())
        };
        segment.map_or(Ok(()), |segment| self.write_segment(segment))
    }

    /// Write a rolled segment to HDFS and hand its buffer back.
    fn write_segment(&self, segment: Vec<u8>) -> RpcResult<()> {
        let seq = self.wal_seq.fetch_add(1, Ordering::Relaxed);
        let written = self.dfs.write_file(&self.wal_path(seq), &segment);
        self.wal.lock().give_back(segment);
        written
    }

    fn put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), String> {
        let bucket = region_of(&key, self.n_regions);
        self.append_wal(ENTRY_PUT, &key, &value)
            .map_err(|e| e.to_string())?;
        let flush = {
            let mut regions = self.regions.lock();
            let region = regions
                .get_mut(&bucket)
                .ok_or_else(|| format!("{NOT_SERVING}: bucket {bucket}"))?;
            region.memstore_bytes += key.len() + value.len();
            region.memstore.insert(key, value);
            (region.memstore_bytes >= self.cfg.memstore_flush_bytes).then(|| region.begin_flush())
        };
        if let Some((seq, snapshot)) = flush {
            // Persist the store file under the *region's* directory so any
            // future host of this bucket can recover it.
            let buf = store_file(&snapshot);
            drop(snapshot);
            let path = format!("/hbase/region{bucket}/hfile-rs{}-{seq:06}", self.rs_id);
            let written = self.dfs.write_file(&path, &buf);
            // Installed even when the write failed: the rows are in the
            // WAL, and an uninstalled snapshot would block every later
            // flush of the region.
            if let Some(region) = self.regions.lock().get_mut(&bucket) {
                region.finish_flush(seq);
            }
            written.map_err(|e| e.to_string())?;
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<bool, String> {
        let bucket = region_of(key, self.n_regions);
        self.append_wal(ENTRY_DELETE, key, &[])
            .map_err(|e| e.to_string())?;
        let mut regions = self.regions.lock();
        let region = regions
            .get_mut(&bucket)
            .ok_or_else(|| format!("{NOT_SERVING}: bucket {bucket}"))?;
        let mut found = region.memstore.remove(key).is_some();
        for flush in &mut region.flushing {
            // Copies the snapshot only if its writer still shares it.
            if flush.rows.contains_key(key) {
                found |= Arc::make_mut(&mut flush.rows).remove(key).is_some();
            }
        }
        found |= region.flushed.remove(key).is_some();
        Ok(found)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        let bucket = region_of(key, self.n_regions);
        let regions = self.regions.lock();
        let region = regions
            .get(&bucket)
            .ok_or_else(|| format!("{NOT_SERVING}: bucket {bucket}"))?;
        self.gets.fetch_add(1, Ordering::Relaxed);
        Ok(region.get(key).cloned())
    }

    fn scan(&self, start: &[u8], limit: usize) -> Vec<Row> {
        // Scan across all hosted regions, merged by key.
        let mut rows = Vec::new();
        let regions = self.regions.lock();
        for region in regions.values() {
            // Newest layer first: a key's first sighting is its value.
            let mut current: BTreeMap<&Vec<u8>, &Vec<u8>> = BTreeMap::new();
            for layer in region.layers() {
                for (k, v) in layer.range::<[u8], _>((Bound::Included(start), Bound::Unbounded)) {
                    current.entry(k).or_insert(v);
                }
            }
            rows.extend(current.into_iter().map(|(k, v)| Row {
                key: k.clone(),
                value: v.clone(),
            }));
        }
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        rows.truncate(limit);
        rows
    }

    /// Bring a newly assigned bucket online: reload its store files from
    /// HDFS, then replay every WAL segment (any writer), applying only
    /// this bucket's entries — crash recovery, HBase-style.
    fn recover_bucket(&self, bucket: u32) -> RpcResult<Region> {
        let mut region = Region::new();
        // 1. Store files, in (writer, seq) path order.
        let dir = format!("/hbase/region{bucket}");
        let mut hfiles = self.dfs.list(&dir).unwrap_or_default();
        hfiles.sort_by(|a, b| a.path.cmp(&b.path));
        for file in hfiles {
            let data = self.dfs.read_file(&file.path)?;
            for (op, k, v) in parse_entries(&data) {
                match op {
                    ENTRY_PUT => {
                        region.flushed.insert(k, v);
                    }
                    ENTRY_DELETE => {
                        region.flushed.remove(&k);
                    }
                    _ => {}
                }
            }
        }
        // 2. WAL segments (every server's — entries for other buckets are
        // skipped). Unflushed rows live only here.
        let mut wals = self.dfs.list("/hbase/wal").unwrap_or_default();
        wals.sort_by(|a, b| a.path.cmp(&b.path));
        for file in wals {
            let data = self.dfs.read_file(&file.path)?;
            for (op, k, v) in parse_entries(&data) {
                if region_of(&k, self.n_regions) != bucket {
                    continue;
                }
                match op {
                    ENTRY_PUT => {
                        region.flushed.insert(k, v);
                    }
                    ENTRY_DELETE => {
                        region.flushed.remove(&k);
                    }
                    _ => {}
                }
            }
        }
        Ok(region)
    }

    /// Reconcile the hosted bucket set with the master's assignment.
    fn apply_assignment(self: &Arc<Self>, assigned: &[u32]) {
        let current: Vec<u32> = self.regions.lock().keys().copied().collect();
        for bucket in assigned {
            if !current.contains(bucket) {
                let _ = self.dfs.mkdirs(&format!("/hbase/region{bucket}"));
                match self.recover_bucket(*bucket) {
                    Ok(region) => {
                        self.regions.lock().insert(*bucket, region);
                    }
                    Err(_) => { /* retried on the next heartbeat */ }
                }
            }
        }
        // Hand off buckets moved away (the master's map is
        // authoritative). A *graceful* shed first rolls the WAL buffer
        // and flushes the bucket's memstore to HDFS, so nothing is lost
        // when another server recovers the bucket.
        let shed: Vec<(u32, Region)> = {
            let mut regions = self.regions.lock();
            let doomed: Vec<u32> = regions
                .keys()
                .copied()
                .filter(|bucket| !assigned.contains(bucket))
                .collect();
            doomed
                .into_iter()
                .filter_map(|bucket| regions.remove(&bucket).map(|r| (bucket, r)))
                .collect()
        };
        if !shed.is_empty() {
            // Roll the whole WAL buffer (covers every shed bucket's
            // unflushed puts and deletes).
            let segment = {
                let mut wal = self.wal.lock();
                (!wal.buf.is_empty()).then(|| wal.take_segment())
            };
            if let Some(segment) = segment {
                let _ = self.write_segment(segment);
            }
            for (bucket, region) in shed {
                if region.memstore.is_empty() {
                    continue;
                }
                let path = format!(
                    "/hbase/region{bucket}/hfile-rs{}-{:06}",
                    self.rs_id,
                    region.flush_seq + 1
                );
                let _ = self.dfs.write_file(&path, &store_file(&region.memstore));
            }
        }
    }
}

/// `hbase.RegionServerProtocol` — the operation plane.
struct RegionServerProtocol {
    state: Arc<RsState>,
}

impl RpcService for RegionServerProtocol {
    fn protocol(&self) -> &'static str {
        "hbase.RegionServerProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "put" => {
                let mut args = PutArgs::default();
                args.read_fields(param).map_err(|e| e.to_string())?;
                self.state.put(args.key, args.value)?;
                Ok(Box::new(BooleanWritable(true)))
            }
            "get" => {
                let mut key = Vec::new();
                key.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(self.state.get(&key)?))
            }
            "delete" => {
                let mut key = Vec::new();
                key.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(BooleanWritable(self.state.delete(&key)?)))
            }
            "scan" => {
                let mut args = ScanArgs::default();
                args.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(self.state.scan(&args.start, args.limit as usize)))
            }
            other => Err(format!("RegionServerProtocol has no method {other}")),
        }
    }
}

/// A running region server.
pub struct HRegionServer {
    server: Server,
    state: Arc<RsState>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl HRegionServer {
    /// Register with the master and start serving. The initial bucket
    /// assignment (and every later one) arrives via master heartbeats.
    pub fn start(
        cluster: &Cluster,
        host: Host,
        master: SimAddr,
        nn: SimAddr,
        cfg: HBaseConfig,
        total_servers: usize,
    ) -> RpcResult<HRegionServer> {
        // Operation plane rail.
        let (ops_fabric, ops_node) = if cfg.ops_rdma {
            (cluster.ib().clone(), cluster.ib_node(host))
        } else {
            (cluster.eth().clone(), cluster.eth_node(host))
        };
        // RPC plane rail (master + HDFS).
        let (rpc_fabric, rpc_node) = if cfg.rpc.ib_enabled {
            (cluster.ib().clone(), cluster.ib_node(host))
        } else {
            (cluster.eth().clone(), cluster.eth_node(host))
        };

        let master_client = Client::new(&rpc_fabric, rpc_node, cfg.rpc.clone())?;
        let rs_id: IntWritable = master_client.call(
            master,
            "hbase.MasterProtocol",
            "registerRegionServer",
            &(IntWritable(ops_node.0 as i32), IntWritable(RS_PORT as i32)),
        )?;
        let rs_id = rs_id.0 as u32;

        let hdfs_net = HostNet::of(cluster, host, &cfg.hdfs);
        let dfs = DfsClient::new(&hdfs_net, nn, cfg.hdfs.clone())?;
        dfs.mkdirs("/hbase/wal")?;

        let n_regions = (total_servers * cfg.regions_per_server) as u32;
        let state = Arc::new(RsState {
            cfg: cfg.clone(),
            rs_id,
            n_regions,
            regions: Mutex::new(HashMap::new()),
            dfs,
            wal: Mutex::new(Wal::default()),
            wal_seq: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });

        // First heartbeat synchronously, so the server comes up already
        // hosting its buckets.
        let assigned: Vec<IntWritable> = master_client.call(
            master,
            "hbase.MasterProtocol",
            "rsHeartbeat",
            &IntWritable(rs_id as i32),
        )?;
        state.apply_assignment(&assigned.iter().map(|b| b.0 as u32).collect::<Vec<_>>());

        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(RegionServerProtocol {
            state: Arc::clone(&state),
        }));
        let server = Server::start(
            &ops_fabric,
            ops_node,
            RS_PORT,
            cfg.ops_rpc_config(),
            registry,
        )?;

        // Heartbeat loop: liveness + assignment reconciliation.
        let state2 = Arc::clone(&state);
        let heartbeat = std::thread::Builder::new()
            .name(format!("rs{rs_id}-heartbeat"))
            .spawn(move || {
                while !state2.stop.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(150));
                    if let Ok(assigned) = master_client.call::<IntWritable, Vec<IntWritable>>(
                        master,
                        "hbase.MasterProtocol",
                        "rsHeartbeat",
                        &IntWritable(state2.rs_id as i32),
                    ) {
                        state2.apply_assignment(
                            &assigned.iter().map(|b| b.0 as u32).collect::<Vec<_>>(),
                        );
                    }
                }
                master_client.shutdown();
            })
            .expect("spawn rs heartbeat");

        Ok(HRegionServer {
            server,
            state,
            threads: Mutex::new(vec![heartbeat]),
        })
    }

    /// This server's id.
    pub fn id(&self) -> u32 {
        self.state.rs_id
    }

    /// Buckets currently hosted.
    pub fn hosted_buckets(&self) -> Vec<u32> {
        let mut buckets: Vec<u32> = self.state.regions.lock().keys().copied().collect();
        buckets.sort_unstable();
        buckets
    }

    /// (puts served, gets served).
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.state.puts.load(Ordering::Relaxed),
            self.state.gets.load(Ordering::Relaxed),
        )
    }

    /// Stop serving. Idempotent.
    pub fn stop(&self) {
        if self.state.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.server.stop();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        self.state.dfs.shutdown();
    }
}

impl std::fmt::Debug for HRegionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HRegionServer")
            .field("id", &self.state.rs_id)
            .field("buckets", &self.hosted_buckets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(region: &mut Region, key: &[u8], value: &[u8]) {
        region.memstore.insert(key.to_vec(), value.to_vec());
    }

    #[test]
    fn overlapping_flushes_stay_readable_and_install_in_flush_order() {
        let mut region = Region::new();
        put(&mut region, b"a", b"a1");
        put(&mut region, b"b", b"b1");
        let (first, _) = region.begin_flush();
        put(&mut region, b"a", b"a2");
        let (second, _) = region.begin_flush();
        put(&mut region, b"c", b"c3");
        let (third, _) = region.begin_flush();
        assert_eq!((first, second, third), (1, 2, 3));

        // Nothing has been written yet; every row is readable, newest
        // snapshot first.
        let read = |region: &Region, key: &[u8]| region.get(key).cloned();
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));
        assert_eq!(read(&region, b"b"), Some(b"b1".to_vec()));
        assert_eq!(read(&region, b"c"), Some(b"c3".to_vec()));

        // The newest two writes return first: they wait behind flush 1.
        region.finish_flush(third);
        region.finish_flush(second);
        assert!(region.flushed.is_empty(), "installed ahead of flush 1");
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));

        // Flush 1 lands last — and must not resurrect a1 over a2.
        region.finish_flush(first);
        assert!(region.flushing.is_empty());
        assert_eq!(region.flushed.len(), 3);
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));
        assert_eq!(read(&region, b"b"), Some(b"b1".to_vec()));
        assert_eq!(read(&region, b"c"), Some(b"c3".to_vec()));
    }

    #[test]
    fn entry_format_roundtrips_and_tolerates_truncation() {
        let mut buf = Vec::new();
        append_entry(&mut buf, ENTRY_PUT, b"k1", b"v1");
        append_entry(&mut buf, ENTRY_DELETE, b"k2", b"");
        append_entry(&mut buf, ENTRY_PUT, b"k3", &[7u8; 100]);
        let entries = parse_entries(&buf);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], (ENTRY_PUT, b"k1".to_vec(), b"v1".to_vec()));
        assert_eq!(entries[1], (ENTRY_DELETE, b"k2".to_vec(), Vec::new()));
        // A torn tail drops only the incomplete entry.
        let torn = &buf[..buf.len() - 30];
        let entries = parse_entries(torn);
        assert_eq!(entries.len(), 2);
    }
}
