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
//! ## The WAL's lifecycle
//!
//! Every edit — a put, or a delete, which is a tombstone until its flush
//! installs — takes its region's next sequence number and carries it in
//! its WAL entry and its store-file entry. A store file is named by the
//! highest sequence number it holds (`hfile-{seq:020}-rs{id}`), so path
//! order is edit order, whichever server wrote it.
//!
//! A WAL segment lives until every edit in it is in a *durable* store
//! file. Each region keeps its floor, the oldest segment holding one of
//! its edits that is not: its memstore's, each in-flight flush's until
//! its store file is written, and a failed flush's for as long as the
//! region is hosted here (its rows are installed all the same, so only
//! the WAL holds them). A bucket handed off keeps its floor until its
//! hand-off store file is written. After each successful segment write or
//! flush, every written segment below the lowest floor — and below the
//! open segment — is deleted, and HDFS frees its replicas.
//!
//! An edit is logged only for a bucket this server hosts, checked under
//! the lock that orders the region's edits: a stray entry logged for a
//! bucket held elsewhere would be replayed over newer store files.
//!
//! ## Recovery
//!
//! Region hosting is **dynamic**: the server heartbeats the HMaster and
//! receives its current bucket assignment; a bucket gained after another
//! server's death is *recovered* from HDFS, so rows survive a
//! region-server crash. Recovery reads the WAL — every writer's
//! segments, this bucket's entries — *before* it lists the store files: a
//! segment deleted after the WAL was listed held only edits that a store
//! file written before the deletion holds, and the later listing sees
//! that file (a listed segment gone before it is read is skipped for the
//! same reason). Then each row takes its newest edit by sequence number,
//! from store files and WAL alike, and a tombstone leaves the row out.
//! That is "the store files, then the WAL edits newer than them"; taken
//! per row, it also holds when a failed or overtaken flush left a row's
//! newest edit in the WAL alone. The region's sequence numbers resume
//! above the largest seen.

use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
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

/// One edit of a row: its sequence number, and the value it put or
/// `None` for a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    seq: u64,
    value: Option<Vec<u8>>,
}

/// Unflushed edits by row: a memstore, or a snapshot being flushed.
type Cells = BTreeMap<Vec<u8>, Cell>;
/// Flushed rows.
type Rows = BTreeMap<Vec<u8>, Vec<u8>>;

/// Keep `cell` as `key`'s edit unless the one there is newer.
fn keep_newest(cells: &mut Cells, key: Vec<u8>, cell: Cell) {
    match cells.entry(key) {
        btree_map::Entry::Vacant(slot) => {
            slot.insert(cell);
        }
        btree_map::Entry::Occupied(mut slot) => {
            if cell.seq > slot.get().seq {
                slot.insert(cell);
            }
        }
    }
}

/// A memstore snapshot whose store file is being written to HDFS
/// (outside the region lock). It stays readable here until installed.
struct Flush {
    /// The snapshot's highest sequence number, which names its store file.
    seq: u64,
    /// Shared with the thread writing the store file.
    cells: Arc<Cells>,
    /// The oldest WAL segment holding one of its edits, until the write
    /// returns.
    floor: Option<u64>,
    /// The HDFS write has returned; the snapshot may install once every
    /// older flush of the region has.
    written: bool,
}

struct Region {
    /// In-memory, not yet persisted.
    memstore: Cells,
    memstore_bytes: usize,
    /// The oldest WAL segment holding a memstore edit.
    memstore_floor: Option<u64>,
    /// Flushes in flight, oldest first (ascending `seq`).
    flushing: VecDeque<Flush>,
    /// Block-cache stand-in: flushed rows, kept queryable.
    flushed: Rows,
    /// The sequence number the next edit takes.
    next_seq: u64,
    /// The oldest WAL segment holding an edit of a flush whose store file
    /// was not written: installed all the same, those rows are durable in
    /// the WAL alone.
    pinned: Option<u64>,
}

impl Region {
    fn new() -> Region {
        Region {
            memstore: BTreeMap::new(),
            memstore_bytes: 0,
            memstore_floor: None,
            flushing: VecDeque::new(),
            flushed: BTreeMap::new(),
            next_seq: 1,
            pinned: None,
        }
    }

    /// The unflushed edits, newest first: the memstore, then the
    /// in-flight flush snapshots newest to oldest.
    fn unflushed(&self) -> impl Iterator<Item = &Cells> {
        std::iter::once(&self.memstore).chain(self.flushing.iter().rev().map(|f| &*f.cells))
    }

    /// `key`'s current value: its newest unflushed edit (a delete hides
    /// the row), else its flushed row.
    fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        match self.unflushed().find_map(|cells| cells.get(key)) {
            Some(cell) => cell.value.as_ref(),
            None => self.flushed.get(key),
        }
    }

    /// Apply an edit the WAL logged in `segment` under `next_seq`.
    fn apply(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, segment: u64) {
        self.memstore_bytes += key.len() + value.as_ref().map_or(0, Vec::len);
        self.memstore_floor.get_or_insert(segment);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.memstore.insert(key, Cell { seq, value });
    }

    /// The oldest WAL segment holding an edit of this region that no
    /// written store file holds.
    fn floor(&self) -> Option<u64> {
        let flushing = self.flushing.iter().filter_map(|f| f.floor);
        flushing.chain(self.memstore_floor).chain(self.pinned).min()
    }

    /// Take the memstore as the next flush; its rows stay readable
    /// through `flushing` while the caller writes the store file. Its
    /// highest sequence number is the last one taken: the memstore holds
    /// the newest edit.
    fn begin_flush(&mut self) -> (u64, Arc<Cells>) {
        let cells = Arc::new(std::mem::take(&mut self.memstore));
        self.memstore_bytes = 0;
        let seq = self.next_seq - 1;
        self.flushing.push_back(Flush {
            seq,
            cells: Arc::clone(&cells),
            floor: self.memstore_floor.take(),
            written: false,
        });
        (seq, cells)
    }

    /// Flush `seq`'s write has returned, `written` or not: its floor is
    /// released, or pinned if the store file was not written. Snapshots
    /// install strictly in flush order: one that finishes early waits —
    /// still readable — behind an older flush in flight, so an old value
    /// can never land on top of a newer one. A delete removes its row.
    fn finish_flush(&mut self, seq: u64, written: bool) {
        if let Some(flush) = self.flushing.iter_mut().find(|f| f.seq == seq) {
            flush.written = true;
            let floor = flush.floor.take();
            if !written {
                self.pinned = self.pinned.into_iter().chain(floor).min();
            }
        }
        while self.flushing.front().is_some_and(|f| f.written) {
            let flush = self.flushing.pop_front().expect("front checked");
            let cells = Arc::try_unwrap(flush.cells).unwrap_or_else(|shared| (*shared).clone());
            for (key, cell) in cells {
                match cell.value {
                    Some(value) => self.flushed.insert(key, value),
                    None => self.flushed.remove(&key),
                };
            }
        }
    }

    /// Every unflushed edit, the newest of each row: what a hand-off
    /// writes as one store file.
    fn into_unflushed(self) -> Cells {
        let mut cells = self.memstore;
        for flush in self.flushing {
            for (key, cell) in flush.cells.iter() {
                keep_newest(&mut cells, key.clone(), cell.clone());
            }
        }
        cells
    }
}

/// What an entry occupies beside its sequence number, key and value: the
/// opcode and two `u32` lengths.
const ENTRY_OVERHEAD: usize = 9;

/// The bytes [`append_entry`] writes for this edit.
fn entry_size(seq: u64, key: &[u8], value: Option<&[u8]>) -> usize {
    ENTRY_OVERHEAD + wire::varint::vlong_size(seq as i64) + key.len() + value.map_or(0, <[u8]>::len)
}

/// Serialize an edit in the WAL / store-file format: `[op][seq: vlong]
/// [u32 len][key][u32 len][value]`, a delete's value empty.
fn append_entry(buf: &mut Vec<u8>, seq: u64, key: &[u8], value: Option<&[u8]>) {
    let op = if value.is_some() {
        ENTRY_PUT
    } else {
        ENTRY_DELETE
    };
    buf.push(op);
    wire::varint::write_vlong(buf, seq as i64).expect("a Vec takes every byte");
    let value = value.unwrap_or_default();
    buf.extend_from_slice(&(key.len() as u32).to_be_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(&(value.len() as u32).to_be_bytes());
    buf.extend_from_slice(value);
}

/// Parse entries written by [`append_entry`], up to the first torn one
/// (a partial roll — ignored, like HBase) or malformed one.
fn parse_entries(mut data: &[u8]) -> Vec<(Vec<u8>, Cell)> {
    std::iter::from_fn(|| read_entry(&mut data).ok()).collect()
}

fn read_entry(input: &mut &[u8]) -> io::Result<(Vec<u8>, Cell)> {
    let op = input.read_u8()?;
    let seq = input.read_vlong()? as u64;
    let key = read_field(input)?;
    let value = read_field(input)?;
    let value = match op {
        ENTRY_PUT => Some(value),
        ENTRY_DELETE => None,
        _ => return Err(io::ErrorKind::InvalidData.into()),
    };
    Ok((key, Cell { seq, value }))
}

/// A `u32`-length-prefixed field, refused if it runs past the data.
fn read_field(input: &mut &[u8]) -> io::Result<Vec<u8>> {
    let len = input.read_i32()? as u32 as usize;
    if len > input.len() {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let (field, rest) = input.split_at(len);
    *input = rest;
    Ok(field.to_vec())
}

/// Serialize `cells` as a store file, into a buffer reserved at exactly
/// its size: growing one by doubling from empty asks the allocator for
/// four times the file at every flush.
fn store_file(cells: &Cells) -> Vec<u8> {
    let size = cells
        .iter()
        .map(|(k, c)| entry_size(c.seq, k, c.value.as_deref()))
        .sum();
    let mut buf = Vec::with_capacity(size);
    for (k, c) in cells {
        append_entry(&mut buf, c.seq, k, c.value.as_deref());
    }
    buf
}

/// The write-ahead log in memory: the buffer edits append to, and the one
/// the previous roll handed back once its segment was in HDFS. A roll
/// swaps the two, so after the first rolls no put grows a buffer.
#[derive(Default)]
struct Wal {
    buf: Vec<u8>,
    spare: Vec<u8>,
    /// The segment `buf` is written as when it rolls.
    open: u64,
    /// Rolled segments whose write has returned, not yet deleted.
    rolled: BTreeSet<u64>,
}

impl Wal {
    /// Log an edit in the open segment. Returns that segment, and the
    /// segment to write if this entry filled it.
    fn append(
        &mut self,
        seq: u64,
        key: &[u8],
        value: Option<&[u8]>,
        roll_bytes: usize,
    ) -> (u64, Option<(u64, Vec<u8>)>) {
        let open = self.open;
        append_entry(&mut self.buf, seq, key, value);
        (
            open,
            (self.buf.len() >= roll_bytes).then(|| self.take_segment()),
        )
    }

    /// The open segment and its number; the (empty) spare takes its place.
    fn take_segment(&mut self) -> (u64, Vec<u8>) {
        let spare = std::mem::take(&mut self.spare);
        self.open += 1;
        (self.open - 1, std::mem::replace(&mut self.buf, spare))
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
    /// Dynamically hosted buckets. Lock order: `regions`, `handed_off`,
    /// `wal`.
    regions: Mutex<HashMap<u32, Region>>,
    /// Floors of buckets handed off whose store file is not written yet.
    handed_off: Mutex<Vec<u64>>,
    dfs: DfsClient,
    wal: Mutex<Wal>,
    puts: AtomicU64,
    gets: AtomicU64,
    stop: AtomicBool,
}

impl RsState {
    fn wal_path(&self, segment: u64) -> String {
        format!("/hbase/wal/rs{}-{segment:08}", self.rs_id)
    }

    /// The store file of `bucket` whose highest sequence number is `seq`.
    fn store_path(&self, bucket: u32, seq: u64) -> String {
        format!("/hbase/region{bucket}/hfile-{seq:020}-rs{}", self.rs_id)
    }

    /// Log an edit of `key` — a put, or with `None` a delete — and apply
    /// it to its region's memstore, rolling the WAL and flushing the
    /// memstore when either is full. A delete of a row that does not
    /// exist logs nothing and returns `false`.
    fn edit(&self, key: Vec<u8>, value: Option<Vec<u8>>) -> Result<bool, String> {
        let bucket = region_of(&key, self.n_regions);
        let (roll, flush) = {
            let mut regions = self.regions.lock();
            let region = regions
                .get_mut(&bucket)
                .ok_or_else(|| format!("{NOT_SERVING}: bucket {bucket}"))?;
            if value.is_none() && region.get(&key).is_none() {
                return Ok(false);
            }
            let (segment, roll) = self.wal.lock().append(
                region.next_seq,
                &key,
                value.as_deref(),
                self.cfg.wal_roll_bytes,
            );
            region.apply(key, value, segment);
            let full = region.memstore_bytes >= self.cfg.memstore_flush_bytes;
            (roll, full.then(|| region.begin_flush()))
        };
        // Each runs whatever the other returns: a begun flush must finish.
        let rolled = roll.map_or(Ok(()), |segment| self.write_segment(segment));
        let flushed = flush.map_or(Ok(()), |(seq, cells)| self.flush(bucket, seq, cells));
        rolled.and(flushed).map_err(|e| e.to_string())?;
        Ok(true)
    }

    /// Write a rolled segment to HDFS, hand its buffer back, and retire
    /// what that lets go: its edits may have been flushed meanwhile.
    fn write_segment(&self, (segment, buf): (u64, Vec<u8>)) -> RpcResult<()> {
        let written = self.dfs.write_file(&self.wal_path(segment), &buf);
        {
            let mut wal = self.wal.lock();
            wal.give_back(buf);
            wal.rolled.insert(segment);
        }
        written.map(|()| self.retire_segments())
    }

    /// Write a memstore snapshot as a store file under the *region's*
    /// directory, so any future host of the bucket can recover it; then
    /// install it and retire the segments it lets go.
    fn flush(&self, bucket: u32, seq: u64, cells: Arc<Cells>) -> RpcResult<()> {
        let file = store_file(&cells);
        drop(cells);
        let written = self.dfs.write_file(&self.store_path(bucket, seq), &file);
        // Installed even when the write failed: the WAL keeps the rows
        // (the region pins their floor), and an uninstalled snapshot would
        // block every later flush of the region.
        if let Some(region) = self.regions.lock().get_mut(&bucket) {
            region.finish_flush(seq, written.is_ok());
        }
        written.map(|()| self.retire_segments())
    }

    /// Delete every written segment below the lowest floor of a region
    /// hosted or handed off, and below the open segment. Taken under the
    /// region lock, which every edit holds while it logs, so no segment
    /// gains an edit the floors have not seen.
    fn retire_segments(&self) {
        let retired = {
            let regions = self.regions.lock();
            let handed_off = self.handed_off.lock();
            let mut wal = self.wal.lock();
            let floor = regions
                .values()
                .filter_map(Region::floor)
                .chain(handed_off.iter().copied())
                .fold(wal.open, u64::min);
            let kept = wal.rolled.split_off(&floor);
            std::mem::replace(&mut wal.rolled, kept)
        };
        for segment in retired {
            if self.dfs.delete(&self.wal_path(segment)).is_err() {
                // Tried again at the next retirement.
                self.wal.lock().rolled.insert(segment);
            }
        }
    }

    fn put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), String> {
        self.edit(key, Some(value))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
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
        let from = (Bound::Included(start), Bound::Unbounded);
        let regions = self.regions.lock();
        for region in regions.values() {
            // Newest layer first: a key's first sighting is its value, or
            // the delete that hides it.
            let mut current: BTreeMap<&Vec<u8>, Option<&Vec<u8>>> = BTreeMap::new();
            for cells in region.unflushed() {
                for (k, cell) in cells.range::<[u8], _>(from) {
                    current.entry(k).or_insert(cell.value.as_ref());
                }
            }
            for (k, v) in region.flushed.range::<[u8], _>(from) {
                current.entry(k).or_insert(Some(v));
            }
            rows.extend(current.into_iter().filter_map(|(k, v)| {
                Some(Row {
                    key: k.clone(),
                    value: v?.clone(),
                })
            }));
        }
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        rows.truncate(limit);
        rows
    }

    /// A WAL segment's bytes, or `None` if its writer retired it since it
    /// was listed (a store file written before holds its edits).
    fn read_segment(&self, path: &str) -> RpcResult<Option<Vec<u8>>> {
        match self.dfs.read_file(path) {
            Ok(data) => Ok(Some(data)),
            Err(_) if self.dfs.get_file_info(path)?.is_none() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Bring a newly assigned bucket online from HDFS — the recovery rule
    /// in the module docs.
    fn recover_bucket(&self, bucket: u32) -> RpcResult<Region> {
        // 1. The WAL, every writer's, before the store files are listed.
        let mut logged = Vec::new();
        for file in self.dfs.list("/hbase/wal").unwrap_or_default() {
            if let Some(data) = self.read_segment(&file.path)? {
                let entries = parse_entries(&data).into_iter();
                logged.extend(entries.filter(|(key, _)| region_of(key, self.n_regions) == bucket));
            }
        }
        // 2. Each row's newest edit, from store files and WAL alike.
        let mut cells = Cells::new();
        let dir = format!("/hbase/region{bucket}");
        for file in self.dfs.list(&dir).unwrap_or_default() {
            for (key, cell) in parse_entries(&self.dfs.read_file(&file.path)?) {
                keep_newest(&mut cells, key, cell);
            }
        }
        for (key, cell) in logged {
            keep_newest(&mut cells, key, cell);
        }
        let mut region = Region::new();
        region.next_seq = cells.values().map(|cell| cell.seq + 1).fold(1, u64::max);
        region.flushed = cells
            .into_iter()
            .filter_map(|(key, cell)| Some((key, cell.value?)))
            .collect();
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
        // and writes the bucket's unflushed edits as a store file, so
        // nothing is lost when another server recovers the bucket; its
        // floor holds its segments until that file is written.
        let shed: Vec<(u32, Region)> = {
            let mut regions = self.regions.lock();
            let mut handed_off = self.handed_off.lock();
            let doomed: Vec<u32> = regions
                .keys()
                .copied()
                .filter(|bucket| !assigned.contains(bucket))
                .collect();
            doomed
                .into_iter()
                .filter_map(|bucket| {
                    let region = regions.remove(&bucket)?;
                    handed_off.extend(region.floor());
                    Some((bucket, region))
                })
                .collect()
        };
        if shed.is_empty() {
            return;
        }
        // Roll the whole WAL buffer (covers every shed bucket's unflushed
        // puts and deletes).
        let segment = {
            let mut wal = self.wal.lock();
            (!wal.buf.is_empty()).then(|| wal.take_segment())
        };
        if let Some(segment) = segment {
            let _ = self.write_segment(segment);
        }
        for (bucket, region) in shed {
            let (floor, pinned, seq) = (region.floor(), region.pinned, region.next_seq - 1);
            let cells = region.into_unflushed();
            let path = self.store_path(bucket, seq);
            let written =
                cells.is_empty() || self.dfs.write_file(&path, &store_file(&cells)).is_ok();
            // What a failed flush pinned is in no store file: it stays.
            if let Some(floor) = floor.filter(|_| written && pinned.is_none()) {
                let mut handed_off = self.handed_off.lock();
                if let Some(at) = handed_off.iter().position(|f| *f == floor) {
                    handed_off.swap_remove(at);
                }
            }
        }
        self.retire_segments();
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
                Ok(Box::new(BooleanWritable(self.state.edit(key, None)?)))
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
            handed_off: Mutex::new(Vec::new()),
            wal: Mutex::new(Wal::default()),
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

    /// WAL segments rolled so far. A roll's segment is written before the
    /// edit that filled it is acknowledged.
    pub fn wal_segments_rolled(&self) -> u64 {
        self.state.wal.lock().open
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
        region.apply(key.to_vec(), Some(value.to_vec()), 0);
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
        // Each is named by the sequence number of its newest edit.
        assert_eq!((first, second, third), (2, 3, 4));

        // Nothing has been written yet; every row is readable, newest
        // snapshot first.
        let read = |region: &Region, key: &[u8]| region.get(key).cloned();
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));
        assert_eq!(read(&region, b"b"), Some(b"b1".to_vec()));
        assert_eq!(read(&region, b"c"), Some(b"c3".to_vec()));

        // The newest two writes return first: they wait behind flush 1.
        region.finish_flush(third, true);
        region.finish_flush(second, true);
        assert!(region.flushed.is_empty(), "installed ahead of flush 1");
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));

        // Flush 1 lands last — and must not resurrect a1 over a2.
        region.finish_flush(first, true);
        assert!(region.flushing.is_empty());
        assert_eq!(region.flushed.len(), 3);
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));
        assert_eq!(read(&region, b"b"), Some(b"b1".to_vec()));
        assert_eq!(read(&region, b"c"), Some(b"c3".to_vec()));
    }

    #[test]
    fn a_delete_hides_its_row_until_its_flush_removes_it() {
        let mut region = Region::new();
        put(&mut region, b"a", b"a1");
        let (first, _) = region.begin_flush();
        region.finish_flush(first, true);
        region.apply(b"a".to_vec(), None, 0);
        assert_eq!(
            region.get(b"a"),
            None,
            "the tombstone shadows the flushed row"
        );
        let (second, cells) = region.begin_flush();
        assert_eq!(region.get(b"a"), None, "and does so mid-flush");
        assert_eq!(
            cells[&b"a".to_vec()],
            Cell {
                seq: 2,
                value: None
            }
        );
        region.finish_flush(second, true);
        assert!(region.flushed.is_empty());
    }

    #[test]
    fn a_region_holds_the_oldest_segment_no_written_store_file_covers() {
        let mut region = Region::new();
        let edit = |region: &mut Region, key: &[u8], segment: u64| {
            region.apply(key.to_vec(), Some(b"v".to_vec()), segment);
        };
        assert_eq!(region.floor(), None);
        edit(&mut region, b"a", 3);
        edit(&mut region, b"b", 4);
        assert_eq!(region.floor(), Some(3), "the memstore's oldest edit");
        let (first, _) = region.begin_flush();
        edit(&mut region, b"c", 5);
        let (second, _) = region.begin_flush();
        edit(&mut region, b"d", 6);
        assert_eq!(region.floor(), Some(3), "a flush in flight holds its own");
        // Written out of order: the older flush still holds segment 3.
        region.finish_flush(second, true);
        assert_eq!(region.floor(), Some(3));
        region.finish_flush(first, true);
        assert_eq!(region.floor(), Some(6), "the memstore's");
        // A flush whose store file was not written pins its floor for
        // good: its rows are installed, and only the WAL holds them.
        let (third, _) = region.begin_flush();
        region.finish_flush(third, false);
        assert_eq!(region.get(b"d"), Some(&b"v".to_vec()));
        edit(&mut region, b"e", 9);
        let (fourth, _) = region.begin_flush();
        region.finish_flush(fourth, true);
        assert_eq!(region.floor(), Some(6));
    }

    #[test]
    fn entry_format_roundtrips_and_tolerates_truncation() {
        let cell = |seq, value: Option<&[u8]>| Cell {
            seq,
            value: value.map(<[u8]>::to_vec),
        };
        let edits = vec![
            (b"k1".to_vec(), cell(1, Some(b"v1"))),
            (b"k2".to_vec(), cell(2, None)),
            (b"k3".to_vec(), cell(1 << 40, Some(&[7u8; 100]))),
        ];
        let mut buf = Vec::new();
        let mut size = 0;
        for (key, c) in &edits {
            append_entry(&mut buf, c.seq, key, c.value.as_deref());
            size += entry_size(c.seq, key, c.value.as_deref());
        }
        assert_eq!(buf.len(), size);
        assert_eq!(parse_entries(&buf), edits);
        // A torn tail drops only the incomplete entry.
        let torn = &buf[..buf.len() - 30];
        let entries = parse_entries(torn);
        assert_eq!(entries.len(), 2);
    }
}
