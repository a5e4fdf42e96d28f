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
//! Every edit — a put, or a delete, which is a tombstone — takes its
//! region's next sequence number and carries it in its WAL entry and its
//! store-file entry. A flush's store file is named by the highest
//! sequence number it holds (`hfile-{seq:020}-rs{id}`); a cleaned file
//! (below) by the flush that set it off (`cleaned-{seq:020}-rs{id}`).
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
//! A region whose few rows never fill its memstore would hold its floor,
//! and with it every later segment, for good. So the WAL holds at most
//! twice what the hosted memstores can (HBase's `maxlogs`): a roll that
//! leaves a region's oldest unflushed edit more than
//! `2 × regions × memstore_flush_bytes / wal_roll_bytes` segments back
//! flushes that region, whatever its size.
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
//! from store files and WAL alike, and a tombstone hides the row.
//! That is "the store files, then the WAL edits newer than them"; taken
//! per row, it also holds when a failed or overtaken flush left a row's
//! newest edit in the WAL alone. The region's sequence numbers resume
//! above the largest seen, and its file table (below) is rebuilt from the
//! files listed: a file's live bytes are those of the rows whose newest
//! edit it holds.
//!
//! ## Store files
//!
//! A memstore counts the bytes it holds: an edit that replaces a memstore
//! cell takes the replaced cell's bytes off. At `memstore_flush_bytes` it
//! is flushed as one store file, so a flush writes a full memstore of
//! distinct rows, unless the WAL's span forced it (above).
//!
//! The block cache (`flushed`) keeps each flushed row's newest edit, a
//! tombstone too, with the id of the store file that holds it. Each
//! region keeps a table of its files, `{path, bytes, live}`, where `live`
//! counts the entries that are some row's newest edit. Installing a flush
//! moves each row's live bytes from its old file to the new one (a row
//! only the WAL holds, a failed flush's, counts in no file). A file left
//! with no live byte is deleted at once.
//!
//! When a region's files hold more than [`CLEAN_RATIO`] times their live
//! bytes, the flush that finds it also *cleans*: the live rows of every
//! file under half live are written, with their own sequence numbers and
//! tombstones kept, from the block cache as one new file; no HDFS read.
//! When that write returns, each row still at the sequence number it was
//! written with is re-pointed at the new file, and the files left with no
//! live byte, the victims, are deleted. A row a newer flush installed
//! meanwhile keeps its newer file: the sequence-number check. A failed
//! write deletes nothing, and the next flush tries again. Every file a
//! cleaning leaves is at least half live, bar rows replaced while it was
//! written, so it brings a region to about twice its live bytes; between
//! cleanings a region holds at most `CLEAN_RATIO` times its live bytes,
//! plus what installs while a cleaning is in flight. Cleaning runs on the
//! thread of the put whose flush found it due, one per region at a time;
//! it takes the region lock to pick its rows (key and sequence number
//! only), then again for each few rows it serializes, so a put or get of
//! the region waits behind at most those. A row replaced before it is
//! serialized is left out. Flushes and cleanings serialize into one
//! buffer the server keeps, so neither allocates its file.
//!
//! Deleting a victim is safe because every entry in it is either some
//! row's newest edit, which the written cleaned file now holds, or an
//! older one, which recovery would pass over for the newer edit in a
//! written file or the WAL. A cleaning that returns after its region was
//! handed off deletes nothing; its file only repeats entries another file
//! holds, and recovery tells them apart by sequence number like any
//! others.
//!
//! A tombstone stays while something older of its row may remain: a put
//! it hides would come back in recovery without it. Each flushed row
//! keeps the sequence number it was born at, its oldest edit still
//! anywhere, and each file the range of sequence numbers it holds. After
//! each retirement, a tombstone is dropped from the block cache, and its
//! bytes are live nowhere, once (1) its row was born on this host, (2)
//! every WAL segment up to the one that logged it is deleted, and (3) no
//! file but its own may hold an edit of the row from its birth on. A file
//! it leaves with no live byte is then deleted like any other. A row
//! recovery found is born before this host (born 0) and keeps its
//! tombstone: an earlier host's WAL — a dead server's is never deleted —
//! or a file it wrote after the listing may hold an older put.
//!
//! A file deleted between recovery's
//! listing and its read fails the recovery, which the next heartbeat
//! tries again; its listing then holds whatever file now holds those
//! rows.

use std::borrow::Borrow;
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

impl Cell {
    /// The bytes this edit of `key` occupies in a store file.
    fn stored_bytes(&self, key: &[u8]) -> u64 {
        entry_size(self.seq, key, self.value.as_deref()) as u64
    }
}

/// A region's files hold more than this many times their live bytes: the
/// next flush cleans (module docs, "Store files").
pub const CLEAN_RATIO: u64 = 3;

/// Unflushed edits by row: a memstore, or a snapshot being flushed.
type Cells = BTreeMap<Vec<u8>, Cell>;

/// A flushed row's newest edit, and the id of the store file that holds
/// it: `None` when only the WAL does (a failed flush's rows, or a
/// recovered row whose newest edit is in no store file).
struct Stored {
    cell: Cell,
    file: Option<u32>,
    /// The sequence number of the row's oldest edit a store file or the
    /// WAL may still hold; 0 for a row from before this host recovered
    /// the bucket.
    born: u64,
}

impl Borrow<Cell> for Stored {
    fn borrow(&self) -> &Cell {
        &self.cell
    }
}

/// Flushed rows.
type Rows = BTreeMap<Vec<u8>, Stored>;

/// One of a region's store files.
struct StoreFile {
    path: String,
    bytes: u64,
    /// The bytes of its entries that are some row's newest edit.
    live: u64,
    /// The lowest and highest sequence numbers of its entries.
    seqs: (u64, u64),
}

impl StoreFile {
    fn new(path: String, bytes: usize, seqs: (u64, u64)) -> StoreFile {
        StoreFile {
            path,
            bytes: bytes as u64,
            live: 0,
            seqs,
        }
    }

    /// Whether it may hold an edit numbered from `from` to below `to`.
    fn may_hold(&self, from: u64, to: u64) -> bool {
        self.seqs.0 < to && self.seqs.1 >= from
    }
}

/// The lowest and highest of `seqs`; `(u64::MAX, 0)`, which no edit
/// falls in, for none.
fn seq_range(seqs: impl Iterator<Item = u64>) -> (u64, u64) {
    seqs.fold((u64::MAX, 0), |(lo, hi), seq| (lo.min(seq), hi.max(seq)))
}

/// Keep `edit` as `key`'s unless the one there is newer.
fn keep_newest<T: Borrow<Cell>>(edits: &mut BTreeMap<Vec<u8>, T>, key: Vec<u8>, edit: T) {
    match edits.entry(key) {
        btree_map::Entry::Vacant(slot) => {
            slot.insert(edit);
        }
        btree_map::Entry::Occupied(mut slot) => {
            if edit.borrow().seq > slot.get().borrow().seq {
                slot.insert(edit);
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
    /// A WAL segment no older than the newest holding one of its edits.
    logged: u64,
    /// The HDFS write has returned; the snapshot may install once every
    /// older flush of the region has.
    written: bool,
    /// The store file, if the write succeeded.
    file: Option<StoreFile>,
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
    /// The store files by id, and the id the next one takes.
    files: BTreeMap<u32, StoreFile>,
    next_file: u32,
    /// The flush whose cleaning is in flight.
    cleaning: Option<u64>,
    /// The flushed tombstones a store file holds of rows born here, each
    /// with a WAL segment no older than the one it was logged in: the
    /// ones that may be dropped once nothing older of their row remains.
    tombstones: BTreeMap<Vec<u8>, u64>,
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
            files: BTreeMap::new(),
            next_file: 0,
            cleaning: None,
            tombstones: BTreeMap::new(),
            next_seq: 1,
            pinned: None,
        }
    }

    /// The unflushed edits, newest first: the memstore, then the
    /// in-flight flush snapshots newest to oldest.
    fn unflushed(&self) -> impl Iterator<Item = &Cells> {
        std::iter::once(&self.memstore).chain(self.flushing.iter().rev().map(|f| &*f.cells))
    }

    /// `key`'s current value: its newest edit, unflushed or flushed (a
    /// delete hides the row).
    fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        let cell = self.unflushed().find_map(|cells| cells.get(key));
        cell.or_else(|| Some(&self.flushed.get(key)?.cell))?
            .value
            .as_ref()
    }

    /// Apply an edit the WAL logged in `segment` under `next_seq`. The
    /// memstore counts the bytes it holds: a cell this edit replaces
    /// comes off.
    fn apply(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, segment: u64) {
        let key_len = key.len();
        self.memstore_bytes += key_len + value.as_ref().map_or(0, Vec::len);
        self.memstore_floor.get_or_insert(segment);
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(replaced) = self.memstore.insert(key, Cell { seq, value }) {
            self.memstore_bytes -= key_len + replaced.value.map_or(0, |v| v.len());
        }
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
    /// the newest edit. `open` is the WAL's open segment, or any segment
    /// no older than its newest edit.
    fn begin_flush(&mut self, open: u64) -> (u64, Arc<Cells>) {
        let cells = Arc::new(std::mem::take(&mut self.memstore));
        self.memstore_bytes = 0;
        let seq = self.next_seq - 1;
        self.flushing.push_back(Flush {
            seq,
            cells: Arc::clone(&cells),
            floor: self.memstore_floor.take(),
            logged: open,
            written: false,
            file: None,
        });
        (seq, cells)
    }

    /// Flush `seq`'s write has returned, with its store `file` or without
    /// one: its floor is released, or pinned if the store file was not
    /// written. Snapshots install strictly in flush order: one that
    /// finishes early waits — still readable — behind an older flush in
    /// flight, so an old value can never land on top of a newer one.
    /// Returns the paths of the files installing left with no live byte.
    fn finish_flush(&mut self, seq: u64, file: Option<StoreFile>) -> Vec<String> {
        if let Some(flush) = self.flushing.iter_mut().find(|f| f.seq == seq) {
            flush.written = true;
            let floor = flush.floor.take();
            if file.is_none() {
                self.pinned = self.pinned.into_iter().chain(floor).min();
            }
            flush.file = file;
        }
        while self.flushing.front().is_some_and(|f| f.written) {
            let flush = self.flushing.pop_front().expect("front checked");
            let file = flush.file.map(|file| self.add_file(file));
            let cells = Arc::try_unwrap(flush.cells).unwrap_or_else(|shared| (*shared).clone());
            for (key, cell) in cells {
                let born = cell.seq;
                self.install(key, Stored { cell, file, born }, flush.logged);
            }
        }
        self.drop_dead_files()
    }

    /// Enter `file` in the table, with no live byte yet.
    fn add_file(&mut self, file: StoreFile) -> u32 {
        let id = self.next_file;
        self.next_file += 1;
        self.files.insert(id, file);
        id
    }

    /// Make `stored`, logged in WAL segment `logged` or before, its row's
    /// flushed edit: its bytes are live in its file, and no longer in the
    /// file of the edit it replaces, whose row it was born as.
    fn install(&mut self, key: Vec<u8>, mut stored: Stored, logged: u64) {
        move_live(
            &mut self.files,
            None,
            stored.file,
            stored.cell.stored_bytes(&key),
        );
        if let Some(replaced) = self.flushed.get(&key) {
            stored.born = stored.born.min(replaced.born);
            let bytes = replaced.cell.stored_bytes(&key);
            move_live(&mut self.files, replaced.file, None, bytes);
        }
        if stored.cell.value.is_none() && stored.file.is_some() && stored.born > 0 {
            self.tombstones.insert(key.clone(), logged);
        } else if !self.tombstones.is_empty() {
            self.tombstones.remove(&key);
        }
        self.flushed.insert(key, stored);
    }

    /// Drop every tombstone nothing older of its row remains under: the
    /// WAL has deleted every segment below `gone_below`, which is above
    /// the one it was logged in, and no store file but its own may hold
    /// an edit of the row from its birth on. Returns the paths of the
    /// files this left with no live byte.
    fn drop_tombstones(&mut self, gone_below: u64) -> Vec<String> {
        let (files, flushed) = (&self.files, &self.flushed);
        let droppable: Vec<Vec<u8>> = self
            .tombstones
            .iter()
            .filter(|(key, logged)| {
                let row = &flushed[*key];
                **logged < gone_below
                    && files.iter().all(|(id, file)| {
                        row.file == Some(*id) || !file.may_hold(row.born, row.cell.seq)
                    })
            })
            .map(|(key, _)| key.clone())
            .collect();
        if droppable.is_empty() {
            return Vec::new();
        }
        for key in droppable {
            self.tombstones.remove(&key);
            let row = self.flushed.remove(&key).expect("a tombstone is a row");
            let bytes = row.cell.stored_bytes(&key);
            move_live(&mut self.files, row.file, None, bytes);
        }
        self.drop_dead_files()
    }

    /// Take every file with no live byte out of the table; their paths,
    /// to delete.
    fn drop_dead_files(&mut self) -> Vec<String> {
        let mut dead = Vec::new();
        self.files.retain(|_, file| {
            file.live > 0 || {
                dead.push(std::mem::take(&mut file.path));
                false
            }
        });
        dead
    }

    /// (files, bytes held, live bytes).
    fn store_bytes(&self) -> (usize, u64, u64) {
        let (held, live) = self.files.values().fold((0, 0), |(held, live), file| {
            (held + file.bytes, live + file.live)
        });
        (self.files.len(), held, live)
    }

    /// If the files hold more than `CLEAN_RATIO` times their live bytes
    /// and no cleaning is in flight, start one for flush `seq`: the live
    /// rows of every file under half live, each key with the sequence
    /// number of the edit it is to be written at.
    fn begin_cleaning(&mut self, seq: u64) -> Option<Vec<(Vec<u8>, u64)>> {
        let (_, held, live) = self.store_bytes();
        if self.cleaning.is_some() || held <= CLEAN_RATIO * live {
            return None;
        }
        // Ascending, as the table iterates.
        let victims: Vec<u32> = self
            .files
            .iter()
            .filter(|(_, file)| 2 * file.live < file.bytes)
            .map(|(id, _)| *id)
            .collect();
        let rows = self
            .flushed
            .iter()
            .filter(|(_, row)| {
                row.file
                    .is_some_and(|id| victims.binary_search(&id).is_ok())
            })
            .map(|(key, row)| (key.clone(), row.cell.seq))
            .collect();
        self.cleaning = Some(seq);
        Some(rows)
    }

    /// Append to `buf` each of a cleaning's `rows` still at the edit it
    /// was taken at. A row replaced or dropped since is not written, and
    /// its sequence number becomes 0, which no edit takes.
    fn write_rows(&self, rows: &mut [(Vec<u8>, u64)], buf: &mut Vec<u8>) {
        for (key, seq) in rows {
            match self.flushed.get(key) {
                Some(row) if row.cell.seq == *seq => {
                    append_entry(buf, *seq, key, row.cell.value.as_deref());
                }
                _ => *seq = 0,
            }
        }
    }

    /// Flush `seq`'s cleaning has returned, with its `file` or without
    /// one. Each row still at the sequence number it was written with
    /// moves to the new file; a row a newer flush installed meanwhile
    /// stays where it is. Returns the paths of the files this left with no
    /// live byte; a failed write leaves every file as it was.
    fn finish_cleaning(
        &mut self,
        seq: u64,
        rows: &[(Vec<u8>, u64)],
        file: Option<StoreFile>,
    ) -> Vec<String> {
        if self.cleaning != Some(seq) {
            // Handed off, and maybe hosted again, since it began.
            return Vec::new();
        }
        self.cleaning = None;
        let Some(file) = file else {
            return Vec::new();
        };
        let id = self.add_file(file);
        for (key, written) in rows {
            if let Some(row) = self.flushed.get_mut(key) {
                if row.cell.seq == *written {
                    let bytes = row.cell.stored_bytes(key);
                    move_live(&mut self.files, row.file, Some(id), bytes);
                    row.file = Some(id);
                }
            }
        }
        self.drop_dead_files()
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

/// Move `bytes` of live data from file `from` to file `to`, either of
/// which may be none.
fn move_live(files: &mut BTreeMap<u32, StoreFile>, from: Option<u32>, to: Option<u32>, bytes: u64) {
    if let Some(file) = from.and_then(|id| files.get_mut(&id)) {
        file.live -= bytes;
    }
    if let Some(file) = to.and_then(|id| files.get_mut(&id)) {
        file.live += bytes;
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

/// Serialize edits as a store file into `buf`, reserved at the file's
/// size first: growing one by doubling from empty asks the allocator for
/// four times the file.
fn store_file<'a>(edits: impl Iterator<Item = (&'a Vec<u8>, &'a Cell)> + Clone, buf: &mut Vec<u8>) {
    let size = edits.clone().map(|(k, c)| c.stored_bytes(k) as usize).sum();
    buf.reserve(size);
    for (k, c) in edits {
        append_entry(buf, c.seq, k, c.value.as_deref());
    }
}

/// Keep `buf`, emptied, as `spare` if it is the larger of the two.
fn keep_larger(spare: &mut Vec<u8>, mut buf: Vec<u8>) {
    buf.clear();
    if buf.capacity() > spare.capacity() {
        *spare = buf;
    }
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
    /// Rolled segments not yet deleted, their writes returned or not:
    /// what HDFS may hold.
    present: BTreeSet<u64>,
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
        self.present.insert(self.open);
        self.open += 1;
        (self.open - 1, std::mem::replace(&mut self.buf, spare))
    }

    /// Every segment below this one is deleted.
    fn gone_below(&self) -> u64 {
        self.present.first().copied().unwrap_or(self.open)
    }
}

/// The WAL holds at most this many times what the hosted memstores can: a
/// roll that leaves a region's oldest unflushed edit further behind
/// flushes that region (module docs, "The WAL's lifecycle").
const WAL_MEMSTORES: usize = 2;

/// Rows a cleaning serializes per hold of the region lock.
const CLEAN_ROWS_PER_LOCK: usize = 64;

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
    /// The buffer the last store file written was serialized in, kept to
    /// serialize the next: flushes and cleanings allocate none once it
    /// has grown to the largest.
    file_buf: Mutex<Vec<u8>>,
    puts: AtomicU64,
    gets: AtomicU64,
    /// Memstore flushes whose store file was written.
    flushes: AtomicU64,
    /// Bytes written by cleanings.
    cleaned_bytes: AtomicU64,
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

    /// The file the cleaning that flush `seq` of `bucket` set off writes.
    fn cleaned_path(&self, bucket: u32, seq: u64) -> String {
        format!("/hbase/region{bucket}/cleaned-{seq:020}-rs{}", self.rs_id)
    }

    /// Write a store file at `path`, serialized by `serialize` into the
    /// server's spare buffer; `serialize` returns the file's lowest and
    /// highest sequence numbers, or `None` to write nothing.
    fn write_store_file(
        &self,
        path: String,
        serialize: impl FnOnce(&mut Vec<u8>) -> Option<(u64, u64)>,
    ) -> RpcResult<Option<StoreFile>> {
        let mut buf = std::mem::take(&mut *self.file_buf.lock());
        let written = match serialize(&mut buf) {
            Some(seqs) => self
                .dfs
                .write_file(&path, &buf)
                .map(|()| Some(StoreFile::new(path, buf.len(), seqs))),
            None => Ok(None),
        };
        keep_larger(&mut self.file_buf.lock(), buf);
        written
    }

    /// Log an edit of `key` — a put, or with `None` a delete — and apply
    /// it to its region's memstore, rolling the WAL and flushing the
    /// memstore when either is full. A roll also flushes every region
    /// whose oldest unflushed edit it leaves more than the WAL's span
    /// behind. A delete of a row that does not exist logs nothing and
    /// returns `false`.
    fn edit(&self, key: Vec<u8>, value: Option<Vec<u8>>) -> Result<bool, String> {
        let bucket = region_of(&key, self.n_regions);
        let (roll, flushes) = {
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
            let mut flushes = Vec::new();
            if region.memstore_bytes >= self.cfg.memstore_flush_bytes {
                flushes.push((bucket, region.begin_flush(segment)));
            }
            if roll.is_some() {
                let span = (WAL_MEMSTORES * regions.len() * self.cfg.memstore_flush_bytes)
                    .div_ceil(self.cfg.wal_roll_bytes) as u64;
                for (id, region) in regions.iter_mut() {
                    if region.memstore_floor.is_some_and(|f| f + span <= segment) {
                        flushes.push((*id, region.begin_flush(segment)));
                    }
                }
            }
            (roll, flushes)
        };
        // Each runs whatever the others return: a begun flush must finish.
        let mut done = roll.map_or(Ok(()), |segment| self.write_segment(segment));
        for (bucket, (seq, cells)) in flushes {
            done = done.and(self.flush(bucket, seq, cells));
        }
        done.map_err(|e| e.to_string())?;
        Ok(true)
    }

    /// Write a rolled segment to HDFS, hand its buffer back, and retire
    /// what that lets go: its edits may have been flushed meanwhile.
    fn write_segment(&self, (segment, buf): (u64, Vec<u8>)) -> RpcResult<()> {
        let written = self.dfs.write_file(&self.wal_path(segment), &buf);
        {
            let mut wal = self.wal.lock();
            keep_larger(&mut wal.spare, buf);
            wal.rolled.insert(segment);
        }
        written.map(|()| self.retire_segments())
    }

    /// Write a memstore snapshot as a store file under the *region's*
    /// directory, so any future host of the bucket can recover it; then
    /// install it, delete the files it leaves with no live byte, clean if
    /// the region's files are due, and retire the segments it lets go.
    fn flush(&self, bucket: u32, seq: u64, cells: Arc<Cells>) -> RpcResult<()> {
        let written = self.write_store_file(self.store_path(bucket, seq), |buf| {
            store_file(cells.iter(), buf);
            Some(seq_range(cells.values().map(|cell| cell.seq)))
        });
        drop(cells);
        let (written, file) = match written {
            Ok(file) => (Ok(()), file),
            Err(e) => (Err(e), None),
        };
        if file.is_some() {
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        // Installed even when the write failed: the WAL keeps the rows
        // (the region pins their floor), and an uninstalled snapshot would
        // block every later flush of the region.
        let (dead, cleaning) = match self.regions.lock().get_mut(&bucket) {
            Some(region) => (region.finish_flush(seq, file), region.begin_cleaning(seq)),
            None => (Vec::new(), None),
        };
        self.delete_files(dead);
        if let Some(rows) = cleaning {
            self.clean(bucket, seq, rows);
        }
        written.map(|()| self.retire_segments())
    }

    /// Write the rows a cleaning took as one file, serialized a few rows
    /// per hold of the region lock; then re-point them and delete the
    /// files left with no live byte: the victims go only once the file
    /// holding their rows is written. A region handed off meanwhile gets
    /// no file.
    fn clean(&self, bucket: u32, seq: u64, mut rows: Vec<(Vec<u8>, u64)>) {
        let written = self.write_store_file(self.cleaned_path(bucket, seq), |buf| {
            for chunk in rows.chunks_mut(CLEAN_ROWS_PER_LOCK) {
                self.regions.lock().get(&bucket)?.write_rows(chunk, buf);
            }
            Some(seq_range(
                rows.iter().map(|(_, seq)| *seq).filter(|seq| *seq > 0),
            ))
        });
        let file = written.ok().flatten();
        if let Some(file) = &file {
            self.cleaned_bytes.fetch_add(file.bytes, Ordering::Relaxed);
        }
        let dead = match self.regions.lock().get_mut(&bucket) {
            Some(region) => region.finish_cleaning(seq, &rows, file),
            None => Vec::new(),
        };
        self.delete_files(dead);
    }

    /// Delete store files no row's newest edit is in. One that fails
    /// stays in HDFS, and a later host's recovery finds it with no live
    /// byte and deletes it at its first flush.
    fn delete_files(&self, paths: Vec<String>) {
        for path in paths {
            let _ = self.dfs.delete(&path);
        }
    }

    /// Delete every written segment below the lowest floor of a region
    /// hosted or handed off, and below the open segment; then drop the
    /// tombstones that lets go, and the files that leaves with no live
    /// byte. Taken under the region lock, which every edit holds while it
    /// logs, so no segment gains an edit the floors have not seen.
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
            let deleted = self.dfs.delete(&self.wal_path(segment)).is_ok();
            let mut wal = self.wal.lock();
            if deleted {
                wal.present.remove(&segment);
            } else {
                // Tried again at the next retirement.
                wal.rolled.insert(segment);
            }
        }
        let dead: Vec<String> = {
            let mut regions = self.regions.lock();
            let gone_below = self.wal.lock().gone_below();
            regions
                .values_mut()
                .flat_map(|region| region.drop_tombstones(gone_below))
                .collect()
        };
        self.delete_files(dead);
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
            for (k, row) in region.flushed.range::<[u8], _>(from) {
                current.entry(k).or_insert(row.cell.value.as_ref());
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
        // 2. Each row's newest edit, from store files and WAL alike, and
        // the file table. A row found here is born before this host: an
        // earlier host's WAL, or a file it wrote after the listing, may
        // hold an older edit of it.
        let mut region = Region::new();
        let mut rows = Rows::new();
        let dir = format!("/hbase/region{bucket}");
        for status in self.dfs.list(&dir).unwrap_or_default() {
            let data = self.dfs.read_file(&status.path)?;
            let entries = parse_entries(&data);
            let seqs = seq_range(entries.iter().map(|(_, cell)| cell.seq));
            let file = Some(region.add_file(StoreFile::new(status.path, data.len(), seqs)));
            for (key, cell) in entries {
                keep_newest(
                    &mut rows,
                    key,
                    Stored {
                        cell,
                        file,
                        born: 0,
                    },
                );
            }
        }
        for (key, cell) in logged {
            let row = Stored {
                cell,
                file: None,
                born: 0,
            };
            keep_newest(&mut rows, key, row);
        }
        region.next_seq = rows.values().map(|row| row.cell.seq + 1).fold(1, u64::max);
        for (key, row) in rows {
            region.install(key, row, 0);
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
            let written = cells.is_empty()
                || self
                    .write_store_file(path, |buf| {
                        store_file(cells.iter(), buf);
                        Some(seq_range(cells.values().map(|cell| cell.seq)))
                    })
                    .is_ok();
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
            file_buf: Mutex::new(Vec::new()),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            cleaned_bytes: AtomicU64::new(0),
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

    /// Memstore flushes whose store file was written.
    pub fn flushes(&self) -> u64 {
        self.state.flushes.load(Ordering::Relaxed)
    }

    /// Bytes written by cleanings: the store files' write amplification
    /// beyond the flushes.
    pub fn cleaned_bytes(&self) -> u64 {
        self.state.cleaned_bytes.load(Ordering::Relaxed)
    }

    /// `(files, held bytes, live bytes)` over the hosted regions' store
    /// files, one replica each (module docs, "Store files").
    pub fn store_files(&self) -> (usize, u64, u64) {
        let regions = self.state.regions.lock();
        regions
            .values()
            .map(Region::store_bytes)
            .fold((0, 0, 0), |(files, held, live), (f, h, l)| {
                (files + f, held + h, live + l)
            })
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

    fn delete(region: &mut Region, key: &[u8]) {
        region.apply(key.to_vec(), None, 0);
    }

    /// The store file a flush's write returns, as `RsState::flush` builds
    /// it.
    fn written(path: &str, cells: &Cells) -> Option<StoreFile> {
        let mut buf = Vec::new();
        store_file(cells.iter(), &mut buf);
        let seqs = seq_range(cells.values().map(|cell| cell.seq));
        Some(StoreFile::new(path.to_string(), buf.len(), seqs))
    }

    /// A cleaning's rows serialized as `RsState::clean` does: the file's
    /// bytes, and the file its write returns.
    fn cleaned(region: &Region, rows: &mut [(Vec<u8>, u64)]) -> (Vec<u8>, Option<StoreFile>) {
        let mut buf = Vec::new();
        region.write_rows(rows, &mut buf);
        let seqs = seq_range(rows.iter().map(|(_, seq)| *seq).filter(|seq| *seq > 0));
        let file = StoreFile::new("cleaned".to_string(), buf.len(), seqs);
        (buf, Some(file))
    }

    /// Flush the memstore, its edits logged in WAL segment `open` or
    /// before, and install it as the file at `path`.
    fn flush_at(region: &mut Region, path: &str, open: u64) -> Vec<String> {
        let (seq, cells) = region.begin_flush(open);
        region.finish_flush(seq, written(path, &cells))
    }

    fn flush(region: &mut Region, path: &str) -> Vec<String> {
        flush_at(region, path, 0)
    }

    /// Every file's live bytes are those of the rows that point at it.
    fn assert_table_matches_rows(region: &Region) {
        let mut live: BTreeMap<u32, u64> = BTreeMap::new();
        for (key, row) in &region.flushed {
            if let Some(file) = row.file {
                *live.entry(file).or_default() += row.cell.stored_bytes(key);
            }
        }
        let table: BTreeMap<u32, u64> = region.files.iter().map(|(id, f)| (*id, f.live)).collect();
        assert_eq!(table, live, "the live table disagrees with the rows");
        assert!(region.files.values().all(|f| f.live <= f.bytes));
    }

    #[test]
    fn overlapping_flushes_stay_readable_and_install_in_flush_order() {
        let mut region = Region::new();
        put(&mut region, b"a", b"a1");
        put(&mut region, b"b", b"b1");
        let (first, _) = region.begin_flush(0);
        put(&mut region, b"a", b"a2");
        let (second, _) = region.begin_flush(0);
        put(&mut region, b"c", b"c3");
        let (third, _) = region.begin_flush(0);
        // Each is named by the sequence number of its newest edit.
        assert_eq!((first, second, third), (2, 3, 4));

        // Nothing has been written yet; every row is readable, newest
        // snapshot first.
        let read = |region: &Region, key: &[u8]| region.get(key).cloned();
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));
        assert_eq!(read(&region, b"b"), Some(b"b1".to_vec()));
        assert_eq!(read(&region, b"c"), Some(b"c3".to_vec()));

        // The newest two writes return first: they wait behind flush 1.
        let file = |name: &str| Some(StoreFile::new(name.to_string(), 100, (1, 4)));
        region.finish_flush(third, file("third"));
        region.finish_flush(second, file("second"));
        assert!(region.flushed.is_empty(), "installed ahead of flush 1");
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));

        // Flush 1 lands last — and must not resurrect a1 over a2.
        region.finish_flush(first, file("first"));
        assert!(region.flushing.is_empty());
        assert_eq!(region.flushed.len(), 3);
        assert_eq!(read(&region, b"a"), Some(b"a2".to_vec()));
        assert_eq!(read(&region, b"b"), Some(b"b1".to_vec()));
        assert_eq!(read(&region, b"c"), Some(b"c3".to_vec()));
    }

    #[test]
    fn a_delete_hides_its_row_and_its_flush_keeps_the_tombstone() {
        let mut region = Region::new();
        put(&mut region, b"a", b"a1");
        flush(&mut region, "first");
        delete(&mut region, b"a");
        assert_eq!(
            region.get(b"a"),
            None,
            "the tombstone shadows the flushed row"
        );
        let (second, cells) = region.begin_flush(0);
        assert_eq!(region.get(b"a"), None, "and does so mid-flush");
        assert_eq!(
            cells[&b"a".to_vec()],
            Cell {
                seq: 2,
                value: None
            }
        );
        // The put's file holds nothing live once the tombstone installs:
        // it is deleted. The tombstone stays, live in its own file, while
        // the WAL may still hold the put.
        let dead = region.finish_flush(second, written("second", &cells));
        assert_eq!(dead, ["first"]);
        assert_eq!(region.get(b"a"), None);
        assert_eq!(region.flushed[&b"a".to_vec()].cell.value, None);
        assert_eq!(region.drop_tombstones(0), Vec::<String>::new());
        assert_eq!(region.store_bytes().0, 1);
        assert_table_matches_rows(&region);
    }

    #[test]
    fn a_tombstone_is_dropped_once_no_file_or_segment_may_hold_an_older_edit() {
        let mut region = Region::new();
        put(&mut region, b"a", b"a1");
        put(&mut region, b"b", b"b1");
        flush_at(&mut region, "f1", 1);
        delete(&mut region, b"a");
        flush_at(&mut region, "f2", 2);

        // f1 still holds b, and may hold a's put; segment 2 logged the
        // delete, and below it the put.
        assert_eq!(region.drop_tombstones(2), Vec::<String>::new());
        assert_eq!(region.drop_tombstones(u64::MAX), Vec::<String>::new());
        assert!(region.flushed.contains_key(b"a".as_slice()));

        // b moves to f3, and f1 goes. Until segment 2 is deleted, the
        // tombstone stays.
        put(&mut region, b"b", b"b2");
        assert_eq!(flush_at(&mut region, "f3", 3), ["f1"]);
        assert_eq!(region.drop_tombstones(2), Vec::<String>::new());
        // f3 holds no edit older than the tombstone: it goes, and f2 with
        // it, which held nothing else.
        assert_eq!(region.drop_tombstones(3), ["f2"]);
        assert!(!region.flushed.contains_key(b"a".as_slice()));
        assert!(region.tombstones.is_empty());
        assert_eq!(region.get(b"a"), None);
        assert_eq!(region.get(b"b"), Some(&b"b2".to_vec()));
        assert_table_matches_rows(&region);

        // A row put again after its tombstone went is born again.
        put(&mut region, b"a", b"a3");
        flush_at(&mut region, "f4", 4);
        assert_eq!(region.flushed[&b"a".to_vec()].born, 5);
    }

    #[test]
    fn a_recovered_row_keeps_its_tombstone() {
        let mut region = Region::new();
        let file = Some(region.add_file(StoreFile::new("old".to_string(), 100, (1, 1))));
        let cell = Cell {
            seq: 1,
            value: None,
        };
        region.install(
            b"a".to_vec(),
            Stored {
                cell,
                file,
                born: 0,
            },
            0,
        );
        assert!(
            region.tombstones.is_empty(),
            "an earlier host may hold a put"
        );
        assert_eq!(region.drop_tombstones(u64::MAX), Vec::<String>::new());
        assert!(region.flushed.contains_key(b"a".as_slice()));
    }

    #[test]
    fn put_then_delete_churn_over_fresh_keys_keeps_the_block_cache_bounded() {
        let mut region = Region::new();
        let mut most = (0, 0, 0);
        for round in 0..200u64 {
            let keys: Vec<Vec<u8>> = (0..20)
                .map(|i| format!("k{round}-{i}").into_bytes())
                .collect();
            for key in &keys {
                put(&mut region, key, &[1u8; 100]);
            }
            flush_at(&mut region, &format!("put{round}"), 2 * round);
            for key in &keys {
                delete(&mut region, key);
            }
            flush_at(&mut region, &format!("delete{round}"), 2 * round + 1);
            // Each segment is deleted once a later flush is written.
            region.drop_tombstones(2 * round + 1);
            let (files, held, _) = region.store_bytes();
            most = most.max((region.flushed.len(), files, held));
            assert_table_matches_rows(&region);
        }
        let (rows, files, held) = most;
        assert!(rows <= 20, "{rows} rows in the block cache");
        assert!(files <= 2, "{files} files");
        assert!(held < 3000, "{held} bytes held");
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
        let (first, _) = region.begin_flush(4);
        edit(&mut region, b"c", 5);
        let (second, _) = region.begin_flush(5);
        edit(&mut region, b"d", 6);
        assert_eq!(region.floor(), Some(3), "a flush in flight holds its own");
        // Written out of order: the older flush still holds segment 3.
        let file = || Some(StoreFile::new(String::new(), 100, (1, 4)));
        region.finish_flush(second, file());
        assert_eq!(region.floor(), Some(3));
        region.finish_flush(first, file());
        assert_eq!(region.floor(), Some(6), "the memstore's");
        // A flush whose store file was not written pins its floor for
        // good: its rows are installed, and only the WAL holds them.
        let (third, _) = region.begin_flush(6);
        region.finish_flush(third, None);
        assert_eq!(region.get(b"d"), Some(&b"v".to_vec()));
        assert_eq!(region.flushed[&b"d".to_vec()].file, None);
        edit(&mut region, b"e", 9);
        let (fourth, _) = region.begin_flush(9);
        region.finish_flush(fourth, file());
        assert_eq!(region.floor(), Some(6));
    }

    #[test]
    fn a_hundred_puts_to_one_key_hold_one_cell_and_flush_nothing() {
        let threshold = HBaseConfig::default().memstore_flush_bytes;
        let value = vec![7u8; 4096];
        let mut region = Region::new();
        for _ in 0..100 {
            put(&mut region, b"hot", &value);
            assert!(region.memstore_bytes < threshold, "a flush is due");
        }
        assert_eq!(region.memstore_bytes, b"hot".len() + value.len());
        // A delete replaces the cell too.
        delete(&mut region, b"hot");
        assert_eq!(region.memstore_bytes, b"hot".len());
    }

    /// Files "f1" to "f4" each hold one cold row and the hot row `h`,
    /// which each later file replaces: the first three are under half
    /// live, and the region holds more than `CLEAN_RATIO` times its live
    /// bytes.
    fn a_region_due_for_cleaning() -> Region {
        let mut region = Region::new();
        for (i, cold) in [b"x", b"y", b"z", b"w"].iter().enumerate() {
            put(&mut region, *cold, b"cold");
            put(&mut region, b"h", &[0u8; 1000]);
            flush(&mut region, &format!("f{}", i + 1));
        }
        let (files, held, live) = region.store_bytes();
        assert_eq!(files, 4);
        assert!(held > CLEAN_RATIO * live, "{held} held, {live} live");
        region
    }

    #[test]
    fn a_cleaning_moves_the_live_rows_of_files_under_half_live_and_frees_them() {
        let mut region = a_region_due_for_cleaning();
        let mut rows = region.begin_cleaning(8).expect("a cleaning is due");
        let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"x", b"y", b"z"], "the live rows of f1 to f3");
        assert!(region.begin_cleaning(8).is_none(), "one at a time");
        let (data, file) = cleaned(&region, &mut rows);
        assert_eq!(parse_entries(&data).len(), 3);
        let dead = region.finish_cleaning(8, &rows, file);
        assert_eq!(dead, ["f1", "f2", "f3"]);
        let (files, held, live) = region.store_bytes();
        assert_eq!(files, 2, "f4 and the cleaned file");
        assert!(held <= 2 * live, "{held} held, {live} live");
        assert_eq!(region.get(b"x"), Some(&b"cold".to_vec()));
        assert_table_matches_rows(&region);
    }

    #[test]
    fn a_cleaning_whose_write_failed_deletes_nothing_and_is_tried_again() {
        let mut region = a_region_due_for_cleaning();
        let rows = region.begin_cleaning(8).expect("a cleaning is due");
        assert_eq!(region.finish_cleaning(8, &rows, None), Vec::<String>::new());
        assert_eq!(region.store_bytes().0, 4);
        assert_table_matches_rows(&region);
        assert_eq!(region.begin_cleaning(9), Some(rows), "tried again");
    }

    #[test]
    fn a_row_overwritten_while_its_cleaning_is_written_keeps_its_newer_file() {
        let mut region = a_region_due_for_cleaning();
        let mut rows = region.begin_cleaning(8).expect("a cleaning is due");
        let (_, file) = cleaned(&region, &mut rows);
        // `x` is overwritten and flushed while the cleaned file, which
        // holds its old edit, is being written. Its old file has nothing
        // live left.
        put(&mut region, b"x", b"newer");
        assert_eq!(flush(&mut region, "f5"), ["f1"]);
        let newer = region.flushed[&b"x".to_vec()].file;

        // The cleaning returns: `x` is not re-pointed at the cleaned file,
        // whose copy is older, so neither f5 nor the value goes.
        let dead = region.finish_cleaning(8, &rows, file);
        assert_eq!(dead, ["f2", "f3"], "f5 holds x's newest edit");
        assert_eq!(region.flushed[&b"x".to_vec()].file, newer);
        assert_eq!(region.get(b"x"), Some(&b"newer".to_vec()));
        assert_table_matches_rows(&region);
    }

    #[test]
    fn a_row_replaced_before_its_rows_are_serialized_is_left_out() {
        let mut region = a_region_due_for_cleaning();
        let mut rows = region.begin_cleaning(8).expect("a cleaning is due");
        put(&mut region, b"y", b"newer");
        flush(&mut region, "f5");
        let (data, file) = cleaned(&region, &mut rows);
        let written: Vec<Vec<u8>> = parse_entries(&data).into_iter().map(|(k, _)| k).collect();
        assert_eq!(written, [b"x".to_vec(), b"z".to_vec()]);
        region.finish_cleaning(8, &rows, file);
        assert_eq!(region.get(b"y"), Some(&b"newer".to_vec()));
        assert_table_matches_rows(&region);
    }

    #[test]
    fn a_cleaning_that_returns_after_its_region_moved_deletes_nothing() {
        let mut region = a_region_due_for_cleaning();
        let mut rows = region.begin_cleaning(8).expect("a cleaning is due");
        let (_, file) = cleaned(&region, &mut rows);
        // The bucket was handed off and hosted here again: a new region.
        let mut again = a_region_due_for_cleaning();
        assert_eq!(again.finish_cleaning(8, &rows, file), Vec::<String>::new());
        assert_eq!(again.store_bytes().0, 4);
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
