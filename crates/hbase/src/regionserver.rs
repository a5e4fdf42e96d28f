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
//! A value is stored once and shared. A put's value is copied out of the
//! request, where it landed, into one allocation that is the value from
//! then on: the memstore, a flush's snapshot, the block cache and a get's
//! reply hold it by reference count. A get looks its key up where the
//! request landed, and its reply copies the value once, into the response
//! body.
//!
//! ## The WAL's lifecycle
//!
//! Every edit — a put, or a delete, which is a tombstone — takes its
//! region's next sequence number and carries it in its WAL entry and its
//! store-file entry. A store file is named by the highest sequence number
//! of the memstore it flushed (`hfile-{seq:020}-rs{id}`).
//!
//! A WAL segment lives until every edit in it is in a *durable* store
//! file. Each region keeps its floor, the oldest segment holding one of
//! its edits that is not: its memstore's, and each in-flight flush's
//! until its store file is written. A flush whose write failed is
//! installed all the same, and only the WAL holds its rows: when it
//! installs, its floor becomes the region's *pin*, and the region counts
//! one more failed flush. A later flush carries those rows into its own
//! file (below); one whose write succeeded releases the pin when it
//! installs if no failed flush installed since it began, because it then
//! carried every row only the WAL held. A bucket handed off keeps its
//! floor until its hand-off store file, which holds every edit of it no
//! written store file holds, is written. After each successful segment
//! write or flush, every written segment below the lowest floor — and
//! below the open segment — is deleted, and HDFS frees its replicas.
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
//! edit it holds. A listing or read that fails — a file deleted between
//! the listing and its read among them — fails the recovery, and the
//! bucket is not served until the next heartbeat's try succeeds; its
//! listing then holds whatever file now holds those rows.
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
//! There is one write path. A flush's store file holds its memstore
//! snapshot and the rows it *carries*: every row only the WAL holds and,
//! when the region's files hold more than [`CLEAN_RATIO`] times their
//! live bytes, the live rows of every file under half live — bar the rows
//! its snapshot replaces. A flush carries rows only while no other flush
//! of its region that carries rows is in flight, and picks them, key and
//! sequence number only, under the region lock it begins under. The
//! snapshot is serialized without the lock; the carried rows are
//! serialized a few per hold of it, with their own sequence numbers and
//! tombstones kept, from the block cache: no HDFS read. A row replaced
//! since it was picked is left out. When the flush installs, each carried
//! row still at the sequence number it was picked at is re-pointed at the
//! new file, and the files left with no live byte are deleted. A row an
//! older flush installed meanwhile keeps its newer file: the
//! sequence-number check. A flush whose write failed re-points nothing,
//! so no file it was to empty goes, and the next flush carries the rows
//! again. Every file a carrying flush leaves is at least half live, bar
//! rows replaced while it was written, so it brings a region to about
//! twice its live bytes; between carrying flushes a region holds at most
//! `CLEAN_RATIO` times its live bytes, plus a flush. Flushes serialize
//! into one buffer the server keeps, so none allocates its file.
//!
//! Deleting a file a carrying flush emptied is safe because every entry
//! in it is either some row's newest edit, which the written carrying
//! file now holds, or an older one, which recovery would pass over for
//! the newer edit in a written file or the WAL. A flush that returns
//! after its region was handed off installs nothing and deletes nothing;
//! its file only repeats entries another file holds, and recovery tells
//! them apart by sequence number like any others.
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
use crate::types::{region_of, Acked, Row, SharedValue};
use crate::RS_PORT;

/// WAL / store-file entry opcodes.
const ENTRY_PUT: u8 = 1;
const ENTRY_DELETE: u8 = 2;

/// Error message prefix a client interprets as "refresh your region map".
pub const NOT_SERVING: &str = "NotServingRegion";

/// One edit of a row: its sequence number, and the value it put (shared,
/// module docs) or `None` for a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    seq: u64,
    value: Option<Arc<[u8]>>,
}

impl Cell {
    /// The bytes this edit of `key` occupies in a store file.
    fn stored_bytes(&self, key: &[u8]) -> u64 {
        entry_size(self.seq, key, self.value.as_deref()) as u64
    }
}

/// A region's files hold more than this many times their live bytes: the
/// next flush carries the live rows of its files under half live (module
/// docs, "Store files").
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

/// What a flush writes as one store file (module docs, "Store files").
#[derive(Clone, Default)]
struct Snapshot {
    /// The memstore it took.
    cells: Cells,
    /// The rows it carries from older files, or from none: each key with
    /// the sequence number of the edit it was picked at.
    carried: Vec<(Vec<u8>, u64)>,
    /// Their stored bytes.
    carried_bytes: u64,
}

/// A flush whose store file is being written to HDFS (outside the region
/// lock). Its snapshot stays readable here until installed.
struct Flush {
    /// The snapshot's highest sequence number, which names its store file.
    seq: u64,
    /// Shared with the thread writing the store file.
    snapshot: Arc<Snapshot>,
    /// The oldest WAL segment holding one of its edits, until the write
    /// succeeds or the flush installs.
    floor: Option<u64>,
    /// A WAL segment no older than the newest holding one of its edits.
    logged: u64,
    /// The region's count of failed flushes when it began, if it carried
    /// every row only the WAL held: it may then release the pin.
    failed_seen: Option<u64>,
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
    /// The flushed tombstones a store file holds of rows born here, each
    /// with a WAL segment no older than the one it was logged in: the
    /// ones that may be dropped once nothing older of their row remains.
    tombstones: BTreeMap<Vec<u8>, u64>,
    /// The sequence number the next edit takes.
    next_seq: u64,
    /// The oldest WAL segment holding an edit of a flush whose store file
    /// was not written: installed all the same, those rows are durable in
    /// the WAL alone until a later flush carries them.
    pinned: Option<u64>,
    /// Flushes installed without a store file.
    failed: u64,
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
            tombstones: BTreeMap::new(),
            next_seq: 1,
            pinned: None,
            failed: 0,
        }
    }

    /// The unflushed edits, newest first: the memstore, then the
    /// in-flight flush snapshots newest to oldest.
    fn unflushed(&self) -> impl Iterator<Item = &Cells> {
        std::iter::once(&self.memstore).chain(self.flushing.iter().rev().map(|f| &f.snapshot.cells))
    }

    /// `key`'s current value: its newest edit, unflushed or flushed (a
    /// delete hides the row).
    fn get(&self, key: &[u8]) -> Option<&Arc<[u8]>> {
        let cell = self.unflushed().find_map(|cells| cells.get(key));
        cell.or_else(|| Some(&self.flushed.get(key)?.cell))?
            .value
            .as_ref()
    }

    /// Up to `limit` rows with keys ≥ `start`, in key order, borrowed:
    /// the layers — the memstore, the flushes in flight newest first, the
    /// block cache — merged by key, the newest layer holding a key giving
    /// its edit (a delete hides the row), stopping at the `limit`-th row.
    fn scan(&self, start: &[u8], limit: usize) -> Vec<(&[u8], &[u8])> {
        let from = (Bound::Included(start), Bound::Unbounded);
        let mut unflushed: Vec<_> = self
            .unflushed()
            .map(|cells| cells.range::<[u8], _>(from).peekable())
            .collect();
        let mut flushed = self.flushed.range::<[u8], _>(from).peekable();
        let mut rows = Vec::new();
        while rows.len() < limit {
            let heads = unflushed.iter_mut().filter_map(|layer| layer.peek());
            let Some(key) = heads
                .map(|(key, _)| *key)
                .chain(flushed.peek().map(|(key, _)| *key))
                .min()
            else {
                break;
            };
            // Every layer holding `key` steps past it; the first wins.
            let mut newest = None;
            for layer in &mut unflushed {
                if let Some((_, cell)) = layer.next_if(|(k, _)| *k == key) {
                    newest.get_or_insert(cell);
                }
            }
            if let Some((_, row)) = flushed.next_if(|(k, _)| *k == key) {
                newest.get_or_insert(&row.cell);
            }
            if let Some(value) = newest.and_then(|cell| cell.value.as_deref()) {
                rows.push((key.as_slice(), value));
            }
        }
        rows
    }

    /// Apply an edit the WAL logged in `segment` under `next_seq`. The
    /// memstore counts the bytes it holds: a cell this edit replaces
    /// comes off, and keeps its key (only a new row's is copied).
    fn apply(&mut self, key: &[u8], value: Option<Arc<[u8]>>, segment: u64) {
        self.memstore_bytes += key.len() + value.as_ref().map_or(0, |v| v.len());
        self.memstore_floor.get_or_insert(segment);
        let cell = Cell {
            seq: self.next_seq,
            value,
        };
        self.next_seq += 1;
        match self.memstore.get_mut(key) {
            Some(slot) => {
                let replaced = std::mem::replace(slot, cell);
                self.memstore_bytes -= key.len() + replaced.value.map_or(0, |v| v.len());
            }
            None => {
                self.memstore.insert(key.to_vec(), cell);
            }
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
    /// no older than its newest edit. Unless a flush that carries rows is
    /// in flight, it carries rows too.
    fn begin_flush(&mut self, open: u64) -> (u64, Arc<Snapshot>) {
        let free = self.flushing.iter().all(|f| f.snapshot.carried.is_empty());
        let snapshot = Arc::new(self.snapshot(free));
        self.memstore_bytes = 0;
        let seq = self.next_seq - 1;
        self.flushing.push_back(Flush {
            seq,
            snapshot: Arc::clone(&snapshot),
            floor: self.memstore_floor.take(),
            logged: open,
            failed_seen: free.then_some(self.failed),
            written: false,
            file: None,
        });
        (seq, snapshot)
    }

    /// Take the memstore as a snapshot that, if it `carries`, carries
    /// every row only the WAL holds and, if the files hold more than
    /// `CLEAN_RATIO` times their live bytes, the live rows of every file
    /// under half live; bar the rows the memstore replaces.
    fn snapshot(&mut self, carries: bool) -> Snapshot {
        let mut snapshot = Snapshot {
            cells: std::mem::take(&mut self.memstore),
            ..Snapshot::default()
        };
        if !carries {
            return snapshot;
        }
        let (_, held, live) = self.store_bytes();
        let victims: BTreeSet<u32> = self
            .files
            .iter()
            .filter(|(_, file)| held > CLEAN_RATIO * live && 2 * file.live < file.bytes)
            .map(|(id, _)| *id)
            .collect();
        for (key, row) in &self.flushed {
            if row.file.is_none_or(|id| victims.contains(&id)) && !snapshot.cells.contains_key(key)
            {
                snapshot.carried.push((key.clone(), row.cell.seq));
                snapshot.carried_bytes += row.cell.stored_bytes(key);
            }
        }
        snapshot
    }

    /// Flush `seq`'s write has returned, with its store `file` or without
    /// one. A written flush's floor is released now; a failed one's stays
    /// until it installs, and is then pinned. Snapshots install strictly
    /// in flush order: one that finishes early waits — still readable —
    /// behind an older flush in flight, so an old value can never land on
    /// top of a newer one. Installing a written flush re-points the rows
    /// it carried, and releases the pin if it carried every row only the
    /// WAL held and no failed flush has installed since it began. Returns
    /// the paths of the files installing left with no live byte.
    fn finish_flush(&mut self, seq: u64, file: Option<StoreFile>) -> Vec<String> {
        if let Some(flush) = self.flushing.iter_mut().find(|f| f.seq == seq) {
            flush.written = true;
            if file.is_some() {
                flush.floor = None;
            }
            flush.file = file;
        }
        while self.flushing.front().is_some_and(|f| f.written) {
            let flush = self.flushing.pop_front().expect("front checked");
            if flush.file.is_none() {
                self.failed += 1;
                self.pinned = self.pinned.into_iter().chain(flush.floor).min();
            } else if flush.failed_seen == Some(self.failed) {
                self.pinned = None;
            }
            let file = flush.file.map(|file| self.add_file(file));
            let snapshot =
                Arc::try_unwrap(flush.snapshot).unwrap_or_else(|shared| (*shared).clone());
            for (key, cell) in snapshot.cells {
                let born = cell.seq;
                self.install(key, Stored { cell, file, born }, flush.logged);
            }
            if let Some(file) = file {
                self.repoint(&snapshot.carried, file, flush.logged);
            }
        }
        self.drop_dead_files()
    }

    /// Point each `carried` row still at the edit it was picked at to
    /// `file`, written with every edit logged in WAL segment `logged` or
    /// before. A row replaced or dropped since stays where it is.
    fn repoint(&mut self, carried: &[(Vec<u8>, u64)], file: u32, logged: u64) {
        for (key, seq) in carried {
            let Some(row) = self.flushed.get_mut(key).filter(|row| row.cell.seq == *seq) else {
                continue;
            };
            let bytes = row.cell.stored_bytes(key);
            move_live(&mut self.files, row.file, Some(file), bytes);
            if row.file.is_none() && row.cell.value.is_none() && row.born > 0 {
                // A tombstone only the WAL held: a store file holds it now.
                self.tombstones.insert(key.clone(), logged);
            }
            row.file = Some(file);
        }
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

    /// Append to `buf` each of the carried `rows` still at the edit it was
    /// picked at; returns the range of their sequence numbers. A row
    /// replaced or dropped since is left out.
    fn write_rows(&self, rows: &[(Vec<u8>, u64)], buf: &mut Vec<u8>) -> (u64, u64) {
        seq_range(rows.iter().filter_map(|(key, seq)| {
            let row = self.flushed.get(key).filter(|row| row.cell.seq == *seq)?;
            append_entry(buf, *seq, key, row.cell.value.as_deref());
            Some(*seq)
        }))
    }

    /// Every edit no written store file holds, the newest of each row:
    /// the unflushed ones and the rows only the WAL holds. What a hand-off
    /// writes as one store file.
    fn into_unflushed(self) -> Cells {
        let mut cells = self.memstore;
        for flush in self.flushing {
            for (key, cell) in flush.snapshot.cells.iter() {
                keep_newest(&mut cells, key.clone(), cell.clone());
            }
        }
        for (key, row) in self.flushed {
            if row.file.is_none() {
                keep_newest(&mut cells, key, row.cell);
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
        ENTRY_PUT => Some(Arc::from(value)),
        ENTRY_DELETE => None,
        _ => return Err(io::ErrorKind::InvalidData.into()),
    };
    Ok((key.to_vec(), Cell { seq, value }))
}

/// A `u32`-length-prefixed field, refused if it runs past the data.
fn read_field<'a>(input: &mut &'a [u8]) -> io::Result<&'a [u8]> {
    let len = input.read_i32()? as u32 as usize;
    if len > input.len() {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let (field, rest) = input.split_at(len);
    *input = rest;
    Ok(field)
}

/// Serialize `snapshot` as a store file into `buf`, reserved at the
/// file's size first (growing one by doubling from empty asks the
/// allocator for four times the file): its cells, then its carried rows
/// [`CLEAN_ROWS_PER_LOCK`] at a time through `carry`, which appends those
/// still at the edit they were picked at and returns the range of their
/// sequence numbers. Returns the file's range, and the bytes of carried
/// rows it holds.
fn serialize(
    snapshot: &Snapshot,
    buf: &mut Vec<u8>,
    mut carry: impl FnMut(&[(Vec<u8>, u64)], &mut Vec<u8>) -> (u64, u64),
) -> ((u64, u64), usize) {
    let cells = &snapshot.cells;
    let size: usize = cells.iter().map(|(k, c)| c.stored_bytes(k) as usize).sum();
    buf.reserve(size + snapshot.carried_bytes as usize);
    for (k, c) in cells {
        append_entry(buf, c.seq, k, c.value.as_deref());
    }
    let mut seqs = seq_range(cells.values().map(|c| c.seq));
    for rows in snapshot.carried.chunks(CLEAN_ROWS_PER_LOCK) {
        let (lo, hi) = carry(rows, buf);
        seqs = (seqs.0.min(lo), seqs.1.max(hi));
    }
    (seqs, buf.len() - size)
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

/// Carried rows a flush serializes per hold of the region lock.
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
    /// serialize the next: flushes allocate none once it has grown to the
    /// largest.
    file_buf: Mutex<Vec<u8>>,
    puts: AtomicU64,
    gets: AtomicU64,
    /// Memstore flushes whose store file was written.
    flushes: AtomicU64,
    /// Bytes of carried rows in the store files written.
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

    /// Write `snapshot` as the store file at `path`, serialized into the
    /// server's spare buffer, its carried rows read from `bucket`'s region
    /// a few per hold of the region lock (none once the region is gone).
    fn write_store_file(
        &self,
        path: String,
        bucket: u32,
        snapshot: &Snapshot,
    ) -> RpcResult<StoreFile> {
        let mut buf = std::mem::take(&mut *self.file_buf.lock());
        let (seqs, carried) = serialize(snapshot, &mut buf, |rows, buf| {
            let regions = self.regions.lock();
            let region = regions.get(&bucket);
            region.map_or(seq_range(std::iter::empty()), |r| r.write_rows(rows, buf))
        });
        let written = self.dfs.write_file(&path, &buf).map(|()| {
            self.cleaned_bytes
                .fetch_add(carried as u64, Ordering::Relaxed);
            StoreFile::new(path, buf.len(), seqs)
        });
        keep_larger(&mut self.file_buf.lock(), buf);
        written
    }

    /// Log an edit of `key` — a put, or with `None` a delete — and apply
    /// it to its region's memstore, rolling the WAL and flushing the
    /// memstore when either is full. A roll also flushes every region
    /// whose oldest unflushed edit it leaves more than the WAL's span
    /// behind. A delete of a row that does not exist logs nothing and
    /// returns `false`.
    fn edit(&self, key: &[u8], value: Option<Arc<[u8]>>) -> Result<bool, String> {
        let bucket = region_of(key, self.n_regions);
        let (roll, flushes) = {
            let mut regions = self.regions.lock();
            let region = regions
                .get_mut(&bucket)
                .ok_or_else(|| format!("{NOT_SERVING}: bucket {bucket}"))?;
            if value.is_none() && region.get(key).is_none() {
                return Ok(false);
            }
            let (segment, roll) = self.wal.lock().append(
                region.next_seq,
                key,
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
        for (bucket, (seq, snapshot)) in flushes {
            done = done.and(self.flush(bucket, seq, snapshot));
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

    /// Write a flush's store file under the *region's* directory, so any
    /// future host of the bucket can recover it; then install it, delete
    /// the files it leaves with no live byte, and retire the segments it
    /// lets go.
    fn flush(&self, bucket: u32, seq: u64, snapshot: Arc<Snapshot>) -> RpcResult<()> {
        let written = self.write_store_file(self.store_path(bucket, seq), bucket, &snapshot);
        drop(snapshot);
        let (written, file) = match written {
            Ok(file) => {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                (Ok(()), Some(file))
            }
            Err(e) => (Err(e), None),
        };
        // Installed even when the write failed: the WAL keeps the rows
        // (the region pins their floor), and an uninstalled snapshot would
        // block every later flush of the region.
        let dead = match self.regions.lock().get_mut(&bucket) {
            Some(region) => region.finish_flush(seq, file),
            None => Vec::new(),
        };
        self.delete_files(dead);
        written.map(|()| self.retire_segments())
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

    fn put(&self, key: &[u8], value: Arc<[u8]>) -> Result<(), String> {
        self.edit(key, Some(value))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `key`'s value, shared with the region that holds it.
    fn get(&self, key: &[u8]) -> Result<Option<Arc<[u8]>>, String> {
        let bucket = region_of(key, self.n_regions);
        let regions = self.regions.lock();
        let region = regions
            .get(&bucket)
            .ok_or_else(|| format!("{NOT_SERVING}: bucket {bucket}"))?;
        self.gets.fetch_add(1, Ordering::Relaxed);
        Ok(region.get(key).cloned())
    }

    /// Up to `limit` rows with keys ≥ `start` across the hosted regions,
    /// in key order. Only the rows returned are copied.
    fn scan(&self, start: &[u8], limit: usize) -> Vec<Row> {
        let regions = self.regions.lock();
        let mut rows: Vec<(&[u8], &[u8])> = regions
            .values()
            .flat_map(|region| region.scan(start, limit))
            .collect();
        rows.sort_unstable_by_key(|(key, _)| *key);
        rows.truncate(limit);
        rows.into_iter()
            .map(|(key, value)| Row {
                key: key.to_vec(),
                value: value.to_vec(),
            })
            .collect()
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
        for file in self.dfs.list("/hbase/wal")? {
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
        for status in self.dfs.list(&dir)? {
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
        // and writes every edit of the bucket no written store file holds
        // as a store file, so nothing is lost when another server recovers
        // the bucket; its floor holds its segments until that file is
        // written.
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
            let (floor, seq) = (region.floor(), region.next_seq - 1);
            let snapshot = Snapshot {
                cells: region.into_unflushed(),
                ..Snapshot::default()
            };
            let path = self.store_path(bucket, seq);
            let written =
                snapshot.cells.is_empty() || self.write_store_file(path, bucket, &snapshot).is_ok();
            if let Some(floor) = floor.filter(|_| written) {
                let mut handed_off = self.handed_off.lock();
                if let Some(at) = handed_off.iter().position(|f| *f == floor) {
                    handed_off.swap_remove(at);
                }
            }
        }
        self.retire_segments();
    }
}

/// Row keys this long or shorter are read onto the stack.
const SHORT_KEY: usize = 64;

/// A request's row key, copied out of the frame: onto the stack when it is
/// as short as row keys are, so that an edit of a row the memstore holds
/// allocates nothing for its key.
enum RowKey {
    Short(u8, [u8; SHORT_KEY]),
    Long(Vec<u8>),
}

impl RowKey {
    fn read(input: &mut dyn DataInput) -> io::Result<RowKey> {
        let mut key = RowKey::Short(0, [0; SHORT_KEY]);
        input.with_len_bytes(&mut |bytes| {
            key = match bytes.len() {
                len @ 0..=SHORT_KEY => {
                    let mut short = [0; SHORT_KEY];
                    short[..len].copy_from_slice(bytes);
                    RowKey::Short(len as u8, short)
                }
                _ => RowKey::Long(bytes.to_vec()),
            }
        })?;
        Ok(key)
    }
}

impl std::ops::Deref for RowKey {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            RowKey::Short(len, short) => &short[..*len as usize],
            RowKey::Long(key) => key,
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
        let err = |e: io::Error| e.to_string();
        match method {
            "put" => {
                let key = RowKey::read(param).map_err(err)?;
                let mut value = None;
                param
                    .with_len_bytes(&mut |bytes| value = Some(Arc::from(bytes)))
                    .map_err(err)?;
                self.state
                    .put(&key, value.ok_or("a put without its value")?)?;
                Ok(Box::new(Acked))
            }
            "get" => {
                let mut value = Ok(None);
                param
                    .with_len_bytes(&mut |key| value = self.state.get(key))
                    .map_err(err)?;
                Ok(Box::new(SharedValue(value?)))
            }
            "delete" => {
                let key = RowKey::read(param).map_err(err)?;
                Ok(Box::new(BooleanWritable(self.state.edit(&key, None)?)))
            }
            "scan" => {
                let start = param.read_len_bytes().map_err(err)?;
                let limit = param.read_vint().map_err(err)? as u32;
                Ok(Box::new(self.state.scan(&start, limit as usize)))
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

    /// Bytes of carried rows in the store files written: the store files'
    /// write amplification beyond the memstores flushed.
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

    /// A stored value.
    fn shared(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    fn put(region: &mut Region, key: &[u8], value: &[u8]) {
        region.apply(key, Some(shared(value)), 0);
    }

    fn delete(region: &mut Region, key: &[u8]) {
        region.apply(key, None, 0);
    }

    /// A flush's store file serialized as `RsState::write_store_file`
    /// does, its carried rows read from `region`: the file's bytes, and
    /// the file its write returns.
    fn serialized(
        region: &Region,
        path: &str,
        snapshot: &Snapshot,
    ) -> (Vec<u8>, Option<StoreFile>) {
        let mut buf = Vec::new();
        let (seqs, _) = serialize(snapshot, &mut buf, |rows, buf| region.write_rows(rows, buf));
        let file = StoreFile::new(path.to_string(), buf.len(), seqs);
        (buf, Some(file))
    }

    fn written(region: &Region, path: &str, snapshot: &Snapshot) -> Option<StoreFile> {
        serialized(region, path, snapshot).1
    }

    /// Flush the memstore, its edits logged in WAL segment `open` or
    /// before, and install it as the file at `path`.
    fn flush_at(region: &mut Region, path: &str, open: u64) -> Vec<String> {
        let (seq, snapshot) = region.begin_flush(open);
        let file = written(region, path, &snapshot);
        region.finish_flush(seq, file)
    }

    /// The keys a flush carries.
    fn carried(snapshot: &Snapshot) -> Vec<&[u8]> {
        snapshot
            .carried
            .iter()
            .map(|(key, _)| key.as_slice())
            .collect()
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
        assert_eq!(read(&region, b"a"), Some(shared(b"a2")));
        assert_eq!(read(&region, b"b"), Some(shared(b"b1")));
        assert_eq!(read(&region, b"c"), Some(shared(b"c3")));

        // The newest two writes return first: they wait behind flush 1.
        let file = |name: &str| Some(StoreFile::new(name.to_string(), 100, (1, 4)));
        region.finish_flush(third, file("third"));
        region.finish_flush(second, file("second"));
        assert!(region.flushed.is_empty(), "installed ahead of flush 1");
        assert_eq!(read(&region, b"a"), Some(shared(b"a2")));

        // Flush 1 lands last — and must not resurrect a1 over a2.
        region.finish_flush(first, file("first"));
        assert!(region.flushing.is_empty());
        assert_eq!(region.flushed.len(), 3);
        assert_eq!(read(&region, b"a"), Some(shared(b"a2")));
        assert_eq!(read(&region, b"b"), Some(shared(b"b1")));
        assert_eq!(read(&region, b"c"), Some(shared(b"c3")));
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
        let (second, snapshot) = region.begin_flush(0);
        assert_eq!(region.get(b"a"), None, "and does so mid-flush");
        assert_eq!(
            snapshot.cells[&b"a".to_vec()],
            Cell {
                seq: 2,
                value: None
            }
        );
        // The put's file holds nothing live once the tombstone installs:
        // it is deleted. The tombstone stays, live in its own file, while
        // the WAL may still hold the put.
        let file = written(&region, "second", &snapshot);
        let dead = region.finish_flush(second, file);
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
        assert_eq!(region.get(b"b"), Some(&shared(b"b2")));
        assert_table_matches_rows(&region);

        // A row put again after its tombstone went is born again.
        put(&mut region, b"a", b"a3");
        flush_at(&mut region, "f4", 4);
        assert_eq!(region.flushed[&b"a".to_vec()].born, 5);
    }

    #[test]
    fn a_tombstone_a_failed_flush_left_in_the_wal_is_dropped_once_carried() {
        let mut region = Region::new();
        put(&mut region, b"a", b"a1");
        flush_at(&mut region, "f1", 1);
        delete(&mut region, b"a");
        // The put's file goes: the pinned WAL holds the newer edit.
        let (failed, _) = region.begin_flush(2);
        assert_eq!(region.finish_flush(failed, None), ["f1"]);
        assert!(region.tombstones.is_empty(), "no store file holds it");
        // The next flush carries it; once segment 3 is deleted, nothing
        // older of `a` remains.
        put(&mut region, b"b", b"b1");
        flush_at(&mut region, "f3", 3);
        assert_eq!(region.floor(), None);
        assert_eq!(region.drop_tombstones(3), Vec::<String>::new());
        assert!(region.flushed.contains_key(b"a".as_slice()));
        assert_eq!(region.drop_tombstones(4), Vec::<String>::new());
        assert!(!region.flushed.contains_key(b"a".as_slice()));
        assert_eq!(region.get(b"b"), Some(&shared(b"b1")));
        assert_table_matches_rows(&region);
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
            region.apply(key, Some(shared(b"v")), segment);
        };
        assert_eq!(region.floor(), None);
        edit(&mut region, b"a", 3);
        edit(&mut region, b"b", 4);
        assert_eq!(region.floor(), Some(3), "the memstore's oldest edit");
        let (first, one) = region.begin_flush(4);
        edit(&mut region, b"c", 5);
        let (second, two) = region.begin_flush(5);
        edit(&mut region, b"d", 6);
        assert_eq!(region.floor(), Some(3), "a flush in flight holds its own");
        // Written out of order: the older flush still holds segment 3.
        let file = written(&region, "second", &two);
        region.finish_flush(second, file);
        assert_eq!(region.floor(), Some(3));
        let file = written(&region, "first", &one);
        region.finish_flush(first, file);
        assert_eq!(region.floor(), Some(6), "the memstore's");
        // A flush whose store file was not written pins its floor: its
        // rows are installed, and only the WAL holds them.
        let (third, _) = region.begin_flush(6);
        region.finish_flush(third, None);
        assert_eq!(region.get(b"d"), Some(&shared(b"v")));
        assert_eq!(region.flushed[&b"d".to_vec()].file, None);
        edit(&mut region, b"e", 9);
        assert_eq!(region.floor(), Some(6));
        // Until the next flush, which carries them, is written.
        let (fourth, snapshot) = region.begin_flush(9);
        assert_eq!(carried(&snapshot), [b"d"]);
        assert_eq!(region.floor(), Some(6));
        let file = written(&region, "fourth", &snapshot);
        region.finish_flush(fourth, file);
        assert_eq!(region.floor(), None);
        assert!(region.flushed[&b"d".to_vec()].file.is_some());
    }

    #[test]
    fn a_flush_begun_before_a_failed_flush_installed_keeps_the_pin() {
        let mut region = Region::new();
        let edit = |region: &mut Region, key: &[u8], segment: u64| {
            region.apply(key, Some(shared(b"v")), segment);
        };
        edit(&mut region, b"a", 1);
        let (first, _) = region.begin_flush(1);
        edit(&mut region, b"b", 2);
        let (second, snapshot) = region.begin_flush(2);
        // The first fails once the second has begun: the second did not
        // carry `a`, so its written file releases nothing.
        region.finish_flush(first, None);
        let file = written(&region, "second", &snapshot);
        region.finish_flush(second, file);
        assert_eq!(region.floor(), Some(1), "a is in no store file");
        assert_eq!(region.flushed[&b"a".to_vec()].file, None);
        // The next flush carries `a`.
        edit(&mut region, b"c", 3);
        flush_at(&mut region, "third", 3);
        assert_eq!(region.floor(), None);
        assert!(region.flushed[&b"a".to_vec()].file.is_some());
        assert_table_matches_rows(&region);
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
    fn a_flush_carries_the_live_rows_of_files_under_half_live_and_frees_them() {
        let mut region = a_region_due_for_cleaning();
        put(&mut region, b"n", b"new");
        let (seq, snapshot) = region.begin_flush(0);
        assert_eq!(
            carried(&snapshot),
            [b"x", b"y", b"z"],
            "the live rows of f1 to f3"
        );
        // A second flush begun while a carrying flush is in flight
        // carries nothing.
        put(&mut region, b"m", b"new");
        let (next, beside) = region.begin_flush(0);
        assert!(beside.carried.is_empty());

        let (data, file) = serialized(&region, "f5", &snapshot);
        assert_eq!(parse_entries(&data).len(), 4, "n, and the three carried");
        assert_eq!(region.finish_flush(seq, file), ["f1", "f2", "f3"]);
        let file = written(&region, "f6", &beside);
        assert_eq!(region.finish_flush(next, file), Vec::<String>::new());
        let (files, held, live) = region.store_bytes();
        assert_eq!(files, 3, "f4, f5 and f6");
        assert!(held <= 2 * live, "{held} held, {live} live");
        assert_eq!(region.get(b"x"), Some(&shared(b"cold")));
        assert_table_matches_rows(&region);
    }

    #[test]
    fn a_carrying_flush_whose_write_failed_deletes_nothing_and_the_next_carries_again() {
        let mut region = a_region_due_for_cleaning();
        put(&mut region, b"n", b"new");
        let (seq, snapshot) = region.begin_flush(0);
        assert_eq!(region.finish_flush(seq, None), Vec::<String>::new());
        assert_eq!(region.store_bytes().0, 4);
        assert_table_matches_rows(&region);
        put(&mut region, b"m", b"new");
        let (_, again) = region.begin_flush(0);
        // Tried again, with the failed flush's row, which only the WAL holds.
        assert_eq!(carried(&snapshot), [b"x", b"y", b"z"]);
        assert_eq!(carried(&again), [b"n".as_slice(), b"x", b"y", b"z"]);
    }

    /// A flush begun: its sequence number and its snapshot.
    type Begun = (u64, Arc<Snapshot>);

    /// A region due for cleaning whose carrying flush failed, a flush that
    /// replaces `x` in flight, and a flush begun after them that carries
    /// `x` at its older edit: (the flush holding `x`'s newer edit, the
    /// carrying flush).
    fn a_carried_row_an_older_flush_replaces() -> (Region, Begun, Begun) {
        let mut region = a_region_due_for_cleaning();
        put(&mut region, b"n", b"new");
        let (failed, _) = region.begin_flush(0);
        put(&mut region, b"x", b"newer");
        let older = region.begin_flush(0);
        assert!(older.1.carried.is_empty(), "a carrying flush is in flight");
        region.finish_flush(failed, None);
        put(&mut region, b"m", b"new");
        let carrying = region.begin_flush(0);
        assert_eq!(carried(&carrying.1), [b"n".as_slice(), b"x", b"y", b"z"]);
        (region, older, carrying)
    }

    #[test]
    fn a_row_an_older_flush_replaces_while_it_is_carried_keeps_its_newer_file() {
        let (mut region, (older, snapshot), (seq, carrying)) =
            a_carried_row_an_older_flush_replaces();
        // The carrying file is written with `x`'s old edit; then the older
        // flush, which holds the newer one, installs.
        let (_, file) = serialized(&region, "f7", &carrying);
        let newer = written(&region, "f6", &snapshot);
        assert_eq!(region.finish_flush(older, newer), ["f1"]);
        let newer = region.flushed[&b"x".to_vec()].file;

        // `x` is not re-pointed at the carrying file, whose copy is older,
        // so neither f6 nor the value goes.
        let dead = region.finish_flush(seq, file);
        assert_eq!(dead, ["f2", "f3"], "f6 holds x's newest edit");
        assert_eq!(region.flushed[&b"x".to_vec()].file, newer);
        assert_eq!(region.get(b"x"), Some(&shared(b"newer")));
        assert_eq!(region.floor(), None, "n is in f7");
        assert_table_matches_rows(&region);
    }

    #[test]
    fn a_row_replaced_before_its_rows_are_serialized_is_left_out() {
        let (mut region, (older, snapshot), (seq, carrying)) =
            a_carried_row_an_older_flush_replaces();
        let newer = written(&region, "f6", &snapshot);
        region.finish_flush(older, newer);
        let (data, file) = serialized(&region, "f7", &carrying);
        let written: Vec<Vec<u8>> = parse_entries(&data).into_iter().map(|(k, _)| k).collect();
        let keys: [&[u8]; 4] = [b"m", b"n", b"y", b"z"];
        assert_eq!(written, keys);
        region.finish_flush(seq, file);
        assert_eq!(region.get(b"x"), Some(&shared(b"newer")));
        assert_table_matches_rows(&region);
    }

    #[test]
    fn a_flush_that_returns_after_its_region_moved_deletes_nothing() {
        let mut region = a_region_due_for_cleaning();
        put(&mut region, b"n", b"new");
        let (seq, snapshot) = region.begin_flush(0);
        let file = written(&region, "f5", &snapshot);
        // The bucket was handed off and hosted here again: a new region.
        let mut again = a_region_due_for_cleaning();
        assert_eq!(again.finish_flush(seq, file), Vec::<String>::new());
        assert_eq!(again.store_bytes().0, 4);
        assert!(again.flushing.is_empty() && !again.flushed.contains_key(b"n".as_slice()));
    }

    /// The rows a scan found before it merged layers in key order: every
    /// key ≥ `start` of every layer, the newest layer's edit of each, the
    /// visible ones, the first `limit` of them.
    fn scan_every_row(region: &Region, start: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let from = (Bound::Included(start), Bound::Unbounded);
        let mut current: BTreeMap<&Vec<u8>, Option<&Arc<[u8]>>> = BTreeMap::new();
        for cells in region.unflushed() {
            for (k, cell) in cells.range::<[u8], _>(from) {
                current.entry(k).or_insert(cell.value.as_ref());
            }
        }
        for (k, row) in region.flushed.range::<[u8], _>(from) {
            current.entry(k).or_insert(row.cell.value.as_ref());
        }
        let mut rows: Vec<_> = current
            .into_iter()
            .filter_map(|(k, v)| Some((k.clone(), v?.to_vec())))
            .collect();
        rows.truncate(limit);
        rows
    }

    #[test]
    fn a_scan_merges_the_layers_as_reading_every_row_did() {
        let mut region = Region::new();
        let key = |i: u64| format!("k{:02}", i % 30).into_bytes();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut in_flight = Vec::new();
        for round in 0..8 {
            for _ in 0..25 {
                let r = next();
                if r % 4 == 0 {
                    delete(&mut region, &key(r >> 8));
                } else {
                    put(&mut region, &key(r >> 8), format!("v{r}").as_bytes());
                }
            }
            // Some memstores are flushed, some left in flight, the last
            // left in the memstore.
            match round % 3 {
                0 => {
                    flush(&mut region, &format!("f{round}"));
                }
                1 if round < 7 => in_flight.push(region.begin_flush(0)),
                _ => {}
            }
        }
        // Flushes written behind one in flight wait in `flushing` too.
        assert!(!region.memstore.is_empty() && !region.flushed.is_empty());
        assert_eq!(region.flushing.len(), 4);
        let tombstones = |cells: &Cells| cells.values().filter(|c| c.value.is_none()).count();
        assert!(region.unflushed().map(tombstones).sum::<usize>() > 0);
        assert!(region.flushed.values().any(|row| row.cell.value.is_none()));

        for start in ["", "k00", "k07", "k13", "k131", "k29", "k3", "z"] {
            for limit in [0, 1, 2, 5, 10, 30, 100] {
                let want = scan_every_row(&region, start.as_bytes(), limit);
                let got: Vec<(Vec<u8>, Vec<u8>)> = region
                    .scan(start.as_bytes(), limit)
                    .into_iter()
                    .map(|(k, v)| (k.to_vec(), v.to_vec()))
                    .collect();
                assert_eq!(got, want, "scan from {start:?}, limit {limit}");
            }
        }
        for (seq, snapshot) in in_flight {
            let file = written(&region, "late", &snapshot);
            region.finish_flush(seq, file);
        }
        let want = scan_every_row(&region, b"", 100);
        assert_eq!(region.scan(b"", 100).len(), want.len());
    }

    #[test]
    fn entry_format_roundtrips_and_tolerates_truncation() {
        let cell = |seq, value: Option<&[u8]>| Cell {
            seq,
            value: value.map(shared),
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
