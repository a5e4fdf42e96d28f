//! What the operation plane allocates per operation, process-wide.
//!
//! A get's and a put's request is serialized from the caller's borrowed
//! key and value; the region server looks a get's key up where the
//! request landed, copies a put's value once into the allocation that
//! stores it, and replies to a get with that stored value shared, to a
//! put with a value of no size. What is left is one allocation per get on
//! each side — the value the client hands back, the boxed reply — and, per
//! put, the value the region server keeps and the key of a row new to its
//! memstore.
//!
//! A scan copies only the rows it returns: its allocations do not grow
//! with the rows stored past its start.
//!
//! A file of its own because the counting allocator is process-wide; its
//! tests serialize on one lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mini_hbase::{HBaseClient, HBaseConfig, MiniHbase};
use simnet::model;

/// Counts allocations on every thread while switched on, outside
/// `simnet::hw_scope` (the NIC/DMA model's staging copies).
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) && !simnet::in_hw_scope() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// What every thread of the process allocated running `f`, and how long
/// it took.
fn counted(f: impl FnOnce()) -> (u64, f64) {
    let start = Instant::now();
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        start.elapsed().as_secs_f64(),
    )
}

fn key(i: usize) -> Vec<u8> {
    format!("row{i:05}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    let mut value = format!("value-{i}").into_bytes();
    value.resize(1024, b'.');
    value
}

fn cluster() -> (MiniHbase, HBaseClient) {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 1, HBaseConfig::all_ib()).unwrap();
    let client = hbase.client().unwrap();
    (hbase, client)
}

/// What a window of `seconds` may hold beside its operations: the
/// cluster's own periodic work — the region server's and the DataNodes'
/// heartbeats — allocates at most about 150 times a second idle, and up
/// to 40 in one 50 ms window (counted on a 2-vCPU host). Twice the rate,
/// and half again the burst.
fn heartbeat_slack(seconds: f64) -> u64 {
    (300.0 * seconds) as u64 + 60
}

#[test]
fn a_get_and_a_put_allocate_at_most_two_each() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (hbase, client) = cluster();
    const KEYS: usize = 200;
    const OPS: usize = 1000;
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
    let values: Vec<Vec<u8>> = (0..OPS).map(value).collect();
    // Until the WAL's and the store files' buffers have grown to their
    // largest and the operation plane's retry cache has stopped growing
    // its bookkeeping.
    for (i, value) in values.iter().cycle().take(4 * OPS).enumerate() {
        client.put(&keys[i % KEYS], value).unwrap();
        client.get(&keys[i % KEYS]).unwrap();
    }

    let mut got = Vec::with_capacity(OPS);
    let (allocs, seconds) = counted(|| {
        for i in 0..OPS {
            got.push(client.get(&keys[i % KEYS]).unwrap());
        }
    });
    let slack = heartbeat_slack(seconds);
    assert!(
        allocs <= 2 * OPS as u64 + slack,
        "{OPS} gets allocated {allocs} times in {seconds:.3} s (slack {slack})"
    );
    assert!(got.iter().all(Option::is_some));

    // 1 000 puts of 1 KiB roll the WAL eight times and flush the memstore
    // four times: those are in the count.
    let (allocs, seconds) = counted(|| {
        for (i, value) in values.iter().enumerate() {
            client.put(&keys[i % KEYS], value).unwrap();
        }
    });
    let slack = heartbeat_slack(seconds);
    assert!(
        allocs <= 2 * OPS as u64 + slack,
        "{OPS} puts allocated {allocs} times in {seconds:.3} s (slack {slack})"
    );
    let last = OPS - KEYS;
    assert_eq!(client.get(&keys[0]).unwrap(), Some(values[last].clone()));
    client.shutdown();
    hbase.stop();
}

/// Allocations per 10-row scan from the first stored row, over `SCANS`.
fn scan_allocs(client: &HBaseClient) -> (f64, f64) {
    const SCANS: usize = 20;
    let (allocs, seconds) = counted(|| {
        for _ in 0..SCANS {
            let rows = client.scan(b"row", 10).unwrap();
            assert_eq!(rows.len(), 10);
            assert_eq!(rows[0].key, key(0));
        }
    });
    (allocs as f64 / SCANS as f64, seconds)
}

#[test]
fn a_scan_allocates_for_the_rows_it_returns_not_for_the_rows_stored() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (hbase, client) = cluster();
    for i in 0..200 {
        client.put(&key(i), &value(i)).unwrap();
    }
    scan_allocs(&client);
    let (over_200, _) = scan_allocs(&client);
    // Past two memstore flushes: rows in the memstore and the block cache.
    for i in 200..2000 {
        client.put(&key(i), &value(i)).unwrap();
    }
    scan_allocs(&client);
    let (over_2000, seconds) = scan_allocs(&client);
    // Per scan: a few for a merge buffer that grew further, and the heartbeats.
    let slack = 4.0 + heartbeat_slack(seconds) as f64 / 20.0;
    assert!(
        over_2000 <= over_200 + slack,
        "a 10-row scan allocates {over_2000} times over 2 000 rows, {over_200} over 200"
    );
    client.shutdown();
    hbase.stop();
}
