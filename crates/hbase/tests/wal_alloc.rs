//! A region server's put path grows no buffer in steady state. The WAL
//! buffer used to be `mem::take`n to empty at every roll and re-grown by
//! doubling — five reallocations past 16 KiB, 496 KiB requested, per
//! 128 KiB segment — and a store file was built the same way; the
//! DataNodes under them grew each block from empty. Now a roll swaps in
//! the buffer the previous roll handed back, a store file is reserved at
//! its exact size, and a block at its announced length. (Process-wide
//! over 1 000 puts of 1 KiB: 73 reallocations past 16 KiB before, none
//! now.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mini_hbase::{HBaseConfig, MiniHbase};
use simnet::model;

/// A buffer growing past this is a WAL segment, a store file or a block
/// being rebuilt: nothing else on the put path reallocates near it.
const LARGE: usize = 16 * 1024;

/// Counts reallocations to `LARGE` or more, on every thread, outside
/// `simnet::hw_scope`.
struct LargeGrowth;

static GROWN: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargeGrowth {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE && !simnet::in_hw_scope() {
            GROWN.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargeGrowth = LargeGrowth;

#[test]
fn a_thousand_puts_grow_no_wal_buffer_and_every_get_sees_the_last_put() {
    let cfg = HBaseConfig::all_ib();
    let rolls = |puts: usize| puts * 1024 / cfg.wal_roll_bytes;
    let hbase = MiniHbase::start(model::IPOIB_QDR, 1, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let mut put_and_get = |i: usize| {
        let key = format!("row{:03}", i % 200).into_bytes();
        let mut value = format!("value-{i}").into_bytes();
        value.resize(1024, b'.');
        client.put(&key, &value).unwrap();
        // Whether or not this put rolled the WAL or flushed the memstore.
        assert_eq!(client.get(&key).unwrap(), Some(value), "put {i}");
    };
    // Until a roll has handed its buffer back to the next one, and until
    // the operation plane's retry cache (8 192 responses, two per round
    // here) has stopped growing its own bookkeeping.
    const WARM_UP: usize = 4200;
    assert!(rolls(WARM_UP) >= 3);
    (0..WARM_UP).for_each(&mut put_and_get);
    let before = GROWN.load(Ordering::Relaxed);
    (WARM_UP..WARM_UP + 1000).for_each(&mut put_and_get);
    let grown = GROWN.load(Ordering::Relaxed) - before;
    assert!(rolls(1000) >= 7);
    assert_eq!(grown, 0, "large reallocations over 1 000 puts");
    client.shutdown();
    hbase.stop();
}
