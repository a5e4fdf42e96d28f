//! What writing a file asks of the allocator on the client side. A
//! region server rolls a 128 KiB WAL segment every 125 puts; staging each
//! through a writer that reserved a whole 2 MiB block up front was 2 MiB
//! requested (mapped, faulted, unmapped) per 128 KiB written.
//! `write_file` cuts the caller's slice into blocks where it lies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mini_hdfs::{HdfsConfig, MiniDfs};
use simnet::model;

/// Passes every request through, adding up what the current thread asks
/// for.
struct RequestedBytes;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: the allocator also runs during TLS setup and teardown.
    let _ = REQUESTED.try_with(|bytes| bytes.set(bytes.get() + size));
}

unsafe impl GlobalAlloc for RequestedBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: RequestedBytes = RequestedBytes;

/// Writing a 128 KiB file with the default 2 MiB block asks the caller's
/// thread for less than twice the file's size on HDFSoIB (packets are
/// serialized into pooled registered memory), and for far less than a
/// block on the socket data plane (whose transport stages every 64 KiB
/// packet in a heap buffer it grows by doubling — the baseline's own
/// cost, 2.2 × the file).
#[test]
fn writing_a_small_file_requests_less_than_twice_its_size() {
    const FILE: usize = 128 * 1024;
    for (cfg, net, bound) in [
        (HdfsConfig::all_ib(), model::IB_QDR_VERBS, 2 * FILE),
        (HdfsConfig::socket(), model::IPOIB_QDR, 3 * FILE),
    ] {
        assert!(bound < cfg.block_size);
        let dfs = MiniDfs::start(net, 3, cfg).unwrap();
        let client = dfs.client().unwrap();
        let data = vec![0x5a_u8; FILE];
        // Until every DataNode has headed a pipeline: a first connection
        // to one registers its regions on this thread.
        for i in 0..8 {
            client.write_file(&format!("/warm{i}"), &data).unwrap();
        }
        let before = REQUESTED.with(Cell::get);
        client.write_file("/segment", &data).unwrap();
        let requested = REQUESTED.with(Cell::get) - before;
        assert!(
            requested < bound,
            "a {FILE}-byte file made its writer request {requested} bytes (bound {bound})"
        );
        assert_eq!(client.read_file("/segment").unwrap(), data);
        dfs.stop();
    }
}
