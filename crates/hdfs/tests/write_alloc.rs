//! What writing a file asks of the allocator. A region server rolls a
//! 128 KiB WAL segment every 125 puts, so this is the application tier's
//! steady state.
//!
//! *The writer's thread.* Staging each file through a writer that
//! reserved a whole 2 MiB block up front was 2 MiB requested (mapped,
//! faulted, unmapped) per 128 KiB written; `write_file` cuts the caller's
//! slice into blocks where it lies, and a packet goes to the transport as
//! a 9-byte lead plus the borrowed chunk instead of being staged in a
//! `DataOutputBuffer` grown by doubling (sockets: 282 236 → 142 190 B per
//! 128 KiB file; what is left is simnet's staging, which this
//! thread-local count does not skip).
//!
//! *The whole process* — three DataNodes included, `simnet::hw_scope`
//! skipped as `benchmark/src/host.rs` skips it. A replica's bytes are
//! allocated once: the `WRITE` header sizes the block, each packet is
//! appended to it from the wire buffer and forwarded from there. Per
//! 128 KiB file, as multiples of the 3 × 128 KiB the replicas keep:
//!
//! | data plane | before | now | what is left |
//! |---|---|---|---|
//! | HDFSoIB | 2.50 × (983 829 B) | 1.00 × (394 005 B) | the stored blocks |
//! | sockets | 4.68 × (1 840 317 B) | 2.11 × (830 355 B) | the blocks + the socket transport's per-message receive buffer (the baseline's own) |
//!
//! (Before: a `Vec` per packet out of `read_len_bytes`, a block `Vec`
//! grown by doubling from empty, a staged packet per hop.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use mini_hdfs::{HdfsConfig, MiniDfs};
use simnet::model;

/// Passes every request through, adding up what the current thread asks
/// for and — outside `simnet::hw_scope` — what the process does.
struct RequestedBytes;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

static PROCESS: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    // `try_with`: the allocator also runs during TLS setup and teardown.
    let _ = REQUESTED.try_with(|bytes| bytes.set(bytes.get() + size));
    if !simnet::in_hw_scope() {
        PROCESS.fetch_add(size, Ordering::Relaxed);
    }
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

/// One test, so nothing else in the process allocates beside it: writing
/// a 128 KiB file with the default 2 MiB block to three replicas.
#[test]
fn a_small_file_is_allocated_once_per_replica() {
    const FILE: usize = 128 * 1024;
    const REPLICAS: usize = 3;
    for (cfg, net, writer_bound, process_bound) in [
        (
            HdfsConfig::all_ib(),
            model::IB_QDR_VERBS,
            2 * FILE,
            REPLICAS * FILE * 5 / 4,
        ),
        (
            HdfsConfig::socket(),
            model::IPOIB_QDR,
            FILE * 5 / 4,
            REPLICAS * FILE * 5 / 2,
        ),
    ] {
        assert!(writer_bound < cfg.block_size && cfg.replication == REPLICAS);
        let dfs = MiniDfs::start(net, REPLICAS, cfg).unwrap();
        let client = dfs.client().unwrap();
        let data = vec![0x5a_u8; FILE];
        // Until every DataNode has headed a pipeline: a first connection
        // to one registers its regions on this thread.
        for i in 0..8 {
            client.write_file(&format!("/warm{i}"), &data).unwrap();
        }
        // The least of three files: a heartbeat, or a pipeline order the
        // warm-up never saw (one DataNode late for a heartbeat reorders
        // them), can only add to a count.
        let (writer, process) = (0..3)
            .map(|i| {
                let before = (REQUESTED.with(Cell::get), PROCESS.load(Ordering::Relaxed));
                client.write_file(&format!("/segment{i}"), &data).unwrap();
                (
                    REQUESTED.with(Cell::get) - before.0,
                    PROCESS.load(Ordering::Relaxed) - before.1,
                )
            })
            .reduce(|a, b| (a.0.min(b.0), a.1.min(b.1)))
            .expect("three files");
        assert!(
            writer < writer_bound,
            "a {FILE}-byte file made its writer request {writer} bytes (bound {writer_bound})"
        );
        assert!(
            process < process_bound,
            "a {FILE}-byte file made the process request {process} bytes (bound {process_bound})"
        );
        assert_eq!(client.read_file("/segment2").unwrap(), data);
        dfs.stop();
    }
}
