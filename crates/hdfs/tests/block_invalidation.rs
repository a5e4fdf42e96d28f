//! A deleted block is freed. `delete` and `abandonBlock` have every
//! DataNode holding one of the removed blocks drop its replica at its next
//! heartbeat (`DnCommand::Invalidate`); a late `blockReceived` or a block
//! report naming a block the NameNode issued and has since forgotten gets
//! that replica dropped instead of bringing the block back into the map.
//! A block the NameNode never issued is tracked as reported.
//! (A file of its own because the largest-allocation allocator below is
//! process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use mini_hdfs::dataxfer::{recv_frame, send_transfer, DataConnPool, DataFrame, Opening, ACK_OK};
use mini_hdfs::types::{AddBlockArgs, BlockReceivedArgs, BlockReportArgs, DnCommand};
use mini_hdfs::{DfsClient, HdfsConfig, HostNet, LocatedBlock, MiniDfs};
use simnet::{model, Host};
use wire::{BooleanWritable, IntWritable, LongWritable, NullWritable, Text};

/// Records the largest request each thread makes, on that thread.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

const CLIENT: &str = "hdfs.ClientProtocol";
const DATANODE: &str = "hdfs.DatanodeProtocol";

/// Four DataNodes heartbeating every 50 ms, 64 KiB blocks.
fn start() -> (MiniDfs, DfsClient) {
    let mut cfg = HdfsConfig::socket();
    cfg.heartbeat = Duration::from_millis(50);
    cfg.block_size = 64 * 1024;
    let dfs = MiniDfs::start(model::IPOIB_QDR, 4, cfg).unwrap();
    let client = dfs.client().unwrap();
    (dfs, client)
}

/// Replicas and bytes held, summed over the DataNodes.
fn held(dfs: &MiniDfs) -> (usize, usize) {
    let each = dfs
        .datanodes()
        .iter()
        .map(|dn| (dn.block_count(), dn.used_bytes()));
    each.fold((0, 0), |(n, b), (dn_n, dn_b)| (n + dn_n, b + dn_b))
}

/// Poll `done` for up to 200 heartbeats; `what` says what was awaited.
fn eventually(dfs: &MiniDfs, what: &str, done: impl Fn() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < dfs.config().heartbeat * 200,
            "{what}: not after {:?}",
            started.elapsed()
        );
        std::thread::sleep(dfs.config().heartbeat / 2);
    }
}

#[test]
fn a_deleted_files_replicas_are_freed_on_every_holder() {
    let (dfs, client) = start();
    let keep = vec![1u8; 5_000];
    client.write_file("/keep", &keep).unwrap();
    let kept = held(&dfs);
    assert_eq!(kept, (3, 3 * keep.len()));
    // Three blocks, and a second file in the same directory.
    client.mkdirs("/doomed").unwrap();
    client.write_file("/doomed/a", &vec![2u8; 150_000]).unwrap();
    client.write_file("/doomed/b", &[3u8; 10]).unwrap();
    let doomed: Vec<u64> = ["/doomed/a", "/doomed/b"]
        .iter()
        .flat_map(|path| client.get_block_locations(path).unwrap())
        .map(|lb| lb.block)
        .collect();
    assert_eq!(doomed.len(), 4);
    assert_eq!(held(&dfs), (kept.0 + 12, kept.1 + 3 * 150_010));

    assert!(client.delete("/doomed").unwrap());
    eventually(&dfs, "deleted replicas freed", || held(&dfs) == kept);
    for dn in dfs.datanodes() {
        for block in &doomed {
            assert_eq!(
                dn.block_is_intact(*block),
                None,
                "dn {} block {block}",
                dn.id()
            );
        }
    }
    let report = dfs.namenode().fsck();
    assert_eq!((report.files, report.directories), (1, 0));
    assert_eq!((report.blocks, report.empty_blocks), (1, 0));
    assert_eq!(report.total_bytes, keep.len() as u64);
    assert_eq!(client.read_file("/keep").unwrap(), keep);
    client.shutdown();
    dfs.stop();
}

#[test]
fn a_report_naming_a_deleted_block_does_not_bring_it_back() {
    let (dfs, client) = start();
    client.write_file("/keep", &[1u8; 1000]).unwrap();
    client.write_file("/gone", &[2u8; 1000]).unwrap();
    let gone = client.get_block_locations("/gone").unwrap()[0].clone();
    assert!(client.delete("/gone").unwrap());
    eventually(&dfs, "deleted replicas freed", || held(&dfs).0 == 3);
    let before = dfs.namenode().fsck();

    // The late word of one of its holders, after the deletion: as a block
    // received, and in a full report beside a block id never issued.
    let nn = dfs.nn_addr();
    let holder = gone.targets[0].id;
    let foreign = 9_000_000;
    let _: NullWritable = client
        .rpc()
        .call(
            nn,
            DATANODE,
            "blockReceived",
            &BlockReceivedArgs {
                dn_id: holder,
                block: gone.block,
                size: 1000,
            },
        )
        .unwrap();
    let _: NullWritable = client
        .rpc()
        .call(
            nn,
            DATANODE,
            "blockReport",
            &BlockReportArgs {
                dn_id: holder,
                blocks: vec![gone.block, foreign],
            },
        )
        .unwrap();
    let after = dfs.namenode().fsck();
    assert_eq!(
        (after.blocks, after.total_bytes),
        (before.blocks, before.total_bytes)
    );
    assert_eq!(
        after.empty_blocks,
        before.empty_blocks + 1,
        "only the foreign id is tracked"
    );
    assert_eq!(after.missing, 0);
    client.shutdown();
    dfs.stop();
}

#[test]
fn an_abandoned_pipelines_stored_replicas_are_freed() {
    let (dfs, client) = start();
    let nn = dfs.nn_addr();
    let path = "/abandoned";
    let _: BooleanWritable = client
        .rpc()
        .call(nn, CLIENT, "create", &(Text::from(path), IntWritable(3)))
        .unwrap();
    let args = AddBlockArgs {
        path: path.into(),
        exclude: Vec::new(),
    };
    let lb: LocatedBlock = client.rpc().call(nn, CLIENT, "addBlock", &args).unwrap();
    assert_eq!(lb.targets.len(), 3);

    // The whole pipeline stores the block; its writer abandons it anyway.
    let cfg = dfs.config();
    let host = HostNet::of(dfs.cluster(), Host(1), cfg);
    let pool = DataConnPool::new(&host.data_fabric, host.data_node, cfg.data_rpc_config()).unwrap();
    let conn = pool.checkout(lb.targets[0].xfer_addr()).unwrap();
    let data = vec![7u8; 40_000];
    let opening = Opening::Write {
        block: lb.block,
        len: data.len() as u64,
        targets: &lb.targets[1..],
    };
    send_transfer(conn.conn(), &opening, &data, cfg.chunk).unwrap();
    let ack = recv_frame(conn.conn(), Duration::from_secs(10));
    assert!(matches!(ack, Ok(DataFrame::Ack(ACK_OK))), "{ack:?}");
    drop(conn);
    assert_eq!(held(&dfs), (3, 3 * data.len()));

    let _: BooleanWritable = client
        .rpc()
        .call(
            nn,
            CLIENT,
            "abandonBlock",
            &(Text::from(path), LongWritable(lb.block as i64)),
        )
        .unwrap();
    eventually(&dfs, "abandoned replicas freed", || held(&dfs) == (0, 0));
    assert_eq!(dfs.namenode().fsck().blocks, 0);
    client.shutdown();
    dfs.stop();
}

#[test]
fn a_block_never_issued_survives_reports() {
    let (dfs, client) = start();
    client.write_file("/warm", &[1u8; 1000]).unwrap();
    let nodes = client.get_block_locations("/warm").unwrap()[0]
        .targets
        .clone();
    let cfg = dfs.config();
    let host = HostNet::of(dfs.cluster(), Host(1), cfg);
    let pool = DataConnPool::new(&host.data_fabric, host.data_node, cfg.data_rpc_config()).unwrap();
    let conn = pool.checkout(nodes[0].xfer_addr()).unwrap();
    let foreign = 7_000_001;
    let data = [5u8; 3000];
    let opening = Opening::Write {
        block: foreign,
        len: data.len() as u64,
        targets: &nodes[1..],
    };
    send_transfer(conn.conn(), &opening, &data, cfg.chunk).unwrap();
    let ack = recv_frame(conn.conn(), Duration::from_secs(10));
    assert!(matches!(ack, Ok(DataFrame::Ack(ACK_OK))), "{ack:?}");
    drop(conn);

    // Three full block reports (one every eight heartbeats) later.
    std::thread::sleep(cfg.heartbeat * 8 * 3);
    let holders = dfs
        .datanodes()
        .iter()
        .filter(|dn| dn.block_is_intact(foreign) == Some(true))
        .count();
    assert_eq!(holders, 3);
    assert_eq!(dfs.namenode().fsck().blocks, 2);
    client.shutdown();
    dfs.stop();
}

#[test]
fn a_hostile_block_count_is_an_error_sized_by_the_bytes_that_came() {
    // A count no bytes follow, or one below zero, in an invalidation and
    // in the block report whose bound it shares.
    for count in [i32::MAX, 1 << 20, -1, i32::MIN] {
        let mut invalidate = vec![2u8];
        wire::varint::write_vint(&mut invalidate, count).unwrap();
        let mut report = Vec::new();
        wire::varint::write_vint(&mut report, 1).unwrap();
        wire::varint::write_vint(&mut report, count).unwrap();
        LARGEST.with(|largest| largest.set(0));
        assert!(
            wire::from_bytes::<DnCommand>(&invalidate).is_err(),
            "{count}"
        );
        assert!(
            wire::from_bytes::<BlockReportArgs>(&report).is_err(),
            "{count}"
        );
        let largest = LARGEST.with(Cell::get);
        assert!(
            largest <= wire::io::LEN_BYTES_ON_TRUST,
            "count {count}: {largest} bytes at once"
        );
    }
}
