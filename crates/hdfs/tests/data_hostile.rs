//! The data-transfer protocol under a hostile peer, both data transports.
//! Every length on it is a peer's word — a packet's, a `WRITE` header's
//! target count and block length, a `SIZE` — so each is refused before it
//! sizes anything: the receiver answers `RpcError::Protocol` on its
//! broken-connection path, allocates nothing above `block_size`, does not
//! panic, and serves the next well-formed operation on a fresh
//! connection. And nothing but the announced length ends a transfer, so
//! a stream that overruns it, stops short of it, or stalls on empty
//! packets is refused and stores nothing.
//!
//! A hostile *client* speaks raw frames to a real DataNode; a hostile
//! *DataNode* (with a one-method NameNode pointing at it) answers a real
//! `DfsClient`. (A file of its own because the largest-allocation
//! allocator below is process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mini_hdfs::dataxfer::{
    recv_frame, send_ack, send_chunk, send_opening, send_transfer, DataConnPool, DataFrame,
    Opening, ACK_FAIL, ACK_OK, MAX_TARGETS, OP_DATA, OP_SIZE, OP_WRITE,
};
use mini_hdfs::{DatanodeInfo, DfsClient, HdfsConfig, HostNet, LocatedBlock, MiniDfs};
use rpcoib::intern::method_key;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::socket::SocketConn;
use rpcoib::transport::Conn;
use rpcoib::{RpcError, RpcService, Server, ServiceRegistry};
use simnet::{model, Cluster, Host, SimAddr, SimListener};
use wire::{DataInput, DataOutput, Writable};

/// Records the largest request any thread makes.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// `LARGEST` is the whole process's: a test that reads it must not run
/// beside another one's cluster start-up (which registers 4 MiB regions).
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

type Frame<'a> = &'a dyn Fn(&mut dyn DataOutput) -> io::Result<()>;

fn send_raw(conn: &Arc<dyn Conn>, frame: Frame<'_>) {
    conn.send_msg(method_key("hdfs.data", "hostile"), &mut |out| frame(out))
        .unwrap();
}

/// `[op][block][vlong len][vint n]`: a `WRITE` header naming no targets.
fn write_header(out: &mut dyn DataOutput, len: i64, targets: i32) -> io::Result<()> {
    out.write_u8(OP_WRITE)?;
    out.write_i64(7_000_000)?;
    out.write_vlong(len)?;
    out.write_vint(targets)
}

/// `[crc][len]` and then `body`: a packet whose length field is the
/// peer's to choose, as it rides a header.
fn riding_packet(out: &mut dyn DataOutput, crc: u32, len: i32, body: &[u8]) -> io::Result<()> {
    out.write_i32(crc as i32)?;
    out.write_i32(len)?;
    out.write_bytes(body)
}

/// The same packet as a `DATA` frame of its own.
fn data_packet(out: &mut dyn DataOutput, crc: u32, len: i32, body: &[u8]) -> io::Result<()> {
    out.write_u8(OP_DATA)?;
    riding_packet(out, crc, len, body)
}

fn both_planes() -> [(HdfsConfig, simnet::NetworkModel); 2] {
    [
        (HdfsConfig::all_ib(), model::IB_QDR_VERBS),
        (HdfsConfig::socket(), model::IPOIB_QDR),
    ]
}

#[test]
fn a_datanode_refuses_hostile_writes_and_keeps_serving() {
    let _alone = alone();
    for (cfg, net) in both_planes() {
        let dfs = MiniDfs::start(net, 3, cfg.clone()).unwrap();
        let client = dfs.client().unwrap();
        let data = vec![0x3c_u8; 100_000];
        client.write_file("/warm", &data).unwrap();
        let victim = client.get_block_locations("/warm").unwrap()[0].targets[0];
        let dn = dfs
            .datanodes()
            .iter()
            .find(|dn| dn.id() == victim.id)
            .unwrap();
        let stored = (dn.block_count(), dn.used_bytes());

        let host = HostNet::of(dfs.cluster(), Host(1), &cfg);
        let pool =
            DataConnPool::new(&host.data_fabric, host.data_node, cfg.data_rpc_config()).unwrap();
        let chunk = [9u8; 64];
        let crc = wire::crc32(&chunk);
        let mut flipped = chunk;
        flipped[20] ^= 0xff;
        let block_size = cfg.block_size as i64;
        // Each script is one connection's worth of frames; the DataNode
        // must fail every one of them.
        type Step = Box<dyn Fn(&mut dyn DataOutput) -> io::Result<()>>;
        type Script = Vec<Step>;
        // The first 64 of an announced 128 bytes, well formed: how each
        // mid-block script opens.
        let half_open = move || -> Step {
            Box::new(move |o| {
                write_header(o, 128, 0)?;
                riding_packet(o, crc, 64, &chunk)
            })
        };
        let scripts: Vec<(&str, Script)> = vec![
            (
                "negative target count",
                vec![Box::new(|o| write_header(o, 64, -1))],
            ),
            (
                "huge target count",
                vec![Box::new(|o| write_header(o, 64, i32::MAX))],
            ),
            (
                "one target too many",
                vec![Box::new(|o| write_header(o, 64, MAX_TARGETS as i32 + 1))],
            ),
            (
                "negative block length",
                vec![Box::new(|o| write_header(o, -1, 0))],
            ),
            (
                "a block of i64::MAX bytes",
                vec![Box::new(|o| write_header(o, i64::MAX, 0))],
            ),
            (
                "a block one byte longer than a block, its first packet riding",
                vec![Box::new(move |o| {
                    write_header(o, block_size + 1, 0)?;
                    riding_packet(o, crc, 64, &chunk)
                })],
            ),
            (
                "a first packet longer than its payload",
                vec![Box::new(move |o| {
                    write_header(o, 1 << 20, 0)?;
                    riding_packet(o, crc, 1 << 20, &chunk)
                })],
            ),
            (
                "a first packet of i32::MAX bytes",
                vec![Box::new(move |o| {
                    write_header(o, 1 << 20, 0)?;
                    riding_packet(o, crc, i32::MAX, &chunk)
                })],
            ),
            (
                "a first packet of negative length",
                vec![Box::new(move |o| {
                    write_header(o, 64, 0)?;
                    riding_packet(o, crc, -64, &chunk)
                })],
            ),
            (
                "a first packet longer than the announced block",
                vec![Box::new(move |o| {
                    write_header(o, 63, 0)?;
                    riding_packet(o, crc, 64, &chunk)
                })],
            ),
            (
                "DATA past the announced block",
                vec![
                    Box::new(move |o| {
                        write_header(o, 127, 0)?;
                        riding_packet(o, crc, 64, &chunk)
                    }),
                    Box::new(move |o| data_packet(o, crc, 64, &chunk)),
                ],
            ),
            (
                "a corrupted packet mid-block",
                vec![
                    half_open(),
                    Box::new(move |o| data_packet(o, crc, 64, &flipped)),
                ],
            ),
            (
                "an empty packet where bytes are due",
                vec![
                    half_open(),
                    Box::new(|o| data_packet(o, wire::crc32(&[]), 0, &[])),
                ],
            ),
            (
                "a block that stops short: another frame where DATA is due",
                vec![half_open(), Box::new(|o| write_header(o, 0, 0))],
            ),
        ];
        LARGEST.store(0, Ordering::Relaxed);
        for (what, frames) in &scripts {
            let mut conn = pool.checkout(victim.xfer_addr()).unwrap();
            conn.poison();
            for frame in frames {
                send_raw(conn.conn(), frame.as_ref());
            }
            let answer = recv_frame(conn.conn(), Duration::from_secs(10));
            assert!(
                matches!(answer, Ok(DataFrame::Ack(ACK_FAIL))),
                "{what}: {answer:?}"
            );
            assert_eq!((dn.block_count(), dn.used_bytes()), stored, "{what}");
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= cfg.block_size,
            "a hostile frame made the process allocate {largest} bytes at once"
        );

        // A stream that closes short of its block, with nobody left to
        // answer: the xceiver sees the close where a packet was due and
        // gives the half-filled replica up. (Sockets: a dropped queue
        // pair is silent, and its xceiver waits out `DATA_TIMEOUT`.)
        if !cfg.data_rdma {
            let mut conn = pool.checkout(victim.xfer_addr()).unwrap();
            conn.poison();
            send_raw(conn.conn(), half_open().as_ref());
            drop(conn);
        }

        // Every xceiver that met one is gone; the node is not.
        client.write_file("/after", &data).unwrap();
        assert_eq!(client.read_file("/after").unwrap(), data);
        assert_eq!(client.read_file("/warm").unwrap(), data);
        let stopping = std::time::Instant::now();
        dfs.stop();
        assert!(
            stopping.elapsed() < Duration::from_secs(10),
            "an xceiver was still waiting"
        );
        assert_eq!(dn.block_count(), stored.0 + 1, "only /after was stored");
    }
}

#[test]
fn a_datanode_takes_the_transfers_at_the_edges_of_the_protocol() {
    let _alone = alone();
    for (cfg, net) in both_planes() {
        let dfs = MiniDfs::start(net, 3, cfg.clone()).unwrap();
        let client = dfs.client().unwrap();
        client.write_file("/warm", &[1u8; 1000]).unwrap();
        let nodes = client.get_block_locations("/warm").unwrap()[0]
            .targets
            .clone();
        assert_eq!(nodes.len(), 3);
        let stored = || -> Vec<_> {
            let held = |dn: &mini_hdfs::DataNode| (dn.block_count(), dn.used_bytes());
            dfs.datanodes().iter().map(held).collect()
        };
        let before = stored();
        let host = HostNet::of(dfs.cluster(), Host(1), &cfg);
        let pool =
            DataConnPool::new(&host.data_fabric, host.data_node, cfg.data_rpc_config()).unwrap();
        let conn = pool.checkout(nodes[0].xfer_addr()).unwrap();
        let acked = || {
            let answer = recv_frame(conn.conn(), Duration::from_secs(20));
            assert!(matches!(answer, Ok(DataFrame::Ack(ACK_OK))), "{answer:?}");
        };

        // A block of no bytes: its header travels alone, and it is stored.
        let empty = Opening::Write {
            block: 7_000_001,
            len: 0,
            targets: &nodes[1..],
        };
        send_transfer(conn.conn(), &empty, &[], cfg.chunk).unwrap();
        acked();
        for (now, was) in stored().iter().zip(&before) {
            assert_eq!(*now, (was.0 + 1, was.1));
        }

        // The longest header the protocol allows, a full packet riding
        // it: still one message, delivered whichever way (eager or bulk)
        // the transport routes a frame that size, at every one of the
        // seventeen hops.
        let long: Vec<DatanodeInfo> = (1..=MAX_TARGETS).map(|hop| nodes[hop % 3]).collect();
        let data: Vec<u8> = (0..cfg.chunk).map(|i| (i % 253) as u8).collect();
        let full = Opening::Write {
            block: 7_000_002,
            len: data.len() as u64,
            targets: &long,
        };
        send_transfer(conn.conn(), &full, &data, cfg.chunk).unwrap();
        acked();
        for ((now, was), dn) in stored().iter().zip(&before).zip(dfs.datanodes()) {
            assert_eq!(*now, (was.0 + 2, was.1 + data.len()));
            assert_eq!(dn.block_is_intact(7_000_002), Some(true));
        }
        drop(conn);
        dfs.stop();
    }
}

/// `hdfs.ClientProtocol` with one method: every file is one block on the
/// hostile DataNode.
struct OneBlockNameNode {
    holder: DatanodeInfo,
}

impl RpcService for OneBlockNameNode {
    fn protocol(&self) -> &'static str {
        "hdfs.ClientProtocol"
    }
    fn call(
        &self,
        method: &str,
        _param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        assert_eq!(method, "getBlockLocations");
        Ok(Box::new(vec![LocatedBlock {
            block: 1,
            size: 64,
            targets: vec![self.holder],
        }]))
    }
}

#[test]
fn a_client_refuses_hostile_read_responses_and_keeps_reading() {
    let _alone = alone();
    for (cfg, net) in both_planes() {
        let cluster = Cluster::new(net, 3);
        let (nn, dn, me) = (
            HostNet::of(&cluster, Host(0), &cfg),
            HostNet::of(&cluster, Host(1), &cfg),
            HostNet::of(&cluster, Host(2), &cfg),
        );
        let dn_addr = SimAddr::new(dn.data_node, mini_hdfs::DATA_PORT);
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(OneBlockNameNode {
            holder: DatanodeInfo {
                id: 1,
                xfer_node: dn_addr.node.0,
                xfer_port: dn_addr.port,
            },
        }));
        let namenode = Server::start(
            &nn.rpc_fabric,
            nn.rpc_node,
            mini_hdfs::NN_PORT,
            cfg.rpc.clone(),
            registry,
        )
        .unwrap();

        let chunk = [5u8; 8];
        let crc = wire::crc32(&chunk);
        let block_size = cfg.block_size as u64;
        // What the DataNode answers a `READ` with, one connection each;
        // the last is well formed.
        type Answer = Box<dyn Fn(&Arc<dyn Conn>) + Send>;
        let size_then = |c: &Arc<dyn Conn>, size: u64, crc: u32, len: i32, body: &[u8]| {
            send_raw(c, &|o| {
                o.write_u8(OP_SIZE)?;
                o.write_u64(size)?;
                riding_packet(o, crc, len, body)
            })
        };
        let answers: Vec<(&str, Answer)> = vec![
            (
                "SIZE of u64::MAX",
                Box::new(move |c| size_then(c, u64::MAX, crc, 8, &chunk)),
            ),
            (
                "SIZE of i64::MAX",
                Box::new(move |c| size_then(c, i64::MAX as u64, crc, 8, &chunk)),
            ),
            (
                "SIZE one byte beyond a block",
                Box::new(move |c| size_then(c, block_size + 1, crc, 8, &chunk)),
            ),
            (
                "a first packet longer than its payload",
                Box::new(move |c| size_then(c, 1 << 20, crc, 1 << 20, &chunk)),
            ),
            (
                "a first packet of negative length",
                Box::new(move |c| size_then(c, 8, crc, -8, &chunk)),
            ),
            (
                "a first packet past the announced size",
                Box::new(move |c| size_then(c, 7, crc, 8, &chunk)),
            ),
            (
                "DATA past the announced size",
                Box::new(move |c| {
                    send_opening(c, &Opening::Size(15), Some((crc, &chunk))).unwrap();
                    send_chunk(c, &chunk).unwrap();
                }),
            ),
            (
                "an empty packet where bytes are due",
                Box::new(move |c| {
                    send_opening(c, &Opening::Size(16), Some((crc, &chunk))).unwrap();
                    send_chunk(c, &[]).unwrap();
                }),
            ),
            (
                "an answer that stops short: another frame where DATA is due",
                Box::new(move |c| {
                    send_opening(c, &Opening::Size(16), Some((crc, &chunk))).unwrap();
                    send_ack(c, ACK_OK).unwrap();
                }),
            ),
            (
                "well formed",
                Box::new(move |c| send_transfer(c, &Opening::Size(8), &chunk, 8).unwrap()),
            ),
        ];
        let hostile = answers.len() - 1;
        let listener = SimListener::bind(&dn.data_fabric, dn_addr).unwrap();
        let server_cfg = cfg.clone();
        let datanode = std::thread::spawn(move || {
            let data_cfg = server_cfg.data_rpc_config();
            let pool = DataConnPool::new(&dn.data_fabric, dn.data_node, data_cfg.clone()).unwrap();
            for (what, answer) in answers {
                let (stream, _) = listener.accept().unwrap();
                let conn: Arc<dyn Conn> = match pool.ib_context() {
                    Some(ctx) => Arc::new(RdmaConn::bootstrap(&stream, ctx, &data_cfg).unwrap()),
                    None => Arc::new(SocketConn::new(stream, 4096)),
                };
                let request = recv_frame(&conn, Duration::from_secs(10));
                assert!(
                    matches!(request, Ok(DataFrame::Read { block: 1, .. })),
                    "{what}"
                );
                answer(&conn);
                // Until the client has hung up on it (verbs: until it
                // would have: a dropped queue pair is silent).
                let _ = recv_frame(&conn, Duration::from_millis(200));
            }
        });

        let client = DfsClient::new(&me, namenode.addr(), cfg.clone()).unwrap();
        // The connection to the NameNode registers its 4 MiB region on
        // first use: set-up, not an answer's doing.
        client.get_block_locations("/any").unwrap();
        LARGEST.store(0, Ordering::Relaxed);
        for _ in 0..hostile {
            let err = client.read_range("/any", 0, 64).unwrap_err();
            assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= cfg.block_size,
            "a hostile answer made the process allocate {largest} bytes at once"
        );
        assert_eq!(client.read_range("/any", 0, 64).unwrap(), chunk);
        datanode.join().unwrap();
        client.shutdown();
        namenode.stop();
    }
}
