//! The data-transfer protocol under a hostile peer, both data transports.
//! Every length on it is a peer's word — a `DATA` packet's, a `WRITE`
//! header's target count and block length, a `SIZE` — so each is refused
//! or clamped before it sizes anything: the receiver answers
//! `RpcError::Protocol` on its broken-connection path, allocates nothing
//! above `block_size`, does not panic, and serves the next well-formed
//! operation on a fresh connection.
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
    recv_frame, send_chunk, send_end, send_size, DataConnPool, DataFrame, ACK_FAIL, MAX_TARGETS,
    OP_DATA, OP_END, OP_SIZE, OP_WRITE,
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

/// `[op][crc][len]` and then `body`: a `DATA` packet whose length field
/// is the peer's to choose.
fn data_packet(out: &mut dyn DataOutput, crc: u32, len: i32, body: &[u8]) -> io::Result<()> {
    out.write_u8(OP_DATA)?;
    out.write_i32(crc as i32)?;
    out.write_i32(len)?;
    out.write_bytes(body)
}

fn both_planes() -> [(HdfsConfig, simnet::NetworkModel); 2] {
    [
        (HdfsConfig::all_ib(), model::IB_QDR_VERBS),
        (HdfsConfig::socket(), model::IPOIB_QDR),
    ]
}

#[test]
fn a_datanode_refuses_hostile_writes_and_keeps_serving() {
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
        // Each script is one connection's worth of frames; the DataNode
        // must fail every one of them.
        type Script = Vec<Box<dyn Fn(&mut dyn DataOutput) -> io::Result<()>>>;
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
                "a length hint of i64::MAX, then END",
                vec![
                    Box::new(|o| write_header(o, i64::MAX, 0)),
                    Box::new(|o| o.write_u8(OP_END)),
                ],
            ),
            (
                "DATA longer than its payload",
                vec![
                    Box::new(|o| write_header(o, 1 << 20, 0)),
                    Box::new(move |o| data_packet(o, crc, 1 << 20, &chunk)),
                ],
            ),
            (
                "DATA of i32::MAX bytes",
                vec![
                    Box::new(|o| write_header(o, i64::MAX, 0)),
                    Box::new(move |o| data_packet(o, crc, i32::MAX, &chunk)),
                ],
            ),
            (
                "DATA of negative length",
                vec![
                    Box::new(|o| write_header(o, 64, 0)),
                    Box::new(move |o| data_packet(o, crc, -64, &chunk)),
                ],
            ),
            (
                "DATA past the announced block",
                vec![
                    Box::new(|o| write_header(o, 63, 0)),
                    Box::new(move |o| data_packet(o, crc, 64, &chunk)),
                ],
            ),
            (
                "a corrupted packet mid-block",
                vec![
                    Box::new(|o| write_header(o, 128, 0)),
                    Box::new(move |o| data_packet(o, crc, 64, &chunk)),
                    Box::new(move |o| data_packet(o, crc, 64, &flipped)),
                ],
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

        // Every xceiver that met one is gone; the node is not.
        client.write_file("/after", &data).unwrap();
        assert_eq!(client.read_file("/after").unwrap(), data);
        assert_eq!(client.read_file("/warm").unwrap(), data);
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
        // What the DataNode answers a `READ` with, one connection each;
        // the last is well formed.
        type Answer = Box<dyn Fn(&Arc<dyn Conn>) + Send>;
        let answers: Vec<(&str, Answer)> = vec![
            (
                "SIZE of u64::MAX",
                Box::new(|c| {
                    send_raw(c, &|o| {
                        o.write_u8(OP_SIZE)?;
                        o.write_u64(u64::MAX)
                    });
                    send_end(c).unwrap();
                }),
            ),
            (
                "SIZE of i64::MAX",
                Box::new(|c| {
                    send_size(c, i64::MAX as u64).unwrap();
                    send_end(c).unwrap();
                }),
            ),
            (
                "DATA longer than its payload",
                Box::new(move |c| {
                    send_size(c, 1 << 20).unwrap();
                    send_raw(c, &move |o| data_packet(o, crc, 1 << 20, &chunk));
                }),
            ),
            (
                "DATA of negative length",
                Box::new(move |c| {
                    send_size(c, 8).unwrap();
                    send_raw(c, &move |o| data_packet(o, crc, -8, &chunk));
                }),
            ),
            (
                "DATA past the announced size",
                Box::new(move |c| {
                    send_size(c, 7).unwrap();
                    send_chunk(c, &chunk).unwrap();
                }),
            ),
            (
                "well formed",
                Box::new(move |c| {
                    send_size(c, 8).unwrap();
                    send_chunk(c, &chunk).unwrap();
                    send_end(c).unwrap();
                }),
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
