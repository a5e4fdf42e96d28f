//! Suite-level integration tests: whole-stack flows spanning the RPC
//! engine and all three mini-Hadoop components, on both transports.

use std::sync::Arc;
use std::time::Duration;

use rpcoib_suite::mini_hbase::ycsb::{self, key_of, Workload};
use rpcoib_suite::mini_hbase::{HBaseConfig, MiniHbase};
use rpcoib_suite::mini_mapred::record::{read_all, write_record};
use rpcoib_suite::mini_mapred::{JobConf, JobKind, MiniMr, MrConfig};
use rpcoib_suite::rpcoib::{Client, RpcConfig, RpcService, Server, ServiceRegistry};
use rpcoib_suite::simnet::{model, Fabric, SimStream};
use rpcoib_suite::wire::{BytesWritable, DataInput, Writable};

/// WordCount end-to-end with the *entire* control plane (JobTracker,
/// umbilical, NameNode, DataNode reports) on RPCoIB.
#[test]
fn wordcount_full_stack_over_rpcoib() {
    let mut cfg = MrConfig::rpc_ib();
    cfg.hdfs.block_size = 128 * 1024;
    cfg.heartbeat = Duration::from_millis(80);
    let mr = MiniMr::start(model::IPOIB_QDR, 2, cfg).unwrap();
    let jobs = mr.job_client().unwrap();
    let dfs = mr.dfs_client().unwrap();

    let mut file = Vec::new();
    for i in 0..50 {
        write_record(&mut file, format!("{i}").as_bytes(), b"rdma rdma sockets");
    }
    dfs.write_file("/text", &file).unwrap();

    jobs.run(
        &JobConf {
            name: "wc".into(),
            kind: JobKind::WordCount,
            input: vec!["/text".into()],
            output: "/counts".into(),
            n_reduces: 2,
            n_maps: 0,
            params: Vec::new(),
        },
        Duration::from_secs(120),
    )
    .unwrap();

    let mut counts = std::collections::HashMap::new();
    for part in dfs.list("/counts").unwrap() {
        for (k, v) in read_all(&dfs.read_file(&part.path).unwrap()).unwrap() {
            counts.insert(
                String::from_utf8(k).unwrap(),
                u64::from_be_bytes(v.as_slice().try_into().unwrap()),
            );
        }
    }
    assert_eq!(counts["rdma"], 100);
    assert_eq!(counts["sockets"], 50);

    // Every control-plane conversation really went over verbs: the eth
    // rail saw only shuffle + HDFS data traffic, the ib rail carried RPC.
    let (ib_msgs, _, _, _) = mr.cluster().ib().stats().snapshot();
    assert!(
        ib_msgs > 100,
        "RPCoIB control plane unused? {ib_msgs} messages on ib rail"
    );
    mr.stop();
}

/// HBase with RDMA operations *and* RPCoIB underneath (the paper's best
/// configuration) serves a YCSB mix correctly.
#[test]
fn hbase_best_configuration_serves_ycsb() {
    let cfg = HBaseConfig {
        memstore_flush_bytes: 16 * 1024,
        wal_roll_bytes: 8 * 1024,
        ..HBaseConfig::all_ib()
    };
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, cfg).unwrap();
    let client = hbase.client().unwrap();
    let workload = Workload {
        value_size: 256,
        ..Workload::mixed(150, 200)
    };
    ycsb::load(&client, &workload).unwrap();
    let report = ycsb::run(&client, &workload).unwrap();
    assert_eq!(report.operations, 200);
    assert!(client.get(&key_of(0)).unwrap().is_some());
    client.shutdown();
    hbase.stop();
}

struct Echo;

impl RpcService for Echo {
    fn protocol(&self) -> &'static str {
        "suite.Echo"
    }
    fn call(
        &self,
        _method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut b = BytesWritable::default();
        b.read_fields(param).map_err(|e| e.to_string())?;
        Ok(Box::new(b))
    }
}

/// The headline direction of the paper, asserted as a test: the same
/// ping-pong is faster over RPCoIB than over socket RPC on IPoIB.
/// Measured on simnet's modeled-time ledger (per-call `Fabric::modeled_ns`
/// deltas on the client node), not wall-clock, so a CPU-starved parallel
/// test run cannot perturb the comparison — the same port the end_to_end
/// and hbase latency-contrast tests received.
#[test]
fn rpcoib_beats_ipoib_sockets() {
    fn median_ns(net: simnet::NetworkModel, rpc: RpcConfig) -> u64 {
        let fabric = Fabric::new(net);
        let sn = fabric.add_node();
        let cn = fabric.add_node();
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(Echo));
        let server = Server::start(&fabric, sn, 1, rpc.clone(), registry).unwrap();
        let client = Client::new(&fabric, cn, rpc).unwrap();
        let body = BytesWritable(vec![1u8; 512]);
        let one_call = |body: &BytesWritable| {
            let _: BytesWritable = client.call(server.addr(), "suite.Echo", "x", body).unwrap();
        };
        for _ in 0..10 {
            one_call(&body);
        }
        let mut samples: Vec<u64> = (0..60)
            .map(|_| {
                let before = fabric.modeled_ns(cn);
                one_call(&body);
                fabric.modeled_ns(cn) - before
            })
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        client.shutdown();
        server.stop();
        median
    }

    let ipoib = median_ns(model::IPOIB_QDR, RpcConfig::socket());
    let rpcoib = median_ns(model::IB_QDR_VERBS, RpcConfig::rpcoib());
    assert!(
        rpcoib < ipoib,
        "paper's headline violated: rpcoib {rpcoib}ns vs ipoib {ipoib}ns"
    );
}

/// The server's first trust boundary: a connection that does not open
/// with the handshake magic — the previous release's length-prefixed
/// frame, an HTTP probe — is closed with nothing written back and
/// counted, while a real client on another connection is served before
/// and after as if nothing happened.
#[test]
fn connection_without_the_handshake_is_refused() {
    use std::io::Write;

    let fabric = Fabric::new(model::IPOIB_QDR);
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(Echo));
    let server =
        Server::start(&fabric, fabric.add_node(), 1, RpcConfig::socket(), registry).unwrap();
    let client = Client::new(&fabric, fabric.add_node(), RpcConfig::socket()).unwrap();
    let echo = |n: u8| {
        let body = BytesWritable(vec![n; 64]);
        let got: BytesWritable = client
            .call(server.addr(), "suite.Echo", "x", &body)
            .unwrap();
        assert_eq!(got.0, body.0);
    };
    echo(0);

    let openings: [&[u8]; 2] = [
        // `[i32 len = 22][i32 call_id = 7]…`: a pre-handshake frame.
        &[0, 0, 0, 22, 0, 0, 0, 7, 1, b'p', 1, b'm'],
        b"GET / HTTP/1.1\r\n\r\n",
    ];
    for (i, opening) in openings.into_iter().enumerate() {
        let stream = SimStream::connect(&fabric, fabric.add_node(), server.addr()).unwrap();
        (&stream).write_all(opening).unwrap();
        // The blocking read runs on its own thread so a server that
        // neither answers nor closes fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            let _ = tx.send(stream.read_exact_at(&mut byte).is_err());
        });
        let closed_unanswered = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the server neither answered nor closed the connection");
        assert!(closed_unanswered, "a refused peer must be written nothing");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counters.frame_errors, i as u64 + 1);
        assert_eq!(snap.connections, 1, "only the client's connection is live");
        echo(i as u8 + 1);
    }
    assert_eq!(client.metrics_snapshot().counters.retries, 0);
    client.shutdown();
    server.stop();
}
