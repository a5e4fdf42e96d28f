//! The paper's RPC micro-benchmark (cited as [12], WBDB'13): a server
//! registering a `pingpong` method whose parameter and return value are a
//! `BytesWritable` payload, driven by one latency client or many
//! concurrent throughput clients.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpcoib::{Client, RpcConfig, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric, NetworkModel, SimAddr};
use wire::{BytesWritable, DataInput, Writable};

/// Echo service: `pingpong(BytesWritable) -> BytesWritable`.
pub struct EchoService;

impl RpcService for EchoService {
    fn protocol(&self) -> &'static str {
        "bench.PingPongProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "pingpong" => {
                let mut payload = BytesWritable::default();
                payload.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(payload))
            }
            // Structured-payload variant: many small fields, so the
            // serializer behaves like Hadoop's field-by-field Writables
            // (statusUpdate & co.), not one bulk byte copy.
            "echoLongs" => {
                let mut payload: Vec<wire::LongWritable> = Vec::new();
                wire::Writable::read_fields(&mut payload, param).map_err(|e| e.to_string())?;
                Ok(Box::new(payload))
            }
            other => Err(format!("no such method {other}")),
        }
    }
}

/// A benchmark transport configuration: a name for tables, the fabric
/// model, and the RPC engine settings.
#[derive(Clone)]
pub struct BenchConfig {
    pub name: &'static str,
    pub model: NetworkModel,
    pub rpc: RpcConfig,
}

impl BenchConfig {
    /// Default Hadoop RPC over 10GigE.
    pub fn rpc_10gige() -> Self {
        BenchConfig {
            name: "RPC-10GigE",
            model: model::TEN_GIG_E,
            rpc: RpcConfig::socket(),
        }
    }

    /// Default Hadoop RPC over IPoIB QDR.
    pub fn rpc_ipoib() -> Self {
        BenchConfig {
            name: "RPC-IPoIB (32Gbps)",
            model: model::IPOIB_QDR,
            rpc: RpcConfig::socket(),
        }
    }

    /// Default Hadoop RPC over 1GigE (the slow-network reference).
    pub fn rpc_1gige() -> Self {
        BenchConfig {
            name: "RPC-1GigE",
            model: model::GIG_E,
            rpc: RpcConfig::socket(),
        }
    }

    /// RPCoIB over QDR verbs.
    pub fn rpcoib() -> Self {
        BenchConfig {
            name: "RPCoIB (32Gbps)",
            model: model::IB_QDR_VERBS,
            rpc: RpcConfig::rpcoib(),
        }
    }
}

/// A booted single-server ping-pong environment.
pub struct PingPongEnv {
    pub fabric: Fabric,
    pub server: Server,
    pub addr: SimAddr,
}

/// Start a ping-pong server (8 handlers, per the paper's microbenchmark).
pub fn setup_pingpong(cfg: &BenchConfig) -> PingPongEnv {
    let fabric = Fabric::new(cfg.model);
    let node = fabric.add_node();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, node, 9999, cfg.rpc.clone(), registry)
        .expect("start pingpong server");
    let addr = server.addr();
    PingPongEnv {
        fabric,
        server,
        addr,
    }
}

/// One latency client issuing `iters` ping-pongs of `payload` bytes after
/// `warmup` unmeasured calls; returns per-call durations.
pub fn latency_samples(
    env: &PingPongEnv,
    cfg: &BenchConfig,
    payload: usize,
    warmup: usize,
    iters: usize,
) -> Vec<Duration> {
    let node = env.fabric.add_node();
    let client = Client::new(&env.fabric, node, cfg.rpc.clone()).expect("client");
    let body = BytesWritable(vec![0x5au8; payload]);
    for _ in 0..warmup {
        let _: BytesWritable = client
            .call(env.addr, "bench.PingPongProtocol", "pingpong", &body)
            .expect("warmup call");
    }
    let samples = (0..iters)
        .map(|_| {
            let start = Instant::now();
            let _: BytesWritable = client
                .call(env.addr, "bench.PingPongProtocol", "pingpong", &body)
                .expect("bench call");
            start.elapsed()
        })
        .collect();
    client.shutdown();
    samples
}

/// Throughput: `n_clients` caller threads spread over `client_nodes`
/// simulated nodes, hammering 512-byte ping-pongs for `duration`.
/// Returns achieved Kops/sec.
///
/// Every client fully connects and warms up before a barrier releases
/// the measured window — client setup (connection establishment, and on
/// RPCoIB the pool pre-registration) must not eat into the window.
pub fn throughput_kops(
    env: &PingPongEnv,
    cfg: &BenchConfig,
    n_clients: usize,
    client_nodes: usize,
    payload: usize,
    duration: Duration,
) -> f64 {
    // One Client (and hence one connection, received on by its caller)
    // per simulated client process, as in the paper's setup.
    let nodes: Vec<_> = (0..client_nodes).map(|_| env.fabric.add_node()).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(std::sync::Barrier::new(n_clients + 1));
    let mut threads = Vec::new();
    for c in 0..n_clients {
        let fabric = env.fabric.clone();
        let node = nodes[c % nodes.len()];
        let rpc = cfg.rpc.clone();
        let addr = env.addr;
        let stop = Arc::clone(&stop);
        let ops = Arc::clone(&ops);
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let client = Client::new(&fabric, node, rpc).expect("client");
            let body = BytesWritable(vec![0x77u8; payload]);
            // Warm up so the connection exists and buffers are learned.
            for _ in 0..3 {
                let _: BytesWritable = client
                    .call(addr, "bench.PingPongProtocol", "pingpong", &body)
                    .expect("warmup");
            }
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let _: BytesWritable = client
                    .call(addr, "bench.PingPongProtocol", "pingpong", &body)
                    .expect("bench call");
                ops.fetch_add(1, Ordering::Relaxed);
            }
            client.shutdown();
        }));
    }
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    let counted = ops.load(Ordering::Relaxed);
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    counted as f64 / elapsed.as_secs_f64() / 1e3
}
