//! Connection-scale drill: drive the event-driven readiness layer —
//! park thousands of idle connections and show the active caller's
//! latency doesn't move, storm the accept path past `max_connections`
//! and watch the retryable busy cap + rejection counter, then drop the
//! population and verify the server reaps back to zero.
//!
//! ```sh
//! cargo run --release --example connection_scale
//! ```

use std::time::{Duration, Instant};

use rpcoib_suite::rpcoib::handshake::client_hello;
use rpcoib_suite::rpcoib::{Client, RpcConfig, RpcError, RpcService, Server, ServiceRegistry};
use rpcoib_suite::simnet::{model, Fabric, SimStream};
use rpcoib_suite::wire::{DataInput, IntWritable, Writable};
use std::sync::Arc;

struct Echo;

impl RpcService for Echo {
    fn protocol(&self) -> &'static str {
        "drill.Echo"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut v = IntWritable::default();
        v.read_fields(param).map_err(|e| e.to_string())?;
        match method {
            "echo" => Ok(Box::new(v)),
            other => Err(format!("no such method {other}")),
        }
    }
}

fn start(fabric: &Fabric, node: rpcoib_suite::simnet::NodeId, cfg: &RpcConfig) -> Server {
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(Echo));
    Server::start(fabric, node, 8020, cfg.clone(), registry).unwrap()
}

/// Median modeled-ns per call for one short burst from a fresh client.
fn median_call_ns(fabric: &Fabric, server: &Server, cfg: &RpcConfig) -> u64 {
    let node = fabric.add_node();
    let client = Client::new(fabric, node, cfg.clone()).unwrap();
    let mut samples = Vec::with_capacity(32);
    for i in 0..32 {
        let before = fabric.modeled_ns(node);
        let echoed: IntWritable = client
            .call(server.addr(), "drill.Echo", "echo", &IntWritable(i))
            .unwrap();
        assert_eq!(echoed.0, i);
        samples.push(fabric.modeled_ns(node) - before);
    }
    client.shutdown();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    rpcoib_suite::simnet::set_fast_forward(true);

    // ------------------------------------------------------------------
    println!("== idle connections are free (event-driven readiness) ==");
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let idle_node = fabric.add_node();
    let cfg = RpcConfig::socket();
    let server = start(&fabric, server_node, &cfg);

    let baseline = median_call_ns(&fabric, &server, &cfg);

    const IDLE: usize = 2_000;
    let parked: Vec<SimStream> = (0..IDLE)
        .map(|_| {
            let s = SimStream::connect(&fabric, idle_node, server.addr()).unwrap();
            client_hello(&s, 0).unwrap();
            s
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics_snapshot().connections < IDLE {
        assert!(Instant::now() < deadline, "idle conns never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    // A quiet server with 2 000 parked conns must charge itself nothing:
    // the pool sleeps until a connection's token is queued instead of
    // sweeping.
    let quiet_before = fabric.modeled_ns(server_node);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        fabric.modeled_ns(server_node) - quiet_before,
        0,
        "idle population charged the server ledger"
    );
    let loaded = median_call_ns(&fabric, &server, &cfg);
    println!(
        "  p50/call: {:.1}us with 0 idle conns, {:.1}us with {IDLE} parked (identical: {})",
        baseline as f64 / 1e3,
        loaded as f64 / 1e3,
        baseline == loaded,
    );
    assert_eq!(baseline, loaded, "idle conns must not move active p50");
    let snap = server.metrics_snapshot();
    println!(
        "  gauges: connections={} buffered_bytes={}",
        snap.connections, snap.conn_buffered_bytes
    );
    assert_eq!(snap.conn_buffered_bytes, 0);
    drop(parked);
    server.stop();

    // ------------------------------------------------------------------
    println!("== max_connections answers connect storms with retryable busy ==");
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let peer_node = fabric.add_node();
    let mut capped = RpcConfig::socket();
    capped.max_connections = 4;
    let server = start(&fabric, server_node, &capped);

    let held: Vec<SimStream> = (0..4)
        .map(|_| {
            let s = SimStream::connect(&fabric, peer_node, server.addr()).unwrap();
            client_hello(&s, 0).unwrap();
            s
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.connection_count() < 4 {
        assert!(Instant::now() < deadline, "fill never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut busy = 0;
    for _ in 0..6 {
        let s = SimStream::connect(&fabric, peer_node, server.addr()).unwrap();
        match client_hello(&s, 0) {
            Err(e @ RpcError::ServerBusy) => {
                assert!(e.is_retryable());
                busy += 1;
            }
            other => panic!("expected ServerBusy past the cap, got {other:?}"),
        }
    }
    let rejections = server.metrics_snapshot().counters.accept_rejections;
    println!("  cap 4: 6 storm connects -> {busy} retryable busy, accept_rejections={rejections}");
    assert_eq!(busy, 6);
    assert!(rejections >= 6);

    // Freed capacity admits again: drop the holders, wait for the reap,
    // then a real client gets in.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.connection_count() > 0 {
        assert!(Instant::now() < deadline, "released conns never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
    let p50 = median_call_ns(&fabric, &server, &capped);
    println!(
        "  after release: connections reaped to 0, fresh client served ({:.1}us/call)",
        p50 as f64 / 1e3
    );
    server.stop();

    println!();
    println!("connection scale drill complete");
}
