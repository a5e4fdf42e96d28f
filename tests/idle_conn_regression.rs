//! Idle-connection cost regression (tier 2: run with
//! `cargo test --release --test idle_conn_regression -- --ignored`).
//!
//! The event-driven reader's promise is that a parked connection costs
//! nothing at steady state: no sweep probe, no modeled charge, no shard
//! work. These tests park a large idle population (10k raw socket conns
//! / 4k bootstrapped verbs conns) next to 16 active callers and gate
//! three observables against a 0-idle baseline run:
//!
//! * the active calls' per-call modeled-ns samples are **identical** —
//!   not merely close — to the baseline's (idle conns charge nothing
//!   and draw nothing from the fault RNG);
//! * the frames read match the baseline (idle conns generate no
//!   frames);
//! * a quiet window with the full population attached charges **zero**
//!   modeled nanoseconds to the server node (the old sweep woke every
//!   `SWEEP_IDLE` and walked all N conns; the ready queue just blocks).
//!
//! What an idle verbs connection end *holds* is checked at defaults, in
//! the one case here that is not tier 2: registered memory, per end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rpcoib::handshake::client_hello;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::{Client, IbContext, RpcConfig, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric, SimStream};
use wire::{DataInput, IntWritable, Writable};

struct EchoService;

impl RpcService for EchoService {
    fn protocol(&self) -> &'static str {
        "test.IdleProtocol"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut value = IntWritable::default();
        value.read_fields(param).map_err(|e| e.to_string())?;
        match method {
            "echo" => Ok(Box::new(value)),
            other => Err(format!("no such method {other}")),
        }
    }
}

const ACTIVE_CLIENTS: usize = 16;
const CALLS_PER_CLIENT: usize = 12;

/// What a population run measures, for comparison against the baseline.
struct Population {
    /// Per-call modeled-ns deltas of the active clients, sorted.
    samples: Vec<u64>,
    /// Frames read (the reader row's `processed`).
    frames_read: u64,
    /// Modeled ns charged to the server node across a quiet 300 ms
    /// window with the whole idle population attached.
    quiet_delta_ns: u64,
    /// `MetricsSnapshot::connections` while everything was attached.
    connections: usize,
    /// `MetricsSnapshot::conn_buffered_bytes` at the same moment.
    buffered_bytes: usize,
}

/// The idle conns kept alive for a run: raw handshaken streams (socket)
/// or bootstrapped client-side verbs conns (whose streams must outlive
/// them for teardown signalling).
enum IdleConns {
    Socket(Vec<SimStream>),
    Verbs(Vec<(SimStream, RdmaConn)>),
}

fn run_population(rdma: bool, idle_n: usize) -> Population {
    simnet::set_fast_forward(true);
    let (net, mut cfg) = if rdma {
        (model::IB_QDR_VERBS, RpcConfig::rpcoib())
    } else {
        (model::IPOIB_QDR, RpcConfig::socket())
    };
    if rdma {
        // Shrink per-connection buffer footprints so thousands of
        // bootstrapped conns fit comfortably (cf. the shards figure).
        cfg.rdma_threshold = 2 * 1024;
        cfg.recv_buf_bytes = 4 * 1024;
        cfg.large_region_bytes = 16 * 1024;
        cfg.prefill_per_class = 1;
    }
    let fabric = Fabric::new(net);
    fabric.set_fault_seed(7);
    let server_node = fabric.add_node();
    let idle_node = fabric.add_node();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();
    let addr = server.addr();

    // Park the idle population. Each conn completes the engine's real
    // accept path (hello + ack, plus the verbs bootstrap), then never
    // sends another byte.
    let idle_ctx = rdma.then(|| IbContext::new(&fabric, idle_node, &cfg).unwrap());
    let mut idle = if rdma {
        IdleConns::Verbs(Vec::with_capacity(idle_n))
    } else {
        IdleConns::Socket(Vec::with_capacity(idle_n))
    };
    for _ in 0..idle_n {
        let stream = SimStream::connect(&fabric, idle_node, addr).unwrap();
        client_hello(&stream, 0).unwrap();
        match &mut idle {
            IdleConns::Socket(v) => v.push(stream),
            IdleConns::Verbs(v) => {
                let conn = RdmaConn::bootstrap(&stream, idle_ctx.as_ref().unwrap(), &cfg).unwrap();
                v.push((stream, conn));
            }
        }
    }
    // Registration rides the ready queue (TOKEN_REGISTER); wait for the
    // last idle conn to be adopted before reading the quiet window.
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.metrics_snapshot().connections < idle_n {
        assert!(Instant::now() < deadline, "idle conns never registered");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Quiet window: N idle conns, zero traffic. The event-driven reader
    // must charge the server node nothing at all.
    let quiet_start = fabric.modeled_ns(server_node);
    std::thread::sleep(Duration::from_millis(300));
    let quiet_delta_ns = fabric.modeled_ns(server_node) - quiet_start;

    // Active phase: 16 sequential callers, per-call ledger deltas.
    let clients: Vec<(Client, simnet::NodeId)> = (0..ACTIVE_CLIENTS)
        .map(|_| {
            let node = fabric.add_node();
            (Client::new(&fabric, node, cfg.clone()).unwrap(), node)
        })
        .collect();
    let mut samples = Vec::with_capacity(ACTIVE_CLIENTS * CALLS_PER_CLIENT);
    for round in 0..CALLS_PER_CLIENT {
        for (client, node) in &clients {
            let before = fabric.modeled_ns(*node);
            let echoed: IntWritable = client
                .call(
                    addr,
                    "test.IdleProtocol",
                    "echo",
                    &IntWritable(round as i32),
                )
                .unwrap();
            assert_eq!(echoed.0, round as i32);
            samples.push(fabric.modeled_ns(*node) - before);
        }
    }
    samples.sort_unstable();

    let snap = server.metrics_snapshot();
    let connections = snap.connections;
    let buffered_bytes = snap.conn_buffered_bytes;
    let frames_read = snap
        .shards
        .iter()
        .filter(|s| s.role.name() == "reader")
        .map(|s| s.processed)
        .sum();

    for (client, _) in &clients {
        client.shutdown();
    }
    drop(idle);
    server.stop();
    Population {
        samples,
        frames_read,
        quiet_delta_ns,
        connections,
        buffered_bytes,
    }
}

fn assert_idle_population_is_free(rdma: bool, idle_n: usize) {
    let baseline = run_population(rdma, 0);
    let loaded = run_population(rdma, idle_n);

    assert_eq!(
        loaded.quiet_delta_ns, 0,
        "{idle_n} parked conns charged the server ledger while idle"
    );
    assert_eq!(
        loaded.samples, baseline.samples,
        "active-call modeled costs must be identical with {idle_n} idle conns parked"
    );
    assert_eq!(
        loaded.frames_read, baseline.frames_read,
        "the server must read the same frames regardless of idle population"
    );
    assert_eq!(
        loaded.connections,
        idle_n + ACTIVE_CLIENTS,
        "connection gauge must count the parked population"
    );
    assert_eq!(
        loaded.buffered_bytes, 0,
        "idle conns must hold no buffered bytes"
    );
    assert_eq!(baseline.connections, ACTIVE_CLIENTS);
}

/// 10k parked socket conns cost the reader nothing.
#[test]
#[ignore = "tier-2: large population, run with --ignored"]
fn socket_idle_connections_are_free() {
    assert_idle_population_is_free(false, 10_000);
}

/// 4k parked (fully bootstrapped) verbs conns cost the reader nothing.
#[test]
#[ignore = "tier-2: large population, run with --ignored"]
fn verbs_idle_connections_are_free() {
    assert_idle_population_is_free(true, 4_000);
}

/// At `RpcConfig::rpcoib()` defaults an idle verbs connection end holds
/// registered its large region and its two small send regions, on either
/// side, and nothing it receives into: receive buffers are posted per
/// node, on its shared receive queue, not per connection.
#[test]
fn an_idle_verbs_connection_end_registers_no_receive_buffers() {
    const ENDS: u64 = 8;
    simnet::set_fast_forward(true);
    let cfg = RpcConfig::rpcoib();
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let (server_node, idle_node) = (fabric.add_node(), fabric.add_node());
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();
    let idle_ctx = IbContext::new(&fabric, idle_node, &cfg).unwrap();
    let held = |node| fabric.registered_bytes(node);
    let before = [held(server_node), held(idle_node)];

    let idle: Vec<(SimStream, RdmaConn)> = (0..ENDS)
        .map(|_| {
            let stream = SimStream::connect(&fabric, idle_node, server.addr()).unwrap();
            client_hello(&stream, 0).unwrap();
            let conn = RdmaConn::bootstrap(&stream, &idle_ctx, &cfg).unwrap();
            (stream, conn)
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics_snapshot().connections < ENDS as usize {
        assert!(Instant::now() < deadline, "idle conns never registered");
        std::thread::sleep(Duration::from_millis(5));
    }

    let per_end = cfg.large_region_bytes as u64 + 128 + 64;
    for (side, node, before) in [
        ("server", server_node, before[0]),
        ("client", idle_node, before[1]),
    ] {
        let grown = held(node) - before;
        println!(
            "{side} end: {:.3} MiB registered per idle verbs connection",
            grown as f64 / ENDS as f64 / (1 << 20) as f64
        );
        assert_eq!(grown, ENDS * per_end, "{side} side, {ENDS} idle ends");
    }
    drop(idle);
    server.stop();
}
