//! Acceptance test for the per-phase latency observability: after real
//! end-to-end calls, the client's and server's metrics snapshots must
//! hold non-zero counts in every pipeline phase — serialize, wire,
//! server queue, handler, deserialize — keyed by `<protocol, method>`,
//! and on the verbs transport the buffer-pool counters must be surfaced
//! in the same snapshot. Runs once per `RPC_TRANSPORT` value in CI.

use std::sync::Arc;

use rpcoib::{Client, MetricsSnapshot, Phase, RpcConfig, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric};
use wire::{BytesWritable, DataInput, Writable};

fn env_transport() -> (Fabric, RpcConfig) {
    if std::env::var("RPC_TRANSPORT").as_deref() == Ok("verbs") {
        (Fabric::new(model::IB_QDR_VERBS), RpcConfig::rpcoib())
    } else {
        (Fabric::new(model::IPOIB_QDR), RpcConfig::socket())
    }
}

struct EchoService;

impl RpcService for EchoService {
    fn protocol(&self) -> &'static str {
        "test.EchoProtocol"
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
            other => Err(format!("no such method {other}")),
        }
    }
}

/// Sample count of one phase under one `<protocol, method>` key.
fn phase_count(snap: &MetricsSnapshot, protocol: &str, method: &str, phase: Phase) -> u64 {
    snap.phases
        .iter()
        .find(|((p, m), _)| p == protocol && m == method)
        .map(|(_, ps)| ps.get(phase).count)
        .unwrap_or(0)
}

#[test]
fn end_to_end_calls_populate_every_phase_histogram() {
    const CALLS: u64 = 5;
    let (fabric, cfg) = env_transport();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();

    for _ in 0..CALLS {
        let _: BytesWritable = client
            .call(
                server.addr(),
                "test.EchoProtocol",
                "pingpong",
                &BytesWritable(vec![7u8; 600]),
            )
            .unwrap();
    }

    // Client side: request serialization, wire time, and response
    // deserialization, all keyed by the request's method.
    let cli = client.metrics_snapshot();
    for phase in [Phase::Serialize, Phase::Wire, Phase::Deserialize] {
        assert_eq!(
            phase_count(&cli, "test.EchoProtocol", "pingpong", phase),
            CALLS,
            "client-side {phase:?} must be recorded once per call"
        );
    }
    let wire = cli
        .phases
        .iter()
        .find(|((p, m), _)| p == "test.EchoProtocol" && m == "pingpong")
        .map(|(_, ps)| ps.get(Phase::Wire))
        .unwrap();
    assert!(
        wire.sum_ns > 0,
        "wire time includes modeled latency, cannot be zero"
    );
    assert!(wire.quantile_ns(0.5) <= wire.quantile_ns(0.99));
    assert!(wire.quantile_ns(0.99) <= wire.max_ns.next_power_of_two().max(wire.max_ns));

    // Server side: queue wait and handler execution under the request's
    // method; the sender's serialize/wire under the `#resp` key (a
    // method's responses have their own stable size history).
    // The sender books a response's phases when its send returns, which
    // can be after the caller has the bytes: give the last one a moment.
    let settle = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let srv = loop {
        let srv = server.metrics_snapshot();
        let booked = phase_count(&srv, "test.EchoProtocol", "pingpong#resp", Phase::Wire);
        if booked >= CALLS || std::time::Instant::now() >= settle {
            break srv;
        }
        std::thread::yield_now();
    };
    for phase in [Phase::ServerQueue, Phase::Handler] {
        assert_eq!(
            phase_count(&srv, "test.EchoProtocol", "pingpong", phase),
            CALLS,
            "server-side {phase:?} must be recorded once per admitted call"
        );
    }
    for phase in [Phase::Serialize, Phase::Wire] {
        assert_eq!(
            phase_count(&srv, "test.EchoProtocol", "pingpong#resp", phase),
            CALLS,
            "sender {phase:?} must be recorded once per response"
        );
    }

    // The pool rides along in the same snapshot on the RDMA transport
    // (and only there): these calls must have actually exercised it.
    if cfg.ib_enabled {
        for (name, snap) in [("client", &cli), ("server", &srv)] {
            let pool = snap
                .pool
                .unwrap_or_else(|| panic!("{name} snapshot must carry pool counters"));
            let lookups = pool.history_hits + pool.grows + pool.shrinks + pool.cold;
            assert!(lookups > 0, "{name} pool history saw no traffic");
            assert!(
                pool.native_hits + pool.native_misses > 0,
                "{name} native pool served no buffers"
            );
        }
    } else {
        assert!(cli.pool.is_none(), "socket transport has no buffer pool");
        assert!(srv.pool.is_none(), "socket transport has no buffer pool");
    }

    client.shutdown();
    server.stop();
}
