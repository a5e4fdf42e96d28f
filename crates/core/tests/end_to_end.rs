//! End-to-end engine tests: client + server over every fabric model.

use std::sync::Arc;
use std::time::Duration;

use rpcoib::{Client, RpcConfig, RpcError, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric, NodeId};
use wire::{BytesWritable, DataInput, NullWritable, Text, Writable};

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
            "upper" => {
                let mut text = Text::default();
                text.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(Text(text.0.to_uppercase())))
            }
            "fail" => Err("requested failure".into()),
            other => Err(format!("no such method {other}")),
        }
    }
}

fn setup(model: simnet::NetworkModel, cfg: RpcConfig) -> (Fabric, Server, Client, NodeId) {
    let fabric = Fabric::new(model);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();
    let client = Client::new(&fabric, client_node, cfg).unwrap();
    (fabric, server, client, client_node)
}

fn echo_roundtrip(cfg: RpcConfig, model: simnet::NetworkModel) {
    let (_fabric, server, client, _) = setup(model, cfg);
    for size in [1usize, 100, 4096, 100_000] {
        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let resp: BytesWritable = client
            .call(
                server.addr(),
                "test.EchoProtocol",
                "pingpong",
                &BytesWritable(payload.clone()),
            )
            .unwrap();
        assert_eq!(resp.0, payload, "size {size}");
    }
    client.shutdown();
    server.stop();
}

#[test]
fn echo_over_1gige() {
    echo_roundtrip(RpcConfig::socket(), model::GIG_E);
}

#[test]
fn echo_over_10gige() {
    echo_roundtrip(RpcConfig::socket(), model::TEN_GIG_E);
}

#[test]
fn echo_over_ipoib() {
    echo_roundtrip(RpcConfig::socket(), model::IPOIB_QDR);
}

#[test]
fn echo_over_rpcoib() {
    echo_roundtrip(RpcConfig::rpcoib(), model::IB_QDR_VERBS);
}

/// `validate` accepts a `call_timeout` of `Duration::MAX` — one that
/// never gives up. Its deadline is one that never passes, not an
/// overflow: a 64 B and a 256 KiB (bulk on verbs) echo on each transport,
/// then an idle server's `drain(Duration::MAX)` quiesces.
#[test]
fn a_timeout_that_never_expires_is_a_deadline_that_never_passes() {
    for (cfg, model) in [
        (RpcConfig::socket(), model::IPOIB_QDR),
        (RpcConfig::rpcoib(), model::IB_QDR_VERBS),
    ] {
        let cfg = RpcConfig {
            call_timeout: Duration::MAX,
            ..cfg
        };
        let (_fabric, server, client, _) = setup(model, cfg);
        for size in [64usize, 256 * 1024] {
            let payload = vec![size as u8 ^ 0x5a; size];
            let resp: BytesWritable = client
                .call(
                    server.addr(),
                    "test.EchoProtocol",
                    "pingpong",
                    &BytesWritable(payload.clone()),
                )
                .unwrap();
            assert_eq!(resp.0, payload, "size {size}");
        }
        client.shutdown();
        assert!(server.drain(Duration::MAX), "an idle server quiesces");
    }
}

#[test]
fn rpcoib_refuses_non_rdma_fabric() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let node = fabric.add_node();
    let err = Client::new(&fabric, node, RpcConfig::rpcoib())
        .err()
        .unwrap();
    assert!(matches!(err, RpcError::Config(_)));
}

#[test]
fn remote_errors_propagate() {
    let (_fabric, server, client, _) = setup(model::IB_QDR_VERBS, RpcConfig::rpcoib());
    let err = client
        .call::<NullWritable, NullWritable>(
            server.addr(),
            "test.EchoProtocol",
            "fail",
            &NullWritable,
        )
        .err()
        .unwrap();
    assert_eq!(err, RpcError::Remote("requested failure".into()));
    // The connection survives an application error.
    let resp: Text = client
        .call(
            server.addr(),
            "test.EchoProtocol",
            "upper",
            &Text::from("still alive"),
        )
        .unwrap();
    assert_eq!(resp.0, "STILL ALIVE");
}

#[test]
fn unknown_protocol_is_remote_error() {
    let (_fabric, server, client, _) = setup(model::IPOIB_QDR, RpcConfig::socket());
    let err = client
        .call::<NullWritable, NullWritable>(server.addr(), "no.SuchProtocol", "x", &NullWritable)
        .err()
        .unwrap();
    assert!(
        matches!(err, RpcError::Remote(ref m) if m.contains("unknown protocol")),
        "{err:?}"
    );
}

#[test]
fn concurrent_callers_share_one_connection() {
    let (_fabric, server, client, _) = setup(model::IB_QDR_VERBS, RpcConfig::rpcoib());
    let addr = server.addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || {
                for i in 0..25 {
                    let text = format!("caller-{t}-msg-{i}");
                    let resp: Text = client
                        .call(addr, "test.EchoProtocol", "upper", &Text(text.clone()))
                        .unwrap();
                    assert_eq!(resp.0, text.to_uppercase());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn many_clients_one_server() {
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let server_node = fabric.add_node();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, server_node, 8020, RpcConfig::rpcoib(), registry).unwrap();
    let addr = server.addr();
    let threads: Vec<_> = (0..6)
        .map(|c| {
            let fabric = fabric.clone();
            std::thread::spawn(move || {
                let node = fabric.add_node();
                let client = Client::new(&fabric, node, RpcConfig::rpcoib()).unwrap();
                for i in 0..20 {
                    let payload = vec![c as u8; 64 + i];
                    let resp: BytesWritable = client
                        .call(
                            addr,
                            "test.EchoProtocol",
                            "pingpong",
                            &BytesWritable(payload.clone()),
                        )
                        .unwrap();
                    assert_eq!(resp.0, payload);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn stopped_server_fails_calls() {
    let (_fabric, server, client, _) = setup(model::IPOIB_QDR, RpcConfig::socket());
    let addr = server.addr();
    let resp: Text = client
        .call(addr, "test.EchoProtocol", "upper", &Text::from("x"))
        .unwrap();
    assert_eq!(resp.0, "X");
    server.stop();
    let err = client
        .call::<Text, Text>(addr, "test.EchoProtocol", "upper", &Text::from("y"))
        .err()
        .unwrap();
    assert!(
        matches!(
            err,
            RpcError::ConnectionClosed | RpcError::Io(_) | RpcError::Timeout
        ),
        "{err:?}"
    );
}

#[test]
fn client_reconnects_to_restarted_server() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let mk_registry = || {
        let mut r = ServiceRegistry::new();
        r.register(Arc::new(EchoService));
        r
    };
    let server = Server::start(
        &fabric,
        server_node,
        8020,
        RpcConfig::socket(),
        mk_registry(),
    )
    .unwrap();
    let addr = server.addr();
    let client = Client::new(&fabric, client_node, RpcConfig::socket()).unwrap();
    let _: Text = client
        .call(addr, "test.EchoProtocol", "upper", &Text::from("a"))
        .unwrap();
    server.stop();
    drop(server);
    let _server2 = Server::start(
        &fabric,
        server_node,
        8020,
        RpcConfig::socket(),
        mk_registry(),
    )
    .unwrap();
    // One call may fail while the stale connection is discovered; the
    // built-in retry should hide it.
    let resp: Text = client
        .call(addr, "test.EchoProtocol", "upper", &Text::from("b"))
        .unwrap();
    assert_eq!(resp.0, "B");
}

#[test]
fn call_timeout_fires_when_server_node_hangs() {
    // Warm-up goes through a client with the default (generous) timeout so
    // a descheduled test thread can never flake the successful calls; the
    // dead-node claims are then checked against simnet's modeled-time
    // ledger, which is schedule-independent.
    let (fabric, server, client, client_node) = setup(model::IPOIB_QDR, RpcConfig::socket());
    let addr = server.addr();
    let _: Text = client
        .call(addr, "test.EchoProtocol", "upper", &Text::from("warm"))
        .unwrap();
    let warm_ns = fabric.modeled_ns(client_node);
    assert!(warm_ns > 0, "a successful call must charge modeled time");

    // A second client carries the tight timeout; only its doomed call is
    // governed by it.
    let cfg = RpcConfig {
        call_timeout: Duration::from_millis(300),
        ..RpcConfig::socket()
    };
    let probe = Client::new(&fabric, client_node, cfg).unwrap();
    let _: Text = probe
        .call(addr, "test.EchoProtocol", "upper", &Text::from("warm"))
        .unwrap();

    // Kill the server node abruptly: requests go nowhere.
    let before_ns = fabric.modeled_ns(client_node);
    fabric.kill_node(addr.node);
    let err = probe
        .call::<Text, Text>(addr, "test.EchoProtocol", "upper", &Text::from("x"))
        .err()
        .unwrap();
    assert!(
        matches!(
            err,
            RpcError::Timeout | RpcError::ConnectionClosed | RpcError::Io(_)
        ),
        "{err:?}"
    );
    // A dead node delivers no bytes: the failed attempt (retries included)
    // must charge far less modeled time than the whole warm-up sequence —
    // the failure came from the fabric, not from slow wall-clock luck.
    let failed_ns = fabric.modeled_ns(client_node) - before_ns;
    assert!(
        failed_ns < warm_ns,
        "failed call charged {failed_ns}ns modeled, warm-up charged {warm_ns}ns"
    );
    probe.shutdown();
    client.shutdown();
}

#[test]
fn rpcoib_metrics_show_no_adjustments_after_warmup() {
    let (_fabric, server, client, _) = setup(model::IB_QDR_VERBS, RpcConfig::rpcoib());
    let addr = server.addr();
    for _ in 0..5 {
        let _: BytesWritable = client
            .call(
                addr,
                "test.EchoProtocol",
                "pingpong",
                &BytesWritable(vec![0u8; 700]),
            )
            .unwrap();
    }
    let stats = client
        .metrics()
        .get("test.EchoProtocol", "pingpong")
        .unwrap();
    assert_eq!(stats.calls, 5);
    // Only the first call may grow; history serves the rest.
    assert!(
        stats.adjustments <= 3,
        "adjustments = {}",
        stats.adjustments
    );

    // The socket baseline on the same payload always adjusts (32B start).
    let (_f2, server2, client2, _) = setup(model::IPOIB_QDR, RpcConfig::socket());
    for _ in 0..5 {
        let _: BytesWritable = client2
            .call(
                server2.addr(),
                "test.EchoProtocol",
                "pingpong",
                &BytesWritable(vec![0u8; 700]),
            )
            .unwrap();
    }
    let stats2 = client2
        .metrics()
        .get("test.EchoProtocol", "pingpong")
        .unwrap();
    assert!(
        stats2.avg_adjustments() >= 1.0,
        "baseline must adjust every call, got {}",
        stats2.avg_adjustments()
    );
}

#[test]
fn rpcoib_latency_beats_socket_baseline() {
    // The headline claim, in miniature: median ping-pong latency of
    // RPCoIB must be well below default RPC over IPoIB. Measured on
    // simnet's modeled-time ledger (per-call `Fabric::modeled_ns` deltas
    // on the client's link), not wall-clock, so a CPU-starved test runner
    // cannot perturb the comparison.
    fn median_latency_ns(cfg: RpcConfig, model: simnet::NetworkModel) -> u64 {
        let (fabric, server, client, client_node) = setup(model, cfg);
        let addr = server.addr();
        let payload = BytesWritable(vec![7u8; 512]);
        // Warmup.
        for _ in 0..10 {
            let _: BytesWritable = client
                .call(addr, "test.EchoProtocol", "pingpong", &payload)
                .unwrap();
        }
        let mut samples: Vec<u64> = (0..50)
            .map(|_| {
                let before = fabric.modeled_ns(client_node);
                let _: BytesWritable = client
                    .call(addr, "test.EchoProtocol", "pingpong", &payload)
                    .unwrap();
                fabric.modeled_ns(client_node) - before
            })
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        client.shutdown();
        server.stop();
        median
    }
    let ipoib = median_latency_ns(RpcConfig::socket(), model::IPOIB_QDR);
    let rpcoib = median_latency_ns(RpcConfig::rpcoib(), model::IB_QDR_VERBS);
    assert!(
        rpcoib < ipoib,
        "RPCoIB ({rpcoib}ns) must beat socket RPC over IPoIB ({ipoib}ns)"
    );
}
