//! Regression tests for the client's pending-call table lifecycle.
//!
//! Every exit path out of a call attempt — response delivered, timeout,
//! send failure, busy rejection, connection breakage, corrupt response —
//! must leave the pending table empty once the call returns. A leaked
//! entry keeps its reply slot alive for the life of the connection and
//! makes a later wrap of the sequence space deliver a response to the
//! wrong caller.
//!
//! The transport-agnostic tests run on both transports in-process; the
//! corrupt-response test drives a hand-rolled frame through a raw
//! `SimListener`, which only the socket framing permits.

use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rpcoib::{
    handshake, Client, RetryPolicy, RpcConfig, RpcError, RpcService, Server, ServiceRegistry,
};
use simnet::{model, Fabric, SimAddr, SimListener};
use wire::{DataInput, Text, Writable};

/// Both transports, with their matching fabric model.
fn transports() -> Vec<(&'static str, Fabric, RpcConfig)> {
    vec![
        ("socket", Fabric::new(model::IPOIB_QDR), RpcConfig::socket()),
        (
            "verbs",
            Fabric::new(model::IB_QDR_VERBS),
            RpcConfig::rpcoib(),
        ),
    ]
}

/// A gate stalled handlers wait on until the test opens it.
type Gate = Arc<(Mutex<bool>, Condvar)>;

/// Echo, plus a `stall` method that parks the handler on a gate the test
/// opens — a server that is *slow*, deterministically, rather than by
/// wall-clock luck.
struct GatedService {
    gate: Gate,
}

impl GatedService {
    fn new() -> (Gate, GatedService) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let svc = GatedService {
            gate: Arc::clone(&gate),
        };
        (gate, svc)
    }
}

fn open_gate(gate: &Gate) {
    let (lock, cv) = &**gate;
    *lock.lock().unwrap() = true;
    cv.notify_all();
}

impl RpcService for GatedService {
    fn protocol(&self) -> &'static str {
        "test.GatedProtocol"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut text = Text::default();
        text.read_fields(param).map_err(|e| e.to_string())?;
        match method {
            "echo" => Ok(Box::new(text)),
            "stall" => {
                let (lock, cv) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(Box::new(text))
            }
            other => Err(format!("no such method {other}")),
        }
    }
}

fn start_gated(fabric: &Fabric, cfg: &RpcConfig) -> (Server, Gate) {
    start_gated_at(fabric, cfg, SimAddr::new(fabric.add_node(), 8020))
}

fn start_gated_at(fabric: &Fabric, cfg: &RpcConfig, addr: SimAddr) -> (Server, Gate) {
    let (gate, svc) = GatedService::new();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(svc));
    let server = Server::start(fabric, addr.node, addr.port, cfg.clone(), registry).unwrap();
    (server, gate)
}

fn echo(client: &Client, addr: SimAddr, text: &str) -> Result<Text, RpcError> {
    client.call(addr, "test.GatedProtocol", "echo", &Text::from(text))
}

#[test]
fn pending_cleared_on_success() {
    for (name, fabric, cfg) in transports() {
        let (server, _gate) = start_gated(&fabric, &cfg);
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        let resp = echo(&client, server.addr(), "hi").unwrap();
        assert_eq!(resp.0, "hi", "{name}");
        assert_eq!(client.pending_calls(), 0, "{name}: leaked after success");
        client.shutdown();
        server.stop();
    }
}

#[test]
fn pending_cleared_on_timeout() {
    for (name, fabric, cfg) in transports() {
        let cfg = RpcConfig {
            call_timeout: Duration::from_millis(100),
            retry: RetryPolicy::none(),
            ..cfg
        };
        let (server, gate) = start_gated(&fabric, &cfg);
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        let err = client
            .call::<Text, Text>(
                server.addr(),
                "test.GatedProtocol",
                "stall",
                &Text::from("x"),
            )
            .err()
            .unwrap();
        assert!(matches!(err, RpcError::Timeout), "{name}: {err:?}");
        assert_eq!(client.pending_calls(), 0, "{name}: leaked after timeout");
        // Unblock the handler so the server can stop promptly.
        open_gate(&gate);
        client.shutdown();
        server.stop();
    }
}

#[test]
fn pending_cleared_on_send_failure() {
    for (name, fabric, cfg) in transports() {
        let cfg = RpcConfig {
            call_timeout: Duration::from_millis(300),
            retry: RetryPolicy::none(),
            ..cfg
        };
        let (server, _gate) = start_gated(&fabric, &cfg);
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        echo(&client, server.addr(), "warm").unwrap();
        // The server's node dies under the cached connection: the next
        // attempt fails in send (or, at worst, times out unanswered).
        fabric.kill_node(server.addr().node);
        let err = echo(&client, server.addr(), "x").err().unwrap();
        assert!(
            matches!(
                err,
                RpcError::Timeout | RpcError::ConnectionClosed | RpcError::Io(_)
            ),
            "{name}: {err:?}"
        );
        assert_eq!(
            client.pending_calls(),
            0,
            "{name}: leaked after send failure"
        );
        client.shutdown();
    }
}

#[test]
fn pending_cleared_on_busy_rejection() {
    for (name, fabric, cfg) in transports() {
        let cfg = RpcConfig {
            handlers: 1,
            call_queue_len: 1,
            call_timeout: Duration::from_secs(10),
            retry: RetryPolicy::none(),
            ..cfg
        };
        let (server, gate) = start_gated(&fabric, &cfg);
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        let addr = server.addr();
        // Four concurrent stalls against one gated handler and a
        // one-deep queue: at most two are absorbed (one executing, one
        // queued), so at least two come back ServerBusy.
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let client = client.clone();
                std::thread::spawn(move || {
                    client.call::<Text, Text>(
                        addr,
                        "test.GatedProtocol",
                        "stall",
                        &Text::from(format!("c{i}").as_str()),
                    )
                })
            })
            .collect();
        // The busy rejections return on their own; the absorbed calls
        // need the gate opened. Give the rejections a moment to land
        // before releasing, so the scenario really overlapped.
        std::thread::sleep(Duration::from_millis(300));
        open_gate(&gate);
        let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let busy = results
            .iter()
            .filter(|r| matches!(r, Err(RpcError::ServerBusy)))
            .count();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert!(
            busy >= 1,
            "{name}: expected busy rejections, got {results:?}"
        );
        assert!(ok >= 1, "{name}: expected absorbed calls, got {results:?}");
        assert_eq!(client.pending_calls(), 0, "{name}: leaked after busy");
        client.shutdown();
        server.stop();
    }
}

/// Socket-only: a raw fake server completes the handshake, then answers
/// the first request with an unparseable frame. The caller, receiving,
/// must fail its own call and leave the table (and the connection cache)
/// clean.
#[test]
fn pending_cleared_on_corrupt_response() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let addr = SimAddr::new(server_node, 8020);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _peer) = listener.accept().unwrap();
        handshake::server_accept(&stream, || 7).unwrap();
        // Consume the client's request frame first, so the corrupt answer
        // cannot race ahead of the call being registered and sent.
        let mut len_buf = [0u8; 4];
        stream.read_exact_at(&mut len_buf).unwrap();
        let mut body = vec![0u8; i32::from_be_bytes(len_buf) as usize];
        stream.read_exact_at(&mut body).unwrap();
        // Length-prefixed frame whose body cannot parse as a response
        // header: a one-byte seq delta, then 0xff where a status byte
        // belongs.
        (&stream).write_all(&4i32.to_be_bytes()).unwrap();
        (&stream).write_all(&(-1i32).to_be_bytes()).unwrap();
        // Hold the stream open until the client has reacted, so EOF
        // doesn't race the corrupt frame.
        std::thread::sleep(Duration::from_millis(500));
    });

    let cfg = RpcConfig {
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..RpcConfig::socket()
    };
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    let err = client
        .call::<Text, Text>(addr, "test.GatedProtocol", "echo", &Text::from("x"))
        .err()
        .unwrap();
    assert!(matches!(err, RpcError::Protocol(_)), "{err:?}");
    assert_eq!(client.pending_calls(), 0, "leaked after corrupt response");
    assert_eq!(
        client.connection_count(),
        0,
        "corrupt connection must be evicted"
    );
    fake.join().unwrap();
    client.shutdown();
}

/// The dropped-connection tracking set (which decides whether a fresh
/// establishment counts as a reconnect) must stay bounded: empty while
/// connections are healthy, one entry per dropped server, and emptied
/// again by the reconnect that consumes it — repeated break/reconnect
/// churn against one server never accumulates entries. Its unbounded
/// predecessor kept every server ever contacted, forever.
#[test]
fn reconnect_tracking_is_bounded_by_churn() {
    for (name, fabric, cfg) in transports() {
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        // Every round restarts "the same server": same node, same port,
        // so the client sees one logical peer across the churn.
        let addr = SimAddr::new(fabric.add_node(), 8020);
        for round in 0..3 {
            let (server, _gate) = start_gated_at(&fabric, &cfg, addr);
            // The default retry policy heals the stale connection left by
            // the previous round's stop; that reconnect must consume the
            // tracked entry, leaving the set empty while healthy.
            echo(&client, addr, "hi").unwrap();
            assert_eq!(
                client.reconnect_tracking_len(),
                0,
                "{name} round {round}: healthy connection must not be tracked"
            );
            server.stop();
            // The stop is only discovered by the next round's call; until
            // then nothing is tracked, and after it at most this one
            // dropped server is ever remembered.
            assert!(
                client.reconnect_tracking_len() <= 1,
                "{name} round {round}: tracking set grew past the one dropped server"
            );
        }
        // Rounds 1 and 2 each healed a stale connection.
        assert!(
            client.metrics().counters().reconnects >= 2,
            "{name}: reconnects were not counted"
        );
        client.shutdown();
    }
}

/// `shutdown` must interrupt a retry backoff: a caller parked between
/// attempts returns promptly with `ConnectionClosed` instead of sleeping
/// out the remaining pause and burning further attempts.
#[test]
fn shutdown_interrupts_retry_backoff() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    // No server at this address: every attempt fails with a retryable
    // connect error, and the policy would sleep 30 s before retrying.
    let addr = SimAddr::new(fabric.add_node(), 8020);
    let cfg = RpcConfig {
        retry: RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_secs(30),
            max_backoff: Duration::from_secs(30),
            multiplier: 1.0,
            jitter: 0.0,
            deadline: None,
        },
        ..RpcConfig::socket()
    };
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    let worker = {
        let client = client.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            let err = client
                .call::<Text, Text>(addr, "test.GatedProtocol", "echo", &Text::from("x"))
                .err()
                .unwrap();
            (err, start.elapsed())
        })
    };
    // Let the first attempt fail and the backoff begin.
    std::thread::sleep(Duration::from_millis(300));
    client.shutdown();
    let (err, elapsed) = worker.join().unwrap();
    assert!(
        matches!(err, RpcError::ConnectionClosed),
        "stopped client must fail ConnectionClosed, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "backoff was not interrupted: call took {elapsed:?}"
    );
}

/// `stall` parks its handler until the gate opens, and says when it has
/// started.
struct StallService {
    started: std::sync::mpsc::SyncSender<()>,
    gate: Gate,
}

impl RpcService for StallService {
    fn protocol(&self) -> &'static str {
        "test.GatedProtocol"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut text = Text::default();
        text.read_fields(param).map_err(|e| e.to_string())?;
        if method == "stall" {
            let _ = self.started.try_send(());
            let (lock, cv) = &*self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
        Ok(Box::new(text))
    }
}

/// A server whose `stall` calls wait on the returned gate, and the
/// channel that says when one has started.
fn start_stalling(
    fabric: &Fabric,
    cfg: &RpcConfig,
) -> (Server, Gate, std::sync::mpsc::Receiver<()>) {
    let (started_tx, started) = std::sync::mpsc::sync_channel(1);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(StallService {
        started: started_tx,
        gate: Arc::clone(&gate),
    }));
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    (server, gate, started)
}

/// A `stall` call on its own thread, which hands back its result and
/// when it had it.
fn stall(
    client: &Client,
    addr: SimAddr,
) -> std::thread::JoinHandle<(Result<Text, RpcError>, Instant)> {
    let client = client.clone();
    std::thread::spawn(move || {
        let result = client.call(addr, "test.GatedProtocol", "stall", &Text::from("a"));
        (result, Instant::now())
    })
}

/// A send that fails on a connection the server has closed gives the
/// connection up for new calls, but does not fail a call whose answer
/// has already reached the client: the receiver reads it before it meets
/// the end of the stream. Here a drained server answers a stalled call
/// and closes; the answer spends 50 ms on the wire, and a second caller's
/// send fails inside that window.
#[test]
fn a_failed_send_does_not_fail_an_answer_already_on_its_way() {
    let slow_wire = simnet::NetworkModel {
        base_latency_ns: 50_000_000,
        ..model::IPOIB_QDR
    };
    let fabric = Fabric::new(slow_wire);
    let cfg = RpcConfig {
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..RpcConfig::socket()
    };
    let (server, gate, started) = start_stalling(&fabric, &cfg);
    let addr = server.addr();
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    echo(&client, addr, "warm").unwrap();

    let stalled = stall(&client, addr);
    let admitted = started.recv_timeout(Duration::from_secs(5));
    open_gate(&gate);
    admitted.expect("the stalled call never started");
    assert!(server.drain(Duration::from_secs(5)), "the drain timed out");
    // The answer is on the wire; the server has hung up.
    let err = echo(&client, addr, "b").unwrap_err();
    assert!(
        matches!(err, RpcError::ConnectionClosed | RpcError::Io(_)),
        "{err:?}"
    );
    let (answer, _) = stalled.join().unwrap();
    assert_eq!(answer.expect("an answer on its way was failed").0, "a");
    assert_eq!(client.pending_calls(), 0);
    client.shutdown();
}

/// Calls to `method` the client's sends have put on the wire.
fn sent(client: &Client, method: &str) -> u64 {
    client
        .metrics()
        .snapshot()
        .into_iter()
        .filter(|((_, m), _)| m == method)
        .map(|(_, stats)| stats.calls)
        .sum()
}

/// A call the server hung up on without answering ends as soon as the
/// hang-up is seen, with the retryable `ConnectionClosed` — not at its
/// call timeout. On verbs nothing but a failed send sees it: here a call
/// sent while the server drains is never read, the drain ends and the
/// server stops, and a second caller's send fails.
#[test]
fn a_send_that_finds_the_server_gone_ends_the_calls_waiting_there() {
    for (name, fabric, cfg) in transports() {
        let cfg = RpcConfig {
            call_timeout: Duration::from_secs(5),
            retry: RetryPolicy::none(),
            ..cfg
        };
        let (server, gate, started) = start_stalling(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        echo(&client, addr, "warm").unwrap();

        let stalled = stall(&client, addr);
        started
            .recv_timeout(Duration::from_secs(5))
            .expect("the stalled call never started");
        let (unread, hung_up) = std::thread::scope(|s| {
            let drain = s.spawn(|| server.drain(Duration::from_secs(5)));
            // The drain has begun once its Listener has given the port up.
            while SimListener::bind(&fabric, addr).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let unread = {
                let client = client.clone();
                std::thread::spawn(move || {
                    let result = echo(&client, addr, "c");
                    (result, Instant::now())
                })
            };
            while sent(&client, "echo") < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            open_gate(&gate);
            assert!(drain.join().unwrap(), "{name}: the drain timed out");
            (unread, Instant::now())
        });
        assert_eq!(stalled.join().unwrap().0.unwrap().0, "a", "{name}");
        assert!(echo(&client, addr, "b").is_err(), "{name}");
        let (result, ended) = unread.join().unwrap();
        assert!(
            matches!(result, Err(RpcError::ConnectionClosed)),
            "{name}: {result:?}"
        );
        assert!(
            ended.duration_since(hung_up) < Duration::from_secs(1),
            "{name}: the call ended {:?} after the hang-up",
            ended.duration_since(hung_up)
        );
        assert_eq!(client.pending_calls(), 0, "{name}");
        client.shutdown();
    }
}

/// A connection a failed send gave up is out of the client's cache, but
/// `shutdown` still fails the calls waiting on it. A partition ends
/// neither transport's stream — the stalled call's answer may yet come —
/// so here only `shutdown` can end it.
#[test]
fn shutdown_fails_a_call_waiting_on_a_given_up_connection() {
    for (name, fabric, cfg) in transports() {
        let cfg = RpcConfig {
            call_timeout: Duration::from_secs(5),
            retry: RetryPolicy::none(),
            ..cfg
        };
        let (server, gate, started) = start_stalling(&fabric, &cfg);
        let addr = server.addr();
        let node = fabric.add_node();
        let client = Client::new(&fabric, node, cfg).unwrap();
        echo(&client, addr, "warm").unwrap();

        let stalled = stall(&client, addr);
        started
            .recv_timeout(Duration::from_secs(5))
            .expect("the stalled call never started");
        fabric.partition(node, addr.node);
        assert!(echo(&client, addr, "b").is_err(), "{name}");
        std::thread::sleep(Duration::from_millis(100));
        if stalled.is_finished() {
            open_gate(&gate);
            panic!("{name}: a partition ended the call");
        }
        let shut = Instant::now();
        client.shutdown();
        let (result, ended) = stalled.join().unwrap();
        fabric.heal(node, addr.node);
        open_gate(&gate);
        server.stop();
        assert!(
            matches!(result, Err(RpcError::ConnectionClosed)),
            "{name}: {result:?}"
        );
        assert!(
            ended.duration_since(shut) < Duration::from_secs(1),
            "{name}: shutdown reached the call {:?} after it began",
            ended.duration_since(shut)
        );
    }
}
