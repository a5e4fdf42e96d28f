//! Resilience tests: retry/backoff/deadline behavior under injected
//! faults, at-most-once semantics under drops and duplicate retries,
//! overload rejection, graceful drain, server tolerance of connection
//! churn, and clean failure modes when a server dies mid-call.
//!
//! The tests that are transport-agnostic pick their fabric from the
//! `RPC_TRANSPORT` environment variable (`verbs` → RPCoIB, anything else
//! → the socket baseline), so CI runs the whole suite once per transport.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpcoib::handshake::client_hello;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::{
    Client, IbContext, RetryPolicy, RpcConfig, RpcError, RpcService, Server, ServiceRegistry,
};
use simnet::{model, Clock, Fabric, FaultSpec, NodeId, SimStream};
use wire::{BytesWritable, DataInput, LongWritable, Text, Writable};

/// Fabric + matching config for the transport selected by
/// `RPC_TRANSPORT` (CI runs the suite under both values).
fn env_transport() -> (Fabric, RpcConfig) {
    transport_of(std::env::var("RPC_TRANSPORT").as_deref() == Ok("verbs"))
}

/// [`env_transport`] with the transport chosen by the caller, for the
/// scenarios that must hold on both in every run.
fn transport_of(verbs: bool) -> (Fabric, RpcConfig) {
    if verbs {
        (Fabric::new(model::IB_QDR_VERBS), RpcConfig::rpcoib())
    } else {
        (Fabric::new(model::IPOIB_QDR), RpcConfig::socket())
    }
}

/// [`env_transport`] on a manual clock: time moves only when the test
/// advances it, so a timeout racing a handler is a step the test takes.
fn env_transport_stepped() -> (Fabric, RpcConfig) {
    let (fabric, cfg) = env_transport();
    (Fabric::with_clock(*fabric.model(), Clock::manual()), cfg)
}

/// Aborts the whole test process (with a pointed message) if the guard is
/// still alive after `limit` — so a deadlocked drain or a stuck queue
/// fails fast instead of hanging the suite until the harness timeout.
struct Watchdog {
    done: Arc<AtomicBool>,
}

fn watchdog(name: &'static str, limit: Duration) -> Watchdog {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if !flag.load(Ordering::Acquire) {
            eprintln!("watchdog: test {name} exceeded {limit:?}, aborting");
            std::process::abort();
        }
    });
    Watchdog { done }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
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
            "fail" => Err("requested failure".into()),
            other => Err(format!("no such method {other}")),
        }
    }
}

fn start_server(fabric: &Fabric, node: NodeId, cfg: &RpcConfig) -> Server {
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    Server::start(fabric, node, 8020, cfg.clone(), registry).unwrap()
}

fn ping(client: &Client, server: &Server) -> Result<BytesWritable, RpcError> {
    client.call(
        server.addr(),
        "test.EchoProtocol",
        "pingpong",
        &BytesWritable(vec![1, 2, 3]),
    )
}

/// The acceptance scenario: a transient fault that outlives
/// `RetryPolicy::none()` but not a 3-attempt backoff policy.
///
/// `fail_next_connects(n)` refuses the next `n` connection attempts.
/// Connect failures surface as retryable `Io` errors, so the first call
/// of a fresh client exercises the policy directly:
/// * 1 attempt  → a single refusal is fatal;
/// * 3 attempts → refused, refused, connected → succeeds.
#[test]
fn transient_fault_needs_retries_to_clear() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let cfg = RpcConfig::socket();
    let server = start_server(&fabric, server_node, &cfg);

    // Without retries the injected failure is fatal. (Refusals are
    // cumulative and consumed one per attempt, so inject exactly as many
    // as this phase will use up.)
    let none_cfg = RpcConfig {
        retry: RetryPolicy::none(),
        ..cfg.clone()
    };
    let client = Client::new(&fabric, fabric.add_node(), none_cfg).unwrap();
    fabric.fail_next_connects(server.addr(), 1);
    let err = ping(&client, &server).unwrap_err();
    assert!(
        matches!(err, RpcError::Io(_)),
        "expected connect refusal, got {err:?}"
    );
    assert!(
        err.is_retryable(),
        "a refused connect must be classified retryable"
    );
    let counters = client.metrics().counters();
    assert_eq!(counters.retries, 0, "RetryPolicy::none must not retry");
    assert_eq!(counters.failed_calls, 1);
    assert_eq!(fabric.pending_connect_failures(server.addr()), 0);
    client.shutdown();

    // With three attempts and backoff, the same fault heals in-flight.
    let retry_cfg = RpcConfig {
        retry: RetryPolicy::exponential(3, Duration::from_millis(5)),
        ..cfg.clone()
    };
    let client = Client::new(&fabric, fabric.add_node(), retry_cfg).unwrap();
    fabric.fail_next_connects(server.addr(), 2);
    let resp = ping(&client, &server).expect("third attempt should connect and succeed");
    assert_eq!(resp.0, vec![1, 2, 3]);
    let counters = client.metrics().counters();
    assert_eq!(counters.retries, 2, "both refusals should be retried");
    assert_eq!(counters.failed_calls, 0);
    client.shutdown();
    server.stop();
}

/// 100 connect → call → disconnect cycles: the server's live-connection
/// table must drain back to zero (no leaked conns or Reader threads),
/// while the lifetime counter records every visit.
#[test]
fn server_survives_connection_churn_without_leaking() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let cfg = RpcConfig::socket();
    let server = start_server(&fabric, server_node, &cfg);

    for i in 0..100 {
        let client = Client::new(&fabric, client_node, cfg.clone()).unwrap();
        let resp = ping(&client, &server).unwrap();
        assert_eq!(resp.0, vec![1, 2, 3], "cycle {i}");
        client.shutdown();
    }

    assert_eq!(server.lifetime_connection_count(), 100);
    // Each closed transport wakes the server, which lets it go.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.connection_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.connection_count(),
        0,
        "live connections must drain after clients disconnect"
    );
    server.stop();
}

/// `Server::stop` is idempotent and safe to race with in-flight calls.
#[test]
fn server_stop_is_idempotent_with_inflight_calls() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        call_timeout: Duration::from_secs(2),
        retry: RetryPolicy::none(),
        ..RpcConfig::socket()
    };
    let server = start_server(&fabric, server_node, &cfg);
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    ping(&client, &server).unwrap();

    // Callers hammering the server while it stops must get clean errors
    // (or late successes), never panics or hangs.
    let callers: Vec<_> = (0..4)
        .map(|_| {
            let client = client.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let _ = client.call::<_, BytesWritable>(
                        addr,
                        "test.EchoProtocol",
                        "pingpong",
                        &BytesWritable(vec![9; 64]),
                    );
                }
            })
        })
        .collect();

    server.stop();
    server.stop(); // second stop must be a no-op
    for t in callers {
        t.join().expect("caller panicked during server stop");
    }
    server.stop(); // and after the dust settles, still a no-op
    client.shutdown();
}

/// Killing the server's node mid-call yields Timeout/ConnectionClosed/Io
/// promptly — never a hang past the call timeout — and a later call after
/// reviving the address keeps working via reconnect.
#[test]
fn killed_server_fails_calls_promptly() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        call_timeout: Duration::from_millis(500),
        retry: RetryPolicy::none(),
        ..RpcConfig::socket()
    };
    let server = start_server(&fabric, server_node, &cfg);
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    ping(&client, &server).unwrap();

    fabric.kill_node(server_node);
    let start = Instant::now();
    let err = ping(&client, &server).unwrap_err();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "call against a dead server must fail promptly, took {:?}",
        start.elapsed()
    );
    assert!(
        matches!(
            err,
            RpcError::Timeout | RpcError::ConnectionClosed | RpcError::Io(_)
        ),
        "expected a transport-death error, got {err:?}"
    );
    client.shutdown();
    drop(server); // the dead node's server: stop() must not hang either
}

/// A partition heals between attempts: the retry policy carries the call
/// across the outage, reconnecting and counting the recovery.
#[test]
fn retry_reconnects_across_partition() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    // Partition failures are immediate (BrokenPipe), so attempt N lands
    // at roughly the sum of the first N-1 backoffs: ~0, 100, 300, 700 ms
    // (±20% jitter). Healing at 400 ms guarantees some attempt ≥ 4 runs
    // after the heal while the six-attempt budget is far from exhausted.
    let cfg = RpcConfig {
        call_timeout: Duration::from_millis(300),
        retry: RetryPolicy::exponential(6, Duration::from_millis(100)),
        ..RpcConfig::socket()
    };
    let server = start_server(&fabric, server_node, &cfg);
    let client = Client::new(&fabric, client_node, cfg).unwrap();
    ping(&client, &server).unwrap();

    fabric.partition(client_node, server_node);
    let healer = {
        let fabric = fabric.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            fabric.heal(client_node, server_node);
        })
    };
    let resp = ping(&client, &server).expect("call should survive a healed partition");
    assert_eq!(resp.0, vec![1, 2, 3]);
    healer.join().unwrap();

    let counters = client.metrics().counters();
    assert!(
        counters.retries >= 1,
        "outage should have cost at least one retry"
    );
    assert!(
        counters.reconnects >= 1,
        "recovery should re-establish the connection"
    );
    assert_eq!(counters.failed_calls, 0);
    client.shutdown();
    server.stop();
}

/// The per-call deadline bounds total time across attempts: with an
/// unreachable server and a generous attempt budget, the call returns
/// once the deadline is spent — not after `max_attempts × call_timeout`.
#[test]
fn deadline_caps_total_time_across_attempts() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        call_timeout: Duration::from_secs(10),
        retry: RetryPolicy::exponential(50, Duration::from_millis(10))
            .with_deadline(Duration::from_millis(700)),
        ..RpcConfig::socket()
    };
    let server = start_server(&fabric, server_node, &cfg);
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    ping(&client, &server).unwrap();

    // Black-hole the link: sends vanish silently, so every attempt rides
    // its receive wait — which the deadline must cap.
    fabric.set_link_fault(client.node(), server_node, FaultSpec::drop_all());
    let start = Instant::now();
    let err = ping(&client, &server).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        err.is_retryable(),
        "expected a transport error, got {err:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(600),
        "deadline budget should be substantially used, only took {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline must cap the call well under call_timeout, took {elapsed:?}"
    );
    assert_eq!(client.metrics().counters().failed_calls, 1);
    client.shutdown();
    server.stop();
}

/// A corrupt frame (garbage bytes on the raw stream) costs the client
/// that sent it its connection — counted in `frame_errors` — while other
/// clients keep working. Direct stream access sidesteps the RPC client,
/// so this drives the server's Reader exactly like a misbehaving peer.
#[test]
fn corrupt_frame_drops_connection_and_counts() {
    use std::io::Write;

    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let cfg = RpcConfig::socket();
    let server = start_server(&fabric, server_node, &cfg);
    let good_client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    ping(&good_client, &server).unwrap();

    // A raw connection that speaks garbage: a plausible length prefix
    // followed by bytes that cannot parse as a request header.
    let rogue_node = fabric.add_node();
    let rogue = simnet::SimStream::connect(&fabric, rogue_node, server.addr()).unwrap();
    let mut frame = 64u32.to_be_bytes().to_vec();
    frame.extend_from_slice(&[0xff; 64]);
    (&rogue).write_all(&frame).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().counters().frame_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.metrics().counters().frame_errors, 1);

    // The rogue connection dies; the well-behaved client is unaffected.
    let gone = Instant::now() + Duration::from_secs(5);
    while server.connection_count() > 1 && Instant::now() < gone {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.connection_count(),
        1,
        "only the rogue connection may be dropped"
    );
    ping(&good_client, &server).unwrap();
    good_client.shutdown();
    server.stop();
}

/// Echo also works under RPCoIB with a retry policy configured, and a
/// server restart heals transparently through the default policy.
#[test]
fn rpcoib_client_survives_server_restart() {
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let server_node = fabric.add_node();
    let cfg = RpcConfig::rpcoib();
    let server = start_server(&fabric, server_node, &cfg);
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    ping(&client, &server).unwrap();
    server.stop();

    let server = start_server(&fabric, server_node, &cfg);
    let resp = ping(&client, &server).expect("default policy should heal a stale connection");
    assert_eq!(resp.0, vec![1, 2, 3]);
    assert!(client.metrics().counters().reconnects >= 1);
    client.shutdown();
    server.stop();
}

/// Non-retryable errors must not consume retry budget: a remote
/// exception fails immediately even under an aggressive policy.
#[test]
fn remote_errors_are_not_retried() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        retry: RetryPolicy::exponential(5, Duration::from_millis(100)),
        ..RpcConfig::socket()
    };
    let server = start_server(&fabric, server_node, &cfg);
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();

    let start = Instant::now();
    let err = client
        .call::<_, Text>(
            server.addr(),
            "test.EchoProtocol",
            "fail",
            &Text("x".into()),
        )
        .unwrap_err();
    assert!(matches!(err, RpcError::Remote(_)), "got {err:?}");
    assert!(
        start.elapsed() < Duration::from_millis(100),
        "remote exceptions must fail without backoff sleeps"
    );
    let counters = client.metrics().counters();
    assert_eq!(counters.retries, 0);
    assert_eq!(counters.failed_calls, 1);
    client.shutdown();
    server.stop();
}

/// A deliberately *non-idempotent* service: every executed `incr` bumps
/// the counter, so duplicate executions are directly observable. `slow*`
/// methods stall in the handler for `delay` on the fabric's clock, and
/// count themselves in `begun` once the stall's end is fixed.
struct CounterService {
    applied: Arc<AtomicU64>,
    begun: Arc<AtomicU64>,
    clock: Clock,
    delay: Duration,
}

impl CounterService {
    fn stall(&self) {
        let until = self.clock.deadline(self.delay);
        self.begun.fetch_add(1, Ordering::AcqRel);
        self.clock.sleep_until(until);
    }
}

impl RpcService for CounterService {
    fn protocol(&self) -> &'static str {
        "test.CounterProtocol"
    }
    fn call(
        &self,
        method: &str,
        _param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "incr" => {
                let now = self.applied.fetch_add(1, Ordering::AcqRel) + 1;
                Ok(Box::new(LongWritable(now as i64)))
            }
            "slow_incr" => {
                self.stall();
                let now = self.applied.fetch_add(1, Ordering::AcqRel) + 1;
                Ok(Box::new(LongWritable(now as i64)))
            }
            "slow" => {
                self.stall();
                Ok(Box::new(LongWritable(0)))
            }
            "get" => Ok(Box::new(LongWritable(
                self.applied.load(Ordering::Acquire) as i64
            ))),
            other => Err(format!("no such method {other}")),
        }
    }
}

fn start_counter_server(
    fabric: &Fabric,
    node: NodeId,
    cfg: &RpcConfig,
    delay: Duration,
) -> (Server, Arc<AtomicU64>) {
    let applied = Arc::new(AtomicU64::new(0));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(CounterService {
        applied: Arc::clone(&applied),
        begun: Arc::new(AtomicU64::new(0)),
        clock: fabric.clock().clone(),
        delay,
    }));
    let server = Server::start(fabric, node, 8020, cfg.clone(), registry).unwrap();
    (server, applied)
}

fn counter_call(client: &Client, server: &Server, method: &str) -> Result<LongWritable, RpcError> {
    client.call(
        server.addr(),
        "test.CounterProtocol",
        method,
        &LongWritable(1),
    )
}

/// The at-most-once acceptance scenario: a lossy link forces retries of a
/// non-idempotent call, and the retry cache must ensure each logical call
/// is applied **exactly once** — the drops cost latency, never double
/// execution.
fn exactly_once_under_drops(fabric: Fabric, base: RpcConfig) {
    let _wd = watchdog("exactly_once_under_drops", Duration::from_secs(120));
    fabric.set_fault_seed(42);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let cfg = RpcConfig {
        call_timeout: Duration::from_millis(250),
        retry: RetryPolicy::exponential(10, Duration::from_millis(10)),
        ..base
    };
    let (server, applied) = start_counter_server(&fabric, server_node, &cfg, Duration::ZERO);
    let client = Client::new(&fabric, client_node, cfg).unwrap();

    // Warm the connection over a clean link, then make it lossy in both
    // directions: requests, responses, reconnect handshakes — anything
    // can vanish.
    counter_call(&client, &server, "get").unwrap();
    fabric.set_link_fault(client_node, server_node, FaultSpec::lossy(0.3));
    fabric.set_link_fault(server_node, client_node, FaultSpec::lossy(0.3));

    const CALLS: u64 = 20;
    for i in 0..CALLS {
        let resp = counter_call(&client, &server, "incr")
            .unwrap_or_else(|e| panic!("incr #{i} exhausted retries: {e:?}"));
        assert!(resp.0 >= 1);
    }

    // Heal the link and audit the server-side ground truth.
    fabric.set_link_fault(client_node, server_node, FaultSpec::lossy(0.0));
    fabric.set_link_fault(server_node, client_node, FaultSpec::lossy(0.0));
    let seen = counter_call(&client, &server, "get").unwrap();
    assert_eq!(
        applied.load(Ordering::Acquire),
        CALLS,
        "every incr must execute exactly once despite drops and retries"
    );
    assert_eq!(seen.0 as u64, CALLS);

    let client_counters = client.metrics().counters();
    let server_counters = server.metrics().counters();
    assert!(
        client_counters.retries > 0,
        "the lossy link should have forced at least one retry"
    );
    assert!(
        server_counters.retry_cache_hits + server_counters.retry_cache_parked > 0
            || client_counters.reconnects > 0,
        "duplicate suppression (or reconnects) should be visible in the counters"
    );
    client.shutdown();
    server.stop();
}

#[test]
fn exactly_once_under_drops_socket() {
    exactly_once_under_drops(Fabric::new(model::IPOIB_QDR), RpcConfig::socket());
}

#[test]
fn exactly_once_under_drops_verbs() {
    exactly_once_under_drops(Fabric::new(model::IB_QDR_VERBS), RpcConfig::rpcoib());
}

/// A retry that lands while the first attempt is still executing must be
/// *parked*, not re-executed: the handler runs once and its response is
/// fanned out to the duplicate.
#[test]
fn duplicate_of_inflight_call_parks_instead_of_reexecuting() {
    let _wd = watchdog("duplicate_parks", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        // The handler takes 400 ms; the first attempt gives up at 300 ms
        // and the retry arrives while the call is still executing.
        call_timeout: Duration::from_millis(300),
        retry: RetryPolicy::exponential(3, Duration::from_millis(10)),
        ..base
    };
    let (server, applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(400));
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();

    let resp = counter_call(&client, &server, "slow_incr")
        .expect("the retry should collect the first attempt's response");
    assert_eq!(resp.0, 1);
    assert_eq!(
        applied.load(Ordering::Acquire),
        1,
        "the duplicate attempt must not re-execute the increment"
    );
    assert!(
        server.metrics().counters().retry_cache_parked >= 1,
        "the duplicate should have parked behind the in-flight call"
    );
    client.shutdown();
    server.stop();
}

/// A response that arrives after its caller timed out is not an error:
/// it is counted (`late_responses`) and the connection keeps working —
/// no reconnect, no corruption of later calls.
#[test]
fn late_response_is_counted_and_connection_survives() {
    let _wd = watchdog("late_response", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        call_timeout: Duration::from_millis(150),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, _applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(400));
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();

    let err = counter_call(&client, &server, "slow").unwrap_err();
    assert!(matches!(err, RpcError::Timeout), "got {err:?}");

    // The server finishes at ~400 ms. Nobody reads an idle connection,
    // so the response waits on the wire until the next call's receiver
    // meets it — ahead of its own, with no matching pending entry.
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.metrics().counters().late_responses == 0 && Instant::now() < deadline {
        assert_eq!(counter_call(&client, &server, "get").unwrap().0, 0);
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(client.metrics().counters().late_responses, 1);

    // Same connection, next call: works.
    let resp = counter_call(&client, &server, "get").unwrap();
    assert_eq!(resp.0, 0);
    assert_eq!(
        client.metrics().counters().reconnects,
        0,
        "a late response must not cost the connection"
    );
    client.shutdown();
    server.stop();
}

/// Overload: with one executing call and a one-slot call queue, a third
/// concurrent call must be *rejected* as retryable `ServerBusy` — fast,
/// because the Reader refuses admission instead of blocking on the full
/// queue — while the two admitted calls complete normally.
#[test]
fn queue_overflow_rejects_with_server_busy() {
    let _wd = watchdog("server_busy", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 1,
        call_queue_len: 1,
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(500));
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();

    // A occupies the single handler; B occupies the single queue slot.
    let spawn_slow = |delay_ms: u64| {
        let client = client.clone();
        let addr = server.addr();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay_ms));
            client.call::<_, LongWritable>(
                addr,
                "test.CounterProtocol",
                "slow_incr",
                &LongWritable(1),
            )
        })
    };
    let a = spawn_slow(0);
    let b = spawn_slow(100);

    // C: a separate client (fresh connection, same overloaded queue)
    // must be turned away promptly — the Reader is not allowed to block.
    std::thread::sleep(Duration::from_millis(250));
    let busy_client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    let start = Instant::now();
    let err = counter_call(&busy_client, &server, "incr").unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, RpcError::ServerBusy), "got {err:?}");
    assert!(
        err.is_retryable(),
        "a busy rejection never executed and must be retryable"
    );
    assert!(
        elapsed < Duration::from_millis(400),
        "busy rejection must be immediate, took {elapsed:?}"
    );

    assert!(a.join().unwrap().is_ok(), "admitted call A must complete");
    assert!(b.join().unwrap().is_ok(), "queued call B must complete");
    assert_eq!(
        applied.load(Ordering::Acquire),
        2,
        "the rejected call must never have executed"
    );
    assert!(server.metrics().counters().busy_rejections >= 1);
    client.shutdown();
    busy_client.shutdown();
    server.stop();
}

/// Graceful drain: calls already admitted (executing or queued) complete
/// and their responses are delivered; only then does the server stop.
/// New work after the drain is refused.
#[test]
fn drain_completes_queued_calls() {
    let _wd = watchdog("drain_completes", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 2,
        call_timeout: Duration::from_secs(10),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(150));
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();

    // Six slow calls against two handlers: three waves, ~450 ms of queued
    // work at drain time.
    let callers: Vec<_> = (0..6)
        .map(|_| {
            let client = client.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                client.call::<_, LongWritable>(
                    addr,
                    "test.CounterProtocol",
                    "slow_incr",
                    &LongWritable(1),
                )
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let drained = server.drain(Duration::from_secs(10));
    assert!(drained, "all admitted work fits well inside the deadline");

    for (i, t) in callers.into_iter().enumerate() {
        let resp = t.join().unwrap();
        assert!(resp.is_ok(), "queued call {i} must survive drain: {resp:?}");
    }
    assert_eq!(applied.load(Ordering::Acquire), 6);

    // The drained server accepts nothing new.
    assert!(counter_call(&client, &server, "get").is_err());
    client.shutdown();
}

/// A drain deadline shorter than the queued work cuts over to an abrupt
/// stop and reports the truncation.
#[test]
fn drain_deadline_cuts_off_stuck_work() {
    let _wd = watchdog("drain_deadline", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 1,
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, _applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_secs(2));
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();

    let slow = {
        let client = client.clone();
        let addr = server.addr();
        std::thread::spawn(move || {
            client.call::<_, LongWritable>(addr, "test.CounterProtocol", "slow", &LongWritable(1))
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let start = Instant::now();
    let drained = server.drain(Duration::from_millis(200));
    assert!(!drained, "a 2 s handler cannot drain in 200 ms");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "an expired drain must not wait for the stuck handler"
    );
    let _ = slow.join().unwrap(); // cut off by the abrupt stop: any error is fine
    client.shutdown();
}

/// Drain under active multi-tenant load: a flooder saturating its quota
/// and a light tenant both have calls in flight when `drain` begins.
/// Every call must reach a definite outcome — completed, busy-rejected,
/// expired, timed out, or failed by the closing connection — never a
/// silent drop, and the server-side applied count must equal exactly the
/// light tenant's successes (at-most-once survives the drain).
#[test]
fn drain_under_multi_tenant_load_leaves_no_call_unanswered() {
    let _wd = watchdog("drain_multi_tenant", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 2,
        call_queue_len: 16,
        tenant_quota: 4,
        call_timeout: Duration::from_secs(2),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(50));

    let flooder = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    flooder.force_client_id(71);
    let light = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    light.force_client_id(81);

    let stop_flag = Arc::new(AtomicBool::new(false));
    let spawn_loop = |client: Client, method: &'static str| {
        let addr = server.addr();
        let stop_flag = Arc::clone(&stop_flag);
        std::thread::spawn(move || {
            let mut outcomes: Vec<Result<LongWritable, RpcError>> = Vec::new();
            while !stop_flag.load(Ordering::Acquire) {
                outcomes.push(client.call(addr, "test.CounterProtocol", method, &LongWritable(1)));
                std::thread::sleep(Duration::from_millis(2));
            }
            outcomes
        })
    };
    let flood_threads: Vec<_> = (0..4)
        .map(|_| spawn_loop(flooder.clone(), "slow"))
        .collect();
    let light_thread = spawn_loop(light.clone(), "incr");

    // Both tenants have work executing and queued when the drain begins.
    std::thread::sleep(Duration::from_millis(150));
    let drained = server.drain(Duration::from_secs(10));
    assert!(drained, "admitted work fits well inside the drain deadline");
    stop_flag.store(true, Ordering::Release);

    // Every issued call ended in a definite, explainable outcome.
    let mut light_ok = 0u64;
    let mut audit = |outcomes: Vec<Result<LongWritable, RpcError>>, is_light: bool| {
        for r in outcomes {
            match r {
                Ok(_) => {
                    if is_light {
                        light_ok += 1;
                    }
                }
                Err(
                    RpcError::ServerBusy
                    | RpcError::DeadlineExpired
                    | RpcError::Timeout
                    | RpcError::ConnectionClosed
                    | RpcError::Io(_),
                ) => {}
                Err(e) => panic!("call ended in an unexplainable state: {e:?}"),
            }
        }
    };
    for t in flood_threads {
        audit(t.join().unwrap(), false);
    }
    audit(light_thread.join().unwrap(), true);
    assert!(
        light_ok >= 1,
        "the light tenant must have completed calls before and during drain"
    );
    assert_eq!(
        applied.load(Ordering::Acquire),
        light_ok,
        "at-most-once must survive the drain: applied == light successes"
    );
    flooder.shutdown();
    light.shutdown();
}

/// The handshake is demanded, not sniffed. A connection that opens with
/// anything else — the previous release's V1 frame, an HTTP probe, a
/// hello offering version 2 — is closed with nothing written back,
/// counted in `frame_errors`, never reaches the read side or (on verbs)
/// the endpoint exchange, and costs the server's real clients nothing: a
/// V3 client on another connection is served before, between and after.
#[test]
fn connection_without_the_handshake_is_refused() {
    use std::io::Write;
    use wire::DataOutput;

    let _wd = watchdog("refused_peer", Duration::from_secs(120));
    // `[i32 len][i32 call_id][Text protocol][Text method][param]`, as a
    // pre-handshake peer put it on the wire.
    let mut v1_frame: Vec<u8> = Vec::new();
    v1_frame.write_i32(7).unwrap();
    v1_frame.write_string("test.CounterProtocol").unwrap();
    v1_frame.write_string("incr").unwrap();
    LongWritable(1).write(&mut v1_frame).unwrap();
    let mut v1_peer = (v1_frame.len() as i32).to_be_bytes().to_vec();
    v1_peer.extend_from_slice(&v1_frame);
    let mut v2_hello = rpcoib::handshake::MAGIC.to_be_bytes().to_vec();
    v2_hello.push(2);
    v2_hello.extend_from_slice(&0xfeed_u64.to_be_bytes());
    let openings = [v1_peer, b"GET / HTTP/1.1\r\n\r\n".to_vec(), v2_hello];

    for verbs in [false, true] {
        let (fabric, cfg) = transport_of(verbs);
        let server_node = fabric.add_node();
        let (server, applied) = start_counter_server(&fabric, server_node, &cfg, Duration::ZERO);
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        assert_eq!(counter_call(&client, &server, "incr").unwrap().0, 1);

        for (i, opening) in openings.iter().enumerate() {
            let refused = i as u64 + 1;
            let (_, _, _, regs_before) = fabric.stats().snapshot();
            let stream = SimStream::connect(&fabric, fabric.add_node(), server.addr()).unwrap();
            (&stream).write_all(opening).unwrap();
            let mut byte = [0u8; 1];
            assert!(
                stream.read_exact_at(&mut byte).is_err(),
                "verbs={verbs}: refused peer #{refused} must see EOF and no bytes"
            );
            // The setup thread counts before it drops the stream, so the
            // EOF above orders this read after the increment.
            assert_eq!(
                server.metrics_snapshot().counters.frame_errors,
                refused,
                "verbs={verbs}: each refusal is counted once"
            );
            let (_, _, _, regs_after) = fabric.stats().snapshot();
            assert_eq!(
                regs_after, regs_before,
                "verbs={verbs}: a refused peer must not start the endpoint exchange"
            );
            assert_eq!(
                server.connection_count(),
                1,
                "verbs={verbs}: only the client's connection is live"
            );
            assert_eq!(
                counter_call(&client, &server, "incr").unwrap().0,
                refused as i64 + 1,
                "verbs={verbs}: the client is served as if nothing happened"
            );
        }
        assert_eq!(applied.load(Ordering::Acquire), openings.len() as u64 + 1);
        assert_eq!(client.metrics_snapshot().counters.retries, 0);
        client.shutdown();
        server.stop();
    }
}

/// Per-connection response ORDER survives send batching. A raw peer
/// — handshake, then the frame codec by hand — pipelines 8 requests; with
/// a single run permit, completion order equals request order, and
/// whoever holds the connection's send turn — it may find several
/// responses pending behind it and gather them into one send — must put
/// them on the wire in exactly that order.
#[test]
fn pipelined_responses_stay_in_request_order_under_batching() {
    use rpcoib::intern::method_key;
    use rpcoib::{ResponseStatus, V3Decoder, V3Encoder};
    use std::io::Write;

    let _wd = watchdog("pipelined_order", Duration::from_secs(60));
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 1,
        ..RpcConfig::socket()
    };
    let (server, applied) = start_counter_server(&fabric, server_node, &cfg, Duration::ZERO);

    let stream = simnet::SimStream::connect(&fabric, fabric.add_node(), server.addr()).unwrap();
    client_hello(&stream, 0).unwrap();
    const PIPELINED: i64 = 8;
    // All 8 requests hit the wire before any response is read, so
    // responses can really meet a taken turn and queue behind it.
    let key = method_key("test.CounterProtocol", "incr");
    let mut enc = V3Encoder::new(true);
    let mut burst: Vec<u8> = Vec::new();
    for seq in 1..=PIPELINED {
        let mut body: Vec<u8> = Vec::new();
        enc.write_request_header(&mut body, seq, 0, None, key)
            .unwrap();
        LongWritable(1).write(&mut body).unwrap();
        burst.extend_from_slice(&(body.len() as i32).to_be_bytes());
        burst.extend_from_slice(&body);
    }
    (&stream).write_all(&burst).unwrap();

    let mut dec = V3Decoder::new(true);
    for seq in 1..=PIPELINED {
        let mut len = [0u8; 4];
        stream.read_exact_at(&mut len).unwrap();
        let mut resp = vec![0u8; i32::from_be_bytes(len) as usize];
        stream.read_exact_at(&mut resp).unwrap();
        let mut input = resp.as_slice();
        let header = dec.read_response_header(&mut input).unwrap();
        assert_eq!(header.seq, seq, "response #{seq} out of order");
        assert_eq!(header.status, ResponseStatus::Ok);
        let mut value = LongWritable::default();
        value.read_fields(&mut input).unwrap();
        assert_eq!(value.0, seq, "single-handler completion order broken");
    }
    assert_eq!(applied.load(Ordering::Acquire), PIPELINED as u64);
    drop(stream);
    server.stop();
}

/// The handshake's assign-on-zero path: a client that presents id 0 is
/// handed a server-minted identity in the ack and must *adopt* it — the
/// frames it then sends carry the assigned id, so retry caching engages.
#[test]
fn server_assigned_client_id_is_adopted() {
    let _wd = watchdog("assigned_id", Duration::from_secs(60));
    let (fabric, cfg) = env_transport();
    let server_node = fabric.add_node();
    let (server, applied) = start_counter_server(&fabric, server_node, &cfg, Duration::ZERO);
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    client.force_client_id(0);

    assert_eq!(counter_call(&client, &server, "incr").unwrap().0, 1);
    let adopted = client.client_id();
    assert_ne!(adopted, 0, "client must adopt the server-assigned id");
    assert!(
        server.retry_cache_len() >= 1,
        "calls under the adopted id must be retry-cached"
    );
    assert_eq!(counter_call(&client, &server, "incr").unwrap().0, 2);
    assert_eq!(client.client_id(), adopted, "id is stable once adopted");
    assert_eq!(applied.load(Ordering::Acquire), 2);
    client.shutdown();
    server.stop();
}

/// Regression for the old `i32` call-id counter, which wrapped negative
/// after 2³¹ calls: sequence
/// numbers are `i64` now, and calls crossing the old boundary just work.
#[test]
fn sequence_numbers_survive_i32_wraparound() {
    let _wd = watchdog("seq_wrap", Duration::from_secs(60));
    let (fabric, cfg) = env_transport();
    let server_node = fabric.add_node();
    let (server, applied) = start_counter_server(&fabric, server_node, &cfg, Duration::ZERO);
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    assert_ne!(client.client_id(), 0);

    client.force_next_seq(i64::from(i32::MAX) - 2);
    for i in 0..5 {
        let resp = counter_call(&client, &server, "incr")
            .unwrap_or_else(|e| panic!("call {i} across the i32 boundary failed: {e:?}"));
        assert_eq!(resp.0, i + 1);
    }
    assert_eq!(applied.load(Ordering::Acquire), 5);
    assert_eq!(client.metrics().counters().failed_calls, 0);
    client.shutdown();
    server.stop();
}

// ---------------------------------------------------------------------------
// Retry-cache generation safety under contention. Duplicate calls race the
// original's completion, capacity eviction, and TTL expiry; whatever wins,
// a Replay must never surface a response generation older than the last
// completion the duplicate could already have observed.
// ---------------------------------------------------------------------------

#[test]
fn retry_cache_never_replays_stale_generation_under_contention() {
    use rpcoib::{Admission, MetricsRegistry, RetryCache};

    let _guard = watchdog(
        "retry_cache_never_replays_stale_generation_under_contention",
        Duration::from_secs(60),
    );

    // More keys than capacity so completed entries are constantly evicted
    // oldest-first while duplicates for them are still arriving.
    const KEYS: usize = 16;
    const CAPACITY: usize = 8;
    const THREADS: u64 = 4;
    const ITERS: u64 = 400;

    let cache = Arc::new(RetryCache::<u32>::new(
        Duration::from_millis(25),
        CAPACITY,
        MetricsRegistry::new(false),
    ));
    // Per-key generation source and high-water mark of completed
    // generations. `last_done` only ever lags the cache's own state, so
    // reading it *before* begin() gives a sound lower bound for what a
    // replay is allowed to return.
    let gens: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let last_done: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let parked = Arc::new(AtomicU64::new(0));
    let replayed = Arc::new(AtomicU64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let gens = Arc::clone(&gens);
            let last_done = Arc::clone(&last_done);
            let parked = Arc::clone(&parked);
            let replayed = Arc::clone(&replayed);
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1);
                for _ in 0..ITERS {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let k = (rng % KEYS as u64) as usize;
                    let key = (0u64, k as i64);
                    let low = last_done[k].load(Ordering::SeqCst);
                    match cache.begin(key, || t as u32) {
                        Admission::Execute => {
                            // Execute windows for one key are mutually
                            // exclusive (duplicates park), so generations
                            // are completed in increasing order per key.
                            let tag = gens[k].fetch_add(1, Ordering::SeqCst) + 1;
                            if tag.is_multiple_of(13) {
                                let waiters = cache.abort(key);
                                delivered.fetch_add(waiters.len() as u64, Ordering::SeqCst);
                            } else {
                                if tag.is_multiple_of(7) {
                                    // Widen the in-flight window so
                                    // duplicates actually park on it.
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                let waiters =
                                    cache.complete(key, Arc::new(tag.to_be_bytes().to_vec()));
                                last_done[k].fetch_max(tag, Ordering::SeqCst);
                                delivered.fetch_add(waiters.len() as u64, Ordering::SeqCst);
                            }
                        }
                        Admission::Parked => {
                            parked.fetch_add(1, Ordering::SeqCst);
                        }
                        Admission::Replay(bytes) => {
                            let tag = u64::from_be_bytes(
                                bytes.as_slice().try_into().expect("8-byte generation tag"),
                            );
                            assert!(
                                tag >= low,
                                "key {k}: replayed generation {tag} is older than \
                                 generation {low} already completed before this \
                                 duplicate began"
                            );
                            replayed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Every execute window was resolved, so nothing is in flight and the
    // eviction order keeps the cache bounded by its capacity.
    assert!(
        cache.len() <= CAPACITY,
        "cache holds {} entries, capacity is {CAPACITY}",
        cache.len()
    );
    // Every parked waiter must have been handed back by exactly one
    // complete() or abort() — none lost, none duplicated.
    assert_eq!(
        delivered.load(Ordering::SeqCst),
        parked.load(Ordering::SeqCst),
        "parked waiters were dropped or double-delivered"
    );
    // The schedule actually exercised the interesting paths.
    assert!(
        replayed.load(Ordering::SeqCst) > 0,
        "no duplicate ever hit a cached response"
    );
    assert!(
        parked.load(Ordering::SeqCst) > 0,
        "no duplicate ever parked on an in-flight call"
    );
}

#[test]
fn retry_cache_ttl_expiry_reexecutes_instead_of_replaying_stale() {
    use rpcoib::{Admission, MetricsRegistry, RetryCache};

    let cache = RetryCache::<u32>::new(Duration::from_millis(10), 4, MetricsRegistry::new(false));
    let key = (7u64, 1i64);

    assert!(matches!(cache.begin(key, || 0), Admission::Execute));
    cache.complete(key, Arc::new(vec![1]));
    match cache.begin(key, || 0) {
        Admission::Replay(bytes) => assert_eq!(*bytes, vec![1]),
        other => panic!("within TTL the duplicate must replay, got {other:?}"),
    }

    std::thread::sleep(Duration::from_millis(25));

    // Past the TTL the cached generation is gone: the duplicate
    // re-executes, and from then on only the fresh generation replays.
    assert!(matches!(cache.begin(key, || 0), Admission::Execute));
    cache.complete(key, Arc::new(vec![2]));
    match cache.begin(key, || 0) {
        Admission::Replay(bytes) => assert_eq!(*bytes, vec![2]),
        other => panic!("fresh generation must replay after re-execution, got {other:?}"),
    }
}

/// Moves a manual clock past every deadline when dropped — declared after
/// the server, so that a failed assertion's unwinding wakes a handler
/// asleep on the clock before the server's drop waits for its thread.
struct WakeSleepers(Clock);

impl Drop for WakeSleepers {
    fn drop(&mut self) {
        self.0.advance(Duration::MAX);
    }
}

/// Spin (under the caller's watchdog) until `cond` holds. It yields
/// rather than sleeps: on a manual clock nothing the test waits for is
/// a matter of time.
fn until(mut cond: impl FnMut() -> bool) {
    while !cond() {
        std::thread::yield_now();
    }
}

/// Duplicates the server has met: parked behind their executing call, or
/// replayed from the cache.
fn duplicates(server: &Server) -> u64 {
    let counters = server.metrics().counters();
    counters.retry_cache_parked + counters.retry_cache_hits
}

/// The read side across connections, first invariant: a parked
/// duplicate on one of two connections still fans out exactly once.
/// Stepped on a manual clock: the handler stalls 400 ms of it, the call
/// timeout is 300 ms. The test moves the clock past the timeout, waits
/// until the server has met the retry — parked behind the executing
/// call — and only then moves it past the handler's stall, so no host
/// scheduling can let the first attempt finish before its retry lands.
#[test]
fn a_parked_duplicate_across_two_connections_fans_out_once() {
    let _wd = watchdog("parked_duplicate", Duration::from_secs(60));
    let (fabric, base) = env_transport_stepped();
    let clock = fabric.clock().clone();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        call_timeout: Duration::from_millis(300),
        retry: RetryPolicy::exponential(10, Duration::from_millis(10)),
        ..base
    };
    let applied = Arc::new(AtomicU64::new(0));
    let begun = Arc::new(AtomicU64::new(0));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(CounterService {
        applied: Arc::clone(&applied),
        begun: Arc::clone(&begun),
        clock: clock.clone(),
        delay: Duration::from_millis(400),
    }));
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();

    // Two clients = two connections.
    let client_a = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    counter_call(&client_a, &server, "get").unwrap();
    let client_b = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    counter_call(&client_b, &server, "get").unwrap();
    let _wake = WakeSleepers(clock.clone());

    // Parked duplicate on connection A while connection B keeps
    // working.
    let caller = {
        let (client, addr) = (client_a.clone(), server.addr());
        std::thread::spawn(move || {
            client.call::<_, LongWritable>(
                addr,
                "test.CounterProtocol",
                "slow_incr",
                &LongWritable(1),
            )
        })
    };
    until(|| begun.load(Ordering::Acquire) == 1);
    clock.advance(Duration::from_millis(301));
    until(|| duplicates(&server) >= 1 || begun.load(Ordering::Acquire) > 1);
    assert_eq!(
        begun.load(Ordering::Acquire),
        1,
        "the retry re-executed instead of parking"
    );
    assert_eq!(counter_call(&client_b, &server, "get").unwrap().0, 0);
    clock.advance(Duration::from_millis(100));
    let resp = caller
        .join()
        .unwrap()
        .expect("the retry should collect the first attempt's response");
    assert_eq!(resp.0, 1);
    assert_eq!(
        applied.load(Ordering::Acquire),
        1,
        "the parked duplicate must not re-execute"
    );
    assert!(
        server.metrics().counters().retry_cache_parked >= 1,
        "the duplicate should have parked behind the in-flight call"
    );
    client_a.shutdown();
    client_b.shutdown();
    server.stop();
}

/// The read side's correctness contract across connections, the other
/// two invariants: two connections, read by whichever pool thread holds
/// the read turn, and
///
/// * a non-idempotent workload split across both connections applies
///   exactly once per logical call under seeded link faults;
/// * concurrent callers multiplexed on one connection always get *their
///   own* response back — the per-connection send turn never lets two
///   threads interleave writes on a single connection.
///
/// Both must hold whether a turn's holder finds one response pending
/// behind it or gathers several. (The first invariant, a parked
/// duplicate, is [`a_parked_duplicate_across_two_connections_fans_out_once`].)
#[test]
fn ordering_and_at_most_once_across_two_connections() {
    let _wd = watchdog("two_connections", Duration::from_secs(120));
    let (fabric, base) = env_transport();
    fabric.set_fault_seed(7);
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        // Lost requests and responses cost an attempt each.
        call_timeout: Duration::from_millis(300),
        retry: RetryPolicy::exponential(10, Duration::from_millis(10)),
        ..base
    };
    let applied = Arc::new(AtomicU64::new(0));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(CounterService {
        applied: Arc::clone(&applied),
        begun: Arc::new(AtomicU64::new(0)),
        clock: fabric.clock().clone(),
        delay: Duration::ZERO,
    }));
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();

    // Two clients = two connections.
    let client_a = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    counter_call(&client_a, &server, "get").unwrap();
    let client_b = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    counter_call(&client_b, &server, "get").unwrap();

    // Seeded faults on both links; each connection drives a sequential
    // stream of non-idempotent calls from its own thread.
    for &node in &[client_a.node(), client_b.node()] {
        fabric.set_link_fault(node, server_node, FaultSpec::lossy(0.2));
        fabric.set_link_fault(server_node, node, FaultSpec::lossy(0.2));
    }
    const CALLS_PER_CONN: u64 = 10;
    let workers: Vec<_> = [client_a.clone(), client_b.clone()]
        .into_iter()
        .map(|client| {
            let server_addr = server.addr();
            std::thread::spawn(move || {
                for i in 0..CALLS_PER_CONN {
                    let resp: LongWritable = client
                        .call(
                            server_addr,
                            "test.CounterProtocol",
                            "incr",
                            &LongWritable(1),
                        )
                        .unwrap_or_else(|e| panic!("incr #{i} exhausted retries: {e:?}"));
                    assert!(resp.0 >= 1);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    for &node in &[client_a.node(), client_b.node()] {
        fabric.set_link_fault(node, server_node, FaultSpec::lossy(0.0));
        fabric.set_link_fault(server_node, node, FaultSpec::lossy(0.0));
    }
    assert_eq!(
        applied.load(Ordering::Acquire),
        2 * CALLS_PER_CONN,
        "every incr must apply exactly once across both connections"
    );

    // Clean links again: hammer one connection with concurrent callers.
    // If two threads ever wrote one connection at once, interleaved
    // frames would corrupt these echoes.
    let hammers: Vec<_> = (0..4)
        .map(|t| {
            let client = client_a.clone();
            let server_addr = server.addr();
            std::thread::spawn(move || {
                for i in 0..10u8 {
                    let payload: Vec<u8> = vec![t as u8 * 16 + i; 64 + i as usize];
                    let resp: BytesWritable = client
                        .call(
                            server_addr,
                            "test.EchoProtocol",
                            "pingpong",
                            &BytesWritable(payload.clone()),
                        )
                        .unwrap();
                    assert_eq!(resp.0, payload, "response routed to the wrong caller");
                }
            })
        })
        .collect();
    for h in hammers {
        h.join().unwrap();
    }

    // The read side (one row, whichever thread read) saw every frame,
    // and the send ledger (one row: no thread) every response.
    let shards = server.metrics_snapshot().shards;
    for role in ["reader", "responder"] {
        let rows: Vec<_> = shards.iter().filter(|s| s.role.name() == role).collect();
        assert!(
            rows.len() == 1 && rows[0].processed > 0,
            "one {role} row, and it saw work: {shards:?}"
        );
    }

    client_a.shutdown();
    client_b.shutdown();
    server.stop();
}

// ---------------------------------------------------------------------------
// Connection-scale resilience: accept backpressure, churn soak, drain/restart.
// These drive the accept path below the `Client` layer so they can park raw
// connections, observe the busy ack directly, and count reader-side residue.
// ---------------------------------------------------------------------------

/// A raw parked connection held open against a server: a handshaken
/// stream (socket) or a handshaken stream plus its bootstrapped verbs
/// conn. Dropping it releases the client end, and the server sees the
/// end at once: EOF on the socket transport, its queue pair's error
/// state on verbs.
struct ParkedConn {
    _stream: SimStream,
    _conn: Option<RdmaConn>,
}

fn park_conn(
    fabric: &Fabric,
    node: NodeId,
    addr: simnet::SimAddr,
    cfg: &RpcConfig,
    ctx: Option<&IbContext>,
) -> Result<ParkedConn, RpcError> {
    let stream = SimStream::connect(fabric, node, addr).map_err(|e| RpcError::Io(e.to_string()))?;
    client_hello(&stream, 0)?;
    let conn = match ctx {
        Some(ctx) => Some(RdmaConn::bootstrap(&stream, ctx, cfg)?),
        None => None,
    };
    Ok(ParkedConn {
        _stream: stream,
        _conn: conn,
    })
}

fn wait_connection_count(server: &Server, want: usize, limit: Duration, what: &str) {
    let deadline = Instant::now() + limit;
    while server.connection_count() != want {
        assert!(
            Instant::now() < deadline,
            "{what}: connection count stuck at {} (want {want})",
            server.connection_count()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A connect storm past `max_connections` is answered with the
/// retryable busy ack at the accept path — before any handshake work or
/// conn registration — and the rejections are counted. Once the parked
/// population goes away the freed capacity serves new peers again.
#[test]
fn accept_storm_past_max_connections_is_rejected_retryably() {
    let _wd = watchdog("accept_storm", Duration::from_secs(120));
    let (fabric, mut cfg) = env_transport();
    cfg.max_connections = 8;
    let server_node = fabric.add_node();
    let idle_node = fabric.add_node();
    let server = start_server(&fabric, server_node, &cfg);
    let ctx = cfg
        .ib_enabled
        .then(|| IbContext::new(&fabric, idle_node, &cfg).unwrap());

    // Fill every admission slot with parked conns.
    let parked: Vec<ParkedConn> = (0..8)
        .map(|_| park_conn(&fabric, idle_node, server.addr(), &cfg, ctx.as_ref()).unwrap())
        .collect();
    wait_connection_count(&server, 8, Duration::from_secs(30), "fill");

    // The storm: every further connect must get the busy ack, and it
    // must be marked retryable (the peer did no work on our behalf).
    for i in 0..5 {
        match park_conn(&fabric, idle_node, server.addr(), &cfg, ctx.as_ref()) {
            Err(e @ RpcError::ServerBusy) => {
                assert!(e.is_retryable(), "busy ack must be retryable")
            }
            Err(other) => panic!("storm conn {i}: expected ServerBusy, got {other:?}"),
            Ok(_) => panic!("storm conn {i} was admitted past max_connections"),
        }
    }
    let rejected = server.metrics_snapshot().counters.accept_rejections;
    assert!(rejected >= 5, "accept_rejections = {rejected}, want >= 5");
    assert_eq!(
        server.connection_count(),
        8,
        "rejected conns must not register"
    );
    assert_eq!(server.lifetime_connection_count(), 8);

    // Release the population: each end reaches the server.
    drop(parked);
    wait_connection_count(&server, 0, Duration::from_secs(30), "release");

    // Freed capacity admits a real client.
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    assert_eq!(ping(&client, &server).unwrap().0, vec![1, 2, 3]);
    client.shutdown();
    server.stop();
}

/// A cap filled one connect at a time, each connect right behind the
/// last one's handshake, admits every connect up to the cap: a setup that
/// has just registered its connection is counted once, not as live and in
/// setup both. The next connect is refused.
#[test]
fn a_cap_filled_one_connect_at_a_time_admits_every_connect() {
    let _wd = watchdog("cap_fill", Duration::from_secs(120));
    const CAP: usize = 4;
    for round in 0..50 {
        let (fabric, mut cfg) = env_transport();
        cfg.max_connections = CAP;
        let server = start_server(&fabric, fabric.add_node(), &cfg);
        let node = fabric.add_node();
        let ctx = cfg
            .ib_enabled
            .then(|| IbContext::new(&fabric, node, &cfg).unwrap());
        let connect = || park_conn(&fabric, node, server.addr(), &cfg, ctx.as_ref());
        let parked: Vec<ParkedConn> = (0..CAP)
            .map(|i| {
                connect().unwrap_or_else(|e| panic!("round {round}: connect {i} of {CAP}: {e:?}"))
            })
            .collect();
        assert!(
            matches!(connect(), Err(RpcError::ServerBusy)),
            "round {round}: a connect past the cap was not refused"
        );
        drop(parked);
        server.stop();
    }
}

/// Seeded connection-churn soak: thousands of conns each run the full
/// accept path and then go away (EOF on socket, the queue pair's error
/// state on verbs).
/// The conn table, the reader slot tables, and the ready queues must
/// all return to empty — no leaked entry, stale token, or gauge residue
/// — and the server must still serve fresh traffic afterwards.
#[test]
fn connection_churn_soak_leaks_nothing() {
    let _wd = watchdog("churn_soak", Duration::from_secs(300));
    let (fabric, mut cfg) = env_transport();
    if cfg.ib_enabled {
        // Shrink per-conn buffer footprints so thousands of bootstraps
        // stay cheap (same shape as the shards figure).
        cfg.rdma_threshold = 2 * 1024;
        cfg.recv_buf_bytes = 4 * 1024;
        cfg.large_region_bytes = 16 * 1024;
        cfg.prefill_per_class = 1;
    }
    let server_node = fabric.add_node();
    let server = start_server(&fabric, server_node, &cfg);

    // Each batch connects from a client node of its own.
    let (total, batch) = if cfg.ib_enabled {
        (2_000, 100)
    } else {
        (5_000, 250)
    };
    for _ in 0..total / batch {
        let node = fabric.add_node();
        let ctx = cfg
            .ib_enabled
            .then(|| IbContext::new(&fabric, node, &cfg).unwrap());
        let conns: Vec<ParkedConn> = (0..batch)
            .map(|_| park_conn(&fabric, node, server.addr(), &cfg, ctx.as_ref()).unwrap())
            .collect();
        drop(conns);
    }
    assert_eq!(server.lifetime_connection_count(), total as u64);
    wait_connection_count(&server, 0, Duration::from_secs(60), "soak reap");

    // No residue: every reader slot freed, every ready-queue token
    // consumed, no buffered bytes pinned. The table empties before the
    // readers have popped the (inert) tokens the last batch's closes
    // re-queued, so the depth is waited for, boundedly — a leaked token
    // never drains.
    let queued = |server: &Server| {
        let shards = server.metrics_snapshot().shards;
        let readers = shards.iter().filter(|s| s.role.name() == "reader");
        readers.map(|s| s.queue_depth).sum::<u64>()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while queued(&server) != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let snap = server.metrics_snapshot();
    for shard in snap.shards.iter().filter(|s| s.role.name() == "reader") {
        assert_eq!(shard.connections, 0, "reader slot leaked: {shard:?}");
        assert_eq!(shard.queue_depth, 0, "ready-queue token leaked: {shard:?}");
    }
    assert_eq!(
        snap.conn_buffered_bytes, 0,
        "buffered bytes pinned after churn"
    );

    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    assert_eq!(ping(&client, &server).unwrap().0, vec![1, 2, 3]);
    client.shutdown();
    server.stop();
}

/// Draining an *idle* server completes promptly — the readers are woken
/// out of their blocked pops rather than waiting out idle-slice
/// timeouts — and a successor bound to the same address serves both
/// fresh clients and survivors reconnecting over their stale conns.
#[test]
fn idle_drain_is_prompt_and_restart_serves_reconnects() {
    let _wd = watchdog("idle_drain_restart", Duration::from_secs(60));
    let (fabric, cfg) = env_transport();
    let server_node = fabric.add_node();
    let server = start_server(&fabric, server_node, &cfg);
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    assert_eq!(ping(&client, &server).unwrap().0, vec![1, 2, 3]);

    let t0 = Instant::now();
    assert!(
        server.drain(Duration::from_secs(5)),
        "idle drain must succeed"
    );
    server.stop();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "drain+stop of an idle server took {elapsed:?} — blocked pops were not woken"
    );

    let server = start_server(&fabric, server_node, &cfg);
    let fresh = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    assert_eq!(ping(&fresh, &server).unwrap().0, vec![1, 2, 3]);
    // The survivor's cached conn died with the old server; the default
    // policy reconnects it transparently.
    assert_eq!(ping(&client, &server).unwrap().0, vec![1, 2, 3]);
    assert!(client.metrics().counters().reconnects >= 1);
    client.shutdown();
    fresh.shutdown();
    server.stop();
}
