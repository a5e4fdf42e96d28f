//! The client's receive discipline: there is no Connection thread — the
//! caller that is waiting receives. A connection has one *receive turn*;
//! a waiting caller takes it if it is free (and returns its own response
//! off its own stack, delivering siblings' on the way) or parks on its
//! slot, and the invariant is that **if any call on a connection is
//! waiting, exactly one waiter holds the turn**: every caller that stops
//! waiting promotes a parked follower when nobody leads.
//!
//! Each case runs on both transports (honouring the CI matrix's
//! `RPC_SHARDS`) under a watchdog, and is built to fail
//! when its hazard is open: (a) at a build with a thread per connection,
//! (b) and (c) at a build whose leaving leader does not promote.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use rpcoib::{
    Client, RetryPolicy, RpcConfig, RpcError, RpcService, Server, ServiceRegistry, ShardRole,
};
use simnet::{model, Fabric, SimAddr};
use wire::{BytesWritable, DataInput, Writable};

/// Case (a) counts this process's threads, so it runs alone: it takes
/// the write side, every other case the read side.
static QUIET: RwLock<()> = RwLock::new(());

const GATES: usize = 8;

/// Both transports with their fabric model, under the CI matrix's shard
/// setting.
fn transports() -> Vec<(&'static str, Fabric, RpcConfig)> {
    let shards = std::env::var("RPC_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    [
        ("socket", model::IPOIB_QDR, RpcConfig::socket()),
        ("verbs", model::IB_QDR_VERBS, RpcConfig::rpcoib()),
    ]
    .into_iter()
    .map(|(name, model, mut cfg)| {
        if let Some(n) = shards {
            cfg.reader_shards = n;
        }
        (name, Fabric::new(model), cfg)
    })
    .collect()
}

/// Aborts the process if the guard outlives `limit`: a lost promotion or
/// a stranded credit wait must fail fast, not hang the suite.
struct Watchdog(Arc<AtomicBool>);

fn watchdog(name: &'static str, limit: Duration) -> Watchdog {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while !flag.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                eprintln!("watchdog: {name} exceeded {limit:?}, aborting");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    Watchdog(done)
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Handlers parked on numbered gates the test opens: a server that is
/// slow — and answers out of order — deterministically.
#[derive(Default)]
struct Gates {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    open: [bool; GATES],
}

impl Gates {
    fn open(&self, gate: usize) {
        self.state.lock().unwrap().open[gate] = true;
        self.cv.notify_all();
    }

    /// Block until `n` `hold` calls are parked inside the server.
    fn await_arrivals(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.arrived < n {
            st = self.cv.wait(st).unwrap();
        }
    }
}

/// The test's handle on a server's gates. Opens them all when dropped, so
/// a failed assertion unwinds into a server that can stop instead of one
/// whose handlers are parked for good. Bound after the server (`let
/// (server, gates) = …`), it drops before it.
struct GateKeeper(Arc<Gates>);

impl std::ops::Deref for GateKeeper {
    type Target = Gates;
    fn deref(&self) -> &Gates {
        &self.0
    }
}

impl Drop for GateKeeper {
    fn drop(&mut self) {
        if let Ok(mut st) = self.0.state.lock() {
            st.open = [true; GATES];
        }
        self.0.cv.notify_all();
    }
}

/// `echo` returns its payload; `hold` first parks on the gate numbered by
/// the payload's first byte.
struct GatedEcho(Arc<Gates>);

impl RpcService for GatedEcho {
    fn protocol(&self) -> &'static str {
        "test.RecvDiscipline"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut payload = BytesWritable::default();
        payload.read_fields(param).map_err(|e| e.to_string())?;
        match method {
            "echo" => {}
            "hold" => {
                let gate = payload.0[0] as usize;
                let mut st = self.0.state.lock().unwrap();
                st.arrived += 1;
                self.0.cv.notify_all();
                while !st.open[gate] {
                    st = self.0.cv.wait(st).unwrap();
                }
            }
            other => return Err(format!("no such method {other}")),
        }
        Ok(Box::new(payload))
    }
}

fn start_server_at(fabric: &Fabric, cfg: &RpcConfig, addr: SimAddr) -> (Server, GateKeeper) {
    let gates = Arc::new(Gates::default());
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(GatedEcho(Arc::clone(&gates))));
    let server = Server::start(fabric, addr.node, addr.port, cfg.clone(), registry).unwrap();
    (server, GateKeeper(gates))
}

fn start_server(fabric: &Fabric, cfg: &RpcConfig) -> (Server, GateKeeper) {
    start_server_at(fabric, cfg, SimAddr::new(fabric.add_node(), 8020))
}

fn call(client: &Client, addr: SimAddr, method: &str, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
    client
        .call::<_, BytesWritable>(
            addr,
            "test.RecvDiscipline",
            method,
            &BytesWritable(payload.to_vec()),
        )
        .map(|b| b.0)
}

fn wait_until(limit: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Responses the server has put on the wire (booked, whoever sent them,
/// on the send ledger — the snapshot's one `Responder` row).
fn responses_sent(server: &Server) -> u64 {
    server
        .metrics_snapshot()
        .shards
        .iter()
        .filter(|s| s.role == ShardRole::Responder)
        .map(|s| s.processed)
        .sum()
}

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Make echo calls until the response a timed-out call left on the wire
/// has been met (and counted) by one of their receivers.
fn meet_late_response(client: &Client, addr: SimAddr, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.metrics().counters().late_responses == 0 {
        assert!(Instant::now() < deadline, "{name}: late response never met");
        assert_eq!(call(client, addr, "echo", b"after").unwrap(), b"after");
    }
}

/// (a) A lone caller receives its own responses — no response ever
/// crosses threads through a slot — and a connection costs no thread:
/// connecting to 32 servers leaves the process's thread count where it
/// was.
#[test]
fn lone_caller_receives_for_itself_and_connections_cost_no_thread() {
    let _alone = QUIET.write().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("lone_caller", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        // Small servers: 32 of them share this process.
        let cfg = RpcConfig {
            handlers: 1,
            reader_shards: 1,
            prefill_per_class: 1,
            large_region_bytes: 256 * 1024,
            ..base
        };
        let servers: Vec<Server> = (0..32).map(|_| start_server(&fabric, &cfg).0).collect();
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();

        let first = servers[0].addr();
        for i in 0..1000u32 {
            let payload = i.to_be_bytes();
            assert_eq!(call(&client, first, "echo", &payload).unwrap(), payload);
        }
        assert_eq!(
            client.recv_handoffs(),
            0,
            "{name}: a lone caller's response went through another thread"
        );

        // Connection set-up on the server side may run on a short-lived
        // thread; give those a moment to be gone on both sides of the
        // measurement, then require no growth at all.
        let before = process_threads();
        for server in &servers[1..] {
            assert_eq!(call(&client, server.addr(), "echo", b"hi").unwrap(), b"hi");
        }
        assert_eq!(client.connection_count(), 32, "{name}");
        wait_until(
            Duration::from_secs(5),
            "connecting to 31 more servers to cost no thread",
            || process_threads() <= before,
        );
        assert_eq!(client.recv_handoffs(), 0, "{name}");

        client.shutdown();
        for server in servers {
            server.stop();
        }
    }
}

/// (b) Eight callers share one connection; the server answers them in
/// the reverse of the order they called in. The first caller took the
/// turn and is answered first, so the turn must be passed on — again and
/// again — for the other seven to hear anything before their timeouts.
#[test]
fn eight_callers_answered_in_reverse_each_get_their_own() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("reverse_order", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        let cfg = RpcConfig {
            handlers: GATES,
            call_timeout: Duration::from_secs(10),
            retry: RetryPolicy::none(),
            ..base
        };
        let (server, gates) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        assert_eq!(call(&client, addr, "echo", b"warm").unwrap(), b"warm");
        let warm = responses_sent(&server);

        // Caller 7 calls first (and takes the turn), caller 0 last.
        let callers: Vec<_> = (0..GATES)
            .rev()
            .map(|gate| {
                let client = client.clone();
                let payload = vec![gate as u8; 100 + 700 * gate];
                let handle = std::thread::spawn(move || {
                    let got = call(&client, addr, "hold", &payload);
                    (got, payload, Instant::now())
                });
                gates.await_arrivals(GATES - gate);
                handle
            })
            .collect();
        assert_eq!(client.pending_calls(), GATES, "{name}");

        // Answer 7 first, 0 last, each on the wire before the next.
        let released = Instant::now();
        for gate in (0..GATES).rev() {
            gates.open(gate);
            wait_until(Duration::from_secs(5), "the response to leave", || {
                responses_sent(&server) > warm + (GATES - 1 - gate) as u64
            });
        }
        for handle in callers {
            let (got, payload, at) = handle.join().unwrap();
            assert_eq!(
                got.unwrap_or_else(|e| panic!("{name}: caller {} failed: {e:?}", payload[0])),
                payload,
                "{name}: a caller got another call's bytes"
            );
            assert!(
                at.duration_since(released) < Duration::from_secs(5),
                "{name}: caller {} waited past the gate for a receiver",
                payload[0]
            );
        }
        assert_eq!(client.pending_calls(), 0, "{name}");
        assert!(
            client.recv_handoffs() >= 1,
            "{name}: nobody was handed anything"
        );
        assert_eq!(client.metrics().counters().late_responses, 0, "{name}");
        client.shutdown();
        server.stop();
    }
}

/// (c) The leader's call times out while a follower is parked behind it:
/// leaving, it must drop the turn *and* promote the follower, whose
/// answer is released 50 ms later and must reach it at once, not at its
/// own timeout. The leader's late response is counted by whichever
/// receiver meets it.
#[test]
fn leader_timeout_promotes_the_follower_and_its_late_response_is_counted() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("leader_timeout", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        let cfg = RpcConfig {
            handlers: 4,
            call_timeout: Duration::from_millis(1500),
            retry: RetryPolicy::none(),
            ..base
        };
        let (server, gates) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        assert_eq!(call(&client, addr, "echo", b"warm").unwrap(), b"warm");

        let leader = {
            let client = client.clone();
            std::thread::spawn(move || call(&client, addr, "hold", &[0]))
        };
        gates.await_arrivals(1);
        // Most of the leader's patience passes before the follower calls,
        // so the follower's own timeout is far behind the leader's.
        std::thread::sleep(Duration::from_millis(1000));
        let follower = {
            let client = client.clone();
            std::thread::spawn(move || {
                let got = call(&client, addr, "hold", &[1]);
                (got, Instant::now())
            })
        };
        gates.await_arrivals(2);

        assert_eq!(leader.join().unwrap(), Err(RpcError::Timeout), "{name}");
        std::thread::sleep(Duration::from_millis(50));
        let released = Instant::now();
        gates.open(1);
        let (got, at) = follower.join().unwrap();
        assert_eq!(
            got,
            Ok(vec![1]),
            "{name}: the follower was left without a receiver"
        );
        assert!(
            at.duration_since(released) < Duration::from_millis(500),
            "{name}: the follower's answer took {:?} to reach it",
            at.duration_since(released)
        );
        assert_eq!(client.metrics().counters().late_responses, 0, "{name}");

        gates.open(0);
        meet_late_response(&client, addr, name);
        let counters = client.metrics().counters();
        assert_eq!(counters.late_responses, 1, "{name}");
        assert_eq!(counters.reconnects, 0, "{name}");
        assert_eq!(client.pending_calls(), 0, "{name}");
        client.shutdown();
        server.stop();
    }
}

/// (d) A bulk sender waiting for slot credits makes receive progress
/// itself. Two callers on one verbs connection alternate 256 KiB and
/// 512 B echoes; with a one-slot ring every bulk request waits for the
/// credit of the one before, which can arrive when nobody is receiving —
/// after the last response. Stranded, the sender would sit out
/// `call_timeout` and fail `CreditStarved`.
#[test]
fn credit_waits_drive_receive_progress() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("credit_progress", Duration::from_secs(300));
    let base = transports().pop().expect("verbs is last").2;
    for slots in [1, RpcConfig::default().large_slots] {
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        let cfg = RpcConfig {
            large_slots: slots,
            call_timeout: Duration::from_secs(3),
            retry: RetryPolicy::none(),
            ..base.clone()
        };
        let (server, _gates) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        client.prewarm_pool(512 * 1024, 2);

        let callers: Vec<_> = (0..2usize)
            .map(|t| {
                let client = client.clone();
                std::thread::spawn(move || {
                    for round in 0..300usize {
                        let len = if (round + t) % 2 == 0 {
                            256 * 1024
                        } else {
                            512
                        };
                        let payload = vec![(round + t) as u8; len];
                        let got = call(&client, addr, "echo", &payload).unwrap_or_else(|e| {
                            panic!("slots={slots} caller {t} round {round} ({len} B): {e:?}")
                        });
                        assert!(got == payload, "slots={slots} caller {t} round {round}");
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        let counters = client.metrics().counters();
        assert_eq!(counters.retries, 0, "slots={slots}");
        assert_eq!(counters.failed_calls, 0, "slots={slots}");
        assert_eq!(client.connection_count(), 1, "slots={slots}");
        assert_eq!(client.pending_calls(), 0, "slots={slots}");
        client.shutdown();
        server.stop();
    }
}

/// (e) Nobody watches an idle connection, so a server that went away
/// while the client was idle is discovered by the next call — which must
/// fail fast and retryably, never wait out its timeout: the default
/// policy's one retry heals it, and a caller that refuses retries is
/// told `ConnectionClosed`.
#[test]
fn restart_while_idle_is_discovered_by_the_next_call() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("idle_restart", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let addr = SimAddr::new(fabric.add_node(), 8020);
        let (server, _gates) = start_server_at(&fabric, &cfg, addr);
        let healing = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let strict = Client::new(
            &fabric,
            fabric.add_node(),
            RpcConfig {
                retry: RetryPolicy::none(),
                ..cfg.clone()
            },
        )
        .unwrap();
        for client in [&healing, &strict] {
            assert_eq!(call(client, addr, "echo", b"one").unwrap(), b"one");
        }

        server.stop();
        drop(server);
        let (server, _gates) = start_server_at(&fabric, &cfg, addr);

        assert_eq!(
            call(&healing, addr, "echo", b"two").unwrap(),
            b"two",
            "{name}"
        );
        let counters = healing.metrics().counters();
        assert_eq!(counters.reconnects, 1, "{name}");
        assert_eq!(counters.retries, 1, "{name}");
        assert_eq!(counters.failed_calls, 0, "{name}");

        let asked = Instant::now();
        let err = call(&strict, addr, "echo", b"two").unwrap_err();
        assert_eq!(err, RpcError::ConnectionClosed, "{name}");
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "{name}: the dead connection took {:?} to notice",
            asked.elapsed()
        );
        assert_eq!(strict.connection_count(), 0, "{name}: dead connection kept");
        assert_eq!(
            call(&strict, addr, "echo", b"three").unwrap(),
            b"three",
            "{name}"
        );
        assert_eq!(strict.metrics().counters().reconnects, 1, "{name}");

        for client in [&healing, &strict] {
            assert_eq!(client.pending_calls(), 0, "{name}");
            client.shutdown();
        }
        server.stop();
    }
}

/// (f) `shutdown` with one leader blocked in the transport and three
/// followers parked behind it: closing the connection gets the leader
/// out, failing the table wakes the followers, and there is no thread to
/// join — all four return `ConnectionClosed` promptly.
#[test]
fn shutdown_returns_the_leader_and_every_follower() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("shutdown", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        let cfg = RpcConfig {
            handlers: 4,
            ..base
        };
        let (server, gates) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        assert_eq!(call(&client, addr, "echo", b"warm").unwrap(), b"warm");

        let callers: Vec<_> = (0..4u8)
            .map(|t| {
                let client = client.clone();
                std::thread::spawn(move || {
                    let got = call(&client, addr, "hold", &[0, t]);
                    (got, Instant::now())
                })
            })
            .collect();
        gates.await_arrivals(4);

        let asked = Instant::now();
        client.shutdown();
        for caller in callers {
            let (got, at) = caller.join().unwrap();
            assert_eq!(got, Err(RpcError::ConnectionClosed), "{name}");
            assert!(
                at.duration_since(asked) < Duration::from_secs(1),
                "{name}: a caller took {:?} to hear of the shutdown",
                at.duration_since(asked)
            );
        }
        assert_eq!(client.pending_calls(), 0, "{name}");
        gates.open(0);
        server.stop();
    }
}
