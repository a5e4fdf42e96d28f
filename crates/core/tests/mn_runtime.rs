//! End-to-end tests of the handler runtime: a call that suspends must
//! cost bytes instead of a thread, fast traffic must not starve behind
//! parked calls, random yield/park schedules must answer exactly once on
//! both transports and see the same `HandlerCx` whether a poll ran
//! inline or as a task, a stopped server must let go of every suspended
//! call, protocol-priority classes must keep heartbeats ahead of a bulk
//! flood, and the burst-decode and shard-takeover paths (a worker reads
//! for a shard whose owner is inside a handler) must preserve
//! per-connection correctness.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rpcoib::metrics::ShardStats;
use rpcoib::{
    CallPoll, Client, HandlerCx, RpcConfig, RpcService, Sched, Server, ServiceRegistry, ShardRole,
    Step, WakeHandle,
};
use simnet::{model, Fabric, SimAddr};
use wire::{BytesWritable, DataInput, LongWritable, Writable};

/// Aborts the process if a test wedges (a stuck queue or lost wakeup
/// would otherwise hang the suite until the harness timeout).
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

type Reply = Result<Box<dyn Writable + Send>, String>;

/// A service that overrides `call_mn` — all the server invokes — still
/// owes the trait a `call`; it is unreachable.
fn only_polled() -> Reply {
    Err("the server polls call_mn".into())
}

/// Echo service with explicit suspension points.
///
/// Request body: `[steps, op_1 .. op_steps, data...]`. Poll `k < steps`
/// suspends per `op_{k+1}` (even → cooperative yield, odd → timed park
/// of `op % 3` ms); the poll after the last op echoes `data`.
struct ScriptEcho {
    completions: AtomicU64,
}

fn split_schedule(body: &[u8]) -> (usize, &[u8]) {
    let steps = body.first().copied().unwrap_or(0).min(5) as usize;
    let data_at = (1 + steps).min(body.len());
    (steps, &body[data_at..])
}

impl RpcService for ScriptEcho {
    fn protocol(&self) -> &'static str {
        "mn.ScriptEcho"
    }

    fn call(&self, _method: &str, _param: &mut dyn DataInput) -> Reply {
        only_polled()
    }

    fn call_mn(
        &self,
        _method: &str,
        param: &mut dyn DataInput,
        cx: &mut HandlerCx<'_>,
    ) -> CallPoll {
        let mut b = BytesWritable::default();
        if let Err(e) = b.read_fields(param) {
            return CallPoll::Ready(Err(e.to_string()));
        }
        let (steps, data) = split_schedule(&b.0);
        if (cx.polls() as usize) < steps {
            let op = b.0[1 + cx.polls() as usize];
            if op % 2 == 0 {
                cx.yield_now();
            } else {
                cx.park_for(Duration::from_millis(u64::from(op % 3)));
            }
            return CallPoll::Pending;
        }
        self.completions.fetch_add(1, Ordering::Relaxed);
        CallPoll::Ready(Ok(Box::new(BytesWritable(data.to_vec()))))
    }
}

/// Echo service whose `park_ms` method parks (body byte 0 = duration in
/// ms) before echoing — the "slow but suspended" call of the starvation
/// regression. `echo` answers immediately.
struct ParkEcho;

impl RpcService for ParkEcho {
    fn protocol(&self) -> &'static str {
        "mn.ParkEcho"
    }

    fn call(&self, _method: &str, _param: &mut dyn DataInput) -> Reply {
        only_polled()
    }

    fn call_mn(&self, method: &str, param: &mut dyn DataInput, cx: &mut HandlerCx<'_>) -> CallPoll {
        let mut b = BytesWritable::default();
        if let Err(e) = b.read_fields(param) {
            return CallPoll::Ready(Err(e.to_string()));
        }
        if method == "park_ms" && cx.first_poll() {
            let ms = u64::from(b.0.first().copied().unwrap_or(0));
            cx.park_for(Duration::from_millis(ms));
            return CallPoll::Pending;
        }
        CallPoll::Ready(Ok(Box::new(b)))
    }
}

fn start<S: RpcService + 'static>(
    fabric: &Fabric,
    cfg: &RpcConfig,
    services: Vec<Arc<S>>,
) -> (Server, SimAddr) {
    let mut registry = ServiceRegistry::new();
    for s in services {
        registry.register(s);
    }
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    let addr = server.addr();
    (server, addr)
}

fn echo(client: &Client, addr: SimAddr, proto: &str, method: &str, body: Vec<u8>) -> Vec<u8> {
    let resp: BytesWritable = client
        .call(addr, proto, method, &BytesWritable(body))
        .expect("call");
    resp.0
}

/// Sum of one counter over the server's rows of one role.
fn role_sum(server: &Server, role: ShardRole, counter: fn(&rpcoib::ShardSnapshot) -> u64) -> u64 {
    let shards = server.metrics_snapshot().shards;
    shards.iter().filter(|s| s.role == role).map(counter).sum()
}

/// Sum of one per-worker counter over the server's worker rows.
fn worker_sum(server: &Server, counter: fn(&rpcoib::ShardSnapshot) -> u64) -> u64 {
    role_sum(server, ShardRole::Worker, counter)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------
// The runtime end to end.
// ---------------------------------------------------------------------

/// A lone call round-trips on both transports, and the per-worker shard
/// counters surface in the server snapshot. (A lone call that never
/// suspends runs on the reader shard that read it and is booked on no
/// worker — `run_discipline.rs` pins that; one that suspends is resumed,
/// and booked, by a worker.)
#[test]
fn lone_echo_round_trips_on_both_transports() {
    let _wd = watchdog(
        "lone_echo_round_trips_on_both_transports",
        Duration::from_secs(60),
    );
    for (label, fabric, mut cfg) in transports() {
        cfg.handlers = 4;
        let (server, addr) = start(&fabric, &cfg, vec![Arc::new(ParkEcho)]);
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let body = vec![0x42u8; 1024];
        assert_eq!(
            echo(&client, addr, "mn.ParkEcho", "echo", body.clone()),
            body,
            "transport {label}"
        );
        assert_eq!(worker_sum(&server, |_| 1), 4, "{label}: one row per worker");
        assert_eq!(
            echo(&client, addr, "mn.ParkEcho", "park_ms", vec![1, 7]),
            vec![1, 7],
            "transport {label}"
        );
        // The response races the worker's own post-poll bookkeeping by a
        // few instructions; poll briefly instead of reading once.
        wait_until("the resumed call to count on a worker", || {
            worker_sum(&server, |s| s.processed) >= 1
        });
        client.shutdown();
        server.stop();
    }
}

/// The starvation regression suspension exists for: with a *single*
/// worker, a call parked for 600 ms must not block fast traffic — the
/// park frees the worker, so a burst of fast calls completes while the
/// slow call sleeps, and the slow call still answers correctly after its
/// deadline.
#[test]
fn parked_call_frees_its_single_worker() {
    let _wd = watchdog(
        "parked_call_frees_its_single_worker",
        Duration::from_secs(60),
    );
    for (label, fabric, mut cfg) in transports() {
        cfg.handlers = 1;
        let (server, addr) = start(&fabric, &cfg, vec![Arc::new(ParkEcho)]);
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();

        let slow = {
            let client = client.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                // Body byte 0 = 200: park for 200 ms before echoing.
                let resp: BytesWritable = client
                    .call(
                        addr,
                        "mn.ParkEcho",
                        "park_ms",
                        &BytesWritable(vec![200u8, 1, 2, 3]),
                    )
                    .expect("slow call");
                (started.elapsed(), resp.0)
            })
        };
        // Let the slow call reach its park point.
        std::thread::sleep(Duration::from_millis(60));

        // Fast traffic on the same (now parked-over) worker.
        let fast_started = Instant::now();
        for i in 0..8u8 {
            let body = vec![i; 64];
            assert_eq!(
                echo(&client, addr, "mn.ParkEcho", "echo", body.clone()),
                body,
                "transport {label}"
            );
        }
        let fast_elapsed = fast_started.elapsed();
        assert!(
            fast_elapsed < Duration::from_millis(130),
            "transport {label}: fast calls starved behind a parked call ({fast_elapsed:?})"
        );

        let (slow_elapsed, slow_body) = slow.join().unwrap();
        assert_eq!(slow_body, vec![200u8, 1, 2, 3], "transport {label}");
        assert!(
            slow_elapsed >= Duration::from_millis(180),
            "transport {label}: the park was cut short ({slow_elapsed:?})"
        );

        let (parks, wakes) = (
            worker_sum(&server, |s| s.parks),
            worker_sum(&server, |s| s.wakes),
        );
        assert!(parks >= 1, "transport {label}: the park was counted");
        assert!(wakes >= 1, "transport {label}: the timer wake was counted");
        client.shutdown();
        server.stop();
    }
}

/// Random yield/park schedules answer exactly once with the right body,
/// concurrently, on both transports — the park/wake machinery must lose
/// no response and duplicate none (the completion counter equals the
/// call count exactly).
#[test]
fn concurrent_random_schedules_complete_exactly_once() {
    let _wd = watchdog(
        "concurrent_random_schedules_complete_exactly_once",
        Duration::from_secs(120),
    );
    for (label, fabric, mut cfg) in transports() {
        cfg.handlers = 4;
        let service = Arc::new(ScriptEcho {
            completions: AtomicU64::new(0),
        });
        let (server, addr) = start(&fabric, &cfg, vec![Arc::clone(&service)]);
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();

        let threads = 8usize;
        let calls_per_thread = 12usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let client = client.clone();
                std::thread::spawn(move || {
                    for i in 0..calls_per_thread {
                        // A per-call pseudo-random schedule: steps 0..=5,
                        // each op mixing yields (even) and short timed
                        // parks (odd).
                        let seed = (t * 131 + i * 17) as u8;
                        let steps = seed % 6;
                        let mut body = vec![steps];
                        for k in 0..steps {
                            body.push(seed.wrapping_mul(31).wrapping_add(k * 7));
                        }
                        let data = vec![seed; 1 + (i % 64)];
                        body.extend_from_slice(&data);
                        let resp: BytesWritable = client
                            .call(addr, "mn.ScriptEcho", "run", &BytesWritable(body))
                            .expect("scripted call");
                        assert_eq!(resp.0, data);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * calls_per_thread) as u64;
        assert_eq!(
            service.completions.load(Ordering::Relaxed),
            total,
            "transport {label}: every call completes exactly once"
        );
        client.shutdown();
        server.stop();
    }
}

/// One suspension behaviour per method: `record` notes what each poll
/// sees as `(polls, first_poll, stash)`, stashes the poll number, and
/// suspends twice (a yield, then a timed park); `self_wake` fires its own
/// wake handle *inside* the first poll, then parks on it; `park` parks on
/// a handle the service keeps; `park_timer` parks for an hour; `block` is
/// a plain blocking handler that meets the test at `entered` and holds
/// its worker until the test opens `gate`. `_sentinel`'s strong count
/// tells whether the service (hence the server internals) is alive.
struct Probe {
    seen: Mutex<Vec<(u64, bool, Option<u64>)>>,
    handles: Mutex<Vec<WakeHandle>>,
    completions: AtomicU64,
    entered: Barrier,
    gate: Barrier,
    _sentinel: Arc<()>,
}

fn probe(sentinel: &Arc<()>) -> Arc<Probe> {
    Arc::new(Probe {
        seen: Mutex::new(Vec::new()),
        handles: Mutex::new(Vec::new()),
        completions: AtomicU64::new(0),
        entered: Barrier::new(3),
        gate: Barrier::new(3),
        _sentinel: Arc::clone(sentinel),
    })
}

impl RpcService for Probe {
    fn protocol(&self) -> &'static str {
        "mn.Probe"
    }

    fn call(&self, _method: &str, _param: &mut dyn DataInput) -> Reply {
        self.entered.wait();
        self.gate.wait();
        Ok(Box::new(LongWritable(0)))
    }

    fn call_mn(&self, method: &str, param: &mut dyn DataInput, cx: &mut HandlerCx<'_>) -> CallPoll {
        let polls = cx.polls();
        match method {
            "block" => return CallPoll::Ready(self.call(method, param)),
            "record" => {
                let stashed = cx.stash().as_ref().map(|s| *s.downcast_ref().unwrap());
                let view = (polls, cx.first_poll(), stashed);
                self.seen.lock().unwrap().push(view);
                *cx.stash() = Some(Box::new(polls));
                match polls {
                    0 => cx.yield_now(),
                    1 => cx.park_for(Duration::from_millis(1)),
                    _ => {}
                }
                if polls < 2 {
                    return CallPoll::Pending;
                }
            }
            // No deadline below: only the handle can end these parks.
            "self_wake" if cx.first_poll() => {
                cx.wake_handle().wake();
                return CallPoll::Pending;
            }
            "park" if cx.first_poll() => {
                self.handles.lock().unwrap().push(cx.wake_handle());
                return CallPoll::Pending;
            }
            "park_timer" => {
                cx.park_for(Duration::from_secs(3600));
                return CallPoll::Pending;
            }
            _ => {}
        }
        self.completions.fetch_add(1, Ordering::Relaxed);
        CallPoll::Ready(Ok(Box::new(LongWritable(polls as i64))))
    }
}

fn probe_call(client: &Client, addr: SimAddr, method: &str) -> rpcoib::RpcResult<i64> {
    let polls: LongWritable = client.call(addr, "mn.Probe", method, &LongWritable(0))?;
    Ok(polls.0)
}

/// The first poll runs on the worker's stack and the later ones as a
/// task; the service must not be able to tell: `polls()` counts on,
/// `first_poll()` is true exactly once, and the stash written by the
/// inline poll is there on the next. And a wake that fires before the
/// inline poll has even returned `Pending` must re-queue the call, not
/// be lost: with no timer armed, a lost wake would park it forever.
#[test]
fn inline_first_poll_and_task_polls_are_one_call() {
    let _wd = watchdog(
        "inline_first_poll_and_task_polls_are_one_call",
        Duration::from_secs(60),
    );
    for (label, fabric, cfg) in transports() {
        let service = probe(&Arc::new(()));
        let (server, addr) = start(&fabric, &cfg, vec![Arc::clone(&service)]);
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        assert_eq!(probe_call(&client, addr, "record"), Ok(2), "{label}");
        assert_eq!(
            *service.seen.lock().unwrap(),
            vec![(0, true, None), (1, false, Some(0)), (2, false, Some(1))],
            "transport {label}"
        );
        let parks = worker_sum(&server, |s| s.parks);
        assert_eq!(
            probe_call(&client, addr, "self_wake"),
            Ok(1),
            "transport {label}: answered by the second poll"
        );
        assert_eq!(worker_sum(&server, |s| s.parks), parks, "never suspended");
        wait_until("the calls to retire", || server.handler_residue() == 0);
        client.shutdown();
        server.stop();
    }
}

/// 1 000 parked calls hold neither of the two workers — two blocking
/// handlers still get one each — and, once woken, they wait for a worker
/// like any runnable call and complete when the blockers return.
#[test]
fn parked_calls_hold_no_worker() {
    let _wd = watchdog("parked_calls_hold_no_worker", Duration::from_secs(120));
    const PARKED: u64 = 1_000;
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let mut cfg = RpcConfig::rpcoib();
    cfg.handlers = 2;
    let service = probe(&Arc::new(()));
    let (server, addr) = start(&fabric, &cfg, vec![Arc::clone(&service)]);
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    let caller = |method: &'static str| {
        let client = client.clone();
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || probe_call(&client, addr, method).expect(method))
            .unwrap()
    };

    let parked: Vec<_> = (0..PARKED).map(|_| caller("park")).collect();
    wait_until("every call to park", || {
        worker_sum(&server, |s| s.parks) == PARKED
    });
    // Both workers are free: each blocker gets one and all three
    // parties meet inside `call`.
    let blockers = [caller("block"), caller("block")];
    service.entered.wait();
    // Woken calls are runnable, but both workers are provably inside
    // `call`: nothing can have polled them.
    for h in service.handles.lock().unwrap().drain(..) {
        h.wake();
    }
    assert_eq!(service.completions.load(Ordering::Relaxed), 0);
    service.gate.wait();
    for t in parked.into_iter().chain(blockers) {
        t.join().unwrap();
    }
    assert_eq!(service.completions.load(Ordering::Relaxed), PARKED);
    wait_until("the runtime to empty", || server.handler_residue() == 0);
    client.shutdown();
    server.stop();
}

/// `Server::stop` with a suspended call must not leak the server: the
/// parked frame owns an `Arc` of the server internals, which own the
/// runtime, whose timer table — or a handle the service keeps — reaches
/// the frame. Stop drops every suspended frame, so dropping the stopped
/// server frees the registered service and the runtime holds nothing.
#[test]
fn stop_with_a_suspended_call_frees_the_server() {
    let _wd = watchdog(
        "stop_with_a_suspended_call_frees_the_server",
        Duration::from_secs(120),
    );
    for method in ["park_timer", "park"] {
        for (label, fabric, mut cfg) in transports() {
            cfg.call_timeout = Duration::from_secs(2);
            cfg.retry = rpcoib::RetryPolicy::none();
            let sentinel = Arc::new(());
            // `start` moves the only service reference into the registry.
            let (server, addr) = start(&fabric, &cfg, vec![probe(&sentinel)]);
            let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
            let caller = {
                let client = client.clone();
                std::thread::spawn(move || probe_call(&client, addr, method))
            };
            wait_until("the call to park", || worker_sum(&server, |s| s.parks) == 1);
            assert!(server.handler_residue() >= 1, "{method}/{label}");

            server.stop();
            assert_eq!(server.handler_residue(), 0, "{method}/{label}");
            drop(server);
            assert_eq!(
                Arc::strong_count(&sentinel),
                1,
                "{method}/{label}: the registered service outlived its server"
            );
            assert!(caller.join().unwrap().is_err(), "never answered");
            client.shutdown();
        }
    }
}

/// Digests its parameter on every poll and suspends `body[0]` times
/// first — the first time parked on a handle the test fires, after that
/// by yielding — answering with the digest. A poll that reads other
/// bytes than the first one read fails the call.
#[derive(Default)]
struct SuspendDigest {
    handles: Mutex<Vec<WakeHandle>>,
}

fn digest(bytes: &[u8]) -> i64 {
    let fold = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, fold) as i64
}

impl RpcService for SuspendDigest {
    fn protocol(&self) -> &'static str {
        "mn.SuspendDigest"
    }

    fn call(&self, _method: &str, _param: &mut dyn DataInput) -> Reply {
        only_polled()
    }

    fn call_mn(
        &self,
        _method: &str,
        param: &mut dyn DataInput,
        cx: &mut HandlerCx<'_>,
    ) -> CallPoll {
        let mut b = BytesWritable::default();
        if let Err(e) = b.read_fields(param) {
            return CallPoll::Ready(Err(e.to_string()));
        }
        let now = digest(&b.0);
        let first = cx.stash().get_or_insert_with(|| Box::new(now));
        if first.downcast_ref() != Some(&now) {
            return CallPoll::Ready(Err(format!("poll {} read other bytes", cx.polls())));
        }
        if cx.polls() < u64::from(b.0[0]) {
            if cx.first_poll() {
                self.handles.lock().unwrap().push(cx.wake_handle());
            } else {
                cx.yield_now();
            }
            return CallPoll::Pending;
        }
        CallPoll::Ready(Ok(Box::new(LongWritable(now))))
    }
}

/// A suspended bulk call gives its slots back: one more 256 KiB call
/// than the ring has slots, on one connection, all park — the last
/// without its sender waiting out a credit budget for a slot a parked
/// call sits in — and every later poll reads the bytes the first read,
/// from the call's own copy. That copy is made, and charged, once per
/// suspended call however often it is polled again, and never for a
/// call that completes on its first poll: against calls that never
/// suspend, the server's ledger grows by `drain_ns` per call, and while
/// the volley is parked its pool has one buffer out per call beside the
/// posted receives, for one suspension or three.
#[test]
fn a_suspended_bulk_call_gives_its_slot_back() {
    let _wd = watchdog(
        "a_suspended_bulk_call_gives_its_slot_back",
        Duration::from_secs(120),
    );
    simnet::set_fast_forward(true);
    const LEN: usize = 256 * 1024;
    for slots in [1usize, 4] {
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        let cfg = RpcConfig {
            large_slots: slots,
            call_timeout: Duration::from_secs(20),
            retry: rpcoib::RetryPolicy::none(),
            ..RpcConfig::rpcoib()
        };
        let service = Arc::new(SuspendDigest::default());
        let (server, addr) = start(&fabric, &cfg, vec![Arc::clone(&service)]);
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let calls = slots + 1;
        // What registering one copy's buffer costs: the pool keeps four
        // idle per jumbo class, so five parked at once register a fifth.
        let register_ns = fabric.model().registration_ns(LEN.next_power_of_two() * 2);
        // Buffers out of the server's pool, and responses whose send has
        // returned (its buffer with it). A copy is counted as what is out
        // while nothing is being sent: how many send buffers a volley's
        // responses ride in depends on how many meet a taken send turn.
        let out = || {
            let pool = server.metrics_snapshot().pool.expect("verbs pool");
            pool.native_hits + pool.native_misses - pool.native_returns
        };
        let sent = || role_sum(&server, ShardRole::Responder, |s| s.processed);
        // (ledger ns net of registrations, copies held while the volley
        // is parked) at the server over one volley of `calls` calls
        // suspending `suspensions` times each.
        let volley = |suspensions: u8| {
            let parks = worker_sum(&server, |s| s.parks);
            let ledger = fabric.modeled_ns(addr.node);
            let pool = server.metrics_snapshot().pool.expect("verbs pool");
            let (out_before, sent_before) = (out(), sent());
            let callers: Vec<_> = (0..calls)
                .map(|c| {
                    let client = client.clone();
                    let mut body = vec![c as u8 ^ 0x5a; LEN];
                    body[0] = suspensions;
                    std::thread::spawn(move || {
                        let want = digest(&body);
                        let got: LongWritable = client
                            .call(addr, "mn.SuspendDigest", "digest", &BytesWritable(body))
                            .unwrap_or_else(|e| panic!("slots={slots} call {c}: {e:?}"));
                        assert_eq!(got.0, want, "slots={slots} call {c}");
                    })
                })
                .collect();
            let mut copies_held = 0;
            if suspensions > 0 {
                let asked = Instant::now();
                wait_until("every call to park", || {
                    worker_sum(&server, |s| s.parks) - parks >= calls as u64
                });
                assert!(
                    asked.elapsed() < cfg.call_timeout / 2,
                    "slots={slots}: a sender waited on a parked call's slot"
                );
                copies_held = out() - out_before;
                for h in service.handles.lock().unwrap().drain(..) {
                    h.wake();
                }
            }
            for c in callers {
                c.join().unwrap();
            }
            // A caller can have its answer before the sender has let the
            // send buffer go; the next volley must not count that one.
            wait_until("every send to return", || {
                sent() - sent_before >= calls as u64
            });
            let after = server.metrics_snapshot().pool.expect("verbs pool");
            let registered = (after.native_misses - pool.native_misses) * register_ns;
            (
                fabric.modeled_ns(addr.node) - ledger - registered,
                copies_held,
            )
        };
        volley(3); // warm: every class the volleys touch is registered
        let (plain_ns, _) = volley(0);
        let (once_ns, once_bufs) = volley(1);
        let (thrice_ns, thrice_bufs) = volley(3);
        assert_eq!(once_bufs, calls as u64, "slots={slots}");
        assert_eq!(thrice_bufs, once_bufs, "slots={slots}");
        // The volleys differ by the copies' charge — and by how many
        // credit messages the same credits rode in, a few µs each.
        let copies = calls as u64 * rpcoib::hostcost::drain_ns(LEN + 4);
        let credit_jitter = calls as u64 * 3_000;
        assert!(
            (once_ns - plain_ns).abs_diff(copies) <= credit_jitter,
            "slots={slots}: {calls} suspended calls cost {} ns more than {calls} plain ones, \
             not {copies}",
            once_ns - plain_ns
        );
        assert!(
            once_ns.abs_diff(thrice_ns) <= credit_jitter,
            "slots={slots}: polling again was charged ({once_ns} vs {thrice_ns} ns)"
        );
        client.shutdown();
        server.stop();
    }
}

/// `max_inflight_calls` is backpressure, not rejection: under two run
/// permits and a cap of four, eight calls that park leave four parked
/// and four in the admission queue — read, refused nothing, polled by
/// nobody — and each wake answers one call and lets exactly the next one
/// in, until all eight have been polled, parked and answered once.
#[test]
fn the_inflight_cap_holds_calls_in_the_admission_queue() {
    let _wd = watchdog(
        "the_inflight_cap_holds_calls_in_the_admission_queue",
        Duration::from_secs(120),
    );
    const CALLS: usize = 8;
    const CAP: usize = 4;
    for (label, fabric, mut cfg) in transports() {
        cfg.handlers = 2;
        cfg.max_inflight_calls = CAP;
        cfg.retry = rpcoib::RetryPolicy::none();
        let service = Arc::new(SuspendDigest::default());
        let (server, addr) = start(&fabric, &cfg, vec![Arc::clone(&service)]);
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let answered = Arc::new(AtomicU64::new(0));
        let callers: Vec<_> = (0..CALLS)
            .map(|c| {
                let (client, answered) = (client.clone(), Arc::clone(&answered));
                std::thread::spawn(move || {
                    let body = vec![1, c as u8]; // suspend once
                    let want = digest(&body);
                    let got: LongWritable = client
                        .call(addr, "mn.SuspendDigest", "digest", &BytesWritable(body))
                        .unwrap_or_else(|e| panic!("{label} call {c}: {e:?}"));
                    assert_eq!(got.0, want, "{label} call {c}");
                    answered.fetch_add(1, Ordering::Release);
                })
            })
            .collect();
        let parks = || worker_sum(&server, |s| s.parks) as usize;
        wait_until("every call to be read and the cap to fill", || {
            role_sum(&server, ShardRole::Reader, |s| s.processed) == CALLS as u64 && parks() == CAP
        });
        // All eight are in, two workers are idle, and the other four stay
        // where they are: long enough for a pop that should not happen.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(parks(), CAP, "{label}: a call was polled past the cap");
        assert_eq!(server.handler_residue(), CAP, "{label}");
        assert_eq!(answered.load(Ordering::Acquire), 0, "{label}");
        for woken in 1..=CALLS {
            let handle = service
                .handles
                .lock()
                .unwrap()
                .pop()
                .expect("a parked call");
            handle.wake();
            // One out, the next one in — and no further.
            wait_until("a wake to answer one call and admit the next", || {
                answered.load(Ordering::Acquire) == woken as u64
                    && parks() == (CAP + woken).min(CALLS)
                    && server.handler_residue() == CAP.min(CALLS - woken)
            });
        }
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(parks(), CALLS, "{label}: every call was polled once");
        client.shutdown();
        server.stop();
    }
}

// ---------------------------------------------------------------------
// Satellite: protocol-priority classes.
// ---------------------------------------------------------------------

struct BulkService {
    done: Arc<AtomicU64>,
}

impl RpcService for BulkService {
    fn protocol(&self) -> &'static str {
        "mn.Bulk"
    }
    fn call(&self, _method: &str, _param: &mut dyn DataInput) -> Reply {
        std::thread::sleep(Duration::from_millis(25));
        self.done.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(LongWritable(1)))
    }
}

struct HeartbeatService {
    bulk_done: Arc<AtomicU64>,
}

impl RpcService for HeartbeatService {
    fn protocol(&self) -> &'static str {
        "mn.Heartbeat"
    }
    fn call(&self, _method: &str, _param: &mut dyn DataInput) -> Reply {
        // Report how much of the bulk flood had drained when this
        // heartbeat actually ran.
        Ok(Box::new(LongWritable(
            self.bulk_done.load(Ordering::Relaxed) as i64,
        )))
    }
}

/// A bulk flood must not starve heartbeats: with `mn.Heartbeat` in
/// `priority_protocols`, a heartbeat issued into a 20-deep backlog of
/// slow bulk calls dequeues ahead of the still-queued bulk — it runs
/// while most of the flood is still waiting, instead of draining the
/// whole queue first.
#[test]
fn heartbeats_jump_a_bulk_flood() {
    let _wd = watchdog("heartbeats_jump_a_bulk_flood", Duration::from_secs(120));
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let mut cfg = RpcConfig::rpcoib();
    cfg.handlers = 1; // one handler: the backlog is real
    cfg.priority_protocols = vec!["mn.Heartbeat".into()];
    let bulk_done = Arc::new(AtomicU64::new(0));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(BulkService {
        done: Arc::clone(&bulk_done),
    }));
    registry.register(Arc::new(HeartbeatService {
        bulk_done: Arc::clone(&bulk_done),
    }));
    let server = Server::start(&fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    let addr = server.addr();
    let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();

    // 20 blocking callers pile a ~500 ms backlog onto the one handler.
    let flood: Vec<_> = (0..20)
        .map(|_| {
            let client = client.clone();
            std::thread::spawn(move || {
                client
                    .call::<_, LongWritable>(addr, "mn.Bulk", "slow", &LongWritable(0))
                    .expect("bulk call")
            })
        })
        .collect();
    // Let the flood enqueue and a few bulk calls execute.
    std::thread::sleep(Duration::from_millis(75));

    let beat: LongWritable = client
        .call(addr, "mn.Heartbeat", "beat", &LongWritable(0))
        .expect("heartbeat");
    assert!(
        (beat.0 as u64) < 16,
        "heartbeat waited out the bulk flood: {} of 20 bulk calls had drained",
        beat.0
    );

    for h in flood {
        h.join().unwrap();
    }
    assert_eq!(
        bulk_done.load(Ordering::Relaxed),
        20,
        "the flood still completes"
    );
    client.shutdown();
    server.stop();
}

// ---------------------------------------------------------------------
// Satellites: burst decode + reader stealing.
// ---------------------------------------------------------------------

/// Gathered V3 batches (many pipelined frames arriving as one wire op)
/// decode wholesale on the server's read side: heavy pipelining over a
/// single connection stays correct — every response routed to its
/// caller, byte-identical — on both transports.
#[test]
fn gathered_bursts_decode_correctly() {
    let _wd = watchdog("gathered_bursts_decode_correctly", Duration::from_secs(120));
    for (label, fabric, cfg) in transports() {
        let (server, addr) = start(&fabric, &cfg, vec![Arc::new(ParkEcho)]);
        // One client = one connection; 8 threads pipeline onto it so
        // the server sees multi-frame gathered batches.
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let client = client.clone();
                std::thread::spawn(move || {
                    for i in 0..20usize {
                        let body = vec![(t * 32 + i) as u8; 128 + i];
                        let resp: BytesWritable = client
                            .call(addr, "mn.ParkEcho", "echo", &BytesWritable(body.clone()))
                            .expect("pipelined call");
                        assert_eq!(resp.0, body);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = server.metrics_snapshot();
        let frames: u64 = snap
            .shards
            .iter()
            .filter(|s| s.role == ShardRole::Reader)
            .map(|s| s.processed)
            .sum();
        assert!(frames >= 160, "transport {label}: {frames} frames read");
        client.shutdown();
        server.stop();
    }
}

/// `echo` answers at once; `hold` notes the thread it runs on and blocks
/// there until the test lets go.
#[derive(Default)]
struct HoldEcho {
    held_on: Mutex<Option<String>>,
    released: Mutex<bool>,
    cv: Condvar,
}

impl HoldEcho {
    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Releases the held call when dropped, so a failed assertion unwinds
/// into a server that can stop.
struct ReleaseOnDrop(Arc<HoldEcho>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

impl RpcService for HoldEcho {
    fn protocol(&self) -> &'static str {
        "mn.HoldEcho"
    }

    fn call(&self, method: &str, param: &mut dyn DataInput) -> Reply {
        let mut b = BytesWritable::default();
        b.read_fields(param).map_err(|e| e.to_string())?;
        if method == "hold" {
            let name = std::thread::current().name().unwrap_or("").to_string();
            *self.held_on.lock().unwrap() = Some(name);
            self.cv.notify_all();
            let mut released = self.released.lock().unwrap();
            while !*released {
                released = self.cv.wait(released).unwrap();
            }
        }
        Ok(Box::new(b))
    }
}

/// A shard whose owner is inside a handler is drained by an idle worker:
/// a lone `hold` call runs on the reader shard that read it and blocks
/// there; the flood is then pinned onto the *other* connections of that
/// same shard (found empirically via the per-shard `processed` counter).
/// Every one of its calls can only have been read by a worker taking the
/// shard over — the workers' steal counters move — and every response
/// must still be the right one.
#[test]
fn a_shard_whose_owner_is_in_a_handler_is_drained_by_a_worker() {
    let _wd = watchdog(
        "a_shard_whose_owner_is_in_a_handler_is_drained_by_a_worker",
        Duration::from_secs(120),
    );
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let mut cfg = RpcConfig::rpcoib();
    cfg.reader_shards = 2;
    let service = Arc::new(HoldEcho::default());
    let (server, addr) = start(&fabric, &cfg, vec![Arc::clone(&service)]);
    let _release = ReleaseOnDrop(Arc::clone(&service));

    // Probe each client's shard: one ping, then see whose `processed`
    // moved.
    let shard_processed = |server: &Server| -> Vec<u64> {
        server
            .metrics_snapshot()
            .shards
            .iter()
            .filter(|s| s.role == ShardRole::Reader)
            .map(|s| s.processed)
            .collect()
    };
    let mut hot = Vec::new(); // clients on shard 0
    for _ in 0..6 {
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let before = shard_processed(&server);
        echo(&client, addr, "mn.HoldEcho", "echo", vec![1, 2, 3]);
        let after = shard_processed(&server);
        if after[0] > before[0] {
            hot.push(client);
        } else {
            client.shutdown(); // shard-1 tenant: stay silent
        }
    }
    assert!(
        hot.len() >= 3,
        "conn placement should land >=3 of 6 clients on shard 0, got {}",
        hot.len()
    );

    // Shard 0's owner goes into a handler and stays there.
    let holder = hot.pop().unwrap();
    let held = {
        let holder = holder.clone();
        std::thread::spawn(move || echo(&holder, addr, "mn.HoldEcho", "hold", vec![9]))
    };
    {
        let mut held_on = service.held_on.lock().unwrap();
        while held_on.is_none() {
            held_on = service.cv.wait(held_on).unwrap();
        }
        let name = held_on.as_deref().unwrap();
        assert!(
            name.starts_with("rpc-reader-"),
            "a lone call should run on the shard that read it, ran on {name:?}"
        );
    }
    let steals_before = worker_sum(&server, |s| s.steals);
    let frames_before = shard_processed(&server);

    // Flood shard 0 only (4 pipelining threads per hot connection).
    const CALLS: usize = 50;
    let hot = Arc::new(hot);
    let handles: Vec<_> = (0..hot.len() * 4)
        .map(|t| {
            let hot = Arc::clone(&hot);
            std::thread::spawn(move || {
                let client = &hot[t % hot.len()];
                for i in 0..CALLS {
                    let body = vec![(t * 31 + i) as u8; 512];
                    let resp: BytesWritable = client
                        .call(addr, "mn.HoldEcho", "echo", &BytesWritable(body.clone()))
                        .expect("flood call");
                    assert_eq!(resp.0, body);
                }
            })
        })
        .collect();
    let flood = handles.len() * CALLS;
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        worker_sum(&server, |s| s.steals) > steals_before,
        "no worker ever took the away shard over"
    );
    // Booked on the shard the connections were dealt to, whoever read.
    let frames_after = shard_processed(&server);
    assert_eq!(frames_after[0] - frames_before[0], flood as u64);
    assert_eq!(frames_after[1], frames_before[1]);

    service.release();
    assert_eq!(held.join().unwrap(), vec![9]);
    holder.shutdown();
    for client in hot.iter() {
        client.shutdown();
    }
    server.stop();
}

// ---------------------------------------------------------------------
// Property tests: random schedules, both transports, exactly once.
// ---------------------------------------------------------------------

struct PropEnv {
    _server: Server,
    client: Client,
    addr: SimAddr,
    service: Arc<ScriptEcho>,
    calls: AtomicU64,
}

fn prop_env(rdma: bool) -> &'static PropEnv {
    static SOCKET: OnceLock<PropEnv> = OnceLock::new();
    static RDMA: OnceLock<PropEnv> = OnceLock::new();
    let cell = if rdma { &RDMA } else { &SOCKET };
    cell.get_or_init(|| {
        let (net, mut cfg) = if rdma {
            (model::IB_QDR_VERBS, RpcConfig::rpcoib())
        } else {
            (model::IPOIB_QDR, RpcConfig::socket())
        };
        cfg.handlers = 4;
        let fabric = Fabric::new(net);
        let service = Arc::new(ScriptEcho {
            completions: AtomicU64::new(0),
        });
        let mut registry = ServiceRegistry::new();
        let as_service: Arc<dyn RpcService> = service.clone();
        registry.register(as_service);
        let server =
            Server::start(&fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        PropEnv {
            _server: server,
            client,
            addr,
            service,
            calls: AtomicU64::new(0),
        }
    })
}

fn run_schedule(env: &PropEnv, schedule: Vec<u8>, data: Vec<u8>) {
    let mut body = vec![schedule.len() as u8];
    body.extend_from_slice(&schedule);
    body.extend_from_slice(&data);
    let resp: BytesWritable = env
        .client
        .call(env.addr, "mn.ScriptEcho", "run", &BytesWritable(body))
        .expect("scripted call");
    let calls = env.calls.fetch_add(1, Ordering::Relaxed) + 1;
    prop_assert_eq!(resp.0, data, "echo mismatch");
    prop_assert_eq!(
        env.service.completions.load(Ordering::Relaxed),
        calls,
        "a schedule completed twice or not at all"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random yield/park schedule answers exactly once over RPCoIB.
    #[test]
    fn mn_random_schedules_respond_exactly_once_verbs(
        schedule in proptest::collection::vec(any::<u8>(), 0..6),
        data in proptest::collection::vec(any::<u8>(), 1..4096),
    ) {
        run_schedule(prop_env(true), schedule, data);
    }

    /// Same property over the socket baseline.
    #[test]
    fn mn_random_schedules_respond_exactly_once_socket(
        schedule in proptest::collection::vec(any::<u8>(), 0..6),
        data in proptest::collection::vec(any::<u8>(), 1..4096),
    ) {
        run_schedule(prop_env(false), schedule, data);
    }
}

// ---------------------------------------------------------------------
// Tier-2 soak: 100k parked calls on 4 workers.
// ---------------------------------------------------------------------

/// 100 000 concurrently *parked* lightweight tasks on 4 OS workers — the
/// "in-flight calls cost bytes, not threads" claim at scale. After every
/// task is woken and drained, the runtime must hold zero residue: no
/// frame, queue slot, or timer entry survives.
#[test]
#[ignore = "tier-2 soak (run with --ignored)"]
fn soak_100k_parked_calls_leave_zero_residue() {
    let _wd = watchdog(
        "soak_100k_parked_calls_leave_zero_residue",
        Duration::from_secs(300),
    );
    const TASKS: usize = 100_000;
    const WORKERS: usize = 4;
    let stats = (0..WORKERS)
        .map(|_| Arc::new(ShardStats::default()))
        .collect();
    let sched = Arc::new(Sched::new(WORKERS, stats));
    let handles = Arc::new(Mutex::new(Vec::with_capacity(TASKS)));
    let completed = Arc::new(AtomicU64::new(0));

    for _ in 0..TASKS {
        let handles = Arc::clone(&handles);
        let completed = Arc::clone(&completed);
        sched.inject(move |cx| {
            if cx.polls() == 0 {
                handles.lock().unwrap().push(cx.wake_handle());
                return Step::Park;
            }
            completed.fetch_add(1, Ordering::Relaxed);
            Step::Done
        });
    }

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let sched = Arc::clone(&sched);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                let epoch = sched.wake_epoch();
                if let Some(task) = sched.next_task(w) {
                    sched.run(w, task, 0);
                    continue;
                }
                if stop.load(Ordering::Acquire) {
                    return;
                }
                sched.idle_wait(epoch, Duration::from_millis(1));
            })
        })
        .collect();

    // Phase 1: everything parks.
    let deadline = Instant::now() + Duration::from_secs(120);
    while sched.parked() < TASKS {
        assert!(
            Instant::now() < deadline,
            "parking stalled at {}",
            sched.parked()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sched.parked_peak(), TASKS);
    assert_eq!(sched.inflight(), TASKS, "all parked, none lost");
    assert_eq!(completed.load(Ordering::Relaxed), 0);

    // Phase 2: wake the lot and drain.
    for h in handles.lock().unwrap().drain(..) {
        h.wake();
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while sched.inflight() > 0 {
        assert!(
            Instant::now() < deadline,
            "drain stalled with {} in flight",
            sched.inflight()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Release);
    sched.close();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(completed.load(Ordering::Relaxed), TASKS as u64);
    assert_eq!(sched.parked(), 0);
    assert_eq!(sched.queued(), 0);
    assert_eq!(
        sched.residue(),
        0,
        "no frame, slot, or timer survives the drain"
    );
}
