//! The server's run discipline: a reader shard that has just admitted a
//! call and has nothing else to read runs that call itself, in the place
//! of an idle worker. Three rules make that safe when a handler blocks,
//! and each case below is built to fail when its rule is broken:
//!
//! * **run permit** — never more than `handlers` calls execute, whichever
//!   threads run them (b);
//! * **only when there is nothing else to read** — a burst keeps its
//!   workers and its parallelism (d);
//! * **away, and taken over** — while a reader is inside a handler its
//!   shard is read, adopted for and answered for by an idle worker (c, g),
//!   no handler runs under a shard's table lock (f), and a call that
//!   suspends on a reader's stack is a worker's from then on (e).
//!
//! Each case runs on both transports (honouring the CI matrix's
//! `RPC_SHARDS`; with `RPC_SHARDS=1` the takeover is the *only* reader a
//! busy shard has) under a watchdog, with gates that open when the test
//! unwinds.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use rpcoib::{
    CallPoll, Client, HandlerCx, RetryPolicy, RpcConfig, RpcError, RpcService, Server,
    ServiceRegistry, ShardRole, ShardSnapshot,
};
use simnet::{model, Fabric, SimAddr};
use wire::{BytesWritable, DataInput, Writable};

/// Case (a) asserts that *nothing* ran on a worker, so it runs alone: it
/// takes the write side, every other case the read side.
static QUIET: RwLock<()> = RwLock::new(());

const GATES: usize = 8;
const PROTOCOL: &str = "test.RunDiscipline";

fn env_shards() -> Option<usize> {
    std::env::var("RPC_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Both transports with their fabric model, under the CI matrix's shard
/// setting.
fn transports() -> Vec<(&'static str, Fabric, RpcConfig)> {
    [
        ("socket", model::IPOIB_QDR, RpcConfig::socket()),
        ("verbs", model::IB_QDR_VERBS, RpcConfig::rpcoib()),
    ]
    .into_iter()
    .map(|(name, model, mut cfg)| {
        if let Some(n) = env_shards() {
            cfg.reader_shards = n;
        }
        (name, Fabric::new(model), cfg)
    })
    .collect()
}

/// Aborts the process if the guard outlives `limit`: a deaf shard or a
/// lost wake-up must fail fast, not hang the suite.
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

#[derive(Default)]
struct GateState {
    arrived: usize,
    open: [bool; GATES],
}

/// Where the service calls on from `relay` / `bounce` (case g).
struct Downstream {
    client: Client,
    addr: SimAddr,
    method: &'static str,
}

/// What the test can see of, and do to, the handlers of one server.
#[derive(Default)]
struct Probe {
    gates: Mutex<GateState>,
    cv: Condvar,
    /// `(method, poll number, thread name)` of every handler invocation.
    ran_on: Mutex<Vec<(String, u64, String)>>,
    /// Handlers inside `busy` right now, and the most there ever were.
    inside: AtomicUsize,
    inside_max: AtomicUsize,
    completions: AtomicU64,
    downstream: Mutex<Option<Downstream>>,
}

impl Probe {
    fn open(&self, gate: usize) {
        self.gates.lock().unwrap().open[gate] = true;
        self.cv.notify_all();
    }

    fn shut(&self, gate: usize) {
        self.gates.lock().unwrap().open[gate] = false;
    }

    /// Block until `n` `hold` calls are inside the server.
    fn await_arrivals(&self, n: usize) {
        let mut st = self.gates.lock().unwrap();
        while st.arrived < n {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn threads_of(&self, method: &str) -> Vec<(u64, String)> {
        let log = self.ran_on.lock().unwrap();
        log.iter()
            .filter(|(m, _, _)| m == method)
            .map(|(_, poll, thread)| (*poll, thread.clone()))
            .collect()
    }
}

/// The test's handle on a server's probe. Opens every gate when dropped,
/// so a failed assertion unwinds into a server that can stop instead of
/// one whose handlers are held for good. Bound after the server (`let
/// (server, probe) = …`), it drops before it.
struct ProbeKeeper(Arc<Probe>);

impl std::ops::Deref for ProbeKeeper {
    type Target = Probe;
    fn deref(&self) -> &Probe {
        &self.0
    }
}

impl Drop for ProbeKeeper {
    fn drop(&mut self) {
        if let Ok(mut st) = self.0.gates.lock() {
            st.open = [true; GATES];
        }
        self.0.cv.notify_all();
        // A downstream client holds connections; let go of it.
        if let Ok(mut down) = self.0.downstream.lock() {
            down.take();
        }
    }
}

/// Every method echoes its payload. `hold` first waits on the gate
/// numbered by the payload's first byte; `busy`
/// records how many of it run at once; `relay` / `bounce` first make the
/// downstream call; `park` and `yield` suspend on their first poll.
struct Service(Arc<Probe>);

impl RpcService for Service {
    fn protocol(&self) -> &'static str {
        PROTOCOL
    }

    fn call(
        &self,
        _method: &str,
        _param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        Err("the server polls call_mn".into())
    }

    fn call_mn(&self, method: &str, param: &mut dyn DataInput, cx: &mut HandlerCx<'_>) -> CallPoll {
        let probe = &self.0;
        let mut payload = BytesWritable::default();
        if let Err(e) = payload.read_fields(param) {
            return CallPoll::Ready(Err(e.to_string()));
        }
        let thread = std::thread::current().name().unwrap_or("").to_string();
        probe
            .ran_on
            .lock()
            .unwrap()
            .push((method.to_string(), cx.polls(), thread));
        match method {
            "echo" => {}
            "hold" => {
                let gate = payload.0[0] as usize;
                let mut st = probe.gates.lock().unwrap();
                st.arrived += 1;
                probe.cv.notify_all();
                while !st.open[gate] {
                    st = probe.cv.wait(st).unwrap();
                }
            }
            "busy" => {
                let now = probe.inside.fetch_add(1, Ordering::SeqCst) + 1;
                probe.inside_max.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(300));
                probe.inside.fetch_sub(1, Ordering::SeqCst);
            }
            "relay" | "bounce" => {
                let down = probe.downstream.lock().unwrap();
                let down = down.as_ref().expect("downstream wired");
                match call(&down.client, down.addr, down.method, &payload.0) {
                    Ok(back) => payload.0 = back,
                    Err(e) => return CallPoll::Ready(Err(format!("{method} downstream: {e:?}"))),
                }
            }
            "park" if cx.first_poll() => {
                cx.park_for(Duration::from_millis(5));
                return CallPoll::Pending;
            }
            "yield" if cx.first_poll() => {
                cx.yield_now();
                return CallPoll::Pending;
            }
            "park" | "yield" => {}
            other => return CallPoll::Ready(Err(format!("no such method {other}"))),
        }
        probe.completions.fetch_add(1, Ordering::SeqCst);
        CallPoll::Ready(Ok(Box::new(payload)))
    }
}

fn start_server(fabric: &Fabric, cfg: &RpcConfig) -> (Server, ProbeKeeper) {
    let probe = Arc::new(Probe::default());
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(Service(Arc::clone(&probe))));
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    (server, ProbeKeeper(probe))
}

fn call(client: &Client, addr: SimAddr, method: &str, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
    client
        .call::<_, BytesWritable>(addr, PROTOCOL, method, &BytesWritable(payload.to_vec()))
        .map(|b| b.0)
}

fn wait_until(limit: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn shard_rows(server: &Server, role: ShardRole) -> Vec<ShardSnapshot> {
    let shards = server.metrics_snapshot().shards;
    shards.into_iter().filter(|s| s.role == role).collect()
}

/// Frames read per reader shard (booked on the connection's owner).
fn frames_read(server: &Server) -> Vec<u64> {
    shard_rows(server, ShardRole::Reader)
        .iter()
        .map(|s| s.processed)
        .collect()
}

fn worker_sum(server: &Server, counter: fn(&ShardSnapshot) -> u64) -> u64 {
    shard_rows(server, ShardRole::Worker)
        .iter()
        .map(counter)
        .sum()
}

/// The reader shard `client`'s connection was dealt to: one echo, then
/// see whose `processed` moved. (Nothing else may be calling meanwhile.)
fn shard_of(server: &Server, client: &Client) -> usize {
    let before = frames_read(server);
    assert_eq!(
        call(client, server.addr(), "echo", b"probe").unwrap(),
        b"probe"
    );
    let after = frames_read(server);
    let moved: Vec<usize> = (0..after.len()).filter(|&i| after[i] > before[i]).collect();
    assert_eq!(
        moved.len(),
        1,
        "one echo, one shard: {before:?} -> {after:?}"
    );
    moved[0]
}

/// A new client whose connection to `server` sits on reader shard
/// `shard`. Connections are dealt round-robin in accept order, so one of
/// any `reader_shards` consecutive connects lands there.
fn client_on_shard(
    fabric: &Fabric,
    cfg: &RpcConfig,
    server: &Server,
    shard: usize,
) -> (Client, Vec<Client>) {
    let mut elsewhere = Vec::new();
    for _ in 0..4 * cfg.effective_reader_shards() {
        let client = Client::new(fabric, fabric.add_node(), cfg.clone()).unwrap();
        if shard_of(server, &client) == shard {
            return (client, elsewhere);
        }
        elsewhere.push(client);
    }
    panic!("no connection landed on shard {shard}");
}

type Pending = std::thread::JoinHandle<Result<Vec<u8>, RpcError>>;

/// Get a `hold` call of `client`'s held *on the reader shard that read
/// it*, behind `gate`. A lone call runs there unless it arrived while the
/// reader was still on its way back from the call before (see case a);
/// one that a worker took over instead is let go and the hold tried
/// again.
fn hold_on_reader(probe: &Probe, client: &Client, addr: SimAddr, gate: u8) -> Pending {
    for _ in 0..50 {
        // Let the reader get back to its wake list first.
        std::thread::sleep(Duration::from_millis(2));
        let arrived = probe.threads_of("hold").len();
        let held = {
            let client = client.clone();
            std::thread::spawn(move || call(&client, addr, "hold", &[gate, 42]))
        };
        probe.await_arrivals(arrived + 1);
        if on_reader(&probe.threads_of("hold")[arrived].1) {
            return held;
        }
        probe.open(gate as usize);
        assert_eq!(held.join().unwrap().unwrap(), [gate, 42]);
        probe.shut(gate as usize);
    }
    panic!("50 lone holds and not one ran on the reader that read it");
}

fn on_reader(thread: &str) -> bool {
    thread.starts_with("rpc-reader-")
}

fn on_worker(thread: &str) -> bool {
    thread.starts_with("rpc-handler-")
}

/// (a) A lone caller's calls stay on the shard that read them: of 1 000
/// echoes most run on a thread named `rpc-reader-*`, and no worker row's
/// `processed` moves for those. The rest reach a worker one of two ways,
/// both the host's doing, which is why only "most" is asserted: the call
/// arrived while the reader was still on its way back from the previous
/// one (the caller its send woke preempted it and spun through its
/// modeled delays on the reader's CPU) and a worker *took it over* — a
/// `steal`; or the reader found something else on its wake list behind
/// the call (a stale token of a frame that came in two segments, a verbs
/// flow-control credit) and announced it. At a build that hands every
/// call to a worker: 1 000 strays.
#[test]
fn a_lone_callers_calls_run_on_the_reader_that_read_them() {
    let _alone = QUIET.write().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("lone_caller", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        for i in 0..1000u32 {
            let payload = i.to_be_bytes();
            assert_eq!(call(&client, addr, "echo", &payload).unwrap(), payload);
        }
        let ran = probe.threads_of("echo");
        assert_eq!(ran.len(), 1000, "{name}");
        let strays = ran.iter().filter(|(_, t)| !on_reader(t)).count() as u64;
        assert!(strays < 500, "{name}: {strays} of 1000 ran off the reader");
        // What ran on a reader is booked on no worker.
        wait_until(
            Duration::from_secs(5),
            "the workers' books to settle",
            || worker_sum(&server, |s| s.processed) == strays,
        );
        let taken_by_readers: u64 = shard_rows(&server, ShardRole::Reader)
            .iter()
            .map(|s| s.steals)
            .sum();
        assert_eq!(taken_by_readers, 0, "{name}: readers take nothing over");
        client.shutdown();
        server.stop();
    }
}

/// (b) `handlers` bounds the calls executing, not a pool of threads: with
/// two permits, four reader shards and eight clients hammering, readers
/// and workers together never have more than two calls inside the
/// handler — and do reach two.
#[test]
fn never_more_than_handlers_calls_execute_whoever_runs_them() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("run_permit", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        let cfg = RpcConfig {
            handlers: 2,
            reader_shards: env_shards().unwrap_or(4),
            ..base
        };
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let callers: Vec<_> = (0..8u8)
            .map(|t| {
                let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
                std::thread::spawn(move || {
                    for i in 0..150u8 {
                        let payload = [t, i];
                        assert_eq!(call(&client, addr, "busy", &payload).unwrap(), payload);
                    }
                    client.shutdown();
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        let most = probe.inside_max.load(Ordering::SeqCst);
        assert!(most <= 2, "{name}: {most} calls executed at once");
        assert_eq!(most, 2, "{name}: the second permit was never used");
        assert_eq!(probe.completions.load(Ordering::SeqCst), 8 * 150, "{name}");
        server.stop();
    }
}

/// (c) While a reader is held inside a handler, a second connection *of
/// the same shard* is connected, adopted and answered — by a worker that
/// takes the shard over, its `steals` moving — and what it reads is
/// booked on the owner shard. With `RPC_SHARDS=1` that is every
/// connection. (Hangs, and is aborted by the watchdog, at a build whose
/// away shard nobody reads.)
#[test]
fn a_held_readers_shard_is_adopted_for_and_answered_for_by_a_worker() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("takeover", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let holder = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let shard = shard_of(&server, &holder);
        let held = hold_on_reader(&probe, &holder, addr, 0);

        // The gate is shut and the shard's owner is behind it.
        let steals = worker_sum(&server, |s| s.steals);
        let frames = frames_read(&server);
        let (second, elsewhere) = client_on_shard(&fabric, &cfg, &server, shard);
        for i in 0..20u8 {
            assert_eq!(call(&second, addr, "echo", &[i; 64]).unwrap(), [i; 64]);
        }
        let took = worker_sum(&server, |s| s.steals) - steals;
        assert!(
            took >= 2,
            "{name}: a registration and a wake token at least, took {took}"
        );
        let echoes = probe.threads_of("echo");
        let same_shard: Vec<_> = echoes.iter().rev().take(20).collect();
        assert!(
            same_shard.iter().all(|(_, t)| on_worker(t)),
            "{name}: {same_shard:?}"
        );
        assert!(
            frames_read(&server)[shard] >= frames[shard] + 21,
            "{name}: frames a worker read are booked on the owner shard"
        );

        probe.open(0);
        assert_eq!(held.join().unwrap().unwrap(), [0, 42], "{name}");
        for client in elsewhere.into_iter().chain([holder, second]) {
            client.shutdown();
        }
        server.stop();
    }
}

/// (d) A burst keeps its parallelism: eight calls pipelined on one
/// connection are all inside the handler at once, and at least seven of
/// them on workers — a reader runs a call only when it is the last thing
/// it has to read, so at most the burst's tail stays with it.
#[test]
fn a_pipelined_burst_executes_in_parallel_on_workers() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("burst", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        let cfg = RpcConfig {
            handlers: GATES,
            ..base
        };
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        assert_eq!(call(&client, addr, "echo", b"warm").unwrap(), b"warm");
        let callers: Vec<_> = (0..GATES as u8)
            .map(|gate| {
                let client = client.clone();
                std::thread::spawn(move || call(&client, addr, "hold", &[gate, 7, 7]))
            })
            .collect();
        // All eight inside at once — none waits for another to finish.
        probe.await_arrivals(GATES);
        let ran = probe.threads_of("hold");
        let on_workers = ran.iter().filter(|(_, t)| on_worker(t)).count();
        assert!(on_workers >= GATES - 1, "{name}: {ran:?}");
        for gate in 0..GATES {
            probe.open(gate);
        }
        for (gate, caller) in callers.into_iter().enumerate() {
            assert_eq!(
                caller.join().unwrap().unwrap(),
                [gate as u8, 7, 7],
                "{name}"
            );
        }
        client.shutdown();
        server.stop();
    }
}

/// (e) A call that suspends on a reader's stack is a worker's from then
/// on: first poll on `rpc-reader-*`, second on `rpc-handler-*`, answered
/// exactly once, nothing left in the runtime — for a timed park and for a
/// yield.
#[test]
fn a_call_that_suspends_on_a_reader_is_resumed_by_a_worker() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("suspend_on_reader", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let mut parks = 0;
        for method in ["park", "yield"] {
            // Until a first poll has run on the reader (see
            // `hold_on_reader`); whoever ran it, the second is a worker's.
            for attempt in 1.. {
                std::thread::sleep(Duration::from_millis(2));
                let done = probe.completions.load(Ordering::SeqCst);
                assert_eq!(call(&client, addr, method, b"zz").unwrap(), b"zz", "{name}");
                assert_eq!(probe.completions.load(Ordering::SeqCst), done + 1);
                parks += u64::from(method == "park");
                let polls = probe.threads_of(method);
                assert_eq!(polls.len(), 2 * attempt, "{name}/{method}: {polls:?}");
                let (first, second) = (&polls[polls.len() - 2], &polls[polls.len() - 1]);
                assert_eq!((first.0, second.0), (0, 1), "{name}/{method}: {polls:?}");
                assert!(on_worker(&second.1), "{name}/{method}: {polls:?}");
                if on_reader(&first.1) {
                    break;
                }
                assert!(attempt < 50, "{name}/{method}: never polled on the reader");
            }
        }
        wait_until(Duration::from_secs(5), "the runtime to empty", || {
            server.handler_residue() == 0
        });
        assert_eq!(
            worker_sum(&server, |s| s.parks),
            parks,
            "{name}: a park on a reader's stack is booked on a worker row"
        );
        assert_eq!(client.metrics().counters().retries, 0, "{name}");
        client.shutdown();
        server.stop();
    }
}

/// (f1) `drain` with a call mid-handler on a reader waits for it, returns
/// `true` once it has answered — and admits nothing meanwhile: a call
/// sent to the held reader's shard after the flag is read by no worker.
#[test]
fn drain_waits_for_a_reader_run_call_and_admits_nothing_behind_it() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("drain_waits", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        // (The late call below is never read; on verbs nothing tells its
        // caller so but this timeout.)
        let cfg = RpcConfig {
            call_timeout: Duration::from_secs(3),
            retry: RetryPolicy::none(),
            ..base
        };
        let (server, probe) = start_server(&fabric, &cfg);
        // (Re-bound in this order so that the gates still open before
        // the server stops, should an assertion unwind.)
        let (server, probe) = (Arc::new(server), probe);
        let addr = server.addr();
        let holder = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let shard = shard_of(&server, &holder);
        let (late, elsewhere) = client_on_shard(&fabric, &cfg, &server, shard);
        let held = hold_on_reader(&probe, &holder, addr, 0);

        let draining = Arc::new(AtomicBool::new(false));
        let drained = {
            let (server, draining) = (Arc::clone(&server), Arc::clone(&draining));
            std::thread::spawn(move || {
                draining.store(true, Ordering::Release);
                server.drain(Duration::from_secs(30))
            })
        };
        // `drain` raises its flag first thing.
        wait_until(Duration::from_secs(5), "drain to be called", || {
            draining.load(Ordering::Acquire)
        });
        std::thread::sleep(Duration::from_millis(100));
        let echoes = probe.threads_of("echo").len();
        let late_call = {
            let late = late.clone();
            std::thread::spawn(move || call(&late, addr, "echo", b"too late"))
        };
        std::thread::sleep(Duration::from_millis(100));
        assert!(!drained.is_finished(), "{name}: drain left a call behind");
        assert_eq!(
            probe.threads_of("echo").len(),
            echoes,
            "{name}: a call was admitted after the drain flag"
        );

        probe.open(0);
        assert_eq!(held.join().unwrap().unwrap(), [0, 42], "{name}: answered");
        assert!(drained.join().unwrap(), "{name}: drain should complete");
        assert!(late_call.join().unwrap().is_err(), "{name}");
        assert_eq!(probe.threads_of("echo").len(), echoes, "{name}");
        assert_eq!(server.handler_residue(), 0, "{name}");
        for client in elsewhere.into_iter().chain([holder, late]) {
            client.shutdown();
        }
    }
}

/// (f2) No handler runs under a shard's table lock: against a handler
/// held on a reader, `drain(10 ms)` gives up — `false` — within 100 ms,
/// where a build that holds the lock across the handler hangs in the
/// shutdown's sweep of the tables; once the cut-off call has run out,
/// nothing is left in the runtime.
#[test]
fn an_expired_drain_does_not_wait_for_a_reader_run_call() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("drain_expires", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        let cfg = RpcConfig {
            call_timeout: Duration::from_secs(5),
            retry: RetryPolicy::none(),
            ..base
        };
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        assert_eq!(call(&client, addr, "echo", b"warm").unwrap(), b"warm");
        let held = hold_on_reader(&probe, &client, addr, 0);

        let started = Instant::now();
        assert!(!server.drain(Duration::from_millis(10)), "{name}");
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "{name}: an expired drain took {took:?}"
        );
        // Idempotent after the cut-off; the call itself runs out on its
        // (detached) thread once let go, and then nothing is left.
        server.stop();
        assert!(server.handler_residue() >= 1, "{name}: still inside");
        probe.open(0);
        assert!(
            held.join().unwrap().is_err(),
            "{name}: cut off, not answered"
        );
        wait_until(Duration::from_secs(5), "the cut-off call to retire", || {
            server.handler_residue() == 0
        });
        client.shutdown();
    }
}

/// (g) A handler on server A's reader calls server B, whose handler calls
/// back into A on a connection of that same reader's shard. The shard's
/// owner is waiting for B; the callback can only be read by a worker
/// taking the shard over. Answered, no deadlock.
#[test]
fn a_nested_call_back_into_the_callers_own_shard_is_answered() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("nested", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (a, probe_a) = start_server(&fabric, &cfg);
        let (b, probe_b) = start_server(&fabric, &cfg);
        let outer = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let shard = shard_of(&a, &outer);
        // B → A rides a connection dealt to the same shard as outer → A.
        let (back, elsewhere) = client_on_shard(&fabric, &cfg, &a, shard);
        *probe_b.downstream.lock().unwrap() = Some(Downstream {
            client: back,
            addr: a.addr(),
            method: "echo",
        });
        *probe_a.downstream.lock().unwrap() = Some(Downstream {
            client: Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap(),
            addr: b.addr(),
            method: "bounce",
        });

        // Until a relay has run on A's reader (see `hold_on_reader`).
        let mut relays = 0;
        loop {
            std::thread::sleep(Duration::from_millis(2));
            let steals = worker_sum(&a, |s| s.steals);
            assert_eq!(
                call(&outer, a.addr(), "relay", b"there and back").unwrap(),
                b"there and back",
                "{name}"
            );
            relays += 1;
            if on_reader(&probe_a.threads_of("relay").last().unwrap().1) {
                let callback = probe_a.threads_of("echo");
                assert!(
                    on_worker(&callback.last().unwrap().1),
                    "{name}: {callback:?}"
                );
                assert!(worker_sum(&a, |s| s.steals) > steals, "{name}");
                break;
            }
            assert!(relays < 50, "{name}: no relay ever ran on the reader");
        }

        for client in elsewhere.into_iter().chain([outer]) {
            client.shutdown();
        }
        drop((probe_a, probe_b));
        a.stop();
        b.stop();
    }
}
