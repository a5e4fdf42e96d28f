//! The server's run discipline: every pool thread reads, runs and
//! sends, and a thread that has just admitted a call and has nothing else
//! to read runs that call itself. Three rules make that safe when a
//! handler blocks, and each case below is built to fail when its rule is
//! broken:
//!
//! * **run permit** — never more than `handlers` calls execute, whichever
//!   threads run them (b);
//! * **only when there is nothing else to read** — a burst keeps its
//!   parallelism (d);
//! * **at least one thread holds no permit** — while a thread is inside a
//!   handler, another reads, adopts and answers (c, g), no handler runs
//!   under the read turn (f), and a call that suspends is resumed by
//!   whichever thread is free (e).
//!
//! Each case runs on both transports under a watchdog, with gates that
//! open when the test unwinds.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use rpcoib::{
    CallPoll, Client, HandlerCx, RetryPolicy, RpcConfig, RpcError, RpcService, Server,
    ServiceRegistry, ShardRole, ShardSnapshot,
};
use simnet::{model, Fabric, SimAddr};
use wire::{BytesWritable, DataInput, Writable};

/// Case (a) counts the pool threads' wake-ups, so it runs alone: it takes
/// the write side, every other case the read side.
static QUIET: RwLock<()> = RwLock::new(());

const GATES: usize = 8;
const PROTOCOL: &str = "test.RunDiscipline";

/// Both transports with their fabric model.
fn transports() -> Vec<(&'static str, Fabric, RpcConfig)> {
    [
        ("socket", model::IPOIB_QDR, RpcConfig::socket()),
        ("verbs", model::IB_QDR_VERBS, RpcConfig::rpcoib()),
    ]
    .into_iter()
    .map(|(name, model, cfg)| (name, Fabric::new(model), cfg))
    .collect()
}

/// Aborts the process if the guard outlives `limit`: a deaf read side or
/// a lost wake-up must fail fast, not hang the suite.
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

/// Frames read, on the one reader row (whichever thread read them).
fn frames_read(server: &Server) -> u64 {
    let rows = shard_rows(server, ShardRole::Reader);
    assert_eq!(rows.len(), 1, "one read side: {rows:?}");
    rows[0].processed
}

fn worker_sum(server: &Server, counter: fn(&ShardSnapshot) -> u64) -> u64 {
    shard_rows(server, ShardRole::Worker)
        .iter()
        .map(counter)
        .sum()
}

fn on_pool(thread: &str) -> bool {
    thread.starts_with("rpc-worker-")
}

type Pending = std::thread::JoinHandle<Result<Vec<u8>, RpcError>>;

/// Get a `hold` call of `client`'s held behind `gate`, and the name of the
/// thread it is held on.
fn hold(probe: &Probe, client: &Client, addr: SimAddr, gate: u8) -> (Pending, String) {
    let arrived = probe.threads_of("hold").len();
    let held = {
        let client = client.clone();
        std::thread::spawn(move || call(&client, addr, "hold", &[gate, 42]))
    };
    probe.await_arrivals(arrived + 1);
    let thread = probe.threads_of("hold")[arrived].1.clone();
    assert!(on_pool(&thread), "{thread:?}");
    (held, thread)
}

/// Voluntary context switches of this process's pool threads, by thread
/// id: how often they went to sleep, hence how often one was woken.
fn pool_switches() -> std::collections::HashMap<String, u64> {
    let mut out = std::collections::HashMap::new();
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !on_pool(comm.trim()) {
            continue;
        }
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok());
        if let Some(switches) = switches {
            out.insert(task.file_name().to_string_lossy().into_owned(), switches);
        }
    }
    out
}

/// (a) A lone caller's calls run on the thread that read them: over
/// 1 000 echoes the server's pool threads are woken not much more than
/// once a call — the wake that read the call ran it. A build that hands
/// every call from the thread that read it to another wakes two threads
/// per call: 2 000. Only "most" is asserted, because the rest is the
/// host's doing: a caller that preempts the thread its own response woke
/// sends its next call before that thread is back asleep, and the wake
/// goes to a second thread; a verbs flow-control credit wakes a thread
/// that finds nothing to read. Every call is booked on the pool thread
/// that ran it.
#[test]
fn a_lone_callers_calls_run_on_the_thread_that_read_them() {
    let _alone = QUIET.write().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("lone_caller", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        assert_eq!(call(&client, addr, "echo", b"warm").unwrap(), b"warm");
        let before = pool_switches();
        for i in 0..1000u32 {
            let payload = i.to_be_bytes();
            assert_eq!(call(&client, addr, "echo", &payload).unwrap(), payload);
        }
        let after = pool_switches();
        let woken: u64 = after
            .iter()
            .filter_map(|(tid, n)| Some(n - before.get(tid)?))
            .sum();
        assert_eq!(probe.threads_of("echo").len(), 1001, "{name}");
        assert!(
            probe.threads_of("echo").iter().all(|(_, t)| on_pool(t)),
            "{name}"
        );
        assert!(
            woken < 1500,
            "{name}: pool threads woken {woken} times for 1000 calls"
        );
        wait_until(
            Duration::from_secs(5),
            "the workers' books to settle",
            || worker_sum(&server, |s| s.processed) == 1001,
        );
        client.shutdown();
        server.stop();
    }
}

/// (b) `handlers` bounds the calls executing, not a pool of threads: with
/// two permits, three pool threads and eight clients hammering, never
/// more than two calls are inside the handler — and two are reached.
#[test]
fn never_more_than_handlers_calls_execute_whoever_runs_them() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("run_permit", Duration::from_secs(120));
    for (name, fabric, base) in transports() {
        let cfg = RpcConfig {
            handlers: 2,
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

/// (c) While one thread is held inside a handler, another reads, adopts
/// and answers: a second connection is connected after the hold and its
/// 20 echoes are answered, on other threads, and booked on the one reader
/// row. (Hangs, and is aborted by the watchdog, at a build whose read
/// side waits for the held call.)
#[test]
fn a_held_call_leaves_the_read_side_to_another_thread() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("held_call", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let holder = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let (held, held_on) = hold(&probe, &holder, addr, 0);

        // The gate is shut and a thread is behind it.
        let frames = frames_read(&server);
        let second = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        for i in 0..20u8 {
            assert_eq!(call(&second, addr, "echo", &[i; 64]).unwrap(), [i; 64]);
        }
        let echoes = probe.threads_of("echo");
        assert!(
            echoes.iter().all(|(_, t)| on_pool(t) && *t != held_on),
            "{name}: held on {held_on}, echoes on {echoes:?}"
        );
        assert_eq!(frames_read(&server), frames + 20, "{name}");

        probe.open(0);
        assert_eq!(held.join().unwrap().unwrap(), [0, 42], "{name}");
        holder.shutdown();
        second.shutdown();
        server.stop();
    }
}

/// (d) A burst keeps its parallelism: eight calls pipelined on one
/// connection are all inside the handler at once, on eight threads — the
/// thread that reads the burst announces each call but its last, and
/// runs a call only when there is nothing left to read.
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
        let threads: std::collections::HashSet<_> = ran.iter().map(|(_, t)| t).collect();
        assert_eq!(threads.len(), GATES, "{name}: {ran:?}");
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

/// (e) A call that suspends on its first poll is resumed by whichever
/// pool thread is free: both polls on pool threads, answered exactly
/// once, its park booked on a worker row, nothing left in the runtime —
/// for a timed park and for a yield.
#[test]
fn a_call_that_suspends_is_resumed_by_whichever_thread_is_free() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("suspend", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (server, probe) = start_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        for method in ["park", "yield"] {
            let done = probe.completions.load(Ordering::SeqCst);
            assert_eq!(call(&client, addr, method, b"zz").unwrap(), b"zz", "{name}");
            assert_eq!(probe.completions.load(Ordering::SeqCst), done + 1);
            let polls = probe.threads_of(method);
            assert_eq!(polls.len(), 2, "{name}/{method}: {polls:?}");
            assert_eq!(
                (polls[0].0, polls[1].0),
                (0, 1),
                "{name}/{method}: {polls:?}"
            );
            assert!(
                polls.iter().all(|(_, t)| on_pool(t)),
                "{name}/{method}: {polls:?}"
            );
        }
        wait_until(Duration::from_secs(5), "the runtime to empty", || {
            server.handler_residue() == 0
        });
        assert_eq!(
            worker_sum(&server, |s| s.parks),
            1,
            "{name}: the park is booked on a worker row"
        );
        assert_eq!(client.metrics().counters().retries, 0, "{name}");
        client.shutdown();
        server.stop();
    }
}

/// (f1) `drain` with a call mid-handler waits for it, returns `true` once
/// it has answered — and admits nothing meanwhile: a call sent after the
/// flag, on a connection that was already open, is read by no thread.
#[test]
fn drain_waits_for_a_running_call_and_admits_nothing_behind_it() {
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
        let late = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        assert_eq!(call(&late, addr, "echo", b"open").unwrap(), b"open");
        let (held, _) = hold(&probe, &holder, addr, 0);

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
        holder.shutdown();
        late.shutdown();
    }
}

/// (f2) No handler runs under the read turn: against a held handler,
/// `drain(10 ms)` gives up — `false` — within 100 ms, where a build that
/// holds the table lock across the handler hangs in the shutdown's sweep
/// of the table; once the cut-off call has run out, nothing is left in
/// the runtime.
#[test]
fn an_expired_drain_does_not_wait_for_a_running_call() {
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
        let (held, _) = hold(&probe, &client, addr, 0);

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

/// (g) A handler on server A calls server B, whose handler calls back
/// into A: the thread running the outer call waits for B, and the
/// callback is read and run by another of A's threads. Answered, no
/// deadlock, on every one of 20 relays.
#[test]
fn a_nested_call_back_into_the_callers_own_shard_is_answered() {
    let _shared = QUIET.read().unwrap_or_else(|e| e.into_inner());
    let _wd = watchdog("nested", Duration::from_secs(120));
    for (name, fabric, cfg) in transports() {
        let (a, probe_a) = start_server(&fabric, &cfg);
        let (b, probe_b) = start_server(&fabric, &cfg);
        let outer = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        *probe_b.downstream.lock().unwrap() = Some(Downstream {
            client: Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap(),
            addr: a.addr(),
            method: "echo",
        });
        *probe_a.downstream.lock().unwrap() = Some(Downstream {
            client: Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap(),
            addr: b.addr(),
            method: "bounce",
        });

        for _ in 0..20 {
            assert_eq!(
                call(&outer, a.addr(), "relay", b"there and back").unwrap(),
                b"there and back",
                "{name}"
            );
            let relay = probe_a.threads_of("relay").last().unwrap().1.clone();
            let callback = probe_a.threads_of("echo").last().unwrap().1.clone();
            assert!(
                on_pool(&relay) && on_pool(&callback) && relay != callback,
                "{name}: relay on {relay}, callback on {callback}"
            );
        }

        outer.shutdown();
        drop((probe_a, probe_b));
        a.stop();
        b.stop();
    }
}
