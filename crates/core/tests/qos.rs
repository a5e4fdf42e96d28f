//! Multi-tenant QoS tests: tenant quotas feeding the busy-rejection
//! path, deadline propagation and server-side shedding, the retry-cache
//! interaction with shed calls (a duplicate of a shed call replays
//! `STATUS_EXPIRED`, never executes), deadline-aware busy backoff, and a
//! seeded misbehaving-tenant soak.
//!
//! Like the resilience suite, transport-agnostic tests pick their fabric
//! from `RPC_TRANSPORT`; the soak runs twice, with quotas and weights and
//! on the plain FIFO plane — isolation assertions only apply with quotas,
//! liveness and at-most-once must hold either way.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rpcoib::admission::{AdmissionQueue, AdmitError, CallMeta};
use rpcoib::frame::{STATUS_EXPIRED, STATUS_OK};
use rpcoib::{
    Admission, Client, MetricsRegistry, RetryCache, RetryPolicy, RpcConfig, RpcError, RpcService,
    Server, ServiceRegistry,
};
use simnet::{model, Fabric, NodeId};
use wire::{DataInput, LongWritable, Writable};

/// Fabric + config for the transport selected by `RPC_TRANSPORT`
/// (mirrors the resilience suite so CI reuses its matrix legs).
fn env_transport() -> (Fabric, RpcConfig) {
    if std::env::var("RPC_TRANSPORT").as_deref() == Ok("verbs") {
        (Fabric::new(model::IB_QDR_VERBS), RpcConfig::rpcoib())
    } else {
        (Fabric::new(model::IPOIB_QDR), RpcConfig::socket())
    }
}

/// Aborts the process if the guard outlives `limit` — a stuck queue
/// fails fast instead of hanging the suite.
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

/// Counter service with a configurable per-call delay: `incr` mutates
/// (so at-most-once is auditable), `slow` burns handler time without
/// mutating, `get` reads.
struct CounterService {
    applied: Arc<AtomicU64>,
    delay: Duration,
}

impl RpcService for CounterService {
    fn protocol(&self) -> &'static str {
        "qos.CounterProtocol"
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
            "slow" => {
                std::thread::sleep(self.delay);
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
        delay,
    }));
    let server = Server::start(fabric, node, 8020, cfg.clone(), registry).unwrap();
    (server, applied)
}

fn call(client: &Client, server: &Server, method: &str) -> Result<LongWritable, RpcError> {
    client.call(
        server.addr(),
        "qos.CounterProtocol",
        method,
        &LongWritable(1),
    )
}

/// Satellite regression: a `ServerBusy` whose next backoff would sleep
/// out the entire remaining deadline budget must fail fast as
/// `ServerBusy` — not burn the tail parked in the backoff and then
/// surface a generic `Timeout`.
#[test]
fn busy_backoff_fails_fast_when_deadline_nearly_spent() {
    let _wd = watchdog("busy_fail_fast", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 1,
        call_queue_len: 1,
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, _applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(600));
    let filler = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();

    // A occupies the single handler; B the single queue slot.
    let spawn_slow = |delay_ms: u64| {
        let filler = filler.clone();
        let addr = server.addr();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay_ms));
            filler.call::<_, LongWritable>(addr, "qos.CounterProtocol", "slow", &LongWritable(1))
        })
    };
    let a = spawn_slow(0);
    let b = spawn_slow(100);
    std::thread::sleep(Duration::from_millis(250));

    // The victim's policy *could* retry five times, but its first backoff
    // (500 ms base) already exceeds the 300 ms overall deadline: the
    // fail-fast check must surface the busy verdict immediately.
    let victim_cfg = RpcConfig {
        retry: RetryPolicy::exponential(5, Duration::from_millis(500))
            .with_deadline(Duration::from_millis(300)),
        ..cfg.clone()
    };
    let victim = Client::new(&fabric, fabric.add_node(), victim_cfg).unwrap();
    let start = Instant::now();
    let err = call(&victim, &server, "incr").unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, RpcError::ServerBusy), "got {err:?}");
    assert!(
        elapsed < Duration::from_millis(200),
        "busy + unaffordable backoff must fail fast, took {elapsed:?}"
    );

    assert!(a.join().unwrap().is_ok());
    assert!(b.join().unwrap().is_ok());
    filler.shutdown();
    victim.shutdown();
    server.stop();
}

/// Tentpole end-to-end: a call whose propagated deadline expires while it
/// waits behind a slow call is *shed* — answered `STATUS_EXPIRED` without
/// executing — and the client classifies that as the non-retryable
/// `DeadlineExpired`.
#[test]
fn expired_queued_call_is_shed_not_executed() {
    let _wd = watchdog("shed_not_executed", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let blocker_cfg = RpcConfig {
        handlers: 1,
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, applied) = start_counter_server(
        &fabric,
        server_node,
        &blocker_cfg,
        Duration::from_millis(500),
    );
    let blocker = Client::new(&fabric, fabric.add_node(), blocker_cfg.clone()).unwrap();

    // Occupy the single handler for 500 ms.
    let block = {
        let blocker = blocker.clone();
        let addr = server.addr();
        std::thread::spawn(move || {
            blocker.call::<_, LongWritable>(addr, "qos.CounterProtocol", "slow", &LongWritable(1))
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    // The victim propagates a 100 ms budget per attempt; its call queues
    // behind the blocker, expires at ~200 ms, and is shed when the
    // handler finally pops it at ~600 ms. One of the victim's retries
    // (same seq) collects the expired verdict.
    let victim_cfg = RpcConfig {
        call_timeout: Duration::from_millis(100),
        retry: RetryPolicy::exponential(10, Duration::from_millis(10)),
        ..blocker_cfg
    };
    let victim = Client::new(&fabric, fabric.add_node(), victim_cfg).unwrap();
    let err = call(&victim, &server, "incr").unwrap_err();
    assert!(matches!(err, RpcError::DeadlineExpired), "got {err:?}");
    assert!(
        !err.is_retryable(),
        "an expired deadline cannot be helped by retrying"
    );

    assert!(block.join().unwrap().is_ok());
    assert_eq!(
        applied.load(Ordering::Acquire),
        0,
        "the shed call must never have executed its handler"
    );
    let counters = server.metrics().counters();
    assert!(
        counters.deadline_sheds >= 1,
        "the shed must be counted: {counters:?}"
    );
    blocker.shutdown();
    victim.shutdown();
    server.stop();
}

/// Per-tenant quota: a flooder saturating its own quota is busy-rejected
/// while a light tenant's call still gets through, and the rejections are
/// attributed to the flooder (and only the flooder) in the per-tenant
/// metrics.
#[test]
fn tenant_quota_rejects_flooder_and_attributes_counters() {
    let _wd = watchdog("tenant_quota", Duration::from_secs(60));
    let (fabric, base) = env_transport();
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 1,
        call_queue_len: 16,
        tenant_quota: 2,
        call_timeout: Duration::from_secs(10),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(300));

    const FLOODER: u64 = 70_001;
    const LIGHT: u64 = 80_001;
    let flooder = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    flooder.force_client_id(FLOODER);
    let light = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    light.force_client_id(LIGHT);

    // Five concurrent slow calls against a quota of two (queued +
    // executing): at most two admitted, the rest busy-rejected even
    // though the shared queue has plenty of room.
    let floods: Vec<_> = (0..5)
        .map(|_| {
            let flooder = flooder.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                flooder.call::<_, LongWritable>(
                    addr,
                    "qos.CounterProtocol",
                    "slow",
                    &LongWritable(1),
                )
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // The light tenant is untouched by the flooder's quota exhaustion.
    let resp = call(&light, &server, "incr");
    assert!(resp.is_ok(), "light tenant must get through: {resp:?}");
    assert_eq!(applied.load(Ordering::Acquire), 1);

    let outcomes: Vec<_> = floods.into_iter().map(|t| t.join().unwrap()).collect();
    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let busy = outcomes
        .iter()
        .filter(|r| matches!(r, Err(RpcError::ServerBusy)))
        .count();
    assert_eq!(
        ok + busy,
        5,
        "every flood call ends Ok or Busy: {outcomes:?}"
    );
    assert!(ok >= 1, "the quota admits up to two concurrent calls");
    assert!(busy >= 1, "past the quota the flooder must be rejected");

    let tenants = server.metrics().tenant_snapshot();
    let flooder_row = tenants.iter().find(|t| t.client_id == FLOODER);
    assert!(
        flooder_row.is_some_and(|t| t.busy_rejections as usize == busy),
        "rejections must be attributed to the flooder: {tenants:?}"
    );
    assert!(
        tenants
            .iter()
            .filter(|t| t.client_id == LIGHT)
            .all(|t| t.busy_rejections == 0),
        "the light tenant was never rejected: {tenants:?}"
    );
    flooder.shutdown();
    light.shutdown();
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Retry-cache × shedding, component level: drive the server's exact
    /// admission procedure (begin → push → pop/shed → complete) with
    /// seeded duplicate storms. Invariants: a logical call executes at
    /// most once, a call never both executes and sheds, every duplicate
    /// arriving after a shed replays `STATUS_EXPIRED`, and keys that
    /// carry no deadline are never shed.
    #[test]
    fn duplicate_storms_over_shed_calls_replay_expired(
        events in proptest::collection::vec((0..6usize, 0..3u64, any::<bool>()), 1..120)
    ) {
        const CLIENT: u64 = 9;
        const BUDGET: u64 = 2; // virtual ns until a deadline key expires
        let cache: RetryCache<usize> = RetryCache::new(
            Duration::from_secs(3600),
            1024,
            MetricsRegistry::new(false),
        );
        // Capacity 3 so storms also exercise the busy/abort path.
        let queue: AdmissionQueue<usize> = AdmissionQueue::new(3, 0, &[]);
        let mut now: u64 = 0;
        let mut executed = [0u32; 6];
        let mut shed = [false; 6];

        let drain = |now: u64,
                         executed: &mut [u32; 6],
                         shed: &mut [bool; 6]| {
            let popped = queue.try_pop(now);
            for (meta, idx) in popped.shed {
                shed[idx] = true;
                cache.complete((CLIENT, idx as i64), Arc::new(vec![STATUS_EXPIRED]));
                let _ = meta;
            }
            if let Some((meta, idx)) = popped.run {
                executed[idx] += 1;
                cache.complete((CLIENT, idx as i64), Arc::new(vec![STATUS_OK]));
                queue.release(meta.tenant);
            }
        };

        for (idx, dt, pop) in events {
            now += dt;
            if pop {
                drain(now, &mut executed, &mut shed);
                continue;
            }
            // Keys 0..3 carry a deadline; 3..6 do not (callers with no deadline).
            let expires_at_ns = (idx < 3).then_some(now + BUDGET);
            match cache.begin((CLIENT, idx as i64), || idx) {
                Admission::Execute => {
                    let meta = CallMeta {
                        tenant: idx as u64,
                        expires_at_ns,
                        class: Default::default(),
                    };
                    if let Err((err, _)) = queue.try_push(meta, idx) {
                        prop_assert!(matches!(err, AdmitError::QueueFull));
                        cache.abort((CLIENT, idx as i64));
                    }
                }
                Admission::Parked => {}
                Admission::Replay(bytes) => {
                    // The replayed verdict must match the recorded fate.
                    if shed[idx] {
                        prop_assert_eq!(bytes[0], STATUS_EXPIRED);
                    } else {
                        prop_assert_eq!(bytes[0], STATUS_OK);
                    }
                }
            }
        }
        // Drain the backlog far past every deadline: remaining deadline
        // keys shed, deadline-free keys execute.
        for _ in 0..16 {
            drain(now + 1000, &mut executed, &mut shed);
        }
        for idx in 0..6 {
            prop_assert!(executed[idx] <= 1, "key {} executed {} times", idx, executed[idx]);
            prop_assert!(
                !(shed[idx] && executed[idx] > 0),
                "key {} both shed and executed", idx
            );
            if idx >= 3 {
                prop_assert!(!shed[idx], "deadline-free key {} was shed", idx);
            }
        }
    }
}

#[test]
fn soak_with_quotas_and_weights_isolates_the_light_tenants() {
    soak_zipfian_light_tenants_with_flooder(true);
}

#[test]
fn soak_on_the_fifo_plane_stays_live_and_at_most_once() {
    soak_zipfian_light_tenants_with_flooder(false);
}

/// Seeded misbehaving-tenant soak (per transport in CI): several
/// light tenants doing fast mutating calls while one flooder hammers slow
/// calls through the same server. Liveness (every call reaches a definite
/// outcome) and at-most-once (the applied count equals the light tenants'
/// successes) must hold with QoS on or off; with QoS on, the flooder's
/// quota must leave the light tenants with successes and never cost them
/// a busy rejection.
fn soak_zipfian_light_tenants_with_flooder(qos_on: bool) {
    let _wd = watchdog("qos_soak", Duration::from_secs(120));
    let (fabric, base) = env_transport();
    fabric.set_fault_seed(42);
    let server_node = fabric.add_node();
    let cfg = RpcConfig {
        handlers: 2,
        call_queue_len: 32,
        tenant_quota: if qos_on { 4 } else { 0 },
        tenant_weights: if qos_on { vec![(7, 1)] } else { Vec::new() },
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, applied) =
        start_counter_server(&fabric, server_node, &cfg, Duration::from_millis(20));

    const FLOODER_ID: u64 = 7;
    const LIGHT_IDS: [u64; 4] = [101, 102, 103, 104];
    const LIGHT_CALLS: usize = 25;
    const FLOOD_THREADS: usize = 6;
    const FLOOD_CALLS: usize = 30;

    let flooder = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    flooder.force_client_id(FLOODER_ID);
    let flood_threads: Vec<_> = (0..FLOOD_THREADS)
        .map(|_| {
            let flooder = flooder.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut outcomes = Vec::with_capacity(FLOOD_CALLS);
                for _ in 0..FLOOD_CALLS {
                    let r = flooder.call::<_, LongWritable>(
                        addr,
                        "qos.CounterProtocol",
                        "slow",
                        &LongWritable(1),
                    );
                    outcomes.push(r);
                }
                outcomes
            })
        })
        .collect();

    let light_threads: Vec<_> = LIGHT_IDS
        .iter()
        .map(|&id| {
            let fabric = fabric.clone();
            let cfg = cfg.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
                client.force_client_id(id);
                let mut ok = 0u64;
                let mut busy = 0u64;
                for _ in 0..LIGHT_CALLS {
                    match client.call::<_, LongWritable>(
                        addr,
                        "qos.CounterProtocol",
                        "incr",
                        &LongWritable(1),
                    ) {
                        Ok(_) => ok += 1,
                        Err(RpcError::ServerBusy) => busy += 1,
                        Err(e) => panic!("light tenant {id}: unexpected outcome {e:?}"),
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                client.shutdown();
                (ok, busy)
            })
        })
        .collect();

    let mut light_ok = 0u64;
    let mut light_busy = 0u64;
    for t in light_threads {
        let (ok, busy) = t.join().unwrap();
        light_ok += ok;
        light_busy += busy;
    }
    let mut flood_ok = 0usize;
    let mut flood_busy = 0usize;
    for t in flood_threads {
        for r in t.join().unwrap() {
            match r {
                Ok(_) => flood_ok += 1,
                Err(RpcError::ServerBusy) => flood_busy += 1,
                Err(e) => panic!("flooder: unexpected outcome {e:?}"),
            }
        }
    }

    // Liveness: every call above already reached Ok or Busy (the panics
    // enforce it). At-most-once: each light success incremented exactly
    // once and nothing else ever mutates.
    assert_eq!(
        applied.load(Ordering::Acquire),
        light_ok,
        "applied increments must equal light-tenant successes"
    );
    assert_eq!(
        flood_ok + flood_busy,
        FLOOD_THREADS * FLOOD_CALLS,
        "every flooder call ends Ok or Busy"
    );
    assert!(flood_ok >= 1, "the flooder still makes progress");
    if qos_on {
        assert_eq!(
            light_busy, 0,
            "with QoS on, only the flooder's quota binds — light tenants \
             never see Busy through a 32-deep shared queue"
        );
        assert_eq!(light_ok, (LIGHT_CALLS * LIGHT_IDS.len()) as u64);
        let tenants = server.metrics().tenant_snapshot();
        assert!(
            tenants
                .iter()
                .filter(|t| t.client_id != FLOODER_ID)
                .all(|t| t.busy_rejections == 0),
            "rejections attributed outside the flooder: {tenants:?}"
        );
    }
    flooder.shutdown();
    server.stop();
}
