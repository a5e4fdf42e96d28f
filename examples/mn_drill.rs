//! Handler runtime drill: a suspended call costs bytes, not a thread.
//!
//! ```sh
//! cargo run --release --example mn_drill
//! ```
//!
//! Two observable claims, each asserted:
//!
//! 1. **Elasticity** — 64 calls parked mid-handler on a 2-handler
//!    server all complete, while a fast caller keeps flowing *through*
//!    the parked population (blocking handlers would need 64 threads).
//! 2. **Priority** — with `priority_protocols`, a heartbeat protocol
//!    pops ahead of a bulk flood instead of queueing behind it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpcoib_suite::rpcoib::{
    CallPoll, Client, HandlerCx, RpcConfig, RpcService, Server, ServiceRegistry, ShardRole,
};
use rpcoib_suite::simnet::{model, Fabric};
use rpcoib_suite::wire::{DataInput, LongWritable, Writable};

/// A lookup service whose slow path *parks* instead of blocking: the
/// first poll suspends the call frame for the requested number of
/// milliseconds (a stand-in for waiting on a disk or a downstream RPC)
/// and the worker immediately moves on to other calls.
struct LookupService {
    parked_completions: AtomicU64,
}

impl RpcService for LookupService {
    fn protocol(&self) -> &'static str {
        "demo.LookupProtocol"
    }

    fn call(
        &self,
        _method: &str,
        _param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        // The server polls `call_mn`; a service that overrides it never
        // sees `call`.
        Err("the server polls call_mn".into())
    }

    fn call_mn(&self, method: &str, param: &mut dyn DataInput, cx: &mut HandlerCx<'_>) -> CallPoll {
        let mut arg = LongWritable::default();
        if let Err(e) = arg.read_fields(param) {
            return CallPoll::Ready(Err(e.to_string()));
        }
        match method {
            "ping" => CallPoll::Ready(Ok(Box::new(LongWritable(arg.0 + 1)))),
            "slow_lookup" if cx.first_poll() => {
                cx.park_for(Duration::from_millis(arg.0 as u64));
                CallPoll::Pending
            }
            "slow_lookup" => {
                self.parked_completions.fetch_add(1, Ordering::Relaxed);
                CallPoll::Ready(Ok(Box::new(LongWritable(arg.0))))
            }
            other => CallPoll::Ready(Err(format!("unknown method {other}"))),
        }
    }
}

fn boot(cfg: &RpcConfig) -> (Fabric, Server, Client, Arc<LookupService>) {
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let service = Arc::new(LookupService {
        parked_completions: AtomicU64::new(0),
    });
    let mut registry = ServiceRegistry::new();
    let as_service: Arc<dyn RpcService> = service.clone();
    registry.register(as_service);
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();
    let client = Client::new(&fabric, client_node, cfg.clone()).unwrap();
    (fabric, server, client, service)
}

fn ping(client: &Client, server: &Server, v: i64) -> i64 {
    let r: LongWritable = client
        .call(
            server.addr(),
            "demo.LookupProtocol",
            "ping",
            &LongWritable(v),
        )
        .unwrap();
    r.0
}

/// Part 1: 64 parked calls on 2 handlers, with a fast caller flowing
/// through them the whole time.
fn elasticity() {
    println!("== elasticity: 64 parked calls on a 2-handler server ==");
    let mut cfg = RpcConfig::rpcoib();
    cfg.handlers = 2;
    let (_fabric, server, client, service) = boot(&cfg);
    assert_eq!(ping(&client, &server, 0), 1);

    const PARKED: usize = 64;
    let slow: Vec<_> = (0..PARKED)
        .map(|_| {
            let client = client.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                // Each call parks its frame for 300 ms; none of them
                // holds a worker while suspended.
                let r: LongWritable = client
                    .call(
                        addr,
                        "demo.LookupProtocol",
                        "slow_lookup",
                        &LongWritable(300),
                    )
                    .unwrap();
                assert_eq!(r.0, 300);
            })
        })
        .collect();

    // While all 64 are in flight, fast pings keep round-tripping.
    std::thread::sleep(Duration::from_millis(60));
    let mid_flight = Instant::now();
    let fast = 50;
    for i in 0..fast {
        assert_eq!(ping(&client, &server, i), i + 1);
    }
    let fast_per_call = mid_flight.elapsed() / fast as u32;
    for t in slow {
        t.join().unwrap();
    }
    assert_eq!(
        service.parked_completions.load(Ordering::Relaxed),
        PARKED as u64
    );

    let shards = server.metrics_snapshot().shards;
    let workers: Vec<_> = shards
        .iter()
        .filter(|s| s.role == ShardRole::Worker)
        .collect();
    let processed: u64 = workers.iter().map(|s| s.processed).sum();
    let steals: u64 = workers.iter().map(|s| s.steals).sum();
    let parks: u64 = workers.iter().map(|s| s.parks).sum();
    let wakes: u64 = workers.iter().map(|s| s.wakes).sum();
    assert_eq!(workers.len(), 2, "one counter row per handler");
    // (The lone fast pings mostly run on the reader shard that read
    // them and are booked on no worker.)
    assert!(
        processed >= PARKED as u64,
        "every resumed call completes, and is booked, on a worker (saw {processed})"
    );
    assert!(
        parks >= PARKED as u64,
        "every slow call must have parked (saw {parks})"
    );
    assert!(wakes >= PARKED as u64, "and been woken (saw {wakes})");
    println!(
        "  {PARKED} slow calls completed on 2 handlers; fast pings {fast_per_call:.1?} per call \
         mid-flight; worker counters: processed={processed} steals={steals} parks={parks} \
         wakes={wakes}"
    );
    client.shutdown();
    server.stop();
}

/// A bulk data protocol: each call blocks its handler for the requested
/// number of milliseconds. Deliberately *not* in `priority_protocols`.
struct BulkService;

impl RpcService for BulkService {
    fn protocol(&self) -> &'static str {
        "demo.BulkProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut arg = LongWritable::default();
        arg.read_fields(param).map_err(|e| e.to_string())?;
        match method {
            "transfer" => {
                std::thread::sleep(Duration::from_millis(arg.0 as u64));
                Ok(Box::new(LongWritable(arg.0)))
            }
            other => Err(format!("unknown method {other}")),
        }
    }
}

/// Part 2: heartbeats pop ahead of a single-handler bulk flood.
fn priority() {
    println!("== priority: heartbeats vs a bulk flood, 1 handler ==");
    let mut cfg = RpcConfig::rpcoib();
    cfg.handlers = 1;
    cfg.priority_protocols = vec!["demo.LookupProtocol".to_string()];

    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let server_node = fabric.add_node();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(LookupService {
        parked_completions: AtomicU64::new(0),
    }));
    registry.register(Arc::new(BulkService));
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    assert_eq!(ping(&client, &server, 0), 1);

    // Queue 20 blocking 50 ms transfers behind the single handler —
    // a full second of bulk backlog — then ask for one heartbeat.
    let floods: Vec<_> = (0..20)
        .map(|_| {
            let client = client.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                let _: LongWritable = client
                    .call(addr, "demo.BulkProtocol", "transfer", &LongWritable(50))
                    .unwrap();
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(75));
    let start = Instant::now();
    assert_eq!(ping(&client, &server, 7), 8);
    let hb = start.elapsed();
    for t in floods {
        t.join().unwrap();
    }
    assert!(
        hb < Duration::from_millis(600),
        "a priority-class call must not wait out the whole ~1 s flood ({hb:?})"
    );
    println!("  heartbeat answered in {hb:.1?} while 20 bulk transfers were queued");
    client.shutdown();
    server.stop();
}

fn main() {
    elasticity();
    priority();
    println!("mn_drill: all assertions held");
}
