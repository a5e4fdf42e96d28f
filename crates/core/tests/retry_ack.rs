//! Acknowledged responses leave the retry cache, and nothing else does
//! sooner than it used to.
//!
//! Each request acknowledges one earlier call answered on the same
//! connection on its first attempt; the server drops that entry at once.
//! On both transports:
//!
//! * two callers sharing one connection keep the cache at a handful of
//!   entries over 2 000 256 KiB echoes, where it used to hold every
//!   response up to its byte budget;
//! * a call whose first attempt timed out and was retried is never
//!   acknowledged: a later duplicate of it replays, not re-executes;
//! * the last call of a connection that goes quiet is never acknowledged
//!   either: it stays replayable until a backstop (here the capacity)
//!   lets it go.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpcoib::{Client, RetryPolicy, RpcConfig, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric};
use wire::{BytesWritable, DataInput, LongWritable, NullWritable, Writable};

const PROTOCOL: &str = "test.RetryAck";

/// `echo` returns its payload; `incr` counts an execution and returns the
/// count; `slow_incr` does the same after sleeping `delay`.
struct AckService {
    executed: Arc<AtomicU64>,
    delay: Duration,
}

impl RpcService for AckService {
    fn protocol(&self) -> &'static str {
        PROTOCOL
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "echo" => {
                let mut payload = BytesWritable::default();
                payload.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(payload))
            }
            "incr" | "slow_incr" => {
                if method == "slow_incr" {
                    std::thread::sleep(self.delay);
                }
                let n = self.executed.fetch_add(1, Ordering::AcqRel) + 1;
                Ok(Box::new(LongWritable(n as i64)))
            }
            other => Err(format!("no such method {other}")),
        }
    }
}

/// Run `case` once per transport.
fn each_transport(case: impl Fn(Fabric, RpcConfig)) {
    for (fabric, cfg) in [
        (Fabric::new(model::IPOIB_QDR), RpcConfig::socket()),
        (Fabric::new(model::IB_QDR_VERBS), RpcConfig::rpcoib()),
    ] {
        case(fabric, cfg);
    }
}

fn start(fabric: &Fabric, cfg: &RpcConfig, delay: Duration) -> (Server, Arc<AtomicU64>) {
    let executed = Arc::new(AtomicU64::new(0));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(AckService {
        executed: Arc::clone(&executed),
        delay,
    }));
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    (server, executed)
}

fn incr(client: &Client, server: &Server, method: &str) -> i64 {
    client
        .call::<_, LongWritable>(server.addr(), PROTOCOL, method, &NullWritable)
        .unwrap_or_else(|e| panic!("{method}: {e:?}"))
        .0
}

#[test]
fn two_callers_on_one_connection_keep_a_handful_of_entries() {
    const PAYLOAD: usize = 256 * 1024;
    const CALLS_EACH: usize = 1_000;
    each_transport(|fabric, cfg| {
        let (server, _) = start(&fabric, &cfg, Duration::ZERO);
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        std::thread::scope(|s| {
            for caller in 0..2u8 {
                let (client, server) = (client.clone(), &server);
                s.spawn(move || {
                    let body = BytesWritable(vec![caller; PAYLOAD]);
                    for i in 0..CALLS_EACH {
                        let got: BytesWritable = client
                            .call(server.addr(), PROTOCOL, "echo", &body)
                            .unwrap_or_else(|e| panic!("caller {caller} call {i}: {e:?}"));
                        assert_eq!(got.0.len(), PAYLOAD);
                        let kept = server.retry_cache_retention();
                        assert!(
                            kept.entries <= 4,
                            "caller {caller} call {i}: the cache holds {kept:?}"
                        );
                    }
                });
            }
        });
        assert_eq!(client.connection_count(), 1);
        let counters = server.metrics().counters();
        assert!(
            counters.retry_cache_acked >= (2 * CALLS_EACH - 4) as u64,
            "{counters:?}"
        );
        assert_eq!(counters.retry_cache_evictions, 0, "{counters:?}");
        client.shutdown();
        server.stop();
    });
}

#[test]
fn a_retried_call_is_never_acknowledged_and_its_duplicate_replays() {
    each_transport(|fabric, base| {
        let cfg = RpcConfig {
            call_timeout: Duration::from_millis(100),
            retry: RetryPolicy::exponential(8, Duration::from_millis(2)),
            ..base
        };
        let (server, executed) = start(&fabric, &cfg, Duration::from_millis(250));
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        // A first-attempt answer, then a call that outlives its first
        // attempt and is answered on a retry.
        const FAST: i64 = 1_000;
        const SLOW: i64 = 2_000;
        client.force_next_seq(FAST);
        assert_eq!(incr(&client, &server, "incr"), 1);
        client.force_next_seq(SLOW);
        assert_eq!(incr(&client, &server, "slow_incr"), 2);
        assert!(client.metrics().counters().retries >= 1);
        // Later calls on the same connection acknowledge what they may.
        for _ in 0..20 {
            incr(&client, &server, "incr");
        }
        assert_eq!(executed.load(Ordering::Acquire), 22);
        // A duplicate of the retried call replays: not acknowledged.
        client.force_next_seq(SLOW);
        assert_eq!(incr(&client, &server, "slow_incr"), 2);
        assert_eq!(
            executed.load(Ordering::Acquire),
            22,
            "the retried call ran twice"
        );
        // A duplicate of the first-attempt answer shows the other side: it
        // was acknowledged and let go, so it runs again. (A client never
        // sends one; only this test breaks that promise.)
        client.force_next_seq(FAST);
        assert_eq!(incr(&client, &server, "incr"), 23);
        assert!(server.metrics().counters().retry_cache_hits >= 1);
        client.shutdown();
        server.stop();
    });
}

#[test]
fn the_last_call_of_a_quiet_connection_stays_until_a_backstop_removes_it() {
    each_transport(|fabric, base| {
        // Room for the quiet connection's last call and the busy one's.
        let cfg = RpcConfig {
            retry_cache_capacity: 2,
            ..base
        };
        let (server, executed) = start(&fabric, &cfg, Duration::ZERO);
        let quiet = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let busy = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        const LAST: i64 = 5_000;
        quiet.force_next_seq(LAST);
        assert_eq!(incr(&quiet, &server, "incr"), 1);
        // Another connection's acknowledged calls take nothing with them,
        // and nothing on the quiet one acknowledges its last call.
        for _ in 0..20 {
            incr(&busy, &server, "incr");
        }
        quiet.force_next_seq(LAST);
        assert_eq!(incr(&quiet, &server, "incr"), 1, "replayed");
        assert_eq!(executed.load(Ordering::Acquire), 21);
        assert_eq!(server.metrics().counters().retry_cache_evictions, 0);
        // A third connection's call fills the cache past its capacity:
        // the oldest unacknowledged entry goes, and a duplicate now runs.
        let other = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        assert_eq!(incr(&other, &server, "incr"), 22);
        // The response is sent before its entry completes, and the
        // eviction is the completion's: wait for it to be booked.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics().counters().retry_cache_evictions == 0 {
            assert!(Instant::now() < deadline, "nothing was evicted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let counters = server.metrics().counters();
        assert_eq!(
            (counters.retry_cache_evictions, counters.retry_cache_expired),
            (1, 0),
            "{counters:?}"
        );
        quiet.force_next_seq(LAST);
        assert_eq!(incr(&quiet, &server, "incr"), 23);
        quiet.shutdown();
        busy.shutdown();
        other.shutdown();
        server.stop();
    });
}
