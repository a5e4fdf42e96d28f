//! Server-side retry cache: the at-most-once half of the RPC contract.
//!
//! Hadoop's production RPC closes the duplicate-execution hole with a
//! server-side `RetryCache`; this is the same idea keyed by the frame-v2
//! identity `(client_id, seq)`. Three cases on arrival of a call:
//!
//! * **unseen** — admit it for execution and remember it as in-flight;
//! * **in-flight** — a duplicate attempt of a call a handler is still
//!   executing: *park* it (the parked connection gets the response when
//!   the first attempt finishes) instead of executing it again;
//! * **completed** — replay the cached serialized response; the handler
//!   pool never sees the duplicate.
//!
//! Completed entries expire by TTL and are evicted oldest-first while the
//! cache is over either of two bounds: `capacity` entries, or a byte
//! budget on the cached response bodies (an entry bound alone lets 8192
//! bulk responses of 256 KiB pin 2 GB). The entry just completed is
//! never evicted, so a single response larger than the whole budget is
//! still replayable until the next completion. In-flight entries are
//! never expired or evicted — a waiter parked behind one must not be
//! stranded — so the hard memory bound is the byte budget (or one
//! oversized response) plus however many calls are genuinely executing.
//!
//! The cache is generic over the waiter payload `W` (the server parks
//! `(connection, response-routing)` tuples; unit tests park `()`).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::metrics::MetricsRegistry;

/// Identity of one logical call: `(client_id, seq)`.
pub type CallKey = (u64, i64);

/// Outcome of presenting an arriving call to the cache.
#[derive(Debug)]
pub enum Admission {
    /// First sighting: execute the call (an in-flight entry now exists —
    /// the caller must later `complete` or `abort` it).
    Execute,
    /// Duplicate of an executing call: the waiter was parked; do nothing.
    Parked,
    /// Duplicate of a completed call: send this serialized response
    /// instead of executing.
    Replay(Arc<Vec<u8>>),
}

enum Entry<W> {
    InFlight {
        waiters: Vec<W>,
    },
    Done {
        response: Arc<Vec<u8>>,
        /// Which `order` record owns this entry. A re-completed key
        /// leaves its old order record behind as a stale duplicate; the
        /// generation lets the TTL/capacity scans tell the stale record
        /// (skip) from the live one (expire/evict).
        gen: u64,
    },
}

struct CacheInner<W> {
    entries: HashMap<CallKey, Entry<W>>,
    /// Completion order of Done entries; the TTL/capacity scans walk it
    /// front-to-back. (In-flight entries are not listed — they cannot be
    /// expired or evicted.)
    order: VecDeque<(CallKey, u64, Instant)>,
    /// Monotonic completion counter stamping `order` records and `Done`
    /// entries.
    next_gen: u64,
    /// Total length of the live `Done` entries' response bodies.
    bytes: usize,
}

impl<W> CacheInner<W> {
    /// Remove `key`'s entry if it is the `Done` entry that `order_gen`
    /// stamped. The order queue can hold stale records for entries that
    /// were re-completed or already removed; those match nothing.
    fn remove_done(&mut self, key: CallKey, order_gen: u64) -> bool {
        match self.entries.get(&key) {
            Some(Entry::Done { response, gen }) if *gen == order_gen => {
                self.bytes -= response.len();
                self.entries.remove(&key);
                true
            }
            _ => false,
        }
    }
}

/// See module docs. Cheap interior mutability; shared by Readers and
/// Handlers.
pub struct RetryCache<W> {
    inner: Mutex<CacheInner<W>>,
    ttl: Duration,
    capacity: usize,
    max_bytes: usize,
    metrics: MetricsRegistry,
}

impl<W> RetryCache<W> {
    /// `capacity == 0` disables caching: every `begin` admits. The byte
    /// budget starts unlimited; see [`RetryCache::with_byte_budget`].
    pub fn new(ttl: Duration, capacity: usize, metrics: MetricsRegistry) -> RetryCache<W> {
        RetryCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                order: VecDeque::new(),
                next_gen: 0,
                bytes: 0,
            }),
            ttl,
            capacity,
            max_bytes: usize::MAX,
            metrics,
        }
    }

    /// Bound the total size of cached response bodies to `max_bytes`, on
    /// top of the entry bound.
    pub fn with_byte_budget(mut self, max_bytes: usize) -> RetryCache<W> {
        self.max_bytes = max_bytes;
        self
    }

    /// Present an arriving call. `waiter` is only invoked (and parked)
    /// when the call duplicates one still executing.
    pub fn begin(&self, key: CallKey, waiter: impl FnOnce() -> W) -> Admission {
        if self.capacity == 0 {
            return Admission::Execute;
        }
        let now = Instant::now();
        let mut inner = self.inner.lock();
        self.expire_locked(&mut inner, now);
        match inner.entries.get_mut(&key) {
            Some(Entry::InFlight { waiters }) => {
                waiters.push(waiter());
                self.metrics.inc_retry_cache_parked();
                Admission::Parked
            }
            Some(Entry::Done { response, .. }) => {
                self.metrics.inc_retry_cache_hits();
                Admission::Replay(Arc::clone(response))
            }
            None => {
                inner.entries.insert(
                    key,
                    Entry::InFlight {
                        waiters: Vec::new(),
                    },
                );
                Admission::Execute
            }
        }
    }

    /// The call finished and `response` is its serialized frame body.
    /// Returns the waiters parked behind it; the caller sends each one
    /// the same response.
    pub fn complete(&self, key: CallKey, response: Arc<Vec<u8>>) -> Vec<W> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let gen = inner.next_gen;
        inner.next_gen += 1;
        inner.bytes += response.len();
        let waiters = match inner.entries.insert(key, Entry::Done { response, gen }) {
            Some(Entry::InFlight { waiters }) => waiters,
            // Re-completion (should not happen): keep the fresher
            // response, nobody is parked. The displaced Done entry's
            // order record goes stale; the generation stamp keeps it from
            // ever expiring this fresh one.
            Some(Entry::Done { response: old, .. }) => {
                inner.bytes -= old.len();
                Vec::new()
            }
            // A racing abort already forgot the call.
            None => Vec::new(),
        };
        inner.order.push_back((key, gen, now));
        // Eviction: drop the oldest completed entries while over either
        // bound — but never the one just pushed (the last record).
        while (inner.order.len() > self.capacity || inner.bytes > self.max_bytes)
            && inner.order.len() > 1
        {
            let (old_key, old_gen, _) = inner.order.pop_front().expect("len checked");
            if inner.remove_done(old_key, old_gen) {
                self.metrics.inc_retry_cache_evictions();
            }
        }
        waiters
    }

    /// The call will not produce a response (admission failure, dispatch
    /// abort): forget the in-flight entry so a retry can execute, and
    /// hand back any parked waiters for the caller to fail.
    pub fn abort(&self, key: CallKey) -> Vec<W> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let mut inner = self.inner.lock();
        match inner.entries.get(&key) {
            Some(Entry::InFlight { .. }) => match inner.entries.remove(&key) {
                Some(Entry::InFlight { waiters }) => waiters,
                _ => unreachable!("checked InFlight under the same lock"),
            },
            // Completed (or absent) entries are not abortable.
            _ => Vec::new(),
        }
    }

    /// Number of live entries (in-flight + completed). For tests and
    /// observability.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn expire_locked(&self, inner: &mut CacheInner<W>, now: Instant) {
        while let Some(&(key, order_gen, completed_at)) = inner.order.front() {
            if now.duration_since(completed_at) < self.ttl {
                break;
            }
            inner.order.pop_front();
            if inner.remove_done(key, order_gen) {
                self.metrics.inc_retry_cache_expired();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(ttl: Duration, capacity: usize) -> (RetryCache<u32>, MetricsRegistry) {
        let metrics = MetricsRegistry::new(false);
        (RetryCache::new(ttl, capacity, metrics.clone()), metrics)
    }

    fn resp(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag])
    }

    #[test]
    fn first_sighting_executes_then_replays() {
        let (cache, metrics) = cache(Duration::from_secs(60), 16);
        let key = (7, 1);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        let waiters = cache.complete(key, resp(0xAA));
        assert!(waiters.is_empty());
        match cache.begin(key, || 0) {
            Admission::Replay(bytes) => assert_eq!(*bytes, vec![0xAA]),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(metrics.counters().retry_cache_hits, 1);
    }

    #[test]
    fn duplicates_of_inflight_calls_park_and_release() {
        let (cache, metrics) = cache(Duration::from_secs(60), 16);
        let key = (7, 2);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        assert!(matches!(cache.begin(key, || 41), Admission::Parked));
        assert!(matches!(cache.begin(key, || 42), Admission::Parked));
        let waiters = cache.complete(key, resp(1));
        assert_eq!(waiters, vec![41, 42]);
        assert_eq!(metrics.counters().retry_cache_parked, 2);
    }

    #[test]
    fn abort_releases_waiters_and_allows_reexecution() {
        let (cache, _) = cache(Duration::from_secs(60), 16);
        let key = (7, 3);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        assert!(matches!(cache.begin(key, || 9), Admission::Parked));
        assert_eq!(cache.abort(key), vec![9]);
        // The retry after an abort executes afresh.
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
    }

    #[test]
    fn ttl_expires_completed_entries() {
        let (cache, metrics) = cache(Duration::from_millis(20), 16);
        let key = (1, 1);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        cache.complete(key, resp(1));
        assert!(matches!(cache.begin(key, || 0), Admission::Replay(_)));
        std::thread::sleep(Duration::from_millis(40));
        // Past the TTL the entry is gone: the same key executes again.
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        assert_eq!(metrics.counters().retry_cache_expired, 1);
        assert_eq!(cache.len(), 1, "only the fresh in-flight entry remains");
    }

    #[test]
    fn ttl_never_expires_inflight_entries() {
        let (cache, _) = cache(Duration::from_millis(10), 16);
        let key = (1, 2);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        std::thread::sleep(Duration::from_millis(30));
        // Still in-flight long past the TTL: the duplicate parks rather
        // than executing a second time.
        assert!(matches!(cache.begin(key, || 5), Admission::Parked));
        assert_eq!(cache.complete(key, resp(2)), vec![5]);
    }

    #[test]
    fn capacity_evicts_oldest_completed_first() {
        let (cache, metrics) = cache(Duration::from_secs(60), 2);
        for seq in 0..3i64 {
            let key = (1, seq);
            assert!(matches!(cache.begin(key, || 0), Admission::Execute));
            cache.complete(key, resp(seq as u8));
        }
        assert_eq!(metrics.counters().retry_cache_evictions, 1);
        // Oldest (seq 0) evicted — it would re-execute; newest replays.
        assert!(matches!(cache.begin((1, 0), || 0), Admission::Execute));
        match cache.begin((1, 2), || 0) {
            Admission::Replay(bytes) => assert_eq!(*bytes, vec![2]),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn byte_budget_evicts_oldest_completed_first() {
        let metrics = MetricsRegistry::new(false);
        let cache: RetryCache<u32> =
            RetryCache::new(Duration::from_secs(60), 16, metrics.clone()).with_byte_budget(250);
        // An in-flight call older than everything completed below: the
        // byte bound must never touch it.
        assert!(matches!(cache.begin((9, 9), || 0), Admission::Execute));
        for seq in 0..4i64 {
            assert!(matches!(cache.begin((1, seq), || 0), Admission::Execute));
            cache.complete((1, seq), Arc::new(vec![seq as u8; 100]));
        }
        // 4 × 100 B against 250 B: the two oldest went, far below the
        // 16-entry bound.
        assert_eq!(metrics.counters().retry_cache_evictions, 2);
        assert!(matches!(cache.begin((1, 0), || 0), Admission::Execute));
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        for seq in [2i64, 3] {
            match cache.begin((1, seq), || 0) {
                Admission::Replay(bytes) => assert_eq!(*bytes, vec![seq as u8; 100]),
                other => panic!("expected replay of seq {seq}, got {other:?}"),
            }
        }
        assert!(matches!(cache.begin((9, 9), || 7), Admission::Parked));
        assert_eq!(cache.complete((9, 9), resp(1)), vec![7]);
    }

    #[test]
    fn response_larger_than_the_budget_replays_until_the_next_completion() {
        let metrics = MetricsRegistry::new(false);
        let cache: RetryCache<u32> =
            RetryCache::new(Duration::from_secs(60), 16, metrics.clone()).with_byte_budget(64);
        let big = (1, 1);
        assert!(matches!(cache.begin(big, || 0), Admission::Execute));
        cache.complete(big, Arc::new(vec![0xBB; 1000]));
        assert_eq!(metrics.counters().retry_cache_evictions, 0);
        match cache.begin(big, || 0) {
            Admission::Replay(bytes) => assert_eq!(bytes.len(), 1000),
            other => panic!("expected replay, got {other:?}"),
        }
        // The next completion pushes the oversized one out.
        let next = (1, 2);
        assert!(matches!(cache.begin(next, || 0), Admission::Execute));
        cache.complete(next, resp(2));
        assert_eq!(metrics.counters().retry_cache_evictions, 1);
        assert!(matches!(cache.begin(big, || 0), Admission::Execute));
        assert!(matches!(cache.begin(next, || 0), Admission::Replay(_)));
    }

    #[test]
    fn recompleted_entry_survives_its_stale_order_record_on_eviction() {
        let (cache, metrics) = cache(Duration::from_secs(60), 2);
        let key = (1, 1);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        cache.complete(key, resp(1));
        // Re-completion (racing-abort shape): the fresh response displaces
        // the old one and leaves a stale order record behind.
        cache.complete(key, resp(2));
        // A third completion overflows capacity; the scan pops the stale
        // record, which must NOT take the fresh response with it.
        let other = (1, 2);
        assert!(matches!(cache.begin(other, || 0), Admission::Execute));
        cache.complete(other, resp(3));
        match cache.begin(key, || 0) {
            Admission::Replay(bytes) => assert_eq!(*bytes, vec![2], "fresh response survives"),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(metrics.counters().retry_cache_evictions, 0);
    }

    #[test]
    fn recompleted_entry_survives_its_stale_order_record_on_ttl() {
        let (cache, metrics) = cache(Duration::from_millis(60), 16);
        let key = (1, 1);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        cache.complete(key, resp(1));
        std::thread::sleep(Duration::from_millis(35));
        cache.complete(key, resp(2));
        std::thread::sleep(Duration::from_millis(35));
        // The first completion's order record is past the TTL but points
        // at the re-completed entry: it must be skipped, not expire the
        // fresh response early.
        match cache.begin(key, || 0) {
            Admission::Replay(bytes) => assert_eq!(*bytes, vec![2]),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(metrics.counters().retry_cache_expired, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (cache, metrics) = cache(Duration::from_secs(60), 0);
        let key = (1, 1);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        cache.complete(key, resp(1));
        // No memory of the call: the duplicate executes again.
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        assert!(cache.is_empty());
        assert_eq!(metrics.counters().retry_cache_hits, 0);
    }

    #[test]
    fn distinct_clients_do_not_collide() {
        let (cache, _) = cache(Duration::from_secs(60), 16);
        assert!(matches!(cache.begin((1, 9), || 0), Admission::Execute));
        assert!(matches!(cache.begin((2, 9), || 0), Admission::Execute));
        cache.complete((1, 9), resp(1));
        match cache.begin((1, 9), || 0) {
            Admission::Replay(bytes) => assert_eq!(*bytes, vec![1]),
            other => panic!("expected replay, got {other:?}"),
        }
        // Client 2's identical seq is still its own in-flight call.
        assert!(matches!(cache.begin((2, 9), || 3), Admission::Parked));
    }
}
