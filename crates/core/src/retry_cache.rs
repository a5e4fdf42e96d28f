//! Server-side retry cache: the at-most-once half of the RPC contract.
//!
//! Hadoop's production RPC closes the duplicate-execution hole with a
//! server-side `RetryCache`; this is the same idea keyed by the call
//! identity `(client_id, seq)`. On arrival, an **unseen** call is admitted
//! and remembered as in-flight; a duplicate of an **in-flight** call is
//! *parked* (its connection gets the response when the first attempt
//! finishes) instead of executed again; a duplicate of a **completed**
//! call is answered with the cached serialized response, and the handler
//! pool never sees it.
//!
//! ## What leaves the cache
//!
//! A completed entry is kept only while its caller might ask for it
//! again:
//!
//! * **Acknowledged.** A request may name one earlier call of its client
//!   whose response the caller already has (the frame's `ack`, see
//!   [`crate::frame`]; RIFL's client acknowledgements), so
//!   [`RetryCache::begin_acking`] drops that entry in the acquisition
//!   that admits the request. An ack that finds the call still executing
//!   (the response is sent before the entry completes) marks it, and
//!   `complete` stores nothing. An ack names only its own client's
//!   calls; one that names nothing is a no-op and allocates nothing. A
//!   client acks only an answer to a call's first attempt (a retry may
//!   have another attempt in flight elsewhere), never a call it gave up
//!   on: those, and a quiet connection's last call, are the backstops'.
//! * **Expired.** A completed entry no ack has named expires by TTL.
//! * **Evicted.** Unacknowledged completed entries are evicted
//!   oldest-first while the cache is over either of two bounds:
//!   `capacity` entries, or a byte budget on the `capacity()` of their
//!   bodies — what a body pins, not what it says (an entry bound alone
//!   lets 8192 bulk responses of 256 KiB pin 2 GB). The entry just
//!   completed is never evicted, so a single response larger than the
//!   whole budget is still replayable until the next completion.
//!
//! In-flight entries are never expired or evicted — a waiter parked
//! behind one must not be stranded — so the hard memory bound is the
//! byte budget (or one oversized response) plus the calls executing.
//! With acknowledgements the cache holds about one entry per active
//! caller, and a call still being retried stays replayable for as long
//! as the backstops allow, not for the last few hundred completions of
//! everyone else.
//!
//! Nothing is freed under the cache mutex: what leaves it is moved out
//! and, the lock released, offered to the heap tier given by
//! [`RetryCache::with_spares`] (rules in [`bufpool::heap`]) or dropped.
//! With `capacity == 0` nothing is cached. The waiter payload `W` is the
//! server's `(connection, response-routing)`; unit tests park `()`.

use std::collections::{hash_map, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use bufpool::heap::HeapTier;
use parking_lot::Mutex;
use simnet::Clock;

use crate::metrics::MetricsRegistry;

/// Identity of one logical call: `(client_id, seq)`.
pub type CallKey = (u64, i64);

/// A serialized response body (`[status][value | error]`), shared by the
/// cache entry, replays and parked duplicates.
type Body = Arc<Vec<u8>>;

/// Records of acknowledged entries stay in the order ring until a scan
/// passes them; past twice the completed entries plus this many, one pass
/// sweeps them out, for about one lookup per completion.
const ORDER_SLACK: usize = 64;

/// The order ring is reserved up front for the most it can hold (twice
/// the entries plus [`ORDER_SLACK`]; grown by doubling, it reallocated
/// well after start-up), capped so a huge capacity asks for nothing huge.
const ORDER_RESERVE_MAX: usize = 1 << 16;

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
        /// The caller acknowledged the response before the entry was
        /// completed: `complete` returns the waiters and stores nothing.
        acked: bool,
    },
    Done {
        response: Body,
        /// Which `order` record owns this entry: a re-completed key
        /// leaves a stale record behind, which the scans skip.
        gen: u64,
    },
}

struct CacheInner<W> {
    entries: HashMap<CallKey, Entry<W>>,
    /// Completion order of Done entries (exactly one live record each;
    /// the rest are stale, see [`ORDER_SLACK`]), walked front-to-back by
    /// the TTL and eviction scans.
    order: VecDeque<(CallKey, u64, u64)>,
    /// Done entries: what `capacity` bounds.
    done: usize,
    /// `capacity()` of every Done entry's body: what `max_bytes` bounds.
    retained: usize,
    /// Monotonic completion counter stamping `order` records and `Done`
    /// entries.
    next_gen: u64,
}

/// Bodies on their way out, collected under the cache mutex and let go
/// after it. The common cases — an acked entry and an evicted or expired
/// one — cost no `Vec`.
#[derive(Default)]
struct Leaving {
    inline: [Option<Body>; 2],
    rest: Vec<Body>,
}

impl Leaving {
    fn push(&mut self, body: Body) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(body),
            None => self.rest.push(body),
        }
    }
}

/// What the cache retains and its heap tier keeps idle, for tests and
/// observability (see [`RetryCache::retention`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retention {
    /// Completed entries and their bodies' total `len()` and `capacity()`.
    pub entries: usize,
    pub entry_len: usize,
    pub entry_capacity: usize,
    /// The tier's idle spares, the fullest class's count, their capacity.
    pub spares: usize,
    pub spares_in_fullest_class: usize,
    pub spare_capacity: usize,
}

/// See module docs. Cheap interior mutability; shared by Readers and
/// Handlers.
pub struct RetryCache<W> {
    inner: Mutex<CacheInner<W>>,
    /// Where bodies that leave the cache are offered, if anywhere.
    spares: Option<Arc<HeapTier>>,
    /// What `begin` and `complete` read the time from: the TTL rule's
    /// one clock read each.
    clock: Clock,
    ttl: Duration,
    capacity: usize,
    max_bytes: usize,
    metrics: MetricsRegistry,
}

impl<W> RetryCache<W> {
    /// `capacity == 0` disables caching: every `begin` admits. The byte
    /// budget starts unlimited; see [`RetryCache::with_byte_budget`]. The
    /// clock is the host's; see [`RetryCache::with_clock`].
    pub fn new(ttl: Duration, capacity: usize, metrics: MetricsRegistry) -> RetryCache<W> {
        let reserve = match capacity {
            0 => 0,
            _ => capacity
                .saturating_mul(2)
                .saturating_add(ORDER_SLACK + 1)
                .min(ORDER_RESERVE_MAX),
        };
        RetryCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                order: VecDeque::with_capacity(reserve),
                done: 0,
                retained: 0,
                next_gen: 0,
            }),
            spares: None,
            clock: Clock::host(),
            ttl,
            capacity,
            max_bytes: usize::MAX,
            metrics,
        }
    }

    /// Bound the `capacity()` of cached response bodies to `max_bytes`,
    /// on top of the entry bound.
    pub fn with_byte_budget(mut self, max_bytes: usize) -> RetryCache<W> {
        self.max_bytes = max_bytes;
        self
    }

    /// Offer the bodies that leave the cache to `tier`.
    pub fn with_spares(mut self, tier: Arc<HeapTier>) -> RetryCache<W> {
        self.spares = Some(tier);
        self
    }

    /// Read the TTL rule's time from `clock` (a server's is its
    /// fabric's).
    pub fn with_clock(mut self, clock: Clock) -> RetryCache<W> {
        self.clock = clock;
        self
    }

    /// Present an arriving call that acknowledges nothing. `waiter` is
    /// only invoked (and parked) when the call duplicates one still
    /// executing.
    pub fn begin(&self, key: CallKey, waiter: impl FnOnce() -> W) -> Admission {
        self.begin_acking(key, None, waiter)
    }

    /// Present an arriving call whose request acknowledges the response
    /// of the same client's call `acked` (module docs, "What leaves the
    /// cache"): that entry goes in the same acquisition.
    pub fn begin_acking(
        &self,
        key: CallKey,
        acked: Option<i64>,
        waiter: impl FnOnce() -> W,
    ) -> Admission {
        if self.capacity == 0 {
            return Admission::Execute;
        }
        let now = self.clock.now_ns();
        let mut leaving = Leaving::default();
        let admission = {
            let mut inner = self.inner.lock();
            self.expire(&mut inner, now, &mut leaving);
            if let Some(seq) = acked {
                self.acknowledge(&mut inner, (key.0, seq), &mut leaving);
            }
            match inner.entries.entry(key) {
                hash_map::Entry::Occupied(mut slot) => match slot.get_mut() {
                    Entry::InFlight { waiters, .. } => {
                        waiters.push(waiter());
                        self.metrics.inc_retry_cache_parked();
                        Admission::Parked
                    }
                    Entry::Done { response, .. } => {
                        self.metrics.inc_retry_cache_hits();
                        Admission::Replay(Arc::clone(response))
                    }
                },
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(Entry::InFlight {
                        waiters: Vec::new(),
                        acked: false,
                    });
                    Admission::Execute
                }
            }
        };
        self.let_go(leaving);
        admission
    }

    /// The call finished and `response` is its serialized frame body.
    /// Returns the waiters parked behind it; the caller sends each one
    /// the same response.
    pub fn complete(&self, key: CallKey, response: Arc<Vec<u8>>) -> Vec<W> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let now = self.clock.now_ns();
        let mut leaving = Leaving::default();
        let mut inner = self.inner.lock();
        if let Some(Entry::InFlight { acked: true, .. }) = inner.entries.get(&key) {
            // The caller already has it: nothing to store. `response` is
            // dropped after the lock, and its sender still holds it.
            let Some(Entry::InFlight { waiters, .. }) = inner.entries.remove(&key) else {
                unreachable!("checked InFlight under the same lock");
            };
            drop(inner);
            return waiters;
        }
        let gen = inner.next_gen;
        inner.next_gen += 1;
        inner.retained += response.capacity();
        let waiters = match inner.entries.insert(key, Entry::Done { response, gen }) {
            Some(Entry::InFlight { waiters, .. }) => {
                inner.done += 1;
                waiters
            }
            // Re-completion (should not happen): keep the fresher
            // response; the old record goes stale (see `gen`).
            Some(Entry::Done { response: old, .. }) => {
                inner.retained -= old.capacity();
                leaving.push(old);
                Vec::new()
            }
            // A racing abort already forgot the call.
            None => {
                inner.done += 1;
                Vec::new()
            }
        };
        inner.order.push_back((key, gen, now));
        self.evict(&mut inner, &mut leaving);
        drop(inner);
        self.let_go(leaving);
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
                Some(Entry::InFlight { waiters, .. }) => waiters,
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

    /// What the cache retains and its heap tier keeps idle. Walks every
    /// entry under the mutex: for tests, not for a hot path.
    #[doc(hidden)]
    pub fn retention(&self) -> Retention {
        let mut r = Retention::default();
        for entry in self.inner.lock().entries.values() {
            if let Entry::Done { response, .. } = entry {
                r.entries += 1;
                r.entry_len += response.len();
                r.entry_capacity += response.capacity();
            }
        }
        if let Some(idle) = self.spares.as_ref().map(|tier| tier.idle()) {
            r.spares = idle.spares;
            r.spares_in_fullest_class = idle.fullest_class;
            r.spare_capacity = idle.capacity;
        }
        r
    }

    /// A request acknowledged `key`'s response: a completed entry leaves
    /// now, an executing one is marked so that `complete` stores nothing.
    /// A key the cache does not hold is left alone.
    fn acknowledge(&self, inner: &mut CacheInner<W>, key: CallKey, leaving: &mut Leaving) {
        match inner.entries.get_mut(&key) {
            None => return,
            Some(Entry::InFlight { acked, .. }) => *acked = true,
            Some(&mut Entry::Done { gen, .. }) => {
                if let Some(body) = self.remove_done(inner, key, gen) {
                    leaving.push(body);
                }
            }
        }
        self.metrics.inc_retry_cache_acked();
    }

    /// The TTL backstop: drop the completed entries older than the TTL.
    fn expire(&self, inner: &mut CacheInner<W>, now: u64, leaving: &mut Leaving) {
        while let Some(&(old_key, old_gen, completed_at)) = inner.order.front() {
            if Duration::from_nanos(now.saturating_sub(completed_at)) < self.ttl {
                break;
            }
            inner.order.pop_front();
            if let Some(body) = self.remove_done(inner, old_key, old_gen) {
                self.metrics.inc_retry_cache_expired();
                leaving.push(body);
            }
        }
    }

    /// The capacity and byte backstops: let go of the oldest completed
    /// entries while over either bound, never the one just completed.
    /// Then sweep out the stale records acknowledgements left.
    fn evict(&self, inner: &mut CacheInner<W>, leaving: &mut Leaving) {
        while (inner.done > self.capacity || inner.retained > self.max_bytes) && inner.done > 1 {
            // Each Done entry has one record, so with two or more of them
            // the front holds a live record before the newest.
            let (old_key, old_gen, _) = inner.order.pop_front().expect("done > 1 records");
            if let Some(body) = self.remove_done(inner, old_key, old_gen) {
                self.metrics.inc_retry_cache_evictions();
                leaving.push(body);
            }
        }
        if inner.order.len() > 2 * inner.done + ORDER_SLACK {
            let CacheInner { entries, order, .. } = inner;
            order.retain(|(key, gen, _)| {
                matches!(entries.get(key), Some(Entry::Done { gen: live, .. }) if live == gen)
            });
        }
    }

    /// Remove `key`'s entry if it is the `Done` entry `order_gen` stamped
    /// (a stale record matches nothing), and hand its body out to be let
    /// go after the lock.
    fn remove_done(&self, inner: &mut CacheInner<W>, key: CallKey, order_gen: u64) -> Option<Body> {
        let hash_map::Entry::Occupied(slot) = inner.entries.entry(key) else {
            return None;
        };
        if !matches!(slot.get(), Entry::Done { gen, .. } if *gen == order_gen) {
            return None;
        }
        let Entry::Done { response, .. } = slot.remove() else {
            return None;
        };
        inner.done -= 1;
        inner.retained -= response.capacity();
        Some(response)
    }

    /// Offer what left `CacheInner` to the heap tier, or drop it, the
    /// cache mutex released.
    fn let_go(&self, leaving: Leaving) {
        if let Some(tier) = &self.spares {
            let bodies = leaving.inline.into_iter().flatten().chain(leaving.rest);
            bodies.for_each(|body| tier.offer(body));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufpool::classes::MIN_CLASS_BYTES;
    use bufpool::heap::{BUDGET_BYTES, SPARES_PER_CLASS};

    fn cache(ttl: Duration, capacity: usize) -> (RetryCache<u32>, MetricsRegistry) {
        let metrics = MetricsRegistry::new(false);
        (RetryCache::new(ttl, capacity, metrics.clone()), metrics)
    }

    /// A cache that offers what leaves it to a heap tier of `budget`.
    fn tiered(
        ttl: Duration,
        capacity: usize,
        budget: usize,
    ) -> (RetryCache<u32>, Arc<HeapTier>, MetricsRegistry) {
        let (cache, metrics) = cache(ttl, capacity);
        let tier = Arc::new(HeapTier::new(budget));
        (cache.with_spares(Arc::clone(&tier)), tier, metrics)
    }

    fn resp(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag])
    }

    /// `cache` on a manual clock, and `at(ms)`, which moves that clock on
    /// to `ms` after its start: the TTL rules are stepped, so no test
    /// waits on the host's clock.
    fn stepped<W>(cache: RetryCache<W>) -> (RetryCache<W>, impl Fn(u64)) {
        let clock = Clock::manual();
        let hand = clock.clone();
        let at = move |ms: u64| {
            let by = (ms * 1_000_000)
                .checked_sub(hand.now_ns())
                .expect("the clock only moves forward");
            hand.advance(Duration::from_nanos(by));
        };
        (cache.with_clock(clock), at)
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
        let (cache, at) = stepped(cache);
        let key = (1, 1);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        cache.complete(key, resp(1));
        at(19);
        assert!(matches!(cache.begin(key, || 0), Admission::Replay(_)));
        // At the TTL the entry is gone: the same key executes again.
        at(20);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        assert_eq!(metrics.counters().retry_cache_expired, 1);
        assert_eq!(cache.len(), 1, "only the fresh in-flight entry remains");
    }

    #[test]
    fn ttl_never_expires_inflight_entries() {
        let (cache, _) = cache(Duration::from_millis(10), 16);
        let (cache, at) = stepped(cache);
        let key = (1, 2);
        // A completed entry ahead of it, so the TTL scan has work to do.
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        cache.complete((1, 1), resp(1));
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        // Still in-flight long past the TTL: the duplicate parks rather
        // than executing a second time.
        at(30);
        assert!(matches!(cache.begin(key, || 5), Admission::Parked));
        assert_eq!(cache.complete(key, resp(2)), vec![5]);
        assert_eq!(cache.len(), 1, "the expired neighbour went, this one stays");
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

    /// A body of `len` bytes in a buffer of exactly `capacity`.
    fn roomy(len: usize, capacity: usize) -> Arc<Vec<u8>> {
        let mut buf = Vec::with_capacity(capacity);
        buf.resize(len, 0xCC);
        assert_eq!(buf.capacity(), capacity);
        Arc::new(buf)
    }

    #[test]
    fn byte_budget_charges_capacity_not_length() {
        let metrics = MetricsRegistry::new(false);
        let cache: RetryCache<u32> =
            RetryCache::new(Duration::from_secs(60), 16, metrics.clone()).with_byte_budget(2_500);
        // 10-byte bodies in 1 000-byte buffers: by `len()` sixteen of them
        // fit the budget thirty times over; what they pin is 1 000 each.
        for seq in 0..3i64 {
            assert!(matches!(cache.begin((1, seq), || 0), Admission::Execute));
            cache.complete((1, seq), roomy(10, 1_000));
        }
        assert_eq!(metrics.counters().retry_cache_evictions, 1);
        let kept = cache.retention();
        assert_eq!((kept.entries, kept.entry_len), (2, 20));
        assert_eq!(kept.entry_capacity, 2_000);
    }

    #[test]
    fn entries_and_spares_each_stay_within_their_own_budget() {
        const BUDGET: usize = 4_000;
        const TIER_BUDGET: usize = 2_000;
        let (cache, tier, _) = tiered(Duration::from_secs(60), 8, TIER_BUDGET);
        let cache = cache.with_byte_budget(BUDGET);
        // Three sizes, three classes; the entry bound binds for the
        // small ones and the byte budget for the large.
        let mut fresh = 0;
        for seq in 0..200i64 {
            let len = [40usize, 300, 900][(seq % 3) as usize];
            assert!(matches!(cache.begin((1, seq), || 0), Admission::Execute));
            let (body, reused) = tier.build_body(len, |buf| buf.resize(len, seq as u8));
            fresh += usize::from(!reused);
            assert!(body.capacity() < 2 * len + MIN_CLASS_BYTES);
            cache.complete((1, seq), body);
            let kept = cache.retention();
            assert!(kept.entry_capacity <= BUDGET, "seq {seq}: {kept:?}");
            assert!(kept.spare_capacity <= TIER_BUDGET, "seq {seq}: {kept:?}");
            assert!(kept.spares_in_fullest_class <= SPARES_PER_CLASS);
        }
        assert!(
            fresh <= 20,
            "steady state builds in what was evicted: {fresh}"
        );
    }

    #[test]
    fn evicted_body_is_the_next_one_built_in_its_class() {
        let (cache, tier, metrics) = tiered(Duration::from_secs(60), 1, usize::MAX);
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        let (first, _) = tier.build_body(0, |buf| buf.extend_from_slice(&[1; 200]));
        let (block, capacity) = (first.as_ptr(), first.capacity());
        cache.complete((1, 1), first);
        assert!(matches!(cache.begin((1, 2), || 0), Admission::Execute));
        cache.complete((1, 2), resp(2));
        assert_eq!(metrics.counters().retry_cache_evictions, 1);
        assert_eq!(cache.retention().spares, 1);
        // Same class, a little smaller: same block, nothing allocated.
        let (again, reused) = tier.build_body(180, |buf| buf.extend_from_slice(&[3; 180]));
        assert!(reused);
        assert_eq!((again.as_ptr(), again.capacity()), (block, capacity));
        assert_eq!(*again, vec![3; 180]);
    }

    #[test]
    fn body_still_held_when_evicted_is_dropped_not_filed() {
        let (cache, tier, _) = tiered(Duration::from_secs(60), 1, usize::MAX);
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        cache.complete((1, 1), Arc::new(vec![7; 300]));
        // A replay on a connection's pending list.
        let Admission::Replay(held) = cache.begin((1, 1), || 0) else {
            panic!("expected replay");
        };
        assert!(matches!(cache.begin((1, 2), || 0), Admission::Execute));
        cache.complete((1, 2), resp(2));
        assert_eq!(cache.retention().spares, 0, "shared: not a spare");
        let (built, _) = tier.build_body(300, |buf| buf.extend_from_slice(&[9; 300]));
        assert_ne!(built.as_ptr(), held.as_ptr());
        assert_eq!(*held, vec![7; 300], "the held replay is untouched");
        // Its last holder may offer it: now it is unique.
        tier.offer(held);
        assert_eq!(cache.retention().spares, 1);
    }

    #[test]
    fn cache_that_is_off_recycles_what_it_is_offered() {
        let (cache, tier, _) = tiered(Duration::from_secs(60), 0, usize::MAX);
        let cache = cache.with_byte_budget(0);
        let (first, _) = tier.build_body(0, |buf| buf.extend_from_slice(&[1; 64]));
        let block = first.as_ptr();
        assert!(cache.complete((1, 1), Arc::clone(&first)).is_empty());
        tier.offer(first);
        let (second, reused) = tier.build_body(64, |buf| buf.extend_from_slice(&[2; 64]));
        assert_eq!(second.as_ptr(), block);
        assert!(reused);
    }

    #[test]
    fn expired_bodies_leave_as_spares_too() {
        let (cache, _, metrics) = tiered(Duration::from_millis(20), 16, usize::MAX);
        let (cache, at) = stepped(cache);
        for seq in 0..3i64 {
            assert!(matches!(cache.begin((1, seq), || 0), Admission::Execute));
            cache.complete((1, seq), Arc::new(vec![seq as u8; 500]));
        }
        at(40);
        assert!(matches!(cache.begin((1, 9), || 0), Admission::Execute));
        assert_eq!(metrics.counters().retry_cache_expired, 3);
        let kept = cache.retention();
        assert_eq!((kept.entries, kept.spares), (0, 3));
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
        let (cache, at) = stepped(cache);
        let key = (1, 1);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        cache.complete(key, resp(1));
        at(35);
        cache.complete(key, resp(2));
        // The first completion's order record is past the TTL but points
        // at the re-completed entry: it must be skipped, not expire the
        // fresh response early.
        at(70);
        match cache.begin(key, || 0) {
            Admission::Replay(bytes) => assert_eq!(*bytes, vec![2]),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(metrics.counters().retry_cache_expired, 0);
        // The fresh response's own record expires it at its own TTL.
        at(95);
        assert!(matches!(cache.begin(key, || 0), Admission::Execute));
        assert_eq!(metrics.counters().retry_cache_expired, 1);
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

    #[test]
    fn acked_entry_leaves_and_its_body_is_the_next_built_in_its_class() {
        let (cache, tier, metrics) = tiered(Duration::from_secs(60), 16, BUDGET_BYTES);
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        let (first, _) = tier.build_body(0, |buf| buf.extend_from_slice(&[1; 200]));
        let (block, capacity) = (first.as_ptr(), first.capacity());
        cache.complete((1, 1), first);
        // The caller's next request acknowledges call 1: it leaves in the
        // same `begin`, as a spare.
        assert!(matches!(
            cache.begin_acking((1, 2), Some(1), || 0),
            Admission::Execute
        ));
        let kept = cache.retention();
        assert_eq!((kept.entries, kept.spares), (0, 1));
        assert_eq!(cache.len(), 1, "only call 2, in flight");
        let (again, reused) = tier.build_body(180, |buf| buf.extend_from_slice(&[2; 180]));
        assert_eq!((again.as_ptr(), again.capacity()), (block, capacity));
        assert!(reused);
        let c = metrics.counters();
        assert_eq!((c.retry_cache_acked, c.retry_cache_evictions), (1, 0));
    }

    #[test]
    fn acked_inflight_entry_is_not_stored_and_its_waiters_still_return() {
        let (cache, metrics) = cache(Duration::from_secs(60), 16);
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        // A duplicate attempt, parked on another connection.
        assert!(matches!(cache.begin((1, 1), || 7), Admission::Parked));
        // The response was sent before `complete` ran, and the caller's
        // next request acknowledges it first.
        assert!(matches!(
            cache.begin_acking((1, 2), Some(1), || 0),
            Admission::Execute
        ));
        assert_eq!(cache.complete((1, 1), resp(9)), vec![7]);
        assert_eq!(cache.retention().entries, 0);
        assert_eq!(cache.len(), 1, "only call 2, in flight");
        assert_eq!(metrics.counters().retry_cache_acked, 1);
        // Call 2 itself is stored as usual.
        cache.complete((1, 2), resp(2));
        assert!(matches!(cache.begin((1, 2), || 0), Admission::Replay(_)));
    }

    #[test]
    fn an_ack_names_only_its_own_clients_calls_and_an_unknown_seq_is_a_no_op() {
        let (cache, metrics) = cache(Duration::from_secs(60), 16);
        for client in [1u64, 2] {
            assert!(matches!(cache.begin((client, 5), || 0), Admission::Execute));
            cache.complete((client, 5), resp(client as u8));
        }
        // Client 2 acknowledges its seq 5, then a seq nobody completed.
        assert!(matches!(
            cache.begin_acking((2, 6), Some(5), || 0),
            Admission::Execute
        ));
        assert!(matches!(
            cache.begin_acking((2, 7), Some(1_000), || 0),
            Admission::Execute
        ));
        assert_eq!(metrics.counters().retry_cache_acked, 1);
        // Client 1's identical seq is untouched.
        match cache.begin((1, 5), || 0) {
            Admission::Replay(bytes) => assert_eq!(*bytes, vec![1]),
            other => panic!("expected replay, got {other:?}"),
        }
        assert!(matches!(cache.begin((2, 5), || 0), Admission::Execute));
        assert_eq!(cache.retention().entries, 1);
    }

    #[test]
    fn unacked_entries_still_obey_capacity_ttl_and_budget() {
        // Capacity counts the entries no ack has named.
        let (cache, metrics) = cache(Duration::from_millis(50), 2);
        let (cache, at) = stepped(cache);
        let run = |seq: i64, acked: Option<i64>| {
            assert!(matches!(
                cache.begin_acking((1, seq), acked, || 0),
                Admission::Execute
            ));
            cache.complete((1, seq), resp(seq as u8));
        };
        run(1, None);
        run(2, None);
        run(3, Some(1));
        assert_eq!(metrics.counters().retry_cache_evictions, 0);
        run(4, None);
        assert_eq!(metrics.counters().retry_cache_evictions, 1);
        at(10);
        assert!(matches!(cache.begin((1, 2), || 0), Admission::Execute));
        assert!(matches!(cache.begin((1, 3), || 0), Admission::Replay(_)));
        // The TTL still expires what no ack names.
        at(60);
        assert!(matches!(cache.begin((1, 9), || 0), Admission::Execute));
        assert_eq!(metrics.counters().retry_cache_expired, 2);
        assert_eq!(cache.retention().entries, 0);

        // The byte budget counts them too. Each body is also held by its
        // sender here, so nothing is filed as a spare.
        let metrics = MetricsRegistry::new(false);
        let cache: RetryCache<u32> =
            RetryCache::new(Duration::from_secs(60), 16, metrics.clone()).with_byte_budget(250);
        let mut sent = Vec::new();
        let mut call = |seq: i64, acked: Option<i64>| {
            assert!(matches!(
                cache.begin_acking((1, seq), acked, || 0),
                Admission::Execute
            ));
            let body = Arc::new(vec![seq as u8; 100]);
            cache.complete((1, seq), Arc::clone(&body));
            sent.push(body);
        };
        call(0, None);
        call(1, None);
        call(2, Some(0));
        assert_eq!(metrics.counters().retry_cache_evictions, 0);
        call(3, None);
        assert_eq!(metrics.counters().retry_cache_evictions, 1);
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        for seq in [2i64, 3] {
            assert!(matches!(cache.begin((1, seq), || 0), Admission::Replay(_)));
        }
    }

    #[test]
    fn an_unacked_call_outlives_any_number_of_acked_ones() {
        // The last call on a quiet connection is never acknowledged; the
        // busy caller beside it acknowledges every call. Its entry
        // outlives many times the capacity's worth of completions, and
        // the records the acks leave behind are swept.
        let (cache, metrics) = cache(Duration::from_secs(60), 64);
        assert!(matches!(cache.begin((9, 1), || 0), Admission::Execute));
        cache.complete((9, 1), resp(9));
        for seq in 1..10_000i64 {
            let acked = (seq > 1).then_some(seq - 1);
            assert!(matches!(
                cache.begin_acking((1, seq), acked, || 0),
                Admission::Execute
            ));
            cache.complete((1, seq), resp(1));
            let inner = cache.inner.lock();
            assert!(inner.done <= 2, "seq {seq}: {} entries", inner.done);
            assert!(inner.order.len() <= 2 * inner.done + ORDER_SLACK + 1);
        }
        assert!(matches!(cache.begin((9, 1), || 0), Admission::Replay(_)));
        let c = metrics.counters();
        assert_eq!((c.retry_cache_acked, c.retry_cache_evictions), (9_998, 0));
    }
}
