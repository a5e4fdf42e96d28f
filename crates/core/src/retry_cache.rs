//! Server-side retry cache: the at-most-once half of the RPC contract —
//! and, since a cache that evicts is a steady source of buffers nobody can
//! see any more, the pool the server's response bodies are built in.
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
//! budget on what it retains (an entry bound alone lets 8192 bulk
//! responses of 256 KiB pin 2 GB). The entry just completed is never
//! evicted, so a single response larger than the whole budget is still
//! replayable until the next completion. In-flight entries are never
//! expired or evicted — a waiter parked behind one must not be stranded —
//! so the hard memory bound is the byte budget (or one oversized
//! response) plus however many calls are genuinely executing.
//!
//! ## What leaves the cache, and who may rewrite it
//!
//! A body that leaves the cache — evicted by either bound, expired, or
//! displaced by a re-completion — is not freed: it is *offered*
//! ([`RetryCache::offer`]) as a **spare**, and the next response of its
//! size class is serialized into it ([`RetryCache::build_body`]) instead
//! of into a fresh `Vec` behind a fresh `Arc`. This is the paper's
//! history-based pool (message-size locality, Figure 3) applied to the
//! last two allocations the engine made per call; in the evicting steady
//! state a completion lets go of exactly one body and the next call picks
//! it up. The rules:
//!
//! * **One owner, proven by the type.** A body is cleared or written only
//!   through `Arc::get_mut`, which succeeds only when no replay pending
//!   behind a send turn, no parked-duplicate route and no handler
//!   mid-send holds it. A body still shared when it is offered is simply dropped
//!   by its last holder. No reference count is ever read.
//! * **Class-matched.** Spares are filed under the native pool's size
//!   ladder ([`bufpool::classes`]) by `capacity()` and drawn by the class
//!   of the caller's size hint, so a spare's capacity is below twice the
//!   hint; a body that turns out far smaller than its buffer gives the
//!   excess back before it is cached. Fresh buffers are sized exactly.
//! * **Inside the byte budget.** The budget counts `capacity()` — what a
//!   body pins, not what it says — of completed entries *and* idle
//!   spares, and at most [`SPARES_PER_CLASS`] spares idle per class.
//!   Where the budget is what binds, a completion evicts for the bodies
//!   [`RetryCache::build_body`] has handed out and not seen back, and
//!   for one more like its own — the room its evictee needs to stay as a
//!   spare; a cache nobody builds from keeps its whole budget for replay.
//! * **Nothing is filed or freed under the cache mutex.** Whatever
//!   leaves `CacheInner` is moved out inside the lock and offered — or
//!   dropped — after it is released: no `Arc<Vec<u8>>` dies in there (a
//!   256 KiB `free` per bulk completion, or 8192 of them in one `begin`
//!   after an idle gap). Spares have their own lock, taken at most twice
//!   per call and never together with the cache mutex, which `begin` and
//!   `complete` remain the only per-call acquisitions of.
//!
//! With `capacity == 0` nothing is cached and nothing is ever evicted:
//! the server offers each response's own buffer once it has been sent.
//!
//! The cache is generic over the waiter payload `W` (the server parks
//! `(connection, response-routing)` tuples; unit tests park `()`).

use std::collections::{hash_map, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bufpool::classes::{class_for, MIN_CLASS_BYTES};
use parking_lot::Mutex;

use crate::metrics::MetricsRegistry;

/// Identity of one logical call: `(client_id, seq)`.
pub type CallKey = (u64, i64);

/// A serialized response body (`[status][value | error]`), shared by the
/// cache entry, replays and parked duplicates.
type Body = Arc<Vec<u8>>;

/// Idle spares kept per size class. In steady state a class holds one per
/// call in flight; the cap is what a burst of evictions of one size may
/// leave behind.
pub const SPARES_PER_CLASS: usize = 4;

/// The order ring is reserved up front for what it holds in steady
/// state, the capacity plus the completion pushed before the oldest is
/// evicted — grown by doubling, it reallocated itself well after
/// start-up — but for at most this many records, so that a huge
/// capacity asks for nothing huge.
const ORDER_RESERVE_MAX: usize = 1 << 16;

/// Size classes that keep spares: 128 B · 2^k up to 1 GiB. A larger body
/// is never kept.
const SPARE_CLASSES: usize = 24;

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
        response: Body,
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
}

/// Bodies on their way out of the cache, collected under the cache mutex
/// and dealt with after it is released. The steady state evicts one body
/// per completion, which must not cost a `Vec` of its own.
#[derive(Default)]
struct Leaving {
    first: Option<Body>,
    rest: Vec<Body>,
}

impl Leaving {
    fn push(&mut self, body: Body) {
        match self.first {
            None => self.first = Some(body),
            Some(_) => self.rest.push(body),
        }
    }
}

/// What the cache retains, for tests and observability (see
/// [`RetryCache::retention`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retention {
    /// Completed entries, the sum of their bodies' `len()` and of their
    /// `capacity()`.
    pub entries: usize,
    pub entry_len: usize,
    pub entry_capacity: usize,
    /// Idle spares, the fullest class's count, and their total
    /// `capacity()`.
    pub spares: usize,
    pub spares_in_fullest_class: usize,
    pub spare_capacity: usize,
}

/// See module docs. Cheap interior mutability; shared by Readers and
/// Handlers.
pub struct RetryCache<W> {
    inner: Mutex<CacheInner<W>>,
    /// Idle spares by size class of their capacity, each cleared and
    /// unique. Never locked together with `inner`.
    spares: Mutex<[Vec<Body>; SPARE_CLASSES]>,
    /// `capacity()` of every completed entry's body plus every idle
    /// spare: what the byte budget bounds. Entries move it under `inner`,
    /// spares under `spares`; an atomic so that neither needs the other's
    /// lock, and `Relaxed` throughout: it is a byte count that publishes
    /// nothing — the bodies themselves change hands under the mutexes.
    retained: AtomicUsize,
    /// `capacity()` of the bodies built here ([`RetryCache::build_body`])
    /// that `complete` has not seen yet. They are on their way in, so the
    /// byte bound evicts for them too — see `complete`.
    in_flight: AtomicUsize,
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
                order: VecDeque::with_capacity(capacity.saturating_add(1).min(ORDER_RESERVE_MAX)),
                next_gen: 0,
            }),
            spares: Mutex::new(std::array::from_fn(|_| {
                Vec::with_capacity(SPARES_PER_CLASS)
            })),
            retained: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            ttl,
            capacity,
            max_bytes: usize::MAX,
            metrics,
        }
    }

    /// Bound what the cache retains — the `capacity()` of cached response
    /// bodies and of idle spares — to `max_bytes`, on top of the entry
    /// bound. A cache that is off (`capacity == 0`) has no entries to
    /// bound and ignores it: its spares are the buffers of responses the
    /// server has just sent, at most [`SPARES_PER_CLASS`] per class.
    pub fn with_byte_budget(mut self, max_bytes: usize) -> RetryCache<W> {
        if self.capacity != 0 {
            self.max_bytes = max_bytes;
        }
        self
    }

    /// Present an arriving call. `waiter` is only invoked (and parked)
    /// when the call duplicates one still executing.
    pub fn begin(&self, key: CallKey, waiter: impl FnOnce() -> W) -> Admission {
        if self.capacity == 0 {
            return Admission::Execute;
        }
        let now = Instant::now();
        let mut leaving = Leaving::default();
        let admission = {
            let mut inner = self.inner.lock();
            while let Some(&(old_key, old_gen, completed_at)) = inner.order.front() {
                if now.duration_since(completed_at) < self.ttl {
                    break;
                }
                inner.order.pop_front();
                if let Some(body) = self.remove_done(&mut inner, old_key, old_gen) {
                    self.metrics.inc_retry_cache_expired();
                    leaving.push(body);
                }
            }
            match inner.entries.entry(key) {
                hash_map::Entry::Occupied(mut slot) => match slot.get_mut() {
                    Entry::InFlight { waiters } => {
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
        let now = Instant::now();
        // `room`: every body built here and not yet completed, this one
        // included. The others are on their way in; this one's share is
        // the room its evictee needs to stay as a spare (the entry itself
        // is charged below). A body that was not built here — a shared
        // refusal body, a test's — takes at most its own size off the
        // gauge, and in a cache nobody builds from `room` is always 0.
        let own = response.capacity();
        let room = match self.in_flight.load(Ordering::Relaxed) {
            0 => 0,
            _ => self
                .in_flight
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |building| {
                    Some(building.saturating_sub(own))
                })
                .unwrap_or(0),
        };
        let mut leaving = Leaving::default();
        let mut inner = self.inner.lock();
        let gen = inner.next_gen;
        inner.next_gen += 1;
        self.retained.fetch_add(own, Ordering::Relaxed);
        let waiters = match inner.entries.insert(key, Entry::Done { response, gen }) {
            Some(Entry::InFlight { waiters }) => waiters,
            // Re-completion (should not happen): keep the fresher
            // response, nobody is parked. The displaced Done entry's
            // order record goes stale; the generation stamp keeps it from
            // ever expiring this fresh one.
            Some(Entry::Done { response: old, .. }) => {
                self.retained.fetch_sub(old.capacity(), Ordering::Relaxed);
                leaving.push(old);
                Vec::new()
            }
            // A racing abort already forgot the call.
            None => Vec::new(),
        };
        inner.order.push_back((key, gen, now));
        // Eviction: let go of the oldest completed entries while over
        // either bound — but never the one just pushed (the last record).
        // The byte bound holds with `room` added, so that what is evicted
        // here can stay as a spare and still fit.
        while (inner.order.len() > self.capacity
            || self.retained.load(Ordering::Relaxed).saturating_add(room) > self.max_bytes)
            && inner.order.len() > 1
        {
            let (old_key, old_gen, _) = inner.order.pop_front().expect("len checked");
            if let Some(body) = self.remove_done(&mut inner, old_key, old_gen) {
                self.metrics.inc_retry_cache_evictions();
                leaving.push(body);
            }
        }
        drop(inner);
        // Entries alone cannot get the cache under its budget when what
        // is left is the one just completed: then idle spares go.
        if self.retained.load(Ordering::Relaxed) > self.max_bytes {
            self.shed_spares();
        }
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

    /// Serialize a response body into a buffer nobody else can see and
    /// return it shared: an idle spare of `hint`'s size class when there
    /// is one (neither the `Vec`'s block nor the `Arc`'s is allocated),
    /// else a fresh buffer of exactly `hint` bytes. `hint` is what the
    /// caller expects `fill` to write — the last body of the same
    /// `<protocol, method#resp>`; a size that drifts upward inside its
    /// class costs one `realloc`, and a body that leaves its buffer more
    /// than half empty (above the class floor) gives the excess back, so
    /// what the cache then retains is below twice what it can replay.
    pub fn build_body(&self, hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Arc<Vec<u8>> {
        let write = |buf: &mut Vec<u8>| {
            buf.reserve_exact(hint);
            fill(buf);
            if buf.capacity() >= 2 * buf.len() + MIN_CLASS_BYTES {
                buf.shrink_to_fit();
            }
        };
        if let Some(mut spare) = self.take_spare(hint) {
            // Unique when it was filed and unseen since; `get_mut` says
            // so again, and is the only way in.
            if let Some(buf) = Arc::get_mut(&mut spare) {
                write(buf);
                self.metrics.inc_resp_bodies_reused();
                return self.built(spare);
            }
        }
        let mut buf = Vec::new();
        write(&mut buf);
        self.metrics.inc_resp_bodies_fresh();
        self.built(Arc::new(buf))
    }

    /// Offer a body the caller is done with: kept as a spare iff nobody
    /// else holds it (`Arc::get_mut`'s verdict), its class has fewer than
    /// [`SPARES_PER_CLASS`] idle and the byte budget has room; otherwise
    /// this reference is dropped, and with the last one the body. Called
    /// for whatever leaves the cache and, by the server, for a response's
    /// own buffer once it is sent — the one source a cache that is off
    /// has. Never call it holding the cache mutex.
    pub fn offer(&self, mut body: Arc<Vec<u8>>) {
        let Some(buf) = Arc::get_mut(&mut body) else {
            return;
        };
        let (bytes, class) = (buf.capacity(), class_for(buf.capacity()));
        if bytes == 0 || class >= SPARE_CLASSES {
            return;
        }
        buf.clear();
        let mut spares = self.spares.lock();
        if spares[class].len() < SPARES_PER_CLASS && self.charge_if_room(bytes) {
            spares[class].push(body);
            return;
        }
        // Not kept: free it after the spare lock, not under it.
        drop(spares);
    }

    /// What the cache retains right now. Walks every entry under the
    /// cache mutex: for tests and observability, not for a hot path.
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
        for class in self.spares.lock().iter() {
            r.spares += class.len();
            r.spares_in_fullest_class = r.spares_in_fullest_class.max(class.len());
            r.spare_capacity += class.iter().map(|s| s.capacity()).sum::<usize>();
        }
        r
    }

    fn take_spare(&self, hint: usize) -> Option<Body> {
        let class = class_for(hint);
        if class >= SPARE_CLASSES {
            return None;
        }
        let spare = self.spares.lock()[class].pop()?;
        self.retained.fetch_sub(spare.capacity(), Ordering::Relaxed);
        Some(spare)
    }

    /// A body built here comes back through `complete` (the caller's
    /// duty; one that never does only makes the cache evict earlier):
    /// until then it is in flight.
    fn built(&self, body: Body) -> Body {
        if self.capacity != 0 {
            self.in_flight.fetch_add(body.capacity(), Ordering::Relaxed);
        }
        body
    }

    /// Charge `bytes` to the budget unless that would exceed it.
    fn charge_if_room(&self, bytes: usize) -> bool {
        self.retained
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |retained| {
                retained
                    .checked_add(bytes)
                    .filter(|&total| total <= self.max_bytes)
            })
            .is_ok()
    }

    /// Remove `key`'s entry if it is the `Done` entry that `order_gen`
    /// stamped, and hand its body out — to be offered or dropped once the
    /// cache mutex is released, never under it. The order queue can hold
    /// stale records for entries that were re-completed or already
    /// removed; those match nothing.
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
        self.retained
            .fetch_sub(response.capacity(), Ordering::Relaxed);
        Some(response)
    }

    /// Offer what left `CacheInner`, the cache mutex released.
    fn let_go(&self, leaving: Leaving) {
        leaving
            .first
            .into_iter()
            .chain(leaving.rest)
            .for_each(|body| self.offer(body));
    }

    /// Drop idle spares, largest classes first, until the cache is back
    /// under its budget: for when evicting entries could not get it there
    /// (what is left is the one just completed). Freed after the spare
    /// lock, not under it.
    fn shed_spares(&self) {
        let mut dropped = Leaving::default();
        let mut spares = self.spares.lock();
        for class in spares.iter_mut().rev() {
            while self.retained.load(Ordering::Relaxed) > self.max_bytes {
                let Some(spare) = class.pop() else { break };
                self.retained.fetch_sub(spare.capacity(), Ordering::Relaxed);
                dropped.push(spare);
            }
        }
        drop(spares);
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
        // The evicted buffer (unique, 1 000 B) would not fit beside them.
        assert_eq!(kept.spares, 0);
    }

    #[test]
    fn entries_and_spares_stay_within_the_budget() {
        const BUDGET: usize = 4_000;
        let metrics = MetricsRegistry::new(false);
        let cache: RetryCache<u32> =
            RetryCache::new(Duration::from_secs(60), 8, metrics.clone()).with_byte_budget(BUDGET);
        // Three sizes, three classes; the entry bound binds for the
        // small ones and the byte budget for the large.
        for seq in 0..200i64 {
            let len = [40usize, 300, 900][(seq % 3) as usize];
            assert!(matches!(cache.begin((1, seq), || 0), Admission::Execute));
            let body = cache.build_body(len, |buf| buf.resize(len, seq as u8));
            assert!(body.capacity() < 2 * len + MIN_CLASS_BYTES);
            cache.complete((1, seq), body);
            let kept = cache.retention();
            assert!(
                kept.entry_capacity + kept.spare_capacity <= BUDGET,
                "seq {seq}: {kept:?}"
            );
            assert!(kept.spares_in_fullest_class <= SPARES_PER_CLASS);
        }
        let c = metrics.counters();
        assert_eq!(c.resp_bodies_reused + c.resp_bodies_fresh, 200);
        assert!(
            c.resp_bodies_fresh <= 20,
            "steady state builds in what was evicted: {c:?}"
        );
    }

    #[test]
    fn oversized_newest_entry_pushes_idle_spares_out() {
        let (cache, _) = cache(Duration::from_secs(60), 4);
        let cache = cache.with_byte_budget(1_000);
        cache.offer(roomy(0, 400));
        cache.offer(roomy(0, 100));
        assert_eq!(cache.retention().spare_capacity, 500);
        // Nothing to evict but the entry itself: spares go instead, the
        // largest first, until the rest fits.
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        cache.complete((1, 1), roomy(700, 700));
        let kept = cache.retention();
        assert_eq!((kept.entries, kept.spare_capacity), (1, 100));
    }

    #[test]
    fn evicted_body_is_the_next_one_built_in_its_class() {
        let (cache, metrics) = cache(Duration::from_secs(60), 1);
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        let first = cache.build_body(0, |buf| buf.extend_from_slice(&[1; 200]));
        let (block, capacity) = (first.as_ptr(), first.capacity());
        cache.complete((1, 1), first);
        assert!(matches!(cache.begin((1, 2), || 0), Admission::Execute));
        cache.complete((1, 2), resp(2));
        assert_eq!(metrics.counters().retry_cache_evictions, 1);
        assert_eq!(cache.retention().spares, 1);
        // Same class, a little smaller: same block, nothing allocated.
        let again = cache.build_body(180, |buf| buf.extend_from_slice(&[3; 180]));
        assert_eq!((again.as_ptr(), again.capacity()), (block, capacity));
        assert_eq!(*again, vec![3; 180]);
        // Another class finds nothing and allocates exactly.
        let other = cache.build_body(2_000, |buf| buf.extend_from_slice(&[4; 2_000]));
        assert_eq!(other.capacity(), 2_000);
        let c = metrics.counters();
        assert_eq!((c.resp_bodies_reused, c.resp_bodies_fresh), (1, 2));
    }

    #[test]
    fn body_still_held_when_evicted_is_dropped_not_filed() {
        let (cache, _) = cache(Duration::from_secs(60), 1);
        assert!(matches!(cache.begin((1, 1), || 0), Admission::Execute));
        cache.complete((1, 1), Arc::new(vec![7; 300]));
        // A replay on a connection's pending list.
        let Admission::Replay(held) = cache.begin((1, 1), || 0) else {
            panic!("expected replay");
        };
        assert!(matches!(cache.begin((1, 2), || 0), Admission::Execute));
        cache.complete((1, 2), resp(2));
        assert_eq!(cache.retention().spares, 0, "shared: not a spare");
        let built = cache.build_body(300, |buf| buf.extend_from_slice(&[9; 300]));
        assert_ne!(built.as_ptr(), held.as_ptr());
        assert_eq!(*held, vec![7; 300], "the held replay is untouched");
        // Its last holder may offer it: now it is unique.
        cache.offer(held);
        assert_eq!(cache.retention().spares, 1);
    }

    #[test]
    fn body_far_smaller_than_its_buffer_gives_the_excess_back() {
        let (cache, _) = cache(Duration::from_secs(60), 4);
        cache.offer(roomy(0, 1_000));
        let body = cache.build_body(1_000, |buf| buf.extend_from_slice(&[1; 10]));
        assert!(
            body.capacity() < 2 * 10 + MIN_CLASS_BYTES,
            "{}",
            body.capacity()
        );
        assert_eq!(*body, vec![1; 10]);
    }

    #[test]
    fn cache_that_is_off_recycles_what_it_is_offered() {
        let (cache, metrics) = cache(Duration::from_secs(60), 0);
        let cache = cache.with_byte_budget(0);
        let first = cache.build_body(0, |buf| buf.extend_from_slice(&[1; 64]));
        let block = first.as_ptr();
        assert!(cache.complete((1, 1), Arc::clone(&first)).is_empty());
        cache.offer(first);
        let second = cache.build_body(64, |buf| buf.extend_from_slice(&[2; 64]));
        assert_eq!(second.as_ptr(), block);
        // At most SPARES_PER_CLASS idle per class, whatever is offered.
        for _ in 0..SPARES_PER_CLASS + 3 {
            cache.offer(roomy(0, 64));
        }
        assert_eq!(cache.retention().spares, SPARES_PER_CLASS);
        assert_eq!(metrics.counters().resp_bodies_reused, 1);
    }

    #[test]
    fn expired_bodies_leave_as_spares_too() {
        let (cache, metrics) = cache(Duration::from_millis(20), 16);
        for seq in 0..3i64 {
            assert!(matches!(cache.begin((1, seq), || 0), Admission::Execute));
            cache.complete((1, seq), Arc::new(vec![seq as u8; 500]));
        }
        std::thread::sleep(Duration::from_millis(40));
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
