//! Per-call instrumentation.
//!
//! Table I of the paper reports, per `<protocol, method>`: average memory
//! adjustment count, average serialization time, and average send time.
//! Figure 1 reports the ratio of receive-side buffer-allocation time to
//! total call-receive time. Figure 3 needs the serialized size of every
//! call in sequence. This module collects all of those.
//!
//! On top of the averages, every `<protocol, method>` key also gets a set
//! of [`LatencyHistogram`]s — one per call [`Phase`] (serialize, wire,
//! server queue, handler, deserialize) — so the latency *distribution*
//! (p50/p95/p99/max) is observable, not just the mean.
//!
//! The registry is keyed by interned [`MethodId`]s ([`crate::intern`]):
//! each key's counters live in a [`MethodEntry`] reached through a
//! lock-free id-indexed pointer table, and recording a sample — stats or
//! histogram — is only relaxed atomic adds. Hot-path callers resolve the
//! `Arc<MethodEntry>` handle once ([`MetricsRegistry::entry`]) and record
//! through it with no map lock and no `to_owned()`; the `&str` APIs
//! remain for tests and tools, riding the interner.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::intern::{self, MethodKey};

/// One client-side call observation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallProfile {
    /// Time spent serializing the request (buffer writes + adjustments).
    pub serialize_ns: u64,
    /// Time spent handing the serialized frame to the transport.
    pub send_ns: u64,
    /// Memory adjustments performed while serializing (Algorithm 1 count;
    /// always 0 on the RPCoIB path unless the pool had to grow).
    pub adjustments: u64,
    /// Serialized request size in bytes.
    pub size: usize,
}

/// One receive-side observation (server reading a request, or client
/// reading a response).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecvProfile {
    /// Time spent allocating the receive buffer (Listing 2's
    /// `ByteBuffer.allocate(len)`; ~0 on the pooled RPCoIB path).
    pub alloc_ns: u64,
    /// Total time from frame-length availability to payload in hand.
    pub total_ns: u64,
    /// Received payload size in bytes.
    pub size: usize,
}

/// Aggregated statistics for one `<protocol, method>` key.
#[derive(Debug, Clone, Default)]
pub struct MethodStats {
    pub calls: u64,
    pub serialize_ns: u64,
    pub send_ns: u64,
    pub adjustments: u64,
    pub recvs: u64,
    pub recv_alloc_ns: u64,
    pub recv_total_ns: u64,
    /// Serialized sizes in call order (only kept when tracing is enabled).
    pub sizes: Vec<u32>,
}

impl MethodStats {
    pub fn avg_adjustments(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.adjustments as f64 / self.calls as f64
        }
    }
    pub fn avg_serialize_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.serialize_ns as f64 / self.calls as f64 / 1e3
        }
    }
    pub fn avg_send_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.send_ns as f64 / self.calls as f64 / 1e3
        }
    }
    pub fn avg_recv_alloc_us(&self) -> f64 {
        if self.recvs == 0 {
            0.0
        } else {
            self.recv_alloc_ns as f64 / self.recvs as f64 / 1e3
        }
    }
    pub fn avg_recv_total_us(&self) -> f64 {
        if self.recvs == 0 {
            0.0
        } else {
            self.recv_total_ns as f64 / self.recvs as f64 / 1e3
        }
    }
    /// Figure 1's y-axis: allocation time / total receive time.
    pub fn alloc_ratio(&self) -> f64 {
        if self.recv_total_ns == 0 {
            0.0
        } else {
            self.recv_alloc_ns as f64 / self.recv_total_ns as f64
        }
    }
}

/// A phase of an RPC call's life, as seen by the instrumented engine.
///
/// Client-observed phases: `Serialize` and `Wire` (recorded by the
/// transport as it sends), and `Deserialize` (response parse). Server-
/// observed phases: `ServerQueue` (reader admission → handler pickup) and
/// `Handler` (dispatch + response serialization); the server's transports
/// also record `Serialize`/`Wire` for the responses they send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Writing the request (or response) into the transport's buffer.
    Serialize,
    /// Handing the serialized frame to the wire: staging copies, stack
    /// traversal and egress serialization as modeled by the transport.
    Wire,
    /// Time a request spent parked in the server's bounded call queue.
    ServerQueue,
    /// Service dispatch plus response serialization on the server.
    Handler,
    /// Parsing a received response back into caller-visible fields.
    Deserialize,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 5;

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Serialize,
        Phase::Wire,
        Phase::ServerQueue,
        Phase::Handler,
        Phase::Deserialize,
    ];

    /// Stable snake_case name (used as the JSON key in bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Serialize => "serialize",
            Phase::Wire => "wire",
            Phase::ServerQueue => "server_queue",
            Phase::Handler => "handler",
            Phase::Deserialize => "deserialize",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Serialize => 0,
            Phase::Wire => 1,
            Phase::ServerQueue => 2,
            Phase::Handler => 3,
            Phase::Deserialize => 4,
        }
    }
}

/// Number of log2 buckets. Bucket `i` holds samples in `[2^(i-1), 2^i)`
/// nanoseconds (bucket 0 holds zeros); 40 buckets reach ~9 minutes,
/// far beyond any per-call phase this engine can produce.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A lock-free log2-bucketed latency histogram.
///
/// Recording is three relaxed atomic RMWs (bucket, count+sum, max); there
/// is no lock and no allocation, so it is safe to call from the read,
/// run and send hot paths.
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((64 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one sample of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        let idx = Self::bucket_index(ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record a [`Duration`] sample.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Consistent-enough copy of the current state (relaxed loads; exact
    /// once recording has quiesced).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    /// Per-bucket sample counts; bucket `i` covers `[2^(i-1), 2^i)` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Value at or below which `q` (0.0–1.0) of samples fall, reported as
    /// the upper bound of the containing log2 bucket (the histogram's
    /// resolution). The top bucket reports the observed max instead, so a
    /// handful of outliers cannot inflate to "9 minutes".
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 {
                    0
                } else if i == self.buckets.len() - 1 {
                    self.max_ns
                } else {
                    (1u64 << i) - 1
                };
            }
        }
        self.max_ns
    }

    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// One [`LatencyHistogram`] per [`Phase`], for one `<protocol, method>`.
pub struct PhaseHistograms {
    phases: [LatencyHistogram; PHASE_COUNT],
}

impl Default for PhaseHistograms {
    fn default() -> Self {
        PhaseHistograms {
            phases: std::array::from_fn(|_| LatencyHistogram::default()),
        }
    }
}

impl PhaseHistograms {
    /// Record `ns` into the given phase's histogram.
    pub fn record(&self, phase: Phase, ns: u64) {
        self.phases[phase.index()].record(ns);
    }

    /// The histogram backing one phase.
    pub fn get(&self, phase: Phase) -> &LatencyHistogram {
        &self.phases[phase.index()]
    }

    /// Snapshot all five phases.
    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            phases: std::array::from_fn(|i| self.phases[i].snapshot()),
        }
    }

    fn reset(&self) {
        for h in &self.phases {
            h.reset();
        }
    }
}

/// Point-in-time copy of all five phase histograms for one key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    phases: [HistogramSnapshot; PHASE_COUNT],
}

impl PhaseSnapshot {
    pub fn get(&self, phase: Phase) -> &HistogramSnapshot {
        &self.phases[phase.index()]
    }

    /// Iterate `(phase, histogram)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &HistogramSnapshot)> {
        Phase::ALL.iter().map(|&p| (p, &self.phases[p.index()]))
    }
}

/// Buffer-pool counters surfaced into the unified metrics snapshot: the
/// shadow pool's size-history behaviour (paper §V.C) plus the native
/// registered-buffer pool underneath it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Size-history predictions that fit (no adjustment needed).
    pub history_hits: u64,
    /// History entries that had to grow to a larger class.
    pub grows: u64,
    /// History entries that shrank to a smaller class.
    pub shrinks: u64,
    /// First-touch acquisitions with no history to consult.
    pub cold: u64,
    /// Native pool: acquisitions served from a pooled buffer.
    pub native_hits: u64,
    /// Native pool: acquisitions that registered fresh memory.
    pub native_misses: u64,
    /// Native pool: buffers handed back for reuse.
    pub native_returns: u64,
    /// Native pool: requests larger than the largest pooled class.
    pub oversize: u64,
}

/// Which part of the server pipeline a row of counters describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShardRole {
    /// An event-loop shard receiving frames from its assigned connections.
    Reader,
    /// The send ledger: one row (index 0) with no thread behind it —
    /// whoever holds a connection's send turn sends. `processed` counts
    /// responses sent by whichever thread; the queue-depth gauge counts
    /// responses pending behind a turn's holder, over all connections.
    Responder,
    /// A handler worker: pops the admission queue, polls calls, resumes
    /// suspended ones, steals them from siblings.
    Worker,
}

impl ShardRole {
    /// Stable snake_case name (the JSON key in bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            ShardRole::Reader => "reader",
            ShardRole::Responder => "responder",
            ShardRole::Worker => "worker",
        }
    }
}

/// Live counters for one reader shard, one worker, or the send ledger.
/// Registered with the [`MetricsRegistry`] at server start and updated
/// with relaxed atomics on the hot path.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Connections currently assigned to this shard (reader shards; a
    /// gauge — incremented at registration, decremented at teardown).
    connections: AtomicU64,
    /// Work items currently queued for this shard (send ledger: responses
    /// on connections' pending lists — one sent at once never enters
    /// one).
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth` over the shard's lifetime.
    queue_depth_max: AtomicU64,
    /// Work items this shard has completed (reader shards: frames read;
    /// send ledger: response transmissions attempted, by whichever
    /// thread; workers: calls completed).
    processed: AtomicU64,
    /// Busy rejections this shard issued (reader shards).
    busy_rejections: AtomicU64,
    /// Work taken from a sibling: reader shards count ready tokens
    /// stolen from a hot sibling's wake list; handler workers count tasks
    /// stolen from a sibling's run queue.
    steals: AtomicU64,
    /// Tasks this worker parked (suspended awaiting a wake). Always 0 for
    /// reader shards and the send ledger.
    parks: AtomicU64,
    /// Parked tasks made runnable again, attributed to the worker that
    /// parked them (timer expiry or an external wake handle).
    wakes: AtomicU64,
}

impl ShardStats {
    pub fn conn_added(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    pub fn conn_removed(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// One item entered this shard's queue: bump the depth gauge and fold
    /// it into the high-water mark. Call *before* the item becomes
    /// visible to the consumer, or the matching [`ShardStats::dequeued`]
    /// can race ahead and underflow the gauge.
    pub fn enqueued(&self) {
        let depth = self
            .queue_depth
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1);
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// One item left this shard's queue (whether or not the send worked).
    pub fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn inc_processed(&self) {
        self.processed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_wake(&self) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one shard's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    pub role: ShardRole,
    pub index: usize,
    pub connections: u64,
    pub queue_depth: u64,
    pub queue_depth_max: u64,
    pub processed: u64,
    pub busy_rejections: u64,
    pub steals: u64,
    pub parks: u64,
    pub wakes: u64,
}

/// Resilience-event totals for one engine instance (client or server).
///
/// Clients count `retries`, `reconnects`, and `failed_calls`; servers
/// count `frame_errors` and `broken_sends`. The counters live in one
/// struct because both sides share [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Call attempts re-issued after a retryable failure.
    pub retries: u64,
    /// Connections re-established to a server this client had already
    /// connected to (i.e. recoveries, not first contacts).
    pub reconnects: u64,
    /// Calls that failed definitively (non-retryable error, attempts
    /// exhausted, or deadline exceeded).
    pub failed_calls: u64,
    /// Inbound frames dropped as corrupt; each one also costs the
    /// connection it arrived on.
    pub frame_errors: u64,
    /// Responses the server could not transmit because the connection
    /// broke; the connection is closed in response.
    pub broken_sends: u64,
    /// Responses that arrived after their caller had already timed out
    /// and deregistered (client side). The connection survives; the
    /// payload is dropped.
    pub late_responses: u64,
    /// Calls refused admission because the server's call queue was full
    /// (answered with a retryable busy rejection, never executed).
    pub busy_rejections: u64,
    /// Connections the Listener refused before setup — past
    /// `max_connections` — answered with the retryable busy ack and
    /// dropped (server side). Backlog pressure is not counted here: it
    /// defers accepting rather than refusing.
    pub accept_rejections: u64,
    /// Queued calls dropped because their propagated deadline budget
    /// expired before a handler picked them up; answered with
    /// `STATUS_EXPIRED`, never executed.
    pub deadline_sheds: u64,
    /// Retried calls answered from the server's retry cache instead of
    /// being re-executed.
    pub retry_cache_hits: u64,
    /// Duplicate attempts that arrived while the first attempt was still
    /// executing and were parked until it finished.
    pub retry_cache_parked: u64,
    /// Completed retry-cache entries discarded to stay within capacity.
    pub retry_cache_evictions: u64,
    /// Completed retry-cache entries discarded because their TTL passed.
    pub retry_cache_expired: u64,
    /// Response bodies serialized into a recycled buffer — one the retry
    /// cache had let go of (or, cache off, one the server had just sent) —
    /// at no allocation, and those that needed a fresh one (server side).
    /// `reused / (reused + fresh)` is the pool's hit share: fresh ≈ 0 in
    /// the evicting steady state, fresh ≈ all while a cache fills or when
    /// a method's sizes wander across size classes.
    pub resp_bodies_reused: u64,
    pub resp_bodies_fresh: u64,
    /// Responses that left on a thread other than their producer's: they
    /// met a taken send turn (or others already waiting), were pushed
    /// onto their connection's pending list, and the turn's holder sent
    /// them (server side). Over the send ledger's `processed`, the share
    /// of responses that did not leave at once.
    pub resp_sent_behind: u64,
}

/// Registry of per-call-kind statistics. Cheap to clone and share.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<MetricsInner>,
}

/// Unified point-in-time view of everything the registry tracks: the
/// Table-I style per-method averages, the per-phase latency histograms,
/// the engine resilience counters, and (when the engine runs the RPCoIB
/// transport) the buffer-pool counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-`<protocol, method>` aggregates, sorted by key.
    pub methods: Vec<((String, String), MethodStats)>,
    /// Per-`<protocol, method>` phase histograms, sorted by key.
    pub phases: Vec<((String, String), PhaseSnapshot)>,
    /// Engine resilience counters.
    pub counters: EngineCounters,
    /// Buffer-pool counters; `None` on transports without a pool.
    pub pool: Option<PoolCounters>,
    /// Per-shard pipeline counters, sorted by (role, index). Empty on
    /// clients (only servers register shards).
    pub shards: Vec<ShardSnapshot>,
    /// Per-tenant admission counters, sorted by `client_id`. A tenant
    /// appears once it has been busy-rejected or shed at least once;
    /// well-behaved tenants stay off the list.
    pub tenants: Vec<TenantSnapshot>,
    /// Connections currently alive (accepted and not yet torn down).
    /// Filled by `Server::metrics_snapshot` from the live conn table;
    /// `0` in registry-only snapshots (clients).
    pub connections: usize,
    /// Bytes buffered inside live connections' transports awaiting
    /// `recv_msg` — the per-connection memory the server currently
    /// holds for peers. Filled by `Server::metrics_snapshot`.
    pub conn_buffered_bytes: usize,
}

/// Point-in-time admission counters for one tenant (handshake
/// `client_id`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSnapshot {
    pub client_id: u64,
    /// Calls of this tenant refused admission (queue full or tenant over
    /// quota).
    pub busy_rejections: u64,
    /// Calls of this tenant shed because their deadline budget expired
    /// while queued.
    pub deadline_sheds: u64,
}

impl MetricsSnapshot {
    /// Phase histograms for one key, if present. Allocation-free: binary
    /// search over the key-sorted snapshot, comparing `&str` halves
    /// directly.
    pub fn phase(&self, protocol: &str, method: &str) -> Option<&PhaseSnapshot> {
        self.phases
            .binary_search_by(|((p, m), _)| (p.as_str(), m.as_str()).cmp(&(protocol, method)))
            .ok()
            .map(|i| &self.phases[i].1)
    }
}

/// Live counters for one interned `<protocol, method>` key.
///
/// Hot-path callers hold the `Arc<MethodEntry>` returned by
/// [`MetricsRegistry::entry`] (cached per connection / per call), so a
/// sample record is only relaxed atomic adds: no registry lock, no key
/// allocation. Size tracing (a `Vec` append under a per-entry mutex) is
/// the one exception, and only when the registry was built with
/// `trace_sizes` — benches and the steady-state path run without it.
pub struct MethodEntry {
    key: MethodKey,
    trace: bool,
    calls: AtomicU64,
    serialize_ns: AtomicU64,
    send_ns: AtomicU64,
    adjustments: AtomicU64,
    recvs: AtomicU64,
    recv_alloc_ns: AtomicU64,
    recv_total_ns: AtomicU64,
    sizes: Mutex<Vec<u32>>,
    /// Size of the last message body serialized under this key — the
    /// paper's message-size locality as a one-word history: the server
    /// sizes a response's heap buffer from it (recorded on the
    /// `<protocol, method#resp>` key). A hint, not a statistic.
    last_body_size: AtomicUsize,
    /// Whether this key's phase histograms were ever exposed/recorded
    /// (keeps `phase_snapshot` listing only keys that opted in, matching
    /// the pre-interning map semantics).
    phases_touched: AtomicBool,
    phases: Arc<PhaseHistograms>,
}

impl MethodEntry {
    fn new(key: MethodKey, trace: bool) -> Self {
        MethodEntry {
            key,
            trace,
            calls: AtomicU64::new(0),
            serialize_ns: AtomicU64::new(0),
            send_ns: AtomicU64::new(0),
            adjustments: AtomicU64::new(0),
            recvs: AtomicU64::new(0),
            recv_alloc_ns: AtomicU64::new(0),
            recv_total_ns: AtomicU64::new(0),
            sizes: Mutex::new(Vec::new()),
            last_body_size: AtomicUsize::new(0),
            phases_touched: AtomicBool::new(false),
            phases: Arc::new(PhaseHistograms::default()),
        }
    }

    /// The interned key this entry aggregates.
    pub fn key(&self) -> MethodKey {
        self.key
    }

    /// Record a client-side send profile (relaxed atomic adds).
    pub fn record_call(&self, profile: CallProfile) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.serialize_ns
            .fetch_add(profile.serialize_ns, Ordering::Relaxed);
        self.send_ns.fetch_add(profile.send_ns, Ordering::Relaxed);
        self.adjustments
            .fetch_add(profile.adjustments, Ordering::Relaxed);
        if self.trace {
            self.sizes.lock().push(profile.size as u32);
        }
    }

    /// Record a receive-side profile (relaxed atomic adds).
    pub fn record_recv(&self, profile: RecvProfile) {
        self.recvs.fetch_add(1, Ordering::Relaxed);
        self.recv_alloc_ns
            .fetch_add(profile.alloc_ns, Ordering::Relaxed);
        self.recv_total_ns
            .fetch_add(profile.total_ns, Ordering::Relaxed);
    }

    /// Record one phase sample (relaxed atomic adds into the log2
    /// histogram).
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.phases_touched.store(true, Ordering::Relaxed);
        self.phases.record(phase, ns);
    }

    /// Size of the last body recorded by [`MethodEntry::note_body_size`]
    /// (0 before the first).
    pub fn last_body_size(&self) -> usize {
        self.last_body_size.load(Ordering::Relaxed)
    }

    /// Remember `len` as the size the next body of this kind will
    /// probably have.
    pub fn note_body_size(&self, len: usize) {
        self.last_body_size.store(len, Ordering::Relaxed);
    }

    /// The phase-histogram block, for callers that batch several records.
    pub fn phase_histograms(&self) -> Arc<PhaseHistograms> {
        self.phases_touched.store(true, Ordering::Relaxed);
        Arc::clone(&self.phases)
    }

    fn has_stats(&self) -> bool {
        self.calls.load(Ordering::Relaxed) > 0 || self.recvs.load(Ordering::Relaxed) > 0
    }

    fn stats(&self) -> MethodStats {
        MethodStats {
            calls: self.calls.load(Ordering::Relaxed),
            serialize_ns: self.serialize_ns.load(Ordering::Relaxed),
            send_ns: self.send_ns.load(Ordering::Relaxed),
            adjustments: self.adjustments.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            recv_alloc_ns: self.recv_alloc_ns.load(Ordering::Relaxed),
            recv_total_ns: self.recv_total_ns.load(Ordering::Relaxed),
            sizes: self.sizes.lock().clone(),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.serialize_ns.store(0, Ordering::Relaxed);
        self.send_ns.store(0, Ordering::Relaxed);
        self.adjustments.store(0, Ordering::Relaxed);
        self.recvs.store(0, Ordering::Relaxed);
        self.recv_alloc_ns.store(0, Ordering::Relaxed);
        self.recv_total_ns.store(0, Ordering::Relaxed);
        self.sizes.lock().clear();
        self.phases_touched.store(false, Ordering::Relaxed);
        self.phases.reset();
    }
}

/// Ids below this resolve through the lock-free per-registry pointer
/// table; later ids (a workload with thousands of distinct keys) fall
/// back to a mutex-guarded map, correct but not lock-free.
const FAST_ENTRIES: usize = 4096;

struct MetricsInner {
    /// id-indexed entry table. A slot is written once (under the
    /// `overflow` mutex) and never replaced or freed while the registry
    /// lives, which is what makes the lock-free read safe.
    entries: Box<[AtomicPtr<MethodEntry>; FAST_ENTRIES]>,
    /// Entries for ids beyond the fast table.
    overflow: Mutex<HashMap<u32, Arc<MethodEntry>>>,
    shards: Mutex<Vec<(ShardRole, usize, Arc<ShardStats>)>>,
    trace_sizes: AtomicBool,
    retries: AtomicU64,
    reconnects: AtomicU64,
    failed_calls: AtomicU64,
    frame_errors: AtomicU64,
    broken_sends: AtomicU64,
    late_responses: AtomicU64,
    busy_rejections: AtomicU64,
    accept_rejections: AtomicU64,
    deadline_sheds: AtomicU64,
    retry_cache_hits: AtomicU64,
    retry_cache_parked: AtomicU64,
    retry_cache_evictions: AtomicU64,
    retry_cache_expired: AtomicU64,
    resp_bodies_reused: AtomicU64,
    resp_bodies_fresh: AtomicU64,
    resp_sent_behind: AtomicU64,
    /// Per-tenant rejection/shed counters. Mutex-guarded: these paths run
    /// only when a call is refused or shed, never on the per-call hot
    /// path. Bounded at [`TENANT_TRACK_CAP`] distinct tenants.
    tenants: Mutex<HashMap<u64, TenantCells>>,
}

/// Mutable per-tenant counter cell (see `MetricsInner::tenants`).
#[derive(Debug, Default, Clone, Copy)]
struct TenantCells {
    busy_rejections: u64,
    deadline_sheds: u64,
}

/// Hard bound on distinct tenants tracked individually; beyond it, new
/// tenants still count in the global totals but get no per-tenant row.
const TENANT_TRACK_CAP: usize = 1024;

impl Default for MetricsInner {
    fn default() -> Self {
        MetricsInner {
            entries: Box::new(std::array::from_fn(
                |_| AtomicPtr::new(std::ptr::null_mut()),
            )),
            overflow: Mutex::new(HashMap::new()),
            shards: Mutex::new(Vec::new()),
            trace_sizes: AtomicBool::new(false),
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            failed_calls: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            broken_sends: AtomicU64::new(0),
            late_responses: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            accept_rejections: AtomicU64::new(0),
            deadline_sheds: AtomicU64::new(0),
            retry_cache_hits: AtomicU64::new(0),
            retry_cache_parked: AtomicU64::new(0),
            retry_cache_evictions: AtomicU64::new(0),
            retry_cache_expired: AtomicU64::new(0),
            resp_bodies_reused: AtomicU64::new(0),
            resp_bodies_fresh: AtomicU64::new(0),
            resp_sent_behind: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }
}

impl Drop for MetricsInner {
    fn drop(&mut self) {
        // Reclaim the `Arc` strong count parked in each fast slot. No
        // reader can be concurrent with drop of the last registry handle.
        for slot in self.entries.iter() {
            let ptr = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !ptr.is_null() {
                drop(unsafe { Arc::from_raw(ptr) });
            }
        }
    }
}

impl MetricsInner {
    /// The entry for an interned key if it exists in this registry;
    /// lock-free for fast-table ids, never creates.
    fn entry_if_present(&self, key: MethodKey) -> Option<Arc<MethodEntry>> {
        let id = key.id().0 as usize;
        if id < FAST_ENTRIES {
            let ptr = self.entries[id].load(Ordering::Acquire);
            if ptr.is_null() {
                return None;
            }
            // Safe: the slot is written once and freed only when the
            // registry itself drops, so `ptr` outlives this call.
            unsafe {
                Arc::increment_strong_count(ptr);
                return Some(Arc::from_raw(ptr));
            }
        }
        self.overflow.lock().get(&key.id().0).cloned()
    }

    /// Iterate every live entry (fast table + overflow).
    fn for_each_entry(&self, mut f: impl FnMut(&MethodEntry)) {
        for slot in self.entries.iter() {
            let ptr = slot.load(Ordering::Acquire);
            if !ptr.is_null() {
                f(unsafe { &*ptr });
            }
        }
        for e in self.overflow.lock().values() {
            f(e);
        }
    }
}

impl MetricsRegistry {
    pub fn new(trace_sizes: bool) -> Self {
        let reg = MetricsRegistry::default();
        reg.inner.trace_sizes.store(trace_sizes, Ordering::Relaxed);
        reg
    }

    /// The counter block for an interned key, created on first use.
    /// Steady state is one atomic load plus an `Arc` bump — no map lock.
    /// Hot-path callers cache the returned handle and record through it.
    pub fn entry(&self, key: MethodKey) -> Arc<MethodEntry> {
        if let Some(e) = self.inner.entry_if_present(key) {
            return e;
        }
        let id = key.id().0 as usize;
        let mut overflow = self.inner.overflow.lock();
        // Re-check under the creation lock.
        if id < FAST_ENTRIES {
            let ptr = self.inner.entries[id].load(Ordering::Acquire);
            if !ptr.is_null() {
                unsafe {
                    Arc::increment_strong_count(ptr);
                    return Arc::from_raw(ptr);
                }
            }
            let entry = Arc::new(MethodEntry::new(
                key,
                self.inner.trace_sizes.load(Ordering::Relaxed),
            ));
            let raw = Arc::into_raw(Arc::clone(&entry));
            self.inner.entries[id].store(raw as *mut MethodEntry, Ordering::Release);
            return entry;
        }
        Arc::clone(overflow.entry(key.id().0).or_insert_with(|| {
            Arc::new(MethodEntry::new(
                key,
                self.inner.trace_sizes.load(Ordering::Relaxed),
            ))
        }))
    }

    /// Record a client-side send profile (`&str` convenience; resolves
    /// through the interner).
    pub fn record_call(&self, protocol: &str, method: &str, profile: CallProfile) {
        self.entry(intern::method_key(protocol, method))
            .record_call(profile);
    }

    /// Record a receive-side profile (`&str` convenience).
    pub fn record_recv(&self, protocol: &str, method: &str, profile: RecvProfile) {
        self.entry(intern::method_key(protocol, method))
            .record_recv(profile);
    }

    /// Snapshot of every tracked key, sorted by (protocol, method).
    pub fn snapshot(&self) -> Vec<((String, String), MethodStats)> {
        let mut out = Vec::new();
        self.inner.for_each_entry(|e| {
            if e.has_stats() {
                let key = e.key();
                out.push((
                    (key.protocol().to_owned(), key.method().to_owned()),
                    e.stats(),
                ));
            }
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The phase-histogram set for a key, creating it on first use. The
    /// returned `Arc` can be cached by hot-path callers so subsequent
    /// records skip the registry entirely.
    pub fn phase_histograms(&self, protocol: &str, method: &str) -> Arc<PhaseHistograms> {
        self.entry(intern::method_key(protocol, method))
            .phase_histograms()
    }

    /// Record one sample of `ns` into `phase` for `<protocol, method>`.
    pub fn record_phase(&self, protocol: &str, method: &str, phase: Phase, ns: u64) {
        self.entry(intern::method_key(protocol, method))
            .record_phase(phase, ns);
    }

    /// Snapshot of every key's phase histograms, sorted by key.
    pub fn phase_snapshot(&self) -> Vec<((String, String), PhaseSnapshot)> {
        let mut out = Vec::new();
        self.inner.for_each_entry(|e| {
            if e.phases_touched.load(Ordering::Relaxed) {
                let key = e.key();
                out.push((
                    (key.protocol().to_owned(), key.method().to_owned()),
                    e.phases.snapshot(),
                ));
            }
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Register one pipeline shard's counter block. Called by server
    /// construction; the returned `Arc` is owned by the shard thread.
    pub fn register_shard(&self, role: ShardRole, index: usize) -> Arc<ShardStats> {
        let stats = Arc::new(ShardStats::default());
        self.inner
            .shards
            .lock()
            .push((role, index, Arc::clone(&stats)));
        stats
    }

    /// Snapshot of every registered shard's counters, sorted by
    /// (role, index).
    pub fn shard_snapshot(&self) -> Vec<ShardSnapshot> {
        let shards = self.inner.shards.lock();
        let mut out: Vec<_> = shards
            .iter()
            .map(|(role, index, s)| ShardSnapshot {
                role: *role,
                index: *index,
                connections: s.connections.load(Ordering::Relaxed),
                queue_depth: s.queue_depth.load(Ordering::Relaxed),
                queue_depth_max: s.queue_depth_max.load(Ordering::Relaxed),
                processed: s.processed.load(Ordering::Relaxed),
                busy_rejections: s.busy_rejections.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
                parks: s.parks.load(Ordering::Relaxed),
                wakes: s.wakes.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|s| (s.role, s.index));
        out
    }

    /// Unified snapshot: method aggregates, phase histograms, engine
    /// counters, and (if the caller's transport has one) pool counters.
    pub fn full_snapshot(&self, pool: Option<PoolCounters>) -> MetricsSnapshot {
        MetricsSnapshot {
            methods: self.snapshot(),
            phases: self.phase_snapshot(),
            counters: self.counters(),
            pool,
            shards: self.shard_snapshot(),
            tenants: self.tenant_snapshot(),
            // Conn-table figures are the server's to fill; a bare
            // registry has no connection view.
            connections: 0,
            conn_buffered_bytes: 0,
        }
    }

    /// Statistics for a single key, if present. Allocation-free lookup:
    /// the `&str` pair resolves through the interner's lock-free table,
    /// never cloning the key halves (the returned stats are a copy).
    pub fn get(&self, protocol: &str, method: &str) -> Option<MethodStats> {
        let key = intern::lookup(protocol, method)?;
        let entry = self.inner.entry_if_present(key)?;
        if entry.has_stats() {
            Some(entry.stats())
        } else {
            None
        }
    }

    pub fn inc_retries(&self) {
        self.inner.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_reconnects(&self) {
        self.inner.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_failed_calls(&self) {
        self.inner.failed_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_frame_errors(&self) {
        self.inner.frame_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_broken_sends(&self) {
        self.inner.broken_sends.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_late_responses(&self) {
        self.inner.late_responses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_busy_rejections(&self) {
        self.inner.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection refused at the accept path (connection-level
    /// backpressure, as opposed to the per-call `busy_rejections`).
    pub fn inc_accept_rejections(&self) {
        self.inner.accept_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one busy rejection, attributed to `tenant` (the handshake
    /// `client_id`). Bumps the global counter too.
    pub fn inc_busy_rejections_for(&self, tenant: u64) {
        self.inc_busy_rejections();
        self.bump_tenant(tenant, |c| c.busy_rejections += 1);
    }

    /// Count one deadline shed, attributed to `tenant`.
    pub fn inc_deadline_sheds_for(&self, tenant: u64) {
        self.inner.deadline_sheds.fetch_add(1, Ordering::Relaxed);
        self.bump_tenant(tenant, |c| c.deadline_sheds += 1);
    }

    fn bump_tenant(&self, tenant: u64, f: impl FnOnce(&mut TenantCells)) {
        let mut tenants = self.inner.tenants.lock();
        if tenants.len() >= TENANT_TRACK_CAP && !tenants.contains_key(&tenant) {
            return;
        }
        f(tenants.entry(tenant).or_default());
    }

    /// Per-tenant admission counters, sorted by `client_id`.
    pub fn tenant_snapshot(&self) -> Vec<TenantSnapshot> {
        let mut out: Vec<TenantSnapshot> = self
            .inner
            .tenants
            .lock()
            .iter()
            .map(|(&client_id, cells)| TenantSnapshot {
                client_id,
                busy_rejections: cells.busy_rejections,
                deadline_sheds: cells.deadline_sheds,
            })
            .collect();
        out.sort_by_key(|t| t.client_id);
        out
    }

    pub fn inc_retry_cache_hits(&self) {
        self.inner.retry_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_retry_cache_parked(&self) {
        self.inner
            .retry_cache_parked
            .fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_retry_cache_evictions(&self) {
        self.inner
            .retry_cache_evictions
            .fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_retry_cache_expired(&self) {
        self.inner
            .retry_cache_expired
            .fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_resp_bodies_reused(&self) {
        self.inner
            .resp_bodies_reused
            .fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_resp_bodies_fresh(&self) {
        self.inner.resp_bodies_fresh.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_resp_sent_behind(&self, n: u64) {
        self.inner.resp_sent_behind.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of the resilience counters.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            retries: self.inner.retries.load(Ordering::Relaxed),
            reconnects: self.inner.reconnects.load(Ordering::Relaxed),
            failed_calls: self.inner.failed_calls.load(Ordering::Relaxed),
            frame_errors: self.inner.frame_errors.load(Ordering::Relaxed),
            broken_sends: self.inner.broken_sends.load(Ordering::Relaxed),
            late_responses: self.inner.late_responses.load(Ordering::Relaxed),
            busy_rejections: self.inner.busy_rejections.load(Ordering::Relaxed),
            accept_rejections: self.inner.accept_rejections.load(Ordering::Relaxed),
            deadline_sheds: self.inner.deadline_sheds.load(Ordering::Relaxed),
            retry_cache_hits: self.inner.retry_cache_hits.load(Ordering::Relaxed),
            retry_cache_parked: self.inner.retry_cache_parked.load(Ordering::Relaxed),
            retry_cache_evictions: self.inner.retry_cache_evictions.load(Ordering::Relaxed),
            retry_cache_expired: self.inner.retry_cache_expired.load(Ordering::Relaxed),
            resp_bodies_reused: self.inner.resp_bodies_reused.load(Ordering::Relaxed),
            resp_bodies_fresh: self.inner.resp_bodies_fresh.load(Ordering::Relaxed),
            resp_sent_behind: self.inner.resp_sent_behind.load(Ordering::Relaxed),
        }
    }

    /// Drop all recorded data (between benchmark phases). Method entries
    /// are zeroed in place (cached hot-path handles stay valid); shard
    /// counters are zeroed but stay registered — their threads hold the
    /// `Arc`s.
    pub fn reset(&self) {
        self.inner.for_each_entry(|e| e.reset());
        for (_, _, s) in self.inner.shards.lock().iter() {
            s.connections.store(0, Ordering::Relaxed);
            s.queue_depth.store(0, Ordering::Relaxed);
            s.queue_depth_max.store(0, Ordering::Relaxed);
            s.processed.store(0, Ordering::Relaxed);
            s.busy_rejections.store(0, Ordering::Relaxed);
            s.steals.store(0, Ordering::Relaxed);
            s.parks.store(0, Ordering::Relaxed);
            s.wakes.store(0, Ordering::Relaxed);
        }
        self.inner.retries.store(0, Ordering::Relaxed);
        self.inner.reconnects.store(0, Ordering::Relaxed);
        self.inner.failed_calls.store(0, Ordering::Relaxed);
        self.inner.frame_errors.store(0, Ordering::Relaxed);
        self.inner.broken_sends.store(0, Ordering::Relaxed);
        self.inner.late_responses.store(0, Ordering::Relaxed);
        self.inner.busy_rejections.store(0, Ordering::Relaxed);
        self.inner.accept_rejections.store(0, Ordering::Relaxed);
        self.inner.deadline_sheds.store(0, Ordering::Relaxed);
        self.inner.tenants.lock().clear();
        self.inner.retry_cache_hits.store(0, Ordering::Relaxed);
        self.inner.retry_cache_parked.store(0, Ordering::Relaxed);
        self.inner.retry_cache_evictions.store(0, Ordering::Relaxed);
        self.inner.retry_cache_expired.store(0, Ordering::Relaxed);
        self.inner.resp_bodies_reused.store(0, Ordering::Relaxed);
        self.inner.resp_bodies_fresh.store(0, Ordering::Relaxed);
        self.inner.resp_sent_behind.store(0, Ordering::Relaxed);
    }
}

/// Convenience: time a closure, returning (result, elapsed).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_are_per_call() {
        let reg = MetricsRegistry::new(false);
        for i in 0..4 {
            reg.record_call(
                "p",
                "m",
                CallProfile {
                    serialize_ns: 1000,
                    send_ns: 500,
                    adjustments: i % 2,
                    size: 64,
                },
            );
        }
        let stats = reg.get("p", "m").unwrap();
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.avg_serialize_us(), 1.0);
        assert_eq!(stats.avg_send_us(), 0.5);
        assert_eq!(stats.avg_adjustments(), 0.5);
        assert!(stats.sizes.is_empty(), "tracing disabled");
    }

    #[test]
    fn size_tracing_keeps_order() {
        let reg = MetricsRegistry::new(true);
        for size in [100usize, 430, 431, 90] {
            reg.record_call(
                "p",
                "m",
                CallProfile {
                    size,
                    ..Default::default()
                },
            );
        }
        assert_eq!(reg.get("p", "m").unwrap().sizes, vec![100, 430, 431, 90]);
    }

    #[test]
    fn alloc_ratio_matches_fig1_definition() {
        let reg = MetricsRegistry::new(false);
        reg.record_recv(
            "p",
            "m",
            RecvProfile {
                alloc_ns: 30,
                total_ns: 100,
                size: 10,
            },
        );
        reg.record_recv(
            "p",
            "m",
            RecvProfile {
                alloc_ns: 10,
                total_ns: 100,
                size: 10,
            },
        );
        let stats = reg.get("p", "m").unwrap();
        assert!((stats.alloc_ratio() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn keys_are_protocol_and_method() {
        let reg = MetricsRegistry::new(false);
        reg.record_call("a", "m", CallProfile::default());
        reg.record_call("b", "m", CallProfile::default());
        assert_eq!(reg.snapshot().len(), 2);
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(1); // [1,1] -> bucket 1
        h.record(900); // [512,1023] -> bucket 10
        h.record(1023);
        h.record(1024); // bucket 11
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max_ns, 1024);
        assert_eq!(s.sum_ns, 1 + 1 + 900 + 1023 + 1024);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[10], 2);
        assert_eq!(s.buckets[11], 1);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..98 {
            h.record(100); // bucket 7: [64,127]
        }
        h.record(5_000); // bucket 13
        h.record(1 << 35); // top-ish sample
        let s = h.snapshot();
        assert_eq!(s.p50_ns(), 127);
        assert_eq!(s.p95_ns(), 127);
        assert_eq!(s.quantile_ns(0.99), 8191);
        assert_eq!(s.quantile_ns(1.0), (1u64 << 36) - 1);
        let empty = LatencyHistogram::default().snapshot();
        assert_eq!(empty.p99_ns(), 0);
        assert_eq!(empty.mean_ns(), 0.0);
    }

    #[test]
    fn huge_samples_saturate_into_top_bucket() {
        let h = LatencyHistogram::default();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.p99_ns(), u64::MAX, "top bucket reports observed max");
    }

    #[test]
    fn phase_histograms_key_by_protocol_method() {
        let reg = MetricsRegistry::new(false);
        reg.record_phase("p", "m", Phase::Serialize, 10);
        reg.record_phase("p", "m", Phase::Serialize, 20);
        reg.record_phase("p", "m", Phase::Wire, 1000);
        reg.record_phase("p", "other", Phase::Handler, 5);
        let phases = reg.phase_snapshot();
        assert_eq!(phases.len(), 2);
        let pm = reg
            .full_snapshot(None)
            .phase("p", "m")
            .cloned()
            .expect("key recorded");
        assert_eq!(pm.get(Phase::Serialize).count, 2);
        assert_eq!(pm.get(Phase::Wire).count, 1);
        assert_eq!(pm.get(Phase::Deserialize).count, 0);
        assert_eq!(pm.iter().count(), PHASE_COUNT);
        reg.reset();
        assert!(reg.phase_snapshot().is_empty());
    }

    #[test]
    fn full_snapshot_carries_pool_counters() {
        let reg = MetricsRegistry::new(false);
        let snap = reg.full_snapshot(Some(PoolCounters {
            history_hits: 3,
            cold: 1,
            ..Default::default()
        }));
        let pool = snap.pool.expect("pool attached");
        assert_eq!(pool.history_hits, 3);
        assert_eq!(pool.cold, 1);
        assert!(reg.full_snapshot(None).pool.is_none());
    }

    #[test]
    fn shard_stats_snapshot_sorted_and_resettable() {
        let reg = MetricsRegistry::new(false);
        let resp = reg.register_shard(ShardRole::Responder, 0);
        let r1 = reg.register_shard(ShardRole::Reader, 1);
        let r0 = reg.register_shard(ShardRole::Reader, 0);
        r0.conn_added();
        r0.conn_added();
        r0.conn_removed();
        r0.inc_processed();
        r1.inc_busy();
        resp.enqueued();
        resp.enqueued();
        resp.dequeued();
        let snap = reg.shard_snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|s| (s.role, s.index)).collect::<Vec<_>>(),
            vec![
                (ShardRole::Reader, 0),
                (ShardRole::Reader, 1),
                (ShardRole::Responder, 0)
            ]
        );
        assert_eq!(snap[0].connections, 1);
        assert_eq!(snap[0].processed, 1);
        assert_eq!(snap[1].busy_rejections, 1);
        assert_eq!(snap[2].queue_depth, 1);
        assert_eq!(snap[2].queue_depth_max, 2);
        reg.reset();
        let snap = reg.shard_snapshot();
        assert_eq!(snap.len(), 3, "registration survives reset");
        assert!(snap.iter().all(|s| s.queue_depth_max == 0));
    }

    #[test]
    fn engine_counters_accumulate_and_reset() {
        let reg = MetricsRegistry::new(false);
        reg.inc_retries();
        reg.inc_retries();
        reg.inc_reconnects();
        reg.inc_failed_calls();
        reg.inc_frame_errors();
        reg.inc_broken_sends();
        reg.inc_late_responses();
        reg.inc_busy_rejections();
        reg.inc_deadline_sheds_for(7);
        reg.inc_retry_cache_hits();
        reg.inc_retry_cache_parked();
        reg.inc_retry_cache_evictions();
        reg.inc_retry_cache_expired();
        reg.inc_resp_bodies_reused();
        reg.inc_resp_bodies_fresh();
        let c = reg.counters();
        assert_eq!(c.retries, 2);
        assert_eq!(c.reconnects, 1);
        assert_eq!(c.failed_calls, 1);
        assert_eq!(c.frame_errors, 1);
        assert_eq!(c.broken_sends, 1);
        assert_eq!(c.late_responses, 1);
        assert_eq!(c.busy_rejections, 1);
        assert_eq!(c.deadline_sheds, 1);
        assert_eq!(c.retry_cache_hits, 1);
        assert_eq!(c.retry_cache_parked, 1);
        assert_eq!(c.retry_cache_evictions, 1);
        assert_eq!(c.retry_cache_expired, 1);
        assert_eq!((c.resp_bodies_reused, c.resp_bodies_fresh), (1, 1));
        reg.reset();
        assert_eq!(reg.counters(), EngineCounters::default());
        assert!(reg.tenant_snapshot().is_empty(), "reset clears tenants");
    }

    #[test]
    fn tenant_counters_attribute_and_bound() {
        let reg = MetricsRegistry::new(false);
        reg.inc_busy_rejections_for(9);
        reg.inc_busy_rejections_for(9);
        reg.inc_busy_rejections_for(3);
        reg.inc_deadline_sheds_for(9);
        let c = reg.counters();
        assert_eq!(c.busy_rejections, 3, "per-tenant bumps count globally too");
        assert_eq!(c.deadline_sheds, 1);
        let tenants = reg.tenant_snapshot();
        assert_eq!(
            tenants,
            vec![
                TenantSnapshot {
                    client_id: 3,
                    busy_rejections: 1,
                    deadline_sheds: 0,
                },
                TenantSnapshot {
                    client_id: 9,
                    busy_rejections: 2,
                    deadline_sheds: 1,
                },
            ]
        );
        // The per-tenant table is bounded: tenants beyond the cap keep
        // counting globally but get no individual row.
        for t in 0..(TENANT_TRACK_CAP as u64 + 64) {
            reg.inc_busy_rejections_for(t + 1000);
        }
        assert_eq!(reg.tenant_snapshot().len(), TENANT_TRACK_CAP);
        assert_eq!(
            reg.counters().busy_rejections,
            3 + TENANT_TRACK_CAP as u64 + 64
        );
    }
}
