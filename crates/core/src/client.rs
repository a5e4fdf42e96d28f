//! The RPC client: caller threads, and nothing else.
//!
//! Callers serialize and transmit on their own thread (so per-call
//! serialization cost lands on the caller, as in Hadoop) and register the
//! call's sequence number in the pending table. The paper keeps Hadoop's
//! second client thread — one **Connection** thread per server owning the
//! receive side (Section III-D); here the waiting caller receives. Each
//! connection has one *receive turn* (a mutex around its response
//! decoder): a caller with no answer yet takes it if it is free and reads
//! the wire itself — its own response returns straight off its stack, a
//! sibling's goes to that sibling's [`CallSlot`] — and parks on its own
//! slot if it is taken. **If any call on a connection is waiting, exactly
//! one waiter holds the turn**: a caller marks itself parked *before* it
//! tries the turn, and every caller that stops waiting promotes a parked
//! one if the turn is free (`ClientConnection::pass_turn`), so either the
//! leaver sees the mark or the marker sees the turn free. An idle
//! connection has no thread and is not watched: a close by the server is
//! discovered by the next call, which fails retryably (DESIGN §6.2.1).
//!
//! Steady-state calls are allocation-free and lock-light on this side:
//! the `<protocol, method>` pair is resolved once to an interned
//! [`MethodKey`] (a `Copy` pointer), the pending table is sharded by
//! sequence number so concurrent callers rarely contend, the caller
//! parks on a pooled, reusable [`CallSlot`] instead of a fresh one-shot
//! channel, and metrics land as relaxed atomic adds on the key's cached
//! entry.
//!
//! At-most-once plumbing: every client mints a stable random `client_id`
//! at construction and presents it in the connect handshake; every
//! logical call draws one wrap-safe `i64` sequence number, and *all*
//! retry attempts of that call re-send the same `(client_id, seq)` pair
//! (with an incrementing `retry_attempt`), so the server's retry cache
//! can deduplicate re-executions.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use simnet::{Fabric, NodeId, SimAddr, SimStream};
use wire::Writable;

use crate::config::RpcConfig;
use crate::error::{RpcError, RpcResult};
use crate::frame::{Payload, ResponseHeader, ResponseStatus, V3Decoder, V3Encoder};
use crate::handshake;
use crate::intern::{self, MethodKey};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, Phase};
use crate::transport::rdma::{IbContext, RdmaConn};
use crate::transport::socket::SocketConn;
use crate::transport::Conn;

/// Pending-table shard count (power of two; sequence numbers are dense,
/// so masking the low bits spreads concurrent callers evenly).
const PENDING_SHARDS: usize = 8;

/// Cap on the dropped-connection reconnect-tracking set. Beyond this many
/// *concurrently dropped* distinct servers, further reconnects may be
/// undercounted — a metrics blemish, accepted so the set stays bounded
/// (its predecessor grew by one entry per server, forever).
const RECONNECT_TRACK_CAP: usize = 256;

/// A response as the receive turn produces it: the lead parsed exactly
/// once (the turn guards the connection's decoder state, so leads are
/// decoded in wire order by whoever holds it), and the frame bytes with
/// the body starting at `body_offset`.
pub struct RawResponse {
    /// The parsed response lead (sequence number and status).
    pub header: ResponseHeader,
    /// The whole response frame.
    pub payload: Payload,
    /// Offset of the response body within `payload` — skip this many
    /// bytes before deserializing the value / error message.
    pub body_offset: usize,
}

/// A reusable rendezvous cell one parked caller waits on.
///
/// Replaces the per-call one-shot channel (whose construction allocated a
/// channel block and queue node on every call): connections keep a
/// freelist of retired slots, and a generation counter distinguishes the
/// call a result belongs to, so a late response delivered to a recycled
/// slot is recognized and dropped instead of leaking into the next call.
struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

struct SlotState {
    gen: u64,
    result: Option<RpcResult<RawResponse>>,
    /// The caller waits (or is about to wait) on this slot for a leader's
    /// delivery; cleared by whoever promotes it to take the turn.
    parked: bool,
}

impl CallSlot {
    fn new() -> Arc<CallSlot> {
        Arc::new(CallSlot {
            state: Mutex::new(SlotState {
                gen: 0,
                result: None,
                parked: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// The generation the next `wait` call will accept results for.
    fn generation(&self) -> u64 {
        self.state.lock().gen
    }

    /// Deliver `result` if the slot is still on generation `gen`;
    /// returns `false` (result dropped) when the caller already retired
    /// the slot — the delivery was late.
    fn deliver(&self, gen: u64, result: RpcResult<RawResponse>) -> bool {
        let mut st = self.state.lock();
        if st.gen != gen {
            return false;
        }
        st.result = Some(result);
        self.cv.notify_one();
        true
    }

    /// Announce this caller as parked. Done *before* trying the turn, so
    /// a leaver whose release we did not see finds us in its scan.
    fn park(&self) {
        self.state.lock().parked = true;
    }

    /// Stop being a follower (the caller took the turn) and pick up a
    /// result the previous leader delivered before it left.
    fn unpark(&self) -> Option<RpcResult<RawResponse>> {
        let mut st = self.state.lock();
        st.parked = false;
        st.result.take()
    }

    /// Wake the generation-`gen` caller to take the turn, if it is parked.
    fn promote(&self, gen: u64) -> bool {
        let mut st = self.state.lock();
        if st.gen != gen || !st.parked {
            return false;
        }
        st.parked = false;
        self.cv.notify_one();
        true
    }

    /// Sleep until a result arrives (returned), a leaver promotes this
    /// caller, or `deadline` passes (both `None`).
    fn wait(&self, deadline: Instant) -> Option<RpcResult<RawResponse>> {
        let mut st = self.state.lock();
        while st.result.is_none() && st.parked && Instant::now() < deadline {
            self.cv.wait_until(&mut st, deadline);
        }
        st.parked = false;
        st.result.take()
    }

    /// Advance the generation (invalidating any in-flight delivery or
    /// promotion) and clear a result that raced in; called before the
    /// slot returns to the freelist.
    fn retire(&self) {
        let mut st = self.state.lock();
        st.gen = st.gen.wrapping_add(1);
        st.result = None;
        st.parked = false;
    }
}

struct PendingCall {
    slot: Arc<CallSlot>,
    gen: u64,
    key: MethodKey,
}

/// The in-flight call table, sharded by sequence number so concurrent
/// callers' inserts and removes and the leader's response lookups contend
/// only when they touch the same shard.
struct PendingTable {
    shards: [Mutex<HashMap<i64, PendingCall>>; PENDING_SHARDS],
    /// Entries across all shards, so a leaving caller learns that nobody
    /// is left to promote without visiting them. `SeqCst`: the leaver's
    /// read must not pass its own release of the turn, nor a newcomer's
    /// insert its later look at the turn.
    len: AtomicUsize,
}

impl PendingTable {
    fn new() -> PendingTable {
        PendingTable {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            len: AtomicUsize::new(0),
        }
    }

    fn shard(&self, seq: i64) -> &Mutex<HashMap<i64, PendingCall>> {
        &self.shards[(seq as u64 as usize) & (PENDING_SHARDS - 1)]
    }

    fn insert(&self, seq: i64, call: PendingCall) {
        if self.shard(seq).lock().insert(seq, call).is_none() {
            self.len.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn remove(&self, seq: i64) -> Option<PendingCall> {
        let call = self.shard(seq).lock().remove(&seq)?;
        self.len.fetch_sub(1, Ordering::SeqCst);
        Some(call)
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Remove every entry, handing each to `f`.
    fn drain(&self, mut f: impl FnMut(PendingCall)) {
        for shard in &self.shards {
            for (_, call) in shard.lock().drain() {
                self.len.fetch_sub(1, Ordering::SeqCst);
                f(call);
            }
        }
    }

    /// Whether `f` accepts some entry; stops at the first it does.
    fn any(&self, mut f: impl FnMut(&PendingCall) -> bool) -> bool {
        self.shards
            .iter()
            .any(|shard| shard.lock().values().any(&mut f))
    }
}

struct ClientConnection {
    conn: Arc<dyn Conn>,
    server: SimAddr,
    /// Request-header encoder (delta seq + method table). Its state
    /// advances at the transport's wire-ordering point — `send_msg_ordered`
    /// runs the lead closure under the transport's own ordering lock — so
    /// this mutex only ever guards one encode at a time.
    enc: Mutex<V3Encoder>,
    /// The receive turn. Holding this lock *is* being the connection's
    /// one receiver (the [`Conn`] contract); it guards the response
    /// decoder because leads must be decoded in wire order, which only
    /// the receiver knows.
    recv: Mutex<V3Decoder>,
    pending: PendingTable,
    /// Retired call slots awaiting reuse; bounded by this connection's
    /// peak caller concurrency.
    slots: Mutex<Vec<Arc<CallSlot>>>,
    broken: AtomicBool,
    /// Times a caller was woken through its slot by another caller — a
    /// sibling's response delivered, or the turn passed on.
    handoffs: AtomicU64,
}

impl ClientConnection {
    fn acquire_slot(&self) -> Arc<CallSlot> {
        self.slots.lock().pop().unwrap_or_else(CallSlot::new)
    }

    fn release_slot(&self, slot: Arc<CallSlot>) {
        slot.retire();
        self.slots.lock().push(slot);
    }

    /// Close the transport — which is what gets a leader out of a blocked
    /// `recv_msg` — and fail every pending call with `err`.
    fn fail_all(&self, err: RpcError) {
        self.broken.store(true, Ordering::Release);
        self.conn.close();
        self.pending.drain(|call| {
            call.slot.deliver(call.gen, Err(err.clone()));
        });
    }

    /// Keep the turn invariant on the way out: a caller that stops
    /// waiting, having released the turn and removed its own entry,
    /// promotes one parked follower if calls remain and nobody leads.
    /// Promoting while some third caller takes the turn is harmless — the
    /// woken follower finds it taken and parks again.
    fn pass_turn(&self) {
        if self.pending.len() == 0 || self.recv.try_lock().is_none() {
            return;
        }
        if self.pending.any(|call| call.slot.promote(call.gen)) {
            self.handoffs.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct ClientInner {
    fabric: Fabric,
    node: NodeId,
    cfg: RpcConfig,
    ib: Option<IbContext>,
    /// Stable identity presented in every connect handshake; keys the
    /// server's retry cache together with the per-call sequence number.
    /// Atomic because a client that presents `0` adopts the id the server
    /// assigns in the handshake ack and re-presents it from then on.
    client_id: AtomicU64,
    conns: Mutex<HashMap<SimAddr, Arc<ClientConnection>>>,
    /// Serializes connection establishment: concurrent first callers must
    /// not each bootstrap a connection (an RPCoIB bootstrap registers a
    /// receive ring and a large region on *both* sides — losers of a
    /// connect race would leak all of it as zombies).
    connect_lock: Mutex<()>,
    /// Next call sequence number. `i64` so it cannot realistically wrap
    /// (the old `i32` call id went negative after 2³¹ calls).
    next_seq: AtomicI64,
    metrics: MetricsRegistry,
    stopped: AtomicBool,
    /// Makes retry backoffs interruptible: `shutdown` flips `stopped` and
    /// notifies under this lock, so a caller parked between attempts wakes
    /// immediately instead of sleeping out the full pause.
    stop_lock: Mutex<()>,
    stop_cv: Condvar,
    /// Servers whose connection has been dropped from `conns`: a later
    /// establishment to one of them is a *re*connect (counted, and the
    /// entry removed). Unlike the ever-connected set it replaces, this is
    /// empty in steady state and bounded by [`RECONNECT_TRACK_CAP`].
    reconnectable: Mutex<HashSet<SimAddr>>,
}

impl ClientInner {
    /// Drop `connection` from the cache — but only if it is still the
    /// cached entry. A concurrent caller may already have replaced it
    /// with a fresh, healthy connection that must not be torn down.
    fn forget_connection(&self, connection: &Arc<ClientConnection>) {
        let removed = {
            let mut conns = self.conns.lock();
            match conns.get(&connection.server) {
                Some(current) if Arc::ptr_eq(current, connection) => {
                    conns.remove(&connection.server);
                    true
                }
                _ => false,
            }
        };
        if removed {
            let mut tracked = self.reconnectable.lock();
            if tracked.len() < RECONNECT_TRACK_CAP || tracked.contains(&connection.server) {
                tracked.insert(connection.server);
            }
        }
    }

    /// Close every cached connection and fail what waits on it: closing
    /// the transport gets a leader out of a blocked `recv_msg`, failing
    /// the table wakes every follower, and there is no thread to join.
    fn close_all(&self) {
        for (_, conn) in self.conns.lock().drain() {
            conn.fail_all(RpcError::ConnectionClosed);
        }
    }

    /// Give `connection` up for `err`. Evict before failing the waiters,
    /// so a retrying caller that wakes on `fail_all` finds the cache
    /// already clean and reconnects instead of reusing this dead entry.
    fn fail_connection(&self, connection: &Arc<ClientConnection>, err: RpcError) {
        self.forget_connection(connection);
        connection.fail_all(err);
    }
}

/// Removes one call's pending-table entry on drop, returns its slot to
/// the connection's freelist and passes the receive turn on, so *every*
/// exit from [`Client::try_call`] — response received, timeout, send
/// failure, busy rejection, even a panic while waiting — leaves the table
/// clean and the remaining callers led. The entry removal is a no-op on
/// paths where a leader already removed it (response delivery,
/// `fail_all`); retiring the slot advances its generation so any
/// still-in-flight delivery is dropped as late rather than leaking into
/// the slot's next call. Declared before the turn is taken, so it drops
/// after the turn is released.
struct PendingGuard<'a> {
    connection: &'a ClientConnection,
    seq: i64,
    slot: Option<Arc<CallSlot>>,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.connection.pending.remove(self.seq);
        if let Some(slot) = self.slot.take() {
            self.connection.release_slot(slot);
        }
        self.connection.pass_turn();
    }
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // Last user-held handle gone (so no call is in flight): release
        // every connection's buffers.
        self.stopped.store(true, Ordering::Release);
        self.close_all();
    }
}

/// An RPC client anchored on one simulated node.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ClientInner>,
}

impl Client {
    /// Create a client on `node`. In RPCoIB mode this opens the HCA and
    /// pre-registers the buffer pool.
    pub fn new(fabric: &Fabric, node: NodeId, cfg: RpcConfig) -> RpcResult<Client> {
        cfg.validate().map_err(RpcError::Config)?;
        let ib = if cfg.ib_enabled {
            Some(IbContext::new(fabric, node, &cfg)?)
        } else {
            None
        };
        let trace = cfg.trace_sizes;
        Ok(Client {
            inner: Arc::new(ClientInner {
                fabric: fabric.clone(),
                node,
                cfg,
                ib,
                client_id: AtomicU64::new(handshake::mint_client_id(u64::from(node.0))),
                conns: Mutex::new(HashMap::new()),
                connect_lock: Mutex::new(()),
                next_seq: AtomicI64::new(1),
                metrics: MetricsRegistry::new(trace),
                stopped: AtomicBool::new(false),
                stop_lock: Mutex::new(()),
                stop_cv: Condvar::new(),
                reconnectable: Mutex::new(HashSet::new()),
            }),
        })
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The stable identity this client presents at every connect
    /// handshake.
    pub fn client_id(&self) -> u64 {
        self.inner.client_id.load(Ordering::Acquire)
    }

    /// Overwrite the client identity (regression-testing the handshake's
    /// assign-on-zero path). Calls made before the next connect keep the
    /// old id; normal code never needs this.
    #[doc(hidden)]
    pub fn force_client_id(&self, id: u64) {
        self.inner.client_id.store(id, Ordering::Release);
    }

    /// Client-side metrics (Table I and Figure 3 read these).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// RPCoIB buffer-pool counters (hits, misses, returns, oversize);
    /// `None` on the socket transport.
    pub fn pool_stats(&self) -> Option<(u64, u64, u64, u64)> {
        self.inner.ib.as_ref().map(|ib| ib.pool_stats())
    }

    /// Pre-register `per_class` buffers in every pool class up to
    /// `max_bytes` (see [`IbContext::prewarm`]); no-op on the socket
    /// transport. Callers that know their payload sizes use this to move
    /// jumbo-class registration costs out of the first large call.
    pub fn prewarm_pool(&self, max_bytes: usize, per_class: usize) {
        if let Some(ib) = &self.inner.ib {
            ib.prewarm(max_bytes, per_class);
        }
    }

    /// Unified observability snapshot: per-method aggregates, per-phase
    /// latency histograms, engine counters, and (in RPCoIB mode) the
    /// buffer pool's shadow + native counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .metrics
            .full_snapshot(self.inner.ib.as_ref().map(|ib| ib.pool_counters()))
    }

    /// Number of cached (possibly broken) server connections.
    pub fn connection_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Calls currently awaiting a response, summed over every cached
    /// connection. Regression hook for the pending-table lifecycle: once
    /// no calls are in flight this must be 0 — any other value is a leaked
    /// entry whose caller has already given up.
    pub fn pending_calls(&self) -> usize {
        self.inner
            .conns
            .lock()
            .values()
            .map(|c| c.pending.len())
            .sum()
    }

    /// Times a caller on a cached connection was woken by another caller
    /// (a sibling's response delivered to its slot, or the receive turn
    /// passed on). Regression hook for the receive discipline: a lone
    /// caller receives its own responses, so this stays 0.
    #[doc(hidden)]
    pub fn recv_handoffs(&self) -> u64 {
        self.inner
            .conns
            .lock()
            .values()
            .map(|c| c.handoffs.load(Ordering::Relaxed))
            .sum()
    }

    /// Servers currently tracked as dropped-and-reconnectable.
    /// Regression hook for the tracking set's boundedness: it must
    /// return to 0 once every dropped server has been reconnected to
    /// (or never exceed [`RECONNECT_TRACK_CAP`] regardless of churn).
    #[doc(hidden)]
    pub fn reconnect_tracking_len(&self) -> usize {
        self.inner.reconnectable.lock().len()
    }

    /// Jump the sequence counter (regression-testing wraparound paths).
    #[doc(hidden)]
    pub fn force_next_seq(&self, seq: i64) {
        self.inner.next_seq.store(seq, Ordering::Relaxed);
    }

    /// Invoke `protocol.method(request)` on the server at `server` and
    /// deserialize the response into `Resp`.
    pub fn call<Req, Resp>(
        &self,
        server: SimAddr,
        protocol: &str,
        method: &str,
        request: &Req,
    ) -> RpcResult<Resp>
    where
        Req: Writable,
        Resp: Writable + Default,
    {
        let key = intern::method_key(protocol, method);
        let resp = self.call_raw_keyed(server, key, request)?;
        let deser_start = Instant::now();
        let result = (|| {
            let mut reader = resp.payload.reader();
            // The lead was parsed under the receive turn (which guards the
            // decoder state); jump straight to the body.
            reader.skip(resp.body_offset);
            match resp.header.status {
                ResponseStatus::Ok => {
                    let mut resp = Resp::default();
                    resp.read_fields(&mut reader)
                        .map_err(|e| RpcError::Protocol(e.to_string()))?;
                    Ok(resp)
                }
                ResponseStatus::Error => {
                    let mut message = String::new();
                    message
                        .read_fields(&mut reader)
                        .map_err(|e| RpcError::Protocol(e.to_string()))?;
                    Err(RpcError::Remote(message))
                }
                // try_call surfaces busy and expired rejections as errors
                // before the payload ever reaches here; kept for
                // raw-payload safety.
                ResponseStatus::Busy => Err(RpcError::ServerBusy),
                ResponseStatus::Expired => Err(RpcError::DeadlineExpired),
            }
        })();
        self.inner
            .metrics
            .entry(key)
            .record_phase(Phase::Deserialize, deser_start.elapsed().as_nanos() as u64);
        if result.is_err() {
            // A remote exception (or unparseable response) is as
            // definitive a failure as exhausted retries: count it.
            self.inner.metrics.inc_failed_calls();
        }
        result
    }

    /// Like [`Client::call`] but returns the raw response — the parsed
    /// lead plus the frame bytes — for callers that deserialize response
    /// bodies themselves. The decoder state lives under the receive
    /// turn, so the lead comes pre-parsed.
    ///
    /// Drives the configured [`crate::RetryPolicy`]: each attempt gets at
    /// most `call_timeout` (capped by the remaining overall deadline, if
    /// one is set); retryable failures re-attempt after a jittered
    /// backoff, re-establishing the connection when the previous attempt
    /// broke it. Every attempt re-sends the *same* sequence number (with
    /// an incremented `retry_attempt`), so the server can recognize and
    /// deduplicate the retry. Non-retryable errors, exhausted attempts,
    /// and an exhausted deadline fail the call (counted in
    /// [`MetricsRegistry::counters`]).
    pub fn call_raw<Req>(
        &self,
        server: SimAddr,
        protocol: &str,
        method: &str,
        request: &Req,
    ) -> RpcResult<RawResponse>
    where
        Req: Writable,
    {
        self.call_raw_keyed(server, intern::method_key(protocol, method), request)
    }

    fn call_raw_keyed<Req>(
        &self,
        server: SimAddr,
        key: MethodKey,
        request: &Req,
    ) -> RpcResult<RawResponse>
    where
        Req: Writable,
    {
        let policy = self.inner.cfg.retry.clone();
        let start = Instant::now();
        // One sequence number for the whole logical call, retries
        // included — this is what at-most-once keys on.
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        // Decorrelates this call's backoff jitter from concurrent calls'.
        let entropy = seq as u64;
        let mut attempt = 0u32;
        let err = loop {
            attempt += 1;
            let mut attempt_timeout = self.inner.cfg.call_timeout;
            if let Some(deadline) = policy.deadline {
                let remaining = deadline.saturating_sub(start.elapsed());
                if remaining.is_zero() {
                    break RpcError::Timeout;
                }
                attempt_timeout = attempt_timeout.min(remaining);
            }
            match self.try_call(server, key, request, attempt_timeout, seq, attempt - 1) {
                Ok(payload) => return Ok(payload),
                Err(e) => {
                    let exhausted = attempt >= policy.max_attempts
                        || self.inner.stopped.load(Ordering::Acquire);
                    if !e.is_retryable() || exhausted {
                        break e;
                    }
                    let mut pause = policy.backoff(attempt, entropy);
                    if let Some(deadline) = policy.deadline {
                        let remaining = deadline.saturating_sub(start.elapsed());
                        if remaining.is_zero() {
                            break e;
                        }
                        // A busy backoff that would sleep out the whole
                        // remaining budget cannot buy another attempt —
                        // fail fast instead of burning the deadline's tail
                        // parked in the backoff wait.
                        if matches!(e, RpcError::ServerBusy) && pause >= remaining {
                            break e;
                        }
                        pause = pause.min(remaining);
                    }
                    self.inner.metrics.inc_retries();
                    if !pause.is_zero() {
                        // Interruptible backoff: `shutdown` notifies the
                        // condvar, so a stopped client abandons the pause
                        // (and the call) immediately instead of sleeping
                        // it out and burning further attempts.
                        let mut guard = self.inner.stop_lock.lock();
                        if !self.inner.stopped.load(Ordering::Acquire) {
                            self.inner.stop_cv.wait_for(&mut guard, pause);
                        }
                    }
                    if self.inner.stopped.load(Ordering::Acquire) {
                        break RpcError::ConnectionClosed;
                    }
                }
            }
        };
        self.inner.metrics.inc_failed_calls();
        Err(err)
    }

    fn try_call<Req>(
        &self,
        server: SimAddr,
        key: MethodKey,
        request: &Req,
        attempt_timeout: Duration,
        seq: i64,
        retry_attempt: u32,
    ) -> RpcResult<RawResponse>
    where
        Req: Writable,
    {
        if self.inner.stopped.load(Ordering::Acquire) {
            return Err(RpcError::ConnectionClosed);
        }
        let connection = self.get_connection(server)?;
        let slot = connection.acquire_slot();
        let gen = slot.generation();
        connection.pending.insert(
            seq,
            PendingCall {
                slot: Arc::clone(&slot),
                gen,
                key,
            },
        );
        // From here on the guard owns cleanup: no exit path below needs
        // (or is trusted) to remove the entry or recycle the slot by hand.
        let _pending = PendingGuard {
            connection: &connection,
            seq,
            slot: Some(Arc::clone(&slot)),
        };

        // Deadline propagation: ship the attempt's remaining budget so
        // the server can shed the call once it expires instead of
        // executing work this client has already timed out on.
        let budget = Some(attempt_timeout);
        // The frame is split: the header is encoded by the connection's
        // stateful encoder at the transport's wire-ordering point (so
        // delta-seq/method-table state advances in exactly the order
        // frames hit the wire), while the body serializes on this caller
        // thread.
        let sent = connection.conn.send_msg_ordered(
            key,
            &mut |out| {
                connection
                    .enc
                    .lock()
                    .write_request_header(out, seq, retry_attempt, budget, key)
            },
            &mut |out| request.write(out),
        );
        let profile = match sent {
            Ok(p) => p,
            Err(e) => {
                if e.invalidates_connection() {
                    self.inner.fail_connection(&connection, e.clone());
                }
                return Err(e);
            }
        };
        self.inner.metrics.entry(key).record_call(profile);

        let deadline = Instant::now() + attempt_timeout;
        let resp = self.await_response(&connection, &slot, seq, deadline)?;
        // A busy rejection means the server refused admission and the call
        // never executed — surface it as a retryable error so the retry
        // loop backs off. An expired rejection means the server shed the
        // call before execution because its propagated deadline passed;
        // non-retryable by construction: a retry's budget would already
        // be spent too.
        match resp.header.status {
            ResponseStatus::Busy => Err(RpcError::ServerBusy),
            ResponseStatus::Expired => Err(RpcError::DeadlineExpired),
            ResponseStatus::Ok | ResponseStatus::Error => Ok(resp),
        }
    }

    /// Wait for call `seq`'s response until `deadline`: as the
    /// connection's receiver if the turn is free, parked on `slot`
    /// otherwise. `Timeout` leaves the connection cached (the server may
    /// simply be slow); only this call gives up, and a response that
    /// still arrives is counted late by whichever leader meets it.
    fn await_response(
        &self,
        connection: &Arc<ClientConnection>,
        slot: &CallSlot,
        seq: i64,
        deadline: Instant,
    ) -> RpcResult<RawResponse> {
        loop {
            slot.park();
            if let Some(mut turn) = connection.recv.try_lock() {
                return match slot.unpark() {
                    Some(result) => result,
                    None => self.lead(connection, &mut turn, slot, seq, deadline),
                };
            }
            if let Some(result) = slot.wait(deadline) {
                return result;
            }
            if Instant::now() >= deadline {
                return Err(RpcError::Timeout);
            }
        }
    }

    /// Hold the receive turn until call `seq`'s own response arrives,
    /// delivering every sibling's response met on the way.
    fn lead(
        &self,
        connection: &Arc<ClientConnection>,
        dec: &mut V3Decoder,
        slot: &CallSlot,
        seq: i64,
        deadline: Instant,
    ) -> RpcResult<RawResponse> {
        let metrics = &self.inner.metrics;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (payload, recv) = match connection.conn.recv_msg(remaining) {
                Ok(v) => v,
                Err(RpcError::Timeout) => return Err(RpcError::Timeout),
                Err(e) => {
                    // Whoever failed the connection first (a sender,
                    // `shutdown`) closed the transport to get us here and
                    // left the cause on our slot; else the cause is ours.
                    return slot.unpark().unwrap_or_else(|| {
                        self.inner.fail_connection(connection, e.clone());
                        Err(e)
                    });
                }
            };
            let mut reader = payload.reader();
            let Ok(header) = dec.read_response_header(&mut reader) else {
                let e = RpcError::Protocol("corrupt response frame".into());
                self.inner.fail_connection(connection, e.clone());
                return Err(e);
            };
            let resp = RawResponse {
                header,
                body_offset: reader.position(),
                payload,
            };
            let call = connection.pending.remove(header.seq);
            if let Some(call) = &call {
                metrics.entry(call.key).record_recv(recv);
            }
            if header.seq == seq {
                return Ok(resp);
            }
            match call {
                Some(call) if call.slot.deliver(call.gen, Ok(resp)) => {
                    connection.handoffs.fetch_add(1, Ordering::Relaxed);
                }
                // No entry: the caller timed out and went away (or a
                // parked duplicate's answer raced the original's). Entry
                // but a retired slot: it gave up between our removal and
                // the delivery. Either way the response is dropped and the
                // connection stays healthy — but the event is visible.
                _ => metrics.inc_late_responses(),
            }
        }
    }

    fn get_connection(&self, server: SimAddr) -> RpcResult<Arc<ClientConnection>> {
        {
            let conns = self.inner.conns.lock();
            if let Some(conn) = conns.get(&server) {
                if !conn.broken.load(Ordering::Acquire) {
                    return Ok(Arc::clone(conn));
                }
            }
        }
        // Establish under the connect lock; a caller that raced in behind
        // the winner finds the fresh connection on the re-check and never
        // bootstraps a duplicate.
        let _guard = self.inner.connect_lock.lock();
        {
            let conns = self.inner.conns.lock();
            if let Some(conn) = conns.get(&server) {
                if !conn.broken.load(Ordering::Acquire) {
                    return Ok(Arc::clone(conn));
                }
            }
        }
        let stream = SimStream::connect(&self.inner.fabric, self.inner.node, server)?;
        // The handshake precedes everything else on the stream
        // (including the RPCoIB endpoint exchange). Adopt the id the
        // server confirmed: for a client that presented 0 this is the
        // server-assigned identity it must re-present from now on.
        let confirmed =
            handshake::client_hello(&stream, self.inner.client_id.load(Ordering::Acquire))?;
        self.inner.client_id.store(confirmed, Ordering::Release);
        let conn: Arc<dyn Conn> = match &self.inner.ib {
            Some(ctx) => Arc::new(
                RdmaConn::bootstrap(&stream, ctx, &self.inner.cfg)?
                    .with_metrics(self.inner.metrics.clone()),
            ),
            None => Arc::new(
                SocketConn::new(stream, wire::buffer::INITIAL_CAPACITY)
                    .with_metrics(self.inner.metrics.clone()),
            ),
        };
        let connection = Arc::new(ClientConnection {
            conn,
            server,
            // Verbs drops frames silently (they are charged and vanish),
            // so the codec there is self-contained per frame; the socket
            // path is reliable-ordered and uses the stateful delta encoding.
            enc: Mutex::new(V3Encoder::new(!self.inner.cfg.ib_enabled)),
            recv: Mutex::new(V3Decoder::new(!self.inner.cfg.ib_enabled)),
            pending: PendingTable::new(),
            slots: Mutex::new(Vec::new()),
            broken: AtomicBool::new(false),
            handoffs: AtomicU64::new(0),
        });
        // A reconnect is an establishment to a server whose previous
        // connection was dropped: either it is still cached (broken, and
        // replaced by the insert below) or its eviction recorded the
        // server in the reconnectable set.
        let replaced = self
            .inner
            .conns
            .lock()
            .insert(server, Arc::clone(&connection))
            .is_some();
        let was_dropped = self.inner.reconnectable.lock().remove(&server);
        if replaced || was_dropped {
            self.inner.metrics.inc_reconnects();
        }
        if self.inner.stopped.load(Ordering::Acquire) {
            // `shutdown` raced this establishment and its sweep may have
            // run before the insert; nothing else would ever close it.
            self.inner.conns.lock().remove(&server);
            connection.fail_all(RpcError::ConnectionClosed);
            return Err(RpcError::ConnectionClosed);
        }

        Ok(connection)
    }

    /// Close all connections; subsequent calls fail. Callers parked in a
    /// retry backoff are woken and fail with `ConnectionClosed` promptly
    /// rather than sleeping out their pause.
    pub fn shutdown(&self) {
        if self.inner.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            // Taking the lock orders this notify after any in-progress
            // stopped-check inside the backoff, so no sleeper misses it.
            let _guard = self.inner.stop_lock.lock();
            self.inner.stop_cv.notify_all();
        }
        self.inner.close_all();
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("node", &self.inner.node)
            .field("ib", &self.inner.ib.is_some())
            .finish()
    }
}
