//! The RPCoIB transport: native verbs, JVM-bypass buffers, send/recv for
//! small messages and one-sided RDMA writes for large ones.
//!
//! Connection establishment follows Section III-D: the client connects to
//! the server's ordinary socket address and the two sides exchange
//! end-point information (queue-pair endpoint, large-region rkey, region
//! geometry) over that stream; all subsequent communication is native IB.
//! The hello is versioned, length-checked and validated — a malformed or
//! inconsistent peer is rejected with a protocol error, never a panic.
//!
//! Message paths:
//!
//! * **eager** (≤ `rdma_threshold`): serialized directly into a
//!   pooled registered buffer and `post_send`-ed from it; the receiving
//!   node keeps pooled buffers posted on one shared receive queue for all
//!   its connections ([`IbContext`]), and deserialization reads straight
//!   out of the one the message landed in. Zero copies beyond the
//!   (simulated) DMA itself.
//! * **bulk**: the peer's large region is divided into a ring of
//!   equal-size slots. A frame claims as many contiguous slots as it
//!   needs from the [`SlotRing`], is RDMA-written into them *gather-style*
//!   from the pooled registered segments the serializer produced (an
//!   8-byte length header, then the payload segments back-to-back; no
//!   staging copy, no jumbo buffer), and is announced with an immediate
//!   carrying the slot offset and the slot count to credit back. The
//!   receiver copies nothing: the frame is handed to its reader *in the
//!   slots it landed in* ([`Payload::InPlace`]), exactly as an eager
//!   message is read out of its posted buffer, and the slots are owed
//!   back to the sender when that reader drops the payload — in ring
//!   order whatever order readers finish in ([`SlotLedger`]). So
//!   pipelined large transfers overlap in the region instead of
//!   serializing on a one-deep handshake, while `large_slots = 1`
//!   reproduces the paper's one-deep gate exactly. The one reader that
//!   cannot hold a slot — a call that suspends — takes its bytes with it
//!   ([`IbContext::evacuate`]).
//! * **credits ride the data**: what a side owes its peer leaves on the
//!   next frame going that way, whatever its kind — in the immediate of
//!   an eager or merged send, in the spare bits of a bulk frame's length
//!   word — and a message of its own ([`IMM_CREDIT`]) only when there is
//!   no such frame to wait for (the cadence rule is on [`SlotLedger`]).
//!
//! The eager/bulk switch point is `rdma_threshold`, a static value as in
//! the paper (§III-D), compared where a frame is routed. Several
//! eager-sized frames handed over together ([`Conn::send_frames`]) leave
//! merged into as few sends as hold them ([`IMM_BATCH`]).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bufpool::{NativePool, PoolMem, PooledBuf, RdmaMemFactory, ShadowPool, SizeClasses};
use parking_lot::{Condvar, Mutex};
use simnet::{
    Clock, CompletionKind, Fabric, MemoryRegion, NodeId, QpEndpoint, QueuePair, RdmaDevice,
    RemoteKey, SharedRecvQueue, SimStream, VerbsError,
};
use wire::DataOutput;

use crate::config::{RpcConfig, MAX_LARGE_SLOTS};
use crate::error::{RpcError, RpcResult};
use crate::frame::Payload;
use crate::hostcost;
use crate::intern::MethodKey;
use crate::metrics::{MetricsRegistry, Phase, PoolCounters};
use crate::stream::RdmaGatherStream;
use crate::transport::{Conn, RecvProfile, SendProfile};

/// Immediate tag: payload is a complete frame in the posted recv buffer.
/// Bits 8.. carry the slots credited back with it.
const IMM_SMALL: u32 = 1;
/// Immediate tag: a frame was RDMA-written into the receiver's large
/// region. Bits 8..20 carry the starting slot index, bits 20..32 the slot
/// count to credit back (which can exceed the frame's own footprint when
/// the grant wrapped past the end of the ring). No bit is spare: the
/// slots credited back with it ride the frame's length word
/// ([`CARRIED_SHIFT`]).
const IMM_LARGE: u32 = 2;
/// Immediate tag: flow control with no frame to ride. Bits 8.. carry how
/// many slots are being credited back; zero is a *pull* — the sender has
/// found no grant and asks for whatever the receiver holds.
const IMM_CREDIT: u32 = 3;
/// Immediate tag: the posted recv buffer holds several small frames
/// back-to-back, each as `[vlong len][frame]` — what was pending behind
/// a send turn, merged into one send (RDMAbox-style io-merging). Bits 8..
/// carry the slots credited back with it.
const IMM_BATCH: u32 = 4;

/// Length word written ahead of a bulk frame in its first slot: the
/// frame's length in the low [`CARRIED_SHIFT`] bits (no region is larger
/// than [`MAX_SANE_REGION`]), the slots credited back with it above.
const HEADER_BYTES: usize = 8;
const CARRIED_SHIFT: u32 = 48;

/// Bootstrap hello framing: magic, version, and fixed length.
const HELLO_MAGIC: u32 = 0x5250_4942; // "RPIB"
const HELLO_VERSION: u8 = 3;
const HELLO_BYTES: usize = 48;

/// No sane peer advertises a terabyte-scale pinned region.
const MAX_SANE_REGION: u64 = 1 << 40;

fn verbs_err(e: VerbsError) -> RpcError {
    match e {
        VerbsError::PeerDown => RpcError::ConnectionClosed,
        other => RpcError::Verbs(other),
    }
}

/// Receive buffers a context keeps posted on its shared receive queue,
/// however many connections take from it: a node posts for its traffic,
/// not per connection. Each completion puts one back before it is read.
pub const SRQ_DEPTH: usize = 32;

/// A node's verbs state: the opened device, the two-level buffer pool
/// (pre-registered at startup) and the shared receive queue every
/// connection on the context takes its receive buffers from. Clones are
/// handles to one context; [`IbContext::for_node`] gives every endpoint
/// of a node the same one.
#[derive(Clone)]
pub struct IbContext {
    inner: Arc<IbInner>,
}

struct IbInner {
    device: RdmaDevice,
    pool: ShadowPool<MemoryRegion>,
    /// Capacity of every posted receive buffer: the largest eager frame a
    /// connection on this context can take.
    recv_buf_bytes: usize,
    srq: SharedRecvQueue,
    /// The buffers posted on `srq`, by work-request id. Sized at four
    /// times the queue's depth, so the take-one-post-one churn of steady
    /// state rehashes in place and never allocates.
    posted: Mutex<HashMap<u64, PooledBuf<MemoryRegion>>>,
    next_wr: AtomicU64,
}

impl IbInner {
    /// A receive buffer from the pool: with a warm pool a freelist pop,
    /// the "allocation" cost RPCoIB removes.
    fn fresh_recv(&self) -> PooledBuf<MemoryRegion> {
        self.pool.acquire_size(self.recv_buf_bytes)
    }

    /// Enter `buf` in `posted` under a fresh work-request id, ready to
    /// post. Entered first: once posted, any connection's completion may
    /// name it.
    fn stage_recv(&self, buf: PooledBuf<MemoryRegion>) -> (u64, MemoryRegion) {
        let wr = self.next_wr.fetch_add(1, Ordering::Relaxed);
        let mr = buf.mem().clone();
        self.posted.lock().insert(wr, buf);
        (wr, mr)
    }

    fn post_recv(&self, buf: PooledBuf<MemoryRegion>) {
        let (wr, mr) = self.stage_recv(buf);
        self.srq.post_recv(wr, mr);
    }

    fn take_posted(&self, wr_id: u64) -> Option<PooledBuf<MemoryRegion>> {
        self.posted.lock().remove(&wr_id)
    }
}

impl std::fmt::Debug for IbContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IbContext")
            .field("node", &self.inner.device.node())
            .finish()
    }
}

impl IbContext {
    /// The context every verbs endpoint on `node` whose buffer geometry
    /// is `cfg`'s shares: its clients, servers and data-plane pools take
    /// their receive buffers from one shared receive queue and their
    /// registered memory from one pool. The geometry is what the pool and
    /// the queue are built from — `recv_buf_bytes`, `large_region_bytes`,
    /// `prefill_per_class` — so an endpoint with other buffers (the HDFS
    /// data plane's) gets a context of its own.
    /// The fabric holds it weakly: it lives as long as its last endpoint.
    pub fn for_node(fabric: &Fabric, node: NodeId, cfg: &RpcConfig) -> RpcResult<IbContext> {
        let geometry = [
            cfg.recv_buf_bytes as u64,
            cfg.large_region_bytes as u64,
            cfg.prefill_per_class as u64,
        ];
        let inner = fabric.node_shared(node, &geometry, || {
            IbContext::new(fabric, node, cfg).map(|ctx| ctx.inner)
        })?;
        Ok(IbContext { inner })
    }

    /// Open the HCA on `node` and build a private context: the
    /// pre-registered pool and a shared receive queue with [`SRQ_DEPTH`]
    /// buffers posted, which no other endpoint is given.
    pub fn new(fabric: &Fabric, node: NodeId, cfg: &RpcConfig) -> RpcResult<IbContext> {
        let device = RdmaDevice::open(fabric, node).map_err(|_| {
            RpcError::Config(format!(
                "RPCoIB requires an RDMA-capable fabric model, got '{}'",
                fabric.model().name
            ))
        })?;
        let factory = RdmaMemFactory::new(device.clone());
        let ladder = SizeClasses::up_to(cfg.large_region_bytes);
        let pool = ShadowPool::new(NativePool::new(ladder, move |len| factory.allocate(len)));
        // Pre-register the small classes (the ones per-call traffic uses);
        // jumbo classes are registered lazily on first use — and once
        // registered, the retention policy below caches a few idle ones
        // per class so steady-state large traffic re-uses registrations,
        // while a burst's surplus deregisters in batched sweeps.
        for idx in 0..ladder.count {
            if ladder.capacity(idx) <= cfg.recv_buf_bytes {
                pool.native().prefill_class(idx, cfg.prefill_per_class);
            }
        }
        pool.native().set_jumbo_retention(cfg.recv_buf_bytes, 4, 8);
        // The receive-ring class gets the shared queue's depth plus slack
        // up front, so the first calls never register inline —
        // "pre-allocated and pre-registered when the RPCoIB library
        // loads" (Section III-B).
        if let Some(ring_class) = ladder.class_of(cfg.recv_buf_bytes) {
            pool.native().prefill_class(ring_class, SRQ_DEPTH + 8);
        }
        let inner = Arc::new(IbInner {
            srq: device.create_srq(),
            device,
            pool,
            recv_buf_bytes: cfg.recv_buf_bytes,
            posted: Mutex::new(HashMap::with_capacity(4 * SRQ_DEPTH)),
            next_wr: AtomicU64::new(1),
        });
        // More pollers at once than the queue holds: the one that finds
        // it empty posts another and takes it (verbs' SRQ-limit event).
        let weak = Arc::downgrade(&inner);
        inner.srq.set_limit_hook(Arc::new(move || {
            let ctx = weak.upgrade()?;
            Some(ctx.stage_recv(ctx.fresh_recv()))
        }));
        for _ in 0..SRQ_DEPTH {
            inner.post_recv(inner.fresh_recv());
        }
        Ok(IbContext { inner })
    }

    /// The shared two-level pool.
    pub fn pool(&self) -> &ShadowPool<MemoryRegion> {
        &self.inner.pool
    }

    /// Receive buffers posted on the shared queue right now: [`SRQ_DEPTH`]
    /// whenever no completion is being read, whatever the number of
    /// connections.
    pub fn posted_recvs(&self) -> usize {
        self.inner.srq.posted()
    }

    /// Pre-register `per_class` extra buffers in every class up to
    /// `max_bytes`, jumbo classes included. `IbContext::new` prefills the
    /// small per-call classes; a workload that knows it will move large
    /// frames can call this to take the one-time registration cost at
    /// load time instead of on the first large call — Section III-B's
    /// "pre-allocated and pre-registered when the RPCoIB library loads",
    /// extended to the large ladder.
    pub fn prewarm(&self, max_bytes: usize, per_class: usize) {
        let native = self.inner.pool.native();
        let ladder = native.classes();
        for idx in 0..ladder.count {
            if ladder.capacity(idx) <= max_bytes {
                native.prefill_class(idx, per_class);
            }
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &RdmaDevice {
        &self.inner.device
    }

    /// (hits, misses, returns, oversize) of the native pool.
    pub fn pool_stats(&self) -> (u64, u64, u64, u64) {
        self.inner.pool.native().stats().snapshot()
    }

    /// Both pool levels' counters in the shape the unified metrics
    /// snapshot carries: the shadow pool's size-history behaviour plus the
    /// native registered-buffer pool underneath.
    pub fn pool_counters(&self) -> PoolCounters {
        let pool = &self.inner.pool;
        let (history_hits, grows, shrinks, cold) = pool.stats().snapshot();
        let (native_hits, native_misses, native_returns, oversize) =
            pool.native().stats().snapshot();
        PoolCounters {
            history_hits,
            grows,
            shrinks,
            cold,
            native_hits,
            native_misses,
            native_returns,
            oversize,
        }
    }

    /// *A stack frame reads in place, a heap frame takes its bytes with
    /// it.* A reader that is about to wait for something other than the
    /// CPU — a call that suspends — must not wait holding slots of its
    /// peer's ring: copy an in-place bulk frame into a pooled buffer and
    /// let the slots go. This is the drain copy every bulk frame used to
    /// pay on receipt, made (and charged to the receiver's ledger) only
    /// here. Any other payload is left as it is.
    pub fn evacuate(&self, payload: &mut Payload) {
        let Payload::InPlace {
            region, base, len, ..
        } = &*payload
        else {
            return;
        };
        let (base, len) = (*base, *len);
        let mut buf = self.pool().acquire_size(len);
        region.with(|bytes| buf.mem_mut().put(0, &bytes[base..base + len]));
        let device = self.device();
        device
            .fabric()
            .charge_host_ns(device.node(), hostcost::drain_ns(len));
        // Dropping the in-place payload releases its lease.
        *payload = Payload::Pooled { buf, len };
    }
}

/// One received frame and the profile of receiving it.
type Frame = (Payload, RecvProfile);

/// A grant of `consumed` credits whose frame starts at slot `start`.
struct Grant {
    start: usize,
    consumed: usize,
}

struct RingState {
    /// Free slots. The free region is always contiguous — allocation
    /// walks the ring in order and the receiver credits frames back in
    /// arrival order, whatever order their readers finish in (see
    /// [`SlotLedger`]) — so `credits >= k` means the next `k` slots are
    /// free.
    credits: usize,
    /// Next slot index to allocate.
    ring_pos: usize,
    /// The connection's *poll turn*: a thread is inside `poll_recv` on the
    /// queue pair. Completions are consumed by one thread at a time (frame
    /// order, posted-buffer matching) and no thread is dedicated to it —
    /// whoever blocks on this connection, in `recv_msg` or here for
    /// credits, takes the turn if it is free. Kept in this state because
    /// credit waiters sleep on `cv` and must see its release under the
    /// lock they sleep on.
    polling: bool,
    /// Threads asleep on `cv`. Nobody asleep, nothing to notify: the
    /// turn is released once per received message.
    sleepers: usize,
}

/// Multi-slot credit ring over the peer's large region. `slots = 1`
/// degenerates to the paper's one-deep credit gate.
///
/// **Grant and post under `link.send`.** Frames must hit the wire in
/// grant order, or the receiver's arrival-order crediting would return
/// slots a later, still-unwritten frame already owns. A sender therefore
/// takes the link's send lock, then this ring's lock, grants, lets the
/// ring go and posts its writes before letting the send lock go: grant
/// order is post order by construction (MPICH2's RDMA channel writes its
/// ring the same way). Lock order is send, then ring; no path takes them
/// the other way round — the ring's lock is never held across a send.
/// A sender that finds no grant drops both and waits for credits
/// holding neither ([`RdmaConn::send_bulk`]): this side's own credit
/// returns are sends, and they need `link.send`.
struct SlotRing {
    slots: usize,
    state: Mutex<RingState>,
    cv: Condvar,
}

impl SlotRing {
    fn new(slots: usize) -> SlotRing {
        SlotRing {
            slots,
            state: Mutex::new(RingState {
                credits: slots,
                ring_pos: 0,
                polling: false,
                sleepers: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claim `k` contiguous slots if the ring has them free right now.
    fn try_grant(&self, st: &mut RingState, k: usize) -> Option<Grant> {
        debug_assert!(k >= 1 && k <= self.slots);
        let tail = self.slots - st.ring_pos;
        let (start, consumed) = if k <= tail {
            // Contiguous from the cursor.
            (st.credits >= k).then_some((st.ring_pos, k))?
        } else if tail + k <= self.slots {
            // Wrap: skip the tail stub and start at slot 0. The
            // skipped slots are *consumed* with the grant (and
            // credited back by the receiver via the imm's count) —
            // leaving them nominally free would let their credits pay
            // for slots an earlier in-flight frame still occupies.
            (st.credits >= tail + k).then_some((0, tail + k))?
        } else {
            // The frame is too big to wrap-with-skip (tail + k would
            // exceed the ring). Wait for a full drain: with nothing
            // outstanding the ring is equivalent to a fresh one and
            // the cursor can reset to 0.
            (st.credits == self.slots).then_some((0, k))?
        };
        st.ring_pos = (start + k) % self.slots;
        st.credits -= consumed;
        Some(Grant { start, consumed })
    }

    /// Sleep on the ring until notified or `bound` passes. What notifies
    /// is [`SlotRing::wake`]: credits returned, or the poll turn let go —
    /// which a close lets go of too, by ending the holder's poll.
    fn sleep(&self, st: &mut parking_lot::MutexGuard<'_, RingState>, bound: Duration) {
        st.sleepers += 1;
        self.cv.wait_for(st, bound);
        st.sleepers -= 1;
    }

    /// Wake every sleeper to re-check its condition; `st` is the held
    /// state lock, so no sleeper can slip between its check and its wait.
    fn wake(&self, st: &RingState) {
        if st.sleepers > 0 {
            self.cv.notify_all();
        }
    }

    /// Return `n` slots announced by a peer credit message.
    fn release(&self, n: usize) {
        let mut st = self.state.lock();
        st.credits = (st.credits + n).min(self.slots);
        self.wake(&st);
    }
}

struct SendState {
    /// Tiny dedicated region for credit messages.
    credit_mr: MemoryRegion,
    /// Dedicated region the bulk path writes length headers from. Safe to
    /// reuse per-frame: a bulk frame's header is written and posted under
    /// this state's lock.
    header_mr: MemoryRegion,
}

/// The connection's way onto the wire: its queue pair, the lock that
/// orders posts to it, and whether it has been closed. Apart from the
/// connection only the [`SlotLedger`] knows it, weakly — a credit return
/// is a send, and whoever drops a [`SlotLease`] makes it.
struct Link {
    qp: QueuePair,
    send: Mutex<SendState>,
    closed: AtomicBool,
}

impl Link {
    /// A flow-control message of its own: `count` slots credited back,
    /// or, with zero, the ask for whatever the peer holds.
    fn send_credit(&self, count: usize) -> RpcResult<()> {
        let state = self.send.lock();
        state.credit_mr.write_at(0, &[0]).map_err(verbs_err)?;
        self.qp
            .post_send(&state.credit_mr, 0, 1, IMM_CREDIT | ((count as u32) << 8))
            .map_err(verbs_err)
    }
}

/// The receive side's account of *our* large region: which announced
/// bulk frames are still being read where they landed, and how many slots
/// the peer is owed.
///
/// **Credits return in ring order whatever order frames are released
/// in.** The sender's [`SlotRing`] is right only because its free region
/// is contiguous: it reads `credits >= k` as "the next `k` slots from the
/// cursor are free". Readers finish out of order — two callers on one
/// connection, a queued call behind a running one — so frames are kept
/// here in arrival order (which is ring order: the sender grants and
/// posts under `link.send`, see [`SlotRing`]), each with the `consumed`
/// count its immediate carried (wrap stubs included) and a released
/// mark, and only the released *prefix* is owed back: MPICH2's in-order
/// head pointer. A frame released early waits behind an older one still
/// being read; that costs head-of-line delay on a credit, never a slot
/// handed out twice.
///
/// **Why holding slots while a call waits for a run permit cannot
/// deadlock.** A connection has at most `large_slots` unread bulk frames
/// at its peer, and the next one waits at its *sender*
/// ([`RdmaConn::send_bulk`], which drives receive progress itself
/// and gives up after `call_timeout` with the retryable `CreditStarved`).
/// What each holder of a slot needs in order to let go: the consumer of a
/// *response* needs only CPU (a parked caller is woken to read; a frame a
/// credit-waiting sender stashed is popped by the connection's leader);
/// the consumer of a *request* needs a run permit — it lets go when its
/// handler returns, before the response is serialized or sent — and a
/// call that suspends evacuates first ([`IbContext::evacuate`]); a permit
/// holder blocked *sending* a response holds no request slot and waits on
/// the client's slots, which the client's consumers free without needing
/// anything from the server. The one consumer that may never come is that
/// of a late response on a connection nobody waits on any more: its slots
/// stay taken until the next caller leads, and a sender that needs them
/// sooner is `CreditStarved` — bounded, retryable, and only after every
/// call on that connection had already timed out.
///
/// **When what is owed goes back** (`pending`, the released prefix):
///
/// * *carried* — every frame leaving for the peer takes all of it
///   ([`SlotLedger::take`]); in request / response traffic that is every
///   credit, and none costs a message;
/// * *batch* — a release that brings it to [`credit_batch`] of the ring
///   sends it at once, so a one-way stream is not throttled waiting for
///   a frame that is not coming (with `large_slots = 1` the batch is 1:
///   every release sends, the one-deep gate's behaviour);
/// * *idle* — the receiver's idle moment ([`Conn::recv_msg`] with nothing
///   stashed and a quiet inbox) sends it;
/// * *pulled* — otherwise a release holds it, and a sender that then
///   finds no grant asks ([`RdmaConn::send_bulk`]): the ask is
///   answered with what is held, or by the next release if nothing is.
///   The ask is a completion like any other — it fires the ready hook —
///   so a held credit delays nobody who is waiting for it, whether or
///   not this side ever sends or goes idle.
///
/// A [`SlotLease`] may be dropped on any thread, under any engine lock:
/// release takes this ledger's own lock and then (not nested) the link's
/// send lock, nothing else. It keeps alive the ledger and — through the
/// payload — the region it reads; not the connection: a payload somebody
/// still holds must not keep a dead peer's queue pair registered.
struct SlotLedger {
    state: Mutex<LedgerState>,
    /// Slots in our region; what the peer can have outstanding at most.
    slots: usize,
    link: Weak<Link>,
}

/// Owed credits a ring of `slots` does not hold back: see the cadence
/// rule on [`SlotLedger`]. A batch of 1 never holds.
fn credit_batch(slots: usize) -> usize {
    (slots / 2).max(1)
}

struct LedgerState {
    /// Frames announced and not yet owed back, oldest first:
    /// `(consumed, released)`. At most `slots` entries (each consumed at
    /// least one), so its storage is allocated once.
    frames: VecDeque<(usize, bool)>,
    /// Arrival number of `frames[0]`; lease `seq` is entry `seq - head`.
    head: u64,
    /// Slots of the released prefix, owed to the peer and not yet sent.
    pending: usize,
    /// The peer has asked and nothing has gone back since: the next
    /// release is not held.
    pulled: bool,
}

impl SlotLedger {
    /// Enter a frame the peer announced with `consumed` slots; `None` if
    /// the peer has no such credit — it wrote over slots it was never
    /// given back.
    fn admit(self: &Arc<Self>, consumed: usize) -> Option<SlotLease> {
        let mut st = self.state.lock();
        let held: usize = st.frames.iter().map(|&(consumed, _)| consumed).sum();
        if held + st.pending + consumed > self.slots {
            return None;
        }
        st.frames.push_back((consumed, false));
        Some(SlotLease {
            seq: st.head + st.frames.len() as u64 - 1,
            ledger: Arc::clone(self),
        })
    }

    /// Frame `seq`'s reader is done: mark it, move the released prefix to
    /// `pending`, and apply the cadence rule.
    fn release(&self, seq: u64) {
        let mut st = self.state.lock();
        let idx = seq.wrapping_sub(st.head) as usize;
        if let Some(frame) = st.frames.get_mut(idx) {
            frame.1 = true;
        }
        while let Some(&(consumed, true)) = st.frames.front() {
            st.frames.pop_front();
            st.head += 1;
            st.pending += consumed;
        }
        self.settle(st, false);
    }

    /// The cadence rule at one of the receiver's idle moments
    /// ([`Conn::recv_msg`] with nothing stashed).
    fn flush(&self) {
        self.settle(self.state.lock(), true);
    }

    /// The peer has found no grant and asks for what is held.
    fn pull(&self) {
        let mut st = self.state.lock();
        st.pulled = true;
        self.settle(st, false);
    }

    /// Everything the peer is owed, to ride a frame that is leaving for
    /// it anyway. At most `slots` (≤ [`MAX_LARGE_SLOTS`]), so it fits
    /// either carrier.
    fn take(&self) -> u32 {
        let mut st = self.state.lock();
        if st.pending > 0 {
            // Whoever asked is answered by this frame.
            st.pulled = false;
        }
        std::mem::take(&mut st.pending) as u32
    }

    /// Send the peer what it is owed in a message of its own, if the
    /// cadence rule says it has waited long enough — unless the
    /// connection is gone or closed, when nobody is owed anything.
    fn settle(&self, mut st: parking_lot::MutexGuard<'_, LedgerState>, idle: bool) {
        if st.pending == 0 {
            return;
        }
        let Some(link) = self.link.upgrade() else {
            return;
        };
        let due = st.pending >= credit_batch(self.slots)
            || st.pulled
            || (idle && !link.qp.recv_pending());
        if !due || link.closed.load(Ordering::Acquire) {
            return;
        }
        st.pulled = false;
        let count = std::mem::take(&mut st.pending);
        drop(st);
        // Best-effort: if the peer has gone away the credits are moot.
        let _ = link.send_credit(count);
    }
}

/// The hold an in-place bulk frame ([`Payload::InPlace`]) has on the
/// slots it occupies; dropping it releases them to the connection's
/// [`SlotLedger`]. No allocation: a cloned `Arc` and an arrival number.
pub struct SlotLease {
    ledger: Arc<SlotLedger>,
    seq: u64,
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        self.ledger.release(self.seq);
    }
}

/// An established RPCoIB connection.
pub struct RdmaConn {
    ctx: IbContext,
    cfg: RpcConfig,
    /// The fabric's clock: deadlines and phase timings.
    clock: Clock,
    link: Arc<Link>,
    /// Region the *peer* RDMA-writes large frames into.
    my_large: MemoryRegion,
    /// Slot geometry of `my_large` (receiver side of the bulk plane).
    my_slots: usize,
    my_slot_size: usize,
    peer_rkey: RemoteKey,
    /// Slot geometry of the peer's region (sender side of the bulk plane).
    peer_slots: usize,
    peer_slot_size: usize,
    /// Frames pulled off the queue pair and not yet handed to a
    /// `recv_msg` caller, oldest first: every completion lands here
    /// (under the poll turn, so in wire order) whether the receiver, a
    /// credit-waiting sender or an [`IMM_BATCH`] unpack produced it.
    stash: Mutex<VecDeque<Frame>>,
    /// Credits over the *peer's* region, spent by our bulk sends.
    ring: SlotRing,
    /// Leases over *our* region, held by the in-place frames not yet
    /// read, and the credits owed back to the peer.
    ledger: Arc<SlotLedger>,
    /// Recycled storage for the gather serializer's segment lists, so a
    /// steady-state bulk send allocates nothing: one list per sender that
    /// has ever been inside `send_msg` beside another (with a single
    /// list, the second of two callers whose sends overlapped built its
    /// own every time).
    seg_scratch: Mutex<Vec<Vec<PooledBuf<MemoryRegion>>>>,
    peer_desc: String,
    /// When attached, every send feeds the per-`<protocol, method>`
    /// serialize/wire phase histograms.
    metrics: Option<MetricsRegistry>,
    /// Copy of the armed readiness hook, so a local `close()` can deliver
    /// its own wake (the QP only fires for peer-side completions).
    ready_hook: Mutex<Option<std::sync::Arc<dyn Fn() + Send + Sync>>>,
}

fn hello_field<const N: usize>(buf: &[u8], at: usize) -> RpcResult<[u8; N]> {
    buf.get(at..at + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| RpcError::Protocol("truncated bootstrap hello".into()))
}

/// Parse and validate a peer hello. Every field is length-checked and
/// range-checked before use — a garbage peer gets a clean protocol error.
fn parse_hello(buf: &[u8], cfg: &RpcConfig) -> RpcResult<(QpEndpoint, RemoteKey, usize, usize)> {
    let magic = u32::from_be_bytes(hello_field::<4>(buf, 0)?);
    if magic != HELLO_MAGIC {
        return Err(RpcError::Protocol(format!(
            "bad bootstrap magic {magic:#010x}"
        )));
    }
    let version = buf
        .get(4)
        .copied()
        .ok_or_else(|| RpcError::Protocol("truncated bootstrap hello".into()))?;
    if version != HELLO_VERSION {
        return Err(RpcError::Protocol(format!(
            "unsupported bootstrap version {version} (expected {HELLO_VERSION})"
        )));
    }
    let peer_ep = QpEndpoint::from_bytes(hello_field::<12>(buf, 8)?);
    let peer_rkey = RemoteKey::from_bytes(hello_field::<12>(buf, 20)?);
    let large = u64::from_be_bytes(hello_field::<8>(buf, 32)?);
    let slots = u32::from_be_bytes(hello_field::<4>(buf, 40)?) as usize;
    if large == 0 || large > MAX_SANE_REGION {
        return Err(RpcError::Protocol(format!(
            "peer advertises an unusable {large}-byte large region"
        )));
    }
    let large = large as usize;
    if large < cfg.rdma_threshold {
        return Err(RpcError::Protocol(format!(
            "peer's {large}-byte large region is smaller than the {}-byte rdma_threshold: \
             frames between the two would be unsendable",
            cfg.rdma_threshold
        )));
    }
    if slots == 0 || slots > MAX_LARGE_SLOTS {
        return Err(RpcError::Protocol(format!(
            "peer advertises {slots} large-region slots (valid: 1..={MAX_LARGE_SLOTS})"
        )));
    }
    if !large.is_multiple_of(slots) {
        return Err(RpcError::Protocol(format!(
            "peer's {large}-byte large region is not divisible into {slots} slots"
        )));
    }
    Ok((peer_ep, peer_rkey, large, slots))
}

/// Split an [`IMM_BATCH`] chunk — `[vlong len][frame]…` — handing each
/// sub-frame to `emit` in order.
fn unpack_batch(mut chunk: &[u8], mut emit: impl FnMut(&[u8])) -> RpcResult<()> {
    use wire::DataInput;
    if chunk.is_empty() {
        return Err(RpcError::Protocol("empty batch completion".into()));
    }
    while !chunk.is_empty() {
        let len = chunk
            .read_vlong()
            .ok()
            .and_then(|l| usize::try_from(l).ok())
            .filter(|&l| l <= chunk.len())
            .ok_or_else(|| RpcError::Protocol("malformed batch sub-frame length".into()))?;
        let (frame, rest) = chunk.split_at(len);
        emit(frame);
        chunk = rest;
    }
    Ok(())
}

impl RdmaConn {
    /// Run the end-point exchange over an established bootstrap stream and
    /// bring up the verbs connection. Symmetric: both the client and the
    /// server side call this on their end of the stream. The connection
    /// posts no receive buffer of its own: it takes them from `ctx`'s
    /// shared queue, whose buffers must hold every eager frame `cfg` sends.
    pub fn bootstrap(stream: &SimStream, ctx: &IbContext, cfg: &RpcConfig) -> RpcResult<RdmaConn> {
        let posted_bytes = ctx.inner.recv_buf_bytes;
        if cfg.recv_buf_bytes.max(cfg.rdma_threshold) > posted_bytes {
            return Err(RpcError::Config(format!(
                "eager frames of up to {} bytes do not fit the context's {posted_bytes}-byte \
                 receive buffers",
                cfg.recv_buf_bytes.max(cfg.rdma_threshold)
            )));
        }
        let device = ctx.device();
        let qp = device.create_qp_on(&ctx.inner.srq);
        let my_large = device.register(cfg.large_region_bytes);

        // Send our endpoint info: magic + version, QP endpoint, the
        // large-region rkey and its slot geometry.
        let mut hello = [0u8; HELLO_BYTES];
        hello[0..4].copy_from_slice(&HELLO_MAGIC.to_be_bytes());
        hello[4] = HELLO_VERSION;
        hello[8..20].copy_from_slice(&qp.endpoint().to_bytes());
        hello[20..32].copy_from_slice(&my_large.remote_key().to_bytes());
        hello[32..40].copy_from_slice(&(cfg.large_region_bytes as u64).to_be_bytes());
        hello[40..44].copy_from_slice(&(cfg.large_slots as u32).to_be_bytes());
        (&*stream)
            .write_all(&hello)
            .map_err(|e| RpcError::Io(e.to_string()))?;

        // Receive and validate theirs.
        let mut peer = [0u8; HELLO_BYTES];
        stream
            .read_exact_at(&mut peer)
            .map_err(|e| RpcError::Io(e.to_string()))?;
        let (peer_ep, peer_rkey, peer_large_size, peer_slots) = parse_hello(&peer, cfg)?;

        qp.connect(peer_ep);

        let link = Arc::new(Link {
            qp,
            send: Mutex::new(SendState {
                credit_mr: device.register(128),
                header_mr: device.register(64),
            }),
            closed: AtomicBool::new(false),
        });
        Ok(RdmaConn {
            ctx: ctx.clone(),
            cfg: cfg.clone(),
            clock: stream.clock().clone(),
            ledger: Arc::new(SlotLedger {
                state: Mutex::new(LedgerState {
                    frames: VecDeque::with_capacity(cfg.large_slots),
                    head: 0,
                    pending: 0,
                    pulled: false,
                }),
                slots: cfg.large_slots,
                link: Arc::downgrade(&link),
            }),
            link,
            my_large,
            my_slots: cfg.large_slots,
            my_slot_size: cfg.large_region_bytes / cfg.large_slots,
            peer_rkey,
            peer_slots,
            peer_slot_size: peer_large_size / peer_slots,
            stash: Mutex::new(VecDeque::new()),
            ring: SlotRing::new(peer_slots),
            seg_scratch: Mutex::new(Vec::new()),
            peer_desc: format!("rdma:{}", peer_ep.node),
            metrics: None,
            ready_hook: Mutex::new(None),
        })
    }

    /// Attach a metrics registry; subsequent sends record their serialize
    /// and wire times into its phase histograms.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Record an unrecoverable framing-level fault: the connection's wire
    /// state can no longer be trusted, so close it and hand back the
    /// protocol error for the caller to surface.
    fn frame_corruption(&self, msg: String) -> RpcError {
        if let Some(m) = &self.metrics {
            m.inc_frame_errors();
        }
        self.close();
        RpcError::Protocol(msg)
    }

    /// One step of receive progress for a thread that must block on this
    /// connection for up to `bound`, `st` being the held ring lock: if
    /// another thread has the poll turn, sleep on the ring (it releases
    /// what it reads and wakes us); otherwise take the turn and consume
    /// one completion. The turn's holder waits in `poll_recv`, which a
    /// completion wakes, and so does the queue pair's error state: the
    /// peer's end, a killed node or our own [`Conn::close`]. Returns
    /// whether this thread stashed a frame.
    fn progress(
        &self,
        mut st: parking_lot::MutexGuard<'_, RingState>,
        bound: Duration,
    ) -> RpcResult<bool> {
        if st.polling {
            self.ring.sleep(&mut st, bound);
            return Ok(false);
        }
        st.polling = true;
        drop(st);
        let polled = self.poll_one(bound);
        let mut st = self.ring.state.lock();
        st.polling = false;
        self.ring.wake(&st);
        polled
    }

    /// Claim `k` contiguous slots of the peer's region and gather-write
    /// one bulk frame into them, granting and posting under `link.send`
    /// (see [`SlotRing`]).
    ///
    /// With no grant to be had, wait for credits holding neither lock, up
    /// to `call_timeout`, then try again; a close ends the wait at once
    /// (the queue pair's error state). Exhausting the budget is
    /// [`RpcError::CreditStarved`] — the peer is alive but not letting go
    /// of what it holds.
    ///
    /// The credits arrive as completions on our own queue pair (a count
    /// of their own or riding a frame), and no thread is dedicated to
    /// reading it: when nobody is receiving, this waiter reads them
    /// itself. Frames it meets on the way are stashed for the receiver,
    /// which is told through the ready hook (the event-driven reader saw
    /// the queue pair's own edge before we emptied it).
    ///
    /// The peer may be holding credits for a frame of its own to carry
    /// (a ring deep enough to batch), so a waiter *pulls*: it asks once,
    /// and again whenever the count it asked about has changed and still
    /// yields no grant — every ask is answered by the next credit the
    /// peer has, and every answer changes the count, so between the two
    /// nothing this waiter needs stays held.
    fn send_bulk(&self, segs: &[PooledBuf<MemoryRegion>], len: usize) -> RpcResult<()> {
        debug_assert!(len > 0, "zero-length frames always route eager");
        let footprint = len + HEADER_BYTES;
        let k = footprint.div_ceil(self.peer_slot_size);
        if k > self.peer_slots {
            return Err(RpcError::Protocol(format!(
                "frame of {len} bytes needs {k} slots but the peer's region has \
                 {} slots of {} bytes",
                self.peer_slots, self.peer_slot_size
            )));
        }
        let deadline = self.clock.deadline(self.cfg.call_timeout);
        let peer_holds = credit_batch(self.peer_slots) > 1;
        let mut asked_at = None;
        loop {
            let send = self.link.send.lock();
            let mut st = self.ring.state.lock();
            if let Some(grant) = self.ring.try_grant(&mut st, k) {
                drop(st);
                let posted = self.post_bulk_writes(&send, &grant, segs, len);
                drop(send);
                if let Err(e) = posted {
                    // A failed write mid-frame breaks the ring's in-order
                    // crediting story (this grant's credits may never
                    // return); a verbs-level failure invalidates the
                    // connection anyway.
                    self.close();
                    return Err(e);
                }
                return Ok(());
            }
            // Never wait holding the send lock: our own credit returns,
            // which the peer may be waiting on, are sends.
            drop(send);
            let remaining = self.clock.wait_bound(deadline);
            if remaining.is_zero() {
                return Err(RpcError::CreditStarved);
            }
            if peer_holds && asked_at != Some(st.credits) {
                asked_at = Some(st.credits);
                drop(st);
                self.link.send_credit(0)?;
                continue;
            }
            if self.progress(st, remaining)? {
                self.fire_ready_hook();
            }
        }
    }

    /// Write one bulk frame into its granted slots; `state` is the held
    /// `link.send` lock's content.
    fn post_bulk_writes(
        &self,
        state: &SendState,
        grant: &Grant,
        segs: &[PooledBuf<MemoryRegion>],
        len: usize,
    ) -> RpcResult<()> {
        let base = grant.start * self.peer_slot_size;
        let imm = IMM_LARGE | ((grant.start as u32) << 8) | ((grant.consumed as u32) << 20);
        let word = len as u64 | u64::from(self.ledger.take()) << CARRIED_SHIFT;
        state
            .header_mr
            .write_at(0, &word.to_be_bytes())
            .map_err(verbs_err)?;
        // Header + segments go out as ONE doorbell-batched chain, so the
        // whole frame pays a single propagation latency regardless of
        // how many pooled segments the gather produced. The immediate
        // rides the chain and announces only after its last byte. The
        // chain is described computationally (every sealed segment holds
        // exactly `recv_buf_bytes`, the last holds the remainder) so the
        // send path stays allocation-free.
        let seg_bytes = self.cfg.recv_buf_bytes;
        let chain = std::iter::once((&state.header_mr, 0usize, HEADER_BYTES, base)).chain(
            segs.iter()
                .take(len.div_ceil(seg_bytes))
                .enumerate()
                .map(|(i, seg)| {
                    let n = (len - i * seg_bytes).min(seg_bytes);
                    (seg.mem(), 0usize, n, base + HEADER_BYTES + i * seg_bytes)
                }),
        );
        self.link
            .qp
            .rdma_write_vectored(chain, self.peer_rkey, Some(imm))
            .map_err(verbs_err)?;
        Ok(())
    }

    /// Validate an [`IMM_LARGE`] announcement against our region geometry
    /// and read the frame's length word: its length, and the credits
    /// riding it (not yet checked). Violations tear the connection down —
    /// an out-of-contract peer write means the region contents can't be
    /// trusted. What passes bounds what the frame's reader may touch: the
    /// slots the announcement pays for, which lie inside the region.
    fn bulk_frame_len(&self, start: usize, consumed: usize) -> RpcResult<(usize, usize)> {
        if consumed == 0 || start + consumed > self.my_slots {
            return Err(self.frame_corruption(format!(
                "bulk announcement out of range: start={start} consumed={consumed} \
                 with {} slots",
                self.my_slots
            )));
        }
        let base = start * self.my_slot_size;
        let mut hdr = [0u8; HEADER_BYTES];
        self.my_large.read_at(base, &mut hdr).map_err(verbs_err)?;
        let word = u64::from_be_bytes(hdr);
        let carried = (word >> CARRIED_SHIFT) as usize;
        let len = (word & ((1 << CARRIED_SHIFT) - 1)) as usize;
        // All three grant shapes consume at least the frame's footprint
        // (a wrap's `consumed` adds the skipped tail stub), so a frame
        // longer than `consumed` slots is one whose reader would walk
        // over slots the peer still owns — and is credited for only some.
        if len
            .checked_add(HEADER_BYTES)
            .is_none_or(|footprint| footprint > consumed * self.my_slot_size)
        {
            return Err(self.frame_corruption(format!(
                "bulk frame of {len} bytes at slot {start} claims more than the \
                 {consumed} slots of {} bytes it pays for",
                self.my_slot_size
            )));
        }
        Ok((len, carried))
    }

    /// Apply the credits that rode a frame, under the check a credit
    /// message of its own gets: a count beyond the ring is a peer whose
    /// accounting cannot be trusted.
    fn credit(&self, count: usize) -> RpcResult<()> {
        if count > self.peer_slots {
            return Err(self.frame_corruption(format!(
                "credit return of {count} slots (ring has {})",
                self.peer_slots
            )));
        }
        if count > 0 {
            self.ring.release(count);
        }
        Ok(())
    }

    /// Wait up to `bound` for one receive completion and consume it:
    /// credits go to the slot ring, frames to the back of the stash.
    /// Returns whether a frame was stashed. The caller holds the poll
    /// turn — completions are consumed, and the stash grows, in wire
    /// order by one thread at a time.
    fn poll_one(&self, bound: Duration) -> RpcResult<bool> {
        let completion = match self.link.qp.poll_recv(bound) {
            Ok(c) => c,
            Err(VerbsError::Timeout) => return Ok(false),
            Err(e) => return Err(verbs_err(e)),
        };
        let total_start = self.clock.now_ns();
        // The completion took one of the node's posted buffers. Every arm
        // puts one back before believing anything the completion says, so
        // a refused frame costs the node's other connections nothing: a
        // fresh one where the frame is read in its buffer, otherwise the
        // consumed one itself, as warm as it was.
        let ctx = &self.ctx.inner;
        // A work-request id nobody posted means the accounting is
        // corrupt: tear the connection down rather than the reader.
        let Some(buf) = ctx.take_posted(completion.wr_id) else {
            ctx.post_recv(ctx.fresh_recv());
            return Err(self.frame_corruption(format!(
                "completion for unknown work-request id {}",
                completion.wr_id
            )));
        };
        let frame = match (completion.kind, completion.imm & 0xff) {
            (CompletionKind::Recv, IMM_SMALL) => {
                let alloc_start = self.clock.now_ns();
                ctx.post_recv(ctx.fresh_recv());
                let alloc_ns = self.clock.elapsed_ns(alloc_start);
                self.credit((completion.imm >> 8) as usize)?;
                (
                    Payload::Pooled {
                        buf,
                        len: completion.len,
                    },
                    RecvProfile {
                        alloc_ns,
                        total_ns: self.clock.elapsed_ns(total_start) + 1,
                        size: completion.len,
                    },
                )
            }
            (CompletionKind::Recv, IMM_BATCH) => {
                let alloc_start = self.clock.now_ns();
                ctx.post_recv(ctx.fresh_recv());
                let alloc_ns = self.clock.elapsed_ns(alloc_start);
                self.credit((completion.imm >> 8) as usize)?;
                // One copy per sub-frame, straight out of registered
                // memory onto the stash.
                let mut stash = self.stash.lock();
                let first = stash.len();
                let unpacked = buf.mem().with(|chunk| {
                    unpack_batch(&chunk[..completion.len], |frame| {
                        stash.push_back((
                            Payload::Owned(frame.to_vec()),
                            RecvProfile {
                                alloc_ns: 0,
                                total_ns: 1,
                                size: frame.len(),
                            },
                        ));
                    })
                });
                if let Err(e) = unpacked {
                    stash.truncate(first);
                    return Err(e);
                }
                // The completion's measured cost rides its first frame.
                let (_, profile) = &mut stash[first];
                profile.alloc_ns = alloc_ns;
                profile.total_ns = self.clock.elapsed_ns(total_start) + 1;
                return Ok(true);
            }
            (CompletionKind::Recv, IMM_CREDIT) => {
                // Flow control alone: repost the consumed recv buffer,
                // then wake senders blocked on the slot ring — or, asked
                // by one blocked at the peer, answer.
                ctx.post_recv(buf);
                match (completion.imm >> 8) as usize {
                    0 => self.ledger.pull(),
                    count => self.credit(count)?,
                }
                return Ok(false);
            }
            (CompletionKind::RecvRdmaWithImm, IMM_LARGE) => {
                ctx.post_recv(buf);
                let start = ((completion.imm >> 8) & 0xfff) as usize;
                let consumed = ((completion.imm >> 20) & 0xfff) as usize;
                let (len, carried) = self.bulk_frame_len(start, consumed)?;
                self.credit(carried)?;
                // Nothing is copied and nothing acquired: the frame is
                // read where it landed, and its slots are credited back
                // when its reader drops the payload.
                let Some(lease) = self.ledger.admit(consumed) else {
                    return Err(self.frame_corruption(format!(
                        "bulk announcement of {consumed} slots exceeds the credit \
                         the peer holds over {} slots",
                        self.my_slots
                    )));
                };
                (
                    Payload::InPlace {
                        region: self.my_large.clone(),
                        base: start * self.my_slot_size + HEADER_BYTES,
                        len,
                        lease,
                    },
                    RecvProfile {
                        alloc_ns: 0,
                        total_ns: self.clock.elapsed_ns(total_start) + 1,
                        size: len,
                    },
                )
            }
            (kind, imm) => {
                ctx.post_recv(buf);
                return Err(
                    self.frame_corruption(format!("unexpected completion {kind:?} imm={imm}"))
                );
            }
        };
        self.stash.lock().push_back(frame);
        Ok(true)
    }

    /// Tell the receiver that input became observable by our own doing
    /// (a frame stashed on its behalf, a local close) — edges the queue
    /// pair will not announce.
    fn fire_ready_hook(&self) {
        let hook = self.ready_hook.lock().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Post the accumulated `[vlong len][frame]…` chunk as one
    /// [`IMM_BATCH`] send from a pooled registered buffer.
    fn flush_batch_chunk(&self, chunk: &mut Vec<u8>, frames_in_chunk: &mut usize) -> RpcResult<()> {
        if *frames_in_chunk == 0 {
            return Ok(());
        }
        let mut buf = self.ctx.pool().acquire_size(chunk.len());
        buf.mem_mut().put(0, chunk);
        let state = self.link.send.lock();
        self.link
            .qp
            .post_send(
                buf.mem(),
                0,
                chunk.len(),
                IMM_BATCH | self.ledger.take() << 8,
            )
            .map_err(verbs_err)?;
        drop(state);
        chunk.clear();
        *frames_in_chunk = 0;
        Ok(())
    }
}

impl Conn for RdmaConn {
    fn send_msg(
        &self,
        key: MethodKey,
        write: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
    ) -> RpcResult<SendProfile> {
        if self.link.closed.load(Ordering::Acquire) {
            return Err(RpcError::ConnectionClosed);
        }

        // --- Serialization: straight into pooled registered segments. ---
        let ser_start = self.clock.now_ns();
        let scratch = self.seg_scratch.lock().pop().unwrap_or_default();
        let mut out = RdmaGatherStream::new(self.ctx.pool(), key, self.cfg.recv_buf_bytes, scratch);
        write(&mut out)?;
        let (mut segs, len, grows) = out.finish();
        let serialize_ns = self.clock.elapsed_ns(ser_start);

        // --- Transmission. ---
        let send_start = self.clock.now_ns();
        match &segs[..] {
            // One segment whenever `rdma_threshold <= recv_buf_bytes`, which
            // `validate` requires; anything else takes the gather path.
            [seg] if len <= self.cfg.rdma_threshold => {
                let state = self.link.send.lock();
                self.link
                    .qp
                    .post_send(seg.mem(), 0, len, IMM_SMALL | self.ledger.take() << 8)
                    .map_err(verbs_err)?;
                drop(state);
            }
            _ => self.send_bulk(&segs, len)?,
        }
        let send_ns = self.clock.elapsed_ns(send_start);

        // Segments return to the pool; their Vec storage is recycled.
        segs.clear();
        self.seg_scratch.lock().push(segs);

        if let Some(m) = &self.metrics {
            let entry = m.entry(key);
            entry.record_phase(Phase::Serialize, serialize_ns);
            entry.record_phase(Phase::Wire, send_ns);
        }

        Ok(SendProfile {
            serialize_ns,
            send_ns,
            adjustments: grows,
            size: len,
        })
    }

    fn send_frames(&self, key: MethodKey, frames: Vec<Vec<u8>>) -> RpcResult<()> {
        if self.link.closed.load(Ordering::Acquire) {
            return Err(RpcError::ConnectionClosed);
        }
        // Merge consecutive small frames into recv-ring-sized chunks (the
        // chunk must land whole in one posted buffer); a frame that won't
        // ride in a chunk flushes what's pending — order is preserved —
        // and takes the ordinary eager/bulk path by itself.
        let cap = self.cfg.recv_buf_bytes;
        let batch_start = self.clock.now_ns();
        let mut chunk: Vec<u8> = Vec::new();
        let mut in_chunk = 0usize;
        let mut merged = 0u64;
        for frame in &frames {
            let prefixed = wire::varint::vlong_size(frame.len() as i64) + frame.len();
            if frame.len() > self.cfg.rdma_threshold || prefixed > cap {
                self.flush_batch_chunk(&mut chunk, &mut in_chunk)?;
                self.send_msg(key, &mut |out| out.write_bytes(frame))?;
                continue;
            }
            if chunk.len() + prefixed > cap {
                self.flush_batch_chunk(&mut chunk, &mut in_chunk)?;
            }
            chunk.write_vlong(frame.len() as i64).expect("vec write");
            chunk.extend_from_slice(frame);
            in_chunk += 1;
            merged += 1;
        }
        self.flush_batch_chunk(&mut chunk, &mut in_chunk)?;
        if let Some(m) = &self.metrics {
            // Frames that rode a merged chunk bypass `send_msg` (and its
            // per-send accounting): give each its amortized share here,
            // so phase sample counts still equal frame counts. Oversized
            // frames recorded themselves above.
            if let Some(per_frame) = self.clock.elapsed_ns(batch_start).checked_div(merged) {
                let entry = m.entry(key);
                for _ in 0..merged {
                    entry.record_phase(Phase::Serialize, 0);
                    entry.record_phase(Phase::Wire, per_frame);
                }
            }
        }
        Ok(())
    }

    fn recv_until(&self, deadline: u64) -> RpcResult<Frame> {
        loop {
            if self.link.closed.load(Ordering::Acquire) {
                return Err(RpcError::ConnectionClosed);
            }
            // Idle moments are when batched credits drain: if nothing else
            // is inbound, whatever we owe the peer goes back now.
            if self.stash.lock().is_empty() {
                self.ledger.flush();
            }
            // Popped under the ring lock: a credit-waiting sender stashes
            // before it releases the poll turn, so once the turn is seen
            // free and the stash empty, only our own poll can fill it.
            let st = self.ring.state.lock();
            if let Some(frame) = self.stash.lock().pop_front() {
                return Ok(frame);
            }
            let remaining = self.clock.wait_bound(deadline);
            if remaining.is_zero() {
                return Err(RpcError::Timeout);
            }
            // Poll — or, while such a sender does, sleep: what it reads
            // lands in the stash and its release wakes us.
            self.progress(st, remaining)?;
        }
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn poll_ready(&self) -> bool {
        // A closed connection's queue pair is in the error state, which
        // counts as pending (the next recv_msg surfaces ConnectionClosed).
        // A pending completion may be a credit rather than a message — the
        // reader's bounded recv_msg then consumes the credit and times out,
        // which is still progress.
        !self.stash.lock().is_empty() || self.link.qp.recv_pending()
    }

    fn set_ready_hook(&self, hook: std::sync::Arc<dyn Fn() + Send + Sync>) {
        *self.ready_hook.lock() = Some(hook.clone());
        self.link.qp.set_recv_interest(hook);
    }

    fn buffered_bytes(&self) -> usize {
        // Frames pulled off the queue pair awaiting recv_msg; completions
        // still in the QP's inbox are NIC-side and not yet host memory.
        self.stash.lock().iter().map(|(p, _)| p.len()).sum()
    }

    fn close(&self) {
        // Leases still out release into nothing from here on.
        self.link.closed.store(true, Ordering::Release);
        // Both queue pairs enter the error state: a poll blocked on either
        // wakes — a credit waiter's too — and the ready hook fires.
        self.link.qp.disconnect();
    }

    fn peer(&self) -> String {
        self.peer_desc.clone()
    }
}

impl std::fmt::Debug for RdmaConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaConn")
            .field("peer", &self.peer_desc)
            .field("peer_slots", &self.peer_slots)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simnet::{model, SimAddr, SimListener};
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;
    use wire::DataInput;

    /// A server and a client node of one fabric, each with a private
    /// context, between which [`Nodes::connect`] brings up connections.
    struct Nodes {
        fabric: Fabric,
        client: NodeId,
        server_ctx: IbContext,
        client_ctx: IbContext,
        cfg: RpcConfig,
        addr: SimAddr,
        listener: SimListener,
    }

    impl Nodes {
        fn new(cfg: &RpcConfig) -> Nodes {
            let fabric = Fabric::new(model::IB_QDR_VERBS);
            let server = fabric.add_node();
            let client = fabric.add_node();
            let addr = SimAddr::new(server, 9000);
            Nodes {
                server_ctx: IbContext::new(&fabric, server, cfg).unwrap(),
                client_ctx: IbContext::new(&fabric, client, cfg).unwrap(),
                listener: SimListener::bind(&fabric, addr).unwrap(),
                fabric,
                client,
                cfg: cfg.clone(),
                addr,
            }
        }

        /// A fresh (client end, server end) pair on the nodes' contexts.
        fn connect(&self) -> (Arc<RdmaConn>, Arc<RdmaConn>) {
            let (fabric, client, addr) = (self.fabric.clone(), self.client, self.addr);
            let (ctx, cfg) = (self.client_ctx.clone(), self.cfg.clone());
            let h = thread::spawn(move || {
                let stream = SimStream::connect(&fabric, client, addr).unwrap();
                RdmaConn::bootstrap(&stream, &ctx, &cfg).unwrap()
            });
            let (srv_stream, _) = self.listener.accept().unwrap();
            let srv_conn = RdmaConn::bootstrap(&srv_stream, &self.server_ctx, &self.cfg).unwrap();
            (Arc::new(h.join().unwrap()), Arc::new(srv_conn))
        }
    }

    fn conn_pair(cfg: &RpcConfig) -> (Arc<RdmaConn>, Arc<RdmaConn>) {
        Nodes::new(cfg).connect()
    }

    #[test]
    fn small_message_roundtrip_zero_adjustments_after_warmup() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        for round in 0..3 {
            let profile = cli
                .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                    out.write_string("rpcoib")?;
                    out.write_bytes(&[9u8; 400])
                })
                .unwrap();
            if round > 0 {
                assert_eq!(profile.adjustments, 0, "history must predict after round 0");
            }
            let (payload, recv) = srv.recv_msg(Duration::from_secs(1)).unwrap();
            assert_eq!(recv.size, profile.size);
            let mut reader = payload.reader();
            assert_eq!(reader.read_string().unwrap(), "rpcoib");
        }
    }

    #[test]
    fn large_message_goes_through_rdma_write() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let p2 = payload.clone();
        let h = thread::spawn(move || {
            cli.send_msg(crate::intern::method_key("p", "big"), &mut |out| {
                out.write_bytes(&p2)
            })
            .unwrap()
        });
        let (got, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
        let profile = h.join().unwrap();
        assert!(profile.size > cfg.rdma_threshold);
        assert_eq!(got.len(), payload.len());
        let mut reader = got.reader();
        let mut out = vec![0u8; payload.len()];
        reader.read_bytes(&mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn back_to_back_large_messages_respect_credits() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        // Credits come back through the client's receive path, which
        // nobody polls here: the sender waiting for them reads them itself.
        let srv2 = Arc::clone(&srv);
        let reader = thread::spawn(move || {
            let mut sizes = Vec::new();
            for _ in 0..4 {
                let (payload, _) = srv2.recv_msg(Duration::from_secs(10)).unwrap();
                let mut r = payload.reader();
                let body = r.read_len_bytes().unwrap();
                sizes.push(body.len());
                assert!(body.iter().enumerate().all(|(i, &b)| b == (i % 256) as u8));
            }
            sizes
        });
        for k in 1..=4usize {
            let body: Vec<u8> = (0..k * 50_000).map(|i| (i % 256) as u8).collect();
            cli.send_msg(crate::intern::method_key("p", "big"), &mut |out| {
                out.write_len_bytes(&body)
            })
            .unwrap();
        }
        let sizes = reader.join().unwrap();
        assert_eq!(sizes, vec![50_000, 100_000, 150_000, 200_000]);
    }

    #[test]
    fn one_deep_ring_behaves_like_the_legacy_gate() {
        // `large_slots = 1` is the paper's configuration: exactly one
        // outstanding large frame, each blocked on the previous release.
        let cfg = RpcConfig {
            large_slots: 1,
            ..RpcConfig::rpcoib()
        };
        let (cli, srv) = conn_pair(&cfg);
        let srv2 = Arc::clone(&srv);
        let reader = thread::spawn(move || {
            for want in 1..=4usize {
                let (payload, _) = srv2.recv_msg(Duration::from_secs(10)).unwrap();
                let body = payload.reader().read_len_bytes().unwrap();
                assert_eq!(body.len(), want * 50_000);
            }
        });
        for k in 1..=4usize {
            let body = vec![3u8; k * 50_000];
            cli.send_msg(crate::intern::method_key("p", "big"), &mut |out| {
                out.write_len_bytes(&body)
            })
            .unwrap();
        }
        reader.join().unwrap();
    }

    #[test]
    fn batch_unpack_rejects_bad_lengths_and_keeps_empty_frames() {
        let unpack = |chunk: &[u8]| {
            let mut frames: Vec<Vec<u8>> = Vec::new();
            unpack_batch(chunk, |f| frames.push(f.to_vec())).map(|()| frames)
        };
        // [len 2][a b][len 0][][len 1][c]: a 0-length sub-frame is a frame.
        assert_eq!(
            unpack(&[2, b'a', b'b', 0, 1, b'c']).unwrap(),
            vec![b"ab".to_vec(), Vec::new(), b"c".to_vec()]
        );
        assert_eq!(unpack(&[0]).unwrap(), vec![Vec::<u8>::new()]);
        // A length that overruns the chunk (first or later sub-frame), a
        // negative one and one cut off mid-vlong are all malformed, and
        // no bytes at all is not a batch of none.
        for bad in [&[5u8, 1, 2][..], &[1, 9, 3, 7], &[0xff], &[0x8f]] {
            assert_eq!(
                unpack(bad).unwrap_err(),
                RpcError::Protocol("malformed batch sub-frame length".into()),
                "{bad:?}"
            );
        }
        assert_eq!(
            unpack(&[]).unwrap_err(),
            RpcError::Protocol("empty batch completion".into())
        );
    }

    #[test]
    fn bidirectional_large_traffic_does_not_deadlock() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let body: Vec<u8> = vec![7u8; 100_000];
        let b2 = body.clone();
        let cli2 = Arc::clone(&cli);
        let srv2 = Arc::clone(&srv);
        let t1 = thread::spawn(move || {
            for _ in 0..3 {
                cli2.send_msg(crate::intern::method_key("p", "up"), &mut |out| {
                    out.write_len_bytes(&b2)
                })
                .unwrap();
                let (payload, _) = cli2.recv_msg(Duration::from_secs(10)).unwrap();
                assert_eq!(payload.reader().read_len_bytes().unwrap().len(), 100_000);
            }
        });
        let b3 = body.clone();
        let t2 = thread::spawn(move || {
            for _ in 0..3 {
                let (payload, _) = srv2.recv_msg(Duration::from_secs(10)).unwrap();
                assert_eq!(payload.reader().read_len_bytes().unwrap().len(), 100_000);
                srv2.send_msg(crate::intern::method_key("p", "down"), &mut |out| {
                    out.write_len_bytes(&b3)
                })
                .unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let cfg = RpcConfig {
            large_region_bytes: 128 * 1024,
            ..RpcConfig::rpcoib()
        };
        let (cli, _srv) = conn_pair(&cfg);
        let body = vec![0u8; 256 * 1024];
        let err = cli
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&body)
            })
            .unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
    }

    /// What a peer that ignores the protocol can do with the rkey: write
    /// `header` at `slot` of the receiver's region and announce it with a
    /// hand-built immediate.
    fn announce(cli: &RdmaConn, header: u64, slot: usize, start: u32, consumed: u32) {
        let state = cli.link.send.lock();
        state.header_mr.write_at(0, &header.to_be_bytes()).unwrap();
        cli.link
            .qp
            .rdma_write(
                &state.header_mr,
                0,
                HEADER_BYTES,
                cli.peer_rkey,
                slot * cli.peer_slot_size,
                Some(IMM_LARGE | (start << 8) | (consumed << 20)),
            )
            .unwrap();
    }

    fn assert_torn_down(srv: &RdmaConn, what: &str) {
        let err = srv.recv_msg(Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)), "{what}: {err}");
        assert_eq!(
            srv.recv_msg(Duration::from_millis(10)).unwrap_err(),
            RpcError::ConnectionClosed,
            "{what}"
        );
    }

    #[test]
    fn frame_longer_than_the_slots_it_pays_for_is_rejected() {
        // One slot announced, three slots' worth of length written: the
        // frame ends inside the region, so only the footprint bound can
        // refuse it. Same for a length that overflows the sum, and for a
        // wrap-shaped grant (start 0, stub included) that is still short.
        let cfg = RpcConfig::rpcoib();
        let slot = cfg.large_region_bytes / cfg.large_slots;
        for (len, consumed) in [
            (3 * slot as u64 - 8, 1),
            (slot as u64 - 7, 1),
            (u64::MAX - 3, 1),
            (3 * slot as u64, 3),
        ] {
            let (cli, srv) = conn_pair(&cfg);
            let metrics = MetricsRegistry::new(false);
            let srv = Arc::into_inner(srv).unwrap().with_metrics(metrics.clone());
            announce(&cli, len, 0, 0, consumed);
            assert_torn_down(&srv, &format!("len {len} over {consumed} slots"));
            assert_eq!(metrics.counters().frame_errors, 1);
        }
        // The largest frame one slot does pay for is read, in place.
        let (cli, srv) = conn_pair(&cfg);
        announce(&cli, slot as u64 - 8, 1, 1, 1);
        let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
        assert!(matches!(payload, Payload::InPlace { .. }));
        assert_eq!(payload.len(), slot - 8);
    }

    #[test]
    fn announcement_beyond_the_credit_the_peer_holds_is_rejected() {
        // Four valid one-slot frames fill the ring; a fifth, with none
        // of them credited back, names slots the peer was never returned.
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let held: Vec<_> = (0..cfg.large_slots as u32)
            .map(|i| {
                announce(&cli, 100, i as usize, i, 1);
                srv.recv_msg(Duration::from_secs(1)).unwrap()
            })
            .collect();
        announce(&cli, 100, 0, 0, 1);
        assert_torn_down(&srv, "fifth frame over four slots");
        // Leases still out release into a closed connection: nothing sent.
        // The peer reads what arrived — no credit, which would overrun its
        // ring — then the close.
        drop(held);
        assert_eq!(
            cli.recv_msg(Duration::from_millis(20)).unwrap_err(),
            RpcError::ConnectionClosed
        );
    }

    #[test]
    fn credits_return_in_ring_order_whatever_order_frames_are_released_in() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let body = vec![5u8; 100_000];
        let key = crate::intern::method_key("p", "big");
        let mut frames: Vec<_> = (0..3)
            .map(|_| {
                cli.send_msg(key, &mut |out| out.write_bytes(&body))
                    .unwrap();
                Some(srv.recv_msg(Duration::from_secs(5)).unwrap().0)
            })
            .collect();
        let credits = |cli: &RdmaConn| {
            // A credit-only completion surfaces as a timeout.
            let _ = cli.recv_msg(Duration::from_millis(20));
            cli.ring.state.lock().credits
        };
        assert_eq!(credits(&cli), 1);
        // The youngest and the middle one go first: nothing is owed yet —
        // their slots lie behind one still being read.
        frames[2] = None;
        frames[1] = None;
        assert_eq!(credits(&cli), 1);
        // The oldest goes: the whole released prefix comes back at once.
        frames[0] = None;
        assert_eq!(credits(&cli), 4);
    }

    #[test]
    fn carried_credits_return_in_ring_order_and_cost_no_message() {
        // Eight slots, so the batch is four and a released prefix of
        // three is held for a frame to carry.
        let cfg = RpcConfig {
            large_slots: 8,
            ..RpcConfig::rpcoib()
        };
        let (cli, srv) = conn_pair(&cfg);
        let fabric = cli.ctx.device().fabric();
        let key = crate::intern::method_key("p", "big");
        let body = vec![5u8; 100_000];
        let mut frames: Vec<_> = (0..3)
            .map(|_| {
                cli.send_msg(key, &mut |out| out.write_bytes(&body))
                    .unwrap();
                Some(srv.recv_msg(Duration::from_secs(5)).unwrap().0)
            })
            .collect();
        // One eager frame back, read by the client: what it carried is in
        // the client's ring, and it is the only message that crossed.
        let crossing = |want_credits: usize| {
            let (sends_before, ..) = fabric.stats().snapshot();
            srv.send_msg(key, &mut |out| out.write_u8(1)).unwrap();
            let (sends_after, ..) = fabric.stats().snapshot();
            assert_eq!(sends_after - sends_before, 1);
            assert_eq!(cli.recv_msg(Duration::from_secs(1)).unwrap().0.len(), 1);
            assert_eq!(cli.ring.state.lock().credits, want_credits);
        };
        crossing(5);
        // The youngest and the middle one go first: nothing is owed yet —
        // their slots lie behind one still being read.
        frames[2] = None;
        frames[1] = None;
        crossing(5);
        // The oldest goes: the whole released prefix is owed, held (no
        // message: the client's inbox stays empty), and rides the next
        // frame out.
        frames[0] = None;
        assert_eq!(
            cli.recv_msg(Duration::from_millis(20)).unwrap_err(),
            RpcError::Timeout
        );
        assert_eq!(cli.ring.state.lock().credits, 5);
        crossing(8);
    }

    #[test]
    fn carried_count_beyond_the_ring_is_rejected_on_every_carrier() {
        let cfg = RpcConfig::rpcoib();
        let beyond = cfg.large_slots as u32 + 1;
        // A well-formed one-byte frame (or batch of one empty frame)
        // under a hand-built immediate.
        let send = |cli: &RdmaConn, imm: u32| {
            let state = cli.link.send.lock();
            state.credit_mr.write_at(0, &[0]).unwrap();
            cli.link.qp.post_send(&state.credit_mr, 0, 1, imm).unwrap();
        };
        type Carrier = (&'static str, Box<dyn Fn(&RdmaConn, u32)>);
        let carriers: [Carrier; 3] = [
            (
                "eager immediate",
                Box::new(move |cli, count| send(cli, IMM_SMALL | count << 8)),
            ),
            (
                "batch immediate",
                Box::new(move |cli, count| send(cli, IMM_BATCH | count << 8)),
            ),
            (
                "bulk length word",
                Box::new(|cli, count| {
                    announce(cli, u64::from(count) << CARRIED_SHIFT | 100, 0, 0, 1)
                }),
            ),
        ];
        for (what, carry) in &carriers {
            let (cli, srv) = conn_pair(&cfg);
            let metrics = MetricsRegistry::new(false);
            let srv = Arc::into_inner(srv).unwrap().with_metrics(metrics.clone());
            carry(&cli, beyond);
            assert_torn_down(&srv, what);
            assert_eq!(metrics.counters().frame_errors, 1, "{what}");
            // The whole ring, which an honest peer can owe, is taken.
            let (cli, srv) = conn_pair(&cfg);
            carry(&cli, cfg.large_slots as u32);
            srv.recv_msg(Duration::from_secs(1)).expect(what);
            assert_eq!(srv.ring.state.lock().credits, cfg.large_slots, "{what}");
        }
    }

    /// A four-slot ring small enough to fill with one frame, and a
    /// receiver driven the way the server's reader drives one: it reads when
    /// its hook has fired and input is pending, and is otherwise nowhere
    /// near `recv_msg` — it has no idle moment. It reads `frames` frames
    /// and returns their lengths; the first `keep` it holds on to, and
    /// lets go of the oldest each time it is told to, the rest it drops
    /// as soon as read.
    fn event_driven_pair(
        frames: usize,
        keep: usize,
    ) -> (
        RpcConfig,
        Arc<RdmaConn>,
        std::sync::mpsc::Sender<()>,
        thread::JoinHandle<Vec<usize>>,
    ) {
        let cfg = RpcConfig {
            rdma_threshold: 2 * 1024,
            recv_buf_bytes: 4 * 1024,
            prefill_per_class: 1,
            large_region_bytes: 16 * 1024,
            large_slots: 4,
            call_timeout: Duration::from_secs(4),
            ..RpcConfig::rpcoib()
        };
        let (cli, srv) = conn_pair(&cfg);
        let (wake, woken) = std::sync::mpsc::channel();
        srv.set_ready_hook(Arc::new(move || {
            let _ = wake.send(());
        }));
        let (let_go, told) = std::sync::mpsc::channel();
        let reader = thread::spawn(move || {
            let mut lens = Vec::new();
            let mut kept = VecDeque::new();
            while lens.len() < frames {
                let _ = woken.recv_timeout(Duration::from_millis(10));
                if told.try_recv().is_ok() {
                    kept.pop_front();
                }
                while srv.poll_ready() {
                    match srv.recv_msg(Duration::from_millis(1)) {
                        Ok((payload, _)) => {
                            lens.push(payload.len());
                            if lens.len() <= keep {
                                kept.push_back(payload);
                            }
                        }
                        Err(RpcError::Timeout) => {}
                        Err(e) => panic!("event-driven receiver: {e}"),
                    }
                }
            }
            lens
        });
        (cfg, cli, let_go, reader)
    }

    #[test]
    fn a_sender_needing_the_whole_ring_pulls_the_credit_its_peer_holds() {
        // The first frame's slot is released at once and held (one owed,
        // a batch of two); the peer has nothing to send and never goes
        // idle. The second frame needs all four slots.
        let (cfg, cli, _let_go, reader) = event_driven_pair(2, 0);
        let key = crate::intern::method_key("p", "m");
        let whole = cfg.large_region_bytes - HEADER_BYTES;
        let started = Instant::now();
        for len in [3_000, whole] {
            cli.send_msg(key, &mut |out| out.write_bytes(&vec![1u8; len]))
                .unwrap();
        }
        assert_eq!(reader.join().unwrap(), [3_000, whole]);
        assert!(
            started.elapsed() < cfg.call_timeout / 2,
            "the held credit came back after {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn an_ask_that_finds_nothing_held_is_answered_by_the_releases_that_follow() {
        // As above, but `kept` one-slot frames are still being read when
        // the sender asks: there is nothing to answer with until their
        // readers let go, one by one — and each of those releases (one
        // owed, below the batch) is wanted: none may be held. With two
        // kept, the second release is answered only because the sender,
        // one credit richer and still short, has asked again.
        for kept in [1, 2] {
            let (cfg, cli, let_go, reader) = event_driven_pair(kept + 1, kept);
            let key = crate::intern::method_key("p", "m");
            let whole = cfg.large_region_bytes - HEADER_BYTES;
            for _ in 0..kept {
                cli.send_msg(key, &mut |out| out.write_bytes(&[1u8; 3_000]))
                    .unwrap();
            }
            let cli2 = Arc::clone(&cli);
            let sender = thread::spawn(move || {
                cli2.send_msg(key, &mut |out| out.write_bytes(&vec![1u8; whole]))
            });
            let started = Instant::now();
            for _ in 0..kept {
                // Long enough for the ask to have been read.
                thread::sleep(Duration::from_millis(100));
                let_go.send(()).unwrap();
            }
            sender.join().unwrap().unwrap();
            let mut lens = vec![3_000; kept];
            lens.push(whole);
            assert_eq!(reader.join().unwrap(), lens);
            assert!(
                started.elapsed() < cfg.call_timeout / 2,
                "{kept} kept: a release was held, {:?}",
                started.elapsed()
            );
        }
    }

    #[test]
    fn with_bytes_visits_registered_memory_where_the_frame_landed() {
        // An eager frame lands in a pooled buffer, a bulk frame in the
        // ring; holding the first bulk frame makes the second land behind
        // it, at a `base` that is not the region's start.
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let key = crate::intern::method_key("p", "visit");
        let bodies: [Vec<u8>; 3] = [
            (0..300u32).map(|i| i as u8).collect(),
            (0..100_000u32).map(|i| (i % 239) as u8).collect(),
            (0..100_000u32).map(|i| (i % 241) as u8).collect(),
        ];
        let mut held = Vec::new();
        for body in &bodies {
            cli.send_msg(key, &mut |out| {
                out.write_u8(7)?;
                out.write_bytes(body)
            })
            .unwrap();
            let (payload, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
            let mut reader = payload.reader();
            assert_eq!(reader.read_u8().unwrap(), 7);
            let over = reader.with_bytes(body.len() + 1, |_| panic!("visited"));
            assert_eq!(over.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
            let half = body.len() / 2;
            assert!(reader.with_bytes(half, |b| b == &body[..half]).unwrap());
            assert_eq!(reader.position(), 1 + half);
            // A staged read picks up where the visit stopped.
            assert_eq!(reader.read_u8().unwrap(), body[half]);
            let rest = &body[half + 1..];
            assert!(reader.with_bytes(rest.len(), |b| b == rest).unwrap());
            assert_eq!(reader.remaining(), 0);
            held.push(payload);
        }
        assert!(matches!(held[0], Payload::Pooled { .. }));
        assert!(matches!(held[1], Payload::InPlace { .. }));
        let slot = cfg.large_region_bytes / cfg.large_slots;
        assert!(matches!(held[2], Payload::InPlace { base, .. } if base > slot));
    }

    #[test]
    fn evacuated_frame_frees_its_slot_and_keeps_its_bytes() {
        let cfg = RpcConfig {
            large_slots: 1,
            ..RpcConfig::rpcoib()
        };
        let (cli, srv) = conn_pair(&cfg);
        let key = crate::intern::method_key("p", "big");
        let first: Vec<u8> = (0..150_000u32).map(|i| (i % 241) as u8).collect();
        cli.send_msg(key, &mut |out| out.write_bytes(&first))
            .unwrap();
        let (mut payload, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
        // Registering the copy's buffer is set-up, not the copy.
        srv.ctx.prewarm(256 * 1024, 1);
        let fabric = srv.ctx.device().fabric();
        let node = srv.ctx.device().node();
        let before = fabric.modeled_ns(node);
        srv.ctx.evacuate(&mut payload);
        assert!(matches!(payload, Payload::Pooled { .. }));
        // The copy is charged where it is made; the release it causes
        // sends the one-byte credit message.
        let m = fabric.model();
        let charged = hostcost::drain_ns(first.len()) + m.stack_ns(1) + m.wire_ns(1);
        assert_eq!(
            fabric.modeled_ns(node) - before,
            charged + m.base_latency_ns
        );
        // Evacuating again is a no-op, charged nothing.
        srv.ctx.evacuate(&mut payload);
        assert_eq!(
            fabric.modeled_ns(node) - before,
            charged + m.base_latency_ns
        );
        // The only slot is free again: a second frame overwrites it while
        // the first is still held, and the held copy does not change.
        cli.send_msg(key, &mut |out| out.write_bytes(&[9u8; 150_000]))
            .unwrap();
        let mut got = vec![0u8; first.len()];
        payload.reader().read_bytes(&mut got).unwrap();
        assert_eq!(got, first);
    }

    #[test]
    fn a_held_frame_outlives_its_connection_and_keeps_only_the_region() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let key = crate::intern::method_key("p", "big");
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 239) as u8).collect();
        for _ in 0..2 {
            cli.send_msg(key, &mut |out| out.write_bytes(&body))
                .unwrap();
        }
        // One frame in a reader's hands, one still in the stash — and the
        // connection closes and goes away under both.
        let (held, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
        assert!(srv
            .progress(srv.ring.state.lock(), Duration::from_secs(5))
            .unwrap());
        assert_eq!(srv.buffered_bytes(), body.len());
        srv.close();
        drop(Arc::into_inner(srv).expect("sole owner"));
        // The queue pair went with the connection: the peer finds out.
        let err = cli
            .send_msg(key, &mut |out| out.write_bytes(&[1u8; 64]))
            .unwrap_err();
        assert_eq!(err, RpcError::ConnectionClosed);
        // The region did not: the frame still reads, and a write to its
        // rkey still lands — until the last payload is dropped. (Written
        // through a fresh queue pair: the connection's is in the error
        // state, where every post fails.)
        let device = cli.ctx.device();
        let (qp, other) = (device.create_qp(), device.create_qp());
        qp.connect(other.endpoint());
        let probe = |cli: &RdmaConn| {
            let state = cli.link.send.lock();
            qp.rdma_write(&state.header_mr, 0, 8, cli.peer_rkey, 3 << 20, None)
        };
        let mut got = vec![0u8; body.len()];
        held.reader().read_bytes(&mut got).unwrap();
        assert_eq!(got, body);
        assert_eq!(probe(&cli), Ok(()));
        drop(held);
        assert_eq!(probe(&cli), Err(VerbsError::BadRemoteKey));
    }

    #[test]
    fn credit_starvation_is_a_retryable_transport_error() {
        // A peer that never reads: the sender must come back with
        // CreditStarved (retryable, non-invalidating) — not a wall-clock
        // Timeout, and never a deadlock.
        let cfg = RpcConfig {
            rdma_threshold: 2 * 1024,
            recv_buf_bytes: 4 * 1024,
            prefill_per_class: 1,
            large_region_bytes: 16 * 1024,
            large_slots: 4,
            call_timeout: Duration::from_millis(200),
            ..RpcConfig::rpcoib()
        };
        let (cli, _srv) = conn_pair(&cfg);
        let body = vec![1u8; 10_000]; // 3 of the 4 slots
        cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
            out.write_bytes(&body)
        })
        .unwrap();
        let err = cli
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&body)
            })
            .unwrap_err();
        assert_eq!(err, RpcError::CreditStarved);
        assert!(err.is_retryable());
        assert!(!err.invalidates_connection());
    }

    #[test]
    fn close_unblocks_a_credit_starved_sender() {
        let cfg = RpcConfig {
            rdma_threshold: 2 * 1024,
            recv_buf_bytes: 4 * 1024,
            prefill_per_class: 1,
            large_region_bytes: 16 * 1024,
            large_slots: 4,
            call_timeout: Duration::from_secs(30),
            ..RpcConfig::rpcoib()
        };
        let (cli, _srv) = conn_pair(&cfg);
        let body = vec![1u8; 10_000];
        cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
            out.write_bytes(&body)
        })
        .unwrap();
        let cli2 = Arc::clone(&cli);
        let blocked = thread::spawn(move || {
            cli2.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&[1u8; 10_000])
            })
        });
        thread::sleep(Duration::from_millis(50));
        cli.close();
        let err = blocked.join().unwrap().unwrap_err();
        assert_eq!(
            err,
            RpcError::ConnectionClosed,
            "close must beat the 30s budget"
        );
    }

    #[test]
    fn two_ends_starved_for_each_others_credits_both_complete() {
        // One slot each way. Each end holds the frame the other sent it,
        // then sends a second one, which waits for the credit its peer
        // owes. Those credits go back when the held frames are let go:
        // sends, under each end's own `link.send`. A sender that waited
        // for credits holding that lock would keep its peer's credit
        // from leaving, and both would end `CreditStarved`.
        let cfg = RpcConfig {
            large_slots: 1,
            call_timeout: Duration::from_secs(4),
            ..RpcConfig::rpcoib()
        };
        let (cli, srv) = conn_pair(&cfg);
        let key = crate::intern::method_key("p", "big");
        let body = vec![3u8; 100_000];
        for end in [&cli, &srv] {
            end.send_msg(key, &mut |out| out.write_bytes(&body))
                .unwrap();
        }
        let held_by_srv = srv.recv_msg(Duration::from_secs(5)).unwrap().0;
        let held_by_cli = cli.recv_msg(Duration::from_secs(5)).unwrap().0;
        let senders: Vec<_> = [&cli, &srv]
            .into_iter()
            .map(|end| {
                let (end, body) = (Arc::clone(end), body.clone());
                thread::spawn(move || end.send_msg(key, &mut |out| out.write_bytes(&body)))
            })
            .collect();
        // Long enough for both to be waiting: neither can be granted.
        thread::sleep(Duration::from_millis(100));
        drop(held_by_srv);
        drop(held_by_cli);
        for sender in senders {
            sender.join().unwrap().unwrap();
        }
        for end in [&srv, &cli] {
            assert_eq!(
                end.recv_msg(Duration::from_secs(5)).unwrap().0.len(),
                body.len()
            );
        }
    }

    #[test]
    fn malformed_hellos_are_rejected_cleanly() {
        fn bootstrap_against(hello: Vec<u8>) -> RpcError {
            let cfg = RpcConfig::rpcoib();
            let fabric = Fabric::new(model::IB_QDR_VERBS);
            let server = fabric.add_node();
            let client = fabric.add_node();
            let ctx = IbContext::new(&fabric, server, &cfg).unwrap();
            let addr = SimAddr::new(server, 9100);
            let listener = SimListener::bind(&fabric, addr).unwrap();
            let f2 = fabric.clone();
            let h = thread::spawn(move || {
                let stream = SimStream::connect(&f2, client, addr).unwrap();
                (&stream).write_all(&hello).unwrap();
                // Drain the server's (valid) hello so its write can't jam.
                let mut theirs = [0u8; HELLO_BYTES];
                let _ = stream.read_exact_at(&mut theirs);
            });
            let (srv_stream, _) = listener.accept().unwrap();
            let err = RdmaConn::bootstrap(&srv_stream, &ctx, &cfg).unwrap_err();
            h.join().unwrap();
            err
        }

        fn hello_with(region: u64, slots: u32) -> Vec<u8> {
            let mut h = vec![0u8; HELLO_BYTES];
            h[0..4].copy_from_slice(&HELLO_MAGIC.to_be_bytes());
            h[4] = HELLO_VERSION;
            h[32..40].copy_from_slice(&region.to_be_bytes());
            h[40..44].copy_from_slice(&slots.to_be_bytes());
            h
        }

        // Garbage magic — the pre-hello panic class this replaces.
        let err = bootstrap_against(vec![0xEEu8; HELLO_BYTES]);
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Zero-size region.
        let err = bootstrap_against(hello_with(0, 4));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Region smaller than the threshold: an unusable large path.
        let err = bootstrap_against(hello_with(1024, 1));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Absurd region size.
        let err = bootstrap_against(hello_with(u64::MAX, 4));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Zero slots.
        let err = bootstrap_against(hello_with(4 << 20, 0));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Region not divisible into slots.
        let err = bootstrap_against(hello_with(4 << 20, 3));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
    }

    #[test]
    fn unknown_wr_id_completion_tears_down_gracefully() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        // Corrupt the server's accounting: the next completion will name a
        // work-request id its context's posted-map no longer knows.
        srv.ctx.inner.posted.lock().clear();
        cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
            out.write_bytes(&[1u8; 64])
        })
        .unwrap();
        let err = srv.recv_msg(Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Torn down, not panicked — and permanently closed.
        assert_eq!(
            srv.recv_msg(Duration::from_millis(10)).unwrap_err(),
            RpcError::ConnectionClosed
        );
    }

    #[test]
    fn the_threshold_is_the_last_eager_length() {
        // Read off the wire, not off the connection: a frame of exactly
        // `rdma_threshold` bytes leaves as one send, one byte more as an
        // RDMA write (the length header, then its single segment).
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let fabric = cli.ctx.device().fabric();
        let key = crate::intern::method_key("p", "m");
        for (len, sends, writes) in [(cfg.rdma_threshold, 1, 0), (cfg.rdma_threshold + 1, 0, 2)] {
            let (sends_before, _, writes_before, _) = fabric.stats().snapshot();
            let profile = cli
                .send_msg(key, &mut |out| out.write_bytes(&vec![7u8; len]))
                .unwrap();
            assert_eq!(profile.size, len);
            let (sends_after, _, writes_after, _) = fabric.stats().snapshot();
            assert_eq!(
                (sends_after - sends_before, writes_after - writes_before),
                (sends, writes),
                "a {len}-byte frame took the wrong path"
            );
            let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
            assert_eq!(payload.len(), len);
        }
    }

    #[test]
    fn recv_timeout_when_idle() {
        let cfg = RpcConfig::rpcoib();
        let (_cli, srv) = conn_pair(&cfg);
        assert_eq!(
            srv.recv_msg(Duration::from_millis(30)).unwrap_err(),
            RpcError::Timeout
        );
    }

    #[test]
    fn ib_context_requires_rdma_fabric() {
        let fabric = Fabric::new(model::IPOIB_QDR);
        let node = fabric.add_node();
        let err = IbContext::new(&fabric, node, &RpcConfig::rpcoib()).unwrap_err();
        assert!(matches!(err, RpcError::Config(_)));
    }

    #[test]
    fn batched_frames_roundtrip_in_order() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 50 + i as usize]).collect();
        cli.send_frames(crate::intern::method_key("p", "m"), frames.clone())
            .unwrap();
        for want in &frames {
            assert!(srv.poll_ready() || want == &frames[0]);
            let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
            assert_eq!(payload.len(), want.len());
            let mut got = vec![0u8; want.len()];
            payload.reader().read_bytes(&mut got).unwrap();
            assert_eq!(&got, want);
        }
        assert!(!srv.poll_ready(), "stash fully drained");
    }

    #[test]
    fn batch_mixed_with_large_frame_keeps_order() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let frames = vec![
            vec![1u8; 64],
            vec![2u8; 100_000], // over rdma_threshold: goes out alone
            vec![3u8; 64],
        ];
        cli.send_frames(crate::intern::method_key("p", "m"), frames.clone())
            .unwrap();
        for want in &frames {
            let (payload, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
            assert_eq!(payload.len(), want.len());
            let mut got = vec![0u8; want.len()];
            payload.reader().read_bytes(&mut got).unwrap();
            assert_eq!(&got, want, "ordering drifted around the large frame");
        }
    }

    #[test]
    fn pool_is_prefilled_and_reused() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        // Warm the path.
        for _ in 0..10 {
            cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&[1u8; 200])
            })
            .unwrap();
            let _ = srv.recv_msg(Duration::from_secs(1)).unwrap();
        }
        let (_hits, misses, _ret, _over) = cli.ctx.pool().native().stats().snapshot();
        // After warmup the send path should not allocate fresh regions for
        // every call (some misses during warmup are expected).
        let (hits2, _m2, _r2, _o2) = cli.ctx.pool().native().stats().snapshot();
        assert!(hits2 > 0, "pool must be serving from freelists");
        assert!(misses < 50, "unbounded registration leak");
    }

    #[test]
    fn steady_state_bulk_sends_touch_no_new_registrations() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let body = vec![9u8; 200_000];
        let roundtrip = |n: usize| {
            for _ in 0..n {
                cli.send_msg(crate::intern::method_key("p", "bulk"), &mut |out| {
                    out.write_bytes(&body)
                })
                .unwrap();
                let _ = srv.recv_msg(Duration::from_secs(5)).unwrap();
            }
        };
        roundtrip(3); // warm: the segment class populates
        let fabric = cli.ctx.device().fabric();
        let (_, _, _, regs_before) = fabric.stats().snapshot();
        let (_, misses_before, _, over_before) = cli.ctx.pool_stats();
        let (_, srv_misses_before, _, srv_over_before) = srv.ctx.pool_stats();
        roundtrip(10);
        let (_, _, _, regs_after) = fabric.stats().snapshot();
        let (_, misses_after, _, over_after) = cli.ctx.pool_stats();
        let (_, srv_misses_after, _, srv_over_after) = srv.ctx.pool_stats();
        assert_eq!(
            regs_after - regs_before,
            0,
            "steady-state bulk sends must re-use cached registrations"
        );
        assert_eq!(misses_after - misses_before, 0, "sender pool misses");
        assert_eq!(over_after - over_before, 0, "sender oversize allocations");
        assert_eq!(
            srv_misses_after - srv_misses_before,
            0,
            "receiver pool misses"
        );
        assert_eq!(
            srv_over_after - srv_over_before,
            0,
            "receiver oversize allocations"
        );
    }

    /// The largest single allocation this thread makes while [`largest_alloc`]
    /// watches it; other threads and other times pass straight through.
    struct Watched;

    thread_local! {
        static LARGEST: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    fn note_alloc(size: usize) {
        // `try_with`: the allocator also runs during TLS setup and teardown.
        let _ = LARGEST.try_with(|largest| {
            if let Some(seen) = largest.get() {
                largest.set(Some(seen.max(size)));
            }
        });
    }

    // SAFETY: every call is passed unchanged to the system allocator,
    // which upholds `GlobalAlloc`'s contract; the watch only reads a
    // thread-local `Cell` and allocates nothing itself.
    unsafe impl std::alloc::GlobalAlloc for Watched {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note_alloc(layout.size());
            std::alloc::System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            note_alloc(new_size);
            std::alloc::System.realloc(ptr, layout, new_size)
        }
        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            note_alloc(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }
    }

    #[global_allocator]
    static WATCHED: Watched = Watched;

    /// `f`'s result and the largest allocation this thread made running it.
    pub(crate) fn largest_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
        LARGEST.with(|largest| largest.set(Some(0)));
        let result = f();
        (
            result,
            LARGEST.with(|largest| largest.take()).expect("set above"),
        )
    }

    /// What a refusal may allocate whatever the peer sent — an error's
    /// text, the first slot of a connection's stash. Nothing a peer's
    /// bytes size may be larger than those bytes.
    const FLOOR: usize = 1024;

    /// Small buffers, so the hostile cases below bring up connections
    /// cheaply: four 16 KiB slots, 4 KiB receive buffers.
    fn small_cfg() -> RpcConfig {
        RpcConfig {
            rdma_threshold: 2 * 1024,
            recv_buf_bytes: 4 * 1024,
            prefill_per_class: 1,
            large_region_bytes: 64 * 1024,
            large_slots: 4,
            ..RpcConfig::rpcoib()
        }
    }

    thread_local! {
        /// One server node and one client node for every case of the
        /// immediates property: each case connects afresh, and the
        /// server node's shared queue outlives them all.
        static HOSTILE: Nodes = Nodes::new(&small_cfg());
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any 0–64 bytes as a hello — a third with the right lead, a third
        /// with plausible geometry too — are taken or refused as a
        /// protocol error, and size nothing.
        #[test]
        fn any_hello_is_taken_or_refused_as_a_protocol_error(
            bytes in vec(any::<u8>(), 0..65),
            lead in 0u8..3,
            region_kib in 0u64..9_000,
            slots in 0u32..9,
        ) {
            let mut hello = bytes;
            if lead > 0 && hello.len() > 4 {
                hello[0..4].copy_from_slice(&HELLO_MAGIC.to_be_bytes());
                hello[4] = HELLO_VERSION;
            }
            if lead > 1 && hello.len() >= 44 {
                hello[32..40].copy_from_slice(&(region_kib << 10).to_be_bytes());
                hello[40..44].copy_from_slice(&slots.to_be_bytes());
            }
            let cfg = RpcConfig::rpcoib();
            let (verdict, largest) = largest_alloc(|| parse_hello(&hello, &cfg).map(|_| ()));
            match verdict {
                Ok(()) => prop_assert!(hello.len() >= 44, "a {}-byte hello taken", hello.len()),
                Err(RpcError::Protocol(_)) => {}
                Err(e) => panic!("{hello:?}: {e}"),
            }
            prop_assert!(largest <= FLOOR, "{hello:?}: a {largest}-byte allocation");
        }

        /// Any chunk — half of them of short lengths, so that they split —
        /// is split into frames that lie in order inside it, or refused as
        /// a protocol error. What the stash copies is those frames: never
        /// more in all than the chunk holds.
        #[test]
        fn any_batch_chunk_splits_inside_itself_or_is_refused(
            bytes in vec(any::<u8>(), 0..65),
            short in any::<bool>(),
        ) {
            let chunk: Vec<u8> = if short { bytes.iter().map(|b| b % 4).collect() } else { bytes };
            let base = chunk.as_ptr() as usize;
            let mut frames = Vec::with_capacity(chunk.len());
            let (verdict, largest) = largest_alloc(|| {
                unpack_batch(&chunk, |frame| frames.push((frame.as_ptr() as usize - base, frame.len())))
            });
            match verdict {
                Ok(()) => prop_assert!(!frames.is_empty()),
                Err(RpcError::Protocol(_)) => {}
                Err(e) => panic!("{chunk:?}: {e}"),
            }
            let mut end = 0;
            for (at, len) in frames {
                prop_assert!(at >= end && at + len <= chunk.len(), "{chunk:?}");
                end = at + len;
            }
            prop_assert!(largest <= FLOOR, "{chunk:?}: a {largest}-byte allocation");
        }

        /// Any immediate on either completion kind — unknown tags, a start
        /// or a count beyond the ring, credits beyond the ring carried in
        /// the immediate or in a bulk frame's length word — is read, or
        /// refused as a protocol error with the connection torn down; it
        /// sizes nothing, and the server node's shared queue holds
        /// [`SRQ_DEPTH`] buffers again afterwards.
        #[test]
        fn any_immediate_is_read_or_refused_and_the_node_keeps_its_posted_buffers(
            write in any::<bool>(),
            tag in 0u32..10,
            start in 0u32..7,
            count in 0u32..7,
            wide in any::<u32>(),
            wild in 0u8..4,
            carried in 0u64..7,
            len in 0u64..40_000,
            word in any::<u64>(),
        ) {
            HOSTILE.with(|nodes| {
                let tag = if tag < 8 { tag } else { wide & 0xff };
                let high = match (wild, tag) {
                    (0, _) => wide >> 8,
                    (_, IMM_LARGE) => start | count << 12,
                    _ => count,
                };
                let imm = tag | high << 8;
                let (cli, srv) = nodes.connect();
                {
                    let state = cli.link.send.lock();
                    if write {
                        let word = if wild == 1 { word } else { carried << CARRIED_SHIFT | len };
                        let slot = start.min(cli.peer_slots as u32 - 1) as usize;
                        state.header_mr.write_at(0, &word.to_be_bytes()).unwrap();
                        cli.link
                            .qp
                            .rdma_write(&state.header_mr, 0, HEADER_BYTES, cli.peer_rkey,
                                        slot * cli.peer_slot_size, Some(imm))
                            .unwrap();
                    } else {
                        state.credit_mr.write_at(0, &[0]).unwrap();
                        cli.link.qp.post_send(&state.credit_mr, 0, 1, imm).unwrap();
                    }
                }
                let (verdict, largest) = largest_alloc(|| srv.poll_one(Duration::from_secs(5)));
                let closed = srv.link.closed.load(Ordering::Acquire);
                match verdict {
                    Ok(_) => prop_assert!(!closed, "imm {imm:#x} read on a closed connection"),
                    Err(RpcError::Protocol(_)) => prop_assert!(closed, "imm {imm:#x} refused, left open"),
                    Err(e) => panic!("imm {imm:#x} (write: {write}): {e}"),
                }
                prop_assert_eq!(nodes.server_ctx.posted_recvs(), SRQ_DEPTH, "imm {:#x}", imm);
                prop_assert!(largest <= FLOOR, "imm {imm:#x}: a {largest}-byte allocation");
            });
        }
    }

    #[test]
    fn a_node_with_sixteen_connections_posts_what_a_node_with_one_does() {
        let cfg = RpcConfig::rpcoib();
        let nodes = Nodes::new(&cfg);
        let fabric = &nodes.fabric;
        let node = nodes.server_ctx.device().node();
        let regs_before = fabric.stats().snapshot().3;
        let held_before = fabric.registered_bytes(node);
        let pairs: Vec<_> = (0..16).map(|_| nodes.connect()).collect();
        for ctx in [&nodes.server_ctx, &nodes.client_ctx] {
            assert_eq!(ctx.posted_recvs(), SRQ_DEPTH);
        }
        // Each end registered its large region and its two small send
        // regions, and nothing it receives into.
        let per_end = cfg.large_region_bytes as u64 + 128 + 64;
        assert_eq!(fabric.registered_bytes(node) - held_before, 16 * per_end);
        assert_eq!(fabric.stats().snapshot().3 - regs_before, 2 * 16 * 3);
        // Traffic on all of them draws on the one queue, and puts back.
        let key = crate::intern::method_key("p", "m");
        for (cli, srv) in &pairs {
            cli.send_msg(key, &mut |out| out.write_u8(1)).unwrap();
            srv.recv_msg(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(nodes.server_ctx.posted_recvs(), SRQ_DEPTH);
    }

    #[test]
    fn more_pollers_than_the_shared_queue_holds_never_see_receiver_not_ready() {
        let nodes = Nodes::new(&small_cfg());
        let pairs: Vec<_> = (0..SRQ_DEPTH + 8).map(|_| nodes.connect()).collect();
        // Empty the server node's queue: a queue pair of its own on it
        // takes every posted buffer and gives none back.
        let ctx = &nodes.server_ctx;
        let thief = ctx.device().create_qp_on(&ctx.inner.srq);
        let dev = RdmaDevice::open(&nodes.fabric, nodes.fabric.add_node()).unwrap();
        let sender = dev.create_qp();
        sender.connect(thief.endpoint());
        thief.connect(sender.endpoint());
        let one = dev.register(1);
        for _ in 0..SRQ_DEPTH {
            sender.post_send(&one, 0, 1, 0).unwrap();
            thief.poll_recv(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(ctx.posted_recvs(), 0);
        // Forty frames, forty ends read at once.
        let key = crate::intern::method_key("p", "m");
        for (cli, _) in &pairs {
            cli.send_msg(key, &mut |out| out.write_u8(7)).unwrap();
        }
        let barrier = Arc::new(std::sync::Barrier::new(pairs.len()));
        let readers: Vec<_> = pairs
            .iter()
            .map(|(_, srv)| {
                let (srv, barrier) = (Arc::clone(srv), Arc::clone(&barrier));
                thread::spawn(move || {
                    barrier.wait();
                    srv.recv_msg(Duration::from_secs(5))
                        .map(|(frame, _)| frame.len())
                })
            })
            .collect();
        for reader in readers {
            assert_eq!(reader.join().unwrap(), Ok(1));
        }
    }

    fn same(a: &IbContext, b: &IbContext) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    #[test]
    fn endpoints_of_one_geometry_share_a_node_context_while_one_of_them_lives() {
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        let (a, b) = (fabric.add_node(), fabric.add_node());
        let rpc = RpcConfig::rpcoib();
        let first = IbContext::for_node(&fabric, a, &rpc).unwrap();
        assert!(same(
            &first,
            &IbContext::for_node(&fabric, a, &rpc).unwrap()
        ));
        // A knob outside the geometry does not split the node.
        let other_knobs = RpcConfig {
            handlers: 2,
            large_slots: 8,
            ..RpcConfig::rpcoib()
        };
        assert!(same(
            &first,
            &IbContext::for_node(&fabric, a, &other_knobs).unwrap()
        ));
        // Another node, or another geometry (the data plane's larger
        // receive buffers), is another context.
        assert!(!same(
            &first,
            &IbContext::for_node(&fabric, b, &rpc).unwrap()
        ));
        let data = RpcConfig {
            rdma_threshold: 64 * 1024 + 256,
            recv_buf_bytes: 128 * 1024,
            large_region_bytes: 1024 * 1024,
            prefill_per_class: 2,
            ..RpcConfig::rpcoib()
        };
        assert!(!same(
            &first,
            &IbContext::for_node(&fabric, a, &data).unwrap()
        ));
        assert!(!same(&first, &IbContext::new(&fabric, a, &rpc).unwrap()));
        // The fabric does not keep it: gone with its last handle.
        let gone = Arc::downgrade(&first.inner);
        drop(first);
        assert!(gone.upgrade().is_none());
    }

    #[test]
    fn a_connection_whose_eager_frames_overflow_the_context_buffers_is_refused() {
        let nodes = Nodes::new(&small_cfg());
        let stream = thread::scope(|scope| {
            let peer = scope.spawn(|| nodes.listener.accept().unwrap());
            let stream = SimStream::connect(&nodes.fabric, nodes.client, nodes.addr).unwrap();
            drop(peer.join().unwrap());
            stream
        });
        let wider = RpcConfig {
            recv_buf_bytes: 8 * 1024,
            ..small_cfg()
        };
        let err = RdmaConn::bootstrap(&stream, &nodes.client_ctx, &wider).unwrap_err();
        assert!(matches!(err, RpcError::Config(_)), "{err}");
    }
}
