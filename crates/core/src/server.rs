//! The RPC server: the paper's Section III-D pipeline, sharded on the
//! read side, in which **the thread that has the work does the next
//! step**: the thread that computes a response sends it, and the thread
//! that reads a lone call runs it.
//!
//! Hadoop's 0.20.x architecture dedicates one **Reader** thread to every
//! connection — thread explosion at scale — hands every call to a
//! **Handler** pool through a queue, and this repo's earlier rounds
//! funnelled every transmission through **Responder** threads. Each of
//! those hand-offs is a futex wake, a context switch and a queue
//! residence per call; stock Hadoop itself skips the last
//! (`Responder.doRespond` writes from the Handler thread whenever the
//! connection's response queue is empty), and Ibdxnet's receive thread
//! runs the handler of the message it just decoded. The roles here:
//!
//! * a **Listener** thread *blocks* in accept (no polling: `drain` and
//!   `stop` unbind its socket, which fails the accept at once), assigns
//!   each connection a monotonically increasing id, and hands the stream
//!   to a transient setup thread (handshake and, in RPCoIB mode, the
//!   blocking end-point exchange) which registers the finished
//!   connection with its reader shard. The accept path is *bounded*: at
//!   most `RpcConfig::accept_backlog` setups run concurrently (further
//!   connects wait in the listener queue), and once
//!   `RpcConfig::max_connections` connections are live (or being set
//!   up), further connects are answered with a retryable busy rejection
//!   instead of growing the conn table without limit;
//! * **N reader shards** (`RpcConfig::reader_shards`; connections hashed
//!   by `conn_id % N` at accept time), each blocking on its
//!   [`ReadyQueue`] of woken connections (see [`crate::readiness`] for
//!   the wake-list contract): transports enqueue a generation-stamped
//!   conn token when input becomes observable, the shard pops it,
//!   re-checks [`Conn::poll_ready`], receives a bounded burst of frames,
//!   and re-arms the token if input remains — so idle connections cost
//!   nothing per scheduling round, which is what makes a 50k-connection
//!   front door affordable. Each admitted frame consults the
//!   [`RetryCache`] for at-most-once admission and is pushed onto the
//!   bounded call queue — *without blocking*: an overflowing queue
//!   answers with a retryable busy rejection instead of stalling every
//!   other call on the shard;
//! * `RpcConfig::handlers` **Handler** workers pop calls and poll each
//!   one for the first time on their own stack; a call that completes
//!   there — every call of a service that never suspends — is a plain
//!   function call, and only one that yields or parks becomes a heap
//!   frame on the [`crate::sched`] runtime, to be resumed by whichever
//!   worker is free (see [`worker_loop`]).
//!
//! ## Who runs a call
//!
//! Every call goes through `retry_cache.begin` and `admission.try_push`
//! — busy rejection, tenant quota, priority class, deadline shedding and
//! DRR order are properties of that one queue, and there is no way around
//! it. What varies is who *pops*. A burst (a gathered batch, pipelined
//! calls) is announced to the workers frame by frame, as it always was,
//! and keeps its parallelism. But a reader shard whose burst ends on an
//! admitted call, and which has nothing else to read, does not wake a
//! worker to pop the one call it just pushed: it performs one pass of the
//! worker loop's body itself ([`run_in_place`]) — pop, answer the shed,
//! poll the popped call on its own stack. A closed-loop 512 B call then
//! blocks two threads, not three. A handler may block (a region server's
//! put sits in a 5 ms HDFS write), and the engine cannot know which do,
//! so three rules hold for every call:
//!
//! 1. **Run permit — a reader runs only instead of a worker.** The
//!    runtime hands out `handlers` run permits ([`Sched::try_permit`]);
//!    workers and readers alike execute only under one. `handlers` means
//!    *calls executing at once*, whichever threads execute them.
//! 2. **Only when there is nothing else to read.** The connection has no
//!    further input after the frame just admitted and the shard's wake
//!    list is empty; otherwise the call is announced and the shard keeps
//!    reading.
//! 3. **Away, and taken over.** The handler runs *outside* the shard's
//!    table lock, with the shard's wake list marked *away*: anything
//!    pushed onto it meanwhile (a wake token, a registration) also wakes
//!    an idle worker, whose loop services away shards' tokens in the
//!    owner's stead ([`take_over`]) — reading, adopting, queueing and
//!    refusing, but never running a call from in there; it meets the
//!    call again, under a permit, in its own pass. Reading needs no
//!    permit, and a permit in a reader's hand is a worker that cannot be
//!    executing, so *shards away = permits held by readers ≤ workers not
//!    executing*: an away shard always has a reader. A call that suspends
//!    on a reader's stack goes to the runtime's injector and is a
//!    worker's from then on.
//!
//! ## Who sends a response
//!
//! Every response — a handler's, a shed, a busy rejection, a replay, a
//! parked duplicate released on another connection — leaves through one
//! function, [`ServerConn::send`], which takes the connection's *send
//! turn* — the lock around its response-lead encoder — **without
//! waiting**. Turn free and nothing pending (all but a few in a hundred):
//! lead + body go straight into the transport from this thread
//! ([`Conn::send_serialized`]: a pooled registered buffer on verbs, a
//! borrowed-slice gather on sockets) — no queue entry, no frame copy, no
//! thread hop. Otherwise the response goes onto the connection's own
//! *pending list*, and whoever holds the turn sends what queued behind it
//! before letting go, and looks once more after. There is no responder
//! thread: nobody is woken to send, a handler never waits on another
//! thread's send, and a slow or credit-starved peer costs the one sender
//! holding its turn, never the pool. A reader shard may be that sender:
//! credit waits drive receive progress themselves
//! (`RdmaConn::acquire_slots`), and while it waits its shard is away and
//! read by a worker. Five rules:
//!
//! 1. **Push, then try; release, then look** — why nothing pushed is ever
//!    stranded: see [`ServerConn::flush`]. Wire order on a connection is
//!    push order, and a response that finds others pending goes to the
//!    back, never past them: the stateful socket lead is a delta against
//!    the frame before it.
//! 2. **One yield, for an eager-sized body only** ([`ServerConn::send`]).
//! 3. **Gather what is eager, borrow what is bulk.** Several eager-sized
//!    responses at the front of the list leave as one
//!    [`Conn::send_frames`] gather (at most [`SEND_GATHER`] a wire
//!    operation); a bulk-sized body is never copied to ride a gather it
//!    would be split out of again.
//! 4. **A reader sends its own refusals — never under its table lock,
//!    never deaf.** Whoever reads holds its shard's table lock and must
//!    not wait on a send, so its busy rejections and replays are only
//!    *pushed* from in there (and dropped beyond `call_queue_len`
//!    pending: the client retries, a replay is still cached) and
//!    *flushed* by the same thread once [`service_token`] has let the
//!    lock go — not by waking a worker: a refusal must not wait for one.
//!    A flush sends whatever is pending there, and a bulk-sized response
//!    can block on slot credits, so a shard's owner flushes *away*
//!    ([`ReadyQueue::leave`], which announces the tokens it leaves behind
//!    through the takeover hook), exactly as it runs a call.
//! 5. **Accounting and lifetime.** A pending response holds an
//!    `open_work` slot from push to send attempt, so `drain` still means
//!    "nothing anywhere"; it carries no `Arc` to its own connection (a
//!    list must not keep a dead connection's queue pair and registered
//!    buffers alive); and it is attempted even on a broken connection —
//!    fails fast, counts a broken send, gives its slot back.
//!
//! The snapshot's one `ShardRole::Responder` row is the send ledger, no
//! thread behind it: responses sent, whoever sent them, and responses
//! pending behind holders, over all connections.
//!
//! **The body's life.** A response body is `Arc<Vec<u8>>` end to end —
//! the retry cache must own the bytes, and replays and parked duplicates
//! share them — and it goes round: *spare* → *serialized*
//! (`ServerInner::serialize_response` writes into a buffer the cache has
//! let go of, picked by the size class of the method's last response;
//! only a miss allocates) → *sent* (inline or queued, always behind a
//! per-route lead) → *cached* (`RetryCache::complete`) → *evicted* (entry
//! bound, byte budget or TTL; moved out under the cache mutex, offered
//! after it) → *spare* again, if `Arc::get_mut` finds nobody still
//! holding it; a body somebody does hold is dropped by its last holder,
//! as ever. With the cache off nothing is evicted, and the step after
//! *sent* is the offer. Steady state, the server's call path allocates
//! nothing of its own. See [`crate::retry_cache`] for the rules.
//!
//! Shutdown comes in two flavors: [`Server::stop`] (abrupt — close
//! everything now) and [`Server::drain`] (graceful — stop accepting,
//! quiesce the read side, finish queued calls, flush responses, then
//! join).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use simnet::{Fabric, ListenerCloser, NodeId, SimAddr, SimListener};
use wire::Writable;

use crate::admission::{AdmissionQueue, AdmitError, CallClass, CallMeta};
use crate::config::RpcConfig;
use crate::error::{RpcError, RpcResult};
use crate::frame::{
    write_response_body, Payload, RequestHeader, V3Decoder, V3Encoder, BUSY_BODY, EXPIRED_BODY,
};
use crate::handshake;
use crate::intern::MethodKey;
use crate::metrics::{MetricsRegistry, MetricsSnapshot, Phase, ShardRole, ShardStats};
use crate::readiness::{
    token, token_gen, token_slot, Pop, ReadyQueue, TakeoverHook, WakeState, TOKEN_REGISTER,
};
use crate::retry_cache::{Admission, Retention, RetryCache};
use crate::sched::{HandlerCx, Sched, Step, TaskCx};
use crate::service::ServiceRegistry;
use crate::transport::rdma::{IbContext, RdmaConn};
use crate::transport::socket::{SocketConn, SERVER_INIT_BUF};
use crate::transport::Conn;

/// How long blocking queue pops wait before re-checking for shutdown.
const IDLE_SLICE: Duration = Duration::from_millis(100);

/// Cadence of the reader's liveness sweep — the fallback probe pass that
/// catches the one readiness transition no hook can deliver: a peer node
/// dying without closing its connections. See [`reader_shard_loop`].
const LIVENESS_SWEEP: Duration = Duration::from_secs(1);

/// Bound on one `recv_msg` once a connection has signalled readiness. A
/// ready socket connection returns instantly; on the verbs path the
/// pending completion may be a flow-control credit rather than a
/// message, in which case the credit is consumed and the shard waits at
/// most this long for a message riding behind it.
const READ_SLICE: Duration = Duration::from_millis(1);

/// How often a Listener paused at `accept_backlog` looks for a finished
/// setup.
const BACKLOG_POLL: Duration = Duration::from_millis(1);

/// Poll interval of [`Server::drain`]'s quiescence checks.
const DRAIN_POLL: Duration = Duration::from_millis(2);

/// Frames one readiness pop may decode from a single connection before
/// its token re-arms at the back of the queue (non-QoS mode; QoS mode
/// budgets by tenant weight instead). A gathered batch arrives as one
/// wire op carrying many frames: draining them in one pop turns
/// batch-of-32 service from 32 queue round-trips into one, while the
/// bound keeps one chatty peer from starving its shard.
const READ_BURST: usize = 32;

/// Most eager-sized responses one gathered wire operation carries. Bounds
/// the latency a response can pick up behind the gather it rides.
const SEND_GATHER: usize = 64;

/// Everything the server keeps per connection that more than one thread
/// touches: the transport, and the state of its *send side*.
struct ServerConn {
    /// Accept-order id; `id % N` picks the reader shard.
    id: u64,
    transport: Arc<dyn Conn>,
    /// The connection's send turn. Whoever holds it is the only thread
    /// writing to `transport`, so the response-lead encoder inside
    /// advances in exactly wire order whoever sends. Socket connections
    /// are stateful (reliable stream); verbs ones self-contained.
    turn: Mutex<V3Encoder>,
    /// Responses that met a taken turn (or others already waiting), in
    /// push order — their wire order — for the turn's holder to send
    /// ([`ServerConn::flush`]). Locked only for a push, a pop or a look;
    /// lock order: inside the turn, never around it.
    pending: Mutex<VecDeque<Outbound>>,
}

/// One response on a connection's pending list. No `Arc` to the
/// connection: the list is the connection's own.
struct Outbound {
    /// The request's interned key (`key.response_key()` is the send's).
    key: MethodKey,
    seq: i64,
    /// The serialized body (`[status][value]`), shared with the retry
    /// cache and any parked duplicates; the sender prepends the lead.
    bytes: Arc<Vec<u8>>,
    /// Who pushed it: a response sent by anybody else left *behind* a
    /// holder (`EngineCounters::resp_sent_behind`).
    producer: ThreadId,
}

/// Where a producer stands when it hands [`ServerConn::send`] a response.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Producer {
    /// It computed (or shed) the response and may transmit it; what it
    /// hands over is never dropped.
    Computing,
    /// It is reading, under its shard's table lock: its answer is only
    /// pushed (or dropped, past `call_queue_len` pending) and flushed
    /// once the lock is released — rule 4 of the module docs.
    Reading,
}

struct RawCall {
    conn: Arc<ServerConn>,
    header: RequestHeader,
    payload: Payload,
    /// Offset of the parameter bytes within the payload.
    body_offset: usize,
    /// When the Reader admitted the call — the handler's pop time minus
    /// this is the `server_queue` phase of the latency histogram.
    admitted_at: Instant,
}

/// Where one serialized response must be delivered. The retry cache parks
/// these for duplicate attempts; completion fans the same bytes out to
/// every route.
struct RespRoute {
    conn: Arc<ServerConn>,
    key: MethodKey,
    seq: i64,
}

impl RespRoute {
    fn new(conn: Arc<ServerConn>, header: &RequestHeader) -> RespRoute {
        RespRoute {
            conn,
            key: header.key,
            seq: header.seq,
        }
    }
}

/// A connection handed from the accept path to its reader shard.
struct ShardConn {
    conn: Arc<ServerConn>,
    /// Identity from the handshake (never 0); frames do not carry it.
    client_id: u64,
    /// Request-header decoder. Owned by the one reader shard the
    /// connection is hashed onto, so decoding needs no lock.
    dec: V3Decoder,
}

struct ServerInner {
    cfg: RpcConfig,
    registry: ServiceRegistry,
    addr: SimAddr,
    stop: AtomicBool,
    /// Graceful-shutdown mode: stop accepting and reading, but let queued
    /// calls finish and their responses flush (see [`Server::drain`]).
    draining: AtomicBool,
    /// Set by the Listener on its way out; `drain` waits on it before
    /// trusting the reader count (no new setup threads spawn after this).
    listener_done: AtomicBool,
    /// Read-side threads that can still admit calls: every reader shard
    /// for the server's lifetime, plus each in-flight connection-setup
    /// thread (incremented by the Listener *before* the spawn, so `drain`
    /// never sees a gap).
    live_readers: AtomicUsize,
    /// Admitted calls whose responses have not yet been transmitted.
    /// Incremented by whoever reads before it queues a call, and for every
    /// response pushed onto a connection's pending list; decremented by
    /// the handler after it has answered the call and by whoever drains
    /// the list after each send attempt — so "no open work" really means
    /// no call or response is anywhere in the pipeline.
    open_work: AtomicUsize,
    metrics: MetricsRegistry,
    /// Present in RPCoIB mode; kept here so metrics snapshots can read
    /// the registered buffer pool's counters.
    ib: Option<IbContext>,
    retry_cache: RetryCache<RespRoute>,
    /// Source of server-assigned client ids for peers that present 0 at
    /// the handshake.
    next_client_id: AtomicU64,
    /// The reader→handler admission plane: the seed's bounded FIFO
    /// channel, now with per-tenant quotas, weighted-fair pop, and
    /// deadline shedding (all off by default — see [`crate::admission`]).
    admission: AdmissionQueue<RawCall>,
    /// Base of the admission plane's monotonic `now_ns` timeline.
    started: Instant,
    /// Registration channels into the reader shards, indexed by
    /// `conn_id % reader_shards`.
    reader_regs: Vec<Sender<ShardConn>>,
    /// Their receiving ends, indexed alike. Here rather than in the
    /// shard threads so that whoever services a shard's
    /// [`TOKEN_REGISTER`] — its owner, or a worker taking over — can
    /// adopt.
    reader_reg_rx: Vec<Receiver<ShardConn>>,
    /// The reader shards' wake lists, indexed like `reader_regs`. The
    /// accept path pushes [`TOKEN_REGISTER`] after a registration so a
    /// blocked shard adopts promptly; `drain`/`stop` close them so
    /// blocked pops exit without waiting out a timeout.
    reader_ready: Vec<Arc<ReadyQueue>>,
    /// Each reader shard's slot table, indexed like `reader_regs`.
    /// Shared so a worker can service the shard while its owner is away
    /// running a call, under the table lock — which is also what keeps
    /// per-connection frame order: whoever holds the lock is the only
    /// thread reading that shard's connections. It is held for a read
    /// burst and **never across a handler**: `shutdown` takes every one
    /// of them and must not wait for a call to finish.
    reader_state: Vec<Mutex<ReaderState>>,
    /// Per reader-shard counters, indexed like `reader_regs`. Frames,
    /// busy rejections and the conn gauge are booked on the connection's
    /// *owner* shard whoever read them; a takeover counts as a `steal` on
    /// the worker that made it.
    reader_stats: Vec<Arc<ShardStats>>,
    /// The handler workers' counter rows (the runtime holds the same
    /// ones), for booking takeovers.
    worker_stats: Vec<Arc<ShardStats>>,
    /// Where suspended calls live between polls, and what the handler
    /// workers sleep on. Its frames hold `Arc<ServerInner>`; the cycle
    /// is broken by `shutdown`, which closes it.
    sched: Sched,
    /// Protocols of the control/heartbeat admission class
    /// (`cfg.priority_protocols`); empty = single class.
    priority: HashSet<String>,
    /// Connection setups currently in flight (accepted, handshake or
    /// verbs bootstrap unfinished). Together with the conn table this
    /// bounds the accept path: at `accept_backlog` the Listener pauses
    /// accepting until a setup finishes; past `max_connections` it
    /// answers busy instead of spawning.
    setups_inflight: AtomicUsize,
    /// The send ledger — the snapshot's one `ShardRole::Responder` row:
    /// responses sent (`processed`, whoever sent them) and responses
    /// pending behind a turn's holder, over all connections (the depth
    /// gauge).
    send_ledger: Arc<ShardStats>,
    /// Live connections, keyed by accept order. Entries are removed by
    /// the owning reader shard when a connection is forfeited, so
    /// connection churn does not accumulate dead `Arc<dyn Conn>`s (and,
    /// in RPCoIB mode, their registered buffers) for the life of the
    /// server.
    conns: Mutex<HashMap<u64, Arc<dyn Conn>>>,
    next_conn_id: AtomicU64,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Connection-setup thread handles awaiting reaping. Finished ones
    /// are joined by the Listener on every accept-loop pass; the rest at
    /// `stop()`.
    setup_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Unbinds the Listener's socket, which is what gets the Listener
    /// out of its blocking accept at `drain`/`stop`.
    listener_closer: ListenerCloser,
    /// The two refusal bodies, built once: a busy rejection or a deadline
    /// shed clones an `Arc` — the moment a server refuses work is the
    /// wrong one to allocate in.
    busy_body: Arc<Vec<u8>>,
    expired_body: Arc<Vec<u8>>,
}

impl ServerInner {
    /// Monotonic nanoseconds since server start — the explicit clock the
    /// admission queue runs on. (The `qos` benchmark drives the same
    /// queue type with virtual time for deterministic shed decisions.)
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn assign_client_id(&self) -> u64 {
        // The counter is seeded randomly per server; skip an (unlikely)
        // wrap through 0, which the handshake reserves for "assign me".
        loop {
            let id = self.next_client_id.fetch_add(1, Ordering::Relaxed);
            if id != 0 {
                return id;
            }
        }
    }

    /// A failed send only affects that one connection — but it does mean
    /// the connection is broken: close it so its reader shard stops
    /// pulling requests whose responses could never be delivered, and
    /// count it.
    fn check_sent(&self, conn: &ServerConn, sent: RpcResult<()>) {
        if sent.is_err() {
            self.metrics.inc_broken_sends();
            conn.transport.close();
        }
    }

    /// Deliver the response of an admitted call — executed or shed — from
    /// the thread that produced it: to the call's own connection, and to
    /// every duplicate attempt parked behind it (usually on *other*
    /// connections). A duplicate arriving before the cache entry
    /// completes parks and is released here; one arriving after replays.
    fn respond(&self, conn: Arc<ServerConn>, header: RequestHeader, bytes: Arc<Vec<u8>>) {
        conn.send(self, header.key, header.seq, &bytes, Producer::Computing);
        let key = (header.client_id, header.seq);
        for waiter in self.retry_cache.complete(key, Arc::clone(&bytes)) {
            waiter
                .conn
                .send(self, waiter.key, waiter.seq, &bytes, Producer::Computing);
        }
        // The call's own open_work slot is released only now, after its
        // response is on the wire or pending (each pending response holds
        // a slot of its own), so `drain` never sees a gap.
        self.open_work.fetch_sub(1, Ordering::AcqRel);
        // A server that caches nothing evicts nothing: the one place its
        // spares can come from is the response's own buffer, now that it
        // is sent — kept if nobody else holds it (it went out inline; one
        // that went pending is offered by whoever sends it). With the
        // cache on the cache holds it, so do not even ask.
        if self.cfg.retry_cache_capacity == 0 {
            self.retry_cache.offer(bytes);
        }
    }

    /// Serialize a dispatch result into the response body
    /// (`[status][value | error]`): once, on the computing thread, so a
    /// replay or a parked duplicate on another connection shares the
    /// bytes — and into a buffer the retry cache has let go of, when it
    /// has one of the size the last response of this
    /// `<protocol, method#resp>` had (the paper's message-size locality):
    /// steady state, neither the `Vec` nor its `Arc` is allocated. A
    /// fresh buffer is sized from the same history, so it is allocated
    /// once instead of grown. An error is not its method's size locality:
    /// it is sized by its own text and leaves the history alone.
    fn serialize_response(
        &self,
        key: MethodKey,
        result: &RpcResult<Box<dyn Writable + Send>>,
    ) -> Arc<Vec<u8>> {
        let error_text;
        let sizes = self.metrics.entry(key.response_key());
        let (result_ref, hint): (Result<&dyn Writable, &str>, usize) = match result {
            Ok(value) => (Ok(value.as_ref()), sizes.last_body_size()),
            Err(e) => {
                // Application errors travel as their bare message; engine
                // errors keep their category prefix.
                error_text = match e {
                    RpcError::Remote(m) => m.clone(),
                    other => other.to_string(),
                };
                (Err(&error_text), ERROR_LEAD_MAX + error_text.len())
            }
        };
        let body = self.retry_cache.build_body(hint, |buf| {
            write_response_body(buf, result_ref).expect("serializing to Vec cannot fail")
        });
        if result.is_ok() {
            sizes.note_body_size(body.len());
        }
        body
    }
}

/// Room for what precedes an error's text in a response body: the status
/// byte and the text's vint length.
const ERROR_LEAD_MAX: usize = 6;

/// Room for a response lead: one vlong, a prefix byte plus at most eight
/// of payload.
const LEAD_MAX: usize = 9;

impl ServerConn {
    /// The one way out for a response, whoever produced it. Take the send
    /// turn without waiting; free, and nothing pending: transmit from
    /// this thread. Otherwise push onto the pending list — to the back,
    /// never past what is there — and send the list if the turn can be
    /// had ([`ServerConn::flush`]); if it cannot, its holder will.
    fn send(
        &self,
        inner: &ServerInner,
        key: MethodKey,
        seq: i64,
        bytes: &Arc<Vec<u8>>,
        from: Producer,
    ) {
        if from == Producer::Computing {
            let mut turn = self.turn.try_lock();
            if turn.is_none() && bytes.len() <= inner.cfg.rdma_threshold {
                // One yield before a taken turn is given up, for an
                // eager-sized body only. An eager send cannot block
                // (socket streams are unbounded, eager verbs sends take no
                // credits), so the holder is runnable and about to let
                // go: most often the sender of this caller's previous
                // response, preempted mid-send by the very caller it
                // woke. Queueing behind it at once is correct but, on one
                // CPU, settles into a slow stable mode when that holder
                // is a reader running in place: it resumes only to send
                // what queued behind it, is preempted in that send too,
                // and never gets back to its post — a third thread reads
                // for it call after call. A bulk-sized body queues at
                // once: its turn's holder is as likely asleep on slot
                // credits, and yielding to a sleeper is a wasted switch
                // pair.
                std::thread::yield_now();
                turn = self.turn.try_lock();
            }
            if let Some(mut enc) = turn {
                if self.pending.lock().is_empty() {
                    self.transmit(inner, &mut enc, key, seq, bytes);
                    drop(enc);
                    inner.send_ledger.inc_processed();
                    // Release, then look.
                    return self.flush(inner);
                }
                // Others are waiting: this one goes behind them. The turn
                // is let go here and taken again by the flush below.
            }
        }
        {
            let mut pending = self.pending.lock();
            if from == Producer::Reading && pending.len() >= inner.cfg.call_queue_len {
                return;
            }
            // Both counts move before the item can be popped, so the
            // matching decrements can never run ahead of them.
            inner.open_work.fetch_add(1, Ordering::AcqRel);
            inner.send_ledger.enqueued();
            pending.push_back(Outbound {
                key,
                seq,
                bytes: Arc::clone(bytes),
                producer: std::thread::current().id(),
            });
        }
        if from == Producer::Computing {
            self.flush(inner);
        }
    }

    /// Send what is pending, if the turn can be had; if it cannot, its
    /// holder sends it. Nothing pushed is ever stranded, because a
    /// producer pushes *then* tries the turn (here), and a holder lets
    /// the turn go *then* looks at the list (the loop condition, after
    /// the guard of the previous round has dropped). Push and look both
    /// take `pending`'s lock, which orders them: a push this look does
    /// not see comes after it, hence after the release before it — so
    /// that producer's own try for the turn cannot be refused by *this*
    /// holder, and whoever does refuse it is a later holder with its own
    /// look still to come.
    fn flush(&self, inner: &ServerInner) {
        while !self.pending.lock().is_empty() {
            let Some(mut enc) = self.turn.try_lock() else {
                return;
            };
            while self.send_next(inner, &mut enc) {}
        }
    }

    /// One wire operation's worth from the front of the pending list,
    /// under the turn (`enc` is its guard's content); `false` once the
    /// list is empty. Eager-sized responses at the front leave as one
    /// gather; anything else alone — a bulk-sized body borrowed, not
    /// copied into a frame.
    fn send_next(&self, inner: &ServerInner, enc: &mut V3Encoder) -> bool {
        // Only the turn's holder pops, so what is counted here is still
        // at the front when it is popped below.
        let run = {
            let pending = self.pending.lock();
            if pending.is_empty() {
                return false;
            }
            pending
                .iter()
                .take(SEND_GATHER)
                .take_while(|out| out.bytes.len() <= inner.cfg.rdma_threshold)
                .count()
        };
        let me = std::thread::current().id();
        let mut behind = 0;
        let mut pop = || {
            let out = self.pending.lock().pop_front();
            let out = out.expect("only the turn's holder pops");
            inner.send_ledger.dequeued();
            behind += u64::from(out.producer != me);
            out
        };
        // Sent: as at the end of `respond`, with the cache off the body
        // is the next response's buffer.
        let sent_body = |bytes: Arc<Vec<u8>>| {
            if inner.cfg.retry_cache_capacity == 0 {
                inner.retry_cache.offer(bytes);
            }
        };
        let first = pop();
        let sent = if run >= 2 {
            // The response's buffer-size history is keyed separately from
            // the request's; one key per gather is enough — its frames
            // share a wire op anyway.
            let key = first.key.response_key();
            let mut frames: Vec<Vec<u8>> = Vec::with_capacity(run);
            for out in std::iter::once(first).chain((1..run).map(|_| pop())) {
                let mut frame = Vec::with_capacity(out.bytes.len() + LEAD_MAX);
                enc.write_response_lead(&mut frame, out.seq)
                    .expect("writing to a Vec cannot fail");
                frame.extend_from_slice(&out.bytes);
                frames.push(frame);
                sent_body(out.bytes);
            }
            inner.check_sent(self, self.transport.send_frames(key, frames));
            run
        } else {
            self.transmit(inner, enc, first.key, first.seq, &first.bytes);
            sent_body(first.bytes);
            1
        };
        for _ in 0..sent {
            inner.send_ledger.inc_processed();
        }
        inner.open_work.fetch_sub(sent, Ordering::AcqRel);
        if behind > 0 {
            inner.metrics.add_resp_sent_behind(behind);
        }
        true
    }

    /// Encode the lead for `seq` and put lead + body on the wire as one
    /// frame, with no intermediate copy. The caller holds the send turn —
    /// `enc` is the guard's content.
    fn transmit(
        &self,
        inner: &ServerInner,
        enc: &mut V3Encoder,
        key: MethodKey,
        seq: i64,
        body: &[u8],
    ) {
        let mut lead = [0u8; LEAD_MAX];
        let mut cursor = &mut lead[..];
        enc.write_response_lead(&mut cursor, seq)
            .expect("a vlong fits LEAD_MAX");
        let lead_len = LEAD_MAX - cursor.len();
        let sent = self
            .transport
            .send_serialized(key.response_key(), &lead[..lead_len], body);
        inner.check_sent(self, sent);
    }
}

/// Decrements a counter on drop, so read-side thread exits (normal,
/// panic, early return) all release their slot.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running RPC server.
pub struct Server {
    inner: Arc<ServerInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Bind and start a server on `(node, port)` of `fabric`, hosting the
    /// services in `registry`. Transport is chosen by `cfg.ib_enabled`.
    pub fn start(
        fabric: &Fabric,
        node: NodeId,
        port: u16,
        cfg: RpcConfig,
        registry: ServiceRegistry,
    ) -> RpcResult<Server> {
        cfg.validate().map_err(RpcError::Config)?;
        let addr = SimAddr::new(node, port);
        let listener = SimListener::bind(fabric, addr)?;
        let ib = if cfg.ib_enabled {
            Some(IbContext::new(fabric, node, &cfg)?)
        } else {
            None
        };

        let n_readers = cfg.effective_reader_shards();
        let admission =
            AdmissionQueue::new(cfg.call_queue_len, cfg.tenant_quota, &cfg.tenant_weights);
        let metrics = MetricsRegistry::new(false);
        // Byte budget (cached bodies and idle spares, by `capacity()`):
        // as if every cached response were as large as an eager frame
        // can get (`rdma_threshold`) — 128 MiB at defaults. Small-call
        // servers never reach it; bulk responses evict early instead of
        // pinning `capacity × response size`.
        let retry_cache = RetryCache::new(
            cfg.retry_cache_ttl,
            cfg.retry_cache_capacity,
            metrics.clone(),
        )
        .with_byte_budget(cfg.retry_cache_capacity.saturating_mul(cfg.rdma_threshold));

        let worker_stats: Vec<_> = (0..cfg.handlers)
            .map(|i| metrics.register_shard(ShardRole::Worker, i))
            .collect();
        let sched = Sched::new(cfg.handlers, worker_stats.clone());
        // What a push onto an away shard's wake list does: get an idle
        // worker to take the shard over.
        let wake_worker: TakeoverHook = Arc::new(sched.notifier());
        let mut reader_regs = Vec::with_capacity(n_readers);
        let mut reader_reg_rx = Vec::with_capacity(n_readers);
        let mut reader_stats = Vec::with_capacity(n_readers);
        let mut reader_ready = Vec::with_capacity(n_readers);
        let mut reader_state = Vec::with_capacity(n_readers);
        for i in 0..n_readers {
            let (tx, rx) = unbounded();
            reader_regs.push(tx);
            reader_reg_rx.push(rx);
            let stats = metrics.register_shard(ShardRole::Reader, i);
            // The shard's wake list feeds its queue-depth gauge.
            reader_ready.push(Arc::new(
                ReadyQueue::new(Some(Arc::clone(&stats)))
                    .with_takeover_hook(Arc::clone(&wake_worker)),
            ));
            reader_stats.push(stats);
            reader_state.push(Mutex::new(ReaderState::default()));
        }
        let send_ledger = metrics.register_shard(ShardRole::Responder, 0);

        let id_seed = handshake::mint_client_id((u64::from(node.0) << 16) ^ u64::from(port));
        let priority: HashSet<String> = cfg.priority_protocols.iter().cloned().collect();
        let inner = Arc::new(ServerInner {
            cfg,
            registry,
            addr,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            listener_done: AtomicBool::new(false),
            live_readers: AtomicUsize::new(0),
            open_work: AtomicUsize::new(0),
            metrics,
            ib,
            retry_cache,
            next_client_id: AtomicU64::new(id_seed),
            admission,
            started: Instant::now(),
            reader_regs,
            reader_reg_rx,
            reader_ready,
            reader_state,
            reader_stats,
            worker_stats,
            sched,
            priority,
            setups_inflight: AtomicUsize::new(0),
            send_ledger,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            setup_threads: Mutex::new(Vec::new()),
            listener_closer: listener.closer(),
            busy_body: Arc::new(BUSY_BODY.to_vec()),
            expired_body: Arc::new(EXPIRED_BODY.to_vec()),
        });

        let mut threads = Vec::new();

        // Listener thread.
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-listener-{addr}"))
                    .spawn(move || listener_loop(inner, listener))
                    .expect("spawn listener"),
            );
        }
        // Reader shards (counted in live_readers for their whole life;
        // `drain` waits for them to observe the draining flag and exit).
        for i in 0..n_readers {
            inner.live_readers.fetch_add(1, Ordering::SeqCst);
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-reader-{i}"))
                    .spawn(move || {
                        let _slot = CountGuard(&inner.live_readers);
                        reader_shard_loop(&inner, i);
                    })
                    .expect("spawn reader shard"),
            );
        }
        // Handler workers.
        for h in 0..inner.cfg.handlers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-handler-{h}"))
                    .spawn(move || worker_loop(inner, h))
                    .expect("spawn handler"),
            );
        }

        Ok(Server {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SimAddr {
        self.inner.addr
    }

    /// Server-side metrics (receive profiles feed the Figure 1 harness).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Full observability snapshot: engine counters, per-method stats,
    /// per-`<protocol, method>` phase histograms, per-shard pipeline
    /// counters, and (in RPCoIB mode) the registered buffer pool's
    /// counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self
            .inner
            .metrics
            .full_snapshot(self.inner.ib.as_ref().map(|ib| ib.pool_counters()));
        // Per-connection memory accounting, read live from the conn
        // table (per-shard ready-queue depth already rides in `shards`).
        let conns = self.inner.conns.lock();
        snap.connections = conns.len();
        snap.conn_buffered_bytes = conns.values().map(|c| c.buffered_bytes()).sum();
        snap
    }

    /// Number of connections currently alive (accepted and not yet torn
    /// down). Under churn this returns to zero once departed clients'
    /// reader shards notice the close.
    pub fn connection_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Number of connections accepted over this server's lifetime.
    pub fn lifetime_connection_count(&self) -> u64 {
        self.inner.accepted.load(Ordering::Relaxed)
    }

    /// Live entries in the at-most-once retry cache (for tests and
    /// observability).
    pub fn retry_cache_len(&self) -> usize {
        self.inner.retry_cache.len()
    }

    /// What the retry cache retains — completed bodies and idle spares,
    /// by `len()` and by `capacity()` — for the allocation tests.
    #[doc(hidden)]
    pub fn retry_cache_retention(&self) -> Retention {
        self.inner.retry_cache.retention()
    }

    /// What the handler runtime still holds — calls being polled,
    /// runnable or parked, plus armed timer entries. Zero after a
    /// completed [`Server::drain`] and after [`Server::stop`], which
    /// drops suspended calls unanswered.
    pub fn handler_residue(&self) -> usize {
        self.inner.sched.residue()
    }

    /// Graceful shutdown: stop accepting connections and reading new
    /// calls, let every already-admitted call execute and its response
    /// flush, then stop all threads. Returns `true` if the server fully
    /// quiesced within `timeout`; on `false` the deadline passed and the
    /// remaining work was cut off by an abrupt [`Server::stop`].
    pub fn drain(&self, timeout: Duration) -> bool {
        if self.inner.stop.load(Ordering::Acquire) {
            return true;
        }
        // SeqCst against a worker's "count myself a reader, then look at
        // the flag" (see `take_over`): either it sees the flag and reads
        // nothing, or phase 2 below sees it counted and waits.
        self.inner.draining.store(true, Ordering::SeqCst);
        // Wake the Listener out of its accept and every reader shard
        // blocked on its ready queue *now*: the draining flag alone would
        // only be observed after an idle slice.
        self.inner.listener_closer.close();
        for ready in &self.inner.reader_ready {
            ready.close();
        }
        let deadline = Instant::now() + timeout;

        // Phase 1: the Listener exits — no new setup threads after this.
        while !self.inner.listener_done.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                self.shutdown(false);
                return false;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        // Phase 2: the read side quiesces — every reader shard observes
        // the draining flag and exits (one that is inside a handler, when
        // that call has answered), a worker that was reading in an away
        // shard's stead finishes its burst, and in-flight connection
        // setups finish. No new calls enter the pipeline after this.
        while self.inner.live_readers.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                self.shutdown(false);
                return false;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        // Phase 3: the pipeline empties. `open_work` covers a call from
        // reader admission until its response transmission, so zero means
        // nothing is queued, executing, or awaiting send.
        while self.inner.open_work.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                self.shutdown(false);
                return false;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        self.stop();
        true
    }

    /// Stop all threads and close all connections. Idempotent.
    pub fn stop(&self) {
        self.shutdown(true);
    }

    /// `wait = false` is the expired-drain path: the threads may be stuck
    /// in a long handler dispatch, and a drain whose deadline has passed
    /// must return *now* — the joins happen on a detached reaper thread.
    fn shutdown(&self, wait: bool) {
        if self.inner.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Refuse further admissions; what is already queued stays
        // poppable and the workers finish it before they exit.
        self.inner.admission.close();
        // Wake the idle workers, and drop every suspended call: their
        // frames hold `Arc<ServerInner>`, so one left parked (on a
        // timer, or on a handle a service still keeps) would keep the
        // whole server — registry, retry cache, registered pool — alive.
        self.inner.sched.close();
        // And the Listener blocked in accept, and the reader shards
        // blocked on their wake lists.
        self.inner.listener_closer.close();
        for ready in &self.inner.reader_ready {
            ready.close();
        }
        // Clear every shard's slot table (a table lock is never held
        // across a handler, so this cannot wait on a call). The slots hold the *other*
        // `Arc<dyn Conn>` clones (the conn table below holds the first),
        // and stale-connection fast-fail depends on the server-side
        // transport state being released at stop — a `ReaderSlot`
        // surviving in `ServerInner` would keep an RPCoIB queue pair
        // registered and turn a restarted peer's fast reconnect into a
        // full call timeout. (Before PR 10 these were reader-thread
        // locals and died with the thread.)
        for state in &self.inner.reader_state {
            let mut state = state.lock();
            for slot in state.slots.iter().flatten() {
                slot.sc.conn.transport.close();
            }
            state.slots.clear();
            state.gens.clear();
            state.free.clear();
        }
        {
            // Close *and drop* every connection. Releasing the `Arc`s here
            // (rather than when the `Server` value itself is dropped)
            // deregisters server-side transport state — RPCoIB queue pairs
            // in particular — so a client holding a stale connection sees
            // its next send fail fast and reconnects, instead of writing
            // into a zombie queue pair and timing out.
            let mut conns = self.inner.conns.lock();
            for conn in conns.values() {
                conn.close();
            }
            conns.clear();
        }
        let mut threads: Vec<_> = self.threads.lock().drain(..).collect();
        threads.extend(self.inner.setup_threads.lock().drain(..));
        if wait {
            for t in threads {
                let _ = t.join();
            }
        } else {
            std::thread::Builder::new()
                .name("rpc-stop-reaper".into())
                .spawn(move || {
                    for t in threads {
                        let _ = t.join();
                    }
                })
                .expect("spawn stop reaper");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.inner.addr)
            .field("protocols", &self.inner.registry.protocols())
            .finish()
    }
}

/// Join the setup threads whose connections have finished (or failed)
/// bootstrap. Without this, a server that lives through N transient
/// clients holds N parked JoinHandles (and their stacks) until `stop`.
fn reap_setup_threads(inner: &ServerInner) {
    let mut threads = inner.setup_threads.lock();
    if threads.iter().any(|t| t.is_finished()) {
        let mut live = Vec::with_capacity(threads.len());
        for t in threads.drain(..) {
            if t.is_finished() {
                let _ = t.join();
            } else {
                live.push(t);
            }
        }
        *threads = live;
    }
}

/// The Listener *blocks* in accept: an idle one makes no timed wake-up
/// but the [`IDLE_SLICE`] re-check every blocking loop here makes, a
/// connect is accepted the moment it arrives, and `drain`/`stop` unbind
/// the socket ([`ServerInner::listener_closer`]), which fails the accept
/// at once.
fn listener_loop(inner: Arc<ServerInner>, listener: SimListener) {
    while !inner.stop.load(Ordering::Acquire) && !inner.draining.load(Ordering::Acquire) {
        // Backlog backpressure: with `accept_backlog` setups already in
        // flight, stop accepting until one finishes. Pending connects
        // queue in the listener (bounded latency, like a TCP SYN queue),
        // so a legitimate burst is absorbed rather than refused. (A
        // transient state, so it may poll.)
        if inner.setups_inflight.load(Ordering::Acquire) >= inner.cfg.accept_backlog {
            std::thread::sleep(BACKLOG_POLL);
            continue;
        }
        match listener.accept_timeout(IDLE_SLICE) {
            Ok(Some((stream, _peer))) => {
                reap_setup_threads(&inner);
                // Hard admission cap, *before* any resource is
                // committed: past `max_connections` (live + in setup),
                // answer with the 9-byte busy ack (version byte 0) and
                // drop the stream. The client maps it to the retryable
                // `ServerBusy`.
                let setups = inner.setups_inflight.load(Ordering::Acquire);
                let over_cap = inner.cfg.max_connections != 0
                    && inner.conns.lock().len() + setups >= inner.cfg.max_connections;
                if over_cap {
                    inner.metrics.inc_accept_rejections();
                    use std::io::Write;
                    let _ = (&stream).write_all(&[0u8; 9]);
                    continue;
                }
                inner.accepted.fetch_add(1, Ordering::Relaxed);
                // The id decides the connection's reader shard; assigned
                // here, in accept order, so shard placement does not
                // depend on setup-thread scheduling.
                let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
                // Counted before the spawn so `drain` can never observe
                // "listener done, read side quiesced" while a setup is in
                // flight; same for the backpressure gauge.
                inner.live_readers.fetch_add(1, Ordering::SeqCst);
                inner.setups_inflight.fetch_add(1, Ordering::AcqRel);
                let inner2 = Arc::clone(&inner);
                // Connection setup (handshake, and in RPCoIB mode the
                // blocking endpoint exchange) runs on its own transient
                // thread, keeping the accept loop responsive; the
                // finished connection is handed to its reader shard.
                let handle = std::thread::Builder::new()
                    .name("rpc-conn-setup".into())
                    .spawn(move || {
                        let _slot = CountGuard(&inner2.live_readers);
                        let _setup = CountGuard(&inner2.setups_inflight);
                        // The handshake first, on the raw stream, and
                        // nothing before it: a peer that does not open
                        // with the magic (or offers an older version) is
                        // counted and dropped — nothing is written back,
                        // no endpoint exchange starts, and none of its
                        // bytes is ever read as a frame.
                        let client_id =
                            match handshake::server_accept(&stream, || inner2.assign_client_id()) {
                                Ok(client_id) => client_id,
                                Err(RpcError::Protocol(_)) => {
                                    inner2.metrics.inc_frame_errors();
                                    return;
                                }
                                Err(_) => return, // peer vanished mid-handshake
                            };
                        let conn: Arc<dyn Conn> = match &inner2.ib {
                            Some(ctx) => {
                                match RdmaConn::bootstrap(&stream, ctx, &inner2.cfg) {
                                    Ok(c) => Arc::new(c.with_metrics(inner2.metrics.clone())),
                                    Err(_) => return, // peer vanished mid-exchange
                                }
                            }
                            None => Arc::new(
                                SocketConn::new(stream, SERVER_INIT_BUF)
                                    .with_metrics(inner2.metrics.clone()),
                            ),
                        };
                        inner2.conns.lock().insert(conn_id, Arc::clone(&conn));
                        // Stream transports run the stateful codec,
                        // verbs the self-contained one (see `frame`).
                        let stateful = !inner2.cfg.ib_enabled;
                        let shard = (conn_id % inner2.reader_regs.len() as u64) as usize;
                        if inner2.reader_regs[shard]
                            .send(ShardConn {
                                conn: Arc::new(ServerConn {
                                    id: conn_id,
                                    transport: conn,
                                    turn: Mutex::new(V3Encoder::new(stateful)),
                                    pending: Mutex::new(VecDeque::new()),
                                }),
                                client_id,
                                dec: V3Decoder::new(stateful),
                            })
                            .is_ok()
                        {
                            // Nudge a shard blocked on its wake list to
                            // adopt the registration now.
                            inner2.reader_ready[shard].push(TOKEN_REGISTER);
                        }
                        // On send error the shard is gone (server
                        // stopping): the table entry is closed by
                        // `stop()`.
                    })
                    .expect("spawn conn setup");
                inner.setup_threads.lock().push(handle);
            }
            Ok(None) => {}   // an idle slice (or an injected accept failure)
            Err(_) => break, // unbound: `drain`/`stop`, or the node was killed
        }
    }
    inner.listener_done.store(true, Ordering::Release);
}

/// What one bounded receive attempt on a ready connection produced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadOutcome {
    /// A frame was consumed (replayed, parked, or rejected busy).
    Frame,
    /// A frame was consumed and its call pushed onto the admission queue
    /// — and **nobody has been told yet**. From [`read_one`]: the call
    /// just pushed. From [`service_token`]: additionally, the connection
    /// has nothing more to read. Whoever receives this must run a pass of
    /// the worker loop's body itself or `Sched::notify`.
    Admitted,
    /// Nothing usable within [`READ_SLICE`] (e.g. only a flow-control
    /// credit was pending); the connection stays assigned.
    Idle,
    /// The connection is forfeit (peer gone, corrupt frame): close it and
    /// free its table entry.
    Forfeit,
    /// The server is going away (call queue disconnected); the shard
    /// should exit.
    Shutdown,
}

/// A reader shard's slot for one assigned connection: the connection
/// itself plus its wake bookkeeping. Slots are recycled through a free
/// list; the matching entry in the shard's `gens` vector counts reuses so
/// stale wake tokens are detectable.
struct ReaderSlot {
    sc: ShardConn,
    wake: Arc<WakeState>,
}

/// One reader shard's connection table: slots, their reuse generations,
/// and the free list. Held in [`ServerInner::reader_state`] behind a
/// mutex so a stealing sibling can service this shard's connections; see
/// the field's docs for the locking discipline.
#[derive(Default)]
struct ReaderState {
    slots: Vec<Option<ReaderSlot>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

/// Adopt every connection waiting on the registration channel: assign a
/// slot, arm the transport's readiness hook, and deliver the no-lost-wake
/// guarantee (probe `poll_ready` once *after* arming, catching input that
/// arrived before the hook existed).
///
/// The caller is the shard's owner or a worker taking over; the table
/// lock serializes them.
fn adopt_registrations(inner: &ServerInner, shard: usize) {
    let ready = &inner.reader_ready[shard];
    let mut state = inner.reader_state[shard].lock();
    let state = &mut *state;
    while let Ok(sc) = inner.reader_reg_rx[shard].try_recv() {
        inner.reader_stats[shard].conn_added();
        let idx = match state.free.pop() {
            Some(idx) => idx,
            None => {
                state.slots.push(None);
                state.gens.push(0);
                state.slots.len() - 1
            }
        };
        let wake = Arc::new(WakeState::new(
            token(idx, state.gens[idx]),
            Arc::clone(ready),
        ));
        let hook_state = Arc::clone(&wake);
        sc.conn
            .transport
            .set_ready_hook(Arc::new(move || hook_state.wake()));
        let slot = ReaderSlot { sc, wake };
        if slot.sc.conn.transport.poll_ready() {
            slot.wake.wake();
        }
        state.slots[idx] = Some(slot);
    }
}

/// Service one wake token against shard `owner`'s connection table. The
/// caller is the owner, or a worker that took the token over while the
/// owner is away; the table lock is held for the whole burst, which is
/// what serializes reads per connection (and per shard) no matter who
/// services it. No call is ever run from in here.
///
/// Everything is booked on the *owner*'s counters — frames, busy
/// rejections, the conn gauge — so per-shard `processed` stays a function
/// of which connections a shard was dealt, not of who happened to read.
///
/// Every call admitted is announced with `Sched::notify` as soon as it is
/// known not to be the burst's last: a gathered batch is handed to the
/// workers exactly as it always was. The last one is announced too if the
/// connection still has input; if it has none, the outcome is
/// [`ReadOutcome::Admitted`] and the announcement is the caller's.
///
/// So is the flush: the connections this burst answered itself (busy,
/// replay) are noted in `answered`, and the caller [`ServerConn::flush`]es
/// them now that the table lock is released.
fn service_token(
    inner: &Arc<ServerInner>,
    owner: usize,
    tok: u64,
    answered: &mut Vec<Arc<ServerConn>>,
) -> ReadOutcome {
    let fair = inner.admission.fair();
    let stats = &inner.reader_stats[owner];
    let mut state = inner.reader_state[owner].lock();
    let idx = token_slot(tok);
    if idx >= state.slots.len() || state.gens[idx] != token_gen(tok) || state.slots[idx].is_none() {
        // Stale token: its connection was torn down (and possibly the
        // slot recycled) after the token was queued. The generation
        // stamp makes it inert.
        return ReadOutcome::Idle;
    }
    let outcome = {
        let slot = state.slots[idx].as_mut().expect("checked above");
        // Clear the dedup flag *before* reading, so an edge firing
        // mid-burst re-enqueues instead of being lost.
        slot.wake.begin_poll();
        // Burst budget: QoS mode reads up to the tenant's weight per
        // wake (a light tenant's at least one); otherwise up to
        // `READ_BURST` frames, so a gathered batch decodes in one
        // pop instead of one queue round-trip per frame. Per-connection
        // order holds either way — it is one connection drained
        // sequentially under the table lock.
        let budget = if fair {
            inner.admission.weight(slot.sc.client_id).max(1) as usize
        } else {
            READ_BURST
        };
        let mut outcome = ReadOutcome::Idle;
        for _ in 0..budget {
            if !slot.sc.conn.transport.poll_ready() {
                break;
            }
            if outcome == ReadOutcome::Admitted {
                // Not the last of its burst: a worker's.
                inner.sched.notify();
            }
            outcome = read_one(inner, &mut slot.sc, stats, answered);
            match outcome {
                ReadOutcome::Frame | ReadOutcome::Admitted => {}
                ReadOutcome::Idle | ReadOutcome::Forfeit | ReadOutcome::Shutdown => break,
            }
        }
        outcome
    };
    match outcome {
        ReadOutcome::Forfeit => {
            let slot = state.slots[idx].take().expect("checked above");
            slot.sc.conn.transport.close();
            inner.conns.lock().remove(&slot.sc.conn.id);
            stats.conn_removed();
            // Reap the wake token: bump the generation first, so the
            // token the `close()` above just (re-)queued — and any
            // other stale one — can never index this slot's next
            // tenant.
            state.gens[idx] = state.gens[idx].wrapping_add(1);
            state.free.push(idx);
        }
        ReadOutcome::Shutdown => {}
        ReadOutcome::Frame | ReadOutcome::Admitted | ReadOutcome::Idle => {
            // Level-trigger re-arm: if input remains (a burst larger
            // than the budget, a stashed verbs frame, sticky EOF),
            // requeue at the back of the wake list.
            let slot = state.slots[idx].as_ref().expect("checked above");
            if slot.sc.conn.transport.poll_ready() {
                slot.wake.wake();
                if outcome == ReadOutcome::Admitted {
                    inner.sched.notify();
                    return ReadOutcome::Frame;
                }
            }
        }
    }
    outcome
}

/// The event loop of one reader shard: block on the shard's wake list,
/// re-check readiness on every pop (wakes are hints — see
/// [`crate::readiness`]), receive a bounded burst of frames, and re-arm
/// connections that still have input. One chatty peer cannot starve the
/// shard: its burst is bounded and its re-armed token goes to the *back*
/// of the queue, giving round-robin service among ready connections while
/// idle ones cost nothing at all.
///
/// A burst that ends on an admitted call with nothing behind it — the
/// lone closed-loop call — is not handed to a worker: if the wake list
/// has nothing more for it either, the shard runs a call itself
/// ([`run_in_place`]).
fn reader_shard_loop(inner: &Arc<ServerInner>, shard: usize) {
    let ready = &inner.reader_ready[shard];
    let mut last_sweep = Instant::now();
    let mut answered = Vec::new();
    while !inner.stop.load(Ordering::Acquire) && !inner.draining.load(Ordering::Acquire) {
        // Low-frequency liveness sweep: a peer that dies without closing
        // its stream (node failure) makes its conns readable without any
        // edge ever firing — the one readiness transition a wake hook
        // cannot deliver. Walk the slab once a second and `wake()` any
        // ready conn; the dedup flag makes this a no-op for conns whose
        // token is already queued, so steady-state traffic never pays
        // for it and a truly idle shard pays one charge-free probe per
        // conn per sweep (versus every `IDLE_SLICE` under the old
        // sweep-only reader).
        if last_sweep.elapsed() >= LIVENESS_SWEEP {
            last_sweep = Instant::now();
            let state = inner.reader_state[shard].lock();
            for slot in state.slots.iter().flatten() {
                if slot.sc.conn.transport.poll_ready() {
                    slot.wake.wake();
                }
            }
        }
        // The timeout is only a belt-and-suspenders re-check of the stop
        // flags; `drain`/`stop` close the queue, which wakes this pop
        // immediately.
        let tok = match ready.pop(IDLE_SLICE) {
            Pop::Token(tok) => tok,
            Pop::TimedOut => continue,
            Pop::Closed => break,
        };
        if tok == TOKEN_REGISTER {
            adopt_registrations(inner, shard);
            continue;
        }
        let outcome = service_token(inner, shard, tok, &mut answered);
        if !answered.is_empty() {
            // The flush sends whatever is pending on those connections,
            // and a bulk-sized response a handler queued there can block
            // on slot credits: away meanwhile, like any send of a
            // reader's (a closed wake list cannot be left, and need not
            // be — the shard is on its way out).
            let left = ready.leave();
            answered.drain(..).for_each(|conn| conn.flush(inner));
            if left {
                ready.come_back();
            }
        }
        match outcome {
            ReadOutcome::Shutdown => break,
            ReadOutcome::Admitted => {
                if !run_in_place(inner, shard) {
                    inner.sched.notify();
                }
            }
            ReadOutcome::Frame | ReadOutcome::Idle | ReadOutcome::Forfeit => {}
        }
    }
    // On stop or drain the assigned connections stay open and in the
    // table — a draining server still owes them responses, and `stop()`
    // closes the whole table itself.
}

/// The reader takes an idle worker's place: the heart of a worker pass
/// ([`pop_and_poll`]) — pop whichever call the admission queue hands out
/// (after `try_push`, so quota, class, DRR order and deadline shedding are
/// the queued path's by construction), answer the shed ones, poll the
/// popped one on this stack — where it would have woken a worker to do
/// the same.
/// `false` = it did not, and the caller announces the call instead.
///
/// * **Instead of a worker, not beside them:** only under a run permit
///   (never more than `cfg.handlers` calls execute, whichever threads
///   run them), below the in-flight cap, and not once the server is
///   draining or stopping.
/// * **Only with nothing else to read:** the burst is over (the caller
///   got [`ReadOutcome::Admitted`]) and the shard's wake list is empty.
///   (A token landing between that look and [`ReadyQueue::leave`] is
///   announced by the leave.)
/// * **Away, and taken over:** this runs outside the shard's table lock,
///   with the wake list marked *away*, so anything arriving for the
///   shard meanwhile wakes an idle worker, which reads it ([`take_over`])
///   — and one exists: a permit held here is a worker that cannot be
///   executing. A handler may therefore block without deafening its
///   shard.
///
/// A poll that suspends goes to the injector for a worker to resume; a
/// reader has no run queue.
fn run_in_place(inner: &Arc<ServerInner>, shard: usize) -> bool {
    let sched = &inner.sched;
    let cap = inner.cfg.max_inflight_calls;
    if inner.draining.load(Ordering::Acquire)
        || inner.stop.load(Ordering::Acquire)
        || (cap != 0 && sched.inflight() >= cap)
        || !sched.try_permit()
    {
        return false;
    }
    let ready = &inner.reader_ready[shard];
    if !ready.is_empty() || !ready.leave() {
        sched.release_permit(false);
        return false;
    }
    pop_and_poll(inner, inner.now_ns(), Runner::Reader(shard));
    // This thread goes back to reading: whatever is still queued needs a
    // worker, and one that found no permit may be asleep.
    sched.release_permit(!inner.admission.is_empty());
    ready.come_back();
    true
}

/// Whose stack a call's first poll runs on.
#[derive(Clone, Copy)]
enum Runner {
    Worker(usize),
    /// A reader shard, holding a permit in an idle worker's place.
    Reader(usize),
}

/// The heart of a worker pass, under a run permit: pop the admission
/// queue at `now` — expired heads are answered without execution, that
/// is the whole point of deadline propagation — and poll the popped call
/// for the first time right here, on the caller's stack. `true` if
/// anything was popped.
fn pop_and_poll(inner: &Arc<ServerInner>, now: u64, runner: Runner) -> bool {
    let popped = inner.admission.try_pop(now);
    let worked = !popped.is_empty();
    for (meta, call) in popped.shed {
        shed_call(inner, meta, call);
    }
    if let Some((meta, call)) = popped.run {
        let frame = call_frame(inner, meta, call);
        match runner {
            Runner::Worker(worker) => inner.sched.run_first(worker, now, frame),
            // Parks are booked on a worker row; the shard's index picks it.
            Runner::Reader(shard) => {
                let seat = shard % inner.worker_stats.len();
                inner.sched.run_first_foreign(seat, now, frame)
            }
        }
    }
    worked
}

/// A worker's reading step: service one token (or registration) from
/// each shard whose owner is away running a call. It only reads and
/// pushes — the calls it admits it meets again in its own loop, under a
/// permit like any other — so with every permit taken an away shard is
/// still read, queued for and refused for (its refusals it sends itself).
/// Counted a reader while at it,
/// so that `drain` waits for it; nobody takes over once `draining` is set.
fn take_over(inner: &Arc<ServerInner>, worker: usize) -> bool {
    if !inner.reader_ready.iter().any(|ready| ready.is_away()) {
        return false;
    }
    inner.live_readers.fetch_add(1, Ordering::SeqCst);
    let _reading = CountGuard(&inner.live_readers);
    if inner.draining.load(Ordering::SeqCst) || inner.stop.load(Ordering::Acquire) {
        return false;
    }
    let mut took = false;
    let mut answered = Vec::new();
    for (victim, ready) in inner.reader_ready.iter().enumerate() {
        let Some(tok) = ready.take_over() else {
            continue;
        };
        took = true;
        inner.worker_stats[worker].inc_steal();
        if tok == TOKEN_REGISTER {
            adopt_registrations(inner, victim);
        } else {
            // An `Admitted` needs no notify: this worker's own pass pops
            // next, and if no permit is free, nobody could run it anyway
            // — whoever frees one looks at the queue.
            service_token(inner, victim, tok, &mut answered);
            answered.drain(..).for_each(|conn| conn.flush(inner));
        }
    }
    took
}

/// A reader's own answer (busy, replay, a parked duplicate it aborts),
/// from under the table lock: pushed onto its connection's pending list,
/// the connection noted in `answered` for the flush that follows.
fn answer_reading(
    inner: &ServerInner,
    route: RespRoute,
    bytes: &Arc<Vec<u8>>,
    answered: &mut Vec<Arc<ServerConn>>,
) {
    route
        .conn
        .send(inner, route.key, route.seq, bytes, Producer::Reading);
    if !answered
        .last()
        .is_some_and(|conn| Arc::ptr_eq(conn, &route.conn))
    {
        answered.push(route.conn);
    }
}

/// Receive and admit one frame from a ready connection. This is the body
/// the per-connection Reader thread used to run, minus the blocking idle
/// wait (the shard only calls it after `poll_ready`).
fn read_one(
    inner: &Arc<ServerInner>,
    sc: &mut ShardConn,
    stats: &ShardStats,
    answered: &mut Vec<Arc<ServerConn>>,
) -> ReadOutcome {
    let conn = &sc.conn;
    let (payload, recv) = match conn.transport.recv_msg(READ_SLICE) {
        Ok(v) => v,
        Err(RpcError::Timeout) => return ReadOutcome::Idle,
        Err(RpcError::Protocol(_)) => {
            // Unframeable bytes: count it like any corrupt frame before
            // forfeiting the connection.
            inner.metrics.inc_frame_errors();
            return ReadOutcome::Forfeit;
        }
        Err(_) => return ReadOutcome::Forfeit,
    };
    let mut reader = payload.reader();
    let header = match sc.dec.read_request_header(&mut reader, sc.client_id) {
        Ok(h) => h,
        Err(_) => {
            // Corrupt frame: past this point the stream cannot be
            // re-synchronized, so the whole connection is forfeit.
            // Counted for observability.
            inner.metrics.inc_frame_errors();
            return ReadOutcome::Forfeit;
        }
    };
    stats.inc_processed();
    let body_offset = reader.position();
    inner.metrics.entry(header.key).record_recv(recv);
    // At-most-once admission (a cache of capacity 0 admits everything).
    // The cache stores bodies without their leads, so attempts of one
    // logical call arriving on different connections share one entry —
    // each route's lead is composed by its own connection's encoder.
    let cache_key = (header.client_id, header.seq);
    match inner
        .retry_cache
        .begin(cache_key, || RespRoute::new(Arc::clone(conn), &header))
    {
        Admission::Execute => {}
        Admission::Parked => return ReadOutcome::Frame,
        Admission::Replay(bytes) => {
            // Completed earlier: answer from the cache, never touching
            // the handler pool.
            let own = RespRoute::new(Arc::clone(conn), &header);
            answer_reading(inner, own, &bytes, answered);
            return ReadOutcome::Frame;
        }
    }
    let call = RawCall {
        conn: Arc::clone(conn),
        header,
        payload,
        body_offset,
        admitted_at: Instant::now(),
    };
    // The shedding deadline in the server's own clock; a call that
    // carries no budget is never shed.
    let expires_at_ns = header
        .deadline_budget
        .map(|budget| inner.now_ns().saturating_add(budget.as_nanos() as u64));
    // Protocol-priority class: calls to a listed control protocol jump
    // their tenant's bulk backlog inside the admission queue. The
    // default empty set marks everything Bulk — ordering identical to
    // the classless queue.
    let class = if !inner.priority.is_empty() && inner.priority.contains(header.protocol()) {
        CallClass::Control
    } else {
        CallClass::Bulk
    };
    let meta = CallMeta {
        tenant: header.client_id,
        expires_at_ns,
        class,
    };
    inner.open_work.fetch_add(1, Ordering::AcqRel);
    match inner.admission.try_push(meta, call) {
        // The queue has no blocking consumer, so somebody must be told —
        // or do the popping: the caller's decision.
        Ok(()) => return ReadOutcome::Admitted,
        Err((AdmitError::QueueFull | AdmitError::TenantOverQuota, call)) => {
            // Overload (shared queue full, or this tenant over its
            // quota): reject instead of blocking the shard (which would
            // stall every connection assigned to it). The call never
            // executed, so the rejection is retryable. A refused request
            // is let go where it is refused.
            drop(call);
            inner.open_work.fetch_sub(1, Ordering::AcqRel);
            inner.metrics.inc_busy_rejections_for(header.client_id);
            stats.inc_busy();
            // Duplicates that parked in the begin/try_push window
            // (another connection of the same client) get the same busy
            // answer; the entry is gone so a retry can execute.
            let own = RespRoute::new(Arc::clone(conn), &header);
            for route in std::iter::once(own).chain(inner.retry_cache.abort(cache_key)) {
                answer_reading(inner, route, &inner.busy_body, answered);
            }
        }
        Err((AdmitError::Closed, _call)) => {
            inner.open_work.fetch_sub(1, Ordering::AcqRel);
            inner.retry_cache.abort(cache_key);
            return ReadOutcome::Shutdown; // the server is going away
        }
    }
    ReadOutcome::Frame
}

/// One handler worker. Each pass: fire due timers; read for any shard
/// whose owner is away ([`take_over`] — needs no permit); then, under a
/// run permit, pop the admission queue and poll the popped call for the
/// first time right here, on this stack ([`pop_and_poll`]), and run one
/// suspended call that is runnable
/// again — own queue first, then the injector, then stealing. Admission
/// precedes the task so a yield-spinning call can never starve new
/// arrivals; the in-flight cap (`cfg.max_inflight_calls`) pauses
/// admission — backpressure into the bounded queue, not rejection — while
/// parked calls pile up. A pass that found nothing — or no permit: a
/// reader shard is running in this worker's place — sleeps on the
/// runtime's idle wait; whoever pushes a call, wakes a task, pushes onto
/// an away shard or returns a permit beside waiting work notifies.
fn worker_loop(inner: Arc<ServerInner>, worker: usize) {
    let sched = &inner.sched;
    let cap = inner.cfg.max_inflight_calls;
    loop {
        // Read before the scan: a push or wake landing after the scan
        // has passed it by moves the epoch and cancels the wait below.
        let epoch = sched.wake_epoch();
        let now = inner.now_ns();
        sched.fire_timers(now);
        let mut worked = take_over(&inner, worker);
        if sched.try_permit() {
            if cap == 0 || sched.inflight() < cap {
                worked |= pop_and_poll(&inner, now, Runner::Worker(worker));
            }
            if let Some(task) = sched.next_task(worker) {
                sched.run(worker, task, inner.now_ns());
                worked = true;
            }
            // This worker looks at the admission queue again itself.
            sched.release_permit(false);
        }
        if worked {
            continue;
        }
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        // Sleep until the next timer deadline (a `park_until` must not
        // oversleep), a notify, or the idle slice.
        let timeout = match sched.next_timer_ns() {
            Some(at) => {
                Duration::from_nanos(at.saturating_sub(inner.now_ns()).max(1)).min(IDLE_SLICE)
            }
            None => IDLE_SLICE,
        };
        sched.idle_wait(epoch, timeout);
    }
}

/// One admitted call as the runtime polls it: the `RawCall`, the
/// service's stash and the accumulated handler time are this closure's
/// captures. They sit on the worker's stack for the first poll and move
/// to the heap — a few hundred bytes, against an OS thread per blocked
/// call — only if that poll suspends.
///
/// **The request's life.** The parameter bytes are read where the wire
/// put them — an eager message's posted buffer, a bulk frame's slots of
/// the large region ([`Payload::InPlace`]) — and both are the peer's to
/// send into again only once the payload is dropped. So the request is
/// let go the moment `dispatch` has returned a result: *before* the
/// response is serialized, let alone sent (a send can wait on the peer's
/// credits; nothing of the peer's waits on it meanwhile). A call that is
/// refused — busy, replayed, a parked duplicate, shed — lets go where it
/// is refused. And a poll that suspends must not take slots of the
/// peer's ring into a wait with no bound: *a stack frame reads in place,
/// a heap frame takes its bytes with it* ([`IbContext::evacuate`] — the
/// one copy of a bulk request the engine still makes, charged to the
/// ledger there). Waiting in the admission queue for a run permit does
/// not evacuate: see [`crate::transport::rdma`] for why that cannot
/// deadlock.
///
/// The poll that completes serializes once, answers from the worker it
/// ran on ([`ServerInner::respond`]) and releases the tenant's admission
/// quota.
fn call_frame(
    inner: &Arc<ServerInner>,
    meta: CallMeta,
    call: RawCall,
) -> impl FnMut(&mut TaskCx<'_>) -> Step + Send + 'static {
    let inner = Arc::clone(inner);
    let mut call = Some(call);
    let mut stash: Option<Box<dyn std::any::Any + Send>> = None;
    // Handler-phase time is the sum of the call's *running* slices;
    // parked time is charged to nobody — that is the point.
    let mut handler_ns: u64 = 0;
    move |cx: &mut TaskCx<'_>| {
        let c = call.as_mut().expect("call polled after completion");
        let entry = inner.metrics.entry(c.header.key);
        if cx.polls() == 0 {
            entry.record_phase(
                Phase::ServerQueue,
                c.admitted_at.elapsed().as_nanos() as u64,
            );
        }
        let poll_start = Instant::now();
        let mut reader = c.payload.reader();
        reader.skip(c.body_offset);
        let mut hcx = HandlerCx::new(cx, &mut stash);
        let (protocol, method) = (c.header.protocol(), c.header.method());
        let Some(result) = inner
            .registry
            .dispatch(protocol, method, &mut reader, &mut hcx)
        else {
            // Polled again, it reads the same bytes from its own copy.
            if let Some(ib) = &inner.ib {
                ib.evacuate(&mut c.payload);
            }
            handler_ns += poll_start.elapsed().as_nanos() as u64;
            return hcx.pending_step();
        };
        let RawCall {
            conn,
            header,
            payload,
            ..
        } = call.take().expect("taken once");
        drop(payload);
        let body = inner.serialize_response(header.key, &result);
        handler_ns += poll_start.elapsed().as_nanos() as u64;
        entry.record_phase(Phase::Handler, handler_ns);
        inner.respond(conn, header, body);
        inner.admission.release(meta.tenant);
        Step::Done
    }
}

/// Answer a deadline-expired call with `STATUS_EXPIRED` without executing
/// it. The retry cache is *completed* (not aborted) with the expired body,
/// so any duplicate attempt — parked or future — replays the same verdict
/// instead of re-executing a call the client already gave up on.
fn shed_call(inner: &Arc<ServerInner>, meta: CallMeta, call: RawCall) {
    inner.metrics.inc_deadline_sheds_for(meta.tenant);
    // The queue already returned the tenant's quota slot when it shed the
    // call, so unlike an executed call there is nothing to release — but
    // the request itself: dropped here, before the send.
    let RawCall { conn, header, .. } = call;
    inner.respond(conn, header, Arc::clone(&inner.expired_body));
}
