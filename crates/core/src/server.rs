//! The RPC server: the paper's Section III-D pipeline, in which **the
//! thread that has the work does the next step**: the thread that reads
//! a lone call runs it, and the thread that computes a response sends it.
//!
//! Hadoop's 0.20.x architecture dedicates one **Reader** thread to every
//! connection — thread explosion at scale — hands every call to a
//! **Handler** pool through a queue, and funnels every transmission
//! through a **Responder** thread. Each of those hand-offs is a futex
//! wake, a context switch and a queue residence per call; stock Hadoop
//! itself skips the last (`Responder.doRespond` writes from the Handler
//! thread whenever the connection's response queue is empty), and
//! Ibdxnet runs one event loop per thread: take a ready connection,
//! decode its burst, run the handler of what it decoded, send. Two thread
//! roles are left here:
//!
//! * a **Listener** thread *blocks* in accept (no polling: `drain` and
//!   `stop` unbind its socket, which fails the accept at once), assigns
//!   each connection a monotonically increasing id, and hands the stream
//!   to a transient setup thread (handshake and, in RPCoIB mode, the
//!   blocking end-point exchange) which registers the finished
//!   connection on the read side. The accept path is *bounded*: at
//!   most [`ACCEPT_BACKLOG`] setups run concurrently (further
//!   connects wait in the listener queue), and once
//!   `RpcConfig::max_connections` connections are live (or being set
//!   up), further connects are answered with a retryable busy rejection
//!   instead of growing the conn table without limit;
//! * a **pool** of `handlers + 1` threads, each running one loop
//!   ([`worker_loop`]): read a burst from a woken connection, run a call,
//!   resume a suspended one, or sleep. Reading is event-driven: the
//!   transports enqueue a generation-stamped conn token on the server's
//!   one [`ReadyQueue`] when input becomes observable (see
//!   [`crate::readiness`] for the wake-list contract), and whoever takes
//!   the read turn pops it, re-checks [`Conn::poll_ready`], receives a
//!   bounded burst of frames, and re-arms the token if input remains —
//!   so idle connections cost nothing per scheduling round, which is
//!   what makes a 50k-connection front door affordable. Each admitted
//!   frame consults the [`RetryCache`] for at-most-once admission and is
//!   pushed onto the bounded call queue — *without blocking*: an
//!   overflowing queue answers with a retryable busy rejection instead of
//!   stalling every other connection. A call's first poll runs on the
//!   stack of the thread that pops it; one that completes there — every
//!   call of a service that never suspends — is a plain function call,
//!   and only one that yields or parks becomes a heap frame on the
//!   [`crate::sched`] runtime, to be resumed by whichever thread is free.
//!
//! ## Who runs a call
//!
//! Every call goes through `retry_cache.begin` and `admission.try_push`
//! — busy rejection, tenant quota, priority class, deadline shedding and
//! DRR order are properties of that one queue, and there is no way around
//! it. A burst (a gathered batch, pipelined calls) announces each call
//! but its last to the pool, and keeps its parallelism; a burst that ends
//! on an admitted call with nothing else to read announces nobody, and
//! the thread that read it pops it next — a closed-loop 512 B call blocks
//! one server thread, not two. Reading needs no permit; running does:
//! the runtime hands out `handlers` run permits ([`Sched::try_permit`]),
//! so `handlers` means *calls executing at once*, whichever threads
//! execute them. The pool has one thread more than that, so **at least
//! one thread holds no permit**: a handler may block (a region server's
//! put sits in a 5 ms HDFS write; a call may call back into its own
//! server) and the read side is never deaf. The connection table's lock
//! is the read turn. It is held for one burst, never across a handler,
//! and taken without waiting: a thread that finds it held leaves the
//! wake list to the holder, who looks at the list again after letting
//! go ([`read_burst`]).
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
//! holding its turn, never the pool. A thread that has just read may be
//! that sender: credit waits drive receive progress themselves
//! (`RdmaConn::send_bulk`), and it sends with the read turn let go, so
//! another thread reads meanwhile. Five rules:
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
//! 4. **A reader sends its own refusals — never under the read turn.**
//!    Whoever reads holds the table lock and must not wait on a send, so
//!    its busy rejections and replays are only *pushed* from in there
//!    and *flushed* by the same thread once [`read_burst`] has let the
//!    lock go — not by waking another thread: a refusal must not wait
//!    for one. A flush sends whatever is pending there, and a bulk-sized
//!    response can block on slot credits, which is why the lock is let
//!    go first. No refusal is dropped (a caller that does not retry would
//!    wait out its timeout): a frame read pushes at most one answer, and
//!    the list is sent after each burst, or by a turn holder before it
//!    lets go, so it holds at most what was read while one send held the
//!    turn — one burst, unless that send waits on its peer's credits,
//!    which it does for at most `call_timeout`.
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
//! share them. It lives in the server's heap tier ([`bufpool::heap`],
//! the heap half of the paper's two-tier pool; the registered half is
//! the node's [`IbContext`]) and goes round: *spare* → *serialized*
//! (`ServerInner::serialize_response` writes into a spare of the size
//! class of the method's last response; only a miss allocates) → *sent*
//! (inline or queued, always behind a per-route lead) → *cached*
//! (`RetryCache::complete`) → *acknowledged* by the caller's next
//! request (or, as a backstop, evicted or expired; moved out under the
//! cache mutex, offered after it) → *spare* again, if `Arc::get_mut`
//! finds nobody still holding it. Every holder offers the body when it
//! lets go — the sender once it is sent, too — so the last one files it.
//! Steady state, the server's call path allocates nothing of its own,
//! and a bulk parameter is read into a spare as well ([`call_frame`]).
//! The tier's rules are [`bufpool::heap`]'s, the cache's
//! [`crate::retry_cache`]'s.
//!
//! Shutdown comes in two flavors: [`Server::stop`] (abrupt — close
//! everything now) and [`Server::drain`] (graceful — stop accepting,
//! quiesce the read side, finish queued calls, flush responses, then
//! join).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use bufpool::heap::{self, HeapTier, ParamDraw};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use simnet::{Clock, Fabric, ListenerCloser, NodeId, SimAddr, SimListener};
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
use crate::readiness::{token, token_gen, token_slot, ReadyQueue, WakeState, TOKEN_REGISTER};
use crate::retry_cache::{Admission, Retention, RetryCache};
use crate::sched::{HandlerCx, Sched, Step, TaskCx};
use crate::service::ServiceRegistry;
use crate::transport::rdma::{IbContext, RdmaConn};
use crate::transport::socket::{SocketConn, SERVER_INIT_BUF};
use crate::transport::Conn;

/// Bound on one `recv_msg` once a connection has signalled readiness. A
/// ready socket connection returns instantly; on the verbs path the
/// pending completion may be a flow-control credit rather than a
/// message, in which case the credit is consumed and the reader waits at
/// most this long for a message riding behind it.
const READ_SLICE: Duration = Duration::from_millis(1);

/// Connection setups (handshake + RPCoIB end-point exchange) in flight
/// at once — the bounded accept queue. A connect storm past this waits
/// in the listener queue until setups drain (added latency, not
/// rejection), keeping the accept path's thread and memory use bounded.
const ACCEPT_BACKLOG: usize = 64;

/// Frames one readiness pop may decode from a single connection before
/// its token re-arms at the back of the queue (non-QoS mode; QoS mode
/// budgets by tenant weight instead). A gathered batch arrives as one
/// wire op carrying many frames: draining them in one pop turns
/// batch-of-32 service from 32 queue round-trips into one, while the
/// bound keeps one chatty peer from starving the others.
const READ_BURST: usize = 32;

/// Most eager-sized responses one gathered wire operation carries. Bounds
/// the latency a response can pick up behind the gather it rides.
const SEND_GATHER: usize = 64;

/// Everything the server keeps per connection that more than one thread
/// touches: the transport, and the state of its *send side*.
struct ServerConn {
    /// Accept-order id, the connection's key in the conn table.
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
    /// It is reading, under the read turn: its answer is only
    /// pushed, and flushed once the lock is released — rule 4 of the
    /// module docs.
    Reading,
}

struct RawCall {
    conn: Arc<ServerConn>,
    header: RequestHeader,
    payload: Payload,
    /// Offset of the parameter bytes within the payload.
    body_offset: usize,
    /// When the call was admitted, in `now_ns` — the first poll's time
    /// minus this is the `server_queue` phase of the latency histogram.
    admitted_ns: u64,
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

/// A connection handed from the accept path to the read side.
struct ReadConn {
    conn: Arc<ServerConn>,
    /// Identity from the handshake (never 0); frames do not carry it.
    client_id: u64,
    /// Request-header decoder. It lives in the connection table, so the
    /// read turn is its lock.
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
    /// Threads that can still admit calls or register connections: each
    /// pool thread while inside a burst, and each in-flight
    /// connection-setup thread (incremented by the Listener *before* the
    /// spawn, so `drain` never sees a gap).
    live_readers: AtomicUsize,
    /// Admitted calls whose responses have not yet been transmitted.
    /// Incremented by whoever reads before it queues a call, and for every
    /// response pushed onto a connection's pending list; given back
    /// ([`ServerInner::release_work`]) by the handler after it has
    /// answered the call and by whoever drains the list after each send
    /// attempt — so "no open work" really means no call or response is
    /// anywhere in the pipeline.
    open_work: AtomicUsize,
    /// What `drain` and a Listener paused at [`ACCEPT_BACKLOG`] wait on:
    /// `fell` is notified, under `quiet`, when a count they wait for
    /// falls far enough ([`ServerInner::wake_waiters`]).
    quiet: Mutex<()>,
    fell: Condvar,
    metrics: MetricsRegistry,
    /// Present in RPCoIB mode; kept here so metrics snapshots can read
    /// the registered buffer pool's counters.
    ib: Option<IbContext>,
    retry_cache: RetryCache<RespRoute>,
    /// The heap tier response bodies are built in and bulk parameters
    /// read into; the retry cache offers it what leaves the cache.
    heap: Arc<HeapTier>,
    /// Source of server-assigned client ids for peers that present 0 at
    /// the handshake.
    next_client_id: AtomicU64,
    /// The reader→handler admission plane: the seed's bounded FIFO
    /// channel, now with per-tenant quotas, weighted-fair pop, and
    /// deadline shedding (all off by default — see [`crate::admission`]).
    admission: AdmissionQueue<RawCall>,
    /// The fabric's clock: the `now_ns` timeline admission, the runtime's
    /// timers and `drain` all run on.
    clock: Clock,
    /// The registration channel: the accept path sends finished
    /// connections, and whoever services a [`TOKEN_REGISTER`] adopts
    /// them.
    reg_tx: Sender<ReadConn>,
    reg_rx: Receiver<ReadConn>,
    /// The wake list. The accept path pushes [`TOKEN_REGISTER`] after a
    /// registration; the transports push a connection's token when it
    /// becomes readable.
    ready: Arc<ReadyQueue>,
    /// The connection table — slots, generations, free list — behind
    /// the lock that is the read turn: whoever holds it is the only
    /// thread reading any connection, which is what keeps per-connection
    /// frame order. It is held for a read burst and **never across a
    /// handler**: `shutdown` takes it and must not wait for a call to
    /// finish.
    table: Mutex<ReaderState>,
    /// The snapshot's one `ShardRole::Reader` row: frames read, busy
    /// rejections, the conn gauge and the wake list's depth.
    reader_stats: Arc<ShardStats>,
    /// Where suspended calls live between polls, and what the pool
    /// threads sleep on. Its frames hold `Arc<ServerInner>`; the cycle
    /// is broken by `shutdown`, which closes it.
    sched: Sched,
    /// Protocols of the control/heartbeat admission class
    /// (`cfg.priority_protocols`); empty = single class.
    priority: HashSet<String>,
    /// Connection setups currently in flight (accepted, handshake or
    /// verbs bootstrap unfinished). Together with the conn table this
    /// bounds the accept path: at [`ACCEPT_BACKLOG`] the Listener pauses
    /// accepting until a setup finishes; past `max_connections` it
    /// answers busy instead of spawning.
    setups_inflight: AtomicUsize,
    /// The send ledger — the snapshot's one `ShardRole::Responder` row:
    /// responses sent (`processed`, whoever sent them) and responses
    /// pending behind a turn's holder, over all connections (the depth
    /// gauge).
    send_ledger: Arc<ShardStats>,
    /// Live connections, keyed by accept order. Entries are removed by
    /// the reader that forfeits a connection, so
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

    /// Give back `n` `open_work` slots. Reaching zero during a drain is
    /// the event `drain` waits for, and only then does this lock and
    /// notify: outside a drain the call path does neither. `SeqCst`
    /// against `drain`'s "set the flag, then look at the count": either
    /// this sees the flag, or `drain` sees the count.
    fn release_work(&self, n: usize) {
        let was = self.open_work.fetch_sub(n, Ordering::SeqCst);
        if was == n && self.draining.load(Ordering::SeqCst) {
            self.wake_waiters();
        }
    }

    /// Wake `drain` and a paused Listener to look at their counts again.
    fn wake_waiters(&self) {
        let _quiet = self.quiet.lock();
        self.fell.notify_all();
    }

    /// A failed send only affects that one connection — but it does mean
    /// the connection is broken: close it so the read side stops
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
        self.release_work(1);
        // Sent: offer the buffer. Kept only if nobody else holds it — the
        // cache off, or the caller's ack already in; a cache entry or a
        // pending send still holding it offers it when it lets go.
        self.heap.offer(bytes);
    }

    /// Serialize a dispatch result into the response body
    /// (`[status][value | error]`): once, on the computing thread, so a
    /// replay or a parked duplicate on another connection shares the
    /// bytes — and into a spare of the heap tier, when it has one of the
    /// size the last response of this `<protocol, method#resp>` had (the
    /// paper's message-size locality): steady state, neither the `Vec`
    /// nor its `Arc` is allocated. A fresh buffer is sized from the same
    /// history, so it is allocated once instead of grown. An error is not
    /// its method's size locality: it is sized by its own text and leaves
    /// the history alone.
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
        let (body, reused) = self.heap.build_body(hint, |buf| {
            write_response_body(buf, result_ref).expect("serializing to Vec cannot fail")
        });
        self.metrics.inc_resp_bodies(reused);
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
                // read and ran the call before: it resumes only to send
                // what queued behind it, is preempted in that send too,
                // and never gets back to reading — every call after costs
                // a second server thread. A bulk-sized body queues at
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
        // Sent: offered, as at the end of `respond`.
        let sent_body = |bytes: Arc<Vec<u8>>| inner.heap.offer(bytes);
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
        inner.release_work(sent);
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

/// Decrements one of the server's counts on drop, so every way out of a
/// burst or a connection setup (normal, panic, early return) releases
/// its slot; and wakes the waiters when the count falls to what one of
/// them may wait for: to zero during a drain (`live_readers`), or below
/// [`ACCEPT_BACKLOG`] (`setups_inflight`, for a paused Listener).
struct CountGuard<'a>(&'a ServerInner, &'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        let was = self.1.fetch_sub(1, Ordering::SeqCst);
        if was == ACCEPT_BACKLOG || (was == 1 && self.0.draining.load(Ordering::SeqCst)) {
            self.0.wake_waiters();
        }
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
            Some(IbContext::for_node(fabric, node, &cfg)?)
        } else {
            None
        };

        let admission =
            AdmissionQueue::new(cfg.call_queue_len, cfg.tenant_quota, &cfg.tenant_weights);
        let metrics = MetricsRegistry::new(false);
        // Byte budget (cached bodies, by `capacity()`): as if every
        // cached response were as large as an eager frame can get
        // (`rdma_threshold`) — 128 MiB at defaults. Small-call servers
        // never reach it; bulk responses evict early instead of pinning
        // `capacity × response size`. Idle spares have the tier's own.
        let heap = Arc::new(HeapTier::new(heap::BUDGET_BYTES));
        let retry_cache =
            RetryCache::new(cfg.replay_ttl(), cfg.retry_cache_capacity, metrics.clone())
                .with_byte_budget(cfg.retry_cache_capacity.saturating_mul(cfg.rdma_threshold))
                .with_spares(Arc::clone(&heap))
                .with_clock(fabric.clock().clone());

        // One more thread than permits: one always holds none.
        let pool = cfg.handlers + 1;
        let worker_stats: Vec<_> = (0..pool)
            .map(|i| metrics.register_shard(ShardRole::Worker, i))
            .collect();
        let sched = Sched::new(cfg.handlers, worker_stats);
        let (reg_tx, reg_rx) = unbounded();
        let reader_stats = metrics.register_shard(ShardRole::Reader, 0);
        let ready = Arc::new(ReadyQueue::new(Some(Arc::clone(&reader_stats))));
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
            quiet: Mutex::new(()),
            fell: Condvar::new(),
            metrics,
            ib,
            retry_cache,
            heap,
            next_client_id: AtomicU64::new(id_seed),
            admission,
            clock: fabric.clock().clone(),
            reg_tx,
            reg_rx,
            ready,
            table: Mutex::new(ReaderState::default()),
            reader_stats,
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
        for i in 0..pool {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-worker-{i}"))
                    .spawn(move || worker_loop(inner, i))
                    .expect("spawn pool thread"),
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
    /// per-`<protocol, method>` phase histograms, the pipeline's counter
    /// rows (reader, send ledger, one per pool thread), and (in RPCoIB mode) the registered buffer pool's
    /// counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self
            .inner
            .metrics
            .full_snapshot(self.inner.ib.as_ref().map(|ib| ib.pool_counters()));
        // Per-connection memory accounting, read live from the conn
        // table (the wake list's depth already rides in `shards`).
        let conns = self.inner.conns.lock();
        snap.connections = conns.len();
        snap.conn_buffered_bytes = conns.values().map(|c| c.buffered_bytes()).sum();
        snap
    }

    /// Number of connections currently alive (accepted and not yet torn
    /// down). Under churn this returns to zero once the read side
    /// notices departed clients' closes.
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

    /// What the retry cache retains — completed bodies, by `len()` and by
    /// `capacity()` — and the heap tier's idle spares, for the allocation
    /// tests.
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
        // SeqCst against a pool thread's "count myself a reader, then
        // look at the flag" (see `read_burst`): either it sees the flag
        // and reads nothing, or the wait below sees it counted.
        self.inner.draining.store(true, Ordering::SeqCst);
        // Unbind the Listener's socket, which fails its accept at once,
        // and wake it if it is paused at the backlog.
        self.inner.listener_closer.close();
        self.inner.wake_waiters();
        let inner = &self.inner;
        // In this order: the Listener has exited — no new setup threads
        // after this; the read side has quiesced — a thread inside a
        // burst has finished it, and in-flight connection setups have
        // finished, so no new call enters the pipeline; the pipeline is
        // empty — `open_work` covers a call from admission until its
        // response transmission, so zero means nothing is queued,
        // executing, or awaiting send. Each of those events wakes this
        // wait (`wake_waiters`).
        let deadline = inner.clock.deadline(timeout);
        let quiesced = inner
            .clock
            .wait_on(&inner.fell, &mut inner.quiet.lock(), deadline, |_| {
                inner.listener_done.load(Ordering::Acquire)
                    && inner.live_readers.load(Ordering::SeqCst) == 0
                    && inner.open_work.load(Ordering::SeqCst) == 0
            });
        if !quiesced {
            self.shutdown(false);
            return false;
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
        // Wake the idle pool threads, and drop every suspended call: their
        // frames hold `Arc<ServerInner>`, so one left parked (on a
        // timer, or on a handle a service still keeps) would keep the
        // whole server — registry, retry cache, registered pool — alive.
        self.inner.sched.close();
        // And the Listener, blocked in accept or paused at the backlog.
        self.inner.listener_closer.close();
        self.inner.wake_waiters();
        // Clear the connection table (its lock is never held across a
        // handler, so this cannot wait on a call), then close and drop
        // every connection: each peer learns of its end at once, and the
        // server-side transport state — an RPCoIB queue pair and its
        // registered buffers — goes now, not when the `Server` value
        // itself is dropped.
        *self.inner.table.lock() = ReaderState::default();
        let mut conns = self.inner.conns.lock();
        for conn in conns.values() {
            conn.close();
        }
        conns.clear();
        drop(conns);
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

/// The Listener *blocks* in accept: an idle one makes no timed wake-up,
/// a connect is accepted the moment it arrives, and `drain`/`stop`
/// unbind the socket ([`ServerInner::listener_closer`]), which fails the
/// accept at once.
fn listener_loop(inner: Arc<ServerInner>, listener: SimListener) {
    let stopping = || inner.stop.load(Ordering::Acquire) || inner.draining.load(Ordering::Acquire);
    while !stopping() {
        // Backlog backpressure: with `ACCEPT_BACKLOG` setups already in
        // flight, stop accepting until one finishes (its `CountGuard`
        // wakes this wait). Pending connects queue in the listener
        // (bounded latency, like a TCP SYN queue), so a legitimate burst
        // is absorbed rather than refused.
        if inner.setups_inflight.load(Ordering::SeqCst) >= ACCEPT_BACKLOG {
            inner
                .clock
                .wait_on(&inner.fell, &mut inner.quiet.lock(), u64::MAX, |_| {
                    inner.setups_inflight.load(Ordering::SeqCst) < ACCEPT_BACKLOG || stopping()
                });
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                reap_setup_threads(&inner);
                // Hard admission cap, *before* any resource is
                // committed: past `max_connections` (live + in setup),
                // answer with the 9-byte busy ack (version byte 0) and
                // drop the stream. The client maps it to the retryable
                // `ServerBusy`. Both counts are read under the table's
                // lock, which a setup holds to move from one to the
                // other, so each connection is counted once.
                let over_cap = inner.cfg.max_connections != 0 && {
                    let conns = inner.conns.lock();
                    conns.len() + inner.setups_inflight.load(Ordering::Acquire)
                        >= inner.cfg.max_connections
                };
                if over_cap {
                    inner.metrics.inc_accept_rejections();
                    use std::io::Write;
                    let _ = (&stream).write_all(&[0u8; 9]);
                    continue;
                }
                inner.accepted.fetch_add(1, Ordering::Relaxed);
                // The conn table's key, assigned here in accept order.
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
                // finished connection is handed to the read side.
                let handle = std::thread::Builder::new()
                    .name("rpc-conn-setup".into())
                    .spawn(move || {
                        let _slot = CountGuard(&inner2, &inner2.live_readers);
                        let setup = CountGuard(&inner2, &inner2.setups_inflight);
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
                        let mut conns = inner2.conns.lock();
                        conns.insert(conn_id, Arc::clone(&conn));
                        drop(setup);
                        drop(conns);
                        // Stream transports run the stateful codec,
                        // verbs the self-contained one (see `frame`).
                        let stateful = !inner2.cfg.ib_enabled;
                        let _ = inner2.reg_tx.send(ReadConn {
                            conn: Arc::new(ServerConn {
                                id: conn_id,
                                transport: conn,
                                turn: Mutex::new(V3Encoder::new(stateful)),
                                pending: Mutex::new(VecDeque::new()),
                            }),
                            client_id,
                            dec: V3Decoder::new(stateful),
                        });
                        // Get an idle pool thread to adopt it now.
                        inner2.ready.push(TOKEN_REGISTER);
                        inner2.sched.notify();
                    })
                    .expect("spawn conn setup");
                inner.setup_threads.lock().push(handle);
            }
            Err(_) => break, // unbound: `drain`/`stop`, or the node was killed
        }
    }
    inner.listener_done.store(true, Ordering::Release);
    inner.wake_waiters();
}

/// What one bounded receive attempt on a ready connection produced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadOutcome {
    /// A frame was consumed (replayed, parked, or rejected busy).
    Frame,
    /// A frame was consumed and its call pushed onto the admission queue
    /// — and **nobody has been told yet**: the burst's next frame
    /// announces it; the burst's last is popped by whoever read it, or
    /// announced if there is more to read ([`worker_loop`]).
    Admitted,
    /// Nothing usable within [`READ_SLICE`] (e.g. only a flow-control
    /// credit was pending); the connection stays in the table.
    Idle,
    /// The connection is forfeit (peer gone, corrupt frame): close it and
    /// free its table entry.
    Forfeit,
    /// The server is going away (call queue closed); the burst ends.
    Shutdown,
}

/// The connection table's slot for one connection: the connection itself
/// plus its wake bookkeeping. Slots are recycled through a free list; the
/// matching entry in the table's `gens` vector counts reuses so stale
/// wake tokens are detectable.
struct ReaderSlot {
    rc: ReadConn,
    wake: Arc<WakeState>,
}

/// The connection table: slots, their reuse generations, and the free
/// list, in [`ServerInner::table`] behind the lock that is the read turn.
#[derive(Default)]
struct ReaderState {
    slots: Vec<Option<ReaderSlot>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

/// Adopt every connection waiting on the registration channel: assign a
/// slot, arm the transport's readiness hook, and deliver the no-lost-wake
/// guarantee (probe `poll_ready` once *after* arming, catching input that
/// arrived before the hook existed). The caller holds the read turn.
fn adopt_registrations(inner: &ServerInner, table: &mut ReaderState) {
    while let Ok(rc) = inner.reg_rx.try_recv() {
        inner.reader_stats.conn_added();
        let idx = match table.free.pop() {
            Some(idx) => idx,
            None => {
                table.slots.push(None);
                table.gens.push(0);
                table.slots.len() - 1
            }
        };
        let wake = Arc::new(WakeState::new(
            token(idx, table.gens[idx]),
            Arc::clone(&inner.ready),
        ));
        // An edge that queues the token wakes an idle pool thread to read
        // it. (The reader's own re-arms below and in `service_token` wake
        // nobody: it looks at the wake list itself once it lets go.)
        let hook_state = Arc::clone(&wake);
        let notify = inner.sched.notifier();
        rc.conn.transport.set_ready_hook(Arc::new(move || {
            if hook_state.wake() {
                notify();
            }
        }));
        let slot = ReaderSlot { rc, wake };
        if slot.rc.conn.transport.poll_ready() {
            slot.wake.wake();
        }
        table.slots[idx] = Some(slot);
    }
}

/// Service one wake token against the connection table. The caller holds
/// the read turn for the whole burst, which is what serializes reads per
/// connection. No call is ever run from in here.
///
/// Every call admitted is announced with `Sched::notify` as soon as it is
/// known not to be the burst's last: a gathered batch is handed to the
/// pool exactly as it always was. The last one is the caller's.
///
/// So is the flush: the connections this burst answered itself (busy,
/// replay) are noted in `answered`, and the caller [`ServerConn::flush`]es
/// them once the read turn is let go.
fn service_token(
    inner: &Arc<ServerInner>,
    table: &mut ReaderState,
    tok: u64,
    answered: &mut Vec<Arc<ServerConn>>,
) {
    let fair = inner.admission.fair();
    let stats = &inner.reader_stats;
    let idx = token_slot(tok);
    if idx >= table.slots.len() || table.gens[idx] != token_gen(tok) || table.slots[idx].is_none() {
        // Stale token: its connection was torn down (and possibly the
        // slot recycled) after the token was queued. The generation
        // stamp makes it inert.
        return;
    }
    let outcome = {
        let slot = table.slots[idx].as_mut().expect("checked above");
        // Clear the dedup flag *before* reading, so an edge firing
        // mid-burst re-enqueues instead of being lost.
        slot.wake.begin_poll();
        // Burst budget: QoS mode reads up to the tenant's weight per
        // wake (a light tenant's at least one); otherwise up to
        // `READ_BURST` frames, so a gathered batch decodes in one
        // pop instead of one queue round-trip per frame. Per-connection
        // order holds either way — it is one connection drained
        // sequentially under the read turn.
        let budget = if fair {
            inner.admission.weight(slot.rc.client_id).max(1) as usize
        } else {
            READ_BURST
        };
        let mut outcome = ReadOutcome::Idle;
        for _ in 0..budget {
            if !slot.rc.conn.transport.poll_ready() {
                break;
            }
            if outcome == ReadOutcome::Admitted {
                // Not the last of its burst: another thread's.
                inner.sched.notify();
            }
            outcome = read_one(inner, &mut slot.rc, stats, answered);
            match outcome {
                ReadOutcome::Frame | ReadOutcome::Admitted => {}
                ReadOutcome::Idle | ReadOutcome::Forfeit | ReadOutcome::Shutdown => break,
            }
        }
        outcome
    };
    match outcome {
        ReadOutcome::Forfeit => {
            let slot = table.slots[idx].take().expect("checked above");
            slot.rc.conn.transport.close();
            inner.conns.lock().remove(&slot.rc.conn.id);
            stats.conn_removed();
            // Reap the wake token: bump the generation first, so the
            // token the `close()` above just (re-)queued — and any
            // other stale one — can never index this slot's next
            // tenant.
            table.gens[idx] = table.gens[idx].wrapping_add(1);
            table.free.push(idx);
        }
        ReadOutcome::Shutdown => {}
        ReadOutcome::Frame | ReadOutcome::Admitted | ReadOutcome::Idle => {
            // Level-trigger re-arm: if input remains (a burst larger
            // than the budget, a stashed verbs frame, sticky EOF),
            // requeue at the back of the wake list.
            let slot = table.slots[idx].as_ref().expect("checked above");
            if slot.rc.conn.transport.poll_ready() {
                slot.wake.wake();
            }
        }
    }
}

/// The read turn: one burst — the registrations adopted, or one woken
/// connection's frames read — if the wake list has anything, the server
/// is not draining, and nobody else is reading. `true` if this thread
/// held the turn; it must then look at the wake list again
/// ([`worker_loop`]).
///
/// The turn is the table lock, taken without waiting. A thread that finds
/// it held leaves the wake list to the holder, which looks at the list
/// after letting go: "release, then look", as on the send side
/// ([`ServerConn::flush`]). The list's own lock orders a push against
/// that look, so a token the look does not see was pushed after the
/// release, and its pusher's notify wakes a thread that can take the
/// turn.
///
/// Counted a reader while at it, so that `drain` waits for it; no burst
/// starts once `draining` is set. The refusals the burst answered are
/// flushed after the turn is let go: a flush can wait on a peer's
/// credits, so the wake list is handed on first if it is not empty.
fn read_burst(inner: &Arc<ServerInner>, answered: &mut Vec<Arc<ServerConn>>) -> bool {
    if inner.ready.is_empty() {
        return false;
    }
    inner.live_readers.fetch_add(1, Ordering::SeqCst);
    let _reading = CountGuard(inner, &inner.live_readers);
    if inner.draining.load(Ordering::SeqCst) || inner.stop.load(Ordering::Acquire) {
        return false;
    }
    let Some(mut table) = inner.table.try_lock() else {
        return false;
    };
    match inner.ready.try_pop() {
        Some(TOKEN_REGISTER) => adopt_registrations(inner, &mut table),
        Some(tok) => service_token(inner, &mut table, tok, answered),
        None => {}
    }
    drop(table);
    if !answered.is_empty() {
        // The flush can wait on a peer's credits: what is left to read
        // meanwhile is another thread's.
        if !inner.ready.is_empty() {
            inner.sched.notify();
        }
        answered.drain(..).for_each(|conn| conn.flush(inner));
    }
    true
}

/// The heart of a worker pass, under a run permit: pop the admission
/// queue at `now` — expired heads are answered without execution, that
/// is the whole point of deadline propagation — and poll the popped call
/// for the first time right here, on this stack. `true` if anything was
/// popped.
fn pop_and_poll(inner: &Arc<ServerInner>, now: u64, worker: usize) -> bool {
    let popped = inner.admission.try_pop(now);
    let worked = !popped.is_empty();
    for (meta, call) in popped.shed {
        shed_call(inner, meta, call);
    }
    if let Some((meta, call)) = popped.run {
        inner
            .sched
            .run_first(worker, now, call_frame(inner, meta, call));
    }
    worked
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
/// wait (the reader only calls it after `poll_ready`).
fn read_one(
    inner: &Arc<ServerInner>,
    rc: &mut ReadConn,
    stats: &ShardStats,
    answered: &mut Vec<Arc<ServerConn>>,
) -> ReadOutcome {
    let conn = &rc.conn;
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
    let header = match rc.dec.read_request_header(&mut reader, rc.client_id) {
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
    // The request's ack lets an earlier response of this client go in
    // the same acquisition.
    match inner.retry_cache.begin_acking(cache_key, header.ack, || {
        RespRoute::new(Arc::clone(conn), &header)
    }) {
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
    let admitted_ns = inner.clock.now_ns();
    let call = RawCall {
        conn: Arc::clone(conn),
        header,
        payload,
        body_offset,
        admitted_ns,
    };
    // The shedding deadline in the server's own clock; a call that
    // carries no budget is never shed.
    let expires_at_ns = header
        .deadline_budget
        .map(|budget| simnet::time::later(admitted_ns, budget));
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
            // quota): reject instead of blocking the reader (which would
            // stall every other connection). The call never
            // executed, so the rejection is retryable. A refused request
            // is let go where it is refused.
            drop(call);
            inner.release_work(1);
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
            inner.release_work(1);
            inner.retry_cache.abort(cache_key);
            return ReadOutcome::Shutdown; // the server is going away
        }
    }
    ReadOutcome::Frame
}

/// One pool thread; all `handlers + 1` run this loop. Each pass, in
/// order: fire due timers; read one burst ([`read_burst`]) — and if the
/// wake list is still not empty after it, announce the calls waiting and
/// read again; otherwise, under a run permit, pop the admission queue and
/// poll the popped call for the first time right here, on this stack
/// ([`pop_and_poll`]) — the call this thread just read, when its burst
/// ended on one — and run one suspended call that is runnable again, from
/// the runtime's one run queue. Admission precedes the task so a
/// yield-spinning call can never starve new arrivals. A pass that found
/// nothing, or no permit, sleeps on the runtime's idle wait until the
/// next timer is due, or without bound: whoever makes a connection
/// readable (its data, its peer's end, a killed node), admits a call it
/// will not run, wakes a task or returns a permit beside waiting work
/// notifies, and `stop` closes the runtime.
fn worker_loop(inner: Arc<ServerInner>, worker: usize) {
    let sched = &inner.sched;
    let mut answered = Vec::new();
    loop {
        // Read before the scan: a push or wake landing after the scan
        // has passed it by moves the epoch and cancels the wait below.
        let epoch = sched.wake_epoch();
        let now = inner.clock.now_ns();
        sched.fire_timers(now);
        let mut worked = read_burst(&inner, &mut answered);
        if worked && !inner.ready.is_empty() {
            // Release, then look: there is more to read, so what this
            // burst admitted is another thread's to run.
            if !inner.admission.is_empty() {
                sched.notify();
            }
            continue;
        }
        if sched.try_permit() {
            worked |= pop_and_poll(&inner, now, worker);
            if let Some(task) = sched.next_task() {
                sched.run(worker, task, inner.clock.now_ns());
                worked = true;
            }
            // This thread looks at the admission queue again itself.
            sched.release_permit(false);
        }
        if worked {
            continue;
        }
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        // Sleep until a notify, or the next timer deadline (a
        // `park_until` must not oversleep).
        let timeout = sched.next_timer_ns().map_or(Duration::MAX, |at| {
            inner.clock.wait_bound(at).max(Duration::from_nanos(1))
        });
        sched.idle_wait(epoch, timeout);
    }
}

/// One admitted call as the runtime polls it: the `RawCall`, the
/// service's stash and the accumulated handler time are this closure's
/// captures. They sit on the pool thread's stack for the first poll and move
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
/// **The parameter's buffer.** A request that arrived as a bulk frame
/// reads its first buffer longer than an eager frame into a spare of the
/// heap tier ([`HeapTier::draw_param`]); the spare's emptied `Arc` stays
/// with the call, and once the result is serialized the buffer the reply
/// gives up ([`Writable::take_buffer`]) goes back into it
/// ([`HeapTier::give_back`]). An echo's parameter is thus read into the
/// buffer the last reply gave back. An eager frame draws nothing, and
/// allocates as it always did.
///
/// The poll that completes serializes once, answers from the thread it
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
    let mut param: Option<ParamDraw> = None;
    move |cx: &mut TaskCx<'_>| {
        let c = call.as_mut().expect("call polled after completion");
        let entry = inner.metrics.entry(c.header.key);
        if cx.polls() == 0 {
            entry.record_phase(Phase::ServerQueue, inner.clock.elapsed_ns(c.admitted_ns));
        }
        let poll_start = inner.clock.now_ns();
        // The call's one draw: its first buffer longer than an eager frame.
        let mut draw = |len: usize| {
            if len <= inner.cfg.rdma_threshold || param.is_some() {
                return None;
            }
            let (claim, buf) = inner.heap.draw_param(len);
            param = Some(claim);
            buf
        };
        let mut reader = c.payload.reader();
        if matches!(c.payload, Payload::InPlace { .. }) {
            reader = reader.with_spares(&mut draw);
        }
        reader.skip(c.body_offset);
        let mut hcx = HandlerCx::new(cx, &mut stash);
        let (protocol, method) = (c.header.protocol(), c.header.method());
        let Some(mut result) = inner
            .registry
            .dispatch(protocol, method, &mut reader, &mut hcx)
        else {
            // Polled again, it reads the same bytes from its own copy.
            if let Some(ib) = &inner.ib {
                ib.evacuate(&mut c.payload);
            }
            handler_ns += inner.clock.elapsed_ns(poll_start);
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
        if let (Some(claim), Ok(value)) = (param.take(), &mut result) {
            if let Some(buf) = value.take_buffer() {
                inner.heap.give_back(claim, buf);
            }
        }
        handler_ns += inner.clock.elapsed_ns(poll_start);
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
