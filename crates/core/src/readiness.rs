//! The reader shards' epoll-style readiness plane.
//!
//! Up to PR 7 a reader shard *swept* its connection list, calling
//! [`crate::transport::Conn::poll_ready`] on every connection per
//! iteration — 50k mostly-idle connections cost 50k probes per sweep.
//! This module inverts the dependency, the way `epoll` inverts `select`:
//! each connection owns a [`WakeState`] whose hook the transport fires
//! when input becomes observable (bytes arrive, EOF hits, a verbs recv
//! completes, a local close), and the shard blocks on its [`ReadyQueue`]
//! of *woken* connections. Idle connections are never visited, so the
//! shard's steady-state cost is proportional to traffic, not population.
//!
//! ## The wake-list contract
//!
//! * **Level-triggered truth, edge-triggered delivery.** A wake is only
//!   a hint; the shard re-checks `poll_ready` after every pop, so
//!   duplicate, coalesced, or spurious wakes are harmless. Conversely,
//!   the shard re-arms (re-enqueues) any connection that still has input
//!   after a bounded read burst, so a single edge can never strand
//!   residual bytes — the exact level-trigger re-arm discipline of an
//!   epoll loop reading less than the full buffer.
//! * **No lost wakeups.** [`WakeState::wake`] enqueues unless the token
//!   is already queued (one dedup flag flip per edge); the shard clears
//!   the flag *before* it starts reading ([`WakeState::begin_poll`]), so
//!   an edge racing the read re-enqueues instead of vanishing. At
//!   registration the shard arms the hook first and then probes
//!   `poll_ready` once, catching input that arrived pre-arm.
//! * **Stale tokens are inert.** Tokens are generation-stamped
//!   ([`token`]): slot index in the low half, the slot's reuse
//!   generation in the high half. When a connection is torn down its
//!   slot's generation is bumped, so a token queued by a dying
//!   connection's last gasp (its own `close()` fires the hook) can never
//!   index a recycled slot.
//! * **Wakes are charge-free and non-blocking.** Hooks run on the
//!   *producer's* thread (the peer's writer, `simnet`'s completion
//!   delivery); they flip an atomic and push onto a mutex-guarded queue,
//!   never touch the modeled-time ledger, and never call back into the
//!   transport.
//!
//! * **One owner, who may be away; an away queue is taken over.** Each
//!   queue is popped by the one reader shard that owns it. Before that
//!   shard does something that may block — runs a call itself, sends
//!   (see [`crate::server`]) — it marks the queue *away*
//!   ([`ReadyQueue::leave`]; whether to leave with tokens still queued is
//!   the owner's policy, not this protocol's: a leave that does fires the
//!   hook for them). From then on every push, wake token or
//!   [`TOKEN_REGISTER`], also fires the queue's takeover hook (the
//!   server's: wake one idle handler worker), and any thread may pop the
//!   queue from the front with [`ReadyQueue::take_over`] and service the
//!   token in the owner's stead. The flag changes and is read under the
//!   queue's lock, so a push lands either before the owner left (the
//!   leave announces it) or after (the push does): never in between,
//!   unannounced by both. [`ReadyQueue::come_back`] ends it;
//!   tokens nobody took are still queued for the owner. Everything above
//!   holds whoever pops: wakes stay hints, tokens stay
//!   generation-stamped.
//!
//! Shutdown is event-shaped too: [`ReadyQueue::close`] wakes every
//! blocked pop immediately, so `Server::drain` does not wait out a poll
//! timeout.
//!
//! The types are public so the `connections` bench figure and the
//! readiness/sweep equivalence tests drive the *real* structures rather
//! than a model of them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::metrics::ShardStats;

/// Pseudo-token the accept path pushes after handing a new connection to
/// a shard's registration channel: "wake up and adopt". Never counted in
/// queue-depth stats and never generation-checked.
pub const TOKEN_REGISTER: u64 = u64::MAX;

/// Compose a wake token from a shard-local slot index and that slot's
/// reuse generation.
pub fn token(slot: usize, gen: u32) -> u64 {
    (slot as u64) | (u64::from(gen) << 32)
}

/// The slot index half of a token.
pub fn token_slot(tok: u64) -> usize {
    (tok & 0xFFFF_FFFF) as usize
}

/// The generation half of a token.
pub fn token_gen(tok: u64) -> u32 {
    (tok >> 32) as u32
}

/// Result of one [`ReadyQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// A wake token (or [`TOKEN_REGISTER`]).
    Token(u64),
    /// Nothing arrived within the timeout; the caller re-checks its
    /// shutdown flags and pops again.
    TimedOut,
    /// The queue is closed and empty: the shard should exit. Queued
    /// tokens are always drained before this is reported.
    Closed,
}

struct QueueState {
    queue: VecDeque<u64>,
    closed: bool,
}

/// What a push onto an *away* queue calls, on the pusher's thread: the
/// server wakes an idle handler worker with it. Same rules as a wake
/// hook — charge-free, non-blocking.
pub type TakeoverHook = Arc<dyn Fn() + Send + Sync>;

/// One reader shard's wake list: an MPSC queue of conn tokens, pushed by
/// transport hooks (any thread) and popped by the owning shard — or, while
/// the owner is away, by whoever takes over.
pub struct ReadyQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// The owner is running a call and not popping. Written only under
    /// `state`'s lock, so a push reads it exactly; the lock-free read in
    /// [`ReadyQueue::is_away`] is a hint.
    away: AtomicBool,
    takeover: Option<TakeoverHook>,
    /// When attached (the server's per-shard stats), real tokens feed the
    /// shard's queue-depth gauge and high-water mark.
    stats: Option<Arc<ShardStats>>,
}

impl ReadyQueue {
    pub fn new(stats: Option<Arc<ShardStats>>) -> ReadyQueue {
        ReadyQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            away: AtomicBool::new(false),
            takeover: None,
            stats,
        }
    }

    /// Attach the hook a push onto this queue fires while its owner is
    /// away. A queue without one can never be left.
    pub fn with_takeover_hook(mut self, hook: TakeoverHook) -> ReadyQueue {
        self.takeover = Some(hook);
        self
    }

    /// Enqueue a token and wake one blocked pop — or, if the owner is
    /// away, whoever the takeover hook wakes. Non-blocking, no modeled
    /// charge — safe to call from a peer's writer thread.
    pub fn push(&self, tok: u64) {
        let away = {
            let mut st = self.state.lock();
            st.queue.push_back(tok);
            self.away.load(Ordering::Relaxed)
        };
        if tok != TOKEN_REGISTER {
            if let Some(stats) = &self.stats {
                stats.enqueued();
            }
        }
        match &self.takeover {
            Some(hook) if away => hook(),
            _ => {
                self.cv.notify_one();
            }
        }
    }

    /// Block for the next token, up to `timeout`. Tokens still queued at
    /// close time are drained before [`Pop::Closed`] is reported.
    pub fn pop(&self, timeout: Duration) -> Pop {
        let mut st = self.state.lock();
        loop {
            if let Some(tok) = st.queue.pop_front() {
                drop(st);
                self.count_dequeue(tok);
                return Pop::Token(tok);
            }
            if st.closed {
                return Pop::Closed;
            }
            if self.cv.wait_for(&mut st, timeout).timed_out() {
                // One last look: a push may have slipped in as the wait
                // expired.
                if let Some(tok) = st.queue.pop_front() {
                    drop(st);
                    self.count_dequeue(tok);
                    return Pop::Token(tok);
                }
                return if st.closed {
                    Pop::Closed
                } else {
                    Pop::TimedOut
                };
            }
        }
    }

    /// Non-blocking pop (the virtual-time bench harness's scheduler).
    pub fn try_pop(&self) -> Option<u64> {
        let tok = self.state.lock().queue.pop_front();
        if let Some(tok) = tok {
            self.count_dequeue(tok);
        }
        tok
    }

    /// The owner leaves — to run a call, to send: mark the queue away,
    /// *unless* it is closed or has no takeover hook. Tokens still queued
    /// are announced through the hook, as if pushed just now. On `true`
    /// the owner must not pop until it has called
    /// [`ReadyQueue::come_back`].
    pub fn leave(&self) -> bool {
        let Some(hook) = &self.takeover else {
            return false;
        };
        let left_behind = {
            let st = self.state.lock();
            if st.closed {
                return false;
            }
            self.away.store(true, Ordering::Relaxed);
            !st.queue.is_empty()
        };
        if left_behind {
            hook();
        }
        true
    }

    /// The owner is back and pops again; tokens pushed meanwhile that
    /// nobody took over are still queued, in order.
    pub fn come_back(&self) {
        let _st = self.state.lock();
        self.away.store(false, Ordering::Relaxed);
    }

    /// Whether the owner is away — a lock-free hint that lets a scanning
    /// worker skip the shards that are being read.
    pub fn is_away(&self) -> bool {
        self.away.load(Ordering::Relaxed)
    }

    /// Pop the oldest token in the owner's stead: `None` unless the owner
    /// is away. [`TOKEN_REGISTER`] is handed out like any other — the
    /// taker adopts into the owner's table.
    pub fn take_over(&self) -> Option<u64> {
        let tok = {
            let mut st = self.state.lock();
            if !self.away.load(Ordering::Relaxed) {
                return None;
            }
            st.queue.pop_front()
        }?;
        self.count_dequeue(tok);
        Some(tok)
    }

    /// Close the queue: every blocked and future pop drains what is
    /// queued and then reports [`Pop::Closed`]. This is how `drain` and
    /// `stop` wake shards promptly instead of waiting out a timeout.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }

    /// Tokens currently queued (register pseudo-tokens included).
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn count_dequeue(&self, tok: u64) {
        if tok != TOKEN_REGISTER {
            if let Some(stats) = &self.stats {
                stats.dequeued();
            }
        }
    }
}

impl std::fmt::Debug for ReadyQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "ReadyQueue(len={}, closed={})",
            st.queue.len(),
            st.closed
        )
    }
}

/// Per-connection wake bookkeeping: the connection's token plus the
/// dedup flag that collapses edge storms into at most one queued token.
pub struct WakeState {
    tok: u64,
    /// True while the token sits in the queue (or the shard is between
    /// popping it and `begin_poll`). Edges arriving in that window are
    /// represented by the already-queued token.
    queued: AtomicBool,
    queue: Arc<ReadyQueue>,
}

impl WakeState {
    pub fn new(tok: u64, queue: Arc<ReadyQueue>) -> WakeState {
        WakeState {
            tok,
            queued: AtomicBool::new(false),
            queue,
        }
    }

    /// The readiness edge: enqueue this connection's token unless it is
    /// already queued. Called from transport hooks (any thread) and from
    /// the shard's own level-trigger re-arm.
    pub fn wake(&self) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.queue.push(self.tok);
        }
    }

    /// Called by the shard after popping this token, *before* it starts
    /// reading: clears the dedup flag so an edge that fires mid-read
    /// re-enqueues (the epoll discipline — consume the event before
    /// consuming the data).
    pub fn begin_poll(&self) {
        self.queued.store(false, Ordering::Release);
    }

    pub fn token(&self) -> u64 {
        self.tok
    }
}

impl std::fmt::Debug for WakeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WakeState(token={:#x}, queued={})",
            self.tok,
            self.queued.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn tokens_roundtrip_slot_and_generation() {
        let t = token(12345, 7);
        assert_eq!(token_slot(t), 12345);
        assert_eq!(token_gen(t), 7);
        assert_ne!(token(3, 0), token(3, 1), "generations distinguish reuse");
    }

    #[test]
    fn wake_dedups_until_begin_poll() {
        let q = Arc::new(ReadyQueue::new(None));
        let ws = WakeState::new(token(4, 0), Arc::clone(&q));
        ws.wake();
        ws.wake();
        ws.wake();
        assert_eq!(q.len(), 1, "an edge storm queues one token");
        assert_eq!(q.try_pop(), Some(token(4, 0)));
        // Not re-armed yet: further wakes are still absorbed.
        ws.wake();
        assert_eq!(q.len(), 0);
        ws.begin_poll();
        ws.wake();
        assert_eq!(q.try_pop(), Some(token(4, 0)), "re-armed wake queues");
    }

    #[test]
    fn pop_blocks_until_push_and_close_wakes_promptly() {
        let q = Arc::new(ReadyQueue::new(None));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop(Duration::from_secs(30)));
        thread::sleep(Duration::from_millis(20));
        q.push(9);
        assert_eq!(h.join().unwrap(), Pop::Token(9));

        // Close wakes a blocked pop without waiting out its timeout.
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            let start = Instant::now();
            let r = q2.pop(Duration::from_secs(30));
            (r, start.elapsed())
        });
        thread::sleep(Duration::from_millis(20));
        q.close();
        let (r, waited) = h.join().unwrap();
        assert_eq!(r, Pop::Closed);
        assert!(
            waited < Duration::from_secs(5),
            "close must not wait out the timeout"
        );
    }

    #[test]
    fn close_drains_queued_tokens_first() {
        let q = ReadyQueue::new(None);
        q.push(1);
        q.push(2);
        q.close();
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Token(1));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Token(2));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Closed);
    }

    #[test]
    fn timeout_reports_timed_out() {
        let q = ReadyQueue::new(None);
        assert_eq!(q.pop(Duration::from_millis(5)), Pop::TimedOut);
    }

    fn away_capable(stats: Option<Arc<ShardStats>>) -> (ReadyQueue, Arc<AtomicUsize>) {
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = Arc::clone(&fired);
        let q = ReadyQueue::new(stats).with_takeover_hook(Arc::new(move || {
            hook.fetch_add(1, Ordering::Relaxed);
        }));
        (q, fired)
    }

    #[test]
    fn an_owner_leaves_only_an_open_hooked_queue_and_announces_what_it_leaves() {
        assert!(!ReadyQueue::new(None).leave(), "nobody could take over");
        let (q, fired) = away_capable(None);
        assert!(q.leave());
        assert!(q.is_away());
        assert_eq!(fired.load(Ordering::Relaxed), 0, "nothing left behind");
        q.come_back();
        assert!(!q.is_away());
        q.push(token(1, 0));
        assert!(q.leave());
        assert_eq!(fired.load(Ordering::Relaxed), 1, "the queued token");
        assert_eq!(q.take_over(), Some(token(1, 0)));
        q.come_back();
        q.close();
        assert!(!q.leave(), "closed");
    }

    #[test]
    fn a_push_onto_an_away_queue_fires_the_hook_and_is_taken_from_the_front() {
        let (q, fired) = away_capable(None);
        q.push(token(1, 0));
        assert_eq!(fired.load(Ordering::Relaxed), 0, "owner present");
        assert_eq!(q.take_over(), None, "nobody takes from a present owner");
        assert_eq!(q.try_pop(), Some(token(1, 0)));

        assert!(q.leave());
        q.push(token(2, 0));
        q.push(TOKEN_REGISTER);
        q.push(token(3, 0));
        assert_eq!(fired.load(Ordering::Relaxed), 3, "one hook call per push");
        // Oldest first, registrations included.
        assert_eq!(q.take_over(), Some(token(2, 0)));
        assert_eq!(q.take_over(), Some(TOKEN_REGISTER));
        q.come_back();
        assert_eq!(q.take_over(), None);
        assert_eq!(q.try_pop(), Some(token(3, 0)), "the rest is the owner's");
        q.push(token(4, 0));
        assert_eq!(fired.load(Ordering::Relaxed), 3, "owner present again");
    }

    #[test]
    fn takeovers_count_against_depth_stats() {
        let stats = Arc::new(ShardStats::default());
        let (q, _) = away_capable(Some(Arc::clone(&stats)));
        assert!(q.leave());
        q.push(token(1, 0));
        q.push(token(2, 0));
        assert_eq!(q.take_over(), Some(token(1, 0)));
        assert_eq!(q.take_over(), Some(token(2, 0)));
        // Depth gauge returns to zero: takeovers are proper dequeues.
        assert_eq!(q.len(), 0);
    }
}
