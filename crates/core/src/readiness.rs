//! The server's epoll-style readiness plane.
//!
//! Up to PR 7 a reader shard *swept* its connection list, calling
//! [`crate::transport::Conn::poll_ready`] on every connection per
//! iteration — 50k mostly-idle connections cost 50k probes per sweep.
//! This module inverts the dependency, the way `epoll` inverts `select`:
//! each connection owns a [`WakeState`] whose hook the transport fires
//! when input becomes observable (bytes arrive, EOF hits, a verbs recv
//! completes, a local close), and the server reads only the connections
//! on its [`ReadyQueue`] of *woken* ones. Idle connections are never
//! visited, so the read side's steady-state cost is proportional to
//! traffic, not population.
//!
//! ## The wake-list contract
//!
//! * **Level-triggered truth, edge-triggered delivery.** A wake is only
//!   a hint; the reader re-checks `poll_ready` after every pop, so
//!   duplicate, coalesced, or spurious wakes are harmless. Conversely,
//!   the reader re-arms (re-enqueues) any connection that still has input
//!   after a bounded read burst, so a single edge can never strand
//!   residual bytes — the exact level-trigger re-arm discipline of an
//!   epoll loop reading less than the full buffer.
//! * **No lost wakeups.** [`WakeState::wake`] enqueues unless the token
//!   is already queued (one dedup flag flip per edge); the reader clears
//!   the flag *before* it starts reading ([`WakeState::begin_poll`]), so
//!   an edge racing the read re-enqueues instead of vanishing. At
//!   registration the reader arms the hook first and then probes
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
//! * **Whoever reads pops; the queue never blocks.** One wake list
//!   serves the whole server, and any pool thread that takes the read
//!   turn pops it ([`ReadyQueue::try_pop`]). Nobody sleeps on the queue
//!   itself: [`WakeState::wake`] reports whether the edge queued a token,
//!   and the server's readiness hook then wakes one idle pool thread
//!   (see [`crate::server`]).
//!
//! The types are public so the `connections` bench figure and the
//! readiness/sweep equivalence tests drive the *real* structures rather
//! than a model of them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::ShardStats;

/// Pseudo-token the accept path pushes after handing a new connection to
/// the server's registration channel: "adopt". Never counted in
/// queue-depth stats and never generation-checked.
pub const TOKEN_REGISTER: u64 = u64::MAX;

/// Compose a wake token from a connection-table slot index and that
/// slot's reuse generation.
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

/// The server's wake list: an MPMC queue of conn tokens, pushed by
/// transport hooks (any thread) and popped by whichever thread holds the
/// read turn.
pub struct ReadyQueue {
    queue: Mutex<VecDeque<u64>>,
    /// When attached (the server's reader row), real tokens feed the
    /// queue-depth gauge and high-water mark.
    stats: Option<Arc<ShardStats>>,
}

impl ReadyQueue {
    pub fn new(stats: Option<Arc<ShardStats>>) -> ReadyQueue {
        ReadyQueue {
            queue: Mutex::new(VecDeque::new()),
            stats,
        }
    }

    /// Enqueue a token. Non-blocking, no modeled charge, wakes nobody —
    /// safe to call from a peer's writer thread.
    pub fn push(&self, tok: u64) {
        if tok != TOKEN_REGISTER {
            if let Some(stats) = &self.stats {
                stats.enqueued();
            }
        }
        self.queue.lock().push_back(tok);
    }

    /// Pop the oldest token, if any.
    pub fn try_pop(&self) -> Option<u64> {
        let tok = self.queue.lock().pop_front();
        if let Some(tok) = tok {
            if tok != TOKEN_REGISTER {
                if let Some(stats) = &self.stats {
                    stats.dequeued();
                }
            }
        }
        tok
    }

    /// Tokens currently queued (register pseudo-tokens included).
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ReadyQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReadyQueue(len={})", self.len())
    }
}

/// Per-connection wake bookkeeping: the connection's token plus the
/// dedup flag that collapses edge storms into at most one queued token.
pub struct WakeState {
    tok: u64,
    /// True while the token sits in the queue (or the reader is between
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
    /// already queued; `true` if this edge queued it. Called from
    /// transport hooks (any thread) and from the reader's own
    /// level-trigger re-arm.
    pub fn wake(&self) -> bool {
        let queue = !self.queued.swap(true, Ordering::AcqRel);
        if queue {
            self.queue.push(self.tok);
        }
        queue
    }

    /// Called by the reader after popping this token, *before* it starts
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
        assert!(ws.wake(), "the first edge queues");
        assert!(!ws.wake());
        assert!(!ws.wake());
        assert_eq!(q.len(), 1, "an edge storm queues one token");
        assert_eq!(q.try_pop(), Some(token(4, 0)));
        // Not re-armed yet: further wakes are still absorbed.
        assert!(!ws.wake());
        assert_eq!(q.len(), 0);
        ws.begin_poll();
        assert!(ws.wake());
        assert_eq!(q.try_pop(), Some(token(4, 0)), "re-armed wake queues");
    }

    #[test]
    fn real_tokens_feed_the_depth_gauge_and_registrations_do_not() {
        let metrics = crate::metrics::MetricsRegistry::new(false);
        let stats = metrics.register_shard(crate::metrics::ShardRole::Reader, 0);
        let depth = || metrics.shard_snapshot()[0].queue_depth;
        let q = ReadyQueue::new(Some(stats));
        q.push(token(1, 0));
        q.push(TOKEN_REGISTER);
        q.push(token(2, 0));
        assert_eq!(depth(), 2);
        assert_eq!(q.try_pop(), Some(token(1, 0)));
        assert_eq!(q.try_pop(), Some(TOKEN_REGISTER));
        assert_eq!(q.try_pop(), Some(token(2, 0)));
        assert_eq!((q.try_pop(), depth()), (None, 0));
    }
}
