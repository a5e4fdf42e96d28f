//! The shadow pool: level one of the paper's buffer management.
//!
//! The shadow pool sits in the managed layer, where the call's metadata is
//! cheap to inspect. It indexes a *latest appropriate size class* per
//! `<protocol, method>` and serves acquisitions at that class. The output
//! stream reports the final serialized size back via [`ShadowPool::record`];
//! the record grows when a call outgrew its buffer and shrinks when the
//! buffer was over-provisioned — so, thanks to message size locality, the
//! *next* call of the same kind almost always gets a right-sized buffer on
//! the first try.
//!
//! Growth applies immediately (an undersized prediction costs a doubling
//! re-acquire *on the call path*, the exact cost Section III-C removes),
//! but shrinking waits for [`SHRINK_HYSTERESIS`] consecutive smaller
//! observations: an over-provisioned buffer only wastes capacity, and
//! shrinking on a single small call would make a workload that alternates
//! between two sizes bounce between classes forever — every call a
//! mispredict in one direction or the other. With hysteresis the record
//! parks at the larger class and stays there.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::classes::class_for;
use crate::mem::PoolMem;
use crate::native::{NativePool, PooledBuf};

/// Counters describing history effectiveness (ablation A1 reads these).
#[derive(Debug, Default)]
pub struct ShadowStats {
    /// Acquisitions whose recorded class matched the final size class.
    pub history_hits: AtomicU64,
    /// Acquisitions where the call outgrew the predicted buffer.
    pub grows: AtomicU64,
    /// Records shrunk because the buffer was over-provisioned.
    pub shrinks: AtomicU64,
    /// Acquisitions with no history (first call of a kind).
    pub cold: AtomicU64,
}

impl ShadowStats {
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.history_hits.load(Ordering::Relaxed),
            self.grows.load(Ordering::Relaxed),
            self.shrinks.load(Ordering::Relaxed),
            self.cold.load(Ordering::Relaxed),
        )
    }
}

/// Consecutive over-provisioned observations before the history shrinks.
pub const SHRINK_HYSTERESIS: u32 = 2;

/// One `<protocol, method>` history slot.
struct HistoryEntry {
    /// The class acquisitions of this kind are served at.
    class: usize,
    /// Consecutive records that landed below `class`. Reset by any record
    /// at (or grown past) `class`; shrink fires when it reaches
    /// [`SHRINK_HYSTERESIS`].
    overshoots: u32,
}

struct ShadowInner<M: PoolMem> {
    native: NativePool<M>,
    /// protocol -> method -> recorded size-class history.
    history: Mutex<HashMap<String, HashMap<String, HistoryEntry>>>,
    stats: ShadowStats,
}

/// History-based front of the two-level pool.
pub struct ShadowPool<M: PoolMem> {
    inner: Arc<ShadowInner<M>>,
}

impl<M: PoolMem> Clone for ShadowPool<M> {
    fn clone(&self) -> Self {
        ShadowPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: PoolMem> ShadowPool<M> {
    /// Wrap a native pool. A kind that has never been [`record`]ed is
    /// served at the smallest class.
    ///
    /// [`record`]: ShadowPool::record
    pub fn new(native: NativePool<M>) -> ShadowPool<M> {
        ShadowPool {
            inner: Arc::new(ShadowInner {
                native,
                history: Mutex::new(HashMap::new()),
                stats: ShadowStats::default(),
            }),
        }
    }

    /// The native pool underneath.
    pub fn native(&self) -> &NativePool<M> {
        &self.inner.native
    }

    /// Acquire a buffer for a call of kind `<protocol, method>` at the
    /// historically recorded class (smallest class when cold).
    pub fn acquire(&self, protocol: &str, method: &str) -> PooledBuf<M> {
        let class = self
            .inner
            .history
            .lock()
            .get(protocol)
            .and_then(|methods| methods.get(method))
            .map(|entry| entry.class);
        let class = match class {
            Some(c) => c,
            None => {
                self.inner.stats.cold.fetch_add(1, Ordering::Relaxed);
                0
            }
        };
        self.inner.native.acquire_class(class)
    }

    /// Acquire ignoring history at an explicit size (server receive path,
    /// where the frame length is already known from the header).
    pub fn acquire_size(&self, size: usize) -> PooledBuf<M> {
        self.inner.native.acquire_size(size)
    }

    /// Exchange `buf` for one of double the capacity, preserving the first
    /// `used` bytes — the "re-get by doubling" step of Section III-C.
    pub fn grow(&self, buf: PooledBuf<M>, used: usize) -> PooledBuf<M> {
        self.inner.stats.grows.fetch_add(1, Ordering::Relaxed);
        let ladder = self.inner.native.classes();
        let mut bigger = match buf.class() {
            Some(idx) if idx + 1 < ladder.count => self.inner.native.acquire_class(idx + 1),
            _ => self.inner.native.acquire_size(buf.capacity() * 2),
        };
        debug_assert!(bigger.capacity() >= used);
        buf.mem().with(|src| bigger.mem_mut().put(0, &src[..used]));
        bigger
    }

    /// Report the final serialized size of a call so the history converges:
    /// grow immediately on undershoot, shrink only after
    /// [`SHRINK_HYSTERESIS`] consecutive overshoots (see the module doc).
    pub fn record(&self, protocol: &str, method: &str, used: usize) {
        let ladder = self.inner.native.classes();
        let class = class_for(used).min(ladder.count - 1);
        let mut history = self.inner.history.lock();
        // Steady state is a double lookup hit: `entry(to_owned())` would
        // clone the protocol key on every record of every call.
        if !history.contains_key(protocol) {
            history.insert(protocol.to_owned(), HashMap::new());
        }
        let methods = history.get_mut(protocol).expect("just ensured");
        match methods.get_mut(method) {
            Some(entry) => match class.cmp(&entry.class) {
                std::cmp::Ordering::Equal => {
                    self.inner
                        .stats
                        .history_hits
                        .fetch_add(1, Ordering::Relaxed);
                    entry.overshoots = 0;
                }
                std::cmp::Ordering::Greater => {
                    entry.class = class;
                    entry.overshoots = 0;
                }
                std::cmp::Ordering::Less => {
                    entry.overshoots += 1;
                    if entry.overshoots >= SHRINK_HYSTERESIS {
                        entry.class = class;
                        entry.overshoots = 0;
                        self.inner.stats.shrinks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            },
            None => {
                methods.insert(
                    method.to_owned(),
                    HistoryEntry {
                        class,
                        overshoots: 0,
                    },
                );
            }
        }
    }

    /// The class currently recorded for a call kind.
    pub fn recorded_class(&self, protocol: &str, method: &str) -> Option<usize> {
        self.inner
            .history
            .lock()
            .get(protocol)
            .and_then(|m| m.get(method))
            .map(|entry| entry.class)
    }

    /// History effectiveness counters.
    pub fn stats(&self) -> &ShadowStats {
        &self.inner.stats
    }
}

impl<M: PoolMem> std::fmt::Debug for ShadowPool<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowPool")
            .field("protocols", &self.inner.history.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::SizeClasses;
    use crate::mem::HeapMem;

    fn pool() -> ShadowPool<HeapMem> {
        ShadowPool::new(NativePool::new(SizeClasses::up_to(8192), HeapMem::new))
    }

    #[test]
    fn cold_acquire_is_smallest_class() {
        let p = pool();
        p.record("DatanodeProtocol", "sendHeartbeat", 5000); // another kind
        for _ in 0..2 {
            let b = p.acquire("DatanodeProtocol", "blockReceived");
            assert_eq!(b.class(), Some(0), "an unrecorded kind stays at class 0");
        }
        let (_, _, _, cold) = p.stats().snapshot();
        assert_eq!(cold, 2);
    }

    #[test]
    fn history_converges_after_one_call() {
        let p = pool();
        // blockReceived calls are ~430 bytes (paper §III-C) -> class 2 (512B).
        let b = p.acquire("DatanodeProtocol", "blockReceived");
        assert_eq!(b.capacity(), 128);
        drop(b);
        p.record("DatanodeProtocol", "blockReceived", 430);
        let b = p.acquire("DatanodeProtocol", "blockReceived");
        assert_eq!(b.capacity(), 512, "history must predict the 512B class");
        drop(b);
        p.record("DatanodeProtocol", "blockReceived", 425);
        let (hits, _, _, _) = p.stats().snapshot();
        assert_eq!(hits, 1, "same class again counts as a history hit");
    }

    #[test]
    fn history_shrinks_only_after_consecutive_overshoots() {
        let p = pool();
        p.record("p", "m", 4000); // class 5 (4096)
        assert_eq!(p.recorded_class("p", "m"), Some(5));
        p.record("p", "m", 100); // class 0: first overshoot — hold
        assert_eq!(p.recorded_class("p", "m"), Some(5));
        let (_, _, shrinks, _) = p.stats().snapshot();
        assert_eq!(shrinks, 0, "one small call must not shrink the record");
        p.record("p", "m", 100); // second consecutive — now shrink
        assert_eq!(p.recorded_class("p", "m"), Some(0));
        let (_, _, shrinks, _) = p.stats().snapshot();
        assert_eq!(shrinks, 1);
    }

    #[test]
    fn intervening_hit_resets_the_shrink_countdown() {
        let p = pool();
        p.record("p", "m", 4000); // class 5
        p.record("p", "m", 100); // overshoot 1
        p.record("p", "m", 4000); // hit: countdown resets
        p.record("p", "m", 100); // overshoot 1 again, not 2
        assert_eq!(p.recorded_class("p", "m"), Some(5));
        let (_, _, shrinks, _) = p.stats().snapshot();
        assert_eq!(shrinks, 0);
    }

    #[test]
    fn alternating_sizes_park_at_the_larger_class() {
        let p = pool();
        for _ in 0..20 {
            p.record("p", "m", 300); // class 2 (512)
            p.record("p", "m", 3000); // class 5 (4096)
        }
        assert_eq!(
            p.recorded_class("p", "m"),
            Some(5),
            "strict alternation must not oscillate"
        );
        let (_, _, shrinks, _) = p.stats().snapshot();
        assert_eq!(shrinks, 0, "no shrink ever fires under alternation");
    }

    #[test]
    fn grow_preserves_content_and_doubles() {
        let p = pool();
        let mut b = p.acquire("p", "m");
        b.mem_mut().put(0, b"keep me around");
        let b2 = p.grow(b, 14);
        assert_eq!(b2.capacity(), 256);
        let mut out = [0u8; 14];
        b2.mem().get(0, &mut out);
        assert_eq!(&out, b"keep me around");
        let (_, grows, _, _) = p.stats().snapshot();
        assert_eq!(grows, 1);
    }

    #[test]
    fn grow_beyond_ladder_goes_oversize() {
        let p = pool();
        let b = p.acquire_size(8192);
        assert_eq!(b.class(), Some(6));
        let b2 = p.grow(b, 10);
        assert_eq!(b2.class(), None, "past the ladder: one-off allocation");
        assert!(b2.capacity() >= 16384);
    }

    #[test]
    fn distinct_methods_have_distinct_history() {
        let p = pool();
        p.record("TaskUmbilicalProtocol", "ping", 100);
        p.record("TaskUmbilicalProtocol", "statusUpdate", 2000);
        assert_eq!(p.recorded_class("TaskUmbilicalProtocol", "ping"), Some(0));
        assert_eq!(
            p.recorded_class("TaskUmbilicalProtocol", "statusUpdate"),
            Some(4)
        );
        assert_eq!(p.recorded_class("OtherProtocol", "ping"), None);
    }
}
