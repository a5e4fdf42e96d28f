//! Process-wide `<protocol, method>` interner.
//!
//! The paper's Figure 3 shows that RPC key locality is near-perfect: a
//! handful of `<protocol, method>` pairs repeat for the lifetime of the
//! process. The engine exploits that by resolving each pair **once** to a
//! [`MethodKey`] — a small dense integer id plus shared `Arc<str>` halves
//! — and threading the key through the call path, frame decode, server
//! dispatch and metrics. After the first resolution every lookup is
//! lock-free (atomic loads into an open-addressed probe table) and
//! allocation-free, so the steady-state hot path never touches a map
//! mutex or `to_owned()` for metadata again.
//!
//! The interner is append-only and never frees: entries are leaked
//! [`MethodKeyInner`] blocks, which is what makes `MethodKey` a `Copy`
//! pointer that is valid for the life of the process. Growth is bounded
//! by the number of *distinct* keys ever seen — by the paper's locality
//! argument, a small constant in any real deployment. Keys beyond the
//! fixed fast-table capacity stay fully functional; they simply resolve
//! through a mutex-guarded overflow map instead of the lock-free probe
//! table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Dense id of one interned `<protocol, method>` pair. Ids are assigned
/// in first-seen order and are stable for the life of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// The shared, immutable payload of one interned key.
pub struct MethodKeyInner {
    id: MethodId,
    protocol: Arc<str>,
    method: Arc<str>,
    /// Lazily-interned sibling key for the server's response-direction
    /// metrics (`<protocol, method#resp>`), so response senders never
    /// `format!` per response.
    resp: OnceLock<MethodKey>,
}

/// A resolved `<protocol, method>` pair: a `Copy` handle to an interned,
/// process-lifetime entry. Comparison is pointer identity — two keys are
/// equal iff they name the same pair.
#[derive(Clone, Copy)]
pub struct MethodKey(&'static MethodKeyInner);

impl MethodKey {
    /// The dense id (index into per-registry entry tables).
    pub fn id(&self) -> MethodId {
        self.0.id
    }

    pub fn protocol(&self) -> &'static str {
        &self.0.protocol
    }

    pub fn method(&self) -> &'static str {
        &self.0.method
    }

    /// Shared-ownership halves, for callers that need owned strings
    /// without copying the bytes.
    pub fn protocol_arc(&self) -> Arc<str> {
        Arc::clone(&self.0.protocol)
    }

    pub fn method_arc(&self) -> Arc<str> {
        Arc::clone(&self.0.method)
    }

    /// The interned `<protocol, method#resp>` sibling used to account the
    /// server's response sends. Interned on first use, then a pointer
    /// copy forever.
    pub fn response_key(&self) -> MethodKey {
        *self
            .0
            .resp
            .get_or_init(|| method_key(&self.0.protocol, &format!("{}#resp", self.0.method)))
    }
}

impl PartialEq for MethodKey {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for MethodKey {}

impl std::hash::Hash for MethodKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.0 as *const MethodKeyInner).hash(state);
    }
}

impl std::fmt::Debug for MethodKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MethodKey({}#{}, id={})",
            self.protocol(),
            self.method(),
            self.id().0
        )
    }
}

impl std::fmt::Display for MethodKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.protocol(), self.method())
    }
}

/// Probe-table slots (power of two). The table stops accepting new
/// entries at [`TABLE_FILL_MAX`] so probes stay short; later keys live in
/// the overflow map.
const TABLE_SLOTS: usize = 4096;
const TABLE_MASK: u64 = (TABLE_SLOTS - 1) as u64;
const TABLE_FILL_MAX: usize = TABLE_SLOTS / 2;

/// Ids below this resolve to their key through a lock-free array.
const FAST_IDS: usize = 4096;

struct Slow {
    /// Every interned key in id order (the id → key source of truth).
    by_id: Vec<&'static MethodKeyInner>,
    /// Keys that did not fit the probe table (or lost a probe race).
    overflow: HashMap<(String, String), &'static MethodKeyInner>,
    /// Entries placed in the probe table so far.
    table_fill: usize,
}

struct Interner {
    /// Open-addressed `<protocol, method>` → key table; linear probing,
    /// slots written once (Release) under the slow lock, read lock-free
    /// (Acquire).
    table: Box<[AtomicPtr<MethodKeyInner>; TABLE_SLOTS]>,
    /// id → key for the first [`FAST_IDS`] ids, written once each.
    fast_ids: Box<[AtomicPtr<MethodKeyInner>; FAST_IDS]>,
    slow: Mutex<Slow>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        table: Box::new(std::array::from_fn(
            |_| AtomicPtr::new(std::ptr::null_mut()),
        )),
        fast_ids: Box::new(std::array::from_fn(
            |_| AtomicPtr::new(std::ptr::null_mut()),
        )),
        slow: Mutex::new(Slow {
            by_id: Vec::new(),
            overflow: HashMap::new(),
            table_fill: 0,
        }),
    })
}

/// FNV-1a over `protocol`, a separator, and `method`. Deterministic and
/// allocation-free.
fn hash_pair(protocol: &str, method: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in protocol.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h = (h ^ 0xff).wrapping_mul(PRIME);
    for &b in method.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// Lock-free lookup in the probe table. Returns the key if `protocol`/
/// `method` was placed there; `None` means "not in the fast table" (the
/// pair may still exist in the overflow map).
fn table_lookup(int: &Interner, protocol: &str, method: &str) -> Option<MethodKey> {
    let mut idx = hash_pair(protocol, method) & TABLE_MASK;
    for _ in 0..TABLE_SLOTS {
        let ptr = int.table[idx as usize].load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        let inner: &'static MethodKeyInner = unsafe { &*ptr };
        if &*inner.protocol == protocol && &*inner.method == method {
            return Some(MethodKey(inner));
        }
        idx = (idx + 1) & TABLE_MASK;
    }
    None
}

/// Resolve a pair to its [`MethodKey`], interning it on first sight.
/// Steady state (the pair was seen before) is lock-free and performs no
/// allocation.
pub fn method_key(protocol: &str, method: &str) -> MethodKey {
    let int = interner();
    if let Some(key) = table_lookup(int, protocol, method) {
        return key;
    }
    let mut slow = int.slow.lock().unwrap_or_else(|e| e.into_inner());
    // Re-check both homes under the lock: another thread may have
    // interned the pair between our lock-free miss and here.
    if let Some(key) = table_lookup(int, protocol, method) {
        return key;
    }
    if let Some(inner) = slow.overflow.get(&(protocol.to_owned(), method.to_owned())) {
        return MethodKey(inner);
    }

    let id = MethodId(slow.by_id.len() as u32);
    let inner: &'static MethodKeyInner = Box::leak(Box::new(MethodKeyInner {
        id,
        protocol: Arc::from(protocol),
        method: Arc::from(method),
        resp: OnceLock::new(),
    }));
    slow.by_id.push(inner);
    if (id.0 as usize) < FAST_IDS {
        int.fast_ids[id.0 as usize]
            .store(inner as *const _ as *mut MethodKeyInner, Ordering::Release);
    }

    // Place in the probe table while it has headroom; otherwise the
    // overflow map owns the pair (lookups for it take the lock — correct,
    // just not fast; by Figure-3 locality this path is never hot).
    let mut placed = false;
    if slow.table_fill < TABLE_FILL_MAX {
        let mut idx = hash_pair(protocol, method) & TABLE_MASK;
        for _ in 0..TABLE_SLOTS {
            let slot = &int.table[idx as usize];
            if slot.load(Ordering::Relaxed).is_null() {
                slot.store(inner as *const _ as *mut MethodKeyInner, Ordering::Release);
                slow.table_fill += 1;
                placed = true;
                break;
            }
            idx = (idx + 1) & TABLE_MASK;
        }
    }
    if !placed {
        slow.overflow
            .insert((protocol.to_owned(), method.to_owned()), inner);
    }
    MethodKey(inner)
}

/// Resolve a pair **only if already interned**; never allocates or
/// interns. The lock is taken only when the fast table misses.
pub fn lookup(protocol: &str, method: &str) -> Option<MethodKey> {
    let int = interner();
    if let Some(key) = table_lookup(int, protocol, method) {
        return Some(key);
    }
    let slow = int.slow.lock().unwrap_or_else(|e| e.into_inner());
    if slow.overflow.is_empty() {
        return None;
    }
    // The tuple key forces owned strings; this path only runs for keys
    // that overflowed the 4096-pair fast table, which steady-state
    // workloads never do.
    slow.overflow
        .get(&(protocol.to_owned(), method.to_owned()))
        .map(|inner| MethodKey(inner))
}

/// The key for a dense id, if one has been interned. Lock-free for ids
/// below the fast-array capacity.
pub fn by_id(id: MethodId) -> Option<MethodKey> {
    let int = interner();
    if (id.0 as usize) < FAST_IDS {
        let ptr = int.fast_ids[id.0 as usize].load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        return Some(MethodKey(unsafe { &*ptr }));
    }
    let slow = int.slow.lock().unwrap_or_else(|e| e.into_inner());
    slow.by_id.get(id.0 as usize).map(|inner| MethodKey(inner))
}

/// Number of distinct pairs interned so far.
pub fn interned_count() -> usize {
    interner()
        .slow
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .by_id
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pair_resolves_to_same_key_and_id() {
        let a = method_key("proto.A", "call");
        let b = method_key("proto.A", "call");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.protocol(), "proto.A");
        assert_eq!(a.method(), "call");
    }

    #[test]
    fn distinct_pairs_get_distinct_ids() {
        let a = method_key("proto.B", "x");
        let b = method_key("proto.B", "y");
        let c = method_key("proto.C", "x");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.id(), b.id());
        assert_ne!(b.id(), c.id());
    }

    #[test]
    fn lookup_finds_only_interned_pairs() {
        let key = method_key("proto.L", "present");
        assert_eq!(lookup("proto.L", "present"), Some(key));
        assert!(lookup("proto.L", "never-interned-q8x").is_none());
    }

    #[test]
    fn by_id_round_trips() {
        let key = method_key("proto.ID", "rt");
        let found = by_id(key.id()).expect("id resolves");
        assert_eq!(found, key);
        assert!(by_id(MethodId(u32::MAX)).is_none());
    }

    #[test]
    fn response_key_is_interned_sibling() {
        let key = method_key("proto.R", "ping");
        let resp = key.response_key();
        assert_eq!(resp.protocol(), "proto.R");
        assert_eq!(resp.method(), "ping#resp");
        // Stable: the same pointer every time.
        assert_eq!(key.response_key(), resp);
        // And it is a real interned key.
        assert_eq!(lookup("proto.R", "ping#resp"), Some(resp));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let keys: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..64 {
                        got.push(method_key("proto.T", &format!("m{}", i % 16)));
                    }
                    let _ = t;
                    got
                })
            })
            .collect();
        let all: Vec<Vec<MethodKey>> = keys.into_iter().map(|h| h.join().unwrap()).collect();
        for w in &all[1..] {
            assert_eq!(w.len(), all[0].len());
            for (a, b) in w.iter().zip(all[0].iter()) {
                assert_eq!(a, b, "every thread resolves a pair to one identity");
            }
        }
    }
}
