//! The fabric: a registry of simulated nodes, their NIC link clocks, bound
//! listeners, and verbs objects (queue pairs, memory regions).
//!
//! A [`Fabric`] is cheap to clone (it is an `Arc` handle); every daemon of a
//! simulated cluster holds one. Nodes are purely logical — creating one
//! allocates a pair of link clocks that model its NIC's egress and ingress
//! bandwidth, so that concurrent flows through the same node contend the way
//! they would on real hardware.

use std::any::{Any, TypeId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use parking_lot::{Mutex, RwLock};

use crate::faults::{next_unit, FaultSpec};
use crate::model::NetworkModel;
use crate::stream::{SimStream, StreamInner};
use crate::time::Clock;
use crate::verbs::{MrInner, QpSlot};

/// An epoll-style readiness hook, shared between the producer and the
/// consumer of one delivery channel (a stream direction, a queue pair's
/// completion inbox). The consumer registers interest with [`WakeSlot::set`];
/// the producer calls [`WakeSlot::fire`] after making new input observable
/// (bytes sent, EOF, a completion posted). Firing is **charge-free**: it
/// never touches the modeled-time ledger, so readiness notification costs
/// nothing in simulated time — exactly the property that makes an idle
/// connection free for an event-driven receiver.
///
/// The hook runs on the producer's thread, outside the slot's own lock, so
/// it must be cheap and must not call back into the transport (the intended
/// use is "push a token onto a ready queue and notify").
/// The registered readiness callback: cheap, `Send + Sync`, shared with
/// every producer that can make the endpoint readable.
type WakeHook = Arc<dyn Fn() + Send + Sync>;

#[derive(Clone, Default)]
pub struct WakeSlot {
    hook: Arc<Mutex<Option<WakeHook>>>,
}

impl WakeSlot {
    pub fn new() -> Self {
        WakeSlot::default()
    }

    /// Register (or replace) the readiness hook.
    pub fn set(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.hook.lock() = Some(hook);
    }

    /// Drop the registered hook, if any.
    pub fn clear(&self) {
        self.hook.lock().take();
    }

    /// Invoke the registered hook, if any. The hook `Arc` is cloned out of
    /// the lock and called outside it, so a hook may itself call
    /// [`WakeSlot::set`]/[`WakeSlot::clear`] without deadlocking.
    pub fn fire(&self) {
        let hook = self.hook.lock().clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

impl std::fmt::Debug for WakeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WakeSlot(set={})", self.hook.lock().is_some())
    }
}

/// Identifier of a simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A (node, port) pair — the simulated equivalent of a socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimAddr {
    pub node: NodeId,
    pub port: u16,
}

impl SimAddr {
    pub const fn new(node: NodeId, port: u16) -> Self {
        SimAddr { node, port }
    }
}

impl std::fmt::Display for SimAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// A NIC direction's bandwidth clock. Transfers reserve contiguous windows
/// of link time; overlapping transfers queue behind each other, which is how
/// shared-NIC contention emerges without a global scheduler.
pub(crate) struct LinkClock {
    next_free: Mutex<Instant>,
}

impl LinkClock {
    fn new() -> Self {
        LinkClock {
            next_free: Mutex::new(Instant::now()),
        }
    }

    /// Reserve `dur` of link time starting no earlier than `earliest`.
    /// Returns the instant at which the reserved window ends.
    pub(crate) fn reserve_from(&self, earliest: Instant, dur: Duration) -> Instant {
        let mut next = self.next_free.lock();
        let start = if *next > earliest { *next } else { earliest };
        let end = start + dur;
        *next = end;
        end
    }
}

/// Per-node NIC state.
pub(crate) struct NodeLinks {
    pub(crate) egress: LinkClock,
    pub(crate) ingress: LinkClock,
    /// Modeled nanoseconds charged to this node by the cost model (stack
    /// traversals, wire occupancy, propagation, registration, injected
    /// fault delay). Unlike wall-clock measurements these are a pure
    /// function of the traffic and the fault-RNG seed, so benchmark
    /// artifacts built from them replay byte-identically.
    pub(crate) modeled_ns: AtomicU64,
    /// Bytes of memory registered on this node's HCA and not yet
    /// deregistered: rises in `RdmaDevice::register`, falls when the
    /// region's last handle drops.
    pub(crate) registered_bytes: AtomicU64,
}

/// Aggregate transfer counters, exposed for benchmark sanity checks.
#[derive(Debug, Default)]
pub struct FabricStats {
    pub messages: AtomicU64,
    pub bytes: AtomicU64,
    pub rdma_writes: AtomicU64,
    pub registrations: AtomicU64,
    /// Total modeled nanoseconds charged across all nodes. See
    /// [`Fabric::modeled_ns`].
    pub modeled_ns: AtomicU64,
}

impl FabricStats {
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.messages.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.rdma_writes.load(Ordering::Relaxed),
            self.registrations.load(Ordering::Relaxed),
        )
    }
}

pub(crate) struct FabricInner {
    pub(crate) model: NetworkModel,
    clock: Clock,
    pub(crate) nodes: RwLock<HashMap<NodeId, Arc<NodeLinks>>>,
    pub(crate) dead: RwLock<HashSet<NodeId>>,
    /// Normalized (min, max) node pairs that cannot reach each other.
    pub(crate) partitions: RwLock<HashSet<(NodeId, NodeId)>>,
    /// Impairments per normalized node pair. `faults_active` mirrors
    /// whether this map is non-empty so the data path can skip the lock.
    pub(crate) link_faults: RwLock<HashMap<(NodeId, NodeId), FaultSpec>>,
    pub(crate) faults_active: AtomicBool,
    /// Remaining injected connect refusals per listening address.
    pub(crate) connect_failures: Mutex<HashMap<SimAddr, u32>>,
    /// Remaining injected accept drops per listening address.
    pub(crate) accept_failures: Mutex<HashMap<SimAddr, u32>>,
    /// State of the deterministic fault RNG (drop coins, jitter samples).
    pub(crate) fault_rng: Mutex<u64>,
    /// Bound listeners: the binding's id (a rebind of the same address
    /// gets a new one) and the sender connects are handed to.
    pub(crate) listeners: Mutex<HashMap<SimAddr, (u64, Sender<SimStream>)>>,
    pub(crate) next_listener_id: AtomicU64,
    /// Each queue pair's completion inbox plus the wake slot its receiver
    /// may have armed; senders fire the slot after posting a completion.
    pub(crate) qps: Mutex<HashMap<u64, Arc<QpSlot>>>,
    /// Every stream end, so that [`Fabric::kill_node`] reaches it.
    pub(crate) streams: Mutex<HashMap<u64, Weak<StreamInner>>>,
    pub(crate) mrs: Mutex<HashMap<u64, Weak<MrInner>>>,
    /// What a node's endpoints share, by type and key ([`Fabric::node_shared`]).
    node_shared: Mutex<HashMap<SharedKey, Weak<dyn Any + Send + Sync>>>,
    next_node: AtomicU32,
    pub(crate) next_id: AtomicU64,
    pub(crate) stats: FabricStats,
}

/// A [`Fabric::node_shared`] entry's identity: its node, its type and
/// the caller's key.
type SharedKey = (NodeId, TypeId, Box<[u64]>);

/// Handle to a simulated fabric. Clones share the same underlying network.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Arc<FabricInner>,
}

impl Fabric {
    /// Create a fabric governed by the given cost model, on the host's
    /// clock.
    pub fn new(model: NetworkModel) -> Self {
        Fabric::with_clock(model, Clock::host())
    }

    /// Create a fabric whose endpoints read time from `clock` — a
    /// [`Clock::manual`] one to step a test's timeouts by hand.
    pub fn with_clock(model: NetworkModel, clock: Clock) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                model,
                clock,
                nodes: RwLock::new(HashMap::new()),
                dead: RwLock::new(HashSet::new()),
                partitions: RwLock::new(HashSet::new()),
                link_faults: RwLock::new(HashMap::new()),
                faults_active: AtomicBool::new(false),
                connect_failures: Mutex::new(HashMap::new()),
                accept_failures: Mutex::new(HashMap::new()),
                fault_rng: Mutex::new(0x9e37_79b9_7f4a_7c15),
                listeners: Mutex::new(HashMap::new()),
                next_listener_id: AtomicU64::new(0),
                qps: Mutex::new(HashMap::new()),
                streams: Mutex::new(HashMap::new()),
                mrs: Mutex::new(HashMap::new()),
                node_shared: Mutex::new(HashMap::new()),
                next_node: AtomicU32::new(0),
                next_id: AtomicU64::new(1),
                stats: FabricStats::default(),
            }),
        }
    }

    /// The cost model this fabric runs under.
    pub fn model(&self) -> &NetworkModel {
        &self.inner.model
    }

    /// The clock every endpoint on this fabric reads time from.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Allocate a new simulated node (with its own NIC link clocks).
    pub fn add_node(&self) -> NodeId {
        let id = NodeId(self.inner.next_node.fetch_add(1, Ordering::Relaxed));
        self.inner.nodes.write().insert(
            id,
            Arc::new(NodeLinks {
                egress: LinkClock::new(),
                ingress: LinkClock::new(),
                modeled_ns: AtomicU64::new(0),
                registered_bytes: AtomicU64::new(0),
            }),
        );
        id
    }

    pub(crate) fn links(&self, node: NodeId) -> Option<Arc<NodeLinks>> {
        self.inner.nodes.read().get(&node).cloned()
    }

    /// Mark a node as failed: its listeners stop accepting, in-flight and
    /// future transfers to or from it fail. Every queue pair and stream
    /// end on the node or connected to it ends now: a receive blocked on
    /// one wakes, reads what had arrived, then fails (`PeerDown`,
    /// `ConnectionReset`), and its readiness hook fires once.
    pub fn kill_node(&self, node: NodeId) {
        self.inner.dead.write().insert(node);
        // Evict the dead node's listeners so connects fail fast.
        self.inner
            .listeners
            .lock()
            .retain(|addr, _| addr.node != node);
        // Collected first: the hooks run, and the last handle of a stream
        // may drop, with no registry locked.
        let qps: Vec<_> = self
            .inner
            .qps
            .lock()
            .values()
            .filter(|qp| qp.touches(node))
            .cloned()
            .collect();
        let streams: Vec<_> = self
            .inner
            .streams
            .lock()
            .values()
            .filter_map(Weak::upgrade)
            .filter(|end| end.touches(node))
            .collect();
        qps.iter().for_each(|qp| qp.fail());
        streams.iter().for_each(|end| end.reset());
    }

    /// Remove binding `id` of `addr` — and only that one: a listener that
    /// was evicted (its node killed) must not, when it is finally closed
    /// or dropped, unbind the successor bound there after the node's
    /// revival. Dropping the sender is what wakes a blocked accept.
    pub(crate) fn unbind(&self, addr: SimAddr, id: u64) {
        let mut listeners = self.inner.listeners.lock();
        if listeners.get(&addr).is_some_and(|(bound, _)| *bound == id) {
            listeners.remove(&addr);
        }
    }

    /// Bring a previously killed node back (it must re-bind its listeners).
    pub fn revive_node(&self, node: NodeId) {
        self.inner.dead.write().remove(&node);
    }

    /// Whether the node is currently marked failed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.inner.dead.read().contains(&node)
    }

    /// Cut the link between two nodes (both directions). Established
    /// streams and queue pairs between them fail, as do new connects.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.inner.partitions.write().insert(pair_key(a, b));
    }

    /// Restore the link between two nodes.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        self.inner.partitions.write().remove(&pair_key(a, b));
    }

    /// Whether traffic between `a` and `b` is currently cut.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.inner.partitions.read().contains(&pair_key(a, b))
    }

    /// Whether `a` can currently reach `b` (both alive, link intact).
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        !self.is_dead(a) && !self.is_dead(b) && !self.is_partitioned(a, b)
    }

    /// Attach an impairment spec (extra delay, jitter, drop rate) to the
    /// link between `a` and `b`, both directions. Replaces any previous
    /// spec on that pair.
    pub fn set_link_fault(&self, a: NodeId, b: NodeId, spec: FaultSpec) {
        self.inner.link_faults.write().insert(pair_key(a, b), spec);
        self.inner.faults_active.store(true, Ordering::Release);
    }

    /// Remove the impairment spec on the `a`–`b` link, if any.
    pub fn clear_link_fault(&self, a: NodeId, b: NodeId) {
        let mut faults = self.inner.link_faults.write();
        faults.remove(&pair_key(a, b));
        self.inner
            .faults_active
            .store(!faults.is_empty(), Ordering::Release);
    }

    /// The impairment spec currently attached to the `a`–`b` link.
    pub fn link_fault(&self, a: NodeId, b: NodeId) -> Option<FaultSpec> {
        if !self.inner.faults_active.load(Ordering::Acquire) {
            return None;
        }
        self.inner.link_faults.read().get(&pair_key(a, b)).copied()
    }

    /// Seed the deterministic RNG behind drop coins and jitter samples, so
    /// a probabilistic fault schedule replays exactly. Seed 0 is remapped
    /// (xorshift state must be non-zero).
    pub fn set_fault_seed(&self, seed: u64) {
        *self.inner.fault_rng.lock() = if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        };
    }

    /// Refuse the next `n` connection attempts to `addr` (the connector
    /// sees `ConnectionRefused` before any handshake traffic flows).
    /// Cumulative with previously injected refusals.
    pub fn fail_next_connects(&self, addr: SimAddr, n: u32) {
        *self.inner.connect_failures.lock().entry(addr).or_insert(0) += n;
    }

    /// Drop the next `n` connections accepted at `addr` *after* the
    /// connector's handshake succeeds — the peer only discovers the
    /// failure when its first I/O on the new connection dies, which is
    /// exactly the mid-handshake window RDMA endpoint exchanges sit in.
    /// Cumulative with previously injected drops.
    pub fn fail_next_accepts(&self, addr: SimAddr, n: u32) {
        *self.inner.accept_failures.lock().entry(addr).or_insert(0) += n;
    }

    /// Injected connect refusals not yet consumed for `addr`.
    pub fn pending_connect_failures(&self, addr: SimAddr) -> u32 {
        self.inner
            .connect_failures
            .lock()
            .get(&addr)
            .copied()
            .unwrap_or(0)
    }

    /// Injected accept drops not yet consumed for `addr`.
    pub fn pending_accept_failures(&self, addr: SimAddr) -> u32 {
        self.inner
            .accept_failures
            .lock()
            .get(&addr)
            .copied()
            .unwrap_or(0)
    }

    /// Consume one injected connect refusal for `addr`, if any remain.
    pub(crate) fn take_connect_failure(&self, addr: SimAddr) -> bool {
        take_failure(&mut self.inner.connect_failures.lock(), addr)
    }

    /// Consume one injected accept drop for `addr`, if any remain.
    pub(crate) fn take_accept_failure(&self, addr: SimAddr) -> bool {
        take_failure(&mut self.inner.accept_failures.lock(), addr)
    }

    /// Whether a message crossing the `a`–`b` link right now is dropped.
    pub(crate) fn fault_drops(&self, a: NodeId, b: NodeId) -> bool {
        match self.link_fault(a, b) {
            Some(f) if f.drop_rate > 0.0 => {
                next_unit(&mut self.inner.fault_rng.lock()) < f.drop_rate
            }
            _ => false,
        }
    }

    /// Sampled extra one-way latency for a message on the `a`–`b` link.
    pub(crate) fn fault_delay(&self, a: NodeId, b: NodeId) -> Duration {
        match self.link_fault(a, b) {
            Some(f) if f.delays() => {
                let jitter = if f.jitter.is_zero() {
                    Duration::ZERO
                } else {
                    f.jitter
                        .mul_f64(next_unit(&mut self.inner.fault_rng.lock()))
                };
                f.extra_delay + jitter
            }
            _ => Duration::ZERO,
        }
    }

    /// Aggregate transfer counters.
    pub fn stats(&self) -> &FabricStats {
        &self.inner.stats
    }

    /// Charge `ns` of modeled time against `node`'s ledger. Called from
    /// every site that injects a cost-model delay (stream writes/reads,
    /// verbs sends/receives, registration, connect setup) with the
    /// *intended* duration, right where the real delay is spun out.
    pub(crate) fn charge_modeled(&self, node: NodeId, ns: u64) {
        if ns == 0 {
            return;
        }
        if let Some(links) = self.links(node) {
            links.modeled_ns.fetch_add(ns, Ordering::Relaxed);
        }
        self.inner.stats.modeled_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Charge `ns` of modeled *host-side* time against `node`'s ledger.
    /// The fabric charges network costs itself; upper layers use this to
    /// account software costs their cost models own (e.g. the RPC
    /// engine's legacy metadata-churn charge), so figure harnesses that
    /// read ledger deltas see them alongside the network time.
    pub fn charge_host_ns(&self, node: NodeId, ns: u64) {
        self.charge_modeled(node, ns);
    }

    /// Modeled nanoseconds charged to `node` so far. Deterministic for a
    /// given traffic pattern and fault seed: the ledger accumulates the
    /// durations the cost model *intended*, not the wall time the busy-wait
    /// implementation happened to burn. The bench harness reads deltas of
    /// this ledger so its `BENCH_*.json` artifacts replay byte-identically.
    pub fn modeled_ns(&self, node: NodeId) -> u64 {
        self.links(node)
            .map(|l| l.modeled_ns.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total modeled nanoseconds charged across all nodes.
    pub fn modeled_total_ns(&self) -> u64 {
        self.inner.stats.modeled_ns.load(Ordering::Relaxed)
    }

    /// Bytes registered on `node`'s HCA right now: every live memory
    /// region, whoever holds it. A gauge, not a counter — it falls when a
    /// region's last handle drops.
    pub fn registered_bytes(&self, node: NodeId) -> u64 {
        self.links(node)
            .map(|l| l.registered_bytes.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The one `T` that `node`'s endpoints share under `key`, made by
    /// `make` if none is alive. The fabric holds it weakly: it lives as
    /// long as the last handle an endpoint keeps, and the next caller
    /// after that makes a fresh one. `make` runs under the registry's
    /// lock, so two endpoints that ask at once get the same object.
    pub fn node_shared<T, E>(
        &self,
        node: NodeId,
        key: &[u64],
        make: impl FnOnce() -> Result<Arc<T>, E>,
    ) -> Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
    {
        let mut shared = self.inner.node_shared.lock();
        let id: SharedKey = (node, TypeId::of::<T>(), key.into());
        if let Some(alive) = shared.get(&id).and_then(Weak::upgrade) {
            return Ok(alive.downcast::<T>().expect("keyed by its type"));
        }
        let made = make()?;
        shared.retain(|_, entry| entry.strong_count() > 0);
        let erased: Arc<dyn Any + Send + Sync> = made.clone();
        shared.insert(id, Arc::downgrade(&erased));
        Ok(made)
    }

    pub(crate) fn fresh_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("model", &self.inner.model.name)
            .field("nodes", &self.inner.nodes.read().len())
            .finish()
    }
}

fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn take_failure(map: &mut HashMap<SimAddr, u32>, addr: SimAddr) -> bool {
    match map.get_mut(&addr) {
        Some(n) if *n > 0 => {
            *n -= 1;
            if *n == 0 {
                map.remove(&addr);
            }
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IPOIB_QDR;

    #[test]
    fn nodes_get_distinct_ids() {
        let f = Fabric::new(IPOIB_QDR);
        let a = f.add_node();
        let b = f.add_node();
        assert_ne!(a, b);
        assert!(f.links(a).is_some());
        assert!(f.links(NodeId(999)).is_none());
    }

    #[test]
    fn kill_and_revive() {
        let f = Fabric::new(IPOIB_QDR);
        let n = f.add_node();
        assert!(!f.is_dead(n));
        f.kill_node(n);
        assert!(f.is_dead(n));
        f.revive_node(n);
        assert!(!f.is_dead(n));
    }

    #[test]
    fn link_clock_serializes_overlapping_reservations() {
        let clock = LinkClock::new();
        let t0 = Instant::now();
        let d = Duration::from_millis(10);
        let end1 = clock.reserve_from(t0, d);
        let end2 = clock.reserve_from(t0, d);
        assert_eq!(end1, t0 + d);
        assert_eq!(
            end2,
            t0 + 2 * d,
            "second transfer must queue behind the first"
        );
        // A reservation starting later than the clock's frontier begins at
        // its own earliest time.
        let late = t0 + Duration::from_secs(1);
        let end3 = clock.reserve_from(late, d);
        assert_eq!(end3, late + d);
    }

    #[test]
    fn partitions_are_symmetric_and_healable() {
        let f = Fabric::new(IPOIB_QDR);
        let a = f.add_node();
        let b = f.add_node();
        let c = f.add_node();
        assert!(f.reachable(a, b));
        f.partition(b, a); // either order
        assert!(f.is_partitioned(a, b));
        assert!(f.is_partitioned(b, a));
        assert!(!f.reachable(a, b));
        assert!(f.reachable(a, c), "unrelated links unaffected");
        f.heal(a, b);
        assert!(f.reachable(a, b));
    }

    #[test]
    fn link_faults_are_symmetric_and_clearable() {
        let f = Fabric::new(IPOIB_QDR);
        let a = f.add_node();
        let b = f.add_node();
        let c = f.add_node();
        assert!(f.link_fault(a, b).is_none());
        f.set_link_fault(b, a, FaultSpec::delay(Duration::from_millis(3)));
        assert_eq!(
            f.link_fault(a, b).unwrap().extra_delay,
            Duration::from_millis(3)
        );
        assert!(f.link_fault(a, c).is_none(), "unrelated links unaffected");
        assert!(f.fault_delay(a, b) >= Duration::from_millis(3));
        assert_eq!(f.fault_delay(a, c), Duration::ZERO);
        f.clear_link_fault(a, b);
        assert!(f.link_fault(a, b).is_none());
        assert!(!f.inner.faults_active.load(Ordering::Acquire));
    }

    #[test]
    fn drop_coin_respects_rate_extremes() {
        let f = Fabric::new(IPOIB_QDR);
        let a = f.add_node();
        let b = f.add_node();
        f.set_link_fault(a, b, FaultSpec::drop_all());
        assert!((0..100).all(|_| f.fault_drops(a, b)));
        f.set_link_fault(a, b, FaultSpec::lossy(0.0));
        assert!((0..100).all(|_| !f.fault_drops(a, b)));
    }

    #[test]
    fn injected_failures_are_counted_down() {
        let f = Fabric::new(IPOIB_QDR);
        let addr = SimAddr::new(f.add_node(), 80);
        f.fail_next_accepts(addr, 2);
        f.fail_next_accepts(addr, 1);
        assert_eq!(f.pending_accept_failures(addr), 3);
        assert!(f.take_accept_failure(addr));
        assert!(f.take_accept_failure(addr));
        assert!(f.take_accept_failure(addr));
        assert!(
            !f.take_accept_failure(addr),
            "injected budget must be finite"
        );
        f.fail_next_connects(addr, 1);
        assert!(f.take_connect_failure(addr));
        assert!(!f.take_connect_failure(addr));
    }

    #[test]
    fn node_shared_is_one_object_per_node_and_key_while_it_lives() {
        let f = Fabric::new(IPOIB_QDR);
        let (a, b) = (f.add_node(), f.add_node());
        let make = |v: u32| move || Ok::<_, ()>(Arc::new(v));
        let first = f.node_shared(a, &[1], make(1)).unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &f.node_shared(a, &[1], make(2)).unwrap()
        ));
        // Another key, another node, another type: another object.
        assert_eq!(*f.node_shared(a, &[2], make(3)).unwrap(), 3);
        assert_eq!(*f.node_shared(b, &[1], make(4)).unwrap(), 4);
        assert_eq!(
            *f.node_shared(a, &[1], || Ok::<_, ()>(Arc::new(5u64)))
                .unwrap(),
            5
        );
        // The fabric does not keep it alive.
        drop(first);
        assert_eq!(*f.node_shared(a, &[1], make(6)).unwrap(), 6);
        // A failed make leaves nothing behind.
        assert_eq!(f.node_shared::<u32, _>(b, &[9], || Err("no")), Err("no"));
    }

    #[test]
    fn clones_share_state() {
        let f = Fabric::new(IPOIB_QDR);
        let g = f.clone();
        let n = f.add_node();
        assert!(g.links(n).is_some());
    }
}
