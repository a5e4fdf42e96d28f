//! Weighted-fair, deadline-aware admission queue between the reader
//! shards and the handler workers.
//!
//! The seed design used one bounded FIFO channel: first come, first
//! served, with a global `STATUS_BUSY` overflow. Under skewed
//! multi-tenant load that collapses — a single flooder fills the queue,
//! every light tenant's calls either bounce or wait behind the flood, and
//! handlers burn time executing calls whose callers have long since timed
//! out. This queue replaces it with three mechanisms — the first two
//! sized by [`crate::RpcConfig`], the third always on:
//!
//! * **Per-tenant quotas** (`tenant_quota`): a tenant's outstanding calls
//!   (queued + executing) are capped, so the flooder hits its own ceiling
//!   while the global queue keeps room for everyone else. Over-quota
//!   arrivals get the existing busy rejection.
//! * **Weighted-fair pop** (`tenant_weights`): calls queue per tenant and
//!   handlers pop in a deficit-round-robin sweep — a tenant with weight
//!   `w` gets up to `w` pops per round, so backlog depth stops deciding
//!   service order.
//! * **Deadline shedding**: a call that carried a deadline budget (see
//!   [`crate::frame`]; the client stamps every attempt's) and outlived it
//!   while queued is handed back in [`Popped::shed`] instead of
//!   [`Popped::run`] — the server answers `STATUS_EXPIRED` and no
//!   handler ever executes it. A call that carries none is never shed.
//!
//! Time is an explicit `now_ns` argument on every operation rather than
//! an internal `Instant::now()`. The server feeds it a monotonic reading;
//! the `qos` benchmark drives the very same structure from a
//! single-threaded discrete-event simulation with virtual time, which is
//! what makes its shed decisions — and therefore its committed JSON
//! baseline — bit-for-bit reproducible.
//!
//! With quotas and weights both disabled the queue degenerates to a
//! single FIFO ring (every tenant shares one bucket), reproducing the
//! seed's ordering exactly.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

/// Why [`AdmissionQueue::try_push`] refused a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The global queue bound is reached (the seed's only overload
    /// signal).
    QueueFull,
    /// The tenant is at its outstanding-call quota while the global queue
    /// still has room.
    TenantOverQuota,
    /// The queue is closed (server shutting down).
    Closed,
}

/// Priority class of one call within its tenant's DRR turn.
///
/// Classes partition each tenant's bucket, not the ring: a tenant's
/// heartbeats jump its own bulk backlog but never another tenant's
/// credits, so protocol priority composes with — instead of defeating —
/// weighted fairness. With every call in the default [`Bulk`] class
/// (i.e. `priority_protocols` unset) ordering is identical to the
/// classless queue.
///
/// [`Bulk`]: CallClass::Bulk
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CallClass {
    /// Heartbeat/control traffic (protocols listed in
    /// `RpcConfig::priority_protocols`): dequeues ahead of bulk within
    /// the tenant's turn.
    Control,
    /// Everything else (the default).
    #[default]
    Bulk,
}

impl CallClass {
    /// Sub-queue index inside a bucket (control first).
    fn index(self) -> usize {
        match self {
            CallClass::Control => 0,
            CallClass::Bulk => 1,
        }
    }
}

/// Admission metadata for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallMeta {
    /// Tenant identity — the handshake `client_id`.
    pub tenant: u64,
    /// Absolute expiry on the queue's `now_ns` timeline; `None` = no
    /// deadline, never shed.
    pub expires_at_ns: Option<u64>,
    /// Priority class within the tenant's turn (see [`CallClass`]).
    pub class: CallClass,
}

/// Result of one pop sweep.
#[derive(Debug)]
pub struct Popped<T> {
    /// Calls whose deadline passed while queued, in queue order. They
    /// were **not** executed and no longer count against their tenants'
    /// quotas; the caller must answer each with `STATUS_EXPIRED`.
    pub shed: Vec<(CallMeta, T)>,
    /// The next call to execute, if any. It still counts against its
    /// tenant's quota until [`AdmissionQueue::release`].
    pub run: Option<(CallMeta, T)>,
}

impl<T> Popped<T> {
    /// True when the sweep produced neither work nor sheds.
    pub fn is_empty(&self) -> bool {
        self.shed.is_empty() && self.run.is_none()
    }
}

/// One tenant's bucket (in fair mode; FIFO mode keys every call under
/// bucket 0).
struct Bucket<T> {
    /// Class sub-queues, indexed by [`CallClass::index`]: control, then
    /// bulk. Both FIFO; the pop takes the control head first.
    queues: [VecDeque<(CallMeta, T)>; 2],
    /// Admitted calls not yet released: queued + executing. Quota
    /// accounting.
    outstanding: usize,
    /// Pops left in the current round-robin round.
    credits: u32,
    /// Whether the bucket currently sits in `ring`.
    in_ring: bool,
}

impl<T> Bucket<T> {
    fn queued_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }
}

struct State<T> {
    buckets: HashMap<u64, Bucket<T>>,
    /// Round-robin ring of bucket keys with queued calls.
    ring: VecDeque<u64>,
    /// Total queued calls (all buckets).
    len: usize,
    closed: bool,
}

/// See module docs.
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Per-tenant outstanding cap; 0 = unlimited.
    quota: usize,
    weights: HashMap<u64, u32>,
    /// Weighted-fair scheduling on? Off = single shared FIFO bucket.
    fair: bool,
}

impl<T> AdmissionQueue<T> {
    /// `capacity` bounds total queued calls (the seed's
    /// `call_queue_len`); `quota` bounds one tenant's outstanding calls
    /// (0 = off); `weights` assigns fair-round credit (absent tenants get
    /// weight 1). Fair scheduling engages when either QoS knob is set.
    pub fn new(capacity: usize, quota: usize, weights: &[(u64, u32)]) -> Self {
        AdmissionQueue {
            state: Mutex::new(State {
                buckets: HashMap::new(),
                ring: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            capacity,
            quota,
            weights: weights.iter().copied().collect(),
            fair: quota > 0 || !weights.is_empty(),
        }
    }

    /// The fair-round credit for a tenant (min 1).
    pub fn weight(&self, tenant: u64) -> u32 {
        self.weights.get(&tenant).copied().unwrap_or(1).max(1)
    }

    /// Whether weighted-fair scheduling is active.
    pub fn fair(&self) -> bool {
        self.fair
    }

    fn bucket_key(&self, tenant: u64) -> u64 {
        if self.fair {
            tenant
        } else {
            0
        }
    }

    /// Admit a call, or hand it back with the reason. Never blocks, and
    /// wakes nobody: the queue has no blocking consumer, the pusher
    /// notifies whoever pops (the server: `Sched::notify`).
    pub fn try_push(&self, meta: CallMeta, item: T) -> Result<(), (AdmitError, T)> {
        let mut st = self.state.lock();
        if st.closed {
            return Err((AdmitError::Closed, item));
        }
        if st.len >= self.capacity {
            return Err((AdmitError::QueueFull, item));
        }
        let key = self.bucket_key(meta.tenant);
        let weight = self.weight(key);
        let bucket = st.buckets.entry(key).or_insert_with(|| Bucket {
            queues: [VecDeque::new(), VecDeque::new()],
            outstanding: 0,
            credits: weight,
            in_ring: false,
        });
        if self.fair && self.quota > 0 && bucket.outstanding >= self.quota {
            return Err((AdmitError::TenantOverQuota, item));
        }
        bucket.outstanding += 1;
        bucket.queues[meta.class.index()].push_back((meta, item));
        let newly_ready = !bucket.in_ring;
        if newly_ready {
            bucket.in_ring = true;
        }
        st.len += 1;
        if newly_ready {
            st.ring.push_back(key);
        }
        Ok(())
    }

    /// One handler's pop sweep at time `now_ns`: collect any expired
    /// heads as `shed` and return the next runnable call per the fair
    /// schedule. Never blocks.
    pub fn try_pop(&self, now_ns: u64) -> Popped<T> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut shed = Vec::new();
        while let Some(&key) = st.ring.front() {
            let bucket = st.buckets.get_mut(&key).expect("ringed bucket exists");
            // Shed expired heads of each class (control first) before
            // considering the bucket's turn: they consume neither
            // credits nor a handler.
            for queue in bucket.queues.iter_mut() {
                while let Some((meta, _)) = queue.front() {
                    match meta.expires_at_ns {
                        Some(expiry) if expiry <= now_ns => {
                            let entry = queue.pop_front().expect("peeked head");
                            bucket.outstanding -= 1;
                            st.len -= 1;
                            shed.push(entry);
                        }
                        _ => break,
                    }
                }
            }
            // Control head first, then bulk: the tenant's heartbeats
            // jump its own backlog but still spend its credits.
            let next = bucket.queues[0]
                .pop_front()
                .or_else(|| bucket.queues[1].pop_front());
            match next {
                Some(entry) => {
                    st.len -= 1;
                    // `outstanding` holds until release(): the call now
                    // executes.
                    bucket.credits = bucket.credits.saturating_sub(1);
                    if bucket.queued_empty() {
                        bucket.in_ring = false;
                        st.ring.pop_front();
                    } else if bucket.credits == 0 {
                        // Round exhausted: replenish and move to the back
                        // of the ring.
                        bucket.credits = self.weight(key);
                        st.ring.rotate_left(1);
                    }
                    return Popped {
                        shed,
                        run: Some(entry),
                    };
                }
                None => {
                    // Bucket emptied by shedding: retire it from the ring
                    // and try the next tenant in this same sweep.
                    bucket.in_ring = false;
                    if self.fair && bucket.outstanding == 0 {
                        st.buckets.remove(&key);
                    }
                    st.ring.pop_front();
                }
            }
        }
        Popped { shed, run: None }
    }

    /// A handler finished (or shed-answered) a call popped earlier:
    /// return its quota slot to `tenant`. An idle tenant's bucket is
    /// dropped so transient tenants cannot accumulate — except FIFO
    /// mode's single shared bucket, which would otherwise be freed and
    /// re-allocated (both deques included) every time the server goes
    /// momentarily idle.
    pub fn release(&self, tenant: u64) {
        let key = self.bucket_key(tenant);
        let mut st = self.state.lock();
        if let Some(bucket) = st.buckets.get_mut(&key) {
            bucket.outstanding = bucket.outstanding.saturating_sub(1);
            if self.fair && bucket.outstanding == 0 && bucket.queued_empty() && !bucket.in_ring {
                st.buckets.remove(&key);
            }
        }
    }

    /// Queued (not yet popped) calls.
    pub fn len(&self) -> usize {
        self.state.lock().len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: future pushes fail with [`AdmitError::Closed`].
    /// Already-queued calls remain poppable so a drain can finish them.
    pub fn close(&self) {
        self.state.lock().closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(tenant: u64) -> CallMeta {
        CallMeta {
            tenant,
            expires_at_ns: None,
            class: CallClass::Bulk,
        }
    }

    fn meta_exp(tenant: u64, expires_at_ns: u64) -> CallMeta {
        CallMeta {
            tenant,
            expires_at_ns: Some(expires_at_ns),
            class: CallClass::Bulk,
        }
    }

    fn meta_ctl(tenant: u64) -> CallMeta {
        CallMeta {
            tenant,
            expires_at_ns: None,
            class: CallClass::Control,
        }
    }

    #[test]
    fn fifo_mode_preserves_arrival_order_across_tenants() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(16, 0, &[]);
        assert!(!q.fair());
        for (tenant, item) in [(9, 0u32), (1, 1), (9, 2), (3, 3)] {
            q.try_push(meta(tenant), item).unwrap();
        }
        let order: Vec<u32> = (0..4)
            .map(|_| q.try_pop(0).run.expect("queued").1)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(q.try_pop(0).is_empty());
    }

    #[test]
    fn queue_full_and_closed_hand_the_item_back() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(2, 0, &[]);
        q.try_push(meta(1), 10).unwrap();
        q.try_push(meta(1), 11).unwrap();
        let (err, item) = q.try_push(meta(2), 12).unwrap_err();
        assert_eq!(err, AdmitError::QueueFull);
        assert_eq!(item, 12);
        q.close();
        let (err, item) = q.try_push(meta(1), 13).unwrap_err();
        assert_eq!(err, AdmitError::Closed);
        assert_eq!(item, 13);
        // Queued work survives close so a drain can finish it.
        assert_eq!(q.try_pop(0).run.unwrap().1, 10);
        assert_eq!(q.try_pop(0).run.unwrap().1, 11);
    }

    #[test]
    fn quota_caps_one_tenant_without_starving_the_queue() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(64, 2, &[]);
        assert!(q.fair());
        q.try_push(meta(7), 0).unwrap();
        q.try_push(meta(7), 1).unwrap();
        let (err, _) = q.try_push(meta(7), 2).unwrap_err();
        assert_eq!(err, AdmitError::TenantOverQuota);
        // Another tenant is unaffected.
        q.try_push(meta(8), 3).unwrap();
        // Quota spans queued + executing: popping alone frees nothing…
        let run = q.try_pop(0).run.unwrap();
        assert_eq!(run.0.tenant, 7);
        assert_eq!(
            q.try_push(meta(7), 4).unwrap_err().0,
            AdmitError::TenantOverQuota
        );
        // …release() does.
        q.release(7);
        q.try_push(meta(7), 4).unwrap();
    }

    #[test]
    fn weighted_round_robin_pops_by_credit() {
        // Heavy tenant 1 (weight 3) vs light tenant 2 (weight 1), both
        // deeply backlogged: each round serves 3 heavy then 1 light.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(64, 0, &[(1, 3)]);
        for i in 0..9u32 {
            q.try_push(meta(1), i).unwrap();
        }
        for i in 100..103u32 {
            q.try_push(meta(2), i).unwrap();
        }
        let tenants: Vec<u64> = (0..12)
            .map(|_| q.try_pop(0).run.expect("queued").0.tenant)
            .collect();
        assert_eq!(tenants, vec![1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn backlog_depth_does_not_decide_service_order() {
        // Flooder with 50 queued vs light tenant with 1: the light call
        // is served within one fair round, not after the 50.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(128, 0, &[(1, 4)]);
        for i in 0..50u32 {
            q.try_push(meta(1), i).unwrap();
        }
        q.try_push(meta(2), 999).unwrap();
        let mut pops_until_light = 0;
        loop {
            pops_until_light += 1;
            if q.try_pop(0).run.unwrap().0.tenant == 2 {
                break;
            }
        }
        assert!(
            pops_until_light <= 5,
            "light tenant waited {pops_until_light} pops behind the flood"
        );
    }

    #[test]
    fn expired_heads_are_shed_not_run() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(16, 0, &[]);
        q.try_push(meta_exp(1, 100), 0).unwrap();
        q.try_push(meta_exp(1, 5000), 1).unwrap();
        q.try_push(meta(1), 2).unwrap();
        // At t=200 the first call is expired, the second is not.
        let popped = q.try_pop(200);
        assert_eq!(popped.shed.len(), 1);
        assert_eq!(popped.shed[0].1, 0);
        assert_eq!(popped.run.as_ref().unwrap().1, 1);
        // At exactly the expiry instant the call is shed (<=).
        let popped = q.try_pop(200);
        assert!(popped.shed.is_empty());
        assert_eq!(popped.run.unwrap().1, 2);
    }

    #[test]
    fn shedding_returns_quota_immediately() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(16, 1, &[]);
        q.try_push(meta_exp(4, 10), 0).unwrap();
        assert_eq!(
            q.try_push(meta(4), 1).unwrap_err().0,
            AdmitError::TenantOverQuota
        );
        let popped = q.try_pop(50);
        assert_eq!(popped.shed.len(), 1);
        assert!(popped.run.is_none(), "only the expired call was queued");
        // The shed call's quota slot is already free — no release needed.
        q.try_push(meta(4), 1).unwrap();
    }

    #[test]
    fn sweep_crosses_tenants_emptied_by_shedding() {
        // Tenant 1's whole backlog expires; the same sweep must still
        // hand back tenant 2's live call.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(16, 0, &[(1, 2)]);
        q.try_push(meta_exp(1, 10), 0).unwrap();
        q.try_push(meta_exp(1, 20), 1).unwrap();
        q.try_push(meta(2), 2).unwrap();
        let popped = q.try_pop(1000);
        assert_eq!(popped.shed.len(), 2);
        assert_eq!(popped.run.unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn a_push_is_poppable_at_once_and_close_leaves_the_queue_drainable() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(16, 0, &[]);
        assert!(q.try_pop(0).is_empty());
        q.try_push(meta(1), 42).unwrap();
        assert_eq!(q.try_pop(0).run.unwrap().1, 42);

        q.try_push(meta(1), 43).unwrap();
        q.close();
        assert_eq!(q.try_pop(0).run.unwrap().1, 43);
        assert!(q.try_pop(0).is_empty());
    }

    #[test]
    fn control_class_jumps_the_tenants_bulk_backlog() {
        // A bulk flood is already queued when a heartbeat arrives: the
        // heartbeat is the very next pop, not the 51st.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(128, 0, &[]);
        for i in 0..50u32 {
            q.try_push(meta(1), i).unwrap();
        }
        q.try_push(meta_ctl(1), 999).unwrap();
        assert_eq!(q.try_pop(0).run.unwrap().1, 999);
        // Bulk order among itself is untouched.
        assert_eq!(q.try_pop(0).run.unwrap().1, 0);
        assert_eq!(q.try_pop(0).run.unwrap().1, 1);
    }

    #[test]
    fn control_priority_stays_within_the_tenants_turn() {
        // Tenant 1 floods bulk and sends heartbeats; tenant 2 has weight
        // 1 of bulk. Tenant 1's heartbeats precede its own bulk but
        // still consume its credits — tenant 2 keeps its round slot.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(128, 0, &[(1, 2)]);
        for i in 0..6u32 {
            q.try_push(meta(1), i).unwrap();
        }
        q.try_push(meta_ctl(1), 100).unwrap();
        q.try_push(meta_ctl(1), 101).unwrap();
        for i in 200..203u32 {
            q.try_push(meta(2), i).unwrap();
        }
        let order: Vec<u32> = (0..11)
            .map(|_| q.try_pop(0).run.expect("queued").1)
            .collect();
        // Rounds of (2× tenant-1, 1× tenant-2): heartbeats first within
        // tenant 1's turns, tenant 2 never displaced.
        assert_eq!(order, vec![100, 101, 200, 0, 1, 201, 2, 3, 202, 4, 5]);
    }

    #[test]
    fn expired_control_heads_are_shed_too() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(16, 0, &[]);
        q.try_push(
            CallMeta {
                tenant: 1,
                expires_at_ns: Some(10),
                class: CallClass::Control,
            },
            0,
        )
        .unwrap();
        q.try_push(meta(1), 1).unwrap();
        let popped = q.try_pop(50);
        assert_eq!(popped.shed.len(), 1);
        assert_eq!(popped.shed[0].1, 0);
        assert_eq!(popped.run.unwrap().1, 1);
    }

    #[test]
    fn all_bulk_ordering_matches_the_classless_queue() {
        // The default-class invariant the committed baselines rely on:
        // with no Control calls anywhere, pop order is plain FIFO
        // (non-fair mode) exactly as before classes existed.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(64, 0, &[]);
        for i in 0..20u32 {
            q.try_push(meta(i as u64 % 3), i).unwrap();
        }
        let order: Vec<u32> = (0..20)
            .map(|_| q.try_pop(0).run.expect("queued").1)
            .collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_mode_keeps_its_one_bucket_across_idle_gaps() {
        // The closed-loop shape (push, pop, release, idle, repeat) must
        // reuse the shared bucket and its deques, not rebuild them.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(16, 0, &[]);
        let mut capacity = None;
        for i in 0..4u32 {
            q.try_push(meta(u64::from(i)), i).unwrap();
            assert_eq!(q.try_pop(0).run.unwrap().1, i);
            q.release(u64::from(i));
            let st = q.state.lock();
            assert_eq!(st.buckets.len(), 1, "FIFO mode has exactly bucket 0");
            let cap = st.buckets[&0].queues[1].capacity();
            assert_eq!(*capacity.get_or_insert(cap), cap, "deque was re-allocated");
        }
    }

    #[test]
    fn bucket_map_stays_bounded() {
        // Transient tenants must not leak buckets: once a tenant's calls
        // are popped and released, its bucket is gone.
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1024, 4, &[]);
        for tenant in 0..100u64 {
            q.try_push(meta(tenant), tenant as u32).unwrap();
        }
        for _ in 0..100 {
            let (m, _) = q.try_pop(0).run.unwrap();
            q.release(m.tenant);
        }
        assert_eq!(q.state.lock().buckets.len(), 0);
        assert!(q.state.lock().ring.is_empty());
    }
}
