//! RDMA verbs emulation.
//!
//! This module provides the verbs-shaped API the RPCoIB transport is written
//! against: open a device on a node, register memory regions, create queue
//! pairs, exchange endpoints out of band, then communicate with two-sided
//! send/recv or one-sided RDMA write (with optional immediate data, which —
//! as on real hardware — consumes a posted receive WQE at the responder:
//! verbs' name for the remote queue pair, no relation to an RPC thread).
//!
//! Cost model: posting pays the verbs overhead (WQE + doorbell, no kernel
//! stack), wire time is charged against the sender's egress link clock, and
//! delivery is gated on the receiver's ingress clock one `base_latency`
//! later. The byte movement itself is performed by CPU `memcpy` in the
//! simulator where real hardware would DMA; that cost is sub-microsecond at
//! the sizes involved and is *not* charged as protocol overhead.
//!
//! Memory regions are identified fabric-wide by an rkey-like id; the fabric
//! holds weak references, so dropping all handles to a region implicitly
//! deregisters it and subsequent remote accesses fail with
//! [`VerbsError::BadRemoteKey`]. [`Fabric::registered_bytes`] reads what a
//! node holds registered at any moment.
//!
//! A queue pair takes its receive buffers from a receive queue: its own
//! ([`RdmaDevice::create_qp`]) or a shared receive queue that every queue
//! pair made on it draws from ([`RdmaDevice::create_qp_on`]), as Ibdxnet
//! serves many connections from one SRQ. Either way there is one receive
//! path, and a completion still arrives on its own queue pair's inbox.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::fabric::{Fabric, NodeId, NodeLinks, WakeSlot};
use crate::time::{spin_ns, spin_until};
use crate::VerbsError;

/// A queue pair's fabric-side entry: its completion inbox, the wake slot
/// its owner may arm with [`QueuePair::set_recv_interest`], where it is
/// and whom it is connected to. Senders fire the slot right after
/// posting a completion, so an event-driven receiver learns of pending
/// work without polling [`QueuePair::recv_pending`].
///
/// **The error state** is the reliable connection's other exit. A queue
/// pair enters it when its peer is destroyed or disconnects, when a node
/// at either end is killed, or when a post of its own finds the peer
/// gone; it never leaves it. Entering it puts a flush marker behind
/// every completion already delivered and fires the armed wake, once:
/// its receiver reads what had arrived, then `PeerDown`, as a real
/// completion queue reports `IBV_WC_WR_FLUSH_ERR` behind the work that
/// completed.
pub(crate) struct QpSlot {
    /// `None` is the flush marker.
    tx: Sender<Option<QpMessage>>,
    wake: WakeSlot,
    node: NodeId,
    remote: Mutex<Option<QpEndpoint>>,
    failed: AtomicBool,
}

impl QpSlot {
    /// Whether this queue pair is on `node` or connected to it.
    pub(crate) fn touches(&self, node: NodeId) -> bool {
        self.node == node || matches!(*self.remote.lock(), Some(ep) if ep.node == node)
    }

    /// Enter the error state (see [`QpSlot`]); a no-op once in it.
    pub(crate) fn fail(&self) {
        if !self.failed.swap(true, Ordering::AcqRel) {
            let _ = self.tx.send(None);
            self.wake.fire();
        }
    }

    fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }
}

/// A verbs context on one simulated node (device + protection domain).
#[derive(Clone)]
pub struct RdmaDevice {
    fabric: Fabric,
    node: NodeId,
}

impl RdmaDevice {
    /// Open the HCA on `node`. Fails if the fabric's model is not
    /// RDMA-capable (e.g. trying to run verbs over plain Ethernet).
    pub fn open(fabric: &Fabric, node: NodeId) -> Result<RdmaDevice, VerbsError> {
        if !fabric.model().rdma_capable {
            return Err(VerbsError::NotConnected);
        }
        Ok(RdmaDevice {
            fabric: fabric.clone(),
            node,
        })
    }

    /// The node this device lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fabric this device is attached to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Register `len` bytes of fresh, zeroed memory with the HCA.
    ///
    /// Pays the model's registration cost — this is the cost RPCoIB's
    /// pre-registered pool amortizes away from the per-call path.
    pub fn register(&self, len: usize) -> MemoryRegion {
        let reg_ns = self.fabric.model().registration_ns(len);
        self.fabric.charge_modeled(self.node, reg_ns);
        spin_ns(reg_ns);
        self.fabric
            .stats()
            .registrations
            .fetch_add(1, Ordering::Relaxed);
        let links = self.fabric.links(self.node);
        if let Some(links) = &links {
            links
                .registered_bytes
                .fetch_add(len as u64, Ordering::Relaxed);
        }
        let id = self.fabric.fresh_id();
        let inner = Arc::new(MrInner {
            id,
            node: self.node,
            buf: Mutex::new(vec![0u8; len].into_boxed_slice()),
            links,
        });
        self.fabric
            .inner
            .mrs
            .lock()
            .insert(id, Arc::downgrade(&inner));
        MemoryRegion {
            fabric: self.fabric.clone(),
            inner,
        }
    }

    /// Create a queue pair (with its completion channel) on this device,
    /// with a receive queue of its own.
    pub fn create_qp(&self) -> QueuePair {
        self.qp_with(Arc::default())
    }

    /// Create a shared receive queue on this device.
    pub fn create_srq(&self) -> SharedRecvQueue {
        SharedRecvQueue {
            node: self.node,
            queue: Arc::default(),
        }
    }

    /// Create a queue pair that takes its receive buffers from `srq`
    /// instead of a queue of its own. Its completions still arrive on
    /// its own inbox and fire its own readiness hook.
    pub fn create_qp_on(&self, srq: &SharedRecvQueue) -> QueuePair {
        debug_assert_eq!(srq.node, self.node, "an SRQ serves its own device");
        self.qp_with(Arc::clone(&srq.queue))
    }

    fn qp_with(&self, recv_queue: Arc<RecvQueue>) -> QueuePair {
        let id = self.fabric.fresh_id();
        let (tx, rx) = unbounded();
        let slot = Arc::new(QpSlot {
            tx,
            wake: WakeSlot::new(),
            node: self.node,
            remote: Mutex::new(None),
            // Made on a dead node: born in the error state.
            failed: AtomicBool::new(self.fabric.is_dead(self.node)),
        });
        self.fabric.inner.qps.lock().insert(id, Arc::clone(&slot));
        QueuePair {
            fabric: self.fabric.clone(),
            node: self.node,
            id,
            inbox: rx,
            slot,
            recv_queue,
        }
    }
}

/// What a shared receive queue's limit hook hands the completion that
/// found the queue empty: the work-request id and buffer it posted.
pub type LimitHook = Arc<dyn Fn() -> Option<(u64, MemoryRegion)> + Send + Sync>;

/// Receive buffers posted for incoming sends and writes-with-immediate,
/// consumed in FIFO order: a queue pair's own, or a shared one.
#[derive(Default)]
struct RecvQueue {
    posted: Mutex<VecDeque<(u64, MemoryRegion)>>,
    /// Set on a shared queue only: verbs' SRQ-limit event, run on the
    /// polling thread when a completion finds the queue empty.
    limit: Mutex<Option<LimitHook>>,
}

impl RecvQueue {
    /// Take the oldest posted buffer for a completion that places `fill`
    /// bytes in it (`None`: it delivers only an immediate). A buffer too
    /// small for them stays posted; an empty queue without a limit hook —
    /// or whose hook posts nothing — is [`VerbsError::ReceiverNotReady`].
    fn take(&self, fill: Option<usize>) -> Result<(u64, MemoryRegion), VerbsError> {
        let hook = {
            let mut posted = self.posted.lock();
            if let Some((_, mr)) = posted.front() {
                fits(mr, fill)?;
                return Ok(posted.pop_front().expect("front seen above"));
            }
            self.limit.lock().clone()
        };
        let (wr_id, mr) = hook
            .and_then(|hook| hook())
            .ok_or(VerbsError::ReceiverNotReady)?;
        if let Err(e) = fits(&mr, fill) {
            self.posted.lock().push_front((wr_id, mr));
            return Err(e);
        }
        Ok((wr_id, mr))
    }
}

fn fits(mr: &MemoryRegion, fill: Option<usize>) -> Result<(), VerbsError> {
    match fill.map(|needed| (needed, mr.len())) {
        Some((needed, posted)) if needed > posted => {
            Err(VerbsError::RecvBufferTooSmall { needed, posted })
        }
        _ => Ok(()),
    }
}

/// A shared receive queue (SRQ): one set of posted receive buffers for
/// every queue pair made on it ([`RdmaDevice::create_qp_on`]), so a node
/// posts for its traffic, not for each of its connections. Clones are
/// handles to the same queue.
#[derive(Clone)]
pub struct SharedRecvQueue {
    node: NodeId,
    queue: Arc<RecvQueue>,
}

impl SharedRecvQueue {
    /// Post a receive buffer for whichever queue pair's completion comes
    /// first.
    pub fn post_recv(&self, wr_id: u64, mr: MemoryRegion) {
        self.queue.posted.lock().push_back((wr_id, mr));
    }

    /// Number of buffers currently posted.
    pub fn posted(&self) -> usize {
        self.queue.posted.lock().len()
    }

    /// Arm the SRQ-limit event: when a completion finds the queue empty,
    /// `hook` runs on the polling thread, and the buffer it posts is the
    /// one that completion takes.
    pub fn set_limit_hook(&self, hook: LimitHook) {
        *self.queue.limit.lock() = Some(hook);
    }
}

impl std::fmt::Debug for SharedRecvQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedRecvQueue(node={}, posted={})",
            self.node,
            self.posted()
        )
    }
}

pub(crate) struct MrInner {
    pub(crate) id: u64,
    pub(crate) node: NodeId,
    pub(crate) buf: Mutex<Box<[u8]>>,
    /// The node's registered-bytes gauge, given back on drop.
    links: Option<Arc<NodeLinks>>,
}

impl Drop for MrInner {
    fn drop(&mut self) {
        if let Some(links) = &self.links {
            let len = self.buf.get_mut().len() as u64;
            links.registered_bytes.fetch_sub(len, Ordering::Relaxed);
        }
    }
}

/// A registered memory region. Clones share the same memory; the region is
/// deregistered when the last handle drops.
#[derive(Clone)]
pub struct MemoryRegion {
    fabric: Fabric,
    inner: Arc<MrInner>,
}

impl MemoryRegion {
    /// Registered length in bytes.
    pub fn len(&self) -> usize {
        self.inner.buf.lock().len()
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local CPU write into the region.
    pub fn write_at(&self, offset: usize, data: &[u8]) -> Result<(), VerbsError> {
        let mut buf = self.inner.buf.lock();
        bounds_check(offset, data.len(), buf.len())?;
        buf[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Local CPU read out of the region.
    pub fn read_at(&self, offset: usize, out: &mut [u8]) -> Result<(), VerbsError> {
        let buf = self.inner.buf.lock();
        bounds_check(offset, out.len(), buf.len())?;
        out.copy_from_slice(&buf[offset..offset + out.len()]);
        Ok(())
    }

    /// Zero-copy access to the underlying bytes.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.inner.buf.lock())
    }

    /// Zero-copy mutable access to the underlying bytes — this is what lets
    /// RPCoIB serialize *directly* into registered memory.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.inner.buf.lock())
    }

    /// The key a remote peer needs to RDMA-write into this region.
    pub fn remote_key(&self) -> RemoteKey {
        RemoteKey {
            node: self.inner.node,
            mr_id: self.inner.id,
        }
    }
}

impl Drop for MemoryRegion {
    fn drop(&mut self) {
        // Last handle (this one plus the fabric's weak ref): deregister.
        if Arc::strong_count(&self.inner) == 1 {
            self.fabric.inner.mrs.lock().remove(&self.inner.id);
        }
    }
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MemoryRegion(id={}, node={}, len={})",
            self.inner.id,
            self.inner.node,
            self.len()
        )
    }
}

fn bounds_check(offset: usize, len: usize, region: usize) -> Result<(), VerbsError> {
    if offset.checked_add(len).is_none_or(|end| end > region) {
        Err(VerbsError::OutOfBounds {
            offset,
            len,
            region,
        })
    } else {
        Ok(())
    }
}

/// Fabric-wide handle to a remote memory region (node + rkey). Fits in 12
/// bytes for out-of-band exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteKey {
    pub node: NodeId,
    pub mr_id: u64,
}

impl RemoteKey {
    pub fn to_bytes(self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[..4].copy_from_slice(&self.node.0.to_be_bytes());
        b[4..].copy_from_slice(&self.mr_id.to_be_bytes());
        b
    }

    pub fn from_bytes(b: [u8; 12]) -> RemoteKey {
        RemoteKey {
            node: NodeId(u32::from_be_bytes(b[..4].try_into().unwrap())),
            mr_id: u64::from_be_bytes(b[4..].try_into().unwrap()),
        }
    }
}

/// Connection info for a queue pair, exchanged out of band (the paper
/// bootstraps this exchange over the RPC server's socket address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpEndpoint {
    pub node: NodeId,
    pub qp_id: u64,
}

impl QpEndpoint {
    pub fn to_bytes(self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[..4].copy_from_slice(&self.node.0.to_be_bytes());
        b[4..].copy_from_slice(&self.qp_id.to_be_bytes());
        b
    }

    pub fn from_bytes(b: [u8; 12]) -> QpEndpoint {
        QpEndpoint {
            node: NodeId(u32::from_be_bytes(b[..4].try_into().unwrap())),
            qp_id: u64::from_be_bytes(b[4..].try_into().unwrap()),
        }
    }
}

pub(crate) enum QpMessage {
    Send {
        arrive_start: Instant,
        wire: Duration,
        data: Bytes,
        imm: u32,
    },
    WriteImm {
        arrive_start: Instant,
        wire: Duration,
        len: usize,
        imm: u32,
    },
}

/// What a polled receive completion describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// A two-sided send landed in the posted buffer.
    Recv,
    /// A one-sided RDMA write with immediate completed at the responder;
    /// the payload is already in the region the writer targeted, only the
    /// immediate value is delivered here.
    RecvRdmaWithImm,
}

/// A receive-side work completion.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub kind: CompletionKind,
    /// The `wr_id` given to the consumed `post_recv`.
    pub wr_id: u64,
    /// Bytes received (for `Recv`) or written remotely (for `RecvRdmaWithImm`).
    pub len: usize,
    /// Immediate value carried by the message.
    pub imm: u32,
}

/// A reliable-connected queue pair.
pub struct QueuePair {
    fabric: Fabric,
    node: NodeId,
    id: u64,
    inbox: Receiver<Option<QpMessage>>,
    /// Its entry in the fabric's `qps` map: wake slot, peer, error state.
    slot: Arc<QpSlot>,
    /// Its own receive queue, or the shared one it was made on.
    recv_queue: Arc<RecvQueue>,
}

impl QueuePair {
    /// This QP's endpoint, to be shipped to the peer out of band.
    pub fn endpoint(&self) -> QpEndpoint {
        QpEndpoint {
            node: self.node,
            qp_id: self.id,
        }
    }

    /// Transition to connected: all sends now target `remote`. A peer
    /// that has already ended puts this queue pair in the error state.
    pub fn connect(&self, remote: QpEndpoint) {
        *self.slot.remote.lock() = Some(remote);
        if self.fabric.is_dead(remote.node) || self.peer_slot().is_none_or(|peer| peer.failed()) {
            self.slot.fail();
        }
    }

    /// End the connection, as `rdma_disconnect` does: this queue pair and
    /// its peer enter the error state, so a receive blocked on either
    /// reads what had arrived, then `PeerDown`, and every later post on
    /// either fails.
    pub fn disconnect(&self) {
        self.slot.fail();
        if let Some(peer) = self.peer_slot() {
            peer.fail();
        }
    }

    /// The fabric's entry for the connected peer, while it exists.
    fn peer_slot(&self) -> Option<Arc<QpSlot>> {
        let remote = (*self.slot.remote.lock())?;
        self.fabric.inner.qps.lock().get(&remote.qp_id).cloned()
    }

    /// The peer a post targets: `NotConnected` before [`QueuePair::connect`],
    /// `PeerDown` once this node is dead or this queue pair in the error
    /// state.
    fn live_remote(&self) -> Result<QpEndpoint, VerbsError> {
        let remote = self.slot.remote.lock().ok_or(VerbsError::NotConnected)?;
        if self.fabric.is_dead(self.node) || self.slot.failed() {
            return Err(VerbsError::PeerDown);
        }
        Ok(remote)
    }

    /// Post a receive buffer. Consumed in FIFO order by incoming sends and
    /// RDMA-writes-with-immediate.
    pub fn post_recv(&self, wr_id: u64, mr: MemoryRegion) {
        self.recv_queue.posted.lock().push_back((wr_id, mr));
    }

    /// Number of currently posted receive buffers (on a queue pair made
    /// on an SRQ, the SRQ's).
    pub fn posted_recvs(&self) -> usize {
        self.recv_queue.posted.lock().len()
    }

    /// Arm this queue pair's readiness hook: it fires (charge-free, on the
    /// sender's thread) each time a peer posts a completion into this QP's
    /// inbox, and once when it enters the error state — the event-driven
    /// alternative to polling [`QueuePair::recv_pending`].
    pub fn set_recv_interest(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.slot.wake.set(hook);
    }

    /// The connected peer's entry, to post a completion into. A peer
    /// destroyed or in the error state puts this queue pair there too.
    fn peer_inbox(&self, remote: QpEndpoint) -> Result<Arc<QpSlot>, VerbsError> {
        if self.fabric.is_dead(remote.node) || self.fabric.is_partitioned(self.node, remote.node) {
            return Err(VerbsError::PeerDown);
        }
        let slot = self.fabric.inner.qps.lock().get(&remote.qp_id).cloned();
        match slot {
            Some(slot) if !slot.failed() => Ok(slot),
            _ => {
                self.slot.fail();
                Err(VerbsError::PeerDown)
            }
        }
    }

    fn charge_send(&self, remote: NodeId, len: usize) -> (Instant, Duration) {
        let stack = self.fabric.model().stack_ns(len);
        self.charge_flow(remote, stack, len)
    }

    /// Charge one egress flow: `stack_ns` of host/verbs overhead, wire
    /// serialization of `wire_bytes`, one propagation latency, and one
    /// fault draw. `charge_send` is the single-message case; a vectored
    /// write chain passes the summed per-segment stack cost with the
    /// chain's total byte count.
    fn charge_flow(&self, remote: NodeId, stack_ns: u64, wire_bytes: usize) -> (Instant, Duration) {
        let model = *self.fabric.model();
        spin_ns(stack_ns);
        let wire = Duration::from_nanos(model.wire_ns(wire_bytes));
        let egress_end = match self.fabric.links(self.node) {
            Some(links) => links.egress.reserve_from(Instant::now(), wire),
            None => Instant::now() + wire,
        };
        spin_until(egress_end);
        let fault = self.fabric.fault_delay(self.node, remote);
        // Ledger: sender-side one-way costs (verbs overhead, wire
        // serialization, propagation, injected fault delay).
        self.fabric.charge_modeled(
            self.node,
            stack_ns + wire.as_nanos() as u64 + model.base_latency_ns + fault.as_nanos() as u64,
        );
        let arrive_start = egress_end - wire + Duration::from_nanos(model.base_latency_ns) + fault;
        (arrive_start, wire)
    }

    /// Two-sided send of `mr[offset..offset+len]` with an immediate value.
    /// Completes (locally) when the bytes have left the NIC.
    pub fn post_send(
        &self,
        mr: &MemoryRegion,
        offset: usize,
        len: usize,
        imm: u32,
    ) -> Result<(), VerbsError> {
        let remote = self.live_remote()?;
        let inbox = self.peer_inbox(remote)?;
        // "DMA" out of registered memory — the HCA's work, so the staging
        // allocation is excluded from application alloc accounting.
        let data = {
            let buf = mr.inner.buf.lock();
            bounds_check(offset, len, buf.len())?;
            crate::hw::hw_scope(|| Bytes::copy_from_slice(&buf[offset..offset + len]))
        };
        let (arrive_start, wire) = self.charge_send(remote.node, len);
        // Injected loss: the post "completed" at the sender but the message
        // never arrives — the receiver only notices via its poll timeout.
        if self.fabric.fault_drops(self.node, remote.node) {
            return Ok(());
        }
        // Counted before it can be received, so a receiver that has read
        // it never reads a count without it.
        let stats = self.fabric.stats();
        stats.messages.fetch_add(1, Ordering::Relaxed);
        stats.bytes.fetch_add(len as u64, Ordering::Relaxed);
        inbox
            .tx
            .send(Some(QpMessage::Send {
                arrive_start,
                wire,
                data,
                imm,
            }))
            .map_err(|_| VerbsError::PeerDown)?;
        // Completion posted: wake the receiver if it armed a hook. An
        // injected drop returned above without sending, so — like the
        // polling model — a lost message produces no readiness signal.
        inbox.wake.fire();
        Ok(())
    }

    /// One-sided RDMA write: place `mr[offset..offset+len]` into the remote
    /// region at `remote_offset`. With `imm`, the responder observes a
    /// completion (consuming one posted receive WQE, as on real hardware);
    /// without it the write is silent.
    pub fn rdma_write(
        &self,
        mr: &MemoryRegion,
        offset: usize,
        len: usize,
        rkey: RemoteKey,
        remote_offset: usize,
        imm: Option<u32>,
    ) -> Result<(), VerbsError> {
        let remote = self.live_remote()?;
        if self.fabric.is_dead(rkey.node) || self.fabric.is_partitioned(self.node, rkey.node) {
            return Err(VerbsError::PeerDown);
        }
        let target = self
            .fabric
            .inner
            .mrs
            .lock()
            .get(&rkey.mr_id)
            .and_then(Weak::upgrade)
            .ok_or(VerbsError::BadRemoteKey)?;

        let (arrive_start, wire) = {
            // Stage the payload, charge the wire.
            let src = mr.inner.buf.lock();
            bounds_check(offset, len, src.len())?;
            let (arrive_start, wire) = {
                // Charge before copying into the remote region so the
                // remote never observes bytes "before" they arrived.
                drop(src);
                self.charge_send(rkey.node, len)
            };
            // Injected loss: the write is charged at the sender but never
            // lands remotely, and no completion is delivered.
            if self.fabric.fault_drops(self.node, rkey.node) {
                return Ok(());
            }
            let src = mr.inner.buf.lock();
            let mut dst = target.buf.lock();
            bounds_check(remote_offset, len, dst.len())?;
            dst[remote_offset..remote_offset + len].copy_from_slice(&src[offset..offset + len]);
            (arrive_start, wire)
        };

        let stats = self.fabric.stats();
        stats.rdma_writes.fetch_add(1, Ordering::Relaxed);
        stats.bytes.fetch_add(len as u64, Ordering::Relaxed);

        if let Some(imm) = imm {
            let inbox = self.peer_inbox(remote)?;
            inbox
                .tx
                .send(Some(QpMessage::WriteImm {
                    arrive_start,
                    wire,
                    len,
                    imm,
                }))
                .map_err(|_| VerbsError::PeerDown)?;
            inbox.wake.fire();
        } else {
            // A silent write has no completion for `poll_recv` to account,
            // but the bytes still serialize through the target's ingress
            // link: reserve the window and charge the target's ledger here,
            // mirroring what `poll_recv` does for announced messages. No
            // receiver thread is involved — that is the point of one-sided.
            if let Some(links) = self.fabric.links(rkey.node) {
                let _ = links.ingress.reserve_from(arrive_start, wire);
            }
            self.fabric
                .charge_modeled(rkey.node, wire.as_nanos() as u64);
        }
        Ok(())
    }

    /// A chain of one-sided writes posted back-to-back and rung with one
    /// doorbell — the gather path's scatter list. Segments are
    /// `(mr, offset, len, remote_offset)`. The chain is charged as ONE
    /// flow: per-segment verbs/stack overhead (each work request is
    /// posted and its source touched), wire serialization of the total
    /// byte count, and a single propagation latency and fault draw —
    /// back-to-back writes on one queue pair pipeline on the wire; they
    /// do not propagate k times. With `imm`, one completion announces
    /// the whole chain after its last byte; without it the chain is
    /// silent and the target's ingress is charged here. An injected
    /// drop loses the entire chain: charged at the sender, nothing
    /// lands, no completion.
    /// `segs` is consumed twice (validation, then placement), so it is a
    /// cloneable iterator rather than a slice — callers with preexisting
    /// segment lists pass `list.iter().copied()`, and hot paths can
    /// describe the chain computationally without materializing it.
    pub fn rdma_write_vectored<'a, I>(
        &self,
        segs: I,
        rkey: RemoteKey,
        imm: Option<u32>,
    ) -> Result<(), VerbsError>
    where
        I: IntoIterator<Item = (&'a MemoryRegion, usize, usize, usize)> + Clone,
    {
        let remote = self.live_remote()?;
        if self.fabric.is_dead(rkey.node) || self.fabric.is_partitioned(self.node, rkey.node) {
            return Err(VerbsError::PeerDown);
        }
        let target = self
            .fabric
            .inner
            .mrs
            .lock()
            .get(&rkey.mr_id)
            .and_then(Weak::upgrade)
            .ok_or(VerbsError::BadRemoteKey)?;

        // Validate every segment against both ends before any cost is
        // charged or any byte lands: a bad chain is rejected whole.
        let mut total = 0usize;
        let mut stack = 0u64;
        let mut nsegs = 0u64;
        {
            let model = self.fabric.model();
            let dst_len = target.buf.lock().len();
            for (mr, offset, len, remote_offset) in segs.clone() {
                bounds_check(offset, len, mr.inner.buf.lock().len())?;
                bounds_check(remote_offset, len, dst_len)?;
                total += len;
                stack += model.stack_ns(len);
                nsegs += 1;
            }
        }

        let (arrive_start, wire) = self.charge_flow(rkey.node, stack, total);
        if self.fabric.fault_drops(self.node, rkey.node) {
            return Ok(());
        }
        {
            let mut dst = target.buf.lock();
            for (mr, offset, len, remote_offset) in segs {
                let src = mr.inner.buf.lock();
                dst[remote_offset..remote_offset + len].copy_from_slice(&src[offset..offset + len]);
            }
        }

        let stats = self.fabric.stats();
        stats.rdma_writes.fetch_add(nsegs, Ordering::Relaxed);
        stats.bytes.fetch_add(total as u64, Ordering::Relaxed);

        match imm {
            Some(imm) => {
                let inbox = self.peer_inbox(remote)?;
                inbox
                    .tx
                    .send(Some(QpMessage::WriteImm {
                        arrive_start,
                        wire,
                        len: total,
                        imm,
                    }))
                    .map_err(|_| VerbsError::PeerDown)?;
                inbox.wake.fire();
            }
            None => {
                // Mirror the silent single-write path: the bytes still
                // serialize through the target's ingress link.
                if let Some(links) = self.fabric.links(rkey.node) {
                    let _ = links.ingress.reserve_from(arrive_start, wire);
                }
                self.fabric
                    .charge_modeled(rkey.node, wire.as_nanos() as u64);
            }
        }
        Ok(())
    }

    /// Whether a completion is waiting in this queue pair's completion
    /// channel right now — a `poll_recv` would return without blocking.
    /// Nothing is consumed or charged; this is the readiness primitive
    /// event-loop receivers poll across many queue pairs. A queue pair in
    /// the error state is ready too: its poller must observe the
    /// `PeerDown` instead of skipping it forever.
    pub fn recv_pending(&self) -> bool {
        !self.inbox.is_empty() || self.slot.failed()
    }

    /// Block until a receive completion is available (or `timeout` passes).
    ///
    /// For `Send` messages the payload is placed into the oldest posted
    /// receive buffer; for RDMA-write-with-immediate only the immediate is
    /// delivered (the data is already in the targeted region). Either
    /// consumes one buffer of the receive queue, shared or not. In the
    /// error state it returns what had arrived, then `PeerDown` at once;
    /// entering it wakes a blocked poll.
    pub fn poll_recv(&self, timeout: Duration) -> Result<Completion, VerbsError> {
        let next = if self.slot.failed() {
            self.inbox.try_recv().map_err(|_| VerbsError::PeerDown)
        } else {
            self.inbox.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => VerbsError::Timeout,
                RecvTimeoutError::Disconnected => VerbsError::PeerDown,
            })
        };
        // `None` is the flush marker: the error state, behind what arrived.
        let Some(msg) = next? else {
            return Err(VerbsError::PeerDown);
        };
        let (arrive_start, wire) = match &msg {
            QpMessage::Send {
                arrive_start, wire, ..
            } => (*arrive_start, *wire),
            QpMessage::WriteImm {
                arrive_start, wire, ..
            } => (*arrive_start, *wire),
        };
        let ingress_end = match self.fabric.links(self.node) {
            Some(links) => links.ingress.reserve_from(arrive_start, wire),
            None => arrive_start + wire,
        };
        // Ledger: receiver-side ingress serialization of the message.
        self.fabric
            .charge_modeled(self.node, wire.as_nanos() as u64);
        spin_until(ingress_end);

        match msg {
            QpMessage::Send { data, imm, .. } => {
                let (wr_id, mr) = self.recv_queue.take(Some(data.len()))?;
                mr.inner.buf.lock()[..data.len()].copy_from_slice(&data);
                Ok(Completion {
                    kind: CompletionKind::Recv,
                    wr_id,
                    len: data.len(),
                    imm,
                })
            }
            QpMessage::WriteImm { len, imm, .. } => {
                let (wr_id, _mr) = self.recv_queue.take(None)?;
                Ok(Completion {
                    kind: CompletionKind::RecvRdmaWithImm,
                    wr_id,
                    len,
                    imm,
                })
            }
        }
    }
}

impl Drop for QueuePair {
    /// Destroying a queue pair puts its peer in the error state.
    fn drop(&mut self) {
        self.fabric.inner.qps.lock().remove(&self.id);
        if let Some(peer) = self.peer_slot() {
            peer.fail();
        }
    }
}

impl std::fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueuePair(id={}, node={})", self.id, self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{IB_QDR_VERBS, IPOIB_QDR};

    fn connected_pair(fabric: &Fabric) -> (QueuePair, QueuePair, RdmaDevice, RdmaDevice) {
        let a = fabric.add_node();
        let b = fabric.add_node();
        let dev_a = RdmaDevice::open(fabric, a).unwrap();
        let dev_b = RdmaDevice::open(fabric, b).unwrap();
        let qa = dev_a.create_qp();
        let qb = dev_b.create_qp();
        qa.connect(qb.endpoint());
        qb.connect(qa.endpoint());
        (qa, qb, dev_a, dev_b)
    }

    #[test]
    fn verbs_requires_rdma_capable_model() {
        let fabric = Fabric::new(IPOIB_QDR);
        let n = fabric.add_node();
        assert!(RdmaDevice::open(&fabric, n).is_err());
    }

    #[test]
    fn send_recv_roundtrip() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(1024);
        let dst = dev_b.register(1024);
        src.write_at(0, b"rdma says hi").unwrap();
        qb.post_recv(7, dst.clone());
        qa.post_send(&src, 0, 12, 0xfeed).unwrap();
        let c = qb.poll_recv(Duration::from_secs(1)).unwrap();
        assert_eq!(c.kind, CompletionKind::Recv);
        assert_eq!(c.wr_id, 7);
        assert_eq!(c.len, 12);
        assert_eq!(c.imm, 0xfeed);
        let mut out = [0u8; 12];
        dst.read_at(0, &mut out).unwrap();
        assert_eq!(&out, b"rdma says hi");
    }

    #[test]
    fn send_without_posted_recv_is_rnr() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, _dev_b) = connected_pair(&fabric);
        let src = dev_a.register(64);
        qa.post_send(&src, 0, 8, 0).unwrap();
        assert_eq!(
            qb.poll_recv(Duration::from_secs(1)).unwrap_err(),
            VerbsError::ReceiverNotReady
        );
    }

    #[test]
    fn send_to_unconnected_qp_fails() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let n = fabric.add_node();
        let dev = RdmaDevice::open(&fabric, n).unwrap();
        let qp = dev.create_qp();
        let mr = dev.register(16);
        assert_eq!(
            qp.post_send(&mr, 0, 4, 0).unwrap_err(),
            VerbsError::NotConnected
        );
    }

    #[test]
    fn rdma_write_places_bytes_remotely() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(4096);
        let dst = dev_b.register(4096);
        let payload: Vec<u8> = (0..=255).cycle().take(4000).map(|b: u8| b).collect();
        src.write_at(0, &payload).unwrap();
        // Imm consumes a posted recv.
        qb.post_recv(42, dst.clone());
        qa.rdma_write(&src, 0, 4000, dst.remote_key(), 96, Some(0xabcd))
            .unwrap();
        let c = qb.poll_recv(Duration::from_secs(1)).unwrap();
        assert_eq!(c.kind, CompletionKind::RecvRdmaWithImm);
        assert_eq!(c.wr_id, 42);
        assert_eq!(c.len, 4000);
        assert_eq!(c.imm, 0xabcd);
        let mut out = vec![0u8; 4000];
        dst.read_at(96, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn silent_rdma_write_delivers_no_completion() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(64);
        let dst = dev_b.register(64);
        src.write_at(0, b"quiet").unwrap();
        qa.rdma_write(&src, 0, 5, dst.remote_key(), 0, None)
            .unwrap();
        assert_eq!(
            qb.poll_recv(Duration::from_millis(40)).unwrap_err(),
            VerbsError::Timeout
        );
        let mut out = [0u8; 5];
        dst.read_at(0, &mut out).unwrap();
        assert_eq!(&out, b"quiet");
    }

    #[test]
    fn silent_rdma_write_charges_target_ingress() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, _qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(8192);
        let dst = dev_b.register(8192);
        let before = fabric.modeled_ns(dev_b.node());
        qa.rdma_write(&src, 0, 8000, dst.remote_key(), 0, None)
            .unwrap();
        let charged = fabric.modeled_ns(dev_b.node()) - before;
        assert_eq!(
            charged,
            IB_QDR_VERBS.wire_ns(8000),
            "silent write must charge the target's wire serialization"
        );
    }

    #[test]
    fn rdma_write_to_dropped_region_is_bad_rkey() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, _qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(64);
        let dst = dev_b.register(64);
        let rkey = dst.remote_key();
        drop(dst);
        assert_eq!(
            qa.rdma_write(&src, 0, 8, rkey, 0, None).unwrap_err(),
            VerbsError::BadRemoteKey
        );
    }

    #[test]
    fn bounds_are_enforced() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let n = fabric.add_node();
        let dev = RdmaDevice::open(&fabric, n).unwrap();
        let mr = dev.register(32);
        assert!(matches!(
            mr.write_at(30, &[0; 4]),
            Err(VerbsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            mr.read_at(33, &mut [0; 1]),
            Err(VerbsError::OutOfBounds { .. })
        ));
        assert!(mr.write_at(28, &[0; 4]).is_ok());
    }

    #[test]
    fn recv_buffer_too_small_is_reported() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(256);
        let tiny = dev_b.register(16);
        qb.post_recv(1, tiny);
        qa.post_send(&src, 0, 128, 0).unwrap();
        assert!(matches!(
            qb.poll_recv(Duration::from_secs(1)).unwrap_err(),
            VerbsError::RecvBufferTooSmall {
                needed: 128,
                posted: 16
            }
        ));
    }

    #[test]
    fn killed_node_fails_verbs_ops() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(64);
        let dst = dev_b.register(64);
        qb.post_recv(1, dst);
        fabric.kill_node(dev_b.node());
        assert_eq!(
            qa.post_send(&src, 0, 4, 0).unwrap_err(),
            VerbsError::PeerDown
        );
        assert_eq!(
            qb.poll_recv(Duration::from_millis(50)).unwrap_err(),
            VerbsError::PeerDown
        );
        fabric.revive_node(dev_b.node());
    }

    #[test]
    fn a_post_that_finds_the_peer_gone_ends_the_receive_after_what_arrived() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(64);
        qa.post_recv(1, dev_a.register(64));
        qb.post_send(&dev_b.register(64), 0, 4, 9).unwrap();
        drop(qb);
        assert_eq!(
            qa.post_send(&src, 0, 4, 0).unwrap_err(),
            VerbsError::PeerDown
        );
        assert_eq!(qa.poll_recv(Duration::from_secs(1)).unwrap().imm, 9);
        let start = Instant::now();
        assert_eq!(
            qa.poll_recv(Duration::from_secs(5)).unwrap_err(),
            VerbsError::PeerDown
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn endpoint_and_rkey_byte_roundtrip() {
        let ep = QpEndpoint {
            node: NodeId(0xdead),
            qp_id: 0x1122334455667788,
        };
        assert_eq!(QpEndpoint::from_bytes(ep.to_bytes()), ep);
        let rk = RemoteKey {
            node: NodeId(7),
            mr_id: 99,
        };
        assert_eq!(RemoteKey::from_bytes(rk.to_bytes()), rk);
    }

    #[test]
    fn verbs_latency_is_microseconds_not_tens() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (qa, qb, dev_a, dev_b) = connected_pair(&fabric);
        let src = dev_a.register(64);
        let dst = dev_b.register(64);
        qb.post_recv(1, dst);
        let start = Instant::now();
        qa.post_send(&src, 0, 8, 0).unwrap();
        qb.poll_recv(Duration::from_secs(1)).unwrap();
        let oneway = start.elapsed();
        // Model says ~1.7us one-way + 0.6us post; allow slack for the
        // channel hop, but it must be far below socket-stack territory.
        assert!(
            oneway < Duration::from_micros(200),
            "verbs too slow: {oneway:?}"
        );
    }

    /// Two senders, each connected to its own queue pair on one node, and
    /// that node's SRQ the two queue pairs were made on.
    fn two_pairs_on_one_srq(
        fabric: &Fabric,
    ) -> (
        [QueuePair; 2],
        [QueuePair; 2],
        SharedRecvQueue,
        RdmaDevice,
        RdmaDevice,
    ) {
        let (a, b) = (fabric.add_node(), fabric.add_node());
        let dev_a = RdmaDevice::open(fabric, a).unwrap();
        let dev_b = RdmaDevice::open(fabric, b).unwrap();
        let srq = dev_b.create_srq();
        let senders = [dev_a.create_qp(), dev_a.create_qp()];
        let receivers = [dev_b.create_qp_on(&srq), dev_b.create_qp_on(&srq)];
        for (s, r) in senders.iter().zip(&receivers) {
            s.connect(r.endpoint());
            r.connect(s.endpoint());
        }
        (senders, receivers, srq, dev_a, dev_b)
    }

    #[test]
    fn queue_pairs_on_one_srq_get_their_own_completions_from_its_buffers_in_order() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let ([s0, s1], [r0, r1], srq, dev_a, dev_b) = two_pairs_on_one_srq(&fabric);
        let bufs: Vec<_> = (0..3).map(|_| dev_b.register(64)).collect();
        for (wr, mr) in bufs.iter().enumerate() {
            srq.post_recv(wr as u64, mr.clone());
        }
        assert_eq!(
            (srq.posted(), r0.posted_recvs(), r1.posted_recvs()),
            (3, 3, 3)
        );
        let src = dev_a.register(64);
        src.write_at(0, b"onetwo").unwrap();
        s1.post_send(&src, 0, 3, 11).unwrap();
        s0.post_send(&src, 3, 3, 10).unwrap();
        // Each completion on its own queue pair; buffers in posting
        // order, whichever queue pair polls first.
        assert!(r0.recv_pending() && r1.recv_pending());
        let c0 = r0.poll_recv(Duration::from_secs(1)).unwrap();
        let c1 = r1.poll_recv(Duration::from_secs(1)).unwrap();
        assert_eq!((c0.imm, c0.wr_id, c1.imm, c1.wr_id), (10, 0, 11, 1));
        let mut out = [0u8; 3];
        bufs[0].read_at(0, &mut out).unwrap();
        assert_eq!(&out, b"two");
        bufs[1].read_at(0, &mut out).unwrap();
        assert_eq!(&out, b"one");
        // A write-with-immediate takes the next one too.
        s0.rdma_write(&src, 0, 6, bufs[2].remote_key(), 0, Some(12))
            .unwrap();
        let c = r0.poll_recv(Duration::from_secs(1)).unwrap();
        assert_eq!(
            (c.kind, c.wr_id, c.imm),
            (CompletionKind::RecvRdmaWithImm, 2, 12)
        );
        assert_eq!(srq.posted(), 0);
    }

    #[test]
    fn an_empty_srq_runs_its_limit_hook_and_the_completion_takes_what_it_posts() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let ([s0, _s1], [r0, _r1], srq, dev_a, dev_b) = two_pairs_on_one_srq(&fabric);
        let src = dev_a.register(64);
        // Without a hook an empty SRQ is an RNR, as a private queue is.
        s0.post_send(&src, 0, 8, 0).unwrap();
        assert_eq!(
            r0.poll_recv(Duration::from_secs(1)).unwrap_err(),
            VerbsError::ReceiverNotReady
        );
        let runs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (runs2, dev) = (Arc::clone(&runs), dev_b.clone());
        srq.set_limit_hook(Arc::new(move || {
            let wr = 100 + runs2.fetch_add(1, Ordering::Relaxed);
            Some((wr, dev.register(64)))
        }));
        s0.post_send(&src, 0, 8, 0).unwrap();
        assert_eq!(r0.poll_recv(Duration::from_secs(1)).unwrap().wr_id, 100);
        assert_eq!(srq.posted(), 0, "the hook's buffer went to the completion");
        // A posted buffer is taken before the hook is asked.
        srq.post_recv(7, dev_b.register(64));
        s0.post_send(&src, 0, 8, 0).unwrap();
        assert_eq!(r0.poll_recv(Duration::from_secs(1)).unwrap().wr_id, 7);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_message_too_big_for_the_next_buffer_leaves_it_posted() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let ([s0, _s1], [r0, _r1], srq, dev_a, dev_b) = two_pairs_on_one_srq(&fabric);
        let src = dev_a.register(256);
        srq.post_recv(1, dev_b.register(16));
        s0.post_send(&src, 0, 128, 0).unwrap();
        assert!(matches!(
            r0.poll_recv(Duration::from_secs(1)).unwrap_err(),
            VerbsError::RecvBufferTooSmall {
                needed: 128,
                posted: 16
            }
        ));
        assert_eq!(srq.posted(), 1);
    }

    #[test]
    fn registered_bytes_rise_on_register_and_fall_when_the_last_handle_drops() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let (a, b) = (fabric.add_node(), fabric.add_node());
        let dev = RdmaDevice::open(&fabric, a).unwrap();
        let big = dev.register(4096);
        let small = dev.register(100);
        let clone = big.clone();
        assert_eq!(fabric.registered_bytes(a), 4196);
        assert_eq!(fabric.registered_bytes(b), 0);
        drop(big);
        assert_eq!(fabric.registered_bytes(a), 4196, "a clone still holds it");
        drop(clone);
        drop(small);
        assert_eq!(fabric.registered_bytes(a), 0);
    }

    #[test]
    fn registration_counts_in_stats() {
        let fabric = Fabric::new(IB_QDR_VERBS);
        let n = fabric.add_node();
        let dev = RdmaDevice::open(&fabric, n).unwrap();
        let _a = dev.register(4096);
        let _b = dev.register(4096);
        let (_, _, _, regs) = fabric.stats().snapshot();
        assert_eq!(regs, 2);
    }
}
