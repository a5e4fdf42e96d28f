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
//! [`VerbsError::BadRemoteKey`].

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::fabric::{Fabric, NodeId, WakeSlot};
use crate::time::{spin_ns, spin_until};
use crate::VerbsError;

/// A queue pair's fabric-side entry: its completion inbox plus the wake
/// slot its owner may arm with [`QueuePair::set_recv_interest`]. Senders
/// fire the slot right after posting a completion, so an event-driven
/// receiver learns of pending work without polling [`QueuePair::recv_pending`].
#[derive(Clone)]
pub(crate) struct QpSlot {
    pub(crate) tx: Sender<QpMessage>,
    pub(crate) wake: WakeSlot,
}

/// How often blocked polls re-check for node failure.
const FAILURE_POLL: Duration = Duration::from_millis(10);

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
        let id = self.fabric.fresh_id();
        let inner = Arc::new(MrInner {
            id,
            node: self.node,
            buf: Mutex::new(vec![0u8; len].into_boxed_slice()),
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

    /// Create a queue pair (with its completion channel) on this device.
    pub fn create_qp(&self) -> QueuePair {
        let id = self.fabric.fresh_id();
        let (tx, rx) = unbounded();
        let wake = WakeSlot::new();
        self.fabric.inner.qps.lock().insert(
            id,
            QpSlot {
                tx,
                wake: wake.clone(),
            },
        );
        QueuePair {
            fabric: self.fabric.clone(),
            node: self.node,
            id,
            inbox: rx,
            recv_wake: wake,
            remote: Mutex::new(None),
            recv_queue: Mutex::new(VecDeque::new()),
        }
    }
}

pub(crate) struct MrInner {
    pub(crate) id: u64,
    pub(crate) node: NodeId,
    pub(crate) buf: Mutex<Box<[u8]>>,
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
    inbox: Receiver<QpMessage>,
    /// This QP's own wake slot (the same one registered in the fabric's
    /// `qps` map); armed by [`QueuePair::set_recv_interest`].
    recv_wake: WakeSlot,
    remote: Mutex<Option<QpEndpoint>>,
    recv_queue: Mutex<VecDeque<(u64, MemoryRegion)>>,
}

impl QueuePair {
    /// This QP's endpoint, to be shipped to the peer out of band.
    pub fn endpoint(&self) -> QpEndpoint {
        QpEndpoint {
            node: self.node,
            qp_id: self.id,
        }
    }

    /// Transition to connected: all sends now target `remote`.
    pub fn connect(&self, remote: QpEndpoint) {
        *self.remote.lock() = Some(remote);
    }

    /// Whether `connect` has been called.
    pub fn is_connected(&self) -> bool {
        self.remote.lock().is_some()
    }

    /// Post a receive buffer. Consumed in FIFO order by incoming sends and
    /// RDMA-writes-with-immediate.
    pub fn post_recv(&self, wr_id: u64, mr: MemoryRegion) {
        self.recv_queue.lock().push_back((wr_id, mr));
    }

    /// Number of currently posted receive buffers.
    pub fn posted_recvs(&self) -> usize {
        self.recv_queue.lock().len()
    }

    /// Arm this queue pair's readiness hook: it fires (charge-free, on the
    /// sender's thread) each time a peer posts a completion into this QP's
    /// inbox — the event-driven alternative to polling
    /// [`QueuePair::recv_pending`].
    pub fn set_recv_interest(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.recv_wake.set(hook);
    }

    fn peer_inbox(&self, remote: QpEndpoint) -> Result<QpSlot, VerbsError> {
        if self.fabric.is_dead(remote.node) || self.fabric.is_partitioned(self.node, remote.node) {
            return Err(VerbsError::PeerDown);
        }
        self.fabric
            .inner
            .qps
            .lock()
            .get(&remote.qp_id)
            .cloned()
            .ok_or(VerbsError::PeerDown)
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
        let remote = self.remote.lock().ok_or(VerbsError::NotConnected)?;
        if self.fabric.is_dead(self.node) {
            return Err(VerbsError::PeerDown);
        }
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
        inbox
            .tx
            .send(QpMessage::Send {
                arrive_start,
                wire,
                data,
                imm,
            })
            .map_err(|_| VerbsError::PeerDown)?;
        // Completion posted: wake the receiver if it armed a hook. An
        // injected drop returned above without sending, so — like the
        // polling model — a lost message produces no readiness signal.
        inbox.wake.fire();
        let stats = self.fabric.stats();
        stats.messages.fetch_add(1, Ordering::Relaxed);
        stats.bytes.fetch_add(len as u64, Ordering::Relaxed);
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
        let remote = self.remote.lock().ok_or(VerbsError::NotConnected)?;
        if self.fabric.is_dead(self.node)
            || self.fabric.is_dead(rkey.node)
            || self.fabric.is_partitioned(self.node, rkey.node)
        {
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
                .send(QpMessage::WriteImm {
                    arrive_start,
                    wire,
                    len,
                    imm,
                })
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
        let remote = self.remote.lock().ok_or(VerbsError::NotConnected)?;
        if self.fabric.is_dead(self.node)
            || self.fabric.is_dead(rkey.node)
            || self.fabric.is_partitioned(self.node, rkey.node)
        {
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
                    .send(QpMessage::WriteImm {
                        arrive_start,
                        wire,
                        len: total,
                        imm,
                    })
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
    /// event-loop receivers poll across many queue pairs. Also reports
    /// ready when either endpoint's node is dead — a connected peer that
    /// died can never send again, so a poller must observe the
    /// `PeerDown` instead of skipping the queue pair forever. (Real
    /// verbs surfaces this as an async QP error event; the wake-slot
    /// model has no out-of-band event channel, so death is exposed as
    /// readiness and discovered by the receiver's liveness probe.)
    pub fn recv_pending(&self) -> bool {
        !self.inbox.is_empty() || self.fabric.is_dead(self.node) || self.remote_dead()
    }

    /// A connected remote endpoint whose node has been marked failed.
    /// Not-yet-connected queue pairs have no peer to be dead.
    fn remote_dead(&self) -> bool {
        match *self.remote.lock() {
            Some(ep) => self.fabric.is_dead(ep.node),
            None => false,
        }
    }

    /// Block until a receive completion is available (or `timeout` passes).
    ///
    /// For `Send` messages the payload is placed into the oldest posted
    /// receive buffer; for RDMA-write-with-immediate only the immediate is
    /// delivered (the data is already in the targeted region).
    pub fn poll_recv(&self, timeout: Duration) -> Result<Completion, VerbsError> {
        let deadline = Instant::now() + timeout;
        let msg = loop {
            if self.fabric.is_dead(self.node) {
                return Err(VerbsError::PeerDown);
            }
            // Completions already delivered before the peer died are
            // still consumable; only an empty channel surfaces the death.
            if self.inbox.is_empty() && self.remote_dead() {
                return Err(VerbsError::PeerDown);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(VerbsError::Timeout);
            }
            match self.inbox.recv_timeout(FAILURE_POLL.min(deadline - now)) {
                Ok(msg) => break msg,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(VerbsError::PeerDown),
            }
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
                let (wr_id, mr) = self
                    .recv_queue
                    .lock()
                    .pop_front()
                    .ok_or(VerbsError::ReceiverNotReady)?;
                let mut buf = mr.inner.buf.lock();
                if buf.len() < data.len() {
                    return Err(VerbsError::RecvBufferTooSmall {
                        needed: data.len(),
                        posted: buf.len(),
                    });
                }
                buf[..data.len()].copy_from_slice(&data);
                drop(buf);
                Ok(Completion {
                    kind: CompletionKind::Recv,
                    wr_id,
                    len: data.len(),
                    imm,
                })
            }
            QpMessage::WriteImm { len, imm, .. } => {
                let (wr_id, _mr) = self
                    .recv_queue
                    .lock()
                    .pop_front()
                    .ok_or(VerbsError::ReceiverNotReady)?;
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
    fn drop(&mut self) {
        self.fabric.inner.qps.lock().remove(&self.id);
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
