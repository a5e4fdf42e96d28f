//! # simnet — an in-process fabric simulator
//!
//! This crate is the hardware substitute for the ICPP'13 RPCoIB reproduction.
//! The paper evaluates on QDR InfiniBand HCAs, IPoIB, 10GigE iWARP NICs and
//! 1GigE; none of those are available here, so `simnet` provides the two
//! transport substrates the paper's software stack needs, with calibrated
//! delay injection in place of real wires:
//!
//! * [`stream`] — socket-like byte streams ([`SimListener`] / [`SimStream`])
//!   whose write path performs a real staging copy (emulating the kernel
//!   socket buffer) and charges a per-operation protocol-stack overhead, a
//!   per-message one-way latency, and size/bandwidth wire time.
//! * [`verbs`] — an RDMA-verbs-style API ([`RdmaDevice`], [`MemoryRegion`],
//!   [`QueuePair`], completion polling) with two-sided send/recv and
//!   one-sided RDMA write (optionally with immediate data), charged at the
//!   much lower native-IB cost and with **no** protocol-stack copies.
//!
//! All costs come from a [`NetworkModel`]; presets for the paper's four
//! fabrics are in [`model`]. Simulated cluster nodes are logical
//! ([`NodeId`]): each node gets its own egress/ingress link clocks so that
//! flows sharing a NIC contend for bandwidth the way real flows do.
//!
//! Delays are injected as precise busy-waits ([`time::spin_until`]) because
//! OS sleep is far too coarse at the microsecond scale the paper measures.
//!
//! The simulator also supports failure injection so the upper layers
//! (HDFS pipeline recovery, RPC retry/reconnect paths) can be tested:
//! whole-node and whole-link failures ([`Fabric::kill_node`],
//! [`Fabric::partition`]), per-link delay/jitter/loss impairments
//! ([`Fabric::set_link_fault`] with a [`FaultSpec`]), and listener-side
//! connect refusals and mid-handshake drops
//! ([`Fabric::fail_next_connects`], [`Fabric::fail_next_accepts`]); see
//! [`faults`] for the semantics on each substrate.
//!
//! ```
//! use simnet::{model, Fabric, RdmaDevice};
//! use std::time::Duration;
//!
//! let fabric = Fabric::new(model::IB_QDR_VERBS);
//! let (a, b) = (fabric.add_node(), fabric.add_node());
//! let dev_a = RdmaDevice::open(&fabric, a).unwrap();
//! let dev_b = RdmaDevice::open(&fabric, b).unwrap();
//!
//! // Connect a queue pair, pre-post a receive, send.
//! let qa = dev_a.create_qp();
//! let qb = dev_b.create_qp();
//! qa.connect(qb.endpoint());
//! qb.connect(qa.endpoint());
//! let src = dev_a.register(128);
//! let dst = dev_b.register(128);
//! src.write_at(0, b"over the wire").unwrap();
//! qb.post_recv(1, dst.clone());
//! qa.post_send(&src, 0, 13, 0).unwrap();
//!
//! let completion = qb.poll_recv(Duration::from_secs(1)).unwrap();
//! let mut got = vec![0u8; completion.len];
//! dst.read_at(0, &mut got).unwrap();
//! assert_eq!(got, b"over the wire");
//! ```

pub mod fabric;
pub mod faults;
pub mod hw;
pub mod model;
pub mod stream;
pub mod time;
pub mod topology;
pub mod verbs;

pub use fabric::{Fabric, FabricStats, NodeId, SimAddr, WakeSlot};
pub use faults::FaultSpec;
pub use hw::{hw_scope, in_hw_scope};
pub use model::NetworkModel;
pub use stream::{ListenerCloser, SimListener, SimStream};
pub use time::{fast_forward, set_fast_forward, Clock};
pub use topology::{Cluster, Host};
pub use verbs::{
    Completion, CompletionKind, LimitHook, MemoryRegion, QpEndpoint, QueuePair, RdmaDevice,
    RemoteKey, SharedRecvQueue,
};

/// Errors surfaced by the simulated fabric.
///
/// Socket-side APIs use `std::io::Error` (so they can implement
/// `Read`/`Write`); verbs-side APIs use this enum, mirroring how real verbs
/// report errors through work-completion status rather than errno.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerbsError {
    /// The peer queue pair (or its node) is gone.
    PeerDown,
    /// `post_send` on a queue pair that was never connected.
    NotConnected,
    /// The receiver had no posted receive buffer (receiver-not-ready).
    ReceiverNotReady,
    /// A posted receive buffer was too small for the incoming message.
    RecvBufferTooSmall { needed: usize, posted: usize },
    /// Access outside the bounds of a registered memory region.
    OutOfBounds {
        offset: usize,
        len: usize,
        region: usize,
    },
    /// The referenced remote memory region does not exist (bad rkey).
    BadRemoteKey,
    /// Polled past the configured timeout with no completion.
    Timeout,
}

impl std::fmt::Display for VerbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerbsError::PeerDown => write!(f, "peer queue pair or node is down"),
            VerbsError::NotConnected => write!(f, "queue pair not connected"),
            VerbsError::ReceiverNotReady => write!(f, "no posted receive buffer (RNR)"),
            VerbsError::RecvBufferTooSmall { needed, posted } => {
                write!(
                    f,
                    "posted recv buffer too small: need {needed}, have {posted}"
                )
            }
            VerbsError::OutOfBounds {
                offset,
                len,
                region,
            } => {
                write!(
                    f,
                    "MR access out of bounds: [{offset}, +{len}) in region of {region}"
                )
            }
            VerbsError::BadRemoteKey => write!(f, "unknown remote memory region (bad rkey)"),
            VerbsError::Timeout => write!(f, "verbs poll timeout"),
        }
    }
}

impl std::error::Error for VerbsError {}
