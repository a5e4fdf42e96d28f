//! # rpcoib — Hadoop-style RPC with an RDMA fast path
//!
//! This crate is the primary contribution of the reproduced paper:
//!
//! > Xiaoyi Lu et al., *High-Performance Design of Hadoop RPC with RDMA
//! > over InfiniBand*, ICPP 2013.
//!
//! It contains a faithful re-implementation of the 0.20.x-era Hadoop RPC
//! engine with **two interchangeable transports** selected by the
//! `rpc.ib.enabled` switch ([`RpcConfig::ib_enabled`]):
//!
//! * the **socket baseline** ([`transport::socket`]), bottlenecks intact:
//!   Algorithm-1 serialization buffers, the `BufferedOutputStream` copy,
//!   per-call receive allocations, and kernel-stack costs;
//! * **RPCoIB** ([`transport::rdma`]): native verbs, serialization
//!   directly into a pre-registered two-level buffer pool keyed by
//!   `<protocol, method>` size history ([`bufpool`]), send/recv for small
//!   messages, one-sided RDMA writes (+ credit flow control) for large
//!   ones.
//!
//! The engine keeps the stages of Hadoop's thread architecture — callers
//! on the client; Listener, Readers, Handlers, Responder on the server —
//! but a thread that is already there does the neighbouring stage's work
//! when it can: the client has no Connection thread (the caller that is
//! waiting holds its connection's receive turn and reads the wire itself,
//! see [`client`]), the server has no Reader or Handler *roles* — one
//! pool of threads each reads a woken connection's burst and runs the
//! call it read, under a bounded number of run permits — and no Responder
//! thread: the thread that produced a response sends it, as
//! Hadoop's `doRespond` does, and one that finds the connection's send
//! turn taken leaves it for the turn's holder to send (see [`server`]).
//! Both transports expose the same [`transport::Conn`] interface,
//! mirroring the paper's stream-interface-compatibility design.
//!
//! ```
//! use rpcoib::{Client, RpcConfig, RpcService, Server, ServiceRegistry};
//! use simnet::{model, Fabric};
//! use std::sync::Arc;
//! use wire::{DataInput, IntWritable, Writable};
//!
//! struct Adder;
//! impl RpcService for Adder {
//!     fn protocol(&self) -> &'static str { "demo.Adder" }
//!     fn call(&self, method: &str, param: &mut dyn DataInput)
//!         -> Result<Box<dyn Writable + Send>, String>
//!     {
//!         assert_eq!(method, "add");
//!         let mut a = IntWritable::default();
//!         let mut b = IntWritable::default();
//!         a.read_fields(param).map_err(|e| e.to_string())?;
//!         b.read_fields(param).map_err(|e| e.to_string())?;
//!         Ok(Box::new(IntWritable(a.0 + b.0)))
//!     }
//! }
//!
//! let fabric = Fabric::new(model::IB_QDR_VERBS);
//! let server_node = fabric.add_node();
//! let client_node = fabric.add_node();
//!
//! let mut registry = ServiceRegistry::new();
//! registry.register(Arc::new(Adder));
//! let server = Server::start(&fabric, server_node, 8020,
//!                            RpcConfig::rpcoib(), registry).unwrap();
//!
//! let client = Client::new(&fabric, client_node, RpcConfig::rpcoib()).unwrap();
//! let sum: IntWritable = client
//!     .call(server.addr(), "demo.Adder", "add", &(IntWritable(2), IntWritable(40)))
//!     .unwrap();
//! assert_eq!(sum.0, 42);
//! ```

pub mod admission;
pub mod client;
pub mod config;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod hostcost;
pub mod intern;
pub mod metrics;
pub mod readiness;
pub mod retry;
pub mod retry_cache;
pub mod sched;
pub mod server;
pub mod service;
pub mod stream;
pub mod transport;

pub use admission::{AdmissionQueue, AdmitError, CallClass, CallMeta, Popped};
pub use client::{Client, RawResponse};
pub use config::RpcConfig;
pub use error::{RpcError, RpcResult};
pub use frame::{Payload, ResponseStatus, V3Decoder, V3Encoder};
pub use intern::{MethodId, MethodKey};
pub use metrics::{
    CallProfile, EngineCounters, HistogramSnapshot, LatencyHistogram, MethodEntry, MethodStats,
    MetricsRegistry, MetricsSnapshot, Phase, PhaseHistograms, PhaseSnapshot, PoolCounters,
    RecvProfile, ShardRole, ShardSnapshot, TenantSnapshot,
};
pub use readiness::{ReadyQueue, WakeState};
pub use retry::RetryPolicy;
pub use retry_cache::{Admission, RetryCache};
pub use sched::{CallPoll, HandlerCx, Sched, Step, WakeHandle};
pub use server::Server;
pub use service::{RpcService, ServiceRegistry};
pub use stream::RdmaOutputStream;
pub use transport::rdma::IbContext;
