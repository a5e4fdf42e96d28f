//! # bufpool — the history-based two-level buffer pool of RPCoIB
//!
//! Section III-C of the paper: stock Hadoop RPC allocates a fresh buffer
//! per call and cannot know the serialized size up front, so it pays
//! repeated reallocation-and-copy (Algorithm 1). RPCoIB replaces this with
//! a **two-level pool**:
//!
//! * the **native pool** ([`NativePool`]) owns pre-allocated,
//!   pre-registered RDMA-capable buffers arranged into powers-of-two size
//!   classes (128 B, 256 B, 512 B, 1 KB, … — the classes of the paper's
//!   Figure 3), so the per-call cost of acquiring RDMA-ready memory is a
//!   freelist pop instead of an allocation plus an HCA registration;
//! * the **shadow pool** ([`ShadowPool`]) lives in the managed layer and
//!   keys a *size history* by `<protocol, method>`. Because of the
//!   **message size locality** phenomenon (consecutive calls of the same
//!   kind have near-identical sizes), handing out a buffer of the
//!   historically appropriate class almost always avoids any adjustment;
//!   when the guess is wrong the caller re-acquires at double the class and
//!   the history is corrected, and over-sized records are shrunk back.
//!
//! The pool is generic over its backing memory ([`PoolMem`]) so the same
//! logic can run over registered [`simnet::MemoryRegion`]s (production) or
//! plain heap buffers ([`HeapMem`], for tests and for quantifying the
//! benefit of pre-registration in the ablation benchmarks).
//!
//! The design has two tiers, one per kind of memory:
//!
//! * the **registered tier** is the two levels above, one per node's HCA:
//!   what goes on the wire is written into it;
//! * the **heap tier** ([`HeapTier`], one per RPC server) keeps the
//!   response bodies the server shares between its retry cache, replays
//!   and senders, and the buffers bulk parameters are read into, as
//!   size-classed spares under a byte budget of its own. Its size history
//!   is the caller's: the server's last body size per method.
//!
//! ```
//! use bufpool::{HeapMem, NativePool, ShadowPool, SizeClasses};
//!
//! let pool = ShadowPool::new(
//!     NativePool::new(SizeClasses::up_to(64 * 1024), HeapMem::new),
//!     true, // use the <protocol, method> size history
//! );
//!
//! // Cold call: smallest class.
//! let buf = pool.acquire("DatanodeProtocol", "blockReceived");
//! assert_eq!(buf.capacity(), 128);
//! drop(buf);
//!
//! // The call turned out to need ~430 bytes (the paper's example);
//! // record it and the next acquisition is right-sized immediately.
//! pool.record("DatanodeProtocol", "blockReceived", 430);
//! let buf = pool.acquire("DatanodeProtocol", "blockReceived");
//! assert_eq!(buf.capacity(), 512);
//! ```

pub mod classes;
pub mod heap;
pub mod mem;
pub mod native;
pub mod shadow;

pub use classes::{class_capacity, class_for, SizeClasses};
pub use heap::HeapTier;
pub use mem::{HeapMem, PoolMem, RdmaMemFactory};
pub use native::{NativePool, PoolStats, PooledBuf};
pub use shadow::{ShadowPool, ShadowStats, SHRINK_HYSTERESIS};
