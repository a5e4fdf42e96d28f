//! # mini-hbase — a miniature HBase with a YCSB driver
//!
//! Figure 8 of the paper evaluates HBase Get/Put throughput under five
//! transport configurations, crossing the **operation plane** (client ↔
//! HRegionServer, either sockets or the RDMA-based "HBaseoIB" design of
//! Huang et al., IPDPS'11) with the **RPC plane** (Hadoop RPC carrying
//! HMaster lookups and the region servers' HDFS traffic, either sockets
//! or RPCoIB). This crate implements both planes:
//!
//! * [`HMaster`] — static range assignment of regions to region servers,
//!   served over `hbase.MasterProtocol`;
//! * [`HRegionServer`] — per-region memstores with write-ahead-log
//!   segments and memstore flushes persisted to mini-HDFS (this is what
//!   makes Put workloads RPC-intensive, as §IV-E explains), store files
//!   cleaned to a bounded multiple of the live rows, serving
//!   `hbase.RegionServerProtocol` on the operation plane;
//! * [`HBaseClient`] — region-map caching client;
//! * [`ycsb`] — a YCSB-style workload driver (load + run phases, get/put
//!   mixes, uniform and zipfian key choosers);
//! * [`MiniHbase`] — harness booting HDFS + master + N region servers.
//!
//! Substitution note: regions are hash-partitioned rather than
//! range-partitioned (YCSB's hashed keys make range splits equivalent in
//! load), and reads are served from memstore + an in-memory store-file
//! cache (standing in for HBase's block cache).
//!
//! ```
//! use mini_hbase::{HBaseConfig, MiniHbase};
//!
//! let hbase = MiniHbase::start(simnet::model::TEN_GIG_E, 2, HBaseConfig::socket()).unwrap();
//! let client = hbase.client().unwrap();
//! client.put(b"user42", b"hello").unwrap();
//! assert_eq!(client.get(b"user42").unwrap().as_deref(), Some(b"hello".as_slice()));
//! assert!(client.delete(b"user42").unwrap());
//! client.shutdown();
//! hbase.stop();
//! ```

pub mod client;
pub mod cluster;
pub mod config;
pub mod master;
pub mod regionserver;
pub mod types;
pub mod ycsb;

pub use client::HBaseClient;
pub use cluster::MiniHbase;
pub use config::HBaseConfig;
pub use master::HMaster;
pub use regionserver::HRegionServer;
pub use types::RegionInfo;

/// HMaster RPC port.
pub const MASTER_PORT: u16 = 60000;
/// HRegionServer operation-plane port.
pub const RS_PORT: u16 = 60020;
