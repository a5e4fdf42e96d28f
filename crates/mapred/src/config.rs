//! MapReduce deployment configuration.

use std::time::Duration;

use mini_hdfs::HdfsConfig;
use rpcoib::RpcConfig;

/// Configuration for a mini-MapReduce deployment. The RPC configuration
/// covers every MapReduce control-plane conversation: TaskTracker ↔
/// JobTracker heartbeats, the task umbilical, and job submission.
#[derive(Debug, Clone)]
pub struct MrConfig {
    /// RPC engine settings; `rpc.ib_enabled` is the Figure 6 axis.
    pub rpc: RpcConfig,
    /// HDFS settings used by tasks (input/output I/O).
    pub hdfs: HdfsConfig,
    /// Concurrent map tasks per TaskTracker (the paper uses 8).
    pub map_slots: usize,
    /// Concurrent reduce tasks per TaskTracker (the paper uses 4).
    pub reduce_slots: usize,
    /// TaskTracker → JobTracker heartbeat interval.
    pub heartbeat: Duration,
    /// After this long without a heartbeat a TaskTracker is declared lost
    /// and its tasks are rescheduled.
    pub tt_timeout: Duration,
    /// Task `ping`/`statusUpdate` interval (umbilical traffic rate).
    pub status_interval: Duration,
    /// Records between `statusUpdate`s inside a tight task loop.
    pub status_every_records: usize,
    /// Maximum attempts per task before the job fails.
    pub max_task_attempts: u32,
    /// Launch speculative duplicate attempts for straggler tasks
    /// (Hadoop's speculative execution; the first finisher wins via the
    /// `canCommit` arbitration). Hadoop defaults this ON; here it
    /// defaults OFF because on a host with fewer cores than simulated
    /// nodes a duplicate attempt takes real CPU from the original.
    pub speculative: bool,
    /// A running task becomes a speculation candidate once it has run
    /// longer than `speculative_slowdown` × the median runtime of its
    /// job's completed peers (and at least `speculative_floor`).
    pub speculative_slowdown: f64,
    /// Minimum runtime before any task is considered a straggler.
    pub speculative_floor: Duration,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            rpc: RpcConfig::socket(),
            hdfs: HdfsConfig::default(),
            map_slots: 8,
            reduce_slots: 4,
            heartbeat: Duration::from_millis(200),
            tt_timeout: Duration::from_millis(2500),
            status_interval: Duration::from_millis(150),
            status_every_records: 20_000,
            max_task_attempts: 3,
            speculative: false,
            speculative_slowdown: 3.0,
            speculative_floor: Duration::from_millis(1500),
        }
    }
}

impl MrConfig {
    /// Everything socket-based (the paper's IPoIB baseline when run on the
    /// IPoIB Ethernet-rail model).
    pub fn socket() -> Self {
        MrConfig::default()
    }

    /// RPCoIB for all MapReduce + HDFS control-plane RPC, data paths
    /// unchanged — configuration (b) of Figure 6.
    pub fn rpc_ib() -> Self {
        let mut cfg = MrConfig {
            rpc: RpcConfig::rpcoib(),
            ..MrConfig::default()
        };
        cfg.hdfs.rpc = RpcConfig::rpcoib();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_slot_defaults() {
        let cfg = MrConfig::default();
        assert_eq!(cfg.map_slots, 8);
        assert_eq!(cfg.reduce_slots, 4);
        cfg.rpc.validate().unwrap();
    }

    #[test]
    fn rpc_ib_flips_both_planes() {
        let cfg = MrConfig::rpc_ib();
        assert!(cfg.rpc.ib_enabled);
        assert!(cfg.hdfs.rpc.ib_enabled);
        assert!(!cfg.hdfs.data_rdma, "data plane is not the Figure 6 axis");
    }
}
