//! HDFS configuration and host networking selection.

use std::time::Duration;

use rpcoib::RpcConfig;
use simnet::{Cluster, Fabric, Host, NodeId};

/// Configuration for a mini-HDFS deployment.
#[derive(Debug, Clone)]
pub struct HdfsConfig {
    /// Control-plane RPC configuration. `rpc.ib_enabled` selects default
    /// Hadoop RPC vs RPCoIB — the axis Figure 7 sweeps.
    pub rpc: RpcConfig,
    /// Data path over RDMA (the paper's "HDFSoIB") instead of sockets.
    pub data_rdma: bool,
    /// Block size (scaled down from Hadoop's 64 MB default).
    pub block_size: usize,
    /// Replication factor (the paper uses 3).
    pub replication: usize,
    /// Data-transfer chunk ("packet") size.
    pub chunk: usize,
    /// DataNode heartbeat interval.
    pub heartbeat: Duration,
    /// After this long without a heartbeat a DataNode is considered dead.
    pub dn_timeout: Duration,
    /// An un-renewed write lease expires after this long; the NameNode
    /// then recovers it by force-completing the abandoned file.
    pub lease_timeout: Duration,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            rpc: RpcConfig::socket(),
            data_rdma: false,
            block_size: 2 * 1024 * 1024,
            replication: 3,
            chunk: 64 * 1024,
            heartbeat: Duration::from_millis(300),
            dn_timeout: Duration::from_millis(1500),
            lease_timeout: Duration::from_secs(30),
        }
    }
}

impl HdfsConfig {
    /// Everything over sockets (baseline).
    pub fn socket() -> Self {
        HdfsConfig::default()
    }

    /// RPCoIB control plane, socket data path ("HDFS(x)-RPCoIB").
    pub fn rpc_ib() -> Self {
        HdfsConfig {
            rpc: RpcConfig::rpcoib(),
            ..HdfsConfig::default()
        }
    }

    /// RDMA data path, socket RPC ("HDFSoIB-RPC(x)").
    pub fn data_ib() -> Self {
        HdfsConfig {
            data_rdma: true,
            ..HdfsConfig::default()
        }
    }

    /// Fully RDMA: HDFSoIB + RPCoIB — the paper's best configuration.
    pub fn all_ib() -> Self {
        HdfsConfig {
            rpc: RpcConfig::rpcoib(),
            data_rdma: true,
            ..HdfsConfig::default()
        }
    }

    /// The transport configuration used by data-transfer connections:
    /// chunks travel as send/recv messages, so the threshold is set to the
    /// chunk size and buffers are sized accordingly.
    pub fn data_rpc_config(&self) -> RpcConfig {
        RpcConfig {
            ib_enabled: self.data_rdma,
            rdma_threshold: self.chunk + 256,
            recv_buf_bytes: (self.chunk + 256).next_power_of_two(),
            large_region_bytes: ((self.chunk + 256).next_power_of_two() * 4).max(1024 * 1024),
            prefill_per_class: 2,
            ..RpcConfig::default()
        }
    }
}

/// The fabric/node pair a host uses for each plane, derived from the
/// dual-rail [`Cluster`] and the configuration.
#[derive(Clone)]
pub struct HostNet {
    pub rpc_fabric: Fabric,
    pub rpc_node: NodeId,
    pub data_fabric: Fabric,
    pub data_node: NodeId,
}

impl HostNet {
    /// Resolve the rails for `host`: RPC rides IB when RPCoIB is enabled,
    /// data rides IB when HDFSoIB is enabled, otherwise the Ethernet rail.
    pub fn of(cluster: &Cluster, host: Host, cfg: &HdfsConfig) -> HostNet {
        let (rpc_fabric, rpc_node) = if cfg.rpc.ib_enabled {
            (cluster.ib().clone(), cluster.ib_node(host))
        } else {
            (cluster.eth().clone(), cluster.eth_node(host))
        };
        let (data_fabric, data_node) = if cfg.data_rdma {
            (cluster.ib().clone(), cluster.ib_node(host))
        } else {
            (cluster.eth().clone(), cluster.eth_node(host))
        };
        HostNet {
            rpc_fabric,
            rpc_node,
            data_fabric,
            data_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::model;

    #[test]
    fn preset_configurations_match_paper_axes() {
        assert!(!HdfsConfig::socket().rpc.ib_enabled && !HdfsConfig::socket().data_rdma);
        assert!(HdfsConfig::rpc_ib().rpc.ib_enabled && !HdfsConfig::rpc_ib().data_rdma);
        assert!(!HdfsConfig::data_ib().rpc.ib_enabled && HdfsConfig::data_ib().data_rdma);
        assert!(HdfsConfig::all_ib().rpc.ib_enabled && HdfsConfig::all_ib().data_rdma);
    }

    #[test]
    fn data_rpc_config_is_valid_and_fits_chunks() {
        for cfg in [HdfsConfig::socket(), HdfsConfig::all_ib()] {
            let data = cfg.data_rpc_config();
            data.validate().unwrap();
            assert!(data.rdma_threshold > cfg.chunk);
            assert!(data.recv_buf_bytes >= data.rdma_threshold);
        }
    }

    #[test]
    fn host_net_selects_rails() {
        let cluster = Cluster::new(model::IPOIB_QDR, 2);
        let h = Host(0);
        let net = HostNet::of(&cluster, h, &HdfsConfig::socket());
        assert!(!net.rpc_fabric.model().rdma_capable);
        assert!(!net.data_fabric.model().rdma_capable);
        let net = HostNet::of(&cluster, h, &HdfsConfig::all_ib());
        assert!(net.rpc_fabric.model().rdma_capable);
        assert!(net.data_fabric.model().rdma_capable);
        let net = HostNet::of(&cluster, h, &HdfsConfig::data_ib());
        assert!(!net.rpc_fabric.model().rdma_capable);
        assert!(net.data_fabric.model().rdma_capable);
    }
}
