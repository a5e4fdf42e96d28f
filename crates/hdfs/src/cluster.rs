//! `MiniDfs`: boot a whole HDFS on a dual-rail simulated cluster.

use std::sync::Arc;
use std::time::Duration;

use rpcoib::RpcResult;
use simnet::{Cluster, Host, NetworkModel, SimAddr};

use crate::client::DfsClient;
use crate::config::{HdfsConfig, HostNet};
use crate::datanode::DataNode;
use crate::namenode::NameNode;

/// A booted mini-HDFS: one NameNode, N DataNodes, on `n + 2` hosts —
/// host 0 runs the NameNode, host 1 is reserved for a client (matching
/// the paper's Figure 7 setup where the NameNode and the client run on
/// nodes separate from the 32 DataNodes).
pub struct MiniDfs {
    cluster: Arc<Cluster>,
    cfg: HdfsConfig,
    namenode: NameNode,
    datanodes: Vec<DataNode>,
}

impl MiniDfs {
    /// Start with `n_datanodes` DataNodes; Ethernet rail runs `eth_model`.
    pub fn start(
        eth_model: NetworkModel,
        n_datanodes: usize,
        cfg: HdfsConfig,
    ) -> RpcResult<MiniDfs> {
        let cluster = Arc::new(Cluster::new(eth_model, n_datanodes + 2));
        Self::start_on(cluster, n_datanodes, cfg)
    }

    /// Start on an existing cluster (hosts `2..2+n` become DataNodes).
    pub fn start_on(
        cluster: Arc<Cluster>,
        n_datanodes: usize,
        cfg: HdfsConfig,
    ) -> RpcResult<MiniDfs> {
        assert!(
            cluster.len() >= n_datanodes + 2,
            "need n_datanodes + 2 hosts"
        );
        let nn_net = HostNet::of(&cluster, Host(0), &cfg);
        let namenode = NameNode::start(&nn_net.rpc_fabric, nn_net.rpc_node, cfg.clone())?;
        let nn_addr = namenode.addr();

        let mut datanodes = Vec::with_capacity(n_datanodes);
        for i in 0..n_datanodes {
            let net = HostNet::of(&cluster, Host(2 + i), &cfg);
            datanodes.push(DataNode::start(&net, nn_addr, cfg.clone())?);
        }

        let dfs = MiniDfs {
            cluster,
            cfg,
            namenode,
            datanodes,
        };
        dfs.namenode
            .await_datanodes(n_datanodes, Duration::from_secs(10))?;
        Ok(dfs)
    }

    /// The NameNode RPC address.
    pub fn nn_addr(&self) -> SimAddr {
        self.namenode.addr()
    }

    /// The underlying cluster (shared, cheap to clone the Arc).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The deployment configuration.
    pub fn config(&self) -> &HdfsConfig {
        &self.cfg
    }

    /// The NameNode.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// The DataNodes, in host order.
    pub fn datanodes(&self) -> &[DataNode] {
        &self.datanodes
    }

    /// Which host a DataNode index lives on.
    pub fn datanode_host(&self, idx: usize) -> Host {
        Host(2 + idx)
    }

    /// A client on the reserved client host (host 1).
    pub fn client(&self) -> RpcResult<DfsClient> {
        self.client_on(Host(1))
    }

    /// A client on an arbitrary host.
    pub fn client_on(&self, host: Host) -> RpcResult<DfsClient> {
        let net = HostNet::of(&self.cluster, host, &self.cfg);
        DfsClient::new(&net, self.namenode.addr(), self.cfg.clone())
    }

    /// Stop every daemon.
    pub fn stop(&self) {
        for dn in &self.datanodes {
            dn.stop();
        }
        self.namenode.stop();
    }
}

impl std::fmt::Debug for MiniDfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniDfs")
            .field("datanodes", &self.datanodes.len())
            .field("rpc_ib", &self.cfg.rpc.ib_enabled)
            .field("data_rdma", &self.cfg.data_rdma)
            .finish()
    }
}
