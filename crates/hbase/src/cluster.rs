//! `MiniHbase`: HDFS + HMaster + N region servers on one cluster.
//! Host 0 runs NameNode + HMaster, host 1 is the client host, hosts
//! `2..2+n` co-locate a DataNode and a region server (as the paper's 16
//! region-server setup does).

use std::sync::Arc;
use std::time::Duration;

use mini_hdfs::MiniDfs;
use rpcoib::RpcResult;
use simnet::{Cluster, Host, NetworkModel};

use crate::client::HBaseClient;
use crate::config::HBaseConfig;
use crate::master::HMaster;
use crate::regionserver::HRegionServer;

/// A booted mini-HBase deployment.
pub struct MiniHbase {
    dfs: MiniDfs,
    master: HMaster,
    regionservers: Vec<HRegionServer>,
    cfg: HBaseConfig,
}

impl MiniHbase {
    /// Start `n_servers` region servers (with co-located DataNodes).
    pub fn start(
        eth_model: NetworkModel,
        n_servers: usize,
        cfg: HBaseConfig,
    ) -> RpcResult<MiniHbase> {
        let cluster = Arc::new(Cluster::new(eth_model, n_servers + 2));
        let dfs = MiniDfs::start_on(Arc::clone(&cluster), n_servers, cfg.hdfs.clone())?;

        let (master_fabric, master_node) = if cfg.rpc.ib_enabled {
            (cluster.ib().clone(), cluster.ib_node(Host(0)))
        } else {
            (cluster.eth().clone(), cluster.eth_node(Host(0)))
        };
        let master = HMaster::start(
            &master_fabric,
            master_node,
            cfg.rpc.clone(),
            (n_servers * cfg.regions_per_server) as u32,
            n_servers,
        )?;

        let mut regionservers = Vec::with_capacity(n_servers);
        for i in 0..n_servers {
            regionservers.push(HRegionServer::start(
                &cluster,
                Host(2 + i),
                master.addr(),
                dfs.nn_addr(),
                cfg.clone(),
                n_servers,
            )?);
        }

        let hbase = MiniHbase {
            dfs,
            master,
            regionservers,
            cfg,
        };
        hbase
            .master
            .await_servers(n_servers, Duration::from_secs(10))?;
        Ok(hbase)
    }

    /// The cluster topology.
    pub fn cluster(&self) -> &Arc<Cluster> {
        self.dfs.cluster()
    }

    /// The underlying HDFS.
    pub fn dfs(&self) -> &MiniDfs {
        &self.dfs
    }

    /// The region servers.
    pub fn regionservers(&self) -> &[HRegionServer] {
        &self.regionservers
    }

    /// A client on the reserved client host.
    pub fn client(&self) -> RpcResult<HBaseClient> {
        self.client_on(Host(1))
    }

    /// A client on an arbitrary host.
    pub fn client_on(&self, host: Host) -> RpcResult<HBaseClient> {
        HBaseClient::new(self.cluster(), host, self.master.addr(), &self.cfg)
    }

    /// Stop everything.
    pub fn stop(&self) {
        for rs in &self.regionservers {
            rs.stop();
        }
        self.master.stop();
        self.dfs.stop();
    }
}

impl std::fmt::Debug for MiniHbase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniHbase")
            .field("regionservers", &self.regionservers.len())
            .field("ops_rdma", &self.cfg.ops_rdma)
            .field("rpc_ib", &self.cfg.rpc.ib_enabled)
            .finish()
    }
}
