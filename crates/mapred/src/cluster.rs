//! `MiniMr`: a whole Hadoop-alike — HDFS plus MapReduce — on one
//! simulated cluster. Worker hosts co-locate a DataNode and a TaskTracker
//! (as the paper's slave nodes do); host 0 runs NameNode + JobTracker,
//! host 1 is the client host.

use std::sync::Arc;
use std::time::Duration;

use mini_hdfs::{DfsClient, MiniDfs};
use rpcoib::{Client, RpcResult};
use simnet::{Cluster, Host, NetworkModel};

use crate::client::JobClient;
use crate::config::MrConfig;
use crate::jobtracker::JobTracker;
use crate::tasktracker::TaskTracker;

/// A booted mini MapReduce + HDFS deployment.
pub struct MiniMr {
    dfs: MiniDfs,
    jobtracker: JobTracker,
    tasktrackers: Vec<TaskTracker>,
    cfg: MrConfig,
}

impl MiniMr {
    /// Start `n_workers` worker hosts (DataNode + TaskTracker each).
    pub fn start(eth_model: NetworkModel, n_workers: usize, cfg: MrConfig) -> RpcResult<MiniMr> {
        let cluster = Arc::new(Cluster::new(eth_model, n_workers + 2));
        let dfs = MiniDfs::start_on(Arc::clone(&cluster), n_workers, cfg.hdfs.clone())?;

        let (jt_fabric, jt_node) = if cfg.rpc.ib_enabled {
            (cluster.ib().clone(), cluster.ib_node(Host(0)))
        } else {
            (cluster.eth().clone(), cluster.eth_node(Host(0)))
        };
        let jobtracker = JobTracker::start(&jt_fabric, jt_node, cfg.clone())?;

        let mut tasktrackers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            tasktrackers.push(TaskTracker::start(
                &cluster,
                Host(2 + i),
                jobtracker.addr(),
                dfs.nn_addr(),
                cfg.clone(),
            )?);
        }

        let mr = MiniMr {
            dfs,
            jobtracker,
            tasktrackers,
            cfg,
        };
        mr.jobtracker
            .await_trackers(n_workers, Duration::from_secs(10))?;
        Ok(mr)
    }

    /// The underlying HDFS deployment.
    pub fn dfs(&self) -> &MiniDfs {
        &self.dfs
    }

    /// The cluster topology.
    pub fn cluster(&self) -> &Arc<Cluster> {
        self.dfs.cluster()
    }

    /// The JobTracker.
    pub fn jobtracker(&self) -> &JobTracker {
        &self.jobtracker
    }

    /// The TaskTrackers, in worker order.
    pub fn tasktrackers(&self) -> &[TaskTracker] {
        &self.tasktrackers
    }

    /// A job client on the reserved client host.
    pub fn job_client(&self) -> RpcResult<JobClient> {
        let cluster = self.dfs.cluster();
        let (fabric, node) = if self.cfg.rpc.ib_enabled {
            (cluster.ib().clone(), cluster.ib_node(Host(1)))
        } else {
            (cluster.eth().clone(), cluster.eth_node(Host(1)))
        };
        let rpc = Client::new(&fabric, node, self.cfg.rpc.clone())?;
        Ok(JobClient::new(rpc, self.jobtracker.addr()))
    }

    /// An HDFS client on the reserved client host.
    pub fn dfs_client(&self) -> RpcResult<DfsClient> {
        self.dfs.client()
    }

    /// Stop everything (MapReduce first, then HDFS).
    pub fn stop(&self) {
        for tt in &self.tasktrackers {
            tt.stop();
        }
        self.jobtracker.stop();
        self.dfs.stop();
    }
}

impl std::fmt::Debug for MiniMr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniMr")
            .field("workers", &self.tasktrackers.len())
            .field("rpc_ib", &self.cfg.rpc.ib_enabled)
            .finish()
    }
}
