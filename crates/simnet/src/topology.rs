//! Dual-rail cluster topology.
//!
//! The paper's testbed hosts carry two NICs: an Ethernet adapter (1GigE or
//! 10GigE) and a QDR InfiniBand HCA (used either natively via verbs or as
//! IPoIB). Its evaluation mixes transports *per component* — e.g. Figure 7
//! runs HDFS data over RDMA while RPC stays on 1GigE. [`Cluster`] models
//! that: every [`Host`] owns one node on an "eth" fabric (whatever TCP
//! model the experiment selects) and one on a native-IB fabric. Both
//! rails read one [`Clock`], so every daemon and client of a deployment
//! is on one timeline, whichever rail its RPC runs on.

use crate::fabric::{Fabric, NodeId, SimAddr};
use crate::model::{NetworkModel, IB_QDR_VERBS};
use crate::time::Clock;

/// Index of a host in a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Host(pub usize);

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

struct HostNics {
    eth: NodeId,
    ib: NodeId,
}

/// A set of simulated hosts, each with an Ethernet NIC and an IB HCA.
pub struct Cluster {
    eth: Fabric,
    ib: Fabric,
    hosts: Vec<HostNics>,
}

impl Cluster {
    /// Build a cluster of `n` hosts whose Ethernet rail runs `eth_model`
    /// (1GigE / 10GigE / IPoIB) and whose IB rail is native QDR verbs,
    /// both on one host clock.
    pub fn new(eth_model: NetworkModel, n: usize) -> Cluster {
        let clock = Clock::host();
        let mut cluster = Cluster {
            eth: Fabric::with_clock(eth_model, clock.clone()),
            ib: Fabric::with_clock(IB_QDR_VERBS, clock),
            hosts: Vec::new(),
        };
        for _ in 0..n {
            cluster.add_host();
        }
        cluster
    }

    /// Add one host (both NICs) and return its index.
    pub fn add_host(&mut self) -> Host {
        let nics = HostNics {
            eth: self.eth.add_node(),
            ib: self.ib.add_node(),
        };
        self.hosts.push(nics);
        Host(self.hosts.len() - 1)
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when the cluster has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// All hosts, in index order.
    pub fn hosts(&self) -> impl Iterator<Item = Host> + '_ {
        (0..self.hosts.len()).map(Host)
    }

    /// The Ethernet-rail fabric.
    pub fn eth(&self) -> &Fabric {
        &self.eth
    }

    /// The InfiniBand-rail fabric.
    pub fn ib(&self) -> &Fabric {
        &self.ib
    }

    /// The host's node id on the Ethernet rail.
    pub fn eth_node(&self, host: Host) -> NodeId {
        self.hosts[host.0].eth
    }

    /// The host's node id on the IB rail.
    pub fn ib_node(&self, host: Host) -> NodeId {
        self.hosts[host.0].ib
    }

    /// Address `(host, port)` on the Ethernet rail.
    pub fn eth_addr(&self, host: Host, port: u16) -> SimAddr {
        SimAddr::new(self.eth_node(host), port)
    }

    /// Fail a host: both NICs go dark.
    pub fn kill_host(&self, host: Host) {
        self.eth.kill_node(self.eth_node(host));
        self.ib.kill_node(self.ib_node(host));
    }

    /// Revive a previously killed host.
    pub fn revive_host(&self, host: Host) {
        self.eth.revive_node(self.eth_node(host));
        self.ib.revive_node(self.ib_node(host));
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.hosts.len())
            .field("eth_model", &self.eth.model().name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IPOIB_QDR;
    use std::time::Duration;

    #[test]
    fn hosts_have_one_node_per_rail() {
        let cluster = Cluster::new(IPOIB_QDR, 3);
        assert_eq!(cluster.len(), 3);
        let h = Host(1);
        assert_ne!(cluster.eth_addr(h, 80), cluster.eth_addr(Host(2), 80));
        assert!(!cluster.eth().model().rdma_capable);
        assert!(cluster.ib().model().rdma_capable);
    }

    #[test]
    fn both_rails_read_one_clock() {
        let cluster = Cluster::new(IPOIB_QDR, 1);
        let (eth, ib) = (cluster.eth().clock(), cluster.ib().clock());
        // Two host clocks would read apart by the time between their
        // origins; one clock's readings only move forward.
        for _ in 0..1_000 {
            let at_eth = eth.now_ns();
            let at_ib = ib.now_ns();
            assert!(at_ib >= at_eth, "ib read {at_ib} after eth read {at_eth}");
            assert!(eth.now_ns() >= at_ib);
        }
        // A deadline formed on one rail is the same instant on the other.
        let deadline = eth.deadline(Duration::from_secs(60));
        assert!(ib.remaining(deadline) <= Duration::from_secs(60));
        assert!(ib.remaining(deadline) > Duration::from_secs(59));
    }

    #[test]
    fn kill_host_affects_both_rails() {
        let mut cluster = Cluster::new(IPOIB_QDR, 1);
        let h = cluster.add_host();
        cluster.kill_host(h);
        assert!(cluster.eth().is_dead(cluster.eth_node(h)));
        assert!(cluster.ib().is_dead(cluster.ib_node(h)));
        cluster.revive_host(h);
        assert!(!cluster.ib().is_dead(cluster.ib_node(h)));
    }
}
