//! The HMaster: region servers register and heartbeat, buckets are
//! assigned over the *live* server set, and clients fetch the region map.
//! When a region server stops heartbeating, its buckets automatically
//! reassign to survivors (who recover them from HDFS — see
//! [`crate::regionserver`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rpcoib::{RpcError, RpcResult, RpcService, Server, ServiceRegistry};
use simnet::{Clock, Fabric, NodeId, SimAddr};
use wire::{DataInput, IntWritable, Writable};

use crate::types::RegionInfo;
use crate::MASTER_PORT;

/// A region server is declared dead after this long without a heartbeat.
pub const RS_TIMEOUT: Duration = Duration::from_millis(1200);

struct RsReg {
    node: u32,
    port: u16,
    /// On the master's clock, in ns.
    last_heartbeat: u64,
}

struct MasterState {
    servers: Mutex<HashMap<u32, RsReg>>,
    /// Notified, under `servers`, when a region server registers.
    registered: Condvar,
    /// The clock of the fabric the master's RPC runs on.
    clock: Clock,
    /// Fixed bucket count (servers_at_creation × regions_per_server).
    n_regions: u32,
    /// Assignment is *sticky*: a bucket moves only when its server dies.
    /// Moving a bucket off a live server would discard that server's
    /// unrolled WAL tail (only a crash justifies that loss).
    assignment: Mutex<HashMap<u32, u32>>,
    /// No bucket is assigned until this many servers have registered, so
    /// the initial placement is spread instead of first-come-grab-all.
    expected_servers: usize,
    next_rs: AtomicU32,
}

impl MasterState {
    /// Live servers, sorted by id for a stable assignment.
    fn live(&self) -> Vec<(u32, u32, u16)> {
        let now = self.clock.now_ns();
        let mut live: Vec<(u32, u32, u16)> = self
            .servers
            .lock()
            .iter()
            .filter(|(_, reg)| {
                Duration::from_nanos(now.saturating_sub(reg.last_heartbeat)) < RS_TIMEOUT
            })
            .map(|(id, reg)| (*id, reg.node, reg.port))
            .collect();
        live.sort_by_key(|(id, _, _)| *id);
        live
    }

    /// (Re)assign: keep live owners, move orphaned buckets to the
    /// least-loaded live servers.
    fn refresh_assignment(&self) {
        if self.servers.lock().len() < self.expected_servers {
            return; // wait for the fleet before the first placement
        }
        let live = self.live();
        if live.is_empty() {
            return;
        }
        let mut assignment = self.assignment.lock();
        let mut load: HashMap<u32, usize> = live.iter().map(|(id, _, _)| (*id, 0)).collect();
        for rs in assignment.values() {
            if let Some(n) = load.get_mut(rs) {
                *n += 1;
            }
        }
        for bucket in 0..self.n_regions {
            let owner_alive = assignment
                .get(&bucket)
                .is_some_and(|rs| load.contains_key(rs));
            if !owner_alive {
                let (&target, _) = load
                    .iter()
                    .min_by_key(|(id, n)| (**n, **id))
                    .expect("live set nonempty");
                assignment.insert(bucket, target);
                *load.get_mut(&target).expect("target live") += 1;
            }
        }
    }

    /// The full region map (bucket → live server address).
    fn region_map(&self) -> Result<Vec<RegionInfo>, String> {
        self.refresh_assignment();
        let servers = self.servers.lock();
        let assignment = self.assignment.lock();
        (0..self.n_regions)
            .map(|region| {
                let rs = assignment
                    .get(&region)
                    .ok_or_else(|| "regions not yet assigned".to_string())?;
                let reg = servers
                    .get(rs)
                    .ok_or_else(|| "owner vanished".to_string())?;
                Ok(RegionInfo {
                    region,
                    n_regions: self.n_regions,
                    rs_node: reg.node,
                    rs_port: reg.port,
                })
            })
            .collect()
    }

    /// Buckets currently assigned to `rs_id`.
    fn buckets_of(&self, rs_id: u32) -> Vec<u32> {
        self.refresh_assignment();
        let assignment = self.assignment.lock();
        let mut buckets: Vec<u32> = assignment
            .iter()
            .filter(|(_, rs)| **rs == rs_id)
            .map(|(b, _)| *b)
            .collect();
        buckets.sort_unstable();
        buckets
    }
}

/// `hbase.MasterProtocol`.
struct MasterProtocol {
    state: Arc<MasterState>,
}

impl RpcService for MasterProtocol {
    fn protocol(&self) -> &'static str {
        "hbase.MasterProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "registerRegionServer" => {
                let mut node = IntWritable::default();
                let mut port = IntWritable::default();
                node.read_fields(param).map_err(|e| e.to_string())?;
                port.read_fields(param).map_err(|e| e.to_string())?;
                let id = self.state.next_rs.fetch_add(1, Ordering::Relaxed);
                let reg = RsReg {
                    node: node.0 as u32,
                    port: port.0 as u16,
                    last_heartbeat: self.state.clock.now_ns(),
                };
                self.state.servers.lock().insert(id, reg);
                self.state.registered.notify_all();
                Ok(Box::new(IntWritable(id as i32)))
            }
            "rsHeartbeat" => {
                let mut id = IntWritable::default();
                id.read_fields(param).map_err(|e| e.to_string())?;
                let rs_id = id.0 as u32;
                match self.state.servers.lock().get_mut(&rs_id) {
                    Some(reg) => reg.last_heartbeat = self.state.clock.now_ns(),
                    None => return Err(format!("unregistered region server {rs_id}")),
                }
                let buckets: Vec<IntWritable> = self
                    .state
                    .buckets_of(rs_id)
                    .into_iter()
                    .map(|b| IntWritable(b as i32))
                    .collect();
                Ok(Box::new(buckets))
            }
            "getRegions" => Ok(Box::new(self.state.region_map()?)),
            other => Err(format!("MasterProtocol has no method {other}")),
        }
    }
}

/// A running HMaster.
pub struct HMaster {
    server: Server,
    state: Arc<MasterState>,
}

impl HMaster {
    /// Start on `(node, MASTER_PORT)` of the RPC-plane fabric, managing
    /// `n_regions` fixed buckets over an expected fleet of
    /// `expected_servers` region servers.
    pub fn start(
        fabric: &Fabric,
        node: NodeId,
        rpc: rpcoib::RpcConfig,
        n_regions: u32,
        expected_servers: usize,
    ) -> RpcResult<HMaster> {
        let state = Arc::new(MasterState {
            servers: Mutex::new(HashMap::new()),
            registered: Condvar::new(),
            clock: fabric.clock().clone(),
            n_regions,
            assignment: Mutex::new(HashMap::new()),
            expected_servers,
            next_rs: AtomicU32::new(0),
        });
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(MasterProtocol {
            state: Arc::clone(&state),
        }));
        let server = Server::start(fabric, node, MASTER_PORT, rpc, registry)?;
        Ok(HMaster { server, state })
    }

    /// The master's RPC address.
    pub fn addr(&self) -> SimAddr {
        self.server.addr()
    }

    /// Wait until `want` region servers have registered and every bucket
    /// has an owner, for at most `timeout` on the master's clock.
    pub(crate) fn await_servers(&self, want: usize, timeout: Duration) -> RpcResult<()> {
        let (state, deadline) = (&self.state, self.state.clock.deadline(timeout));
        let registered = {
            let servers = &mut state.servers.lock();
            state
                .clock
                .wait_on(&state.registered, servers, deadline, |s| s.len() >= want)
        };
        (registered && self.fully_assigned())
            .then_some(())
            .ok_or(RpcError::Timeout)
    }

    /// Whether every bucket has an assigned (registered) owner.
    pub fn fully_assigned(&self) -> bool {
        self.state.refresh_assignment();
        self.state.assignment.lock().len() == self.state.n_regions as usize
    }

    /// Stop the RPC server.
    pub fn stop(&self) {
        self.server.stop();
    }
}

impl std::fmt::Debug for HMaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HMaster")
            .field("addr", &self.server.addr())
            .finish()
    }
}
