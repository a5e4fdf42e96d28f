//! The HBase client: caches the region map from the master and routes
//! operations to the right region server over the operation plane.

use parking_lot::RwLock;
use rpcoib::{Client, RpcError, RpcResult};
use simnet::{Cluster, Host, SimAddr};
use wire::{BooleanWritable, VIntWritable};

use crate::config::HBaseConfig;
use crate::types::{region_of, RegionInfo, Row};

const MASTER_PROTOCOL: &str = "hbase.MasterProtocol";
const RS_PROTOCOL: &str = "hbase.RegionServerProtocol";

/// A mini-HBase client.
pub struct HBaseClient {
    master_rpc: Client,
    ops_rpc: Client,
    master: SimAddr,
    regions: RwLock<Vec<RegionInfo>>,
}

impl HBaseClient {
    /// Build a client on `host`, fetching the region map eagerly.
    pub fn new(
        cluster: &Cluster,
        host: Host,
        master: SimAddr,
        cfg: &HBaseConfig,
    ) -> RpcResult<HBaseClient> {
        let (rpc_fabric, rpc_node) = if cfg.rpc.ib_enabled {
            (cluster.ib().clone(), cluster.ib_node(host))
        } else {
            (cluster.eth().clone(), cluster.eth_node(host))
        };
        let (ops_fabric, ops_node) = if cfg.ops_rdma {
            (cluster.ib().clone(), cluster.ib_node(host))
        } else {
            (cluster.eth().clone(), cluster.eth_node(host))
        };
        let master_rpc = Client::new(&rpc_fabric, rpc_node, cfg.rpc.clone())?;
        let ops_rpc = Client::new(&ops_fabric, ops_node, cfg.ops_rpc_config())?;
        let client = HBaseClient {
            master_rpc,
            ops_rpc,
            master,
            regions: RwLock::new(Vec::new()),
        };
        client.refresh_regions()?;
        Ok(client)
    }

    /// Re-fetch the region map from the master.
    pub fn refresh_regions(&self) -> RpcResult<()> {
        let map: Vec<RegionInfo> = self.master_rpc.call(
            self.master,
            MASTER_PROTOCOL,
            "getRegions",
            &wire::NullWritable,
        )?;
        if map.is_empty() {
            return Err(RpcError::Protocol("empty region map".into()));
        }
        *self.regions.write() = map;
        Ok(())
    }

    fn locate(&self, key: &[u8]) -> RpcResult<RegionInfo> {
        let regions = self.regions.read();
        let n = regions.len() as u32;
        let bucket = region_of(key, n);
        regions
            .get(bucket as usize)
            .copied()
            .ok_or_else(|| RpcError::Protocol(format!("no region for bucket {bucket}")))
    }

    /// Is this error the region server telling us our map is stale
    /// (NotServingRegion), or the server being gone entirely? Both mean
    /// "refresh the map from the master and retry".
    fn is_stale_region(err: &RpcError) -> bool {
        matches!(err, RpcError::Remote(m) if m.starts_with(crate::regionserver::NOT_SERVING))
            || matches!(
                err,
                RpcError::ConnectionClosed | RpcError::Io(_) | RpcError::Timeout
            )
    }

    /// Route an operation to `key`'s region server, refreshing the region
    /// map and retrying when the assignment moved (e.g. after a region
    /// server crash — the master reassigns within its liveness timeout).
    fn with_region<T>(&self, key: &[u8], op: impl Fn(&RegionInfo) -> RpcResult<T>) -> RpcResult<T> {
        let mut last_err = None;
        for attempt in 0..12 {
            let region = self.locate(key)?;
            match op(&region) {
                Ok(v) => return Ok(v),
                Err(e) if Self::is_stale_region(&e) => {
                    last_err = Some(e);
                    // Recovery takes a master liveness timeout plus a
                    // heartbeat; back off accordingly.
                    std::thread::sleep(std::time::Duration::from_millis(50 * (attempt + 1)));
                    let _ = self.refresh_regions();
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| RpcError::Protocol("no region attempt made".into())))
    }

    /// Store a row. Each request is serialized from the caller's
    /// borrowed key and value (as is every request below).
    pub fn put(&self, key: &[u8], value: &[u8]) -> RpcResult<()> {
        self.with_region(key, |region| {
            let _: BooleanWritable =
                self.ops_rpc
                    .call(region.rs_addr(), RS_PROTOCOL, "put", &(key, value))?;
            Ok(())
        })
    }

    /// Delete a row; returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> RpcResult<bool> {
        self.with_region(key, |region| {
            let existed: BooleanWritable =
                self.ops_rpc
                    .call(region.rs_addr(), RS_PROTOCOL, "delete", &key)?;
            Ok(existed.0)
        })
    }

    /// Fetch a row.
    pub fn get(&self, key: &[u8]) -> RpcResult<Option<Vec<u8>>> {
        self.with_region(key, |region| {
            self.ops_rpc
                .call(region.rs_addr(), RS_PROTOCOL, "get", &key)
        })
    }

    /// Point reads of several keys: one `get` per key, each routed on its
    /// own, in input order. `None` entries are missing rows.
    pub fn multi_get(&self, keys: &[&[u8]]) -> RpcResult<Vec<Option<Vec<u8>>>> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    /// Scan up to `limit` rows with keys ≥ `start` from the region server
    /// owning `start`'s bucket (single-server scan).
    pub fn scan(&self, start: &[u8], limit: u32) -> RpcResult<Vec<Row>> {
        self.with_region(start, |region| {
            let args = (start, VIntWritable(limit as i32));
            self.ops_rpc
                .call(region.rs_addr(), RS_PROTOCOL, "scan", &args)
        })
    }

    /// Operation-plane RPC metrics.
    pub fn ops_metrics(&self) -> &rpcoib::MetricsRegistry {
        self.ops_rpc.metrics()
    }

    /// Shut down both planes.
    pub fn shutdown(&self) {
        self.master_rpc.shutdown();
        self.ops_rpc.shutdown();
    }
}

impl std::fmt::Debug for HBaseClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HBaseClient")
            .field("master", &self.master)
            .field("regions", &self.regions.read().len())
            .finish()
    }
}
