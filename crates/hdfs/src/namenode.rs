//! The NameNode: in-memory namespace, block map, DataNode registry, and
//! the two RPC protocols Table I profiles (`hdfs.ClientProtocol`,
//! `hdfs.DatanodeProtocol`).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::ops::Bound;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rpcoib::{RpcResult, RpcService, Server, ServiceRegistry};
use simnet::{Fabric, NodeId};
use wire::{BooleanWritable, DataInput, IntWritable, NullWritable, Text, Writable};

use crate::config::HdfsConfig;
use crate::types::{
    AddBlockArgs, BlockReceivedArgs, BlockReportArgs, DatanodeInfo, DnCommand, FileStatus,
    LocatedBlock,
};
use crate::NN_PORT;

#[derive(Debug, Clone)]
enum INode {
    Dir,
    File {
        blocks: Vec<u64>,
        replication: u32,
        complete: bool,
    },
}

#[derive(Debug, Clone, Default)]
struct BlockMeta {
    size: u64,
    locations: Vec<u32>,
}

struct DnReg {
    info: DatanodeInfo,
    last_heartbeat: Instant,
}

/// Replicas one heartbeat tells its DataNode to drop, at most (HDFS's
/// `dfs.block.invalidate.limit`).
const INVALIDATE_PER_HEARTBEAT: usize = 1000;

pub(crate) struct NnState {
    cfg: HdfsConfig,
    /// Ordered, so a directory's entries are one range of it.
    namespace: Mutex<BTreeMap<String, INode>>,
    blocks: Mutex<HashMap<u64, BlockMeta>>,
    /// Per DataNode, replicas of blocks no file holds any more, to drop
    /// at its next heartbeat.
    invalidate: Mutex<HashMap<u32, BTreeSet<u64>>>,
    datanodes: Mutex<HashMap<u32, DnReg>>,
    leases: Mutex<HashMap<String, (String, Instant)>>,
    /// Blocks with a replication command in flight (avoid re-issuing
    /// every heartbeat while the copy is still running).
    replication_pending: Mutex<HashMap<u64, Instant>>,
    next_block: AtomicU64,
    next_dn: AtomicU32,
    placement_cursor: AtomicUsize,
}

impl NnState {
    fn live_datanodes(&self, exclude: &[u32]) -> Vec<DatanodeInfo> {
        let now = Instant::now();
        let mut dns: Vec<_> = self
            .datanodes
            .lock()
            .values()
            .filter(|dn| now.duration_since(dn.last_heartbeat) < self.cfg.dn_timeout)
            .filter(|dn| !exclude.contains(&dn.info.id))
            .map(|dn| dn.info)
            .collect();
        dns.sort_by_key(|dn| dn.id);
        dns
    }

    /// Round-robin placement over live DataNodes (excluding `exclude`).
    fn place(&self, exclude: &[u32]) -> Result<Vec<DatanodeInfo>, String> {
        let live = self.live_datanodes(exclude);
        if live.is_empty() {
            return Err("no live datanodes".into());
        }
        let want = self.cfg.replication.min(live.len());
        let start = self.placement_cursor.fetch_add(1, Ordering::Relaxed);
        Ok((0..want).map(|i| live[(start + i) % live.len()]).collect())
    }

    fn file_len(&self, blocks: &[u64]) -> u64 {
        let map = self.blocks.lock();
        blocks
            .iter()
            .map(|b| map.get(b).map_or(0, |m| m.size))
            .sum()
    }

    fn status_of(&self, path: &str, node: &INode) -> FileStatus {
        match node {
            INode::Dir => FileStatus {
                path: path.to_owned(),
                is_dir: true,
                len: 0,
                replication: 0,
                block_size: self.cfg.block_size as u64,
            },
            INode::File {
                blocks,
                replication,
                ..
            } => FileStatus {
                path: path.to_owned(),
                is_dir: false,
                len: self.file_len(blocks),
                replication: *replication,
                block_size: self.cfg.block_size as u64,
            },
        }
    }

    fn parent_dirs_exist(&self, ns: &BTreeMap<String, INode>, path: &str) -> bool {
        match path.rsplit_once('/') {
            None | Some(("", _)) => true, // parent is the root
            Some((parent, _)) => matches!(ns.get(parent), Some(INode::Dir)),
        }
    }

    /// Lease recovery: force-complete files whose writer stopped
    /// renewing its lease (crashed clients must not hold files open
    /// forever). Piggy-backed on DataNode heartbeats, like replication.
    fn recover_expired_leases(&self) {
        let now = Instant::now();
        let expired: Vec<String> = {
            let leases = self.leases.lock();
            leases
                .iter()
                .filter(|(_, (_, renewed))| now.duration_since(*renewed) > self.cfg.lease_timeout)
                .map(|(path, _)| path.clone())
                .collect()
        };
        if expired.is_empty() {
            return;
        }
        let mut ns = self.namespace.lock();
        let mut leases = self.leases.lock();
        for path in expired {
            if let Some(INode::File { complete, .. }) = ns.get_mut(&path) {
                *complete = true;
            }
            leases.remove(&path);
        }
    }

    /// Replication commands for the heartbeating DataNode `dn_id`: for
    /// each under-replicated block it holds, pick fresh live targets.
    /// This is how HDFS recovers replication after a DataNode death.
    fn replication_work(&self, dn_id: u32) -> Vec<DnCommand> {
        let now = Instant::now();
        let live: Vec<u32> = self.live_datanodes(&[]).iter().map(|dn| dn.id).collect();
        if !live.contains(&dn_id) {
            return Vec::new();
        }
        let mut pending = self.replication_pending.lock();
        pending.retain(|_, deadline| *deadline > now);

        let mut commands = Vec::new();
        let blocks = self.blocks.lock();
        for (block, meta) in blocks.iter() {
            if commands.len() >= 4 {
                break; // bounded work per heartbeat, like HDFS
            }
            if meta.size == 0 || !meta.locations.contains(&dn_id) {
                continue;
            }
            if pending.contains_key(block) {
                continue;
            }
            let live_holders: Vec<u32> = meta
                .locations
                .iter()
                .copied()
                .filter(|id| live.contains(id))
                .collect();
            let missing = self.cfg.replication.saturating_sub(live_holders.len());
            if missing == 0 {
                continue;
            }
            // Exclude every current holder (live or not) from targets.
            let targets: Vec<DatanodeInfo> = match self.place(&meta.locations) {
                Ok(t) => t.into_iter().take(missing).collect(),
                Err(_) => continue,
            };
            if targets.is_empty() {
                continue;
            }
            pending.insert(*block, now + self.cfg.dn_timeout * 4);
            commands.push(DnCommand::Replicate {
                block: *block,
                targets,
            });
        }
        commands
    }

    /// Have each of `holders` drop its replica of `block` at its next
    /// heartbeat.
    fn invalidate(&self, block: u64, holders: &[u32]) {
        let mut pending = self.invalidate.lock();
        for dn in holders {
            pending.entry(*dn).or_default().insert(block);
        }
    }

    /// Forget `block`; every DataNode known to hold it drops its replica.
    fn remove_block(&self, map: &mut HashMap<u64, BlockMeta>, block: u64) {
        if let Some(meta) = map.remove(&block) {
            self.invalidate(block, &meta.locations);
        }
    }

    /// The entry of a block `dn` reports holding, with `dn` among its
    /// locations — or `None` if this NameNode issued the block and has
    /// since forgotten it (its file was deleted, its pipeline abandoned):
    /// then that replica is dropped instead of bringing the block back. A
    /// block this NameNode never issued is tracked as reported.
    fn reported<'m>(
        &self,
        map: &'m mut HashMap<u64, BlockMeta>,
        dn: u32,
        block: u64,
    ) -> Option<&'m mut BlockMeta> {
        if block < self.next_block.load(Ordering::Relaxed) && !map.contains_key(&block) {
            self.invalidate(block, &[dn]);
            return None;
        }
        let meta = map.entry(block).or_default();
        if !meta.locations.contains(&dn) {
            meta.locations.push(dn);
        }
        Some(meta)
    }

    /// Up to [`INVALIDATE_PER_HEARTBEAT`] of the replicas `dn` is to drop.
    fn invalidation_work(&self, dn: u32) -> Option<DnCommand> {
        let mut pending = self.invalidate.lock();
        let queued = pending.get_mut(&dn)?;
        let blocks: Vec<u64> = std::iter::from_fn(|| queued.pop_first())
            .take(INVALIDATE_PER_HEARTBEAT)
            .collect();
        if queued.is_empty() {
            pending.remove(&dn);
        }
        Some(DnCommand::Invalidate { blocks })
    }

    fn mkdirs(&self, path: &str) -> bool {
        let mut ns = self.namespace.lock();
        let mut prefix = String::new();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            prefix.push('/');
            prefix.push_str(part);
            match ns.get(&prefix) {
                Some(INode::Dir) => {}
                Some(INode::File { .. }) => return false,
                None => {
                    ns.insert(prefix.clone(), INode::Dir);
                }
            }
        }
        true
    }
}

/// `path` and every entry under it: one range of the ordered namespace.
fn subtree(ns: &BTreeMap<String, INode>, path: &str) -> Vec<String> {
    let children = format!("{path}/");
    let under = ns
        .range::<str, _>((Bound::Included(children.as_str()), Bound::Unbounded))
        .take_while(|(p, _)| p.starts_with(&children));
    ns.get_key_value(path)
        .into_iter()
        .chain(under)
        .map(|(p, _)| p.clone())
        .collect()
}

/// `hdfs.ClientProtocol` — the client-facing metadata service.
struct ClientProtocol {
    state: Arc<NnState>,
}

fn ioerr(e: io::Error) -> String {
    e.to_string()
}

impl RpcService for ClientProtocol {
    fn protocol(&self) -> &'static str {
        "hdfs.ClientProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let state = &self.state;
        match method {
            "getFileInfo" => {
                let mut path = Text::default();
                path.read_fields(param).map_err(ioerr)?;
                let ns = state.namespace.lock();
                let status = ns.get(&path.0).map(|node| state.status_of(&path.0, node));
                drop(ns);
                Ok(Box::new(status))
            }
            "mkdirs" => {
                let mut path = Text::default();
                path.read_fields(param).map_err(ioerr)?;
                Ok(Box::new(BooleanWritable(state.mkdirs(&path.0))))
            }
            "create" => {
                let mut path = Text::default();
                let mut replication = IntWritable::default();
                path.read_fields(param).map_err(ioerr)?;
                replication.read_fields(param).map_err(ioerr)?;
                let mut ns = state.namespace.lock();
                if ns.contains_key(&path.0) {
                    return Err(format!("file exists: {}", path.0));
                }
                if !state.parent_dirs_exist(&ns, &path.0) {
                    return Err(format!("parent directory missing for {}", path.0));
                }
                ns.insert(
                    path.0.clone(),
                    INode::File {
                        blocks: Vec::new(),
                        replication: replication.0 as u32,
                        complete: false,
                    },
                );
                drop(ns);
                state
                    .leases
                    .lock()
                    .insert(path.0.clone(), ("client".into(), Instant::now()));
                Ok(Box::new(BooleanWritable(true)))
            }
            "addBlock" => {
                let mut args = AddBlockArgs::default();
                args.read_fields(param).map_err(ioerr)?;
                let targets = state.place(&args.exclude)?;
                let block = state.next_block.fetch_add(1, Ordering::Relaxed);
                let mut ns = state.namespace.lock();
                match ns.get_mut(&args.path) {
                    Some(INode::File {
                        blocks,
                        complete: false,
                        ..
                    }) => blocks.push(block),
                    Some(_) => return Err(format!("not an open file: {}", args.path)),
                    None => return Err(format!("no such file: {}", args.path)),
                }
                drop(ns);
                state.blocks.lock().insert(block, BlockMeta::default());
                Ok(Box::new(LocatedBlock {
                    block,
                    size: 0,
                    targets,
                }))
            }
            "abandonBlock" => {
                let mut path = Text::default();
                path.read_fields(param).map_err(ioerr)?;
                let block = {
                    let mut b = wire::LongWritable::default();
                    b.read_fields(param).map_err(ioerr)?;
                    b.0 as u64
                };
                let mut ns = state.namespace.lock();
                if let Some(INode::File { blocks, .. }) = ns.get_mut(&path.0) {
                    blocks.retain(|b| *b != block);
                }
                drop(ns);
                state.remove_block(&mut state.blocks.lock(), block);
                Ok(Box::new(BooleanWritable(true)))
            }
            "complete" => {
                let mut path = Text::default();
                path.read_fields(param).map_err(ioerr)?;
                let mut ns = state.namespace.lock();
                match ns.get_mut(&path.0) {
                    Some(INode::File { complete, .. }) => {
                        *complete = true;
                        drop(ns);
                        state.leases.lock().remove(&path.0);
                        Ok(Box::new(BooleanWritable(true)))
                    }
                    _ => Err(format!("no such file: {}", path.0)),
                }
            }
            "getBlockLocations" => {
                let mut path = Text::default();
                path.read_fields(param).map_err(ioerr)?;
                let ns = state.namespace.lock();
                let blocks = match ns.get(&path.0) {
                    Some(INode::File { blocks, .. }) => blocks.clone(),
                    Some(INode::Dir) => return Err(format!("is a directory: {}", path.0)),
                    None => return Err(format!("no such file: {}", path.0)),
                };
                drop(ns);
                let dn_map = state.datanodes.lock();
                let block_map = state.blocks.lock();
                let located: Vec<LocatedBlock> = blocks
                    .iter()
                    .map(|b| {
                        let meta = block_map.get(b).cloned().unwrap_or_default();
                        LocatedBlock {
                            block: *b,
                            size: meta.size,
                            targets: meta
                                .locations
                                .iter()
                                .filter_map(|id| dn_map.get(id).map(|dn| dn.info))
                                .collect(),
                        }
                    })
                    .collect();
                Ok(Box::new(located))
            }
            "getListing" => {
                let mut path = Text::default();
                path.read_fields(param).map_err(ioerr)?;
                let prefix = if path.0.ends_with('/') {
                    path.0.clone()
                } else {
                    format!("{}/", path.0)
                };
                let ns = state.namespace.lock();
                let listing: Vec<FileStatus> = ns
                    .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
                    .take_while(|(p, _)| p.starts_with(&prefix))
                    .filter(|(p, _)| !p[prefix.len()..].contains('/'))
                    .map(|(p, node)| state.status_of(p, node))
                    .collect();
                Ok(Box::new(listing))
            }
            "rename" => {
                let mut src = Text::default();
                let mut dst = Text::default();
                src.read_fields(param).map_err(ioerr)?;
                dst.read_fields(param).map_err(ioerr)?;
                let mut ns = state.namespace.lock();
                if ns.contains_key(&dst.0) || !ns.contains_key(&src.0) {
                    return Ok(Box::new(BooleanWritable(false)));
                }
                // Move the node and any children (directory rename).
                for p in subtree(&ns, &src.0) {
                    if let Some(node) = ns.remove(&p) {
                        ns.insert(format!("{}{}", dst.0, &p[src.0.len()..]), node);
                    }
                }
                Ok(Box::new(BooleanWritable(true)))
            }
            "delete" => {
                let mut path = Text::default();
                path.read_fields(param).map_err(ioerr)?;
                let mut ns = state.namespace.lock();
                let doomed = subtree(&ns, &path.0);
                if doomed.is_empty() {
                    return Ok(Box::new(BooleanWritable(false)));
                }
                let mut block_map = state.blocks.lock();
                for p in &doomed {
                    if let Some(INode::File { blocks, .. }) = ns.remove(p) {
                        for b in blocks {
                            state.remove_block(&mut block_map, b);
                        }
                    }
                }
                Ok(Box::new(BooleanWritable(true)))
            }
            "renewLease" => {
                let mut client = Text::default();
                client.read_fields(param).map_err(ioerr)?;
                let now = Instant::now();
                for lease in state.leases.lock().values_mut() {
                    if lease.0 == client.0 {
                        lease.1 = now;
                    }
                }
                Ok(Box::new(NullWritable))
            }
            other => Err(format!("ClientProtocol has no method {other}")),
        }
    }
}

/// `hdfs.DatanodeProtocol` — DataNode-facing registration + reports.
struct DatanodeProtocol {
    state: Arc<NnState>,
}

impl RpcService for DatanodeProtocol {
    fn protocol(&self) -> &'static str {
        "hdfs.DatanodeProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let state = &self.state;
        match method {
            "registerDatanode" => {
                let mut info = DatanodeInfo::default();
                info.read_fields(param).map_err(ioerr)?;
                let id = state.next_dn.fetch_add(1, Ordering::Relaxed);
                info.id = id;
                state.datanodes.lock().insert(
                    id,
                    DnReg {
                        info,
                        last_heartbeat: Instant::now(),
                    },
                );
                Ok(Box::new(IntWritable(id as i32)))
            }
            "sendHeartbeat" => {
                let mut id = IntWritable::default();
                id.read_fields(param).map_err(ioerr)?;
                let dn_id = id.0 as u32;
                match state.datanodes.lock().get_mut(&dn_id) {
                    Some(dn) => dn.last_heartbeat = Instant::now(),
                    None => return Err(format!("unregistered datanode {}", id.0)),
                }
                // Piggy-back lease recovery, replication and invalidation
                // work on the heartbeat response.
                state.recover_expired_leases();
                let mut commands = state.replication_work(dn_id);
                commands.extend(state.invalidation_work(dn_id));
                Ok(Box::new(commands))
            }
            "blockReceived" => {
                let mut args = BlockReceivedArgs::default();
                args.read_fields(param).map_err(ioerr)?;
                let mut blocks = state.blocks.lock();
                if let Some(meta) = state.reported(&mut blocks, args.dn_id, args.block) {
                    meta.size = meta.size.max(args.size);
                }
                Ok(Box::new(NullWritable))
            }
            "blockReport" => {
                let mut args = BlockReportArgs::default();
                args.read_fields(param).map_err(ioerr)?;
                let mut blocks = state.blocks.lock();
                for b in &args.blocks {
                    state.reported(&mut blocks, args.dn_id, *b);
                }
                // The report is authoritative for this DataNode: a replica
                // it no longer reports (deleted or detected corrupt) is
                // dropped, which is what makes the block under-replicated
                // and drives re-replication from an intact copy.
                let reported: std::collections::HashSet<u64> =
                    args.blocks.iter().copied().collect();
                for (block, meta) in blocks.iter_mut() {
                    if !reported.contains(block) {
                        meta.locations.retain(|&id| id != args.dn_id);
                    }
                }
                Ok(Box::new(NullWritable))
            }
            other => Err(format!("DatanodeProtocol has no method {other}")),
        }
    }
}

/// Filesystem health summary (the `hdfs fsck` essentials).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    pub files: usize,
    pub directories: usize,
    pub blocks: usize,
    pub total_bytes: u64,
    pub live_datanodes: usize,
    pub under_replicated: usize,
    /// Blocks with zero live replicas — data loss.
    pub missing: usize,
    /// Blocks tracked with no bytes reported yet (a pipeline still open,
    /// or a block of no bytes); `blocks` leaves them out.
    pub empty_blocks: usize,
}

/// A running NameNode.
pub struct NameNode {
    server: Server,
    state: Arc<NnState>,
}

impl NameNode {
    /// Start a NameNode on `(node, NN_PORT)` of `fabric` (the RPC rail).
    pub fn start(fabric: &Fabric, node: NodeId, cfg: HdfsConfig) -> RpcResult<NameNode> {
        let state = Arc::new(NnState {
            cfg: cfg.clone(),
            namespace: Mutex::new(BTreeMap::new()),
            blocks: Mutex::new(HashMap::new()),
            invalidate: Mutex::new(HashMap::new()),
            datanodes: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
            replication_pending: Mutex::new(HashMap::new()),
            next_block: AtomicU64::new(1),
            next_dn: AtomicU32::new(0),
            placement_cursor: AtomicUsize::new(0),
        });
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(ClientProtocol {
            state: Arc::clone(&state),
        }));
        registry.register(Arc::new(DatanodeProtocol {
            state: Arc::clone(&state),
        }));
        let server = Server::start(fabric, node, NN_PORT, cfg.rpc, registry)?;
        Ok(NameNode { server, state })
    }

    /// The RPC address of this NameNode.
    pub fn addr(&self) -> simnet::SimAddr {
        self.server.addr()
    }

    /// Server-side RPC metrics.
    pub fn metrics(&self) -> &rpcoib::MetricsRegistry {
        self.server.metrics()
    }

    /// Number of currently live (heartbeating) DataNodes.
    pub fn live_datanode_count(&self) -> usize {
        self.state.live_datanodes(&[]).len()
    }

    /// Count of blocks whose live replica count is below the configured
    /// replication factor (fsck-style health signal).
    pub fn under_replicated_count(&self) -> usize {
        self.fsck().under_replicated
    }

    /// Number of currently outstanding write leases.
    pub fn lease_count(&self) -> usize {
        self.state.leases.lock().len()
    }

    /// Full filesystem health report (the `hdfs fsck` essentials).
    pub fn fsck(&self) -> FsckReport {
        let live: Vec<u32> = self
            .state
            .live_datanodes(&[])
            .iter()
            .map(|dn| dn.id)
            .collect();
        let mut report = FsckReport {
            live_datanodes: live.len(),
            ..FsckReport::default()
        };
        {
            let ns = self.state.namespace.lock();
            for node in ns.values() {
                match node {
                    INode::Dir => report.directories += 1,
                    INode::File { .. } => report.files += 1,
                }
            }
        }
        let blocks = self.state.blocks.lock();
        for meta in blocks.values() {
            if meta.size == 0 {
                report.empty_blocks += 1;
                continue;
            }
            report.blocks += 1;
            report.total_bytes += meta.size;
            let live_replicas = meta.locations.iter().filter(|id| live.contains(id)).count();
            if live_replicas == 0 {
                report.missing += 1;
            }
            if live_replicas < self.state.cfg.replication {
                report.under_replicated += 1;
            }
        }
        report
    }

    /// Stop the RPC server.
    pub fn stop(&self) {
        self.server.stop();
    }
}

impl std::fmt::Debug for NameNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameNode")
            .field("addr", &self.server.addr())
            .finish()
    }
}
