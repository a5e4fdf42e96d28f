//! `hbase_mix`: the application tier. A mini-HBase cluster in the paper's
//! fully-RDMA configuration, loaded and then driven with a seeded 50/50
//! get/put mix through `HBaseClient::get`/`put`.
//!
//! The run is work-based: each caller issues a fixed number of operations
//! per slice. Without compaction the store grows with the operations done,
//! so a timed run would hand a faster build a larger store to search.

use std::sync::Arc;

use mini_hbase::types::region_of;
use mini_hbase::{HBaseClient, HBaseConfig, MiniHbase};
use rpcoib::RpcResult;
use simnet::{model, Fabric};

use crate::gen::{self, KvOp, Rng};
use crate::run::{Env, Surfaces};
use crate::window::{Caller, CALLERS};

pub const KIND_GET: u8 = 0;
pub const KIND_PUT: u8 = 1;

const REGION_SERVERS: usize = 2;
/// Records loaded before timing, split evenly into per-caller key ranges
/// (disjoint, so "a get returns the last value this caller put" holds
/// without the callers coordinating).
///
/// Each caller's keys also all hash to one region, a different one per
/// caller. A region server writes a memstore flush to HDFS outside its
/// lock and installs the flushed rows afterwards, so two flushes of one
/// region can finish out of order and the older snapshot overwrites the
/// newer row: with both callers on both regions about 3 gets in 1000 read a
/// value several versions old, and kept reading it until the next put. A
/// caller is blocked while its own put flushes, so with a region each,
/// flushes of a region never overlap and no operation fails. (The stale
/// read is the engine's to fix; until then the benchmark keeps out of its
/// way rather than report it as noise.)
const RECORDS: usize = 4_000;
const KEYS_PER_CALLER: usize = RECORDS / CALLERS;
pub const VALUE_BYTES: usize = 1_024;
/// A value starts with (key index, version), so every put writes distinct
/// bytes and a stale read cannot pass for a fresh one.
const STAMP_BYTES: usize = 8;

/// Operations per caller per slice for a run of `seconds`: sized so the
/// window lasts about `seconds` on the sandbox (about 20 k ops/s), and
/// fixed by the arguments alone, never by how fast the build is.
pub fn ops_per_slice(seconds: f64) -> usize {
    ((600.0 * seconds) as usize).max(50)
}

pub struct KvInputs {
    /// Per caller: the filler every value of that caller ends with.
    fillers: Vec<Vec<u8>>,
    ops: Vec<Vec<KvOp>>,
}

pub fn inputs(seed: u64, ops_per_caller: usize) -> KvInputs {
    let mut fillers = Vec::new();
    let mut ops = Vec::new();
    for c in 0..CALLERS {
        let mut rng = Rng::new(seed, c as u64);
        let mut filler = vec![0u8; VALUE_BYTES];
        rng.fill(&mut filler);
        fillers.push(filler);
        ops.push(gen::kv_ops(&mut rng, ops_per_caller, KEYS_PER_CALLER));
    }
    KvInputs { fillers, ops }
}

/// The first `KEYS_PER_CALLER` names of the caller's series that hash to
/// `region`.
fn keys_in_region(caller: usize, region: u32, n_regions: u32) -> Vec<Vec<u8>> {
    (0u32..)
        .map(|n| format!("bench-c{caller}-k{n:07}").into_bytes())
        .filter(|key| region_of(key, n_regions) == region)
        .take(KEYS_PER_CALLER)
        .collect()
}

struct KvCaller {
    client: Arc<HBaseClient>,
    keys: Vec<Vec<u8>>,
    /// Version of the last acknowledged put per key.
    versions: Vec<u32>,
    /// The value buffer: stamp + filler, restamped per put.
    value: Vec<u8>,
    ops: Vec<KvOp>,
    next: usize,
    op: KvOp,
    outcome: Option<Outcome>,
}

enum Outcome {
    Put(RpcResult<()>),
    Got(RpcResult<Option<Vec<u8>>>),
}

impl KvCaller {
    fn stamp(&mut self, key: u32, version: u32) {
        self.value[..4].copy_from_slice(&key.to_be_bytes());
        self.value[4..STAMP_BYTES].copy_from_slice(&version.to_be_bytes());
    }

    /// Make `op` the current operation. Both arms restamp the value: a put
    /// sends the next version, a get is checked against the last one.
    fn set_op(&mut self, op: KvOp) {
        self.op = op;
        let version = self.versions[op.key as usize] + u32::from(op.put);
        self.stamp(op.key, version);
    }

    /// The load phase: put `key`, through the same steps as a timed call.
    fn load(&mut self, key: u32) -> bool {
        self.set_op(KvOp { put: true, key });
        self.invoke();
        self.check().is_some()
    }
}

impl Caller for KvCaller {
    fn prepare(&mut self, _call_id: u64) {
        let op = self.ops[self.next % self.ops.len()];
        self.set_op(op);
        self.next += 1;
    }

    fn invoke(&mut self) {
        let key = &self.keys[self.op.key as usize];
        self.outcome = Some(if self.op.put {
            Outcome::Put(self.client.put(key, &self.value))
        } else {
            Outcome::Got(self.client.get(key))
        });
    }

    fn check(&mut self) -> Option<u64> {
        let key_len = self.keys[self.op.key as usize].len();
        match self.outcome.take()? {
            Outcome::Put(Ok(())) => {
                self.versions[self.op.key as usize] += 1;
                Some((key_len + self.value.len()) as u64)
            }
            Outcome::Got(Ok(Some(value))) if value == self.value => {
                Some((key_len + value.len()) as u64)
            }
            _ => None,
        }
    }

    fn kind(&self) -> u8 {
        if self.op.put {
            KIND_PUT
        } else {
            KIND_GET
        }
    }
}

pub struct KvEnv {
    hbase: MiniHbase,
    client: Arc<HBaseClient>,
}

/// Start the cluster, connect one client (shared by the callers: one
/// operation-plane connection per region server), and load the records.
pub fn boot(inputs: &KvInputs) -> RpcResult<(KvEnv, Vec<Box<dyn Caller>>)> {
    let cfg = HBaseConfig::all_ib();
    let n_regions = (REGION_SERVERS * cfg.regions_per_server) as u32;
    let hbase = MiniHbase::start(model::IPOIB_QDR, REGION_SERVERS, cfg)?;
    let client = Arc::new(hbase.client()?);

    let mut callers: Vec<KvCaller> = (0..CALLERS)
        .map(|c| KvCaller {
            client: Arc::clone(&client),
            keys: keys_in_region(c, c as u32 % n_regions, n_regions),
            versions: vec![0; KEYS_PER_CALLER],
            value: inputs.fillers[c].clone(),
            ops: inputs.ops[c].clone(),
            next: 0,
            op: KvOp { put: false, key: 0 },
            outcome: None,
        })
        .collect();

    let loaded = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| scope.spawn(move || (0..KEYS_PER_CALLER as u32).all(|k| caller.load(k))))
            .collect();
        handles
            .into_iter()
            .all(|h| h.join().expect("a load thread panicked"))
    });
    if !loaded {
        return Err(rpcoib::RpcError::Protocol("a load-phase put failed".into()));
    }

    let callers = callers
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn Caller>)
        .collect();
    Ok((KvEnv { hbase, client }, callers))
}

impl Env for KvEnv {
    fn fabrics(&self) -> Vec<Fabric> {
        let cluster = self.hbase.cluster();
        vec![cluster.eth().clone(), cluster.ib().clone()]
    }

    fn surfaces(&self) -> Surfaces {
        let mut s = Surfaces::default();
        // The operation-plane client's registry; its pool and the region
        // servers' `Server`s are not reachable through the public API, so
        // the server-side and bufpool rows read 0 on this workload.
        s.add_client(&self.client.ops_metrics().full_snapshot(None));
        for fabric in self.fabrics() {
            s.add_fabric(&fabric);
        }
        s.regionserver_ops = self
            .hbase
            .regionservers()
            .iter()
            .map(|rs| {
                let (puts, gets) = rs.op_counts();
                puts + gets
            })
            .sum();
        s.namenode_rpcs = self
            .hbase
            .dfs()
            .namenode()
            .metrics()
            .snapshot()
            .iter()
            .map(|(_, stats)| stats.recvs)
            .sum();
        s
    }

    fn teardown(self: Box<Self>) {
        self.client.shutdown();
        self.hbase.stop();
    }
}
