//! The TaskTracker: slots, heartbeats, the task umbilical server, runner
//! threads, and the shuffle service.
//!
//! Tasks execute on runner threads in-process (standing in for Hadoop's
//! child JVMs) but speak the real `mapred.TaskUmbilicalProtocol` over the
//! RPC engine — `getTask`, `ping`, `statusUpdate`, `commitPending`,
//! `canCommit`, `getMapCompletionEvents`, `done` — which is precisely the
//! traffic Table I profiles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use mini_hdfs::dataxfer::{DataConnPool, DataService};
use mini_hdfs::{DfsClient, HostNet};
use parking_lot::Mutex;
use rpcoib::{Client, RpcConfig, RpcError, RpcResult, RpcService, Server, ServiceRegistry};
use simnet::{Cluster, Host, SimAddr, SimListener};
use wire::{BooleanWritable, DataInput, IntWritable, NullWritable, VLongWritable, Writable};

use crate::config::MrConfig;
use crate::jobs::{logic_for, run_map_task, run_reduce_task};
use crate::shuffle::{self, MapOutputStore};
use crate::types::{
    HeartbeatArgs, HeartbeatResponse, MapCompletionEvent, TaskAssignment, TaskReport, TaskSpec,
    TrackerInfo,
};
use crate::{SHUFFLE_PORT, UMBILICAL_PORT};

const UMBILICAL_PROTOCOL: &str = "mapred.TaskUmbilicalProtocol";
const INTERTRACKER_PROTOCOL: &str = "mapred.InterTrackerProtocol";

struct TtState {
    cfg: MrConfig,
    id: u32,
    jt: SimAddr,
    jt_client: Client,
    umb_client: Client,
    umb_addr: SimAddr,
    dfs: Arc<DfsClient>,
    store: Arc<MapOutputStore>,
    shuffle_pool: DataConnPool,
    assignments: Mutex<HashMap<u64, TaskAssignment>>,
    /// The map slots, then the reduce slots ([`kind`]).
    slots: [Slots; 2],
    running: Mutex<HashMap<u64, TaskReport>>,
    completed: Mutex<Vec<u64>>,
    failed: Mutex<Vec<u64>>,
    stop: AtomicBool,
}

/// The slots of one kind of task: the queue the heartbeat fills and the
/// kind's runners block on, and its attempts queued or running.
struct Slots {
    /// `None` once `stop` has dropped it, which ends the runners' waits.
    tx: Mutex<Option<Sender<u64>>>,
    rx: Receiver<u64>,
    in_flight: AtomicU32,
}

impl Slots {
    fn new() -> Slots {
        let (tx, rx) = unbounded();
        Slots {
            tx: Mutex::new(Some(tx)),
            rx,
            in_flight: AtomicU32::new(0),
        }
    }

    /// Of `total` slots, those neither queued for nor running.
    fn free(&self, total: usize) -> u32 {
        (total as u32).saturating_sub(self.in_flight.load(Ordering::Acquire))
    }
}

/// Index into [`TtState::slots`].
fn kind(is_map: bool) -> usize {
    usize::from(!is_map)
}

/// The umbilical RPC service hosted for this tracker's tasks.
struct Umbilical {
    state: Arc<TtState>,
}

impl RpcService for Umbilical {
    fn protocol(&self) -> &'static str {
        UMBILICAL_PROTOCOL
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let state = &self.state;
        match method {
            "getTask" => {
                let mut attempt = VLongWritable::default();
                attempt.read_fields(param).map_err(|e| e.to_string())?;
                let assignment = state
                    .assignments
                    .lock()
                    .get(&(attempt.0 as u64))
                    .cloned()
                    .ok_or_else(|| format!("no assignment for attempt {}", attempt.0))?;
                Ok(Box::new(assignment))
            }
            "ping" => {
                let mut attempt = VLongWritable::default();
                attempt.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(BooleanWritable(true)))
            }
            "statusUpdate" => {
                let mut report = TaskReport::default();
                report.read_fields(param).map_err(|e| e.to_string())?;
                state.running.lock().insert(report.attempt, report);
                Ok(Box::new(BooleanWritable(true)))
            }
            "commitPending" => {
                // Carries a full TaskStatus, like Hadoop's commitPending.
                let mut report = TaskReport::default();
                report.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(NullWritable))
            }
            "canCommit" => {
                let mut attempt = VLongWritable::default();
                attempt.read_fields(param).map_err(|e| e.to_string())?;
                // Proxy to the JobTracker, which arbitrates commits.
                let granted: BooleanWritable = state
                    .jt_client
                    .call(state.jt, INTERTRACKER_PROTOCOL, "canCommit", &attempt)
                    .map_err(|e| e.to_string())?;
                Ok(Box::new(granted))
            }
            "getMapCompletionEvents" => {
                let mut job = IntWritable::default();
                let mut from = IntWritable::default();
                job.read_fields(param).map_err(|e| e.to_string())?;
                from.read_fields(param).map_err(|e| e.to_string())?;
                let events: Vec<MapCompletionEvent> = state
                    .jt_client
                    .call(
                        state.jt,
                        INTERTRACKER_PROTOCOL,
                        "getMapCompletionEvents",
                        &(job, from),
                    )
                    .map_err(|e| e.to_string())?;
                Ok(Box::new(events))
            }
            "done" => {
                let mut attempt = VLongWritable::default();
                attempt.read_fields(param).map_err(|e| e.to_string())?;
                state.assignments.lock().remove(&(attempt.0 as u64));
                Ok(Box::new(NullWritable))
            }
            other => Err(format!("TaskUmbilicalProtocol has no method {other}")),
        }
    }
}

/// A running TaskTracker.
pub struct TaskTracker {
    state: Arc<TtState>,
    umbilical_server: Server,
    shuffle: DataService,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TaskTracker {
    /// Register with the JobTracker at `jt` and start slots + services on
    /// `host`.
    pub fn start(
        cluster: &Cluster,
        host: Host,
        jt: SimAddr,
        nn: SimAddr,
        cfg: MrConfig,
    ) -> RpcResult<TaskTracker> {
        // RPC rail (JT, umbilical) per cfg.rpc. The shuffle follows the
        // same rail: on RPCoIB configurations map outputs ride the verbs
        // bulk data plane (64 KiB chunks go one-sided through the slot
        // ring), otherwise they stay on the Ethernet sockets.
        let (rpc_fabric, rpc_node) = if cfg.rpc.ib_enabled {
            (cluster.ib().clone(), cluster.ib_node(host))
        } else {
            (cluster.eth().clone(), cluster.eth_node(host))
        };
        let shuffle_node = rpc_node;

        let jt_client = Client::new(&rpc_fabric, rpc_node, cfg.rpc.clone())?;
        let me = TrackerInfo {
            tt_id: 0,
            shuffle_node: shuffle_node.0,
            shuffle_port: SHUFFLE_PORT,
        };
        let id: IntWritable = jt_client.call(jt, INTERTRACKER_PROTOCOL, "registerTracker", &me)?;
        let id = id.0 as u32;

        let hdfs_net = HostNet::of(cluster, host, &cfg.hdfs);
        let dfs = Arc::new(DfsClient::new(&hdfs_net, nn, cfg.hdfs.clone())?);

        let umb_addr = SimAddr::new(rpc_node, UMBILICAL_PORT);
        let umb_client = Client::new(&rpc_fabric, rpc_node, cfg.rpc.clone())?;
        let shuffle_cfg = if cfg.rpc.ib_enabled {
            cfg.rpc.clone()
        } else {
            RpcConfig::socket()
        };
        let shuffle_pool = DataConnPool::new(&rpc_fabric, shuffle_node, shuffle_cfg)?;
        let shuffle_listener =
            SimListener::bind(&rpc_fabric, SimAddr::new(shuffle_node, SHUFFLE_PORT))?;

        let state = Arc::new(TtState {
            cfg: cfg.clone(),
            id,
            jt,
            jt_client,
            umb_client,
            umb_addr,
            dfs,
            store: Arc::new(MapOutputStore::new()),
            shuffle_pool,
            assignments: Mutex::new(HashMap::new()),
            slots: [Slots::new(), Slots::new()],
            running: Mutex::new(HashMap::new()),
            completed: Mutex::new(Vec::new()),
            failed: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });

        // Umbilical RPC server (a couple of handlers is plenty: its only
        // clients are this node's tasks).
        let umb_cfg = RpcConfig {
            handlers: 2,
            ..cfg.rpc.clone()
        };
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(Umbilical {
            state: Arc::clone(&state),
        }));
        let umbilical_server =
            Server::start(&rpc_fabric, rpc_node, UMBILICAL_PORT, umb_cfg, registry)?;

        let mut threads = Vec::new();
        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tt{id}-heartbeat"))
                    .spawn(move || heartbeat_loop(state))
                    .expect("spawn heartbeat"),
            );
        }
        for (is_map, name, n) in [
            (true, "map", cfg.map_slots),
            (false, "reduce", cfg.reduce_slots),
        ] {
            for slot in 0..n {
                let state = Arc::clone(&state);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("tt{id}-{name}-{slot}"))
                        .spawn(move || runner_loop(state, is_map))
                        .expect("spawn runner"),
                );
            }
        }
        let store = Arc::clone(&state.store);
        let shuffle = DataService::start(
            shuffle_listener,
            &state.shuffle_pool,
            format!("tt{id}-shuffle"),
            format!("tt{id}-shuffle-conn"),
            move |conn| shuffle::serve_connection(conn, &store),
        );

        Ok(TaskTracker {
            state,
            umbilical_server,
            shuffle,
            threads: Mutex::new(threads),
        })
    }

    /// The tracker's JobTracker-assigned id.
    pub fn id(&self) -> u32 {
        self.state.id
    }

    /// The umbilical RPC client (its metrics are the Table I input).
    pub fn umbilical_metrics(&self) -> &rpcoib::MetricsRegistry {
        self.state.umb_client.metrics()
    }

    /// The JobTracker-facing client (heartbeat metrics feed Figure 3).
    pub fn jt_metrics(&self) -> &rpcoib::MetricsRegistry {
        self.state.jt_client.metrics()
    }

    /// The HDFS client shared by this tracker's tasks.
    pub fn dfs(&self) -> &Arc<DfsClient> {
        &self.state.dfs
    }

    /// Stop all threads. Idempotent.
    pub fn stop(&self) {
        if self.state.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.umbilical_server.stop();
        self.state.jt_client.shutdown();
        self.state.umb_client.shutdown();
        self.state.dfs.shutdown();
        self.shuffle.stop();
        for slots in &self.state.slots {
            slots.tx.lock().take();
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for TaskTracker {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for TaskTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskTracker")
            .field("id", &self.state.id)
            .finish()
    }
}

fn heartbeat_loop(state: Arc<TtState>) {
    while !state.stop.load(Ordering::Acquire) {
        state.jt_client.clock().sleep(state.cfg.heartbeat);
        let completed: Vec<u64> = state.completed.lock().clone();
        let failed: Vec<u64> = state.failed.lock().clone();
        let running: Vec<TaskReport> = state.running.lock().values().cloned().collect();
        let args = HeartbeatArgs {
            tt_id: state.id,
            free_map_slots: state.slots[kind(true)].free(state.cfg.map_slots),
            free_reduce_slots: state.slots[kind(false)].free(state.cfg.reduce_slots),
            completed: completed.clone(),
            failed: failed.clone(),
            running,
        };
        let response: HeartbeatResponse =
            match state
                .jt_client
                .call(state.jt, INTERTRACKER_PROTOCOL, "heartbeat", &args)
            {
                Ok(r) => r,
                Err(_) => continue, // keep the deltas; retry next beat
            };
        // The JobTracker has acknowledged these deltas.
        state.completed.lock().retain(|a| !completed.contains(a));
        state.failed.lock().retain(|a| !failed.contains(a));
        {
            let mut running = state.running.lock();
            for a in completed.iter().chain(failed.iter()) {
                running.remove(a);
            }
        }

        for action in response.actions {
            let attempt = action.attempt;
            let slots = &state.slots[kind(matches!(action.spec, TaskSpec::Map { .. }))];
            state.assignments.lock().insert(attempt, action);
            slots.in_flight.fetch_add(1, Ordering::AcqRel);
            if let Some(tx) = &*slots.tx.lock() {
                let _ = tx.send(attempt);
            }
        }
    }
}

/// Run the attempts queued for this runner's kind, blocked on the queue
/// between them, until `stop` drops the queue's sender.
fn runner_loop(state: Arc<TtState>, is_map: bool) {
    let slots = &state.slots[kind(is_map)];
    while let Ok(attempt) = slots.rx.recv() {
        let result = if is_map {
            run_map_attempt(&state, attempt)
        } else {
            run_reduce_attempt(&state, attempt)
        };
        slots.in_flight.fetch_sub(1, Ordering::AcqRel);
        // The final report stays in `running` until a heartbeat has
        // carried the completion to the JobTracker (Hadoop reports every
        // not-yet-acknowledged task's status).
        match result {
            Ok(()) => state.completed.lock().push(attempt),
            Err(_) => {
                state.assignments.lock().remove(&attempt);
                state.running.lock().remove(&attempt);
                state.failed.lock().push(attempt);
            }
        }
    }
}

/// Build a Hadoop-`TaskStatus`-shaped report with the standard counters.
fn task_report(attempt: u64, phase: &str, state: &str, records: u64) -> TaskReport {
    let counters: Vec<(String, i64)> = match phase {
        "MAP" => vec![
            ("MAP_INPUT_RECORDS".into(), records as i64),
            ("MAP_OUTPUT_RECORDS".into(), records as i64),
            ("MAP_OUTPUT_BYTES".into(), (records * 110) as i64),
            ("SPILLED_RECORDS".into(), records as i64),
            ("HDFS_BYTES_READ".into(), (records * 110) as i64),
            ("FILE_BYTES_WRITTEN".into(), (records * 112) as i64),
            ("COMBINE_INPUT_RECORDS".into(), 0),
            ("CPU_MILLISECONDS".into(), (records / 50) as i64),
        ],
        _ => vec![
            ("REDUCE_INPUT_GROUPS".into(), records as i64),
            ("REDUCE_INPUT_RECORDS".into(), (records * 2) as i64),
            ("REDUCE_OUTPUT_RECORDS".into(), records as i64),
            ("REDUCE_SHUFFLE_BYTES".into(), (records * 110) as i64),
            ("SPILLED_RECORDS".into(), records as i64),
            ("HDFS_BYTES_WRITTEN".into(), (records * 110) as i64),
            ("FILE_BYTES_READ".into(), (records * 112) as i64),
            ("CPU_MILLISECONDS".into(), (records / 50) as i64),
        ],
    };
    TaskReport {
        attempt,
        progress: ((records % 100) as f32) / 100.0,
        state: state.into(),
        phase: phase.into(),
        counters,
    }
}

/// Umbilical call helpers (every task conversation goes over RPC).
fn umb_call<Req: Writable, Resp: Writable + Default>(
    state: &TtState,
    method: &str,
    req: &Req,
) -> RpcResult<Resp> {
    state
        .umb_client
        .call(state.umb_addr, UMBILICAL_PROTOCOL, method, req)
}

fn run_map_attempt(state: &Arc<TtState>, attempt: u64) -> RpcResult<()> {
    let assignment: TaskAssignment = umb_call(state, "getTask", &VLongWritable(attempt as i64))?;
    let (map_idx, split) = match &assignment.spec {
        TaskSpec::Map { map_idx, split } => (*map_idx, split.clone()),
        _ => return Err(RpcError::Protocol("map runner got non-map task".into())),
    };
    let conf = assignment.conf;
    let logic = logic_for(conf.kind);

    let status_every = state.cfg.status_every_records as u64;
    let status_interval = state.cfg.status_interval;
    let state_cb = Arc::clone(state);
    let clock = state.umb_client.clock().clone();
    let mut last_status = clock.now_ns();
    let progress_cb = move |records: u64| {
        let due = clock.now_ns() >= simnet::time::later(last_status, status_interval);
        if records.is_multiple_of(status_every.max(1)) || due {
            last_status = clock.now_ns();
            let _ = umb_call::<TaskReport, BooleanWritable>(
                &state_cb,
                "statusUpdate",
                &task_report(attempt, "MAP", "RUNNING", records),
            );
        }
    };

    let partitions = run_map_task(
        logic.as_ref(),
        &conf,
        map_idx,
        &split,
        &state.dfs,
        progress_cb,
    )
    .map_err(|e| RpcError::Remote(e.to_string()))?;

    if conf.n_reduces == 0 {
        // Map-only job: the map writes its output file directly (creating
        // the output directory, as Hadoop's OutputCommitter setup does —
        // this is the `mkdirs` traffic visible in Table I).
        state.dfs.mkdirs(&conf.output)?;
        let path = format!("{}/part-m-{map_idx:05}", conf.output);
        let data = partitions.into_iter().next().unwrap_or_default();
        state.dfs.write_file(&path, &data)?;
    } else {
        for (r, run) in partitions.into_iter().enumerate() {
            state.store.insert(assignment.job, map_idx, r as u32, run);
        }
    }
    // Final status, then done — as a finishing Hadoop task reports.
    let _: BooleanWritable = umb_call(
        state,
        "statusUpdate",
        &task_report(attempt, "MAP", "SUCCEEDED", 100),
    )?;
    let _: NullWritable = umb_call(state, "done", &VLongWritable(attempt as i64))?;
    Ok(())
}

fn run_reduce_attempt(state: &Arc<TtState>, attempt: u64) -> RpcResult<()> {
    let assignment: TaskAssignment = umb_call(state, "getTask", &VLongWritable(attempt as i64))?;
    let (reduce_idx, n_maps) = match assignment.spec {
        TaskSpec::Reduce { reduce_idx, n_maps } => (reduce_idx, n_maps),
        _ => {
            return Err(RpcError::Protocol(
                "reduce runner got non-reduce task".into(),
            ))
        }
    };
    let conf = assignment.conf;
    let job = assignment.job;
    let logic = logic_for(conf.kind);

    // Collect map-completion events until every map output is located.
    let mut events: HashMap<u32, MapCompletionEvent> = HashMap::new();
    let clock = state.umb_client.clock();
    let deadline = clock.deadline(Duration::from_secs(120));
    while events.len() < n_maps as usize {
        if state.stop.load(Ordering::Acquire) {
            return Err(RpcError::ConnectionClosed);
        }
        if clock.now_ns() > deadline {
            return Err(RpcError::Timeout);
        }
        let fresh: Vec<MapCompletionEvent> = umb_call(
            state,
            "getMapCompletionEvents",
            &(IntWritable(job as i32), IntWritable(0)),
        )?;
        for e in fresh {
            events.insert(e.map_idx, e);
        }
        if events.len() < n_maps as usize {
            let _: BooleanWritable = umb_call(state, "ping", &VLongWritable(attempt as i64))?;
            clock.sleep(state.cfg.status_interval);
        }
    }

    // Shuffle: fetch this reduce's partition of every map output.
    let mut runs = Vec::with_capacity(n_maps as usize);
    for map_idx in 0..n_maps {
        let mut fetched = None;
        for _ in 0..100 {
            let event = events[&map_idx];
            match shuffle::fetch(
                &state.shuffle_pool,
                event.shuffle_addr(),
                job,
                map_idx,
                reduce_idx,
            ) {
                Ok(Some(data)) => {
                    fetched = Some(data);
                    break;
                }
                Ok(None) | Err(_) => {
                    // The map may have been re-run elsewhere: refresh events.
                    let fresh: Vec<MapCompletionEvent> = umb_call(
                        state,
                        "getMapCompletionEvents",
                        &(IntWritable(job as i32), IntWritable(0)),
                    )?;
                    for e in fresh {
                        events.insert(e.map_idx, e);
                    }
                    clock.sleep(state.cfg.status_interval);
                }
            }
        }
        let data = fetched.ok_or_else(|| {
            RpcError::Protocol(format!(
                "could not fetch map {map_idx} partition {reduce_idx}"
            ))
        })?;
        runs.push(data);
        let _: BooleanWritable = umb_call(
            state,
            "statusUpdate",
            &task_report(attempt, "SHUFFLE", "RUNNING", (map_idx + 1) as u64),
        )?;
    }

    // Reduce.
    let status_every = state.cfg.status_every_records as u64;
    let state_cb = Arc::clone(state);
    let progress_cb = move |groups: u64| {
        if groups.is_multiple_of(status_every.max(1)) {
            let _ = umb_call::<TaskReport, BooleanWritable>(
                &state_cb,
                "statusUpdate",
                &task_report(attempt, "REDUCE", "RUNNING", groups),
            );
        }
    };
    let output = run_reduce_task(
        logic.as_ref(),
        &conf,
        reduce_idx,
        runs,
        &state.dfs,
        progress_cb,
    )
    .map_err(|e| RpcError::Remote(e.to_string()))?;

    // Commit dance: commitPending (with a full status, as Hadoop sends),
    // then canCommit arbitration at the JT.
    let _: NullWritable = umb_call(
        state,
        "commitPending",
        &task_report(attempt, "REDUCE", "COMMIT_PENDING", reduce_idx as u64),
    )?;
    let granted: BooleanWritable = umb_call(state, "canCommit", &VLongWritable(attempt as i64))?;
    if granted.0 {
        state.dfs.mkdirs(&conf.output)?;
        let path = format!("{}/part-r-{reduce_idx:05}", conf.output);
        state.dfs.write_file(&path, &output)?;
    }
    let _: BooleanWritable = umb_call(
        state,
        "statusUpdate",
        &task_report(attempt, "REDUCE", "SUCCEEDED", 100),
    )?;
    let _: NullWritable = umb_call(state, "done", &VLongWritable(attempt as i64))?;
    Ok(())
}
