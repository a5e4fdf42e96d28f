//! The JobTracker: job state, heartbeat-driven scheduling, completion
//! events, commit arbitration, and lost-TaskTracker recovery.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rpcoib::{RpcError, RpcResult, RpcService, Server, ServiceRegistry};
use simnet::time::later;
use simnet::{Clock, Fabric, NodeId, SimAddr};
use wire::{BooleanWritable, DataInput, IntWritable, VLongWritable, Writable};

use crate::config::MrConfig;
use crate::types::{
    HeartbeatArgs, HeartbeatResponse, JobConf, JobState, JobStatus, MapCompletionEvent,
    TaskAssignment, TaskSpec, TrackerInfo,
};
use crate::JT_PORT;

#[derive(Debug, Clone, PartialEq, Eq)]
enum TaskStatus {
    Pending,
    /// One or more concurrent attempts (duplicates come from speculative
    /// execution); completion of any one finishes the task.
    Running {
        attempts: Vec<RunningAttempt>,
    },
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RunningAttempt {
    attempt: u64,
    tt: u32,
    /// On the JobTracker's clock, in ns.
    started: u64,
}

#[derive(Debug)]
struct Task {
    status: TaskStatus,
    attempts_used: u32,
    committed: Option<u64>,
    /// TaskTracker whose shuffle service holds this (map) task's output.
    ran_on: Option<u32>,
}

impl Task {
    fn new() -> Task {
        Task {
            status: TaskStatus::Pending,
            attempts_used: 0,
            committed: None,
            ran_on: None,
        }
    }

    fn is_running_attempt(&self, attempt: u64) -> bool {
        matches!(&self.status, TaskStatus::Running { attempts }
            if attempts.iter().any(|a| a.attempt == attempt))
    }

    fn start_attempt(&mut self, attempt: u64, tt: u32, now: u64) {
        let running = RunningAttempt {
            attempt,
            tt,
            started: now,
        };
        match &mut self.status {
            TaskStatus::Running { attempts } => attempts.push(running),
            _ => {
                self.status = TaskStatus::Running {
                    attempts: vec![running],
                }
            }
        }
        self.attempts_used += 1;
    }

    fn remove_attempt(&mut self, attempt: u64) {
        if let TaskStatus::Running { attempts } = &mut self.status {
            attempts.retain(|a| a.attempt != attempt);
            if attempts.is_empty() {
                self.status = TaskStatus::Pending;
            }
        }
    }
}

struct Job {
    conf: JobConf,
    maps: Vec<Task>,
    reduces: Vec<Task>,
    state: JobState,
    events: Vec<MapCompletionEvent>,
    /// Durations of completed attempts — the baseline that defines a
    /// straggler for speculative execution.
    completed_durations: Vec<Duration>,
}

impl Job {
    fn maps_done(&self) -> u32 {
        self.maps
            .iter()
            .filter(|t| t.status == TaskStatus::Done)
            .count() as u32
    }
    fn reduces_done(&self) -> u32 {
        self.reduces
            .iter()
            .filter(|t| t.status == TaskStatus::Done)
            .count() as u32
    }
    fn all_maps_done(&self) -> bool {
        self.maps.iter().all(|t| t.status == TaskStatus::Done)
    }
    fn refresh_state(&mut self) {
        if self.state == JobState::Running
            && self.all_maps_done()
            && self.reduces.iter().all(|t| t.status == TaskStatus::Done)
        {
            self.state = JobState::Succeeded;
        }
    }
    fn status(&self, id: u32) -> JobStatus {
        JobStatus {
            job: id,
            state: self.state,
            maps_total: self.maps.len() as u32,
            maps_done: self.maps_done(),
            reduces_total: self.reduces.len() as u32,
            reduces_done: self.reduces_done(),
        }
    }
}

fn median_duration(durations: &[Duration]) -> Option<Duration> {
    if durations.is_empty() {
        return None;
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    Some(sorted[sorted.len() / 2])
}

struct TrackerReg {
    info: TrackerInfo,
    /// On the JobTracker's clock, in ns.
    last_heartbeat: u64,
}

#[derive(Debug, Clone, Copy)]
enum TaskRef {
    Map { job: u32, idx: usize },
    Reduce { job: u32, idx: usize },
}

struct JtState {
    cfg: MrConfig,
    jobs: Mutex<HashMap<u32, Job>>,
    trackers: Mutex<HashMap<u32, TrackerReg>>,
    /// Notified, under `trackers`, when a TaskTracker registers.
    registered: Condvar,
    /// The clock of the fabric the JobTracker's RPC runs on.
    clock: Clock,
    attempts: Mutex<HashMap<u64, TaskRef>>,
    next_job: AtomicU32,
    next_tt: AtomicU32,
    next_attempt: AtomicU64,
}

impl JtState {
    fn task_mut<'a>(&self, jobs: &'a mut HashMap<u32, Job>, r: TaskRef) -> Option<&'a mut Task> {
        match r {
            TaskRef::Map { job, idx } => jobs.get_mut(&job).and_then(|j| j.maps.get_mut(idx)),
            TaskRef::Reduce { job, idx } => jobs.get_mut(&job).and_then(|j| j.reduces.get_mut(idx)),
        }
    }

    /// Requeue tasks owned by TaskTrackers that stopped heartbeating.
    /// Completed maps on a lost tracker are also requeued when their job
    /// still has unfinished reduces (the shuffle outputs died with it).
    fn reap_lost_trackers(&self) {
        let now = self.clock.now_ns();
        let lost: Vec<u32> = {
            let mut trackers = self.trackers.lock();
            let lost: Vec<u32> = trackers
                .iter()
                .filter(|(_, reg)| now > later(reg.last_heartbeat, self.cfg.tt_timeout))
                .map(|(id, _)| *id)
                .collect();
            for id in &lost {
                trackers.remove(id);
            }
            lost
        };
        if lost.is_empty() {
            return;
        }
        let mut jobs = self.jobs.lock();
        for job in jobs.values_mut() {
            if job.state != JobState::Running {
                continue;
            }
            let reduces_remain = !job.reduces.iter().all(|t| t.status == TaskStatus::Done);
            for (idx, task) in job.maps.iter_mut().enumerate() {
                match &mut task.status {
                    TaskStatus::Running { attempts } => {
                        attempts.retain(|a| !lost.contains(&a.tt));
                        if attempts.is_empty() {
                            task.status = TaskStatus::Pending;
                        }
                    }
                    TaskStatus::Done
                        if reduces_remain && task.ran_on.is_some_and(|tt| lost.contains(&tt)) =>
                    {
                        task.status = TaskStatus::Pending;
                        task.ran_on = None;
                        job.events.retain(|e| e.map_idx != idx as u32);
                    }
                    _ => {}
                }
            }
            for task in &mut job.reduces {
                if let TaskStatus::Running { attempts } = &mut task.status {
                    attempts.retain(|a| !lost.contains(&a.tt));
                    if attempts.is_empty() {
                        task.status = TaskStatus::Pending;
                    }
                }
            }
        }
    }

    fn assign(&self, tt: &TrackerInfo, free_maps: u32, free_reduces: u32) -> Vec<TaskAssignment> {
        let now = self.clock.now_ns();
        let mut actions = Vec::new();
        let mut jobs = self.jobs.lock();
        let mut job_ids: Vec<u32> = jobs.keys().copied().collect();
        job_ids.sort_unstable();

        let mut maps_left = free_maps;
        let mut reduces_left = free_reduces;
        for id in job_ids {
            let job = jobs.get_mut(&id).expect("job present");
            if job.state != JobState::Running {
                continue;
            }
            // Maps first.
            for (idx, task) in job.maps.iter_mut().enumerate() {
                if maps_left == 0 {
                    break;
                }
                if task.status == TaskStatus::Pending {
                    let attempt = self.next_attempt.fetch_add(1, Ordering::Relaxed);
                    task.start_attempt(attempt, tt.tt_id, now);
                    self.attempts
                        .lock()
                        .insert(attempt, TaskRef::Map { job: id, idx });
                    let split = job.conf.input.get(idx).cloned().unwrap_or_default();
                    actions.push(TaskAssignment {
                        job: id,
                        attempt,
                        spec: TaskSpec::Map {
                            map_idx: idx as u32,
                            split,
                        },
                        conf: job.conf.clone(),
                    });
                    maps_left -= 1;
                }
            }
            // Reduces only once every map of the job has completed.
            if job.all_maps_done() {
                let n_maps = job.conf.map_count();
                for (idx, task) in job.reduces.iter_mut().enumerate() {
                    if reduces_left == 0 {
                        break;
                    }
                    if task.status == TaskStatus::Pending {
                        let attempt = self.next_attempt.fetch_add(1, Ordering::Relaxed);
                        task.start_attempt(attempt, tt.tt_id, now);
                        self.attempts
                            .lock()
                            .insert(attempt, TaskRef::Reduce { job: id, idx });
                        actions.push(TaskAssignment {
                            job: id,
                            attempt,
                            spec: TaskSpec::Reduce {
                                reduce_idx: idx as u32,
                                n_maps,
                            },
                            conf: job.conf.clone(),
                        });
                        reduces_left -= 1;
                    }
                }
            }
        }
        // Speculative execution: spend leftover slots duplicating
        // stragglers (first finisher wins; reduces arbitrate commits via
        // canCommit).
        if self.cfg.speculative && (maps_left > 0 || reduces_left > 0) {
            for id in jobs.keys().copied().collect::<Vec<u32>>() {
                let job = jobs.get_mut(&id).expect("job present");
                if job.state != JobState::Running {
                    continue;
                }
                let completed_durations = job.completed_durations.clone();
                let speculate =
                    |tasks: &mut Vec<Task>,
                     is_map: bool,
                     budget: &mut u32,
                     attempts_table: &Mutex<HashMap<u64, TaskRef>>,
                     next_attempt: &AtomicU64,
                     conf: &JobConf,
                     actions: &mut Vec<TaskAssignment>| {
                        // A straggler has run far longer than the median of
                        // the job's completed attempts; with no completions
                        // yet there is no baseline, so nothing speculates
                        // (Hadoop's "wait for enough data" behaviour).
                        let Some(median) = median_duration(&completed_durations) else {
                            return;
                        };
                        let threshold = self
                            .cfg
                            .speculative_floor
                            .max(median.mul_f64(self.cfg.speculative_slowdown));
                        for (idx, task) in tasks.iter_mut().enumerate() {
                            if *budget == 0 {
                                break;
                            }
                            let TaskStatus::Running { attempts } = &task.status else {
                                continue;
                            };
                            if attempts.len() != 1 {
                                continue; // already speculated
                            }
                            let only = &attempts[0];
                            let ran = Duration::from_nanos(now.saturating_sub(only.started));
                            if only.tt == tt.tt_id || ran < threshold {
                                continue; // same tracker, or not a straggler
                            }
                            let attempt = next_attempt.fetch_add(1, Ordering::Relaxed);
                            task.start_attempt(attempt, tt.tt_id, now);
                            let task_ref = if is_map {
                                TaskRef::Map { job: id, idx }
                            } else {
                                TaskRef::Reduce { job: id, idx }
                            };
                            attempts_table.lock().insert(attempt, task_ref);
                            let spec = if is_map {
                                TaskSpec::Map {
                                    map_idx: idx as u32,
                                    split: conf.input.get(idx).cloned().unwrap_or_default(),
                                }
                            } else {
                                TaskSpec::Reduce {
                                    reduce_idx: idx as u32,
                                    n_maps: conf.map_count(),
                                }
                            };
                            actions.push(TaskAssignment {
                                job: id,
                                attempt,
                                spec,
                                conf: conf.clone(),
                            });
                            *budget -= 1;
                        }
                    };
                let conf = job.conf.clone();
                speculate(
                    &mut job.maps,
                    true,
                    &mut maps_left,
                    &self.attempts,
                    &self.next_attempt,
                    &conf,
                    &mut actions,
                );
                if job.all_maps_done() {
                    speculate(
                        &mut job.reduces,
                        false,
                        &mut reduces_left,
                        &self.attempts,
                        &self.next_attempt,
                        &conf,
                        &mut actions,
                    );
                }
            }
        }
        actions
    }

    fn handle_heartbeat(&self, args: &HeartbeatArgs) -> Result<HeartbeatResponse, String> {
        let tt_info = {
            let mut trackers = self.trackers.lock();
            let reg = trackers
                .get_mut(&args.tt_id)
                .ok_or_else(|| format!("unregistered tracker {}", args.tt_id))?;
            reg.last_heartbeat = self.clock.now_ns();
            reg.info
        };
        self.reap_lost_trackers();

        // Apply status deltas.
        {
            let mut jobs = self.jobs.lock();
            for attempt in &args.completed {
                let task_ref = self.attempts.lock().get(attempt).copied();
                if let Some(r) = task_ref {
                    if let Some(task) = self.task_mut(&mut jobs, r) {
                        if task.is_running_attempt(*attempt) {
                            let duration = match &task.status {
                                TaskStatus::Running { attempts } => {
                                    attempts.iter().find(|a| a.attempt == *attempt).map(|a| {
                                        Duration::from_nanos(self.clock.elapsed_ns(a.started))
                                    })
                                }
                                _ => None,
                            };
                            task.status = TaskStatus::Done;
                            task.ran_on = Some(args.tt_id);
                            if let (
                                Some(d),
                                TaskRef::Map { job, .. } | TaskRef::Reduce { job, .. },
                            ) = (duration, r)
                            {
                                if let Some(j) = jobs.get_mut(&job) {
                                    j.completed_durations.push(d);
                                }
                            }
                            if let TaskRef::Map { job, idx } = r {
                                if let Some(j) = jobs.get_mut(&job) {
                                    j.events.push(MapCompletionEvent {
                                        map_idx: idx as u32,
                                        shuffle_node: tt_info.shuffle_node,
                                        shuffle_port: tt_info.shuffle_port,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            for attempt in &args.failed {
                let task_ref = self.attempts.lock().get(attempt).copied();
                if let Some(r) = task_ref {
                    let max = self.cfg.max_task_attempts;
                    let (job_id, exhausted) = match (r, self.task_mut(&mut jobs, r)) {
                        (TaskRef::Map { job, .. } | TaskRef::Reduce { job, .. }, Some(task)) => {
                            task.remove_attempt(*attempt);
                            // A failed attempt releases any commit grant
                            // it held so a retry can commit.
                            if task.committed == Some(*attempt) {
                                task.committed = None;
                            }
                            (job, task.attempts_used >= max)
                        }
                        _ => continue,
                    };
                    if exhausted {
                        if let Some(j) = jobs.get_mut(&job_id) {
                            j.state = JobState::Failed;
                        }
                    }
                }
            }
            for job in jobs.values_mut() {
                job.refresh_state();
            }
        }

        Ok(HeartbeatResponse {
            actions: self.assign(&tt_info, args.free_map_slots, args.free_reduce_slots),
        })
    }
}

/// `mapred.JobSubmissionProtocol`.
struct JobSubmission {
    state: Arc<JtState>,
}

impl RpcService for JobSubmission {
    fn protocol(&self) -> &'static str {
        "mapred.JobSubmissionProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "submitJob" => {
                let mut conf = JobConf::default();
                conf.read_fields(param).map_err(|e| e.to_string())?;
                if conf.map_count() == 0 {
                    return Err("job has no map tasks".into());
                }
                let id = self.state.next_job.fetch_add(1, Ordering::Relaxed);
                let job = Job {
                    maps: (0..conf.map_count()).map(|_| Task::new()).collect(),
                    reduces: (0..conf.n_reduces).map(|_| Task::new()).collect(),
                    conf,
                    state: JobState::Running,
                    events: Vec::new(),
                    completed_durations: Vec::new(),
                };
                let status = job.status(id);
                self.state.jobs.lock().insert(id, job);
                Ok(Box::new(status))
            }
            "killJob" => {
                let mut id = IntWritable::default();
                id.read_fields(param).map_err(|e| e.to_string())?;
                let mut jobs = self.state.jobs.lock();
                let job = jobs
                    .get_mut(&(id.0 as u32))
                    .ok_or_else(|| format!("no job {}", id.0))?;
                if job.state == JobState::Running {
                    job.state = JobState::Failed;
                    // Forget every in-flight attempt: completions that
                    // trickle in later no longer match and are ignored.
                    for task in job.maps.iter_mut().chain(job.reduces.iter_mut()) {
                        if matches!(task.status, TaskStatus::Running { .. }) {
                            task.status = TaskStatus::Pending;
                        }
                    }
                }
                Ok(Box::new(job.status(id.0 as u32)))
            }
            "getJobStatus" => {
                let mut id = IntWritable::default();
                id.read_fields(param).map_err(|e| e.to_string())?;
                let jobs = self.state.jobs.lock();
                let job = jobs
                    .get(&(id.0 as u32))
                    .ok_or_else(|| format!("no job {}", id.0))?;
                Ok(Box::new(job.status(id.0 as u32)))
            }
            other => Err(format!("JobSubmissionProtocol has no method {other}")),
        }
    }
}

/// `mapred.InterTrackerProtocol`.
struct InterTracker {
    state: Arc<JtState>,
}

impl RpcService for InterTracker {
    fn protocol(&self) -> &'static str {
        "mapred.InterTrackerProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "registerTracker" => {
                let mut info = TrackerInfo::default();
                info.read_fields(param).map_err(|e| e.to_string())?;
                let id = self.state.next_tt.fetch_add(1, Ordering::Relaxed);
                info.tt_id = id;
                let last_heartbeat = self.state.clock.now_ns();
                let reg = TrackerReg {
                    info,
                    last_heartbeat,
                };
                self.state.trackers.lock().insert(id, reg);
                self.state.registered.notify_all();
                Ok(Box::new(IntWritable(id as i32)))
            }
            "heartbeat" => {
                let mut args = HeartbeatArgs::default();
                args.read_fields(param).map_err(|e| e.to_string())?;
                let response = self.state.handle_heartbeat(&args)?;
                Ok(Box::new(response))
            }
            "getMapCompletionEvents" => {
                let mut job = IntWritable::default();
                let mut from = IntWritable::default();
                job.read_fields(param)
                    .map_err(|e: io::Error| e.to_string())?;
                from.read_fields(param).map_err(|e| e.to_string())?;
                let jobs = self.state.jobs.lock();
                let j = jobs
                    .get(&(job.0 as u32))
                    .ok_or_else(|| format!("no job {}", job.0))?;
                let events: Vec<MapCompletionEvent> =
                    j.events.iter().skip(from.0 as usize).copied().collect();
                Ok(Box::new(events))
            }
            "canCommit" => {
                let mut attempt = VLongWritable::default();
                attempt.read_fields(param).map_err(|e| e.to_string())?;
                let attempt = attempt.0 as u64;
                let task_ref = self
                    .state
                    .attempts
                    .lock()
                    .get(&attempt)
                    .copied()
                    .ok_or_else(|| format!("unknown attempt {attempt}"))?;
                let mut jobs = self.state.jobs.lock();
                let task = self
                    .state
                    .task_mut(&mut jobs, task_ref)
                    .ok_or_else(|| "task vanished".to_owned())?;
                let granted = match task.committed {
                    None => {
                        task.committed = Some(attempt);
                        true
                    }
                    Some(winner) => winner == attempt,
                };
                Ok(Box::new(BooleanWritable(granted)))
            }
            other => Err(format!("InterTrackerProtocol has no method {other}")),
        }
    }
}

/// A running JobTracker.
pub struct JobTracker {
    server: Server,
    state: Arc<JtState>,
}

impl JobTracker {
    /// Start on `(node, JT_PORT)` of `fabric` (the RPC rail).
    pub fn start(fabric: &Fabric, node: NodeId, cfg: MrConfig) -> RpcResult<JobTracker> {
        let state = Arc::new(JtState {
            cfg: cfg.clone(),
            jobs: Mutex::new(HashMap::new()),
            trackers: Mutex::new(HashMap::new()),
            registered: Condvar::new(),
            clock: fabric.clock().clone(),
            attempts: Mutex::new(HashMap::new()),
            next_job: AtomicU32::new(1),
            next_tt: AtomicU32::new(0),
            next_attempt: AtomicU64::new(1),
        });
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(JobSubmission {
            state: Arc::clone(&state),
        }));
        registry.register(Arc::new(InterTracker {
            state: Arc::clone(&state),
        }));
        let server = Server::start(fabric, node, JT_PORT, cfg.rpc, registry)?;
        Ok(JobTracker { server, state })
    }

    /// The JobTracker RPC address.
    pub fn addr(&self) -> SimAddr {
        self.server.addr()
    }

    /// Server-side RPC metrics.
    pub fn metrics(&self) -> &rpcoib::MetricsRegistry {
        self.server.metrics()
    }

    /// Wait until `want` TaskTrackers have registered, for at most
    /// `timeout` on the JobTracker's clock.
    pub(crate) fn await_trackers(&self, want: usize, timeout: Duration) -> RpcResult<()> {
        let (state, deadline) = (&self.state, self.state.clock.deadline(timeout));
        let tts = &mut state.trackers.lock();
        let registered = state
            .clock
            .wait_on(&state.registered, tts, deadline, |t| t.len() >= want);
        registered.then_some(()).ok_or(RpcError::Timeout)
    }

    /// Stop the server.
    pub fn stop(&self) {
        self.server.stop();
    }
}

impl std::fmt::Debug for JobTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTracker")
            .field("addr", &self.server.addr())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_job(maps: u32, reduces: u32) -> Arc<JtState> {
        state_with_job_cfg(maps, reduces, MrConfig::default())
    }

    fn state_with_job_cfg(maps: u32, reduces: u32, cfg: MrConfig) -> Arc<JtState> {
        let state = Arc::new(JtState {
            cfg,
            jobs: Mutex::new(HashMap::new()),
            trackers: Mutex::new(HashMap::new()),
            registered: Condvar::new(),
            clock: Clock::manual(),
            attempts: Mutex::new(HashMap::new()),
            next_job: AtomicU32::new(2),
            next_tt: AtomicU32::new(1),
            next_attempt: AtomicU64::new(1),
        });
        let conf = JobConf {
            name: "t".into(),
            kind: crate::types::JobKind::Sort,
            input: (0..maps).map(|i| format!("/in/{i}")).collect(),
            output: "/out".into(),
            n_reduces: reduces,
            n_maps: 0,
            params: Vec::new(),
        };
        state.jobs.lock().insert(
            1,
            Job {
                maps: (0..maps).map(|_| Task::new()).collect(),
                reduces: (0..reduces).map(|_| Task::new()).collect(),
                conf,
                state: JobState::Running,
                events: Vec::new(),
                completed_durations: Vec::new(),
            },
        );
        state.trackers.lock().insert(
            0,
            TrackerReg {
                info: TrackerInfo {
                    tt_id: 0,
                    shuffle_node: 9,
                    shuffle_port: 50060,
                },
                last_heartbeat: 0,
            },
        );
        state
    }

    fn beat(state: &JtState, free_maps: u32, free_reduces: u32) -> HeartbeatResponse {
        beat_from(state, 0, free_maps, free_reduces)
    }

    fn beat_from(
        state: &JtState,
        tt_id: u32,
        free_maps: u32,
        free_reduces: u32,
    ) -> HeartbeatResponse {
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id,
                free_map_slots: free_maps,
                free_reduce_slots: free_reduces,
                ..Default::default()
            })
            .unwrap()
    }

    fn add_tracker(state: &JtState, tt_id: u32) {
        state.trackers.lock().insert(
            tt_id,
            TrackerReg {
                info: TrackerInfo {
                    tt_id,
                    shuffle_node: 100 + tt_id,
                    shuffle_port: 50060,
                },
                last_heartbeat: 0,
            },
        );
    }

    fn complete(state: &JtState, attempts: Vec<u64>) {
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 0,
                completed: attempts,
                ..Default::default()
            })
            .unwrap();
    }

    #[test]
    fn maps_assigned_up_to_free_slots() {
        let state = state_with_job(5, 2);
        let resp = beat(&state, 3, 4);
        assert_eq!(
            resp.actions.len(),
            3,
            "3 free map slots -> 3 maps, no reduces yet"
        );
        assert!(resp
            .actions
            .iter()
            .all(|a| matches!(a.spec, TaskSpec::Map { .. })));
        // Splits are the job's input paths, in order.
        assert!(matches!(&resp.actions[0].spec,
            TaskSpec::Map { map_idx: 0, split } if split == "/in/0"));
    }

    #[test]
    fn reduces_wait_for_all_maps() {
        let state = state_with_job(2, 2);
        let resp = beat(&state, 8, 4);
        let map_attempts: Vec<u64> = resp.actions.iter().map(|a| a.attempt).collect();
        assert_eq!(map_attempts.len(), 2);
        // No reduces while maps run.
        assert!(beat(&state, 8, 4).actions.is_empty());
        // Complete the first map only: still no reduces.
        complete(&state, vec![map_attempts[0]]);
        assert!(beat(&state, 8, 4).actions.is_empty());
        // Complete the second: reduces flow.
        complete(&state, vec![map_attempts[1]]);
        let resp = beat(&state, 8, 4);
        assert_eq!(resp.actions.len(), 2);
        assert!(resp
            .actions
            .iter()
            .all(|a| matches!(a.spec, TaskSpec::Reduce { n_maps: 2, .. })));
    }

    #[test]
    fn completion_events_point_at_the_running_tracker() {
        let state = state_with_job(1, 1);
        let resp = beat(&state, 1, 0);
        complete(&state, vec![resp.actions[0].attempt]);
        let jobs = state.jobs.lock();
        let job = jobs.get(&1).unwrap();
        assert_eq!(job.events.len(), 1);
        assert_eq!(job.events[0].shuffle_node, 9);
        assert_eq!(job.maps_done(), 1);
    }

    #[test]
    fn failed_attempts_requeue_until_exhausted() {
        let state = state_with_job(1, 0);
        let max = state.cfg.max_task_attempts;
        for round in 0..max {
            let resp = beat(&state, 1, 0);
            assert_eq!(resp.actions.len(), 1, "round {round}");
            state
                .handle_heartbeat(&HeartbeatArgs {
                    tt_id: 0,
                    failed: vec![resp.actions[0].attempt],
                    ..Default::default()
                })
                .unwrap();
        }
        let jobs = state.jobs.lock();
        assert_eq!(jobs.get(&1).unwrap().state, JobState::Failed);
    }

    #[test]
    fn map_only_job_succeeds_without_reduces() {
        let state = state_with_job(2, 0);
        let resp = beat(&state, 8, 0);
        complete(&state, resp.actions.iter().map(|a| a.attempt).collect());
        let jobs = state.jobs.lock();
        assert_eq!(jobs.get(&1).unwrap().state, JobState::Succeeded);
    }

    #[test]
    fn commit_arbitration_grants_once_and_releases_on_failure() {
        let state = state_with_job(1, 1);
        let map = beat(&state, 1, 0).actions[0].attempt;
        complete(&state, vec![map]);
        let reduce_attempt = beat(&state, 0, 1).actions[0].attempt;
        let task_ref = *state.attempts.lock().get(&reduce_attempt).unwrap();

        let mut jobs = state.jobs.lock();
        let task = state.task_mut(&mut jobs, task_ref).unwrap();
        assert_eq!(task.committed, None);
        task.committed = Some(reduce_attempt);
        drop(jobs);

        // A failure of the committer releases the grant.
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 0,
                failed: vec![reduce_attempt],
                ..Default::default()
            })
            .unwrap();
        let mut jobs = state.jobs.lock();
        let task = state.task_mut(&mut jobs, task_ref).unwrap();
        assert_eq!(
            task.committed, None,
            "failed committer must release the grant"
        );
    }

    #[test]
    fn lost_tracker_requeues_running_and_completed_maps() {
        let state = state_with_job(2, 1);
        let resp = beat(&state, 8, 0);
        // One map completes, one keeps running; reduces still pending.
        complete(&state, vec![resp.actions[0].attempt]);
        // The tracker goes silent past the timeout.
        state
            .clock
            .advance(state.cfg.tt_timeout + Duration::from_millis(1));
        state.reap_lost_trackers();
        let jobs = state.jobs.lock();
        let job = jobs.get(&1).unwrap();
        // Both maps back to pending: the running one died, and the
        // completed one's shuffle output died with the tracker.
        assert!(job.maps.iter().all(|t| t.status == TaskStatus::Pending));
        assert!(job.events.is_empty(), "stale completion events are dropped");
    }

    #[test]
    fn killed_jobs_stop_scheduling_and_ignore_stragglers() {
        let state = state_with_job(4, 2);
        let first = beat(&state, 2, 0);
        assert_eq!(first.actions.len(), 2);
        // Kill: mark failed directly through the same path the RPC takes.
        {
            let mut jobs = state.jobs.lock();
            let job = jobs.get_mut(&1).unwrap();
            job.state = JobState::Failed;
            for task in job.maps.iter_mut().chain(job.reduces.iter_mut()) {
                if matches!(task.status, TaskStatus::Running { .. }) {
                    task.status = TaskStatus::Pending;
                }
            }
        }
        // No further assignments...
        assert!(beat(&state, 8, 8).actions.is_empty());
        // ...and late completions of the killed attempts change nothing.
        complete(&state, first.actions.iter().map(|a| a.attempt).collect());
        let jobs = state.jobs.lock();
        let job = jobs.get(&1).unwrap();
        assert_eq!(job.state, JobState::Failed);
        assert_eq!(job.maps_done(), 0);
    }

    #[test]
    fn stragglers_get_speculative_duplicates_on_other_trackers() {
        let cfg = MrConfig {
            speculative: true,
            speculative_floor: Duration::from_millis(20),
            speculative_slowdown: 1.5,
            ..MrConfig::default()
        };
        let state = state_with_job_cfg(3, 0, cfg);
        add_tracker(&state, 1);

        // All three maps start on tracker 0.
        let first = beat(&state, 8, 0);
        assert_eq!(first.actions.len(), 3);
        // Map 0 completes fast — it becomes the straggler baseline.
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 0,
                completed: vec![first.actions[0].attempt],
                ..Default::default()
            })
            .unwrap();
        state.clock.advance(Duration::from_millis(30));
        // Tracker 0 itself never gets duplicates of its own attempts.
        assert!(beat(&state, 8, 0).actions.is_empty());
        // Tracker 1, past the floor, gets speculative copies of both
        // remaining stragglers.
        let spec = beat_from(&state, 1, 8, 0);
        assert_eq!(spec.actions.len(), 2, "both stragglers duplicated");
        let dup_of_map1 = spec
            .actions
            .iter()
            .find(|a| matches!(a.spec, TaskSpec::Map { map_idx: 1, .. }))
            .expect("map 1 duplicated");

        // The *duplicate* finishing first completes the task...
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 1,
                completed: vec![dup_of_map1.attempt],
                ..Default::default()
            })
            .unwrap();
        {
            let jobs = state.jobs.lock();
            assert_eq!(jobs.get(&1).unwrap().maps_done(), 2);
        }
        // ...and the original's late completion changes nothing.
        let original_map1 = first
            .actions
            .iter()
            .find(|a| matches!(a.spec, TaskSpec::Map { map_idx: 1, .. }))
            .unwrap();
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 0,
                completed: vec![original_map1.attempt],
                ..Default::default()
            })
            .unwrap();
        let jobs = state.jobs.lock();
        assert_eq!(jobs.get(&1).unwrap().maps_done(), 2, "no double completion");
    }

    #[test]
    fn no_speculation_before_the_floor_or_when_disabled() {
        // Below the floor: no duplicates.
        let cfg = MrConfig {
            speculative: true,
            speculative_floor: Duration::from_secs(3600),
            ..MrConfig::default()
        };
        let state = state_with_job_cfg(2, 0, cfg);
        add_tracker(&state, 1);
        let first = beat(&state, 8, 0);
        assert_eq!(first.actions.len(), 2);
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 0,
                completed: vec![first.actions[0].attempt],
                ..Default::default()
            })
            .unwrap();
        assert!(beat_from(&state, 1, 8, 0).actions.is_empty());

        // Disabled: no duplicates even past the floor.
        let cfg = MrConfig {
            speculative: false,
            speculative_floor: Duration::from_millis(1),
            ..MrConfig::default()
        };
        let state = state_with_job_cfg(2, 0, cfg);
        add_tracker(&state, 1);
        let first = beat(&state, 8, 0);
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 0,
                completed: vec![first.actions[0].attempt],
                ..Default::default()
            })
            .unwrap();
        state.clock.advance(Duration::from_millis(10));
        assert!(beat_from(&state, 1, 8, 0).actions.is_empty());
    }

    #[test]
    fn failed_speculative_attempt_leaves_original_running() {
        let cfg = MrConfig {
            speculative: true,
            speculative_floor: Duration::from_millis(10),
            speculative_slowdown: 1.0,
            ..MrConfig::default()
        };
        let state = state_with_job_cfg(2, 0, cfg);
        add_tracker(&state, 1);
        let first = beat(&state, 8, 0);
        // One fast completion establishes the straggler baseline.
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 0,
                completed: vec![first.actions[0].attempt],
                ..Default::default()
            })
            .unwrap();
        let original = first.actions[1].attempt;
        state.clock.advance(Duration::from_millis(20));
        let dup = beat_from(&state, 1, 8, 0).actions[0].attempt;
        assert_ne!(original, dup);
        // The duplicate fails: the task keeps running on the original.
        state
            .handle_heartbeat(&HeartbeatArgs {
                tt_id: 1,
                failed: vec![dup],
                ..Default::default()
            })
            .unwrap();
        let mut jobs = state.jobs.lock();
        let task = state
            .task_mut(&mut jobs, TaskRef::Map { job: 1, idx: 1 })
            .unwrap();
        assert!(task.is_running_attempt(original));
        assert!(!task.is_running_attempt(dup));
    }
}
