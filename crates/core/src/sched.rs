//! The handler runtime: a call is a stack frame until it suspends, a
//! heap frame after.
//!
//! The paper's server executes every call on a dedicated OS thread from a
//! fixed pool, so a slow handler pins a thread for its whole duration.
//! Following the bRPC/bthread argument (and Ibdxnet's, for highly
//! concurrent InfiniBand applications), logical concurrency is decoupled
//! from kernel threads — but only for the calls that need it. The
//! server's workers poll every call once on their own stack
//! ([`Sched::run_first`]); a call that completes there never touches
//! this module's queues. Only a poll that returns [`Step::Yield`] or
//! [`Step::Park`] boxes the call into a [`Task`]:
//!
//! * **Lightweight tasks** — a heap-allocated call frame (a boxed `FnMut`
//!   closure) with *explicit* yield/park points. No stack switching:
//!   suspension is "return [`Step::Park`] and be polled again", like a
//!   hand-rolled future. A parked call costs bytes, not a thread.
//! * **One FIFO run queue** — injected, yielded and woken tasks join its
//!   back and every worker takes from its front, under a short mutex
//!   (queue ops are nanoseconds against microsecond handlers), so a
//!   worker that finds nothing to run has taken one lock.
//! * **A parker on the modeled-time ledger's terms** — parking charges
//!   **zero** nanoseconds to any node: the frame sits in the parked
//!   table under its wake cell's key (plus a timer entry for
//!   [`park_until`](TaskCx::park_until_ns) deadlines) and no thread
//!   spins or sleeps on its behalf. Wakes follow the PR-8
//!   `WakeSlot`/[`WakeState`](crate::readiness) contract: charge-free,
//!   non-blocking, idempotent while armed (at most one requeue per
//!   park), and a wake racing the park itself is observed at park-commit
//!   time — the task re-queues instead of suspending.
//!
//! * **Run permits** — the runtime counts the polls in progress and
//!   hands out at most `permits` of them ([`Sched::try_permit`]): *that*
//!   is what `RpcConfig::handlers` bounds, calls executing at once, not a
//!   set of threads. There may be more worker rows than permits (the
//!   server runs one more thread than it has permits, so that one always
//!   holds none); every poll runs under a permit. Whoever returns a
//!   permit while work is waiting notifies, under the same epoch protocol
//!   as every other producer, so a worker that found no permit free and
//!   is on its way to sleep is not left asleep beside a free permit and a
//!   runnable call.
//!
//! The runtime owns every frame (run queue, parked table); a
//! [`WakeHandle`] owns only its cell, so [`Sched::close`] drops every
//! frame whoever still holds a handle.
//!
//! Time is an explicit `now_ns` argument on every operation, exactly
//! like the admission queue: the server's workers feed a reading of the
//! fabric's clock ([`simnet::time::Clock`]), while the `handlers_mn`
//! bench figure drives the very same structure single-threaded on
//! virtual time — which is what makes its committed JSON baseline
//! bit-for-bit reproducible.

use std::any::Any;
use std::cell::{Cell, OnceCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::metrics::ShardStats;

/// What one poll of a task produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The task is finished; its frame is dropped.
    Done,
    /// Cooperative yield: requeue at the back of the run queue, so
    /// everything already runnable goes first.
    Yield,
    /// Suspend. The task is re-queued when its [`WakeHandle`] fires —
    /// from the timer table if [`TaskCx::park_until_ns`] set a deadline,
    /// or from any thread holding a clone of the handle. If a wake
    /// already fired during this poll, it re-queues at once instead.
    Park,
}

/// Context handed to a task on every poll.
pub struct TaskCx<'a> {
    now_ns: u64,
    polls: u64,
    sched: &'a Arc<SchedInner>,
    /// The task's wake cell, allocated the first time anyone asks for a
    /// handle (or the task parks): a call that never suspends has none.
    cell: &'a OnceCell<Arc<WakeCell>>,
    park_deadline_ns: Cell<Option<u64>>,
}

impl TaskCx<'_> {
    /// Times this task has been polled before the current poll.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Arm the parker's timer: when the task returns [`Step::Park`], it
    /// wakes no later than the first [`Sched::fire_timers`] whose
    /// `now_ns` reaches `at_ns`. Without this, a parked task waits for
    /// its [`WakeHandle`] alone.
    pub fn park_until_ns(&mut self, at_ns: u64) {
        self.park_deadline_ns.set(Some(at_ns));
    }

    /// A clonable wake handle for external events (a stream becoming
    /// readable, a completion arriving): firing is charge-free,
    /// non-blocking, and idempotent per park.
    pub fn wake_handle(&self) -> WakeHandle {
        WakeHandle {
            cell: Arc::clone(self.sched.cell_of(self.cell)),
        }
    }
}

/// A lightweight task: the boxed call frame plus its (lazy) wake cell.
pub struct Task {
    poll: Box<dyn FnMut(&mut TaskCx<'_>) -> Step + Send>,
    wake: OnceCell<Arc<WakeCell>>,
    polls: u64,
}

/// The parked-task state machine (the `WakeSlot` contract):
///
/// * `Running { notified: false }` — the task is on a queue or being
///   polled; a wake sets `notified`.
/// * `Running { notified: true }` — a wake fired while the task was not
///   parked; the next park-commit consumes it and requeues instead of
///   suspending. Further wakes coalesce (at most one requeue per park).
/// * `Parked` — suspended; the frame sits in the parked table under this
///   cell's key. A wake takes it out and injects it.
/// * `Done` — completed or dropped; wakes (e.g. a late timer) are inert.
enum WakeSt {
    Running { notified: bool },
    Parked,
    Done,
}

struct WakeCell {
    st: Mutex<WakeSt>,
    sched: Weak<SchedInner>,
}

/// Key of a cell's frame in the parked table.
fn parked_key(cell: &Arc<WakeCell>) -> usize {
    Arc::as_ptr(cell) as usize
}

/// Clonable wake handle for one task. See [`TaskCx::wake_handle`].
#[derive(Clone)]
pub struct WakeHandle {
    cell: Arc<WakeCell>,
}

impl WakeHandle {
    /// Fire the wake: if the task is parked, move it to the run queue
    /// and notify an idle worker; if it is running or queued,
    /// mark it notified so its next park becomes a requeue. Charge-free,
    /// non-blocking, idempotent while armed; inert after completion.
    pub fn wake(&self) {
        let Some(sched) = self.cell.sched.upgrade() else {
            return; // runtime gone
        };
        let mut st = self.cell.st.lock();
        match *st {
            WakeSt::Parked => {
                let parked = sched.parked.lock().remove(&parked_key(&self.cell));
                let Some((worker, task)) = parked else {
                    *st = WakeSt::Done; // the frame went with `close`
                    return;
                };
                *st = WakeSt::Running { notified: false };
                drop(st);
                // Attributed to the worker that parked the task,
                // wherever the wake itself runs.
                sched.stats[worker].inc_wake();
                sched.enqueue(task);
            }
            WakeSt::Running { .. } => *st = WakeSt::Running { notified: true },
            WakeSt::Done => {}
        }
    }
}

struct SchedInner {
    /// The run queue: injected, yielded and woken tasks, oldest first.
    queue: Mutex<VecDeque<Task>>,
    /// Suspended frames by [`parked_key`], each with the worker that
    /// parked it — "in-flight calls cost bytes", observable.
    parked: Mutex<HashMap<usize, (usize, Task)>>,
    parked_peak: AtomicUsize,
    /// Armed park deadlines in firing order: `(at_ns, seq)`, `seq`
    /// breaking ties in park order so firing is deterministic.
    timers: Mutex<BTreeMap<(u64, u64), WakeHandle>>,
    timer_seq: AtomicU64,
    /// Calls entered and not yet completed: on a worker's stack,
    /// runnable, or parked.
    inflight: AtomicUsize,
    /// Run permits out: polls in progress. Never above `permits`.
    running: AtomicUsize,
    permits: usize,
    /// Tasks on the run queue, so that returning a permit can tell
    /// "someone should run" without taking its lock.
    runnable: AtomicUsize,
    /// Idle workers block on `idle_cv`; every producer of work bumps
    /// `wake_epoch` *under* `idle_lock` before signalling, so a worker
    /// that read the epoch before its empty scan can tell, under the
    /// same lock, that something arrived since.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    wake_epoch: AtomicU64,
    /// Set by [`Sched::close`]. Every site that stores a frame checks it
    /// under the lock it stores under, so `close`'s sweep of that
    /// container is final.
    closed: AtomicBool,
    stats: Vec<Arc<ShardStats>>,
}

impl SchedInner {
    fn cell_of<'c>(self: &Arc<Self>, cell: &'c OnceCell<Arc<WakeCell>>) -> &'c Arc<WakeCell> {
        cell.get_or_init(|| {
            Arc::new(WakeCell {
                st: Mutex::new(WakeSt::Running { notified: false }),
                sched: Arc::downgrade(self),
            })
        })
    }

    fn closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn notify(&self) {
        {
            let _idle = self.idle_lock.lock();
            self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        }
        self.idle_cv.notify_one();
    }

    /// Store `task` at the back of the run queue and wake a worker — or,
    /// once closed, drop the frame.
    fn enqueue(&self, task: Task) {
        let mut q = self.queue.lock();
        if self.closed() {
            drop(q);
            return self.retire(&task.wake);
        }
        q.push_back(task);
        self.runnable.fetch_add(1, Ordering::SeqCst);
        drop(q);
        self.notify();
    }

    /// One call is over — completed, or dropped by `close`: any handle
    /// still out there goes inert.
    fn retire(&self, wake: &OnceCell<Arc<WakeCell>>) {
        if let Some(cell) = wake.get() {
            *cell.st.lock() = WakeSt::Done;
        }
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The scheduler. Passive by design: it owns no threads.
/// The server's worker loops drive it on the fabric's clock;
/// the `handlers_mn` bench figure drives the identical structure
/// single-threaded on virtual time.
pub struct Sched {
    inner: Arc<SchedInner>,
}

impl Sched {
    /// A scheduler with `permits` run permits and one worker loop — a
    /// counter block — per entry of `stats` (the server
    /// registers them as `ShardRole::Worker`; standalone callers pass
    /// fresh ones). There are at least as many workers as permits.
    pub fn new(permits: usize, stats: Vec<Arc<ShardStats>>) -> Sched {
        assert!(permits >= 1, "at least one permit");
        assert!(stats.len() >= permits, "a worker per permit at least");
        Sched {
            inner: Arc::new(SchedInner {
                queue: Mutex::new(VecDeque::new()),
                parked: Mutex::new(HashMap::new()),
                parked_peak: AtomicUsize::new(0),
                timers: Mutex::new(BTreeMap::new()),
                timer_seq: AtomicU64::new(0),
                inflight: AtomicUsize::new(0),
                running: AtomicUsize::new(0),
                permits,
                runnable: AtomicUsize::new(0),
                idle_lock: Mutex::new(()),
                idle_cv: Condvar::new(),
                wake_epoch: AtomicU64::new(0),
                closed: AtomicBool::new(false),
                stats,
            }),
        }
    }

    /// Poll a new call for the first time on `worker`'s own stack. A
    /// poll that returns [`Step::Done`] allocates nothing and touches no
    /// queue; only one that yields or parks boxes `poll` into a [`Task`]
    /// (with `polls() == 1` at its next poll) and queues or parks it
    /// exactly as [`Sched::run`] would. A [`WakeHandle`] taken — even
    /// fired — during this poll behaves as on any later one.
    pub fn run_first<F>(&self, worker: usize, now_ns: u64, mut poll: F)
    where
        F: FnMut(&mut TaskCx<'_>) -> Step + Send + 'static,
    {
        self.inner.inflight.fetch_add(1, Ordering::AcqRel);
        let wake = OnceCell::new();
        let (step, park_deadline_ns) = self.poll_once(&mut poll, &wake, 0, now_ns);
        if step == Step::Done {
            self.inner.retire(&wake);
            self.inner.stats[worker].inc_processed();
            return;
        }
        let task = Task {
            poll: Box::new(poll),
            wake,
            polls: 1,
        };
        self.settle(worker, task, step, park_deadline_ns);
    }

    /// Queue a new task at the back of the run queue. External producers
    /// — and the bench harness modelling arrivals — use this.
    pub fn inject(&self, poll: impl FnMut(&mut TaskCx<'_>) -> Step + Send + 'static) {
        self.inner.inflight.fetch_add(1, Ordering::AcqRel);
        self.inner.enqueue(Task {
            poll: Box::new(poll),
            wake: OnceCell::new(),
            polls: 0,
        });
    }

    /// Fire every timer whose deadline has passed at `now_ns`, waking
    /// the parked tasks in deadline order.
    pub fn fire_timers(&self, now_ns: u64) {
        loop {
            let wake = {
                let mut timers = self.inner.timers.lock();
                match timers.first_entry() {
                    Some(e) if e.key().0 <= now_ns => e.remove(),
                    _ => break,
                }
            };
            // Outside the timer lock: the wake takes the cell lock and
            // may inject.
            wake.wake();
        }
    }

    /// The earliest armed timer deadline, if any (idle workers bound
    /// their sleep with it).
    pub fn next_timer_ns(&self) -> Option<u64> {
        self.inner
            .timers
            .lock()
            .keys()
            .next()
            .map(|&(at_ns, _)| at_ns)
    }

    /// Take the oldest runnable task, for whichever worker asks.
    pub fn next_task(&self) -> Option<Task> {
        let mut q = self.inner.queue.lock();
        let task = q.pop_front()?;
        self.inner.runnable.fetch_sub(1, Ordering::SeqCst);
        Some(task)
    }

    /// Poll `task` once on behalf of `worker` at time `now_ns`, then
    /// retire, requeue, or park it per the returned [`Step`].
    pub fn run(&self, worker: usize, mut task: Task, now_ns: u64) {
        let (step, park_deadline_ns) =
            self.poll_once(&mut *task.poll, &task.wake, task.polls, now_ns);
        task.polls += 1;
        self.settle(worker, task, step, park_deadline_ns);
    }

    fn poll_once(
        &self,
        poll: &mut dyn FnMut(&mut TaskCx<'_>) -> Step,
        cell: &OnceCell<Arc<WakeCell>>,
        polls: u64,
        now_ns: u64,
    ) -> (Step, Option<u64>) {
        let mut cx = TaskCx {
            now_ns,
            polls,
            sched: &self.inner,
            cell,
            park_deadline_ns: Cell::new(None),
        };
        let step = poll(&mut cx);
        (step, cx.park_deadline_ns.get())
    }

    fn settle(&self, worker: usize, task: Task, step: Step, park_deadline_ns: Option<u64>) {
        let inner = &self.inner;
        let stats = &inner.stats[worker];
        match step {
            Step::Done => {
                inner.retire(&task.wake);
                stats.inc_processed();
            }
            // Behind everything already runnable.
            Step::Yield => inner.enqueue(task),
            Step::Park => {
                let cell = Arc::clone(inner.cell_of(&task.wake));
                let mut st = cell.st.lock();
                if matches!(*st, WakeSt::Running { notified: true }) {
                    // A wake raced the poll: honor it now instead of
                    // suspending (the no-lost-wakeup half of the
                    // contract).
                    *st = WakeSt::Running { notified: false };
                    drop(st);
                    stats.inc_wake();
                    return inner.enqueue(task);
                }
                let mut parked = inner.parked.lock();
                if inner.closed() {
                    drop((parked, st));
                    return inner.retire(&task.wake);
                }
                if let Some(at_ns) = park_deadline_ns {
                    let seq = inner.timer_seq.fetch_add(1, Ordering::Relaxed);
                    let wake = WakeHandle {
                        cell: Arc::clone(&cell),
                    };
                    inner.timers.lock().insert((at_ns, seq), wake);
                }
                parked.insert(parked_key(&cell), (worker, task));
                inner.parked_peak.fetch_max(parked.len(), Ordering::AcqRel);
                *st = WakeSt::Parked;
                stats.inc_park();
            }
        }
    }

    /// Take a run permit: the right to poll one call (or resume one task)
    /// now. Fails when `permits` polls are already in progress. Pair with
    /// [`Sched::release_permit`].
    pub fn try_permit(&self) -> bool {
        let limit = self.inner.permits;
        self.inner
            .running
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < limit).then_some(n + 1)
            })
            .is_ok()
    }

    /// Return a run permit. If a suspended call is runnable, or the
    /// caller says calls are queued that it will not come back for
    /// (`calls_waiting`), notify: a worker that found no permit free may
    /// be asleep, or — the epoch having moved — about to not fall asleep.
    pub fn release_permit(&self, calls_waiting: bool) {
        self.inner.running.fetch_sub(1, Ordering::SeqCst);
        if calls_waiting || self.inner.runnable.load(Ordering::SeqCst) > 0 {
            self.inner.notify();
        }
    }

    /// Calls entered and not yet completed (polling + runnable + parked).
    pub fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::Acquire)
    }

    /// Tasks currently parked.
    pub fn parked(&self) -> usize {
        self.inner.parked.lock().len()
    }

    /// Lifetime high-water mark of concurrently parked tasks.
    pub fn parked_peak(&self) -> usize {
        self.inner.parked_peak.load(Ordering::Acquire)
    }

    /// Tasks sitting in the run queue, excluding parked and
    /// currently-polling ones.
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Everything still held by the runtime — the drain-residue gauge:
    /// zero means no frame, queue slot, or timer entry survives.
    pub fn residue(&self) -> usize {
        self.inflight() + self.inner.timers.lock().len()
    }

    /// Wake one idle worker: a producer made new work observable (a
    /// connection became readable, a call was admitted). Queue pushes and
    /// wakes inside the runtime do this themselves.
    pub fn notify(&self) {
        self.inner.notify();
    }

    /// [`Sched::notify`] as a value: for producers that cannot hold a
    /// reference to the runtime (the transports' readiness hooks, which
    /// call it when a connection's token joins the server's wake list).
    pub fn notifier(&self) -> impl Fn() + Send + Sync + 'static {
        let inner = Arc::clone(&self.inner);
        move || inner.notify()
    }

    /// The wake epoch: read it *before* scanning for work, pass it to
    /// [`Sched::idle_wait`] after the scan came up empty.
    pub fn wake_epoch(&self) -> u64 {
        self.inner.wake_epoch.load(Ordering::SeqCst)
    }

    /// Block the calling worker until notified or `timeout`, whichever
    /// first (`Duration::MAX`: until notified) — unless a notify has
    /// landed since `seen_epoch` was read, in which case the work it
    /// announced may have been missed by the caller's scan and the wait
    /// returns at once. Callers bound `timeout` by
    /// [`Sched::next_timer_ns`] so a deadline park never oversleeps.
    /// Returns immediately once closed.
    pub fn idle_wait(&self, seen_epoch: u64, timeout: Duration) {
        let mut idle = self.inner.idle_lock.lock();
        if self.inner.closed() || self.wake_epoch() != seen_epoch {
            return;
        }
        let _ = self.inner.idle_cv.wait_for(&mut idle, timeout);
    }

    /// Close the runtime: every frame it holds — queued, parked on a
    /// timer, or parked on a handle someone still keeps — is dropped,
    /// later wakes and injections are inert, every idle worker wakes, and
    /// subsequent `idle_wait`s return immediately.
    pub fn close(&self) {
        let inner = &self.inner;
        inner.closed.store(true, Ordering::SeqCst);
        // Collect under the locks, drop outside them: a frame's drop
        // releases whatever the call captured.
        let mut frames: Vec<Task> = Vec::new();
        frames.extend(inner.parked.lock().drain().map(|(_, (_, task))| task));
        {
            let mut q = inner.queue.lock();
            inner.runnable.fetch_sub(q.len(), Ordering::SeqCst);
            frames.extend(q.drain(..));
        }
        let timers = std::mem::take(&mut *inner.timers.lock());
        for task in &frames {
            inner.retire(&task.wake);
        }
        drop((frames, timers));
        drop(inner.idle_lock.lock());
        inner.idle_cv.notify_all();
    }
}

/// What one `call_mn` poll of a service produced.
pub enum CallPoll {
    /// The call finished with the service's result (the same shape
    /// [`RpcService::call`](crate::service::RpcService::call) returns).
    Ready(Result<Box<dyn wire::Writable + Send>, String>),
    /// The call suspends; honor the park/yield request recorded on the
    /// [`HandlerCx`] and poll again later.
    Pending,
}

/// The suspension surface of
/// [`RpcService::call_mn`](crate::service::RpcService::call_mn): per-poll
/// context for a call that may yield or park.
///
/// A suspending service records *one* request (`yield_now`, `park_for`,
/// `park_until_ns`, or nothing — meaning "until my [`WakeHandle`]
/// fires") and returns [`CallPoll::Pending`]; per-call state survives
/// across polls in [`HandlerCx::stash`].
pub struct HandlerCx<'a> {
    task: &'a TaskCx<'a>,
    stash: &'a mut Option<Box<dyn Any + Send>>,
    /// What [`CallPoll::Pending`] means this poll; the last request wins.
    pending: Step,
}

impl<'a> HandlerCx<'a> {
    pub(crate) fn new(
        task: &'a TaskCx<'a>,
        stash: &'a mut Option<Box<dyn Any + Send>>,
    ) -> HandlerCx<'a> {
        HandlerCx {
            task,
            stash,
            pending: Step::Park,
        }
    }

    pub(crate) fn pending_step(&self) -> Step {
        self.pending
    }

    /// True on the call's first poll.
    pub fn first_poll(&self) -> bool {
        self.task.polls == 0
    }

    /// Completed polls before this one.
    pub fn polls(&self) -> u64 {
        self.task.polls
    }

    /// The runtime's clock for this poll: the reading the worker took.
    pub fn now_ns(&self) -> u64 {
        self.task.now_ns
    }

    /// Request a cooperative yield: when the service returns
    /// [`CallPoll::Pending`], the call re-queues behind already-runnable
    /// work instead of parking.
    pub fn yield_now(&mut self) {
        self.pending = Step::Yield;
    }

    /// Request a timed park ending at the absolute deadline `at_ns` on
    /// the runtime's clock.
    pub fn park_until_ns(&mut self, at_ns: u64) {
        self.pending = Step::Park;
        self.task.park_deadline_ns.set(Some(at_ns));
    }

    /// Request a timed park of `d` from now.
    pub fn park_for(&mut self, d: Duration) {
        self.park_until_ns(simnet::time::later(self.now_ns(), d));
    }

    /// The call's wake handle, for parks ended by an external event
    /// rather than a deadline. Clone it anywhere; firing it is
    /// charge-free and idempotent per park.
    pub fn wake_handle(&self) -> WakeHandle {
        self.task.wake_handle()
    }

    /// Per-call state that survives across polls (the "call frame" a
    /// suspending handler keeps between its explicit suspension points).
    pub fn stash(&mut self) -> &mut Option<Box<dyn Any + Send>> {
        self.stash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn sched(workers: usize) -> Sched {
        let stats = (0..workers)
            .map(|_| Arc::new(ShardStats::default()))
            .collect();
        Sched::new(workers, stats)
    }

    fn drain_worker(s: &Sched, worker: usize, now_ns: u64) {
        s.fire_timers(now_ns);
        while let Some(t) = s.next_task() {
            s.run(worker, t, now_ns);
        }
    }

    #[test]
    fn a_yield_runs_behind_everything_runnable() {
        let s = sched(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let order = Arc::clone(&order);
            s.inject(move |cx| {
                order.lock().push(format!("{name}{}", cx.polls()));
                if name == "a" && cx.polls() == 0 {
                    Step::Yield
                } else {
                    Step::Done
                }
            });
        }
        // a yields on worker 0; whichever worker asks next gets b and c
        // before a comes round again.
        for w in [0usize, 1, 0, 1] {
            let t = s.next_task().expect("runnable");
            s.run(w, t, 0);
        }
        assert_eq!(*order.lock(), vec!["a0", "b0", "c0", "a1"]);
        assert_eq!(s.residue(), 0);
    }

    #[test]
    fn park_until_wakes_via_timer_in_deadline_order() {
        let s = sched(1);
        let done = Arc::new(Mutex::new(Vec::new()));
        for (i, deadline) in [(0u32, 500u64), (1, 200), (2, 800)] {
            let done = Arc::clone(&done);
            s.inject(move |cx| {
                if cx.polls() == 0 {
                    cx.park_until_ns(deadline);
                    return Step::Park;
                }
                done.lock().push(i);
                Step::Done
            });
        }
        drain_worker(&s, 0, 0);
        assert_eq!(s.parked(), 3);
        assert_eq!(s.parked_peak(), 3);
        assert_eq!(done.lock().len(), 0);
        // Time advances past two deadlines: exactly those fire, in
        // deadline order.
        drain_worker(&s, 0, 600);
        assert_eq!(*done.lock(), vec![1, 0]);
        assert_eq!(s.parked(), 1);
        drain_worker(&s, 0, 1_000);
        assert_eq!(*done.lock(), vec![1, 0, 2]);
        assert_eq!(s.residue(), 0, "no frame or timer survives");
    }

    #[test]
    fn external_wake_handle_requeues_once() {
        let s = sched(1);
        let hits = Arc::new(AtomicU32::new(0));
        let handle: Arc<Mutex<Option<WakeHandle>>> = Arc::new(Mutex::new(None));
        {
            let hits = Arc::clone(&hits);
            let handle = Arc::clone(&handle);
            s.inject(move |cx| {
                hits.fetch_add(1, Ordering::Relaxed);
                if cx.polls() == 0 {
                    *handle.lock() = Some(cx.wake_handle());
                    return Step::Park;
                }
                Step::Done
            });
        }
        drain_worker(&s, 0, 0);
        assert_eq!(s.parked(), 1);
        let h = handle.lock().clone().expect("captured");
        // An edge storm coalesces: one requeue, then inert.
        h.wake();
        h.wake();
        h.wake();
        assert_eq!(s.parked(), 0);
        assert_eq!(s.queued(), 1);
        drain_worker(&s, 0, 0);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        // After completion the handle is inert.
        h.wake();
        assert_eq!(s.queued(), 0);
        assert_eq!(s.inflight(), 0);
    }

    #[test]
    fn first_poll_is_inline_and_a_wake_during_it_is_not_lost() {
        let s = sched(1);
        // Done on the first poll: nothing was ever queued.
        s.run_first(0, 0, |_cx| Step::Done);
        assert_eq!((s.inflight(), s.queued()), (0, 0));
        // The race the WakeSlot contract exists for, on the inline poll:
        // the wake fires while the call is mid-poll deciding to park.
        // The park must become a requeue, and the frame a task whose
        // poll counter carries on.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        s.run_first(0, 0, move |cx| {
            seen2.lock().push(cx.polls());
            if cx.polls() == 0 {
                cx.wake_handle().wake();
                return Step::Park;
            }
            Step::Done
        });
        assert_eq!((s.parked(), s.queued()), (0, 1), "never suspended");
        drain_worker(&s, 0, 0);
        assert_eq!(*seen.lock(), vec![0, 1]);
        assert_eq!(s.residue(), 0);
    }

    #[test]
    fn timer_on_externally_woken_task_is_inert() {
        let s = sched(1);
        let handle: Arc<Mutex<Option<WakeHandle>>> = Arc::new(Mutex::new(None));
        let runs = Arc::new(AtomicU32::new(0));
        {
            let handle = Arc::clone(&handle);
            let runs = Arc::clone(&runs);
            s.inject(move |cx| {
                if cx.polls() == 0 {
                    *handle.lock() = Some(cx.wake_handle());
                    cx.park_until_ns(10_000);
                    return Step::Park;
                }
                runs.fetch_add(1, Ordering::Relaxed);
                Step::Done
            });
        }
        drain_worker(&s, 0, 0);
        // External wake beats the timer…
        handle.lock().clone().unwrap().wake();
        drain_worker(&s, 0, 0);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        // …and the stale timer entry fires into a Done cell: no-op.
        assert_eq!(s.residue(), 1);
        drain_worker(&s, 0, 20_000);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(s.residue(), 0);
    }

    #[test]
    fn a_task_one_worker_parked_is_woken_onto_the_queue_for_any_worker() {
        use crate::metrics::{MetricsRegistry, ShardRole};
        let metrics = MetricsRegistry::new(false);
        let stats = (0..2)
            .map(|i| metrics.register_shard(ShardRole::Worker, i))
            .collect();
        let s = Sched::new(2, stats);
        s.inject(|cx| {
            if cx.polls() == 0 {
                cx.park_until_ns(100);
                return Step::Park;
            }
            Step::Done
        });
        // Worker 0 parks it; its timer puts it back on the one queue,
        // where worker 1 finds it and retires it.
        let t = s.next_task().expect("injected");
        s.run(0, t, 0);
        assert_eq!((s.parked(), s.queued()), (1, 0));
        s.fire_timers(200);
        assert_eq!((s.parked(), s.queued()), (0, 1));
        drain_worker(&s, 1, 200);
        assert_eq!(s.residue(), 0);
        let rows: Vec<_> = metrics
            .shard_snapshot()
            .iter()
            .map(|r| (r.parks, r.wakes, r.processed))
            .collect();
        // The wake counts on the worker that parked the task.
        assert_eq!(rows, vec![(1, 1, 0), (0, 0, 1)]);
    }

    #[test]
    fn injector_preserves_fifo_across_workers() {
        let s = sched(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u32 {
            let order = Arc::clone(&order);
            s.inject(move |_cx| {
                order.lock().push(i);
                Step::Done
            });
        }
        // Alternating workers drain the queue in arrival order.
        for w in [0usize, 1, 0, 1] {
            let t = s.next_task().expect("injected");
            s.run(w, t, 0);
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn close_wakes_idle_waiters() {
        let s = Arc::new(sched(1));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            s2.idle_wait(s2.wake_epoch(), Duration::from_secs(30));
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        s.close();
        let waited = h.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "close must interrupt idle_wait"
        );
        s.idle_wait(s.wake_epoch(), Duration::from_secs(30)); // returns immediately when closed
    }

    #[test]
    fn notify_between_scan_and_wait_is_not_slept_through() {
        // The worker's sequence, single-threaded so the interleaving is
        // exact: read the epoch, scan (empty), *then* the producer
        // notifies, then the worker waits.
        let s = sched(1);
        let seen = s.wake_epoch();
        assert!(s.next_task().is_none());
        s.notify();
        assert_wait_is_cancelled(&s, seen, "a notify after the scan must cancel the wait");
    }

    /// `idle_wait(seen, 30 s)` must return at once: the epoch moved.
    fn assert_wait_is_cancelled(s: &Sched, seen: u64, why: &str) {
        let start = std::time::Instant::now();
        s.idle_wait(seen, Duration::from_secs(30));
        assert!(start.elapsed() < Duration::from_secs(5), "{why}");
    }

    #[test]
    fn permits_never_exceed_the_worker_count() {
        // Eight threads race for two permits; each holder checks that it
        // is one of at most two.
        let s = Arc::new(sched(2));
        let holders = Arc::new(AtomicU32::new(0));
        let granted = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (s, holders, granted) =
                    (Arc::clone(&s), Arc::clone(&holders), Arc::clone(&granted));
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        if s.try_permit() {
                            let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(now <= 2, "{now} permits out of 2");
                            granted.fetch_add(1, Ordering::Relaxed);
                            holders.fetch_sub(1, Ordering::SeqCst);
                            s.release_permit(false);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(granted.load(Ordering::Relaxed) > 0);
        // Every permit came back: both can be had again, and no third.
        assert!(s.try_permit() && s.try_permit() && !s.try_permit());
    }

    #[test]
    fn a_permit_returned_beside_waiting_work_notifies() {
        let s = sched(1);
        assert!(s.try_permit());
        assert!(!s.try_permit(), "one worker, one permit");
        // Nothing waiting: a release is silent.
        let quiet = s.wake_epoch();
        s.release_permit(false);
        assert_eq!(s.wake_epoch(), quiet);
        // The caller knows of queued calls it will not come back for.
        assert!(s.try_permit());
        s.release_permit(true);
        assert_ne!(s.wake_epoch(), quiet);
        // A runnable task is work the runtime knows of itself.
        s.inject(|_cx| Step::Done);
        let told = s.wake_epoch();
        assert!(s.try_permit());
        s.release_permit(false);
        assert_ne!(s.wake_epoch(), told, "a task was runnable");
        // ...and once it has run, a release is silent again.
        drain_worker(&s, 0, 0);
        let done = s.wake_epoch();
        assert!(s.try_permit());
        s.release_permit(false);
        assert_eq!(s.wake_epoch(), done);
    }

    #[test]
    fn a_release_between_a_failed_permit_and_the_wait_is_not_slept_through() {
        // The worker's sequence, single-threaded so the interleaving is
        // exact: another worker holds the only permit; a call is queued.
        // This worker reads the epoch, finds no permit, and — before it
        // gets to sleep — the other returns the permit.
        let s = sched(1);
        assert!(s.try_permit(), "the other worker's");
        let seen = s.wake_epoch();
        assert!(!s.try_permit(), "the worker finds none");
        s.release_permit(true);
        assert_wait_is_cancelled(&s, seen, "the release must cancel the wait");
        assert!(s.try_permit(), "and the worker's next pass gets it");
    }

    #[test]
    fn a_worker_without_a_permit_is_a_worker_all_the_same() {
        // Two worker rows, one permit: the server's shape, one thread
        // more than it has permits.
        let s = Sched::new(1, vec![Arc::default(), Arc::default()]);
        assert!(s.try_permit());
        assert!(!s.try_permit(), "one permit, whichever worker asks");
        s.release_permit(false);
        // Either row polls, queues and parks.
        s.run_first(1, 0, |cx| {
            if cx.polls() == 0 {
                return Step::Yield;
            }
            Step::Done
        });
        assert_eq!(s.queued(), 1);
        drain_worker(&s, 1, 0);
        assert_eq!(s.residue(), 0);
    }

    #[test]
    fn close_drops_every_frame_whoever_holds_a_handle() {
        let s = sched(1);
        // What each frame captures; alive exactly as long as its frame.
        let captured = Arc::new(());
        let handle: Arc<Mutex<Option<WakeHandle>>> = Arc::new(Mutex::new(None));
        for kind in 0..3 {
            let (captured, handle) = (Arc::clone(&captured), Arc::clone(&handle));
            s.inject(move |cx| {
                let _ = &captured;
                match kind {
                    0 => cx.park_until_ns(u64::MAX),
                    1 => *handle.lock() = Some(cx.wake_handle()),
                    _ => return Step::Yield,
                }
                Step::Park
            });
        }
        for _ in 0..3 {
            let t = s.next_task().expect("injected");
            s.run(0, t, 0);
        }
        assert_eq!((s.parked(), s.queued()), (2, 1));
        assert_eq!(Arc::strong_count(&captured), 4);
        s.close();
        assert_eq!(Arc::strong_count(&captured), 1, "every frame dropped");
        assert_eq!(s.residue(), 0);
        // The surviving handle is inert, and nothing can be stored anew.
        handle.lock().clone().expect("captured").wake();
        s.inject(|_cx| Step::Done);
        assert_eq!((s.queued(), s.residue()), (0, 0));
    }
}
