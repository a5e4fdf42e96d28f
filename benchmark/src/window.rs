//! The measured window: a closed loop of two caller threads, cut into ten
//! slices with a barrier between them.
//!
//! Closed loop because Hadoop RPC callers are blocked threads that each
//! wait for their reply. Two callers because that is what the sandbox's two
//! cores can drive; the count is fixed, not derived from `nproc`, so numbers
//! compare across machines. Ten slices so that every rate is a median of
//! ten and one stalled slice cannot move it; the barrier between slices is
//! where the main thread samples CPU and ledger counters with no call in
//! flight, and where a traced run flips tracing on and off (odd slices are
//! traced, even ones are not, so one process yields both rates). A run
//! without tracing counts heap allocations in every slice: it reports the
//! per-call counts the driver gates and no timing that the counting could
//! disturb.

use std::sync::Barrier;

use crate::host::{self, CpuTime};
use crate::spans::{self, CallSpan};

pub const CALLERS: usize = 2;
pub const SLICES: usize = 10;

/// One caller's three steps per operation. Only `invoke` calls the program
/// under test; `prepare` and `check` are benchmark code and are charged to
/// `gen.self_share`.
pub trait Caller: Send {
    /// Make the next request ready (stamp the call id, pick the key).
    fn prepare(&mut self, call_id: u64);
    /// The call into the engine: the only part that is timed as latency.
    fn invoke(&mut self);
    /// Whether the response was right; if so, the request plus response
    /// payload bytes it moved.
    fn check(&mut self) -> Option<u64>;
    /// Operation class of the last call (workloads with more than one).
    fn kind(&self) -> u8 {
        0
    }
}

/// When a slice ends: after a time (the echo workloads) or after a fixed
/// number of operations per caller (`hbase_mix`, whose store grows with the
/// work done, so a timed slice would hand a faster build a harder problem).
#[derive(Debug, Clone, Copy)]
pub enum SliceEnd {
    AfterNs(u64),
    AfterOps(usize),
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SliceStats {
    pub traced: bool,
    pub wall_s: f64,
    pub attempted: u64,
    pub correct: u64,
    pub payload_bytes: u64,
    pub cpu: CpuTime,
    pub modeled_ns: u64,
    /// Heap allocations counted during the slice: every slice of a run
    /// without tracing, the traced slices of a traced one.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Context switches of every live thread during the slice.
    pub ctx_switches: f64,
}

/// What one caller thread recorded.
#[derive(Debug, Default)]
pub struct CallerLog {
    /// Latency of every call, in call order.
    pub lat_ns: Vec<u64>,
    pub kind: Vec<u8>,
    /// Index into `lat_ns` at which each slice starts, plus the end.
    pub slice_at: Vec<usize>,
    /// One per slice.
    pub tallies: Vec<Tally>,
    pub spans: Vec<CallSpan>,
    /// Time between calls (stamping, checking, recording) and total time in
    /// the loop, for `gen.self_share`.
    pub self_ns: u64,
    pub loop_ns: u64,
}

#[derive(Debug, Default)]
pub struct Window {
    pub slices: Vec<SliceStats>,
    pub logs: Vec<CallerLog>,
}

/// What one caller counted in one slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    attempted: u64,
    correct: u64,
    bytes: u64,
}

fn run_slice(
    caller: &mut dyn Caller,
    log: &mut CallerLog,
    caller_idx: usize,
    end: SliceEnd,
    traced: bool,
) -> Tally {
    let mut tally = Tally::default();
    let start = host::now_ns();
    let mut t0 = start;
    loop {
        // The caller index rides in the top byte so ids are unique across
        // callers; the low bits count up, which is what sampling keys on.
        let call_id = ((caller_idx as u64) << 56) | log.lat_ns.len() as u64;
        caller.prepare(call_id);
        let t1 = host::now_ns();
        caller.invoke();
        let t2 = host::now_ns();
        tally.attempted += 1;
        if let Some(bytes) = caller.check() {
            tally.correct += 1;
            tally.bytes += bytes;
        }
        log.lat_ns.push(t2 - t1);
        log.kind.push(caller.kind());
        if traced && spans::sampled(call_id) {
            log.spans.push(CallSpan {
                call_id,
                kind: caller.kind(),
                start_ns: t1,
                end_ns: t2,
            });
        }
        let t3 = host::now_ns();
        log.self_ns += (t1 - t0) + (t3 - t2);
        t0 = t3;
        let done = match end {
            SliceEnd::AfterNs(ns) => t3 - start >= ns,
            SliceEnd::AfterOps(n) => tally.attempted as usize >= n,
        };
        if done {
            break;
        }
    }
    log.loop_ns += t0 - start;
    tally
}

/// Run the window. `trace` turns tracing on for the odd slices; `modeled_ns`
/// reads the fabric ledger(s). `expect_calls` sizes the logs, which are
/// touched up front so that resident memory does not depend on how many
/// calls a build manages.
pub fn run(
    callers: Vec<Box<dyn Caller>>,
    end: SliceEnd,
    trace: bool,
    expect_calls: usize,
    modeled_ns: &dyn Fn() -> u64,
) -> Window {
    let n = callers.len();
    let barrier = Barrier::new(n + 1);
    let mut slices = vec![SliceStats::default(); SLICES];

    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(idx, mut caller)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = CallerLog::default();
                    log.lat_ns.resize(expect_calls, 1);
                    log.lat_ns.clear();
                    log.kind.resize(expect_calls, 1);
                    log.kind.clear();
                    log.spans.reserve(expect_calls / 8 + 1);
                    for _ in 0..SLICES {
                        barrier.wait();
                        log.slice_at.push(log.lat_ns.len());
                        let tally = run_slice(&mut *caller, &mut log, idx, end, spans::tracing());
                        log.tallies.push(tally);
                        barrier.wait();
                    }
                    log.slice_at.push(log.lat_ns.len());
                    // Stay alive until the last slice's counters are read:
                    // a thread that has exited takes its context switches
                    // out of `/proc/self/task`.
                    barrier.wait();
                    log
                })
            })
            .collect();

        for (k, slice) in slices.iter_mut().enumerate() {
            slice.traced = trace && k % 2 == 1;
            spans::set_tracing(slice.traced);
            host::set_alloc_counting(slice.traced || !trace);
            let (switches, t, cpu, modeled, allocs) = (
                host::context_switches(),
                host::now_ns(),
                host::cpu_time(),
                modeled_ns(),
                host::alloc_counts(),
            );
            barrier.wait(); // go
            barrier.wait(); // every caller has finished its last call
            slice.wall_s = (host::now_ns() - t) as f64 / 1e9;
            slice.cpu = host::cpu_time().since(&cpu);
            slice.modeled_ns = modeled_ns() - modeled;
            let after = host::alloc_counts();
            slice.allocs = after.0 - allocs.0;
            slice.alloc_bytes = after.1 - allocs.1;
            slice.ctx_switches = host::context_switches() - switches;
        }
        barrier.wait(); // the callers may exit
        spans::set_tracing(false);
        host::set_alloc_counting(false);
        handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread panicked"))
            .collect::<Vec<_>>()
    });

    for (k, slice) in slices.iter_mut().enumerate() {
        for tally in logs.iter().map(|log: &CallerLog| log.tallies[k]) {
            slice.attempted += tally.attempted;
            slice.correct += tally.correct;
            slice.payload_bytes += tally.bytes;
        }
    }
    Window { slices, logs }
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.slices.iter().map(|s| s.attempted).sum()
    }

    pub fn correct(&self) -> u64 {
        self.slices.iter().map(|s| s.correct).sum()
    }

    pub fn payload_bytes(&self) -> u64 {
        self.slices.iter().map(|s| s.payload_bytes).sum()
    }

    /// Every call's latency, sorted; `kind` filters by operation class.
    pub fn sorted_latencies(&self, kind: Option<u8>) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .logs
            .iter()
            .flat_map(|log| log.lat_ns.iter().zip(&log.kind))
            .filter(|(_, k)| kind.is_none_or(|want| **k == want))
            .map(|(lat, _)| *lat)
            .collect();
        all.sort_unstable();
        all
    }

    /// Sorted latencies of the calls made in slice `k`.
    pub fn slice_latencies(&self, k: usize) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .logs
            .iter()
            .flat_map(|log| &log.lat_ns[log.slice_at[k]..log.slice_at[k + 1]])
            .copied()
            .collect();
        all.sort_unstable();
        all
    }

    /// Largest share of a caller thread's loop spent in benchmark code.
    pub fn self_share(&self) -> f64 {
        self.logs
            .iter()
            .filter(|log| log.loop_ns > 0)
            .map(|log| log.self_ns as f64 / log.loop_ns as f64)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A caller that fails every seventh call and "moves" ten bytes.
    struct Fake {
        calls: u64,
    }

    impl Caller for Fake {
        fn prepare(&mut self, _call_id: u64) {}
        fn invoke(&mut self) {
            self.calls += 1;
        }
        fn check(&mut self) -> Option<u64> {
            (!self.calls.is_multiple_of(7)).then_some(10)
        }
        fn kind(&self) -> u8 {
            (self.calls % 2) as u8
        }
    }

    #[test]
    fn work_based_window_counts_every_call_once() {
        let callers: Vec<Box<dyn Caller>> = (0..CALLERS)
            .map(|_| Box::new(Fake { calls: 0 }) as Box<dyn Caller>)
            .collect();
        let w = run(callers, SliceEnd::AfterOps(70), true, 700, &|| 0);
        assert_eq!(w.attempted(), (CALLERS * SLICES * 70) as u64);
        assert_eq!(w.correct(), w.attempted() - w.attempted() / 7);
        assert_eq!(w.payload_bytes(), w.correct() * 10);
        assert_eq!(w.sorted_latencies(None).len() as u64, w.attempted());
        let by_kind = w.sorted_latencies(Some(0)).len() + w.sorted_latencies(Some(1)).len();
        assert_eq!(by_kind as u64, w.attempted());
        assert_eq!(w.slice_latencies(3).len(), CALLERS * 70);
        // Odd slices traced, one call in eight sampled, none on even ones.
        assert!(w
            .slices
            .iter()
            .enumerate()
            .all(|(k, s)| s.traced == (k % 2 == 1)));
        let sampled: usize = w.logs.iter().map(|l| l.spans.len()).sum();
        assert!(
            (CALLERS * 5 * 70 / 8 - CALLERS..=CALLERS * 5 * 70 / 8 + CALLERS * 5)
                .contains(&sampled)
        );
        assert!(w.self_share() <= 1.0);
    }
}
