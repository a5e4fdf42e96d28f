//! Time: the fabric's [`Clock`], and precise delay injection.
//!
//! **The clock.** Every [`crate::Fabric`] owns one [`Clock`]
//! ([`crate::Fabric::clock`]), and the RPC engine reads time only from
//! it: deadlines, timeouts, TTLs and phase timings alike, all as `u64`
//! nanoseconds on one timeline. Under [`crate::Fabric::new`] it is the
//! host's monotonic clock; a test may build its fabric on a
//! [`Clock::manual`] one ([`crate::Fabric::with_clock`]), which moves
//! only when [`Clock::advance`] is called, so that a timeout racing a
//! slow handler is a step the test takes rather than a race the host's
//! scheduler decides. A deadline saturates: `deadline(Duration::MAX)`
//! is `u64::MAX`, which never passes. A [`crate::Cluster`]'s two rails
//! share one clock, so a whole deployment — its RPC engine, daemons and
//! clients — runs on one timeline.
//!
//! **Waits.** A wait for an event blocks on the condition variable that
//! whoever causes the event notifies ([`Clock::wait_on`]) rather than
//! looking again every so often, and its deadline, if it has one, is a
//! reading of this clock. Periodic work (a heartbeat, a retry's
//! back-off) sleeps on the clock ([`Clock::sleep`]). A timed wait blocks
//! for [`Clock::wait_bound`]: the host `Duration` the shims' waits take.
//!
//! **Delay injection.** The paper's microbenchmarks live in the 30–100 µs
//! range; `thread::sleep` on Linux routinely overshoots by 50+ µs, which
//! would drown the effects we are trying to reproduce. We therefore
//! busy-wait on [`Instant`] for short delays and fall back to a
//! sleep-then-spin strategy for long ones so the job-scale benchmarks do
//! not burn whole cores while "transferring" large blocks. These modeled
//! delays are host time, not the clock's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

/// How long a timed wait on a manual clock blocks before it looks at the
/// clock again. A manual clock's time has no relation to the host's, so
/// a wait for it can only poll.
const MANUAL_SLICE: Duration = Duration::from_millis(1);

/// A monotonic clock in `u64` nanoseconds: the host's, or a manual one.
/// Clones share one timeline.
#[derive(Clone)]
pub struct Clock {
    source: Arc<Source>,
}

enum Source {
    /// The host's monotonic clock, read as nanoseconds since `origin`.
    Host { origin: Instant },
    /// Moves only by [`Clock::advance`]; `moved` wakes [`Clock::sleep_until`].
    Manual { now: Mutex<u64>, moved: Condvar },
}

impl Clock {
    /// The host's monotonic clock, reading 0 now.
    pub fn host() -> Clock {
        Clock {
            source: Arc::new(Source::Host {
                origin: Instant::now(),
            }),
        }
    }

    /// A clock that reads 0 until [`Clock::advance`] moves it.
    pub fn manual() -> Clock {
        Clock {
            source: Arc::new(Source::Manual {
                now: Mutex::new(0),
                moved: Condvar::new(),
            }),
        }
    }

    /// The current reading, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match &*self.source {
            Source::Host { origin } => origin.elapsed().as_nanos() as u64,
            Source::Manual { now, .. } => *now.lock(),
        }
    }

    /// Nanoseconds since the reading `start_ns`.
    pub fn elapsed_ns(&self, start_ns: u64) -> u64 {
        self.now_ns().saturating_sub(start_ns)
    }

    /// The reading `after` from now, saturating at `u64::MAX` — a
    /// deadline that never passes.
    pub fn deadline(&self, after: Duration) -> u64 {
        later(self.now_ns(), after)
    }

    /// Clock time left until `deadline_ns`; zero once it has passed.
    pub fn remaining(&self, deadline_ns: u64) -> Duration {
        Duration::from_nanos(deadline_ns.saturating_sub(self.now_ns()))
    }

    /// How long one timed wait for `deadline_ns` may block before it
    /// looks at the clock again; zero once the deadline has passed. On
    /// the host clock that is all of [`Clock::remaining`] — the same one
    /// wait a deadline in [`Instant`]s would make; on a manual clock it
    /// is a short slice of host time.
    pub fn wait_bound(&self, deadline_ns: u64) -> Duration {
        let left = self.remaining(deadline_ns);
        match &*self.source {
            Source::Manual { .. } if !left.is_zero() => MANUAL_SLICE,
            _ => left,
        }
    }

    /// Wait on `cond` until `done` holds for what `guard` guards, or the
    /// clock reads `deadline_ns`; `true` if `done` held. Whoever makes
    /// `done` true notifies `cond` after it has held the guard's lock —
    /// while making it true, or taken once it is — so no wake-up is lost.
    pub fn wait_on<T>(
        &self,
        cond: &Condvar,
        guard: &mut MutexGuard<'_, T>,
        deadline_ns: u64,
        mut done: impl FnMut(&mut T) -> bool,
    ) -> bool {
        while !done(&mut **guard) {
            let bound = self.wait_bound(deadline_ns);
            if bound.is_zero() {
                return false;
            }
            cond.wait_for(guard, bound);
        }
        true
    }

    /// Block until the clock reads `deadline_ns` or later.
    pub fn sleep_until(&self, deadline_ns: u64) {
        match &*self.source {
            Source::Host { .. } => std::thread::sleep(self.remaining(deadline_ns)),
            Source::Manual { now, moved } => {
                let mut now = now.lock();
                while *now < deadline_ns {
                    moved.wait(&mut now);
                }
            }
        }
    }

    /// Block for `dur` of clock time.
    pub fn sleep(&self, dur: Duration) {
        self.sleep_until(self.deadline(dur));
    }

    /// Move a manual clock forward by `by`, waking its sleepers.
    ///
    /// # Panics
    /// On the host clock, which moves by itself.
    pub fn advance(&self, by: Duration) {
        match &*self.source {
            Source::Host { .. } => panic!("the host clock cannot be advanced by hand"),
            Source::Manual { now, moved } => {
                let mut now = now.lock();
                *now = later(*now, by);
                moved.notify_all();
            }
        }
    }
}

/// The reading `by` after the reading `at_ns`, saturating at `u64::MAX`:
/// how a deadline is formed from a reading already taken.
pub fn later(at_ns: u64, by: Duration) -> u64 {
    at_ns.saturating_add(nanos(by))
}

/// `dur` in nanoseconds, saturating at `u64::MAX`.
fn nanos(dur: Duration) -> u64 {
    u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX)
}

/// When set, modeled delays are *accounted but not waited*: `spin_until`,
/// `spin_sleep`, and `spin_ns` return immediately. The per-node modeled-time
/// ledger (`Fabric::modeled_ns`) is charged at the same call sites either
/// way, so latency figures derived from the ledger are unchanged — only the
/// wall-clock realism disappears. Benchmarks use this to run large sweeps in
/// CI without burning minutes of busy-wait.
static FAST_FORWARD: AtomicBool = AtomicBool::new(false);

/// Enable or disable fast-forward mode (process-wide). See [`FAST_FORWARD`].
pub fn set_fast_forward(enabled: bool) {
    FAST_FORWARD.store(enabled, Ordering::Release);
}

/// Whether modeled delays are currently being skipped.
pub fn fast_forward() -> bool {
    FAST_FORWARD.load(Ordering::Acquire)
}

/// Above this threshold we coarse-sleep most of the delay before spinning
/// out the remainder. 200 µs keeps the spin portion (and thus CPU waste)
/// bounded while staying precise.
const SLEEP_THRESHOLD: Duration = Duration::from_micros(200);

/// Margin left for the final spin when coarse-sleeping.
const SLEEP_SLACK: Duration = Duration::from_micros(150);

/// Above this remaining time, waiting threads yield between time checks
/// instead of pure-spinning. This matters when the simulation is CPU-
/// oversubscribed (many simulated nodes on few cores): yielding lets the
/// peer threads that would make the deadline meaningful actually run.
/// The threshold trades precision against scheduling behaviour: below
/// it, waits pure-spin (tight, but holds the core); above it, waits
/// yield between checks (frees the core, but under a long run queue one
/// yield can cost milliseconds). 10 µs keeps verbs-scale waits tight
/// while socket-stack-scale waits cede the core.
const YIELD_THRESHOLD: Duration = Duration::from_micros(10);

/// Busy-wait until the given deadline with sub-microsecond precision.
///
/// Returns immediately if the deadline has already passed.
pub fn spin_until(deadline: Instant) {
    if fast_forward() {
        return;
    }
    let now = Instant::now();
    if now >= deadline {
        return;
    }
    let remaining = deadline - now;
    if remaining > SLEEP_THRESHOLD {
        // Sleep off the bulk, leaving slack for the OS to overshoot into.
        std::thread::sleep(remaining - SLEEP_SLACK);
    }
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        if deadline - now > YIELD_THRESHOLD {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Busy-wait for the given duration. See [`spin_until`].
pub fn spin_sleep(dur: Duration) {
    if dur.is_zero() {
        return;
    }
    spin_until(Instant::now() + dur);
}

/// Busy-wait for `ns` nanoseconds.
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    spin_sleep(Duration::from_nanos(ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_host_clock_is_monotonic() {
        let clock = Clock::host();
        let mut last = clock.now_ns();
        for _ in 0..10_000 {
            let now = clock.now_ns();
            assert!(now >= last, "went back from {last} to {now}");
            last = now;
        }
        clock.sleep(Duration::from_millis(2));
        assert!(clock.elapsed_ns(last) >= 2_000_000);
    }

    #[test]
    fn a_manual_clock_reads_only_what_was_advanced() {
        let clock = Clock::manual();
        assert_eq!(clock.now_ns(), 0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now_ns(), 0, "host time moved it");
        clock.advance(Duration::from_millis(3));
        let shared = clock.clone();
        shared.advance(Duration::from_nanos(7));
        assert_eq!(clock.now_ns(), 3_000_007);
        assert_eq!(clock.remaining(3_000_010), Duration::from_nanos(3));
        assert_eq!(clock.wait_bound(3_000_010), MANUAL_SLICE);
        assert_eq!(clock.wait_bound(3_000_007), Duration::ZERO);
    }

    #[test]
    fn a_wait_on_a_manual_clock_ends_once_the_clock_passes_its_deadline_and_never_before() {
        let clock = Clock::manual();
        let woke = Arc::new(AtomicBool::new(false));
        let sleeper = {
            let (clock, woke) = (clock.clone(), Arc::clone(&woke));
            std::thread::spawn(move || {
                clock.sleep_until(70_000_000);
                woke.store(true, Ordering::Release);
                clock.now_ns()
            })
        };
        for _ in 0..6 {
            clock.advance(Duration::from_millis(10));
            std::thread::sleep(Duration::from_millis(5));
            assert!(!woke.load(Ordering::Acquire), "woke before its deadline");
        }
        clock.advance(Duration::from_millis(9));
        std::thread::sleep(Duration::from_millis(5));
        assert!(!woke.load(Ordering::Acquire), "woke 1 ms early");
        clock.advance(Duration::from_millis(1));
        assert_eq!(sleeper.join().unwrap(), 70_000_000);
    }

    #[test]
    fn a_wait_on_ends_at_its_event_or_at_its_deadline_on_the_clock() {
        let clock = Clock::manual();
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let (clock, state) = (clock.clone(), Arc::clone(&state));
            std::thread::spawn(move || {
                let mut set = state.0.lock();
                clock.wait_on(&state.1, &mut set, u64::MAX, |set| *set)
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        *state.0.lock() = true;
        state.1.notify_all();
        assert!(waiter.join().unwrap(), "the event ends the wait");

        let mut unset = state.0.lock();
        *unset = false;
        clock.advance(Duration::from_millis(10));
        assert!(!clock.wait_on(&state.1, &mut unset, 10_000_000, |set| *set));
    }

    #[test]
    fn a_deadline_that_overflows_saturates() {
        for clock in [Clock::host(), Clock::manual()] {
            assert_eq!(clock.deadline(Duration::MAX), u64::MAX);
            assert!(clock.remaining(u64::MAX) > Duration::from_secs(100 * 365 * 86_400));
            assert!(!clock.wait_bound(u64::MAX).is_zero());
        }
        assert_eq!(later(u64::MAX - 1, Duration::from_nanos(2)), u64::MAX);
        let clock = Clock::manual();
        clock.advance(Duration::MAX);
        assert_eq!(clock.now_ns(), u64::MAX);
    }

    #[test]
    fn spin_sleep_is_at_least_requested() {
        for &us in &[1u64, 10, 50, 300] {
            let dur = Duration::from_micros(us);
            let start = Instant::now();
            spin_sleep(dur);
            assert!(Instant::now() - start >= dur, "undershot {us}us");
        }
    }

    #[test]
    fn spin_sleep_is_reasonably_tight_for_short_delays() {
        // Warm up.
        spin_sleep(Duration::from_micros(5));
        let dur = Duration::from_micros(50);
        let start = Instant::now();
        spin_sleep(dur);
        let elapsed = Instant::now() - start;
        // Allow generous scheduling noise, but the point of spinning is to
        // stay within the same order of magnitude.
        assert!(elapsed < dur * 20, "overshot: {elapsed:?}");
    }

    #[test]
    fn zero_and_past_deadlines_return_immediately() {
        spin_sleep(Duration::ZERO);
        spin_ns(0);
        spin_until(Instant::now() - Duration::from_millis(1));
    }
}
