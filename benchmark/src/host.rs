//! What the host charges the process: CPU time, resident memory, context
//! switches (all from `/proc`), and heap traffic from a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// span and slice boundary is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

extern "C" {
    /// glibc's wrapper of the Linux system call; `mask` points at
    /// `cpusetsize` bytes of CPU bitmap. Returns 0 on success.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this thread, and every thread it starts from now on, to one CPU:
/// the highest-numbered one the process may use (CPU 0 takes most of a
/// VM's interrupts). Returns the CPU, or `None` if the kernel refused, in
/// which case the run goes on unpinned and says so.
///
/// Why one CPU. On the two-vCPU sandbox a wake-up that crosses vCPUs has to
/// bring a halted vCPU back through the hypervisor, and whether a given
/// hand-off crosses is the guest scheduler's placement luck. Unpinned, a
/// 512 B call cost 60 us of CPU and 90 us of latency; pinned, 18 us and
/// 32 us. Two thirds of the "cost" was the VM, and its run-to-run wobble
/// (quartile spread 20-40 % on `hbase_mix`, one caller alone swinging
/// between 5 k and 20 k ops/s) drowned anything a code change could move.
/// Pinned, the same workload spreads 2-3 %. The price: the engine's threads
/// interleave but never truly run in parallel, so cache-line bouncing and
/// lock contention between cores do not show here.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = (cpus - 1).min(63);
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, aligned u64 and the size passed is its size
    // in bytes, so the kernel reads exactly the bitmap it was given; pid 0
    // names the calling thread; the call touches no memory of ours.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    (rc == 0).then_some(cpu)
}

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// for every architecture it exposes `/proc/<pid>/stat` on.
const TICK_US: f64 = 10_000.0;

/// Process CPU time so far, user and system, in microseconds: every thread,
/// client and server side together.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    pub user_us: f64,
    pub sys_us: f64,
}

impl CpuTime {
    pub fn total_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }
}

pub fn cpu_time() -> CpuTime {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the ')' that closes it. utime and stime are fields 14 and 15.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_ascii_whitespace()
        .skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    CpuTime {
        user_us: tick() * TICK_US,
        sys_us: tick() * TICK_US,
    }
}

fn status_field(status: &str, name: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// High-water mark of resident memory (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") * 1024.0 / 1e6
}

/// Voluntary plus involuntary context switches summed over the live
/// threads (`/proc/self/status` alone covers only the main thread).
pub fn context_switches() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches")
                + status_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// Counts heap allocations on every thread while switched on, leaving out
/// those made inside `simnet::hw_scope` (staging copies that stand in for
/// NIC/DMA work), as `tests/alloc_regression.rs` does. Switched off, it
/// costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// The counters are striped by thread, each stripe on its own cache line:
/// a single pair of atomics bounced between every thread of the engine and
/// cost a tenth of the call rate while counting was on.
#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

const STRIPES: usize = 32;
static COUNTS: [Stripe; STRIPES] = [const {
    Stripe {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // touch it at any point of a thread's life without allocating.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// (allocations, bytes requested) counted so far.
pub fn alloc_counts() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(allocs, bytes), stripe| {
        (
            allocs + stripe.allocs.load(Ordering::Relaxed),
            bytes + stripe.bytes.load(Ordering::Relaxed),
        )
    })
}

fn note_alloc(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) && !simnet::in_hw_scope() {
        let stripe = MY_STRIPE.with(|mine| {
            if mine.get() == usize::MAX {
                mine.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            mine.get()
        });
        COUNTS[stripe].allocs.fetch_add(1, Ordering::Relaxed);
        COUNTS[stripe]
            .bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees are this allocator's; the counters are
// plain atomics, and `MY_STRIPE` and the depth `simnet::in_hw_scope` reads
// are const-initialised thread-local `Cell`s without destructors, so the
// bookkeeping neither allocates nor touches torn-down thread state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_numbers() {
        let before = cpu_time();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time().since(&before).total_us() >= 20_000.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(context_switches() >= 0.0);
        let a = now_ns();
        assert!(now_ns() >= a);
    }

    #[test]
    fn status_field_parses_kb_and_counts() {
        let status = "Name:\tx\nVmHWM:\t   12345 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), 12345.0);
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), 7.0);
        assert_eq!(status_field(status, "missing"), 0.0);
    }
}
