//! Property tests: pool invariants under arbitrary call-size sequences.

use bufpool::{
    class_capacity, class_for, HeapMem, NativePool, PoolMem, ShadowPool, SizeClasses,
    SHRINK_HYSTERESIS,
};
use proptest::prelude::*;

fn shadow(max_bytes: usize) -> ShadowPool<HeapMem> {
    ShadowPool::new(NativePool::new(SizeClasses::up_to(max_bytes), HeapMem::new))
}

/// The reference model of the history's hysteresis: grow immediately,
/// shrink after [`SHRINK_HYSTERESIS`] consecutive smaller observations.
struct ModelEntry {
    class: Option<usize>,
    overshoots: u32,
}

impl ModelEntry {
    fn new() -> ModelEntry {
        ModelEntry {
            class: None,
            overshoots: 0,
        }
    }

    fn record(&mut self, class: usize) {
        match self.class {
            None => self.class = Some(class),
            Some(current) if class > current => {
                self.class = Some(class);
                self.overshoots = 0;
            }
            Some(current) if class == current => self.overshoots = 0,
            Some(_) => {
                self.overshoots += 1;
                if self.overshoots >= SHRINK_HYSTERESIS {
                    self.class = Some(class);
                    self.overshoots = 0;
                }
            }
        }
    }
}

proptest! {
    /// The pool always returns a buffer at least as large as requested,
    /// and ladder-sized requests come back with the exact class capacity.
    #[test]
    fn acquired_buffers_fit_requests(sizes in proptest::collection::vec(1usize..100_000, 1..100)) {
        let pool = NativePool::new(SizeClasses::up_to(16 * 1024), HeapMem::new);
        for size in sizes {
            let buf = pool.acquire_size(size);
            prop_assert!(buf.capacity() >= size);
            if let Some(class) = buf.class() {
                prop_assert_eq!(buf.capacity(), class_capacity(class));
                prop_assert_eq!(class, class_for(size));
            } else {
                prop_assert!(size > 16 * 1024, "only jumbo requests go oversize");
            }
        }
    }

    /// Whatever sequence of sizes a call kind produces, the history obeys
    /// the hysteresis model exactly: grow immediately on undershoot,
    /// shrink only after `SHRINK_HYSTERESIS` consecutive smaller
    /// observations — and acquisitions are always served at the recorded
    /// class.
    #[test]
    fn history_follows_hysteresis_model(sizes in proptest::collection::vec(1usize..20_000, 1..50)) {
        let shadow = shadow(32 * 1024);
        let top = shadow.native().classes().count - 1;
        let mut model = ModelEntry::new();
        for &size in &sizes {
            shadow.record("proto", "method", size);
            model.record(class_for(size).min(top));
            prop_assert_eq!(shadow.recorded_class("proto", "method"), model.class);
            let buf = shadow.acquire("proto", "method");
            prop_assert_eq!(buf.class(), model.class);
        }
    }

    /// Convergence: after any warmup traffic, a steady workload pulls the
    /// history to its class within `SHRINK_HYSTERESIS` calls, and every
    /// further steady call is a history hit.
    #[test]
    fn steady_workload_converges(
        warmup in proptest::collection::vec(1usize..20_000, 0..30),
        steady in 1usize..20_000,
        tail in 3usize..20,
    ) {
        let shadow = shadow(32 * 1024);
        let top = shadow.native().classes().count - 1;
        for &size in &warmup {
            shadow.record("proto", "method", size);
        }
        for _ in 0..tail {
            shadow.record("proto", "method", steady);
        }
        let expect = class_for(steady).min(top);
        prop_assert_eq!(
            shadow.recorded_class("proto", "method"),
            Some(expect),
            "steady size {} must converge to its class after {} records",
            steady,
            tail
        );
        // Converged means converged: the record no longer moves, and the
        // pool serves right-sized buffers first try.
        let (hits_before, _, _, _) = shadow.stats().snapshot();
        shadow.record("proto", "method", steady);
        prop_assert_eq!(shadow.recorded_class("proto", "method"), Some(expect));
        let (hits_after, _, _, _) = shadow.stats().snapshot();
        prop_assert_eq!(hits_after, hits_before + 1);
    }

    /// No oscillation: a workload alternating between two size classes
    /// parks at the larger class after at most one shrink, instead of
    /// bouncing between adjacent classes forever. (Without hysteresis,
    /// every single call here would rewrite the record.)
    #[test]
    fn alternating_workload_never_oscillates(
        small in 1usize..4_000,
        rounds in 2usize..25,
    ) {
        let shadow = shadow(64 * 1024);
        let top = shadow.native().classes().count - 1;
        // 16x the small size is always >= 4 classes up, and still within
        // the 64K ladder — the two sizes can never share a class.
        let large = small * 16;
        let expect = class_for(large).min(top);
        let mut changes = 0u32;
        let mut last = None;
        for _ in 0..rounds {
            for size in [small, large] {
                shadow.record("proto", "method", size);
                let now = shadow.recorded_class("proto", "method");
                if last.is_some() && now != last {
                    changes += 1;
                }
                last = now;
            }
        }
        prop_assert_eq!(last, Some(expect), "alternation parks at the larger class");
        prop_assert!(
            changes <= 1,
            "record moved {} times over {} rounds — oscillation",
            changes,
            rounds
        );
        let (_, _, shrinks, _) = shadow.stats().snapshot();
        prop_assert_eq!(shrinks, 0, "the shrink path must never fire under alternation");
    }

    /// Growing a buffer repeatedly preserves the prefix that was in use.
    #[test]
    fn repeated_grow_preserves_prefix(data in proptest::collection::vec(any::<u8>(), 1..4000)) {
        let shadow = ShadowPool::new(NativePool::new(SizeClasses::up_to(64 * 1024), HeapMem::new));
        let mut buf = shadow.acquire("p", "m");
        let mut written = 0usize;
        for chunk in data.chunks(97) {
            while written + chunk.len() > buf.capacity() {
                buf = shadow.grow(buf, written);
            }
            buf.mem_mut().put(written, chunk);
            written += chunk.len();
        }
        let mut out = vec![0u8; written];
        buf.mem().get(0, &mut out);
        prop_assert_eq!(out, data);
    }
}
