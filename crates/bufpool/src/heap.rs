//! The heap tier: response bodies and bulk parameters, recycled by size
//! class in plain heap memory.
//!
//! The registered tier ([`crate::ShadowPool`] over [`crate::NativePool`])
//! serves what goes on the wire; this tier serves what an RPC server
//! keeps on the heap — a serialized response body, which the at-most-once
//! retry cache, replays and parked duplicates share as `Arc<Vec<u8>>`,
//! and the `Vec` a bulk parameter is read into. Both halves of the
//! paper's design (§III-C) apply: the caller's size history picks the
//! class (the server keeps the last body size of each
//! `<protocol, method#resp>`), and a buffer nobody holds any more is kept
//! as a **spare** of its class instead of being freed, so that the next
//! body of that class is written into it ([`HeapTier::build_body`]) and
//! neither the `Vec`'s block nor the `Arc`'s is allocated.
//!
//! The rules:
//!
//! * **One owner, proven by the type.** A body is cleared or written only
//!   through `Arc::get_mut`, which succeeds only when no replay pending
//!   behind a send turn, no parked-duplicate route, no cache entry and no
//!   handler mid-send holds it. A body still shared when it is offered
//!   ([`HeapTier::offer`]) is simply dropped by that holder; every holder
//!   offers the body when it lets go, so whichever lets go last files the
//!   spare. No reference count is ever read.
//! * **Class-matched.** Spares are filed under the native pool's size
//!   ladder ([`crate::classes`]) by `capacity()` and drawn by the class of
//!   the caller's size hint, or the class above it when that one is empty
//!   (a body that grew while it was written was doubled into it), so a
//!   spare's capacity is below four times the hint; a body that turns out
//!   far smaller than its buffer gives the excess back before anyone
//!   keeps it. Fresh buffers are sized exactly.
//! * **Its own budget.** The tier counts the `capacity()` — what a spare
//!   pins, not what it says — of its idle spares, under its own mutex,
//!   and keeps one only while that count stays within its budget
//!   ([`BUDGET_BYTES`] for a server's) and its class idles fewer than
//!   [`SPARES_PER_CLASS`]. A drawn spare leaves the count and is charged
//!   again when it comes back. **Hard bound:** a tier's idle spares pin
//!   at most its budget — 128 MiB per server — and no buffer above 1 GiB
//!   is ever kept. What a retry cache retains is bounded by the cache,
//!   separately.
//! * **Nothing is freed under the tier's lock.** A body that is not kept
//!   is dropped after the lock is released, and nobody offers while
//!   holding a lock of their own (the retry cache moves what leaves it
//!   out of its mutex first).
//!
//! **Parameters are read into spares too.** A parameter that arrived in a
//! bulk frame is read into the `Vec` of a spare of exactly its length's
//! class ([`HeapTier::draw_param`]; never the class above, so the buffer
//! is below twice the length). The spare's emptied `Arc` stays with the
//! call, and the buffer its reply gives up once serialized goes back into
//! it and is offered ([`HeapTier::give_back`]): in an echo's steady state
//! a parameter is read into the buffer the last reply gave back. Eager
//! frames draw nothing: a handler that keeps its parameter (a memstore
//! keeps a put's value) would pin a class-rounded buffer per small value.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::classes::{class_for, MIN_CLASS_BYTES};

/// A serialized response body, shared by whoever holds it.
type Body = Arc<Vec<u8>>;

/// Idle spares kept per size class. In steady state a class holds one per
/// call in flight; the cap is what a burst of releases of one size may
/// leave behind.
pub const SPARES_PER_CLASS: usize = 4;

/// Size classes that keep spares: 128 B · 2^k up to 1 GiB. A larger body
/// is never kept.
const SPARE_CLASSES: usize = 24;

/// The byte budget of a server's tier: the 128 MiB the retry cache's own
/// budget comes to at its defaults (8192 entries of an eager frame's
/// 16 KiB). A 256 KiB echo keeps at most 3 MiB idle (four spares in each
/// of two classes), so this bounds a pathological mix, not a steady
/// state.
pub const BUDGET_BYTES: usize = 128 << 20;

/// A call's claim on the spare its parameter was read into
/// ([`HeapTier::draw_param`]): the spare's emptied `Arc`, or — no spare
/// was idle — the parameter's length.
pub struct ParamDraw(Result<Body, usize>);

/// What a tier keeps idle right now (see [`HeapTier::idle`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Idle {
    /// Idle spares, the fullest class's count, and their total
    /// `capacity()`.
    pub spares: usize,
    pub fullest_class: usize,
    pub capacity: usize,
}

struct Spares {
    /// Idle spares by size class of their capacity, each cleared and
    /// unique.
    by_class: [Vec<Body>; SPARE_CLASSES],
    /// `capacity()` of every idle spare: what the budget bounds.
    bytes: usize,
}

/// See module docs. Shared by a server's handlers, senders and retry
/// cache.
pub struct HeapTier {
    spares: Mutex<Spares>,
    max_bytes: usize,
}

impl HeapTier {
    /// A tier whose idle spares pin at most `max_bytes` of `capacity()`:
    /// a server's is [`BUDGET_BYTES`].
    pub fn new(max_bytes: usize) -> HeapTier {
        HeapTier {
            spares: Mutex::new(Spares {
                by_class: std::array::from_fn(|_| Vec::with_capacity(SPARES_PER_CLASS)),
                bytes: 0,
            }),
            max_bytes,
        }
    }

    /// Serialize a body into a buffer nobody else can see and return it
    /// shared, with whether it was a spare: an idle spare of `hint`'s size
    /// class (or the one above) when there is one (neither the `Vec`'s
    /// block nor the `Arc`'s is allocated), else a fresh buffer of
    /// exactly `hint` bytes. `hint` is what the caller expects `fill` to
    /// write — the last body of the same kind; a size that drifts upward
    /// inside its class costs one `realloc`, and a body that leaves its
    /// buffer more than half empty (above the class floor) gives the
    /// excess back, so what a cache then retains is below twice what it
    /// can replay.
    pub fn build_body(&self, hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> (Arc<Vec<u8>>, bool) {
        let write = |buf: &mut Vec<u8>| {
            buf.reserve_exact(hint);
            fill(buf);
            if buf.capacity() >= 2 * buf.len() + MIN_CLASS_BYTES {
                buf.shrink_to_fit();
            }
        };
        if let Some(mut spare) = self.take_spare(hint, 2) {
            // Unique when it was filed and unseen since; `get_mut` says
            // so again, and is the only way in.
            if let Some(buf) = Arc::get_mut(&mut spare) {
                write(buf);
                return (spare, true);
            }
        }
        let mut buf = Vec::new();
        write(&mut buf);
        (Arc::new(buf), false)
    }

    /// Offer a body the caller is done with: kept as a spare iff nobody
    /// else holds it (`Arc::get_mut`'s verdict), its class has fewer than
    /// [`SPARES_PER_CLASS`] idle and the budget has room; otherwise this
    /// reference is dropped, and with the last one the body. Called for
    /// whatever leaves a retry cache and, by the server, for a response's
    /// own buffer once it is sent.
    pub fn offer(&self, mut body: Arc<Vec<u8>>) {
        let Some(buf) = Arc::get_mut(&mut body) else {
            return;
        };
        let (bytes, class) = (buf.capacity(), class_for(buf.capacity()));
        if bytes == 0 || class >= SPARE_CLASSES {
            return;
        }
        buf.clear();
        let mut spares = self.spares.lock();
        // Charged to the budget only if it fits.
        let total = spares.bytes.saturating_add(bytes);
        if spares.by_class[class].len() < SPARES_PER_CLASS && total <= self.max_bytes {
            spares.bytes = total;
            spares.by_class[class].push(body);
            return;
        }
        // Not kept: free it after the spare lock, not under it.
        drop(spares);
    }

    /// A buffer to read a `len`-byte parameter into: the `Vec` of an idle
    /// spare of exactly `len`'s size class (never the class above, so its
    /// capacity is below twice `len`), cleared and held by nobody else.
    /// The returned [`ParamDraw`] stays with the call until
    /// [`HeapTier::give_back`]. The spare leaves the budget here and is
    /// charged again when it comes back.
    pub fn draw_param(&self, len: usize) -> (ParamDraw, Option<Vec<u8>>) {
        match self.take_spare(len, 1) {
            Some(mut shell) => {
                let buf = Arc::get_mut(&mut shell).map(std::mem::take);
                (ParamDraw(Ok(shell)), buf)
            }
            None => (ParamDraw(Err(len)), None),
        }
    }

    /// File the buffer a call's reply gave up as a spare, in the `Arc`
    /// its parameter was drawn from. A draw that found no spare had its
    /// buffer allocated; when the reply's buffer is of the class it
    /// looked in, it is filed behind a new `Arc` — the only allocation
    /// here, on a miss only, and how a class is first stocked: a response
    /// body is a few bytes longer than the value it carries, so it seldom
    /// lands in its parameter's exact class.
    pub fn give_back(&self, draw: ParamDraw, buf: Vec<u8>) {
        match draw.0 {
            Ok(mut shell) => {
                if let Some(slot) = Arc::get_mut(&mut shell) {
                    *slot = buf;
                    self.offer(shell);
                }
            }
            Err(len) if class_for(buf.capacity()) == class_for(len) => {
                self.offer(Arc::new(buf));
            }
            Err(_) => {}
        }
    }

    /// What the tier keeps idle right now, counted from the spares
    /// themselves: for tests and observability.
    pub fn idle(&self) -> Idle {
        let mut idle = Idle::default();
        for class in &self.spares.lock().by_class {
            idle.spares += class.len();
            idle.fullest_class = idle.fullest_class.max(class.len());
            idle.capacity += class.iter().map(|s| s.capacity()).sum::<usize>();
        }
        idle
    }

    /// An idle spare of `hint`'s size class or, that class empty, of one
    /// of the `classes - 1` above it. A body looks one class up (2): that
    /// is where a body that outgrew its buffer while it was written lands
    /// (the `Vec` doubles it past its class), while the next hint, its
    /// own length, is back below. A parameter looks in its own (1).
    fn take_spare(&self, hint: usize, classes: usize) -> Option<Body> {
        let class = class_for(hint);
        if class >= SPARE_CLASSES {
            return None;
        }
        let mut spares = self.spares.lock();
        let spare = (class..class + classes).find_map(|c| spares.by_class.get_mut(c)?.pop())?;
        spares.bytes -= spare.capacity();
        Some(spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A body of `len` bytes in a buffer of exactly `capacity`.
    fn roomy(len: usize, capacity: usize) -> Arc<Vec<u8>> {
        let mut buf = Vec::with_capacity(capacity);
        buf.resize(len, 0xCC);
        assert_eq!(buf.capacity(), capacity);
        Arc::new(buf)
    }

    #[test]
    fn an_offered_body_is_the_next_one_built_in_its_class() {
        let tier = HeapTier::new(BUDGET_BYTES);
        let (first, reused) = tier.build_body(0, |buf| buf.extend_from_slice(&[1; 200]));
        assert!(!reused);
        let (block, capacity) = (first.as_ptr(), first.capacity());
        tier.offer(first);
        // Same class, a little smaller: same block, nothing allocated.
        let (again, reused) = tier.build_body(180, |buf| buf.extend_from_slice(&[3; 180]));
        assert!(reused);
        assert_eq!((again.as_ptr(), again.capacity()), (block, capacity));
        assert_eq!(*again, vec![3; 180]);
        // Another class finds nothing and allocates exactly.
        let (other, reused) = tier.build_body(2_000, |buf| buf.extend_from_slice(&[4; 2_000]));
        assert!(!reused);
        assert_eq!(other.capacity(), 2_000);
    }

    #[test]
    fn a_body_that_outgrew_its_class_is_drawn_by_the_hint_below_it() {
        let tier = HeapTier::new(BUDGET_BYTES);
        // A 507-byte body against a 500-byte hint: the `Vec` doubled its
        // buffer into the class above the hint's.
        let (grown, _) = tier.build_body(500, |buf| buf.extend_from_slice(&[1; 507]));
        assert!(grown.capacity() > 512, "{}", grown.capacity());
        let block = grown.as_ptr();
        tier.offer(grown);
        // The next hint is that body's length, a class below its buffer.
        let (next, reused) = tier.build_body(507, |buf| buf.extend_from_slice(&[2; 514]));
        assert_eq!(next.as_ptr(), block);
        assert!(reused);
    }

    #[test]
    fn a_parameter_is_read_into_a_spare_of_its_exact_class_and_given_back() {
        let tier = HeapTier::new(10_000);
        // Only the class above is stocked: a parameter never takes it.
        tier.offer(roomy(1_500, 1_500));
        let (draw, buf) = tier.draw_param(1_000);
        assert!(buf.is_none());
        // A miss stocks only the class it missed in, with the buffer the
        // reply gives back.
        tier.give_back(draw, Vec::with_capacity(5_000));
        assert_eq!(tier.idle().spares, 1);
        let (draw, buf) = tier.draw_param(1_000);
        assert!(buf.is_none());
        tier.give_back(draw, Vec::with_capacity(1_000));
        let idle = tier.idle();
        assert_eq!((idle.spares, idle.capacity), (2, 2_500));

        // A hit: the spare's buffer, cleared, out of the budget while the
        // call has it; whatever the reply gives back goes into its `Arc`.
        let (draw, buf) = tier.draw_param(1_000);
        let buf = buf.expect("a spare of the class");
        assert!(buf.is_empty() && buf.capacity() == 1_000);
        assert_eq!(tier.idle().capacity, 1_500);
        assert_eq!(tier.spares.lock().bytes, 1_500);
        let mut reply = buf;
        reply.resize(900, 0xAA);
        tier.give_back(draw, reply);
        let idle = tier.idle();
        assert_eq!((idle.spares, idle.capacity), (2, 2_500));
        let (_, again) = tier.draw_param(900);
        assert_eq!(again.map(|b| (b.len(), b.capacity())), Some((0, 1_000)));
    }

    #[test]
    fn body_far_smaller_than_its_buffer_gives_the_excess_back() {
        let tier = HeapTier::new(BUDGET_BYTES);
        tier.offer(roomy(0, 1_000));
        let (body, reused) = tier.build_body(1_000, |buf| buf.extend_from_slice(&[1; 10]));
        assert!(reused);
        assert!(
            body.capacity() < 2 * 10 + MIN_CLASS_BYTES,
            "{}",
            body.capacity()
        );
        assert_eq!(*body, vec![1; 10]);
    }

    #[test]
    fn a_shared_body_is_not_filed_until_its_last_holder_offers_it() {
        let tier = HeapTier::new(BUDGET_BYTES);
        let body = roomy(300, 300);
        let held = Arc::clone(&body);
        tier.offer(body);
        assert_eq!(tier.idle().spares, 0, "shared: not a spare");
        let (built, reused) = tier.build_body(300, |buf| buf.extend_from_slice(&[9; 300]));
        assert!(!reused);
        assert_ne!(built.as_ptr(), held.as_ptr());
        assert_eq!(*held, vec![0xCC; 300], "the held body is untouched");
        tier.offer(held);
        assert_eq!(tier.idle().spares, 1);
    }

    #[test]
    fn a_class_idles_at_most_its_cap_and_the_tier_at_most_its_budget() {
        let tier = HeapTier::new(1_000);
        for _ in 0..SPARES_PER_CLASS + 3 {
            tier.offer(roomy(0, 64));
        }
        assert_eq!(tier.idle().spares, SPARES_PER_CLASS);
        // Four of 64 B pin 256 B: 400 B more fit the budget, 700 B more
        // would not.
        tier.offer(roomy(0, 400));
        tier.offer(roomy(0, 700));
        let idle = tier.idle();
        assert_eq!((idle.spares, idle.capacity), (SPARES_PER_CLASS + 1, 656));
        assert_eq!(tier.spares.lock().bytes, idle.capacity);
        // Nothing empty is kept.
        tier.offer(Arc::new(Vec::new()));
        assert_eq!(tier.idle().spares, SPARES_PER_CLASS + 1);
    }

    #[test]
    fn the_default_budget_keeps_a_bulk_echos_spares_many_times_over() {
        // A 256 KiB echo's bodies are filed in the 512 KiB class, its
        // parameters in the 256 KiB one: four of each fit twenty times.
        let tier = HeapTier::new(BUDGET_BYTES);
        for capacity in [512 << 10, 256 << 10] {
            for _ in 0..SPARES_PER_CLASS {
                tier.offer(roomy(0, capacity));
            }
        }
        assert_eq!(tier.idle().spares, 2 * SPARES_PER_CLASS);
        assert!(tier.idle().capacity * 20 < BUDGET_BYTES);
    }
}
