//! Property tests for the V3 compact-header codec: whatever sequence of
//! requests/responses an encoder emits — wrapping sequence numbers,
//! method keys repeating in any order, either compression mode — the
//! paired decoder must recover exactly the headers that went in, and the
//! stateful encoding must actually get *smaller* once a method has been
//! announced. And the decoder is a trust boundary: whatever bytes a peer
//! sends, it answers `Ok` or an `io::Error` — it never panics, and no
//! length in those bytes sizes an allocation past `KEY_TEXT_MAX`.

use proptest::prelude::*;
use rpcoib::frame::{ResponseStatus, KEY_TEXT_MAX};
use rpcoib::intern::method_key;
use rpcoib::{V3Decoder, V3Encoder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use wire::DataOutput;

/// Passes every request through to the system allocator, recording the
/// largest one the current thread makes.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: the allocator also runs during TLS setup and teardown.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
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

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// Feed `bytes` to every decoder entry point in both codec modes. The
/// results are discarded — any is acceptable — but a panic fails the
/// case, and so does an allocation a peer's length field inflated.
fn decode_hostile(bytes: &[u8]) {
    for stateful in [true, false] {
        LARGEST.with(|largest| largest.set(0));
        let _ = V3Decoder::new(stateful).read_request_header(&mut &bytes[..], 7);
        let _ = V3Decoder::new(stateful).read_response_header(&mut &bytes[..]);
        let largest = LARGEST.with(Cell::get);
        prop_assert!(
            largest <= KEY_TEXT_MAX,
            "{} input bytes made the decoder allocate {largest}",
            bytes.len()
        );
    }
}

/// A small pool of interned keys the generators draw from (interning is
/// process-wide, so the pool is fixed up front).
fn key_pool() -> Vec<rpcoib::MethodKey> {
    vec![
        method_key("v3prop.ProtoA", "alpha"),
        method_key("v3prop.ProtoA", "beta"),
        method_key("v3prop.ProtoB", "gamma"),
        method_key("v3prop.ProtoB", "delta"),
        method_key("v3prop.ProtoC", "epsilon"),
    ]
}

proptest! {
    /// Request headers round-trip through a stateful encoder/decoder
    /// pair for any sequence trajectory — including wraps through
    /// i64::MIN/MAX — and any order of method-key reuse.
    #[test]
    fn stateful_request_headers_roundtrip(
        seq_steps in proptest::collection::vec(
            (
                any::<i64>(),
                0..5usize,
                any::<u32>(),
                proptest::option::of(1..86_400_000_000u64),
            ),
            1..40,
        )
    ) {
        let pool = key_pool();
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        let mut seq: i64 = 0;
        for (step, key_idx, retry, budget_micros) in seq_steps {
            seq = seq.wrapping_add(step);
            let key = pool[key_idx];
            let budget = budget_micros.map(Duration::from_micros);
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, retry, budget, key).unwrap();
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 0xc11e).unwrap();
            prop_assert_eq!(header.seq, seq);
            prop_assert_eq!(header.retry_attempt, retry);
            prop_assert_eq!(header.key, key);
            prop_assert_eq!(header.client_id, 0xc11e);
            prop_assert_eq!(header.deadline_budget, budget);
            prop_assert!(input.is_empty(), "header must consume exactly its bytes");
        }
    }

    /// Self-contained (verbs) mode: any *subset* of the emitted frames,
    /// decoded in order by a fresh-or-shared decoder, still parses —
    /// dropping frames must not desynchronize anything.
    #[test]
    fn self_contained_frames_survive_arbitrary_drops(
        frames in proptest::collection::vec((any::<i64>(), 0..5usize, any::<bool>()), 1..40)
    ) {
        let pool = key_pool();
        let mut enc = V3Encoder::new(false);
        let mut dec = V3Decoder::new(false);
        for (seq, key_idx, keep) in frames {
            let key = pool[key_idx];
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, 1, None, key).unwrap();
            if !keep {
                continue; // the fabric ate it; the stream lives on
            }
            let header = dec.read_request_header(&mut buf.as_slice(), 7).unwrap();
            prop_assert_eq!(header.seq, seq);
            prop_assert_eq!(header.key, key);
        }
    }

    /// Response leads round-trip in both modes, and the stateful delta
    /// form survives sequence wraps.
    #[test]
    fn response_headers_roundtrip(
        stateful in any::<bool>(),
        seq_steps in proptest::collection::vec((any::<i64>(), any::<bool>()), 1..40)
    ) {
        let mut enc = V3Encoder::new(stateful);
        let mut dec = V3Decoder::new(stateful);
        let mut seq: i64 = i64::MAX - 3; // a few steps from the wrap
        for (step, ok) in seq_steps {
            seq = seq.wrapping_add(step);
            let mut buf: Vec<u8> = Vec::new();
            enc.write_response_lead(&mut buf, seq).unwrap();
            buf.push(if ok { 0 } else { 1 }); // neutral body status byte
            let mut input = buf.as_slice();
            let header = dec.read_response_header(&mut input).unwrap();
            prop_assert_eq!(header.seq, seq);
            prop_assert_eq!(
                header.status,
                if ok { ResponseStatus::Ok } else { ResponseStatus::Error }
            );
        }
    }

    /// Arbitrary bytes never panic the decoder or inflate an allocation.
    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(
        bytes in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        decode_hostile(&bytes);
    }

    /// The same, aimed: a run of arbitrary vlong fields (seq, retry,
    /// deadline, method ref, string lengths — every value a peer can put
    /// there) followed by arbitrary bytes, so hostile lengths actually
    /// reach the string reader instead of dying on the first field.
    #[test]
    fn arbitrary_header_fields_never_panic_or_overallocate(
        fields in proptest::collection::vec((any::<i64>(), 0..3usize), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        for (field, range) in fields {
            // Mixed magnitudes: tiny values get a header past its retry,
            // deadline and method-ref fields; `i32`-sized ones are what a
            // string length can hold; the rest is everything else.
            let field = match range {
                0 => field % 8,
                1 => i64::from(field as i32),
                _ => field,
            };
            bytes.write_vlong(field).unwrap();
        }
        bytes.extend_from_slice(&tail);
        bytes.truncate(63);
        decode_hostile(&bytes);
    }

    /// The point of the method table: after a key's announcement frame,
    /// every later use of it encodes strictly smaller than the inline
    /// form — and small consecutive seq deltas keep the whole interned
    /// header in single-digit bytes.
    #[test]
    fn interned_headers_shrink_after_first_use(key_idx in 0..5usize, reuses in 1..10usize) {
        let pool = key_pool();
        let key = pool[key_idx];
        let mut enc = V3Encoder::new(true);
        let mut first: Vec<u8> = Vec::new();
        enc.write_request_header(&mut first, 1, 0, None, key).unwrap();
        for i in 0..reuses {
            let mut again: Vec<u8> = Vec::new();
            enc.write_request_header(&mut again, 2 + i as i64, 0, None, key).unwrap();
            prop_assert!(
                again.len() < first.len(),
                "interned reuse ({}) must beat the announcement ({})",
                again.len(),
                first.len()
            );
            prop_assert!(again.len() <= 4, "delta-seq interned header stays tiny");
        }
    }
}
