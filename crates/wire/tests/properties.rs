//! Property tests for the wire format and the Algorithm-1 buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use wire::buffer::INITIAL_CAPACITY;
use wire::io::LEN_BYTES_ON_TRUST;
use wire::varint::{decode_vint_size, read_vint, read_vlong, vlong_size, write_vlong};
use wire::{
    from_bytes, to_bytes, BytesWritable, DataOutputBuffer, ObjectWritable, Text, VLongWritable,
};

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// cell was last zeroed.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations (and reallocations) this thread has made since the
    /// cell was last zeroed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

struct LargestAlloc;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// beside it touches one thread-local `Cell` and allocates nothing.
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

proptest! {
    /// u64 fixed-width values (frame-v2 client ids) roundtrip and always
    /// occupy exactly 8 big-endian bytes.
    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        use wire::{DataInput, DataOutput};
        let mut buf = Vec::new();
        buf.write_u64(v).unwrap();
        prop_assert_eq!(buf.len(), 8);
        let mut cursor = buf.as_slice();
        prop_assert_eq!(cursor.read_u64().unwrap(), v);
    }

    /// Every i64 survives the Hadoop vint codec, and the size function
    /// agrees with the encoder: a vlong decodes in exactly the
    /// `vlong_size` bytes its encoding took, whatever follows it, and its
    /// first byte announces that size. Small magnitudes are drawn as often
    /// as large ones.
    #[test]
    fn vlong_roundtrip(
        v in any::<i64>(),
        shift in 0u32..64,
        tail in proptest::collection::vec(any::<u8>(), 0..9),
    ) {
        let v = v >> shift;
        let mut buf = Vec::new();
        write_vlong(&mut buf, v).unwrap();
        prop_assert_eq!(buf.len(), vlong_size(v));
        prop_assert!(buf.len() <= 9);
        prop_assert_eq!(decode_vint_size(buf[0]), vlong_size(v));
        buf.extend_from_slice(&tail);
        let mut cursor = buf.as_slice();
        prop_assert_eq!(read_vlong(&mut cursor).unwrap(), v);
        prop_assert_eq!(buf.len() - cursor.len(), vlong_size(v));
    }

    /// Encoded vints are prefix-free: decoding consumes exactly the bytes
    /// the encoder produced, so values can be concatenated.
    #[test]
    fn vlong_concatenation(vs in proptest::collection::vec(any::<i64>(), 1..20)) {
        let mut buf = Vec::new();
        for &v in &vs {
            write_vlong(&mut buf, v).unwrap();
        }
        let mut cursor = buf.as_slice();
        for &v in &vs {
            prop_assert_eq!(read_vlong(&mut cursor).unwrap(), v);
        }
        prop_assert!(cursor.is_empty());
    }

    /// The varint decoders take any 0–16 bytes from a peer — the free
    /// functions and `DataInput`'s — and give a value or an `io::Error`,
    /// never a panic, and allocate nothing, not even for the error.
    #[test]
    fn varint_decoders_take_any_bytes_and_allocate_nothing(
        bytes in proptest::collection::vec(any::<u8>(), 0..17),
    ) {
        use wire::DataInput;
        let (mut a, mut b) = (bytes.as_slice(), bytes.as_slice());
        ALLOCS.with(|allocs| allocs.set(0));
        let refused = [
            read_vlong(&mut bytes.as_slice()).err(),
            read_vint(&mut bytes.as_slice()).err(),
            a.read_vlong().err(),
            b.read_vint().err(),
        ];
        let allocs = ALLOCS.with(Cell::get);
        prop_assert_eq!(allocs, 0, "{:?}", refused);
    }

    /// Algorithm 1 never loses data and always keeps count <= capacity.
    #[test]
    fn algorithm1_preserves_all_bytes(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200), 0..50))
    {
        let mut buf = DataOutputBuffer::new();
        let mut expected = Vec::new();
        for chunk in &chunks {
            buf.append(chunk);
            expected.extend_from_slice(chunk);
            prop_assert!(buf.len() <= buf.capacity());
        }
        prop_assert_eq!(buf.data(), expected.as_slice());
        // Growth is geometric-ish: adjustments are bounded by
        // log2(total/32) + 1 when every write fits after one doubling...
        // except jumbo single writes, which adjust at most once each.
        let bound = (expected.len().max(INITIAL_CAPACITY) / INITIAL_CAPACITY)
            .next_power_of_two().trailing_zeros() as u64 + chunks.len() as u64;
        prop_assert!(buf.adjustments() <= bound);
    }

    /// Text and BytesWritable roundtrip arbitrary content.
    #[test]
    fn text_roundtrip(s in "\\PC*") {
        let bytes = to_bytes(&Text(s.clone())).unwrap();
        let back: Text = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.0, s);
    }

    #[test]
    fn bytes_writable_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let bytes = to_bytes(&BytesWritable(data.clone())).unwrap();
        prop_assert_eq!(bytes.len(), 4 + data.len());
        let back: BytesWritable = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.0, data);
    }

    /// Folding the CRCs of a block's packets with `crc32_combine` gives
    /// the CRC of the block, however it is cut — empty packets included.
    #[test]
    fn crc32_combine_matches_one_shot_over_any_split(
        parts in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 0..12))
    {
        let folded = parts.iter().fold(wire::crc32(&[]), |crc, part| {
            wire::crc32_combine(crc, wire::crc32(part), part.len())
        });
        prop_assert_eq!(folded, wire::crc32(&parts.concat()));
    }

    /// A length is the peer's word until the bytes show up: whatever a
    /// string, a byte buffer, a collection or an object array announces
    /// — up to `i32::MAX` — over a body of a few bytes, the reader fails
    /// cleanly (or succeeds, when the body really is that long) and no
    /// single allocation exceeds `LEN_BYTES_ON_TRUST`.
    #[test]
    fn announced_lengths_size_nothing(
        shape in 0..3u8,
        n in 0..i32::MAX,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use wire::DataOutput;
        // About what the body holds, anything, or as much as fits.
        let announced = match shape {
            0 => n % 65,
            1 => n,
            _ => i32::MAX - n % 65,
        };
        let mut vint_led: Vec<u8> = Vec::new();
        vint_led.write_vint(announced).unwrap();
        vint_led.extend_from_slice(&body);
        let mut i32_led: Vec<u8> = announced.to_be_bytes().to_vec();
        i32_led.extend_from_slice(&body);
        let mut array: Vec<u8> = Vec::new();
        array.write_string("array").unwrap();
        array.extend_from_slice(&vint_led);

        LARGEST.with(|largest| largest.set(0));
        let results = [
            from_bytes::<Text>(&vint_led).err(),
            from_bytes::<Vec<VLongWritable>>(&vint_led).err(),
            from_bytes::<BytesWritable>(&i32_led).err(),
            from_bytes::<ObjectWritable>(&array).err(),
        ];
        let largest = LARGEST.with(Cell::get);
        prop_assert!(
            largest <= LEN_BYTES_ON_TRUST,
            "a length of {announced} over {} bytes made a reader allocate {largest}",
            body.len()
        );
        if announced as usize > body.len() {
            for err in results {
                let kind = err.expect("more announced than sent").kind();
                prop_assert!(matches!(
                    kind,
                    std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::InvalidData
                ));
            }
        }
    }

    /// Vec<VLongWritable> roundtrips (vint count + elements).
    #[test]
    fn vec_roundtrip(vs in proptest::collection::vec(any::<i64>(), 0..64)) {
        let w: Vec<VLongWritable> = vs.iter().map(|&v| VLongWritable(v)).collect();
        let bytes = to_bytes(&w).unwrap();
        let back: Vec<VLongWritable> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, w);
    }
}
