//! Property tests for the wire format and the Algorithm-1 buffer.

use proptest::prelude::*;
use wire::buffer::INITIAL_CAPACITY;
use wire::varint::{read_vlong, vlong_size, write_vlong};
use wire::{from_bytes, to_bytes, BytesWritable, DataOutputBuffer, Text, VLongWritable};

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
    /// agrees with the encoder.
    #[test]
    fn vlong_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        write_vlong(&mut buf, v).unwrap();
        prop_assert_eq!(buf.len(), vlong_size(v));
        prop_assert!(buf.len() <= 9);
        prop_assert_eq!(read_vlong(&mut buf.as_slice()).unwrap(), v);
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

    /// Vec<VLongWritable> roundtrips (vint count + elements).
    #[test]
    fn vec_roundtrip(vs in proptest::collection::vec(any::<i64>(), 0..64)) {
        let w: Vec<VLongWritable> = vs.iter().map(|&v| VLongWritable(v)).collect();
        let bytes = to_bytes(&w).unwrap();
        let back: Vec<VLongWritable> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, w);
    }
}
