//! The `Writable` trait and the standard Hadoop wrapper types.
//!
//! Wire formats match `org.apache.hadoop.io.*`: fixed-width primitives are
//! big-endian, `Text` is vint-length-prefixed UTF-8, `BytesWritable` is a
//! 4-byte length plus raw bytes, and the `V*Writable` wrappers use the
//! Hadoop vint codec.

use std::io;

use crate::io::{DataInput, DataOutput, LEN_BYTES_ON_TRUST};

/// A value that serializes itself Hadoop-style: `write` emits fields in
/// order, `read_fields` fills a default-constructed instance back in.
pub trait Writable {
    /// Serialize all fields to `out`.
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()>;
    /// Replace `self`'s fields with deserialized values from `input`.
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()>;

    /// Hand over the byte buffer this value holds, once it is serialized
    /// and will not be read again: the RPC server files a reply's buffer
    /// as a spare for the next parameter of its size. `None` for a value
    /// that holds none.
    fn take_buffer(&mut self) -> Option<Vec<u8>> {
        None
    }
}

macro_rules! wrapper_writable {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $write:ident, $read:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
        pub struct $name(pub $ty);

        impl Writable for $name {
            fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
                out.$write(self.0)
            }
            fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
                self.0 = input.$read()?;
                Ok(())
            }
        }

        impl From<$ty> for $name {
            fn from(v: $ty) -> Self {
                $name(v)
            }
        }
    };
}

wrapper_writable!(
    /// `org.apache.hadoop.io.IntWritable`: big-endian 4 bytes.
    IntWritable, i32, write_i32, read_i32
);
wrapper_writable!(
    /// `org.apache.hadoop.io.LongWritable`: big-endian 8 bytes.
    LongWritable, i64, write_i64, read_i64
);
wrapper_writable!(
    /// `org.apache.hadoop.io.VIntWritable`: Hadoop vint.
    VIntWritable, i32, write_vint, read_vint
);
wrapper_writable!(
    /// `org.apache.hadoop.io.VLongWritable`: Hadoop vlong.
    VLongWritable, i64, write_vlong, read_vlong
);
wrapper_writable!(
    /// `org.apache.hadoop.io.BooleanWritable`: one byte.
    BooleanWritable, bool, write_bool, read_bool
);
wrapper_writable!(
    /// `org.apache.hadoop.io.FloatWritable`: big-endian IEEE-754.
    FloatWritable, f32, write_f32, read_f32
);
wrapper_writable!(
    /// `org.apache.hadoop.io.DoubleWritable`: big-endian IEEE-754.
    DoubleWritable, f64, write_f64, read_f64
);

/// `org.apache.hadoop.io.ByteWritable`: a single (signed) byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ByteWritable(pub i8);

impl Writable for ByteWritable {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_i8(self.0)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.0 = input.read_i8()?;
        Ok(())
    }
}

/// `org.apache.hadoop.io.NullWritable`: zero bytes on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullWritable;

impl Writable for NullWritable {
    fn write(&self, _out: &mut dyn DataOutput) -> io::Result<()> {
        Ok(())
    }
    fn read_fields(&mut self, _input: &mut dyn DataInput) -> io::Result<()> {
        Ok(())
    }
}

/// `org.apache.hadoop.io.Text`: vint byte-length + UTF-8.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Text(pub String);

impl Writable for Text {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_string(&self.0)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.0 = input.read_string()?;
        Ok(())
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(s.to_owned())
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(s)
    }
}

/// `org.apache.hadoop.io.BytesWritable`: 4-byte length + raw bytes. This is
/// the payload type the paper's RPC microbenchmark ships back and forth.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BytesWritable(pub Vec<u8>);

impl Writable for BytesWritable {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_len_bytes(&self.0)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.0 = input.read_len_bytes()?;
        Ok(())
    }
    fn take_buffer(&mut self) -> Option<Vec<u8>> {
        Some(std::mem::take(&mut self.0))
    }
}

impl From<Vec<u8>> for BytesWritable {
    fn from(v: Vec<u8>) -> Self {
        BytesWritable(v)
    }
}

// ---------------------------------------------------------------------------
// Ergonomic impls for plain Rust types, used by the mini-Hadoop protocol
// structs. They reuse the standard Hadoop encodings.
// ---------------------------------------------------------------------------

impl Writable for String {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_string(self)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = input.read_string()?;
        Ok(())
    }
}

impl Writable for bool {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_bool(*self)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = input.read_bool()?;
        Ok(())
    }
}

impl Writable for i32 {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_i32(*self)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = input.read_i32()?;
        Ok(())
    }
}

impl Writable for i64 {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_i64(*self)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = input.read_i64()?;
        Ok(())
    }
}

impl Writable for u64 {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_i64(*self as i64)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = input.read_i64()? as u64;
        Ok(())
    }
}

impl Writable for u32 {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_i32(*self as i32)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = input.read_i32()? as u32;
        Ok(())
    }
}

impl Writable for Vec<u8> {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_len_bytes(self)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = input.read_len_bytes()?;
        Ok(())
    }
}

/// A borrowed buffer, to send: encoded as a `Vec<u8>` is, so a caller
/// serializes bytes it holds without copying them into a `Vec` of their
/// own first. It owns nothing to read into: decode a `Vec<u8>`.
impl Writable for &[u8] {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_len_bytes(self)
    }
    fn read_fields(&mut self, _input: &mut dyn DataInput) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "a borrowed buffer is written, not read",
        ))
    }
}

/// Collections serialize as a vint element count followed by the elements.
impl<T: Writable + Default> Writable for Vec<T> {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_vint(self.len() as i32)?;
        for item in self {
            item.write(out)?;
        }
        Ok(())
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        read_elements(input, self, |input| {
            let mut item = T::default();
            item.read_fields(input).map(|()| item)
        })
    }
}

/// Read a vint element count into `items`, each element by `read`.
pub(crate) fn read_elements<T>(
    input: &mut dyn DataInput,
    items: &mut Vec<T>,
    mut read: impl FnMut(&mut dyn DataInput) -> io::Result<T>,
) -> io::Result<()> {
    let n = usize::try_from(input.read_vint()?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "negative element count"))?;
    items.clear();
    // On the peer's word, what `LEN_BYTES_ON_TRUST` holds of `T`; past
    // that the vector grows as its elements arrive.
    items.reserve(n.min(LEN_BYTES_ON_TRUST / size_of::<T>().max(1)));
    for _ in 0..n {
        items.push(read(input)?);
    }
    Ok(())
}

/// Options serialize as a presence byte followed by the value.
impl<T: Writable + Default> Writable for Option<T> {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        match self {
            Some(v) => {
                out.write_bool(true)?;
                v.write(out)
            }
            None => out.write_bool(false),
        }
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        if input.read_bool()? {
            let mut v = T::default();
            v.read_fields(input)?;
            *self = Some(v);
        } else {
            *self = None;
        }
        Ok(())
    }
}

/// Pairs serialize field-by-field (used for key/value records).
impl<A: Writable, B: Writable> Writable for (A, B) {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        self.0.write(out)?;
        self.1.write(out)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.0.read_fields(input)?;
        self.1.read_fields(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    fn roundtrip<W: Writable + Default + PartialEq + std::fmt::Debug>(v: W) {
        let bytes = to_bytes(&v).unwrap();
        let back: W = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn wrappers_roundtrip() {
        roundtrip(IntWritable(-42));
        roundtrip(LongWritable(i64::MAX));
        roundtrip(VIntWritable(300));
        roundtrip(VLongWritable(-1 << 40));
        roundtrip(BooleanWritable(true));
        roundtrip(ByteWritable(-7));
        roundtrip(FloatWritable(1.5));
        roundtrip(DoubleWritable(-0.25));
        roundtrip(Text::from("metadata"));
        roundtrip(BytesWritable(vec![0, 255, 128]));
        roundtrip(NullWritable);
    }

    #[test]
    fn null_writable_is_zero_bytes() {
        assert!(to_bytes(&NullWritable).unwrap().is_empty());
    }

    #[test]
    fn int_writable_layout_matches_java() {
        assert_eq!(to_bytes(&IntWritable(1)).unwrap(), [0, 0, 0, 1]);
        assert_eq!(
            to_bytes(&IntWritable(-1)).unwrap(),
            [0xff, 0xff, 0xff, 0xff]
        );
    }

    #[test]
    fn bytes_writable_layout() {
        assert_eq!(to_bytes(&BytesWritable(vec![9])).unwrap(), [0, 0, 0, 1, 9]);
    }

    #[test]
    fn only_a_value_holding_a_buffer_hands_one_over() {
        let mut bytes = BytesWritable(vec![1, 2, 3]);
        assert_eq!(bytes.take_buffer(), Some(vec![1, 2, 3]));
        assert!(bytes.0.is_empty());
        assert_eq!(IntWritable(7).take_buffer(), None);
    }

    #[test]
    fn vec_of_writables_roundtrips() {
        roundtrip(vec![IntWritable(1), IntWritable(2), IntWritable(3)]);
        roundtrip(Vec::<Text>::new());
        roundtrip(vec![Text::from("a"), Text::from("bb")]);
    }

    #[test]
    fn options_roundtrip() {
        roundtrip(Some(LongWritable(5)));
        roundtrip(Option::<LongWritable>::None);
    }

    #[test]
    fn pairs_roundtrip() {
        roundtrip((Text::from("key"), LongWritable(9)));
    }

    #[test]
    fn plain_rust_types_roundtrip() {
        roundtrip(String::from("plain"));
        roundtrip(true);
        roundtrip(-5i32);
        roundtrip(7i64);
        roundtrip(u64::MAX);
        roundtrip(vec![1u8, 2, 3]);
    }

    #[test]
    fn a_borrowed_buffer_encodes_as_a_vec_and_is_not_read() {
        let bytes: &[u8] = &[4, 5, 6];
        assert_eq!(
            to_bytes(&bytes).unwrap(),
            to_bytes(&bytes.to_vec()).unwrap()
        );
        let mut borrowed: &[u8] = &[];
        let mut input: &[u8] = &[0, 0, 0, 0];
        let err = borrowed.read_fields(&mut input).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn deserializing_garbage_fails_not_panics() {
        // Text with a length longer than the buffer.
        let bad = [0x20u8, b'x'];
        assert!(from_bytes::<Text>(&bad).is_err());
        // Vec with negative count.
        let mut bad = Vec::new();
        crate::varint::write_vint(&mut bad, -3).unwrap();
        assert!(from_bytes::<Vec<IntWritable>>(&bad).is_err());
    }

    #[test]
    fn element_counts_reserve_on_evidence_not_on_the_announced_count() {
        // i32::MAX elements announced, two sent: refused for want of
        // bytes, not by the allocator.
        let mut hostile = Vec::new();
        crate::varint::write_vint(&mut hostile, i32::MAX).unwrap();
        hostile.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 2, 0]);
        let err = from_bytes::<Vec<IntWritable>>(&hostile).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A collection past the trusted size still arrives whole.
        roundtrip(vec![true; LEN_BYTES_ON_TRUST + 5]);
    }
}
