//! # wire — Hadoop `Writable` serialization, faithfully reproduced
//!
//! Hadoop RPC (0.20.x, the version the paper studies) serializes every call
//! with the `Writable` mechanism: values write themselves field-by-field
//! into a `DataOutput` using Java's big-endian primitive encodings plus
//! Hadoop's variable-length integer format (`WritableUtils.writeVInt`).
//!
//! This crate reproduces that stack:
//!
//! * [`DataOutput`] / [`DataInput`] — the primitive encoding traits,
//!   blanket-implemented for any `std::io::Write` / `Read`;
//! * [`varint`] — the exact Hadoop vint/vlong codec (one's-complement
//!   negatives, `-112`/`-120` length prefixes);
//! * [`buffer::DataOutputBuffer`] — the serialization buffer whose growth
//!   policy is the paper's **Algorithm 1**: start at 32 bytes, grow to
//!   `max(2·len, needed)`, copying the old contents each time. The
//!   adjustment count and copied-byte volume are instrumented per instance
//!   and globally ([`buffer::global_stats`]) because Table I of the paper
//!   reports exactly these numbers;
//! * [`types`] — the `Writable` wrapper types used by the mini-Hadoop
//!   components (`IntWritable`, `Text`, `BytesWritable`, …).
//!
//! The deliberate inefficiency of Algorithm 1 is the *point*: the RPCoIB
//! design in the `rpcoib` crate exists to avoid it, and the benchmarks
//! compare the two.
//!
//! ```
//! use wire::{DataInput, DataOutput, DataOutputBuffer, Text, Writable};
//!
//! // Serialize Hadoop-style into the stock 32-byte buffer...
//! let mut buf = DataOutputBuffer::new();
//! buf.write_i32(42).unwrap();
//! Text::from("/user/data").write(&mut buf).unwrap();
//! buf.write_bytes(&[0u8; 100]).unwrap();
//! // ...and watch Algorithm 1 pay for it:
//! assert!(buf.adjustments() >= 1, "outgrew 32 bytes, so it reallocated");
//!
//! // Round-trip.
//! let mut input = buf.data();
//! assert_eq!(input.read_i32().unwrap(), 42);
//! let mut path = Text::default();
//! path.read_fields(&mut input).unwrap();
//! assert_eq!(path.0, "/user/data");
//! ```

pub mod buffer;
pub mod crc;
pub mod io;
pub mod object;
pub mod types;
pub mod varint;

pub use buffer::{DataInputBuffer, DataOutputBuffer};
pub use crc::{crc32, crc32_combine, crc32_extend};
pub use io::{DataInput, DataOutput};
pub use object::ObjectWritable;
pub use types::{
    BooleanWritable, ByteWritable, BytesWritable, DoubleWritable, FloatWritable, IntWritable,
    LongWritable, NullWritable, Text, VIntWritable, VLongWritable, Writable,
};

use std::io::Result;

/// Serialize a `Writable` into a fresh byte vector (convenience for tests
/// and for call-size tracing).
pub fn to_bytes<W: Writable + ?Sized>(w: &W) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    w.write(&mut out)?;
    Ok(out)
}

/// Deserialize a `Writable` from a byte slice (the value is default-created
/// and then filled in via `read_fields`, Hadoop-style).
pub fn from_bytes<W: Writable + Default>(bytes: &[u8]) -> Result<W> {
    let mut input = bytes;
    let mut value = W::default();
    value.read_fields(&mut input)?;
    Ok(value)
}
