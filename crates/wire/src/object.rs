//! `ObjectWritable`: Hadoop's polymorphic RPC parameter container.
//!
//! Stock Hadoop RPC marshals every call parameter as an
//! `ObjectWritable` — a type name on the wire followed by the value —
//! which is how a reflective server can reconstruct arguments without
//! static knowledge of the method signature. (The class-name preamble is
//! also part of why real Hadoop frames are bigger than their payloads —
//! a contributor to the paper's Table I adjustment counts.)
//!
//! This implementation supports the primitive wrappers, `Text`, byte
//! arrays, nulls, and homogeneous arrays, dispatching on a compact type
//! tag written as a Hadoop string.

use std::io;

use crate::io::{DataInput, DataOutput};
use crate::types::{read_elements, Writable};

/// Deepest nesting of arrays a reader decodes. Each level is a stack
/// frame on whichever thread reads a peer's bytes, for about seven of
/// those bytes (`\x05array\x01`): unbounded, a few hundred kilobytes
/// overflow that thread's stack and abort the process.
pub const MAX_NESTING: usize = 64;

/// A dynamically typed `Writable` value.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ObjectWritable {
    /// Java `null` (`NullWritable` declared type).
    #[default]
    Null,
    Boolean(bool),
    Byte(i8),
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    /// UTF-8 string (`org.apache.hadoop.io.Text`).
    Text(String),
    /// Raw bytes (`org.apache.hadoop.io.BytesWritable`).
    Bytes(Vec<u8>),
    /// A homogeneous array of objects.
    Array(Vec<ObjectWritable>),
}

impl ObjectWritable {
    /// The wire type name (shortened stand-ins for Java class names).
    pub fn type_name(&self) -> &'static str {
        match self {
            ObjectWritable::Null => "null",
            ObjectWritable::Boolean(_) => "boolean",
            ObjectWritable::Byte(_) => "byte",
            ObjectWritable::Int(_) => "int",
            ObjectWritable::Long(_) => "long",
            ObjectWritable::Float(_) => "float",
            ObjectWritable::Double(_) => "double",
            ObjectWritable::Text(_) => "org.apache.hadoop.io.Text",
            ObjectWritable::Bytes(_) => "org.apache.hadoop.io.BytesWritable",
            ObjectWritable::Array(_) => "array",
        }
    }
}

impl Writable for ObjectWritable {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_string(self.type_name())?;
        match self {
            ObjectWritable::Null => Ok(()),
            ObjectWritable::Boolean(v) => out.write_bool(*v),
            ObjectWritable::Byte(v) => out.write_i8(*v),
            ObjectWritable::Int(v) => out.write_i32(*v),
            ObjectWritable::Long(v) => out.write_i64(*v),
            ObjectWritable::Float(v) => out.write_f32(*v),
            ObjectWritable::Double(v) => out.write_f64(*v),
            ObjectWritable::Text(v) => out.write_string(v),
            ObjectWritable::Bytes(v) => out.write_len_bytes(v),
            ObjectWritable::Array(items) => {
                out.write_vint(items.len() as i32)?;
                for item in items {
                    item.write(out)?;
                }
                Ok(())
            }
        }
    }

    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = read_nested(input, 0)?;
        Ok(())
    }
}

/// Read one value that sits inside `depth` arrays.
fn read_nested(input: &mut dyn DataInput, depth: usize) -> io::Result<ObjectWritable> {
    let type_name = input.read_string()?;
    Ok(match type_name.as_str() {
        "null" => ObjectWritable::Null,
        "boolean" => ObjectWritable::Boolean(input.read_bool()?),
        "byte" => ObjectWritable::Byte(input.read_i8()?),
        "int" => ObjectWritable::Int(input.read_i32()?),
        "long" => ObjectWritable::Long(input.read_i64()?),
        "float" => ObjectWritable::Float(input.read_f32()?),
        "double" => ObjectWritable::Double(input.read_f64()?),
        "org.apache.hadoop.io.Text" => ObjectWritable::Text(input.read_string()?),
        "org.apache.hadoop.io.BytesWritable" => ObjectWritable::Bytes(input.read_len_bytes()?),
        "array" if depth == MAX_NESTING => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ObjectWritable arrays nested deeper than {MAX_NESTING}"),
            ))
        }
        "array" => {
            // The wire form of `Vec<ObjectWritable>`, count bounded as
            // there.
            let mut items = Vec::new();
            read_elements(input, &mut items, |input| read_nested(input, depth + 1))?;
            ObjectWritable::Array(items)
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown ObjectWritable type: {other}"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    fn roundtrip(v: ObjectWritable) {
        let bytes = to_bytes(&v).unwrap();
        let back: ObjectWritable = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(ObjectWritable::Null);
        roundtrip(ObjectWritable::Boolean(true));
        roundtrip(ObjectWritable::Byte(-5));
        roundtrip(ObjectWritable::Int(i32::MIN));
        roundtrip(ObjectWritable::Long(1 << 40));
        roundtrip(ObjectWritable::Float(2.5));
        roundtrip(ObjectWritable::Double(-1e300));
        roundtrip(ObjectWritable::Text("метадата".into()));
        roundtrip(ObjectWritable::Bytes(vec![0, 1, 255]));
    }

    #[test]
    fn nested_arrays_roundtrip() {
        roundtrip(ObjectWritable::Array(vec![
            ObjectWritable::Int(1),
            ObjectWritable::Array(vec![ObjectWritable::Text("deep".into())]),
            ObjectWritable::Null,
        ]));
        roundtrip(ObjectWritable::Array(Vec::new()));
    }

    /// `value` inside `depth` one-element arrays.
    fn nest(depth: usize, value: ObjectWritable) -> ObjectWritable {
        (0..depth).fold(value, |inner, _| ObjectWritable::Array(vec![inner]))
    }

    #[test]
    fn nesting_is_bounded() {
        roundtrip(nest(MAX_NESTING, ObjectWritable::Int(1)));
        let deeper = to_bytes(&nest(MAX_NESTING + 1, ObjectWritable::Null)).unwrap();
        let err = from_bytes::<ObjectWritable>(&deeper).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_hundred_thousand_levels_are_refused_not_a_stack_overflow() {
        // Seven bytes a level, written by hand: the encoder recurses too.
        let level = {
            let mut level: Vec<u8> = Vec::new();
            crate::io::DataOutput::write_string(&mut level, "array").unwrap();
            crate::io::DataOutput::write_vint(&mut level, 1).unwrap();
            level
        };
        assert_eq!(level.len(), 7);
        let bytes = level.repeat(100_000);
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || from_bytes::<ObjectWritable>(&bytes).map(|_| ()))
            .unwrap()
            .join()
            .expect("the decoding thread survived");
        assert_eq!(decoded.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn type_name_travels_on_the_wire() {
        // The class-name preamble is visible in the frame, like Hadoop's.
        let bytes = to_bytes(&ObjectWritable::Text("x".into())).unwrap();
        let frame = String::from_utf8_lossy(&bytes);
        assert!(frame.contains("org.apache.hadoop.io.Text"));
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut buf: Vec<u8> = Vec::new();
        crate::io::DataOutput::write_string(&mut buf, "com.evil.Gadget").unwrap();
        assert!(from_bytes::<ObjectWritable>(&buf).is_err());
    }

    #[test]
    fn array_length_reserves_on_evidence_not_on_the_announced_length() {
        use crate::io::DataOutput;
        // An array of i32::MAX elements, one of them sent.
        let mut buf: Vec<u8> = Vec::new();
        buf.write_string("array").unwrap();
        buf.write_vint(i32::MAX).unwrap();
        ObjectWritable::Int(7).write(&mut buf).unwrap();
        let err = from_bytes::<ObjectWritable>(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        buf.truncate(6);
        buf.write_vint(-1).unwrap();
        let err = from_bytes::<ObjectWritable>(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
