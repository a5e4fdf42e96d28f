//! `DataOutput` / `DataInput`: Java-style primitive encodings (big endian)
//! plus Hadoop's vint and length-prefixed UTF-8 strings.
//!
//! Both traits are blanket-implemented for every `std::io::Write` /
//! `std::io::Read`, so the same `Writable` code serializes into a plain
//! `Vec<u8>`, the Algorithm-1 [`crate::DataOutputBuffer`], a socket stream,
//! or the RPCoIB `RdmaOutputStream` — exactly the interface-compatibility
//! trick the paper uses to slide RDMA streams under unmodified RPC code.
//!
//! A blanket impl admits no override, so a reader that can do better than
//! its provided methods is not a `Read`: it implements `DataInput` itself.
//! The RPC engine's reader over registered memory does, to copy a
//! length-prefixed buffer once, where it landed, into a buffer it may
//! have recycled ([`DataInput::read_len_bytes`]).

use std::io::{self, Read, Write};

use crate::varint;

/// Java `DataOutput` + Hadoop `WritableUtils` write-side operations.
pub trait DataOutput {
    /// Write raw bytes.
    fn write_bytes(&mut self, buf: &[u8]) -> io::Result<()>;

    fn write_u8(&mut self, v: u8) -> io::Result<()> {
        self.write_bytes(&[v])
    }

    fn write_i8(&mut self, v: i8) -> io::Result<()> {
        self.write_u8(v as u8)
    }

    fn write_bool(&mut self, v: bool) -> io::Result<()> {
        self.write_u8(v as u8)
    }

    fn write_i16(&mut self, v: i16) -> io::Result<()> {
        self.write_bytes(&v.to_be_bytes())
    }

    fn write_u16(&mut self, v: u16) -> io::Result<()> {
        self.write_bytes(&v.to_be_bytes())
    }

    fn write_i32(&mut self, v: i32) -> io::Result<()> {
        self.write_bytes(&v.to_be_bytes())
    }

    fn write_i64(&mut self, v: i64) -> io::Result<()> {
        self.write_bytes(&v.to_be_bytes())
    }

    fn write_u64(&mut self, v: u64) -> io::Result<()> {
        self.write_bytes(&v.to_be_bytes())
    }

    fn write_f32(&mut self, v: f32) -> io::Result<()> {
        self.write_bytes(&v.to_bits().to_be_bytes())
    }

    fn write_f64(&mut self, v: f64) -> io::Result<()> {
        self.write_bytes(&v.to_bits().to_be_bytes())
    }

    /// Hadoop `WritableUtils.writeVInt`.
    fn write_vint(&mut self, v: i32) -> io::Result<()> {
        let mut tmp = [0u8; 5];
        let mut cursor = &mut tmp[..];
        varint::write_vint(&mut cursor, v)?;
        let n = 5 - cursor.len();
        self.write_bytes(&tmp[..n])
    }

    /// Hadoop `WritableUtils.writeVLong`.
    fn write_vlong(&mut self, v: i64) -> io::Result<()> {
        let mut tmp = [0u8; 9];
        let mut cursor = &mut tmp[..];
        varint::write_vlong(&mut cursor, v)?;
        let n = 9 - cursor.len();
        self.write_bytes(&tmp[..n])
    }

    /// Hadoop `Text::writeString`: vint byte-length + UTF-8 bytes.
    fn write_string(&mut self, s: &str) -> io::Result<()> {
        self.write_vint(s.len() as i32)?;
        self.write_bytes(s.as_bytes())
    }

    /// `BytesWritable`-style buffer: 4-byte big-endian length + bytes.
    fn write_len_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.write_i32(buf.len() as i32)?;
        self.write_bytes(buf)
    }
}

impl<W: Write + ?Sized> DataOutput for W {
    fn write_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.write_all(buf)
    }
}

/// What a reader allocates on an announced length alone — a byte buffer,
/// a string, a collection's elements: every length this system sends (a
/// 64 KiB packet, the 256 KiB bulk echo) fits, so a well-formed read is
/// still one exact allocation.
pub const LEN_BYTES_ON_TRUST: usize = 1024 * 1024;

/// Read `len` bytes a peer announced. The length is the peer's word until
/// the bytes show up: at most [`LEN_BYTES_ON_TRUST`] are allocated on it,
/// and past that the buffer grows by no more than has already arrived (a
/// 9-byte frame announcing 2 GiB costs one such buffer and an
/// `UnexpectedEof`, not 2 GiB zeroed).
fn read_announced<R: DataInput + ?Sized>(input: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len.min(LEN_BYTES_ON_TRUST)];
    input.read_bytes(&mut buf)?;
    while buf.len() < len {
        let at = buf.len();
        buf.resize(at + (len - at).min(at), 0);
        input.read_bytes(&mut buf[at..])?;
    }
    Ok(buf)
}

/// Java `DataInput` + Hadoop `WritableUtils` read-side operations.
pub trait DataInput {
    /// Fill `buf` completely or fail.
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<()>;

    fn read_u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.read_bytes(&mut b)?;
        Ok(b[0])
    }

    fn read_i8(&mut self) -> io::Result<i8> {
        Ok(self.read_u8()? as i8)
    }

    fn read_bool(&mut self) -> io::Result<bool> {
        Ok(self.read_u8()? != 0)
    }

    fn read_i16(&mut self) -> io::Result<i16> {
        let mut b = [0u8; 2];
        self.read_bytes(&mut b)?;
        Ok(i16::from_be_bytes(b))
    }

    fn read_u16(&mut self) -> io::Result<u16> {
        let mut b = [0u8; 2];
        self.read_bytes(&mut b)?;
        Ok(u16::from_be_bytes(b))
    }

    fn read_i32(&mut self) -> io::Result<i32> {
        let mut b = [0u8; 4];
        self.read_bytes(&mut b)?;
        Ok(i32::from_be_bytes(b))
    }

    fn read_i64(&mut self) -> io::Result<i64> {
        let mut b = [0u8; 8];
        self.read_bytes(&mut b)?;
        Ok(i64::from_be_bytes(b))
    }

    fn read_u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.read_bytes(&mut b)?;
        Ok(u64::from_be_bytes(b))
    }

    fn read_f32(&mut self) -> io::Result<f32> {
        let mut b = [0u8; 4];
        self.read_bytes(&mut b)?;
        Ok(f32::from_bits(u32::from_be_bytes(b)))
    }

    fn read_f64(&mut self) -> io::Result<f64> {
        let mut b = [0u8; 8];
        self.read_bytes(&mut b)?;
        Ok(f64::from_bits(u64::from_be_bytes(b)))
    }

    fn read_vint(&mut self) -> io::Result<i32> {
        varint::narrow_vint(self.read_vlong()?)
    }

    fn read_vlong(&mut self) -> io::Result<i64> {
        let first = self.read_u8()?;
        let len = varint::decode_vint_size(first);
        if len == 1 {
            return Ok(first as i8 as i64);
        }
        let mut value: i64 = 0;
        for _ in 0..len - 1 {
            value = (value << 8) | self.read_u8()? as i64;
        }
        Ok(if varint::is_negative_vint(first) {
            !value
        } else {
            value
        })
    }

    /// Hadoop `Text::readString`; sized like [`DataInput::read_len_bytes`].
    fn read_string(&mut self) -> io::Result<String> {
        let len = usize::try_from(self.read_vint()?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "negative string length"))?;
        String::from_utf8(read_announced(self, len)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad utf8: {e}")))
    }

    /// Counterpart of [`DataOutput::write_len_bytes`]: allocates on
    /// evidence, not on the announced length ([`LEN_BYTES_ON_TRUST`]).
    fn read_len_bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = usize::try_from(self.read_i32()?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "negative buffer length"))?;
        read_announced(self, len)
    }
}

impl<R: Read + ?Sized> DataInput for R {
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.read_exact(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_big_endian() {
        let mut out: Vec<u8> = Vec::new();
        out.write_i32(0x01020304).unwrap();
        assert_eq!(out, [1, 2, 3, 4], "Java big-endian layout");
        out.write_i64(-2).unwrap();
        out.write_bool(true).unwrap();
        out.write_f64(std::f64::consts::PI).unwrap();
        out.write_u16(0xbeef).unwrap();
        out.write_i8(-5).unwrap();

        let mut input = out.as_slice();
        assert_eq!(input.read_i32().unwrap(), 0x01020304);
        assert_eq!(input.read_i64().unwrap(), -2);
        assert!(input.read_bool().unwrap());
        assert_eq!(input.read_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(input.read_u16().unwrap(), 0xbeef);
        assert_eq!(input.read_i8().unwrap(), -5);
        assert!(input.is_empty());
    }

    #[test]
    fn strings_are_vint_prefixed_utf8() {
        let mut out: Vec<u8> = Vec::new();
        out.write_string("héllo").unwrap();
        // "héllo" is 6 UTF-8 bytes; 6 encodes as a single vint byte.
        assert_eq!(out[0], 6);
        assert_eq!(&out[1..], "héllo".as_bytes());
        let mut input = out.as_slice();
        assert_eq!(input.read_string().unwrap(), "héllo");
    }

    #[test]
    fn empty_string_roundtrip() {
        let mut out: Vec<u8> = Vec::new();
        out.write_string("").unwrap();
        assert_eq!(out, [0]);
        assert_eq!(out.as_slice().read_string().unwrap(), "");
    }

    #[test]
    fn len_bytes_roundtrip() {
        let mut out: Vec<u8> = Vec::new();
        out.write_len_bytes(&[9, 8, 7]).unwrap();
        assert_eq!(out, [0, 0, 0, 3, 9, 8, 7]);
        assert_eq!(out.as_slice().read_len_bytes().unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn len_bytes_allocates_on_evidence_not_on_the_announced_length() {
        // Nine bytes announcing i32::MAX: refused for want of bytes.
        let mut hostile: Vec<u8> = Vec::new();
        hostile.write_i32(i32::MAX).unwrap();
        hostile.extend_from_slice(b"short");
        let err = hostile.as_slice().read_len_bytes().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = [0xff, 0xff, 0xff, 0xfe].as_slice().read_len_bytes();
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);

        // A buffer past the trusted size still arrives whole, and one
        // byte short of what it announced still fails.
        let body: Vec<u8> = (0..3 * LEN_BYTES_ON_TRUST + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut out: Vec<u8> = Vec::new();
        out.write_len_bytes(&body).unwrap();
        assert_eq!(out.as_slice().read_len_bytes().unwrap(), body);
        out.pop();
        assert!(out.as_slice().read_len_bytes().is_err());
    }

    #[test]
    fn strings_allocate_on_evidence_not_on_the_announced_length() {
        // Five bytes of vint announcing i32::MAX, then five of body.
        let mut hostile: Vec<u8> = Vec::new();
        hostile.write_vint(i32::MAX).unwrap();
        hostile.extend_from_slice(b"short");
        let err = hostile.as_slice().read_string().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut negative: Vec<u8> = Vec::new();
        negative.write_vint(-2).unwrap();
        let err = negative.as_slice().read_string().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A string past the trusted size still arrives whole.
        let long = "ab".repeat(LEN_BYTES_ON_TRUST);
        let mut out: Vec<u8> = Vec::new();
        out.write_string(&long).unwrap();
        assert_eq!(out.as_slice().read_string().unwrap(), long);
    }

    #[test]
    fn vint_through_the_trait_matches_module() {
        for v in [-1_000_000i64, -113, 0, 127, 128, 1 << 40] {
            let mut a: Vec<u8> = Vec::new();
            a.write_vlong(v).unwrap();
            let mut b = Vec::new();
            crate::varint::write_vlong(&mut b, v).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.as_slice().read_vlong().unwrap(), v);
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let bytes = [2u8, 0xff, 0xfe];
        assert!(bytes.as_slice().read_string().is_err());
    }
}
