//! Hadoop's variable-length integer codec, bit-for-bit compatible with
//! `org.apache.hadoop.io.WritableUtils.writeVLong` / `readVLong`.
//!
//! Encoding rules (from the Hadoop source):
//!
//! * values in `[-112, 127]` are a single byte;
//! * otherwise the first byte encodes sign and byte-count:
//!   `-113..-120` for positive values of 1..8 payload bytes,
//!   `-121..-128` for (one's-complemented) negative values of 1..8 bytes;
//! * payload bytes follow big-endian, most significant first.

use std::io::{self, Read, Write};

/// Serialized size in bytes of `writeVLong(value)`.
pub fn vlong_size(value: i64) -> usize {
    if (-112..=127).contains(&value) {
        return 1;
    }
    let v = if value < 0 { !value } else { value };
    let data_bytes = (64 - v.leading_zeros() as usize).div_ceil(8).max(1);
    1 + data_bytes
}

/// Write a `long` in Hadoop vint format.
pub fn write_vlong<W: Write + ?Sized>(out: &mut W, value: i64) -> io::Result<()> {
    if (-112..=127).contains(&value) {
        return out.write_all(&[value as u8]);
    }
    let mut len: i32 = if value < 0 { -120 } else { -112 };
    let v = if value < 0 { !value } else { value };
    let mut tmp = v;
    while tmp != 0 {
        tmp >>= 8;
        len -= 1;
    }
    let mut buf = [0u8; 9];
    buf[0] = len as u8;
    let n = if len < -120 {
        (-(len + 120)) as usize
    } else {
        (-(len + 112)) as usize
    };
    for idx in (1..=n).rev() {
        let shift = (idx - 1) * 8;
        buf[n - idx + 1] = ((v >> shift) & 0xff) as u8;
    }
    out.write_all(&buf[..n + 1])
}

/// Write an `int` in Hadoop vint format (same wire format as vlong).
pub fn write_vint<W: Write + ?Sized>(out: &mut W, value: i32) -> io::Result<()> {
    write_vlong(out, value as i64)
}

/// Number of total encoded bytes implied by a leading byte.
pub fn decode_vint_size(first: u8) -> usize {
    let first = first as i8;
    if first >= -112 {
        1
    } else if first < -120 {
        (-119 - first as i32) as usize
    } else {
        (-111 - first as i32) as usize
    }
}

/// Whether a leading byte marks a one's-complemented negative value.
pub fn is_negative_vint(first: u8) -> bool {
    (first as i8) < -120
}

/// Read a `long` in Hadoop vint format.
pub fn read_vlong<R: Read + ?Sized>(input: &mut R) -> io::Result<i64> {
    let mut first = [0u8; 1];
    input.read_exact(&mut first)?;
    let len = decode_vint_size(first[0]);
    if len == 1 {
        return Ok(first[0] as i8 as i64);
    }
    let mut value: i64 = 0;
    let mut byte = [0u8; 1];
    for _ in 0..len - 1 {
        input.read_exact(&mut byte)?;
        value = (value << 8) | byte[0] as i64;
    }
    Ok(if is_negative_vint(first[0]) {
        !value
    } else {
        value
    })
}

/// Read an `int` in Hadoop vint format, failing on overflow.
pub fn read_vint<R: Read + ?Sized>(input: &mut R) -> io::Result<i32> {
    narrow_vint(read_vlong(input)?)
}

/// A decoded vlong as an `int`. A value out of range is refused with the
/// bare `InvalidData` kind: a refusal of peer bytes allocates nothing.
pub(crate) fn narrow_vint(v: i64) -> io::Result<i32> {
    i32::try_from(v).map_err(|_| io::ErrorKind::InvalidData.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: i64) -> Vec<u8> {
        let mut out = Vec::new();
        write_vlong(&mut out, v).unwrap();
        out
    }

    #[test]
    fn single_byte_range() {
        for v in -112..=127i64 {
            let bytes = enc(v);
            assert_eq!(bytes, vec![v as u8], "value {v}");
            assert_eq!(vlong_size(v), 1);
            assert_eq!(read_vlong(&mut bytes.as_slice()).unwrap(), v);
        }
    }

    /// Known-answer vectors computed from the Hadoop reference algorithm.
    #[test]
    fn known_vectors() {
        assert_eq!(enc(128), vec![0x8f, 0x80]); // -113, 0x80
        assert_eq!(enc(255), vec![0x8f, 0xff]);
        assert_eq!(enc(256), vec![0x8e, 0x01, 0x00]); // -114, 2 bytes
        assert_eq!(enc(-113), vec![0x87, 0x70]); // -121, ~(-113)=112=0x70
        assert_eq!(enc(-256), vec![0x87, 0xff]); // ~(-256)=255 -> one payload byte
    }

    #[test]
    fn negative_encoding_uses_ones_complement() {
        // ~(-129) = 128 -> one payload byte 0x80, prefix -121 = 0x87? No:
        // len starts -120; 128 needs 1 byte -> len=-121 = 0x87.
        assert_eq!(enc(-129), vec![0x87, 0x80]);
        // ~(-257) = 256 -> two payload bytes 0x01 0x00, prefix -122 = 0x86.
        assert_eq!(enc(-257), vec![0x86, 0x01, 0x00]);
    }

    #[test]
    fn extremes_roundtrip() {
        for v in [
            i64::MIN,
            i64::MIN + 1,
            -1_000_000_007,
            -32768,
            -129,
            -128,
            -113,
            -112,
            0,
            127,
            128,
            300,
            65535,
            1 << 31,
            i64::MAX - 1,
            i64::MAX,
        ] {
            let bytes = enc(v);
            assert_eq!(bytes.len(), vlong_size(v), "size mismatch for {v}");
            assert_eq!(
                read_vlong(&mut bytes.as_slice()).unwrap(),
                v,
                "roundtrip {v}"
            );
        }
    }

    #[test]
    fn vint_range_check() {
        let mut out = Vec::new();
        write_vlong(&mut out, i64::from(i32::MAX) + 1).unwrap();
        assert!(read_vint(&mut out.as_slice()).is_err());
        let mut out = Vec::new();
        write_vint(&mut out, i32::MIN).unwrap();
        assert_eq!(read_vint(&mut out.as_slice()).unwrap(), i32::MIN);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = enc(1 << 40);
        for cut in 1..bytes.len() {
            assert!(read_vlong(&mut &bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
