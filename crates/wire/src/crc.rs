//! CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
//!
//! HDFS checksums every 512-byte chunk of block data with CRC-32 and
//! verifies on both the write pipeline and the read path; the mini-HDFS
//! data-transfer protocol does the same per wire chunk.

/// Generate the reflected CRC-32 lookup table at compile time.
const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC-32 of `data` (IEEE, as produced by zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Incremental CRC-32: extend `crc` (a previous [`crc32`] result) with
/// more data.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// `mat · vec` over GF(2): bit `i` of `vec` selects row `i` of `mat`.
fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut row = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[row];
        }
        vec >>= 1;
        row += 1;
    }
    sum
}

fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
    std::array::from_fn(|row| gf2_times(mat, mat[row]))
}

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()` alone
/// (zlib's `crc32_combine`): appending `len_b` zero bytes to `a` is a
/// linear map of its CRC register over GF(2), applied here by repeated
/// squaring of the one-zero-bit operator, so the cost is `O(log len_b)`
/// and no data byte is read. A store that has verified each packet's CRC
/// gets its block CRC this way without going over the block again.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    if len_b == 0 {
        return crc_a;
    }
    // One zero *bit*: the polynomial in row 0, a shift in the others.
    let mut op: [u32; 32] = std::array::from_fn(|row| match row {
        0 => 0xEDB8_8320,
        _ => 1 << (row - 1),
    });
    // Two bits, four bits; each round below squares once more, so the
    // first round applies one zero *byte*, the next two, then four, …
    op = gf2_square(&gf2_square(&op));
    let (mut crc, mut len) = (crc_a, len_b);
    while len != 0 {
        op = gf2_square(&op);
        if len & 1 != 0 {
            crc = gf2_times(&op, crc);
        }
        len >>= 1;
    }
    crc ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"split into several pieces for incremental hashing";
        let whole = crc32(data);
        let mut crc = crc32(&data[..10]);
        crc = crc32_extend(crc, &data[10..25]);
        crc = crc32_extend(crc, &data[25..]);
        assert_eq!(crc, whole);
    }

    #[test]
    fn combine_matches_one_shot_on_known_vectors() {
        let (a, b) = (&b"123456789"[..], &b"The quick brown fox"[..]);
        let whole = crc32(&[a, b].concat());
        assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), whole);
        assert_eq!(crc32_combine(crc32(a), crc32(b""), 0), crc32(a));
        assert_eq!(crc32_combine(crc32(b""), crc32(b), b.len()), crc32(b));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 1024];
        let clean = crc32(&data);
        for position in [0usize, 511, 512, 1023] {
            data[position] ^= 0x01;
            assert_ne!(crc32(&data), clean, "flip at {position} undetected");
            data[position] ^= 0x01;
        }
        assert_eq!(crc32(&data), clean);
    }
}
