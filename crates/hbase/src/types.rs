//! Protocol types for `hbase.MasterProtocol` and
//! `hbase.RegionServerProtocol`.

use std::io;
use std::sync::Arc;

use simnet::{NodeId, SimAddr};
use wire::{DataInput, DataOutput, Writable};

/// One region: a hash bucket served by a region server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionInfo {
    /// Region index in `0..n_regions` (hash bucket id).
    pub region: u32,
    /// Total bucket count.
    pub n_regions: u32,
    /// Operation-plane address of the hosting region server.
    pub rs_node: u32,
    pub rs_port: u16,
}

impl RegionInfo {
    pub fn rs_addr(&self) -> SimAddr {
        SimAddr::new(NodeId(self.rs_node), self.rs_port)
    }
}

impl Writable for RegionInfo {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_vint(self.region as i32)?;
        out.write_vint(self.n_regions as i32)?;
        out.write_i32(self.rs_node as i32)?;
        out.write_u16(self.rs_port)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.region = input.read_vint()? as u32;
        self.n_regions = input.read_vint()? as u32;
        self.rs_node = input.read_i32()? as u32;
        self.rs_port = input.read_u16()?;
        Ok(())
    }
}

/// Route a row key to its region bucket (FNV hash, like the client and
/// the servers must agree on).
pub fn region_of(key: &[u8], n_regions: u32) -> u32 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % n_regions as u64) as u32
}

/// A get's reply: the row's stored value, shared with the memstore or
/// the block cache rather than copied, encoded as `Option<Vec<u8>>` is —
/// serializing it into the response body is its one copy. Sent, never
/// read: the client decodes an `Option<Vec<u8>>`.
#[derive(Debug)]
pub(crate) struct SharedValue(pub(crate) Option<Arc<[u8]>>);

impl Writable for SharedValue {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        match &self.0 {
            Some(value) => {
                out.write_bool(true)?;
                out.write_len_bytes(value)
            }
            None => out.write_bool(false),
        }
    }
    fn read_fields(&mut self, _input: &mut dyn DataInput) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "a shared value is written, not read",
        ))
    }
}

/// A put's reply: `BooleanWritable(true)`'s byte, from a value of no size
/// (boxing it allocates nothing).
#[derive(Debug)]
pub(crate) struct Acked;

impl Writable for Acked {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_bool(true)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        input.read_bool().map(drop)
    }
}

/// A key/value row (scan results).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Row {
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

impl Writable for Row {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_len_bytes(&self.key)?;
        out.write_len_bytes(&self.value)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.key = input.read_len_bytes()?;
        self.value = input.read_len_bytes()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wire::{from_bytes, to_bytes, BooleanWritable, DataOutput, VIntWritable};

    #[test]
    fn types_roundtrip() {
        let r = RegionInfo {
            region: 3,
            n_regions: 16,
            rs_node: 7,
            rs_port: 60020,
        };
        assert_eq!(from_bytes::<RegionInfo>(&to_bytes(&r).unwrap()).unwrap(), r);
        let row = Row {
            key: b"user1".to_vec(),
            value: vec![0u8; 64],
        };
        assert_eq!(from_bytes::<Row>(&to_bytes(&row).unwrap()).unwrap(), row);
    }

    /// The operation plane's borrowed requests and shared replies put the
    /// bytes on the wire that the owned types they replaced did.
    fn assert_encodings_kept(key: &[u8], value: &[u8], limit: u32) {
        // A put's request: `[u32 len][key][u32 len][value]`.
        let mut put = Vec::new();
        put.write_len_bytes(key).unwrap();
        put.write_len_bytes(value).unwrap();
        assert_eq!(to_bytes(&(key, value)).unwrap(), put);
        // A get's and a delete's: the key as a `Vec<u8>`.
        assert_eq!(to_bytes(&key).unwrap(), to_bytes(&key.to_vec()).unwrap());
        // A scan's: `[u32 len][start][vint limit]`.
        let mut scan = Vec::new();
        scan.write_len_bytes(key).unwrap();
        scan.write_vint(limit as i32).unwrap();
        let borrowed = (key, VIntWritable(limit as i32));
        assert_eq!(to_bytes(&borrowed).unwrap(), scan);
        // A get's reply, found or not.
        let shared = SharedValue(Some(Arc::from(value)));
        let owned = Some(value.to_vec());
        assert_eq!(to_bytes(&shared).unwrap(), to_bytes(&owned).unwrap());
        let missing = to_bytes(&Option::<Vec<u8>>::None).unwrap();
        assert_eq!(to_bytes(&SharedValue(None)).unwrap(), missing);
    }

    proptest! {
        #[test]
        fn borrowed_requests_and_shared_replies_keep_their_encodings(
            key in proptest::collection::vec(any::<u8>(), 0..64),
            value in proptest::collection::vec(any::<u8>(), 0..2048),
            limit in any::<u32>(),
        ) {
            assert_encodings_kept(&key, &value, limit);
        }
    }

    #[test]
    fn empty_keys_and_values_keep_their_encodings() {
        for (key, value) in [(&b""[..], &b""[..]), (b"", b"v"), (b"k", b"")] {
            assert_encodings_kept(key, value, 0);
        }
    }

    #[test]
    fn a_put_reply_is_a_true_boolean_writable_of_no_size() {
        assert_eq!(size_of::<Acked>(), 0);
        let bytes = to_bytes(&Acked).unwrap();
        assert_eq!(bytes, to_bytes(&BooleanWritable(true)).unwrap());
        assert_eq!(
            from_bytes::<BooleanWritable>(&bytes).unwrap(),
            BooleanWritable(true)
        );
    }

    #[test]
    fn region_routing_is_deterministic_and_bounded() {
        for n in [1u32, 4, 16] {
            for k in 0..200u32 {
                let key = format!("user{k:010}");
                let r = region_of(key.as_bytes(), n);
                assert!(r < n);
                assert_eq!(r, region_of(key.as_bytes(), n));
            }
        }
    }

    #[test]
    fn region_routing_spreads_keys() {
        let n = 8;
        let mut counts = vec![0u32; n as usize];
        for k in 0..8000u32 {
            counts[region_of(format!("user{k:010}").as_bytes(), n) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 500, "region {i} underloaded: {c}");
        }
    }
}
