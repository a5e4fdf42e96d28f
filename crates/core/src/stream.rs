//! The RDMA-backed, Java-IO-compatible streams of Section III-A/B.
//!
//! [`RdmaOutputStream`] implements `std::io::Write` (hence
//! `wire::DataOutput`), so the unmodified `Writable` serialization code
//! writes **directly into a pooled, pre-registered memory region** — no
//! intermediate `DataOutputBuffer`, no `BufferedOutputStream` copy, no
//! JVM-heap → native copy. When the serialized object outgrows the buffer
//! the stream re-acquires at double the class (Section III-C) and, on
//! `finish`, reports the final size so the `<protocol, method>` history
//! converges.

use std::io::{self, Write};

use bufpool::{PoolMem, PooledBuf, ShadowPool};
use simnet::MemoryRegion;

use crate::intern::MethodKey;

/// Size of the inline write-combining stage. `Writable` serialization
/// emits many 1–8 byte fields; batching them before touching the (locked)
/// region keeps the per-field cost at memcpy speed — the same reason real
/// HCAs are driven through write-combining mappings.
const STAGE_BYTES: usize = 512;

/// Output stream serializing straight into registered pool memory.
pub struct RdmaOutputStream {
    pool: ShadowPool<MemoryRegion>,
    buf: Option<PooledBuf<MemoryRegion>>,
    pos: usize,
    grows: u64,
    stage: [u8; STAGE_BYTES],
    stage_len: usize,
    key: MethodKey,
}

impl RdmaOutputStream {
    /// Acquire a history-sized buffer for a call of the given kind. The
    /// interned key is a `Copy` handle, so opening a stream allocates
    /// nothing beyond the pooled buffer itself.
    pub fn new(pool: &ShadowPool<MemoryRegion>, key: MethodKey) -> Self {
        let buf = pool.acquire(key.protocol(), key.method());
        RdmaOutputStream {
            pool: pool.clone(),
            buf: Some(buf),
            pos: 0,
            grows: 0,
            stage: [0u8; STAGE_BYTES],
            stage_len: 0,
            key,
        }
    }

    /// Bytes written so far.
    pub fn position(&self) -> usize {
        self.pos + self.stage_len
    }

    /// How many times the buffer had to be re-acquired at a larger class —
    /// the RPCoIB analogue of Algorithm 1's "memory adjustment times"
    /// (zero whenever the size history predicted correctly).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    fn buf(&self) -> &PooledBuf<MemoryRegion> {
        self.buf.as_ref().expect("stream already finished")
    }

    fn buf_mut(&mut self) -> &mut PooledBuf<MemoryRegion> {
        self.buf.as_mut().expect("stream already finished")
    }

    /// Section III-C: "re-get a new buffer from the buffer pool by
    /// doubling buffer space until it is enough".
    fn ensure_capacity(&mut self, needed: usize) {
        while needed > self.buf().capacity() {
            let used = self.pos;
            let old = self.buf.take().expect("stream already finished");
            self.buf = Some(self.pool.grow(old, used));
            self.grows += 1;
        }
    }

    /// Push the staged bytes into the region.
    fn flush_stage(&mut self) {
        if self.stage_len == 0 {
            return;
        }
        self.ensure_capacity(self.pos + self.stage_len);
        let (pos, len) = (self.pos, self.stage_len);
        let stage = self.stage;
        self.buf_mut().mem_mut().put(pos, &stage[..len]);
        self.pos += len;
        self.stage_len = 0;
    }

    /// Finish serialization: record the final size in the pool history and
    /// hand the buffer (plus valid length) to the transport.
    pub fn finish(mut self) -> (PooledBuf<MemoryRegion>, usize, u64) {
        self.flush_stage();
        self.pool
            .record(self.key.protocol(), self.key.method(), self.pos.max(1));
        (
            self.buf.take().expect("stream already finished"),
            self.pos,
            self.grows,
        )
    }
}

impl Write for RdmaOutputStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.len() >= STAGE_BYTES {
            // Bulk write: bypass the stage.
            self.flush_stage();
            self.ensure_capacity(self.pos + data.len());
            let pos = self.pos;
            self.buf_mut().mem_mut().put(pos, data);
            self.pos += data.len();
        } else {
            if self.stage_len + data.len() > STAGE_BYTES {
                self.flush_stage();
            }
            self.stage[self.stage_len..self.stage_len + data.len()].copy_from_slice(data);
            self.stage_len += data.len();
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_stage();
        Ok(())
    }
}

impl std::fmt::Debug for RdmaOutputStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaOutputStream")
            .field("pos", &self.pos)
            .field("capacity", &self.buf.as_ref().map(|b| b.capacity()))
            .field("grows", &self.grows)
            .finish()
    }
}

/// Output stream serializing into a *chain* of pooled registered
/// segments — the scatter/gather producer for the one-sided bulk plane.
///
/// Behaves byte-for-byte like [`RdmaOutputStream`] while the message fits
/// one segment (same history-driven acquire, same doubling growth, same
/// `record` on finish), so eager-path sends are unchanged. Once the
/// current segment reaches `seg_limit` capacity and fills, it is *sealed*
/// into the segment list and a fresh `seg_limit`-class buffer continues
/// the stream. A multi-megabyte frame therefore occupies a handful of
/// recv-buffer-sized pooled segments — all pre-registered, all recycled —
/// instead of one jumbo staging buffer that would have to be allocated,
/// registered and memcpy'd before the RDMA write. The transport writes
/// the sealed segments into the peer's region back-to-back (gather), so
/// no staging copy ever happens.
pub struct RdmaGatherStream {
    pool: ShadowPool<MemoryRegion>,
    /// Sealed full segments, each holding exactly `seg_limit` bytes.
    segs: Vec<PooledBuf<MemoryRegion>>,
    buf: Option<PooledBuf<MemoryRegion>>,
    /// Valid bytes in the open segment (never exceeds `seg_limit`).
    pos: usize,
    /// Total bytes across sealed segments.
    sealed: usize,
    grows: u64,
    seg_limit: usize,
    stage: [u8; STAGE_BYTES],
    stage_len: usize,
    key: MethodKey,
}

impl RdmaGatherStream {
    /// Open a stream that seals segments at `seg_limit` bytes. `segs` is
    /// the (empty) vector sealed segments are pushed into — callers pass
    /// a recycled scratch vector so steady-state sends allocate nothing.
    pub fn new(
        pool: &ShadowPool<MemoryRegion>,
        key: MethodKey,
        seg_limit: usize,
        segs: Vec<PooledBuf<MemoryRegion>>,
    ) -> Self {
        debug_assert!(segs.is_empty());
        // History-driven acquire, capped at the segment class: a method
        // whose history says "2 MB" must start at one segment, not pull a
        // jumbo buffer off the shelf it will immediately outgrow-by-parts.
        let buf = match pool.recorded_class(key.protocol(), key.method()) {
            Some(c) if pool.native().classes().capacity(c) > seg_limit => {
                pool.acquire_size(seg_limit)
            }
            _ => pool.acquire(key.protocol(), key.method()),
        };
        RdmaGatherStream {
            pool: pool.clone(),
            segs,
            buf: Some(buf),
            pos: 0,
            sealed: 0,
            grows: 0,
            seg_limit,
            stage: [0u8; STAGE_BYTES],
            stage_len: 0,
            key,
        }
    }

    /// Bytes written so far.
    pub fn position(&self) -> usize {
        self.sealed + self.pos + self.stage_len
    }

    /// Doubling re-acquires, as in [`RdmaOutputStream::grows`].
    pub fn grows(&self) -> u64 {
        self.grows
    }

    fn buf(&self) -> &PooledBuf<MemoryRegion> {
        self.buf.as_ref().expect("stream already finished")
    }

    fn buf_mut(&mut self) -> &mut PooledBuf<MemoryRegion> {
        self.buf.as_mut().expect("stream already finished")
    }

    /// Append bytes, growing within the open segment up to `seg_limit`
    /// and sealing full segments as needed.
    fn push_bytes(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.pos >= self.seg_limit {
                // Open segment is full: seal it, continue in a fresh one.
                let full = self.buf.take().expect("stream already finished");
                self.segs.push(full);
                self.sealed += self.pos;
                self.pos = 0;
                self.buf = Some(self.pool.acquire_size(self.seg_limit));
            }
            let target = (self.pos + data.len()).min(self.seg_limit);
            while self.buf().capacity() < target {
                let used = self.pos;
                let old = self.buf.take().expect("stream already finished");
                self.buf = Some(self.pool.grow(old, used));
                self.grows += 1;
            }
            let n = data
                .len()
                .min(self.buf().capacity().min(self.seg_limit) - self.pos);
            let pos = self.pos;
            self.buf_mut().mem_mut().put(pos, &data[..n]);
            self.pos += n;
            data = &data[n..];
        }
    }

    fn flush_stage(&mut self) {
        if self.stage_len == 0 {
            return;
        }
        let len = self.stage_len;
        let stage = self.stage;
        self.stage_len = 0;
        self.push_bytes(&stage[..len]);
    }

    /// Finish: record the *total* size in the history and return the
    /// ordered segment chain plus total length and grow count. Every
    /// segment but the last holds exactly `seg_limit` valid bytes; the
    /// last holds the remainder.
    pub fn finish(mut self) -> (Vec<PooledBuf<MemoryRegion>>, usize, u64) {
        self.flush_stage();
        let total = self.sealed + self.pos;
        self.pool
            .record(self.key.protocol(), self.key.method(), total.max(1));
        let mut segs = std::mem::take(&mut self.segs);
        segs.push(self.buf.take().expect("stream already finished"));
        (segs, total, self.grows)
    }
}

impl Write for RdmaGatherStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.len() >= STAGE_BYTES {
            self.flush_stage();
            self.push_bytes(data);
        } else {
            if self.stage_len + data.len() > STAGE_BYTES {
                self.flush_stage();
            }
            self.stage[self.stage_len..self.stage_len + data.len()].copy_from_slice(data);
            self.stage_len += data.len();
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_stage();
        Ok(())
    }
}

impl std::fmt::Debug for RdmaGatherStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaGatherStream")
            .field("sealed_segs", &self.segs.len())
            .field("pos", &self.pos)
            .field("seg_limit", &self.seg_limit)
            .field("grows", &self.grows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufpool::{NativePool, RdmaMemFactory, SizeClasses};
    use simnet::{model, Fabric, RdmaDevice};
    use wire::DataOutput;

    fn rdma_pool() -> ShadowPool<MemoryRegion> {
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        let node = fabric.add_node();
        let dev = RdmaDevice::open(&fabric, node).unwrap();
        let factory = RdmaMemFactory::new(dev);
        ShadowPool::new(NativePool::new(SizeClasses::up_to(1 << 20), move |len| {
            factory.allocate(len)
        }))
    }

    /// The first `len` bytes of `buf`'s registered memory.
    fn read_back(buf: &PooledBuf<MemoryRegion>, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        buf.mem().get(0, &mut bytes);
        bytes
    }

    /// What `write_i32(7)` then `write_string("direct to the HCA")` put
    /// on the wire, through the plain `DataOutput` codec.
    fn written_7_and_string() -> Vec<u8> {
        let mut plain = Vec::new();
        plain.write_i32(7).unwrap();
        plain.write_string("direct to the HCA").unwrap();
        plain
    }

    #[test]
    fn serialize_into_registered_memory() {
        let pool = rdma_pool();
        let mut out = RdmaOutputStream::new(&pool, crate::intern::method_key("p", "m"));
        out.write_i32(7).unwrap();
        out.write_string("direct to the HCA").unwrap();
        let (buf, len, grows) = out.finish();
        assert_eq!(grows, 0, "fits in the smallest class");
        assert_eq!(read_back(&buf, len), written_7_and_string());
    }

    #[test]
    fn growth_is_doubling_and_recorded() {
        let pool = rdma_pool();
        let mut out = RdmaOutputStream::new(&pool, crate::intern::method_key("p", "big"));
        let payload = vec![0x5au8; 1000];
        out.write_all(&payload).unwrap();
        // 128 -> 256 -> 512 -> 1024: three grows.
        assert_eq!(out.grows(), 3);
        let (buf, len, _) = out.finish();
        assert_eq!(len, 1000);
        assert_eq!(buf.capacity(), 1024);
        drop(buf);

        // Next stream of the same kind starts at the learned class.
        let out2 = RdmaOutputStream::new(&pool, crate::intern::method_key("p", "big"));
        assert_eq!(out2.buf().capacity(), 1024);
    }

    #[test]
    fn history_predicts_after_first_call() {
        let pool = rdma_pool();
        for round in 0..3 {
            let mut out =
                RdmaOutputStream::new(&pool, crate::intern::method_key("proto", "statusUpdate"));
            out.write_all(&[0u8; 700]).unwrap();
            let expected_grows = if round == 0 { 3 } else { 0 };
            assert_eq!(out.grows(), expected_grows, "round {round}");
            let (_buf, len, _) = out.finish();
            assert_eq!(len, 700);
        }
    }

    #[test]
    fn gather_stream_is_single_segment_for_small_messages() {
        let pool = rdma_pool();
        let key = crate::intern::method_key("p", "small");
        let mut out = RdmaGatherStream::new(&pool, key, 4096, Vec::new());
        out.write_i32(7).unwrap();
        out.write_string("direct to the HCA").unwrap();
        let (segs, len, grows) = out.finish();
        assert_eq!(segs.len(), 1);
        assert_eq!(grows, 0);
        assert_eq!(read_back(&segs[0], len), written_7_and_string());
    }

    #[test]
    fn gather_stream_seals_full_segments_in_order() {
        let pool = rdma_pool();
        let key = crate::intern::method_key("p", "bulk");
        let mut out = RdmaGatherStream::new(&pool, key, 1024, Vec::new());
        let payload: Vec<u8> = (0..2500u32).map(|i| (i % 251) as u8).collect();
        out.write_all(&payload).unwrap();
        let (segs, len, _) = out.finish();
        assert_eq!(len, 2500);
        assert_eq!(segs.len(), 3, "two sealed 1024B segments plus the tail");
        let mut reassembled = Vec::new();
        let mut remaining = len;
        for seg in &segs {
            let take = remaining.min(1024);
            let mut chunk = vec![0u8; take];
            seg.mem().get(0, &mut chunk);
            reassembled.extend_from_slice(&chunk);
            remaining -= take;
        }
        assert_eq!(reassembled, payload);
    }

    #[test]
    fn gather_stream_caps_history_acquire_at_the_segment_class() {
        let pool = rdma_pool();
        let key = crate::intern::method_key("p", "huge");
        // Teach the history that this method serializes to ~300KB.
        pool.record(key.protocol(), key.method(), 300 * 1024);
        let out = RdmaGatherStream::new(&pool, key, 4096, Vec::new());
        assert!(
            out.buf().capacity() <= 4096,
            "history must not pull a jumbo buffer into the gather path"
        );
    }
}
