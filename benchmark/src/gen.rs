//! Seeded input generation. Everything the program under test receives is
//! made here, before timing, from `--seed` alone: the same seed gives the
//! same payload bytes and the same operation sequence on any machine.

/// SplitMix64: tiny, seedable, and good enough to fill payloads and draw
/// keys. The benchmark owns its generator so that the inputs cannot shift
/// under it when a dependency changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so the callers'
    /// streams are independent and adding a stream disturbs no other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// `count` random payloads of `len` bytes each.
pub fn payloads(rng: &mut Rng, count: usize, len: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf);
            buf
        })
        .collect()
}

/// Zipfian ranks over `[0, n)` with YCSB's skew (0.99), by inversion of the
/// exact cumulative distribution: rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipfian {
    cdf: Vec<f64>,
}

impl Zipfian {
    pub fn new(n: usize) -> Zipfian {
        assert!(n > 0, "zipfian over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(0.99);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipfian { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One key-value operation of the `hbase_mix` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    pub put: bool,
    /// Index into the caller's own key range.
    pub key: u32,
}

/// `count` operations over `keys` keys: half gets, half puts by a fair
/// coin, Zipfian keys. The hot ranks are scattered over the range by a
/// fixed odd multiplier so they do not all land in one region.
pub fn kv_ops(rng: &mut Rng, count: usize, keys: usize) -> Vec<KvOp> {
    let zipf = Zipfian::new(keys);
    (0..count)
        .map(|_| {
            let rank = zipf.sample(rng) as u64;
            KvOp {
                put: rng.next_u64() & 1 == 1,
                key: (rank.wrapping_mul(2_654_435_761) % keys as u64) as u32,
            }
        })
        .collect()
}

/// FNV-1a over the operation sequence: the fingerprint the determinism
/// test compares.
#[cfg(test)]
pub fn ops_hash(ops: &[KvOp]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in ops {
        for b in [op.put as u8].into_iter().chain(op.key.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let ops = |seed| kv_ops(&mut Rng::new(seed, 1), 5_000, 2_000);
        assert_eq!(ops_hash(&ops(42)), ops_hash(&ops(42)));
        assert_ne!(ops_hash(&ops(42)), ops_hash(&ops(43)));
        let bytes = |seed, stream| payloads(&mut Rng::new(seed, stream), 3, 100);
        assert_eq!(bytes(7, 0), bytes(7, 0));
        assert_ne!(bytes(7, 0), bytes(7, 1), "streams are independent");
        assert_ne!(bytes(7, 0), bytes(8, 0));
    }

    #[test]
    fn mix_is_half_puts_and_keys_are_skewed_but_in_range() {
        let ops = kv_ops(&mut Rng::new(42, 0), 20_000, 2_000);
        let puts = ops.iter().filter(|o| o.put).count();
        assert!((9_000..11_000).contains(&puts), "{puts} puts of 20000");
        assert!(ops.iter().all(|o| (o.key as usize) < 2_000));
        let mut hits = vec![0u32; 2_000];
        for op in &ops {
            hits[op.key as usize] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let hot: u32 = hits[..20].iter().sum();
        assert!(hot > 4_000, "hottest 1% of keys drew only {hot} of 20000");
    }

    #[test]
    fn fill_covers_ragged_tails() {
        let mut buf = [0u8; 13];
        Rng::new(1, 1).fill(&mut buf);
        assert!(buf[8..].iter().any(|b| *b != 0));
    }
}
