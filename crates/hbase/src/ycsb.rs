//! A YCSB-style workload driver (Cooper et al., SoCC'10).
//!
//! Implements the pieces the paper's Figure 8 uses: a load phase that
//! inserts `record_count` rows of `value_size` bytes, and a run phase of
//! `operation_count` operations with a configurable get/put mix, keys
//! chosen uniformly or by the standard YCSB zipfian generator.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use rpcoib::RpcResult;

use crate::client::HBaseClient;

/// Key chooser distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    Uniform,
    /// Zipfian with the YCSB-standard constant 0.99.
    Zipfian,
}

/// Workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    pub record_count: usize,
    pub operation_count: usize,
    /// Fraction of reads in the run phase (1.0 = 100% Get, 0.0 = 100% Put).
    pub read_proportion: f64,
    /// Fraction of scans (YCSB workload E style); the remainder after
    /// reads and scans is Puts.
    pub scan_proportion: f64,
    /// Rows returned per scan.
    pub scan_length: u32,
    pub value_size: usize,
    pub distribution: KeyDistribution,
    pub seed: u64,
}

impl Workload {
    /// 100% Get over `records` rows (Figure 8(a)).
    pub fn get_only(records: usize, ops: usize) -> Workload {
        Workload {
            record_count: records,
            operation_count: ops,
            read_proportion: 1.0,
            scan_proportion: 0.0,
            scan_length: 10,
            value_size: 1024,
            distribution: KeyDistribution::Zipfian,
            seed: 42,
        }
    }

    /// YCSB workload E shape: 95% short scans, 5% puts.
    pub fn scan_heavy(records: usize, ops: usize) -> Workload {
        Workload {
            read_proportion: 0.0,
            scan_proportion: 0.95,
            ..Workload::get_only(records, ops)
        }
    }

    /// 100% Put (Figure 8(b)).
    pub fn put_only(records: usize, ops: usize) -> Workload {
        Workload {
            read_proportion: 0.0,
            ..Workload::get_only(records, ops)
        }
    }

    /// 50% Get / 50% Put (Figure 8(c)).
    pub fn mixed(records: usize, ops: usize) -> Workload {
        Workload {
            read_proportion: 0.5,
            ..Workload::get_only(records, ops)
        }
    }
}

/// Result of a run phase.
#[derive(Debug, Clone)]
pub struct Report {
    pub operations: usize,
    pub gets: usize,
    pub puts: usize,
    pub scans: usize,
    pub elapsed: Duration,
    /// Sorted per-op latencies (for percentile queries).
    latencies: Vec<Duration>,
}

impl Report {
    /// Throughput in thousands of operations per second (the Figure 8
    /// y-axis unit).
    pub fn kops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64() / 1e3
    }

    /// Latency at percentile `p` (0.0..=1.0).
    pub fn latency_at(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[idx]
    }
}

/// The YCSB key for a record id.
pub fn key_of(id: usize) -> Vec<u8> {
    format!("user{id:012}").into_bytes()
}

/// Zipfian id generator (Gray et al. rejection-free method, as in YCSB).
pub struct Zipfian {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: usize) -> Zipfian {
        let theta = 0.99;
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: usize, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw an id in `0..n`, skewed toward small ids.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let id = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        id.min(self.n - 1)
    }
}

/// Load phase: insert `record_count` rows.
pub fn load(client: &HBaseClient, workload: &Workload) -> RpcResult<()> {
    let mut rng = StdRng::seed_from_u64(workload.seed);
    let mut value = vec![0u8; workload.value_size];
    for id in 0..workload.record_count {
        rng.fill_bytes(&mut value);
        client.put(&key_of(id), &value)?;
    }
    Ok(())
}

/// Run phase: execute `operation_count` operations per the mix.
pub fn run(client: &HBaseClient, workload: &Workload) -> RpcResult<Report> {
    let mut rng = StdRng::seed_from_u64(workload.seed.wrapping_add(1));
    let zipf = Zipfian::new(workload.record_count);
    let mut value = vec![0u8; workload.value_size];
    let mut latencies = Vec::with_capacity(workload.operation_count);
    let mut gets = 0;
    let mut puts = 0;
    let mut scans = 0;
    let clock = client.clock();
    let start = clock.now_ns();
    for _ in 0..workload.operation_count {
        let id = match workload.distribution {
            KeyDistribution::Uniform => rng.gen_range(0..workload.record_count),
            KeyDistribution::Zipfian => zipf.sample(&mut rng),
        };
        let key = key_of(id);
        let op_start = clock.now_ns();
        let dice: f64 = rng.gen();
        if dice < workload.read_proportion {
            let _row = client.get(&key)?;
            gets += 1;
        } else if dice < workload.read_proportion + workload.scan_proportion {
            let _rows = client.scan(&key, workload.scan_length)?;
            scans += 1;
        } else {
            rng.fill_bytes(&mut value);
            client.put(&key, &value)?;
            puts += 1;
        }
        latencies.push(Duration::from_nanos(clock.elapsed_ns(op_start)));
    }
    let elapsed = Duration::from_nanos(clock.elapsed_ns(start));
    latencies.sort_unstable();
    Ok(Report {
        operations: gets + puts + scans,
        gets,
        puts,
        scans,
        elapsed,
        latencies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let mut low = 0;
        for _ in 0..10_000 {
            let id = z.sample(&mut rng);
            assert!(id < 1000);
            if id < 100 {
                low += 1;
            }
        }
        // With theta=0.99 the lowest 10% of ids should absorb well over
        // half the draws.
        assert!(
            low > 5_000,
            "zipfian not skewed: {low}/10000 in lowest decile"
        );
    }

    #[test]
    fn keys_are_fixed_width_and_distinct() {
        assert_eq!(key_of(0).len(), key_of(999_999).len());
        assert_ne!(key_of(1), key_of(2));
    }

    #[test]
    fn workload_presets_match_figure8() {
        assert_eq!(Workload::get_only(100, 10).read_proportion, 1.0);
        assert_eq!(Workload::put_only(100, 10).read_proportion, 0.0);
        assert_eq!(Workload::mixed(100, 10).read_proportion, 0.5);
        assert_eq!(
            Workload::get_only(100, 10).value_size,
            1024,
            "1 KB records per the paper"
        );
    }

    #[test]
    fn report_percentiles() {
        let report = Report {
            operations: 3,
            gets: 3,
            puts: 0,
            scans: 0,
            elapsed: Duration::from_secs(1),
            latencies: vec![
                Duration::from_micros(10),
                Duration::from_micros(20),
                Duration::from_micros(30),
            ],
        };
        assert_eq!(report.latency_at(0.0), Duration::from_micros(10));
        assert_eq!(report.latency_at(0.5), Duration::from_micros(20));
        assert_eq!(report.latency_at(1.0), Duration::from_micros(30));
        assert!((report.kops_per_sec() - 0.003).abs() < 1e-9);
    }
}
