//! Set-up shared by the region-server lifecycle tests.

use std::time::{Duration, Instant};

use mini_hbase::types::region_of;
use mini_hbase::ycsb::key_of;
use mini_hbase::{HBaseConfig, HRegionServer};

/// A 16 KiB memstore and an 8 KiB WAL roll: flushes and rolls every few
/// puts of 1 KiB.
pub fn small() -> HBaseConfig {
    let mut cfg = HBaseConfig::socket();
    cfg.memstore_flush_bytes = 16 * 1024;
    cfg.wal_roll_bytes = 8 * 1024;
    cfg.hdfs.block_size = 128 * 1024;
    cfg.hdfs.heartbeat = Duration::from_millis(50);
    cfg
}

/// Row keys that hash to `bucket`, in `key_of` order.
pub fn keys_in(bucket: u32, n_regions: u32) -> impl Iterator<Item = Vec<u8>> {
    (0..)
        .map(key_of)
        .filter(move |key| region_of(key, n_regions) == bucket)
}

/// A bucket `rs` hosts, once its heartbeat has brought it the master's
/// first assignment.
pub fn a_bucket_of(rs: &HRegionServer) -> u32 {
    let started = Instant::now();
    loop {
        if let Some(bucket) = rs.hosted_buckets().first() {
            return *bucket;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "rs{} hosts nothing",
            rs.id()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
