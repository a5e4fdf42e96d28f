//! A WAL segment lives until its edits are flushed. Every edit carries its
//! region's sequence number; a segment is deleted once every edit in it
//! is in a written store file, and HDFS frees its replicas; recovery
//! takes each row's newest edit, from store files and the WAL alike.

use std::time::{Duration, Instant};

use mini_hbase::types::region_of;
use mini_hbase::ycsb::key_of;
use mini_hbase::{HBaseClient, HBaseConfig, HRegionServer, MiniHbase};
use mini_hdfs::DfsClient;
use simnet::model;

fn small() -> HBaseConfig {
    let mut cfg = HBaseConfig::socket();
    cfg.memstore_flush_bytes = 16 * 1024;
    cfg.wal_roll_bytes = 8 * 1024;
    cfg.hdfs.block_size = 128 * 1024;
    cfg.hdfs.heartbeat = Duration::from_millis(50);
    cfg
}

/// Row keys that hash to `bucket`, in `key_of` order.
fn keys_in(bucket: u32, n_regions: u32) -> impl Iterator<Item = Vec<u8>> {
    (0..)
        .map(key_of)
        .filter(move |key| region_of(key, n_regions) == bucket)
}

fn wal_segments_of(dfs: &DfsClient, rs: &HRegionServer) -> usize {
    let prefix = format!("/hbase/wal/rs{}-", rs.id());
    let wal = dfs.list("/hbase/wal").unwrap();
    wal.iter().filter(|f| f.path.starts_with(&prefix)).count()
}

/// The bytes of every file under `/hbase`, one replica each.
fn live_bytes(dfs: &DfsClient, n_regions: u32) -> u64 {
    let dirs = (0..n_regions).map(|b| format!("/hbase/region{b}"));
    std::iter::once("/hbase/wal".to_string())
        .chain(dirs)
        .flat_map(|dir| dfs.list(&dir).unwrap())
        .map(|f| f.len)
        .sum()
}

#[test]
fn live_segments_and_stored_bytes_stay_bounded() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let dfs = hbase.dfs().client().unwrap();
    let n_regions = 3 * cfg.regions_per_server as u32;
    // The memstore's edits span this many segments, plus the open one and
    // the one its oldest edit started in.
    let bound = cfg.memstore_flush_bytes.div_ceil(cfg.wal_roll_bytes) + 2;
    let value = vec![5u8; 1024];
    let mut most = 0;
    for i in 0..2000usize {
        client.put(&key_of(i % 500), &value).unwrap();
        if i % 50 == 49 {
            for rs in hbase.regionservers() {
                let live = wal_segments_of(&dfs, rs);
                assert!(
                    live <= bound,
                    "put {i}: rs{} has {live} live segments",
                    rs.id()
                );
                most = most.max(live);
            }
        }
    }
    let rolled: u64 = hbase
        .regionservers()
        .iter()
        .map(|rs| rs.wal_segments_rolled())
        .sum();
    assert!(rolled >= 200, "{rolled} rolls");
    assert!(most > 0);

    // Every replica a DataNode holds is of a store file or a live segment
    // once the deleted segments' invalidations have reached it.
    let replication = cfg.hdfs.replication as u64;
    let used = || -> u64 {
        let dns = hbase.dfs().datanodes().iter();
        dns.map(|dn| dn.used_bytes() as u64).sum()
    };
    let started = Instant::now();
    while used() > replication * live_bytes(&dfs, n_regions) {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "DataNodes hold {} bytes for {} live",
            used(),
            live_bytes(&dfs, n_regions)
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(client.get(&key_of(7)).unwrap(), Some(value));
    dfs.shutdown();
    client.shutdown();
    hbase.stop();
}

/// A bucket `rs` hosts, once its heartbeat has brought it the master's
/// first assignment.
fn a_bucket_of(rs: &HRegionServer) -> u32 {
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

/// `n` one-KiB puts to `keys`.
fn fill(client: &HBaseClient, keys: &mut impl Iterator<Item = Vec<u8>>, n: usize) {
    for key in keys.take(n) {
        client.put(&key, &[1u8; 1024]).unwrap();
    }
}

#[test]
fn a_deleted_row_stays_deleted_after_its_segments_retire_and_the_server_dies() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let dfs = hbase.dfs().client().unwrap();
    let victim = &hbase.regionservers()[0];
    let bucket = a_bucket_of(victim);
    let n_regions = 3 * cfg.regions_per_server as u32;
    let mut keys = keys_in(bucket, n_regions);
    let row = keys.next().unwrap();

    // Flushed: a memstore's worth of puts follows it.
    client.put(&row, b"doomed").unwrap();
    fill(&client, &mut keys, 20);
    // Deleted, in the segment open now.
    let deleted_in = victim.wal_segments_rolled();
    assert!(client.delete(&row).unwrap());
    // The delete flushed and its segment retired.
    fill(&client, &mut keys, 40);
    let segment = format!("/hbase/wal/rs{}-{deleted_in:08}", victim.id());
    assert!(victim.wal_segments_rolled() > deleted_in);
    assert_eq!(dfs.get_file_info(&segment).unwrap(), None, "{segment} kept");

    victim.stop();
    assert_eq!(client.get(&row).unwrap(), None, "the row came back");
    let survivor = keys_in(bucket, n_regions).nth(10).unwrap();
    assert_eq!(client.get(&survivor).unwrap(), Some(vec![1u8; 1024]));
    dfs.shutdown();
    client.shutdown();
    hbase.stop();
}

#[test]
fn a_bucket_moved_to_a_lower_numbered_server_returns_its_newest_value() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let dfs = hbase.dfs().client().unwrap();
    let first = &hbase.regionservers()[2];
    let bucket = a_bucket_of(first);
    let mut keys = keys_in(bucket, 3 * cfg.regions_per_server as u32);
    let row = keys.next().unwrap();

    // On the first server: a value logged in a written segment and in no
    // store file (8 KiB rolls the WAL, 16 KiB would flush the memstore).
    client.put(&row, b"old").unwrap();
    fill(&client, &mut keys, 8);
    let segment = format!("/hbase/wal/rs{}-{:08}", first.id(), 0);
    assert!(dfs.get_file_info(&segment).unwrap().is_some());
    first.stop();

    // On its successor, whose segments sort before the first's: a newer
    // value, written and flushed.
    client.put(&row, b"new").unwrap();
    let second = hbase.regionservers()[..2]
        .iter()
        .find(|rs| rs.hosted_buckets().contains(&bucket))
        .expect("the bucket is hosted again");
    fill(&client, &mut keys, 20);
    second.stop();

    assert_eq!(client.get(&row).unwrap().as_deref(), Some(&b"new"[..]));
    dfs.shutdown();
    client.shutdown();
    hbase.stop();
}
