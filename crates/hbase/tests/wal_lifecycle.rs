//! A WAL segment lives until its edits are flushed. Every edit carries its
//! region's sequence number; a segment is deleted once every edit in it
//! is in a written store file, and HDFS frees its replicas; recovery
//! takes each row's newest edit, from store files and the WAL alike.

mod common;

use std::time::{Duration, Instant};

use common::{a_bucket_of, keys_in, small};
use mini_hbase::master::RS_TIMEOUT;
use mini_hbase::ycsb::key_of;
use mini_hbase::{HBaseClient, HRegionServer, MiniHbase};
use mini_hdfs::DfsClient;
use rpcoib::RpcConfig;
use simnet::{model, Host};

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

#[test]
fn a_hot_set_that_never_fills_a_memstore_still_lets_its_segments_go() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let dfs = hbase.dfs().client().unwrap();
    // The WAL holds at most twice what the hosted memstores can: a roll
    // flushes a region whose oldest unflushed edit is further back.
    let span = (2 * cfg.regions_per_server * cfg.memstore_flush_bytes).div_ceil(cfg.wal_roll_bytes);
    // Three rows: 3 KiB of memstore, under the 16 KiB flush threshold.
    let value = vec![6u8; 1024];
    for i in 0..600usize {
        client.put(&key_of(i % 3), &value).unwrap();
        if i % 10 == 9 {
            for rs in hbase.regionservers() {
                let live = wal_segments_of(&dfs, rs);
                assert!(
                    live <= span,
                    "put {i}: rs{} has {live} live segments",
                    rs.id()
                );
            }
        }
    }
    // Each such flush lets the next `span` rolls go by.
    for rs in hbase.regionservers() {
        let rolled = rs.wal_segments_rolled();
        assert!(
            rs.flushes() >= rolled / (span as u64 + 1),
            "rs{}: {} flushes for {rolled} rolls",
            rs.id(),
            rs.flushes()
        );
    }
    assert_eq!(client.get(&key_of(1)).unwrap(), Some(value));
    dfs.shutdown();
    client.shutdown();
    hbase.stop();
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

/// A 1 KiB value that names its row.
fn value_of(key: &[u8]) -> Vec<u8> {
    let mut value = key.to_vec();
    value.resize(1024, b'.');
    value
}

#[test]
fn one_failed_flush_lets_its_segments_go_once_a_later_flush_carries_its_rows() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let dfs = hbase.dfs().client().unwrap();
    let victim = &hbase.regionservers()[0];
    let bucket = a_bucket_of(victim);
    let mut keys = keys_in(bucket, 3 * cfg.regions_per_server as u32);
    let bound = cfg.memstore_flush_bytes.div_ceil(cfg.wal_roll_bytes) + 2;

    // Twenty puts of 1 KiB hold one flush: its store file's name is
    // taken, so its write fails, and so does the put that set it off.
    // Only the WAL holds its rows.
    let blocked = |seq: u64| format!("/hbase/region{bucket}/hfile-{seq:020}-rs{}", victim.id());
    for seq in 1..=20 {
        dfs.write_file(&blocked(seq), &[]).unwrap();
    }
    let rows: Vec<Vec<u8>> = keys.by_ref().take(40).collect();
    let failed = rows[..20]
        .iter()
        .filter(|key| client.put(key, &value_of(key)).is_err())
        .count();
    assert_eq!(failed, 1, "one flush is due in twenty puts");
    assert_eq!(victim.flushes(), 0, "the blocked flush wrote its file");
    for seq in 1..=20 {
        dfs.delete(&blocked(seq)).unwrap();
    }

    // Then the rows are put again and again: the next flush carries the
    // failed one's rows into its file, and the WAL lets them go.
    for i in 20..400 {
        let key = &rows[i % rows.len()];
        client.put(key, &value_of(key)).unwrap();
    }
    assert!(victim.flushes() > 0);
    let live = wal_segments_of(&dfs, victim);
    assert!(live <= bound, "rs{} has {live} live segments", victim.id());

    // A killed server's open segment is lost: roll it with rows nobody
    // reads back.
    fill(&client, &mut keys, 10);
    victim.stop();
    for key in &rows {
        let got = client.get(key).unwrap();
        assert!(
            got == Some(value_of(key)),
            "{} lost",
            String::from_utf8_lossy(key)
        );
    }
    dfs.shutdown();
    client.shutdown();
    hbase.stop();
}

#[test]
fn a_recovery_whose_listing_fails_is_tried_again_not_served_empty() {
    // The master on InfiniBand and HDFS RPC on Ethernet: cutting the
    // Ethernet link between a region server's host and host 0 cuts that
    // server off from the NameNode alone.
    let mut cfg = small();
    cfg.rpc = RpcConfig::rpcoib();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let [victim, heir] = hbase.regionservers() else {
        unreachable!("two region servers")
    };
    let bucket = a_bucket_of(victim);
    let mut keys = keys_in(bucket, 2 * cfg.regions_per_server as u32);

    // Flushed rows and logged ones, then filler to roll the open segment.
    let rows: Vec<Vec<u8>> = keys.by_ref().take(40).collect();
    for key in &rows {
        client.put(key, &value_of(key)).unwrap();
    }
    fill(&client, &mut keys, 10);
    assert!(victim.flushes() > 0);

    // The heir's host (host 3) is cut off from the NameNode while the
    // master hands it the bucket, and for a few heartbeats after.
    let cluster = hbase.cluster();
    let (heir_host, nn_host) = (cluster.eth_node(Host(3)), cluster.eth_node(Host(0)));
    cluster.eth().partition(heir_host, nn_host);
    victim.stop();
    std::thread::sleep(RS_TIMEOUT + Duration::from_millis(1500));
    cluster.eth().heal(heir_host, nn_host);

    for key in &rows {
        let got = client.get(key).unwrap();
        assert!(
            got == Some(value_of(key)),
            "{} lost",
            String::from_utf8_lossy(key)
        );
    }
    assert!(heir.hosted_buckets().contains(&bucket));
    client.shutdown();
    hbase.stop();
}
