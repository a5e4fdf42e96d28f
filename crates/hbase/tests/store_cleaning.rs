//! A region's store files are cleaned down to a bounded multiple of its
//! live rows: a file no row's newest edit is in is deleted, and when the
//! files hold more than `CLEAN_RATIO` times their live bytes the next
//! flush carries the live rows of the files under half live into its own
//! file, and those files are deleted. Nothing a client was acknowledged
//! is lost on the way, and a deleted row stays deleted.

mod common;

use std::collections::BTreeMap;

use common::{a_bucket_of, keys_in, small};
use mini_hbase::regionserver::CLEAN_RATIO;
use mini_hbase::ycsb::key_of;
use mini_hbase::{HBaseClient, HBaseConfig, HRegionServer, MiniHbase};
use simnet::model;

const VALUE: usize = 1024;

/// The most one flush's store file can add: a full memstore, the put
/// that filled it, and each entry's framing.
fn one_flush(cfg: &HBaseConfig) -> u64 {
    let entries = cfg.memstore_flush_bytes / VALUE + 1;
    (cfg.memstore_flush_bytes + entries * (VALUE + 64)) as u64
}

/// A value naming `key`'s `version`: a stale read cannot pass for a fresh
/// one.
fn value(key: &[u8], version: usize) -> Vec<u8> {
    let mut value = format!("{}-v{version}", String::from_utf8_lossy(key)).into_bytes();
    value.resize(VALUE, b'.');
    value
}

/// Held bytes are at most `CLEAN_RATIO` times the live bytes, plus one
/// flush.
fn assert_bounded(rs: &HRegionServer, cfg: &HBaseConfig, when: &str) {
    let (files, held, live) = rs.store_files();
    assert!(
        held <= CLEAN_RATIO * live + one_flush(cfg),
        "{when}: {files} files hold {held} bytes for {live} live"
    );
}

#[test]
fn a_hot_key_loop_holds_at_most_the_ratio_times_its_live_bytes() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 1, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let rs = &hbase.regionservers()[0];

    // 128 rows, eight memstores' worth; nine puts in ten go to the 32
    // hot ones. A file's hot rows are replaced a few flushes later, its
    // cold ones much later, so most files stay a little live for long.
    let keys: Vec<Vec<u8>> = (0..128).map(key_of).collect();
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut put_bytes = 0;
    for i in 0..3000 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = if i < keys.len() {
            i
        } else if rng % 10 < 9 {
            (rng >> 8) as usize % 32
        } else {
            32 + (rng >> 8) as usize % 96
        };
        client.put(&keys[k], &value(&keys[k], i)).unwrap();
        put_bytes += (keys[k].len() + VALUE) as u64;
        assert_bounded(rs, &cfg, &format!("put {i}"));
    }

    let (files, held, live) = rs.store_files();
    assert!(
        put_bytes >= 20 * live,
        "{put_bytes} bytes put for {live} live"
    );
    assert!(rs.cleaned_bytes() > 0, "no cleaning ran");
    assert!(rs.flushes() > 50, "{} flushes", rs.flushes());
    println!(
        "{} flushes, {} bytes cleaned for {put_bytes} put; {files} files hold {held} for {live} live",
        rs.flushes(),
        rs.cleaned_bytes()
    );
    client.shutdown();
    hbase.stop();
}

/// The acknowledged state of a bucket after [`churn`].
struct Churned {
    /// Every row put, at its last acknowledged value.
    rows: BTreeMap<Vec<u8>, Vec<u8>>,
    /// A row put in a file that stays over half live, then deleted.
    deleted: Vec<u8>,
}

/// Put a row and a file's worth of rows never written again, delete the
/// row, then run 800 puts: seven in eight to 48 warm rows, three
/// memstores' worth, in turn, and one in eight to a row never written
/// again. A file's warm rows are replaced three flushes later, so every
/// file but the first ends under half live, the delete's among them.
/// Then 10 KiB of filler rolls the WAL. Each put goes through `put`.
fn churn(
    client: &HBaseClient,
    keys: &mut impl Iterator<Item = Vec<u8>>,
    put: &mut dyn FnMut(&[u8], &[u8]),
) -> Churned {
    let mut rows = BTreeMap::new();
    let mut put_row = |key: Vec<u8>, version: usize| {
        let value = value(&key, version);
        put(&key, &value);
        rows.insert(key, value);
    };
    let deleted = keys.next().unwrap();
    client.put(&deleted, b"doomed").unwrap();
    for key in keys.by_ref().take(20) {
        put_row(key, 0);
    }
    assert!(client.delete(&deleted).unwrap());
    let warm: Vec<Vec<u8>> = keys.by_ref().take(48).collect();
    for i in 0..800 {
        if i % 8 == 7 {
            put_row(keys.next().unwrap(), i);
        } else {
            put_row(warm[i % warm.len()].clone(), i);
        }
    }
    // A killed server's open WAL segment is lost, as in HBase: roll it
    // with rows nobody reads back.
    for key in keys.take(10) {
        put(&key, &[0u8; VALUE]);
    }
    Churned { rows, deleted }
}

/// Stop `rs`, and read every row back from the server that recovers its
/// bucket.
fn kill_and_check(rs: &HRegionServer, client: &HBaseClient, churned: &Churned) {
    rs.stop();
    assert_eq!(
        client.get(&churned.deleted).unwrap(),
        None,
        "the deleted row came back"
    );
    for (key, want) in &churned.rows {
        let got = client.get(key).unwrap();
        assert!(
            got.as_ref() == Some(want),
            "{} reads {:?}",
            String::from_utf8_lossy(key),
            got.map(|v| String::from_utf8_lossy(&v[..12]).into_owned())
        );
    }
}

#[test]
fn a_killed_server_s_cleaned_bucket_recovers_every_row_and_keeps_its_delete() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let victim = &hbase.regionservers()[0];
    let bucket = a_bucket_of(victim);
    let mut put = |key: &[u8], value: &[u8]| client.put(key, value).unwrap();
    let churned = churn(&client, &mut keys_in(bucket, 2), &mut put);

    assert!(victim.cleaned_bytes() > 0, "no cleaning ran");
    assert_bounded(victim, &cfg, "after the churn");
    kill_and_check(victim, &client, &churned);
    client.shutdown();
    hbase.stop();
}

#[test]
fn deleted_rows_leave_no_tombstone_behind_and_stay_deleted_after_a_kill() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let victim = &hbase.regionservers()[0];
    let bucket = a_bucket_of(victim);
    let mut keys = keys_in(bucket, 2);

    // A thousand small rows, put and then deleted: over 25 KB of
    // tombstones, more than a memstore.
    let doomed: Vec<Vec<u8>> = keys.by_ref().take(1000).collect();
    for key in &doomed {
        client.put(key, b"doomed").unwrap();
    }
    for key in &doomed {
        assert!(client.delete(key).unwrap());
    }
    // Three memstores' worth of rows flush the tombstones and let their
    // segments go; ten more roll the last segment, as in `churn`.
    let mut rows = BTreeMap::new();
    for key in keys.take(58) {
        let value = value(&key, 1);
        client.put(&key, &value).unwrap();
        rows.insert(key, value);
    }

    // Only rows put last are live, each an entry whose sequence number
    // takes at most three bytes; a memstore of them may not be.
    let (files, held, live) = victim.store_files();
    let most: u64 = rows
        .iter()
        .map(|(k, v)| (12 + k.len() + v.len()) as u64)
        .sum();
    assert!(
        live <= most,
        "{files} files hold {held} bytes, {live} live for {most} put"
    );
    victim.stop();
    for key in &doomed {
        assert_eq!(client.get(key).unwrap(), None, "a deleted row came back");
    }
    for (key, want) in rows.iter().take(48) {
        assert_eq!(client.get(key).unwrap().as_ref(), Some(want));
    }
    client.shutdown();
    hbase.stop();
}

/// Above every sequence number a [`churn`] takes.
const BLOCKED: u64 = 1000;

#[test]
fn a_cleaning_whose_write_fails_deletes_nothing() {
    let cfg = small();
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, cfg.clone()).unwrap();
    let client = hbase.client().unwrap();
    let dfs = hbase.dfs().client().unwrap();
    let victim = &hbase.regionservers()[0];
    let bucket = a_bucket_of(victim);

    // Once the bucket's files are due for cleaning, every store file the
    // bucket's flushes could write exists already, so the flush that would
    // carry rows fails, and so does every later one: each leaves rows only
    // the WAL holds, which the next would carry. A put whose flush failed
    // is logged but not acknowledged, so it is put again.
    let blocker = |seq: u64| format!("/hbase/region{bucket}/hfile-{seq:020}-rs{}", victim.id());
    let mut blocked = Vec::new();
    let mut put = |key: &[u8], value: &[u8]| {
        let (_, held, live) = victim.store_files();
        if blocked.is_empty() && held > CLEAN_RATIO * live {
            let names = (1..=BLOCKED).filter(|seq| dfs.write_file(&blocker(*seq), &[]).is_ok());
            blocked.extend(names);
        }
        if client.put(key, value).is_err() {
            assert!(!blocked.is_empty(), "a flush failed before any was blocked");
            client.put(key, value).unwrap();
        }
    };
    let churned = churn(&client, &mut keys_in(bucket, 2), &mut put);
    assert!(!blocked.is_empty(), "the churn never called for a cleaning");

    let (files, held, live) = victim.store_files();
    assert_eq!(victim.cleaned_bytes(), 0);
    assert!(
        held > CLEAN_RATIO * live + one_flush(&cfg),
        "{files} files hold {held} for {live} live: the churn never called for a cleaning"
    );
    for seq in blocked {
        dfs.delete(&blocker(seq)).unwrap();
    }
    kill_and_check(victim, &client, &churned);
    dfs.shutdown();
    client.shutdown();
    hbase.stop();
}
