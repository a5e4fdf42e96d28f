//! Regression: a memstore flush must never hide or roll back a row.
//!
//! `HRegionServer::put` writes the store file outside the region lock.
//! The snapshot it took used to be unreadable for the duration of that
//! write, and two overlapping flushes of one region could install out of
//! order, so a get could miss a row or return a value several puts old
//! (found by the benchmark's `hbase_mix` correctness check).

use std::sync::Arc;

use mini_hbase::{HBaseConfig, MiniHbase};
use simnet::model;

/// Two writers, each on its own client, hammer disjoint keys of the one
/// region a single-server cluster has. 4 KiB of memstore flushes every
/// few puts and each flush spends milliseconds in HDFS, so the other
/// writer's puts start the next flush while one is in flight. Every get
/// must return that key's last acknowledged put.
#[test]
fn gets_return_the_last_acknowledged_put_across_overlapping_flushes() {
    let mut cfg = HBaseConfig::socket();
    cfg.memstore_flush_bytes = 4 * 1024;
    cfg.wal_roll_bytes = 64 * 1024;
    cfg.hdfs.block_size = 128 * 1024;
    let hbase = Arc::new(MiniHbase::start(model::IPOIB_QDR, 1, cfg).unwrap());

    const KEYS_PER_WRITER: usize = 6;
    const ROUNDS: usize = 12;
    let writers: Vec<_> = (0..2usize)
        .map(|writer| {
            let hbase = Arc::clone(&hbase);
            std::thread::spawn(move || {
                let client = hbase.client().unwrap();
                let key = |k: usize| format!("writer{writer}-row{k}").into_bytes();
                // This writer's last acknowledged value per key.
                let mut last: Vec<Option<Vec<u8>>> = vec![None; KEYS_PER_WRITER];
                for round in 0..ROUNDS {
                    for k in 0..KEYS_PER_WRITER {
                        let mut value = format!("w{writer}-k{k}-r{round}").into_bytes();
                        value.resize(512, b'.');
                        client.put(&key(k), &value).unwrap();
                        last[k] = Some(value);
                        // Some of these rows are in the memstore, some in
                        // a snapshot mid-flush, some already installed.
                        for (probe, want) in last.iter().enumerate() {
                            assert_eq!(
                                &client.get(&key(probe)).unwrap(),
                                want,
                                "writer {writer} round {round}: row {probe} is not its last put"
                            );
                        }
                    }
                }
                client.shutdown();
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    // 2 × 6 × 12 puts of ~0.5 KiB against a 4 KiB memstore: dozens of
    // flushes, far more than the three the scenario needs. (Counted, not
    // listed: a file whose rows are all overwritten is deleted.)
    let flushes = hbase.regionservers()[0].flushes();
    assert!(flushes >= 3, "only {flushes} flushes happened");
    hbase.stop();
}
