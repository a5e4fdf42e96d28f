//! Mini-HBase integration: put/get/scan semantics, flush persistence,
//! YCSB phases, and the Figure 8 transport configurations.

use mini_hbase::ycsb::{self, key_of, Workload};
use mini_hbase::{HBaseConfig, MiniHbase};
use simnet::{model, Host};

fn small(mut cfg: HBaseConfig) -> HBaseConfig {
    cfg.memstore_flush_bytes = 16 * 1024;
    cfg.wal_roll_bytes = 8 * 1024;
    cfg.hdfs.block_size = 128 * 1024;
    cfg
}

fn put_get_roundtrip(cfg: HBaseConfig) {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, small(cfg)).unwrap();
    let client = hbase.client().unwrap();
    for id in 0..50usize {
        let value = format!("value-{id}").into_bytes();
        client.put(&key_of(id), &value).unwrap();
    }
    for id in 0..50usize {
        let got = client.get(&key_of(id)).unwrap().unwrap();
        assert_eq!(got, format!("value-{id}").into_bytes());
    }
    assert!(client.get(b"user-nonexistent").unwrap().is_none());
    client.shutdown();
    hbase.stop();
}

#[test]
fn put_get_all_sockets() {
    put_get_roundtrip(HBaseConfig::socket());
}

#[test]
fn put_get_hbaseoib() {
    put_get_roundtrip(HBaseConfig::ops_ib());
}

#[test]
fn put_get_fully_rdma() {
    put_get_roundtrip(HBaseConfig::all_ib());
}

#[test]
fn overwrites_return_latest_value() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    client.put(b"user1", b"v1").unwrap();
    client.put(b"user1", b"v2").unwrap();
    assert_eq!(client.get(b"user1").unwrap().unwrap(), b"v2");
    client.shutdown();
    hbase.stop();
}

#[test]
fn flushes_write_to_hdfs_and_data_stays_readable() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    // Write enough 1KB values to force several memstore flushes and WAL
    // rolls (16KB / 8KB thresholds).
    let value = vec![7u8; 1024];
    for id in 0..200usize {
        client.put(&key_of(id), &value).unwrap();
    }
    // Every row still readable (memstore + block cache).
    for id in (0..200).step_by(17) {
        assert_eq!(client.get(&key_of(id)).unwrap().unwrap(), value, "row {id}");
    }
    // The WAL rolled into HDFS, which now holds store files and only the
    // segments whose edits are not all in one yet.
    let dfs = hbase.dfs().client().unwrap();
    let rolled: u64 = hbase
        .regionservers()
        .iter()
        .map(|rs| rs.wal_segments_rolled())
        .sum();
    let wal_segments = dfs.list("/hbase/wal").unwrap().len();
    let mut store_files = 0;
    for bucket in 0..hbase.regionservers().len() {
        store_files += dfs
            .list(&format!("/hbase/region{bucket}"))
            .unwrap_or_default()
            .len();
    }
    assert!(rolled > 0, "WAL rolls must hit HDFS");
    let cfg = small(HBaseConfig::socket());
    let live_per_server = cfg.memstore_flush_bytes.div_ceil(cfg.wal_roll_bytes) + 2;
    assert!(
        wal_segments <= live_per_server * hbase.regionservers().len(),
        "{wal_segments} live WAL segments of {rolled} rolled"
    );
    assert!(store_files > 0, "memstore flushes must hit HDFS");
    client.shutdown();
    hbase.stop();
}

#[test]
fn scan_returns_sorted_rows() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    for id in 0..30usize {
        client
            .put(&key_of(id), format!("v{id}").as_bytes())
            .unwrap();
    }
    let rows = client.scan(&key_of(0), 10).unwrap();
    assert!(!rows.is_empty());
    assert!(
        rows.windows(2).all(|w| w[0].key <= w[1].key),
        "scan must be key-ordered"
    );
    client.shutdown();
    hbase.stop();
}

#[test]
fn ycsb_load_and_mixed_run() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    let workload = Workload {
        value_size: 256,
        ..Workload::mixed(300, 400)
    };
    ycsb::load(&client, &workload).unwrap();
    let report = ycsb::run(&client, &workload).unwrap();
    assert_eq!(report.operations, 400);
    assert!(
        report.gets > 100 && report.puts > 100,
        "mix must be near 50/50: {report:?}"
    );
    assert!(report.kops_per_sec() > 0.0);
    assert!(report.latency_at(0.5) > std::time::Duration::ZERO);
    // Loaded rows exist.
    assert!(client.get(&key_of(0)).unwrap().is_some());
    assert!(client.get(&key_of(299)).unwrap().is_some());
    client.shutdown();
    hbase.stop();
}

#[test]
fn ops_are_spread_across_region_servers() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    let workload = Workload {
        value_size: 128,
        ..Workload::put_only(240, 240)
    };
    ycsb::load(&client, &workload).unwrap();
    for rs in hbase.regionservers() {
        let (puts, _gets) = rs.op_counts();
        assert!(puts > 20, "region server {} starved: {puts} puts", rs.id());
    }
    client.shutdown();
    hbase.stop();
}

#[test]
fn rdma_ops_plane_beats_socket_plane_on_get_latency() {
    // Figure 8's direction, in miniature: HBaseoIB gets are faster than
    // socket gets over IPoIB. Measured on the simnet modeled-time ledger
    // (the wire/stack cost the calibrated models charge the client host,
    // summed over both rails) rather than on wall-clock, so scheduler
    // noise from the rest of the suite cannot flip the comparison.
    let socket_hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::socket())).unwrap();
    let rdma_hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::ops_ib())).unwrap();
    let socket_client = socket_hbase.client().unwrap();
    let rdma_client = rdma_hbase.client().unwrap();
    // Clients live on the reserved client host; a sequential get charges
    // every client-side ledger entry before it returns, and no background
    // traffic (heartbeats, flushes) touches this host's nodes.
    let modeled = |hbase: &MiniHbase| {
        let c = hbase.cluster();
        c.eth().modeled_ns(c.eth_node(Host(1))) + c.ib().modeled_ns(c.ib_node(Host(1)))
    };
    let value = vec![9u8; 1024];
    for id in 0..100usize {
        socket_client.put(&key_of(id), &value).unwrap();
        rdma_client.put(&key_of(id), &value).unwrap();
    }
    let mut socket_samples = Vec::new();
    let mut rdma_samples = Vec::new();
    for round in 0..120usize {
        let key = key_of(round % 100);
        let before = modeled(&socket_hbase);
        let _ = socket_client.get(&key).unwrap();
        socket_samples.push(modeled(&socket_hbase) - before);
        let before = modeled(&rdma_hbase);
        let _ = rdma_client.get(&key).unwrap();
        rdma_samples.push(modeled(&rdma_hbase) - before);
    }
    socket_samples.sort_unstable();
    rdma_samples.sort_unstable();
    let (socket, rdma) = (socket_samples[60], rdma_samples[60]);
    socket_client.shutdown();
    rdma_client.shutdown();
    socket_hbase.stop();
    rdma_hbase.stop();
    assert!(
        rdma < socket,
        "HBaseoIB median get ({rdma} modeled ns) must beat sockets ({socket} modeled ns)"
    );
}

#[test]
fn delete_removes_rows_everywhere() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    // Enough volume that some rows are flushed out of the memstore.
    let value = vec![3u8; 1024];
    for id in 0..60usize {
        client.put(&key_of(id), &value).unwrap();
    }
    assert!(client.delete(&key_of(5)).unwrap(), "freshly written row");
    assert!(client.get(&key_of(5)).unwrap().is_none());
    assert!(!client.delete(&key_of(5)).unwrap(), "double delete");
    assert!(!client.delete(b"user-never-existed").unwrap());
    // Survivors unaffected.
    assert!(client.get(&key_of(6)).unwrap().is_some());
    client.shutdown();
    hbase.stop();
}

#[test]
fn scan_heavy_workload_runs() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    let workload = mini_hbase::ycsb::Workload {
        value_size: 128,
        ..mini_hbase::ycsb::Workload::scan_heavy(200, 150)
    };
    ycsb::load(&client, &workload).unwrap();
    let report = ycsb::run(&client, &workload).unwrap();
    assert_eq!(report.operations, 150);
    assert!(report.scans > 100, "95% scans expected: {report:?}");
    assert!(report.gets == 0);
    client.shutdown();
    hbase.stop();
}

#[test]
fn rows_survive_region_server_crash() {
    // The flagship recovery path: rows (flushed AND unflushed) must
    // survive a region-server crash via HDFS store files + WAL replay on
    // whichever surviving server inherits the buckets.
    let mut cfg = small(HBaseConfig::socket());
    cfg.wal_roll_bytes = 2 * 1024; // roll often so little sits unflushed
    let hbase = MiniHbase::start(model::IPOIB_QDR, 3, cfg).unwrap();
    let client = hbase.client().unwrap();
    let n_rows = 120usize;
    for id in 0..n_rows {
        client
            .put(&key_of(id), format!("value-{id}").as_bytes())
            .unwrap();
    }
    // Force the tail of the WAL out by writing filler (the final partial
    // WAL buffer of a crashed server is lost, as in real HBase).
    for id in n_rows..n_rows + 40 {
        client.put(&key_of(id), &[0u8; 256]).unwrap();
    }

    // Crash one region server (not a clean stop: kill its host so the
    // master sees missed heartbeats). Keep its DataNode? Killing the host
    // kills the co-located DataNode too — replication covers the data.
    let victim = &hbase.regionservers()[0];
    let victim_buckets = victim.hosted_buckets();
    assert!(!victim_buckets.is_empty());
    victim.stop();

    // Every row must come back, served by the surviving servers.
    for id in 0..n_rows {
        let got = client.get(&key_of(id)).unwrap();
        assert_eq!(
            got.as_deref(),
            Some(format!("value-{id}").as_bytes()),
            "row {id} lost in the crash"
        );
    }
    // And the inherited buckets are really hosted elsewhere now.
    let survivors: Vec<u32> = hbase.regionservers()[1..]
        .iter()
        .flat_map(|rs| rs.hosted_buckets())
        .collect();
    for bucket in victim_buckets {
        assert!(
            survivors.contains(&bucket),
            "bucket {bucket} not reassigned"
        );
    }
    client.shutdown();
    hbase.stop();
}

#[test]
fn multi_get_preserves_order_and_missing_rows() {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, small(HBaseConfig::socket())).unwrap();
    let client = hbase.client().unwrap();
    client.put(&key_of(1), b"one").unwrap();
    client.put(&key_of(3), b"three").unwrap();
    let k1 = key_of(1);
    let k2 = key_of(2);
    let k3 = key_of(3);
    let rows = client.multi_get(&[&k1, &k2, &k3]).unwrap();
    assert_eq!(rows[0].as_deref(), Some(b"one".as_slice()));
    assert_eq!(rows[1], None);
    assert_eq!(rows[2].as_deref(), Some(b"three".as_slice()));
    client.shutdown();
    hbase.stop();
}
