//! Store-file space on an `hbase_mix`-shaped run: two region servers in
//! the fully-RDMA configuration, 4 000 rows of 1 KiB loaded, then a
//! 50/50 get/put mix over YCSB's Zipfian keys, 12 000 operations per
//! second of benchmark window (what `benchmark/` runs per `--seconds`).
//! For each window it prints what HDFS holds under `/hbase/region*`, the
//! region servers' own gauge of held and live bytes, and the bytes of
//! carried rows the flushes rewrote per byte the client put.
//!
//! ```sh
//! cargo run --release --example store_space -- 2 3 5 10
//! ```

use rpcoib_suite::mini_hbase::ycsb::{self, key_of, Workload};
use rpcoib_suite::mini_hbase::{HBaseConfig, MiniHbase};
use rpcoib_suite::simnet::{self, model};

const RECORDS: usize = 4_000;
const OPS_PER_SECOND: f64 = 12_000.0;

fn run(seconds: f64) {
    let hbase = MiniHbase::start(model::IPOIB_QDR, 2, HBaseConfig::all_ib()).unwrap();
    let client = hbase.client().unwrap();
    let workload = Workload::mixed(RECORDS, (OPS_PER_SECOND * seconds) as usize);
    ycsb::load(&client, &workload).unwrap();
    let report = ycsb::run(&client, &workload).unwrap();

    // One replica each, as HDFS lists it.
    let dfs = hbase.dfs().client().unwrap();
    let listed: Vec<u64> = (0..hbase.regionservers().len())
        .flat_map(|bucket| dfs.list(&format!("/hbase/region{bucket}")).unwrap())
        .map(|file| file.len)
        .collect();
    dfs.shutdown();

    let (mut files, mut held, mut live, mut cleaned, mut flushes) = (0, 0, 0, 0, 0);
    for rs in hbase.regionservers() {
        let (f, h, l) = rs.store_files();
        (files, held, live) = (files + f, held + h, live + l);
        cleaned += rs.cleaned_bytes();
        flushes += rs.flushes();
    }
    let put_bytes = (report.puts * (key_of(0).len() + workload.value_size)) as f64;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    println!(
        "{seconds:>4} s  {:>6} ops  HDFS {:>3} files {:>6.2} MB  gauge {files:>3} files \
         {:>6.2} MB held / {:>5.2} MB live ({:.2}x)  {flushes:>4} flushes  \
         cleaned {:.3} B per B put",
        report.operations,
        listed.len(),
        mb(listed.iter().sum()),
        mb(held),
        mb(live),
        held as f64 / live as f64,
        cleaned as f64 / put_bytes,
    );
    client.shutdown();
    hbase.stop();
}

fn main() {
    simnet::set_fast_forward(true);
    let mut windows: Vec<f64> = std::env::args()
        .skip(1)
        .map(|arg| arg.parse().expect("a window in seconds"))
        .collect();
    if windows.is_empty() {
        windows.push(2.0);
    }
    for seconds in windows {
        run(seconds);
    }
}
