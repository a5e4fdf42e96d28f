//! What idle data planes and task slots cost in wake-ups: nothing. A
//! DataNode's acceptor and a TaskTracker's shuffle acceptor block in
//! accept, and its map and reduce runners block on their queues; `stop`
//! unbinds the ports and drops the queues' senders, so none of them needs
//! a timed re-check of a stop flag.
//!
//! One test in its own file, because it counts this process's threads.

use std::collections::HashMap;
use std::time::Duration;

use mini_hdfs::{HdfsConfig, MiniDfs};
use mini_mapred::{MiniMr, MrConfig};
use simnet::model;

/// The watched roles: `dn*-acceptor`, `tt*-shuffle`, `tt*-map-*` and
/// `tt*-reduce-*` (a connection's `tt*-shuffle-conn` is not one).
fn watched(name: &str) -> bool {
    (name.starts_with("dn") && name.ends_with("-acceptor"))
        || (name.starts_with("tt")
            && (name.ends_with("-shuffle") || name.contains("-map-") || name.contains("-reduce-")))
}

/// `(name, voluntary context switches)` of this process's watched
/// threads, by thread id.
fn watched_threads() -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task")
        .expect("a /proc filesystem")
        .flatten()
    {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let name = comm.trim();
        if !watched(name) {
            continue;
        }
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        out.insert(
            task.file_name().to_string_lossy().into_owned(),
            (name.to_string(), switches),
        );
    }
    out
}

#[test]
fn idle_acceptors_and_task_runners_do_not_wake() {
    let dfs = MiniDfs::start(model::IPOIB_QDR, 2, HdfsConfig::socket()).unwrap();
    let cfg = MrConfig::socket();
    let (map_slots, reduce_slots) = (cfg.map_slots, cfg.reduce_slots);
    let mr = MiniMr::start(model::IPOIB_QDR, 2, cfg).unwrap();
    // Let every thread reach its blocking wait.
    std::thread::sleep(Duration::from_millis(300));
    let before = watched_threads();
    let count = |role: &dyn Fn(&str) -> bool| before.values().filter(|(n, _)| role(n)).count();
    assert_eq!(count(&|n| n.ends_with("-acceptor")), 4, "{before:?}");
    assert_eq!(count(&|n| n.ends_with("-shuffle")), 2, "{before:?}");
    assert_eq!(count(&|n| n.contains("-map-")), 2 * map_slots, "{before:?}");
    assert_eq!(
        count(&|n| n.contains("-reduce-")),
        2 * reduce_slots,
        "{before:?}"
    );

    std::thread::sleep(Duration::from_secs(1));
    let after = watched_threads();
    for (tid, (thread, was)) in &before {
        let woken = after[tid].1 - was;
        assert!(woken <= 1, "{thread} woke {woken} times in an idle second");
    }
    mr.stop();
    dfs.stop();
    assert!(
        watched_threads().is_empty(),
        "stop joins every watched thread"
    );
}
