//! What an idle server costs in threads: one Listener and one pool of
//! `handlers + 1` threads that each read, run and send — `handlers + 2`
//! threads named `rpc-*`, 10 at the default `handlers = 8`. The Listener
//! blocks in accept and does not wake; a pool thread wakes no more often
//! than its idle wait's re-check.
//!
//! One test in its own file, because it counts this process's threads.

use std::collections::HashMap;
use std::time::Duration;

use rpcoib::{RpcConfig, Server, ServiceRegistry};
use simnet::{model, Fabric};

/// `(name, voluntary context switches)` of this process's `rpc-*`
/// threads, by thread id.
fn rpc_threads() -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task")
        .expect("a /proc filesystem")
        .flatten()
    {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let name = comm.trim();
        if !name.starts_with("rpc-") {
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

/// An idle default server on either transport runs `handlers + 2`
/// threads: the Listener and `handlers + 1` pool threads. Over an idle
/// second the Listener, blocked in accept, wakes at most once, and each
/// pool thread at most about ten times: its 100 ms idle wait, which also
/// paces the liveness sweep.
#[test]
fn an_idle_default_server_runs_handlers_plus_two_threads() {
    for (name, net, cfg) in [
        ("socket", model::IPOIB_QDR, RpcConfig::socket()),
        ("verbs", model::IB_QDR_VERBS, RpcConfig::rpcoib()),
    ] {
        let fabric = Fabric::new(net);
        let server = Server::start(
            &fabric,
            fabric.add_node(),
            8020,
            cfg.clone(),
            ServiceRegistry::new(),
        )
        .unwrap();
        // Let every thread reach its first sleep.
        std::thread::sleep(Duration::from_millis(200));
        let before = rpc_threads();
        let count = |prefix: &str| {
            before
                .values()
                .filter(|(n, _)| n.starts_with(prefix))
                .count()
        };
        assert_eq!(before.len(), cfg.handlers + 2, "{name}: {before:?}");
        assert_eq!(before.len(), 10, "{name}: the default is 8 handlers");
        assert_eq!(count("rpc-listener-"), 1, "{name}: {before:?}");
        assert_eq!(count("rpc-worker-"), cfg.handlers + 1, "{name}: {before:?}");

        std::thread::sleep(Duration::from_secs(1));
        let after = rpc_threads();
        for (tid, (thread, was)) in &before {
            let woken = after[tid].1 - was;
            let bound = if thread.starts_with("rpc-listener-") {
                1
            } else {
                15
            };
            assert!(
                woken <= bound,
                "{name}: {thread} woke {woken} times in an idle second"
            );
        }
        server.stop();
        assert!(rpc_threads().is_empty(), "{name}: stop joins every thread");
    }
}
