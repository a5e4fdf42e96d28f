//! Ablation A1: how much of RPCoIB's win comes from the history-based
//! two-level pool, and where the send/recv ↔ RDMA-write threshold should
//! sit.
//!
//! Part 1 — size history on/off: the engine always keeps the history, so
//! the calls run through it once, with their serialized sizes traced, and
//! those sizes are then replayed through a bare shadow pool that is told
//! each size (`ShadowPool::record`) and through one that never is.
//! Without a record every call starts from the 128-byte class and
//! "re-gets by doubling", reintroducing adjustment work on the fast path.
//!
//! Part 2 — threshold sweep: a fixed 32 KB payload is pushed through
//! thresholds on both sides of its size, switching it between the
//! send/recv path (pre-posted buffers) and the one-sided RDMA-write path
//! (credit-gated large region).

use bufpool::{HeapMem, NativePool, ShadowPool, SizeClasses};
use rpcoib::RpcConfig;
use rpcoib_bench::harness::{median_us, print_table, BenchScale};
use rpcoib_bench::pingpong::{latency_samples, setup_pingpong, BenchConfig};
use simnet::model;

const PROTOCOL: &str = "bench.PingPongProtocol";
const METHOD: &str = "pingpong";

/// Re-gets per call when messages of `sizes` are serialized into a bare
/// shadow pool the way the engine's output stream does it: acquire at the
/// recorded class, double until the message fits, and (when `record`)
/// record its size.
fn regets_per_call(sizes: &[u32], record: bool) -> f64 {
    let pool = ShadowPool::new(NativePool::new(SizeClasses::up_to(1 << 20), HeapMem::new));
    let mut regets = 0u64;
    for &size in sizes {
        let size = size as usize;
        let mut buf = pool.acquire(PROTOCOL, METHOD);
        while buf.capacity() < size {
            let used = buf.capacity();
            buf = pool.grow(buf, used);
            regets += 1;
        }
        if record {
            pool.record(PROTOCOL, METHOD, size);
        }
    }
    regets as f64 / sizes.len().max(1) as f64
}

fn main() {
    let scale = BenchScale::from_args();
    let iters = scale.pick(50, 300, 1500);
    let warmup = scale.pick(10, 50, 150);

    // --- Part 1: history on/off across payload sizes. ---
    let payloads: &[usize] = &[100, 430, 1500, 6000];
    let mut rows = Vec::new();
    for &payload in payloads {
        let cfg = BenchConfig {
            name: "history",
            model: model::IB_QDR_VERBS,
            rpc: RpcConfig {
                trace_sizes: true,
                ..RpcConfig::rpcoib()
            },
        };
        let env = setup_pingpong(&cfg);
        let fabric = env.fabric.clone();
        let node = fabric.add_node();
        let client = rpcoib::Client::new(&fabric, node, cfg.rpc.clone()).expect("client");
        let body = wire::BytesWritable(vec![1u8; payload]);
        for _ in 0..warmup {
            let _: wire::BytesWritable = client
                .call(env.addr, PROTOCOL, METHOD, &body)
                .expect("warmup");
        }
        let mut samples: Vec<std::time::Duration> = (0..iters)
            .map(|_| {
                let start = std::time::Instant::now();
                let _: wire::BytesWritable = client
                    .call(env.addr, PROTOCOL, METHOD, &body)
                    .expect("call");
                start.elapsed()
            })
            .collect();
        let stats = client.metrics().get(PROTOCOL, METHOD).expect("stats");
        rows.push(vec![
            format!("{payload}"),
            format!("{:.1}", median_us(&mut samples)),
            format!("{:.2}", stats.avg_adjustments()),
            format!("{:.2}", regets_per_call(&stats.sizes, true)),
            format!("{:.2}", regets_per_call(&stats.sizes, false)),
        ]);
        client.shutdown();
        env.server.stop();
    }
    print_table(
        "Ablation A1.1: the <protocol,method> size history, in the engine and in a bare pool",
        &[
            "Payload (B)",
            "latency us (engine)",
            "re-gets/call (engine)",
            "re-gets/call (pool, history)",
            "re-gets/call (pool, no history)",
        ],
        &rows,
    );

    // --- Part 2: threshold sweep at a fixed 32 KB payload. ---
    let payload = 32 * 1024;
    let thresholds: &[usize] = &[4 << 10, 16 << 10, 40 << 10, 64 << 10];
    let mut rows = Vec::new();
    for &threshold in thresholds {
        let cfg = BenchConfig {
            name: "threshold",
            model: model::IB_QDR_VERBS,
            rpc: RpcConfig {
                rdma_threshold: threshold,
                recv_buf_bytes: 128 * 1024,
                ..RpcConfig::rpcoib()
            },
        };
        let env = setup_pingpong(&cfg);
        let mut samples = latency_samples(&env, &cfg, payload, warmup, iters);
        let path = if payload + 32 <= threshold {
            "send/recv"
        } else {
            "RDMA write"
        };
        rows.push(vec![
            format!("{}K", threshold / 1024),
            path.into(),
            format!("{:.1}", median_us(&mut samples)),
        ]);
        env.server.stop();
    }
    print_table(
        "Ablation A1.2: send/recv vs RDMA-write threshold, 32 KB payload",
        &["Threshold", "Path taken", "Median latency (us)"],
        &rows,
    );
    println!(
        "\nexpectation: history removes all steady-state re-gets; around the payload size \
         the two paths cross — send/recv avoids the credit round for mid-size messages"
    );
}
