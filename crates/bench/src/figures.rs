//! Paper-figure sweeps for the regression harness (`src/bin/bench.rs`).
//!
//! Every number that lands in a `BENCH_*.json` file is derived from the
//! simnet **modeled-time ledger** ([`Fabric::modeled_ns`]), not from
//! wall-clock measurement: per call, the sweep reads the client node's
//! accumulated modeled nanoseconds before and after, and the delta is the
//! network/stack/registration cost the calibrated model *intended* to
//! charge. Combined with the seeded fault RNG (jitter draws replay
//! exactly under sequential calls), two runs with the same seed produce
//! byte-identical files — which is what lets CI diff against a committed
//! baseline with a tight tolerance.
//!
//! Wall-clock numbers (actual throughput, scheduler effects) are printed
//! to stdout for humans but deliberately never serialized.

use std::sync::Arc;
use std::time::Duration;

use rpcoib::{Client, Server, ServiceRegistry};
use simnet::{Fabric, FaultSpec, NodeId, SimAddr};
use wire::BytesWritable;

use crate::json::Json;
use crate::pingpong::{BenchConfig, EchoService};

/// Jitter bound injected on the client↔server link so latency percentiles
/// are non-degenerate (a uniform draw per message, from the seeded RNG).
const JITTER: Duration = Duration::from_micros(20);

/// Payload sweep of the paper's ping-pong latency figures: 1 B to 2 MB.
pub const PINGPONG_PAYLOADS: &[usize] = &[1, 64, 512, 4096, 32768, 262144, 2097152];

/// Knobs shared by every sweep.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// CI-sized iteration counts.
    pub quick: bool,
    /// Seed for the fabric's fault RNG (jitter draws).
    pub seed: u64,
}

impl RunOpts {
    fn iters(&self, quick: usize, normal: usize) -> usize {
        if self.quick {
            quick
        } else {
            normal
        }
    }
}

/// The two transports every figure compares, as `(label, config)`.
/// Both ride the same QDR InfiniBand card: sockets over IPoIB versus
/// native verbs (the paper's central comparison).
fn transports() -> Vec<(&'static str, BenchConfig)> {
    vec![
        ("socket", BenchConfig::rpc_ipoib()),
        ("verbs", BenchConfig::rpcoib()),
    ]
}

struct Env {
    fabric: Fabric,
    _server: Server,
    addr: SimAddr,
    client: Client,
    client_node: NodeId,
}

/// Boot one server + one client on a fresh fabric, with the fault RNG
/// seeded *before* any traffic so connection setup replays too.
fn boot(cfg: &BenchConfig, seed: u64, jitter: Option<Duration>) -> Env {
    let fabric = Fabric::new(cfg.model);
    fabric.set_fault_seed(seed);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    if let Some(j) = jitter {
        fabric.set_link_fault(
            server_node,
            client_node,
            FaultSpec::default().with_jitter(j),
        );
    }
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server =
        Server::start(&fabric, server_node, 9999, cfg.rpc.clone(), registry).expect("start server");
    let addr = server.addr();
    let client = Client::new(&fabric, client_node, cfg.rpc.clone()).expect("client");
    Env {
        fabric,
        _server: server,
        addr,
        client,
        client_node,
    }
}

fn ping(env: &Env, body: &BytesWritable) {
    let _: BytesWritable = env
        .client
        .call(env.addr, "bench.PingPongProtocol", "pingpong", body)
        .expect("pingpong call");
}

/// Issue `warmup + iters` sequential ping-pongs of `payload` bytes and
/// return the per-call modeled-ns delta of the client node for the
/// measured calls. Every client-node ledger charge of a sequential call
/// (sends, response ingress, pool registrations, credit handling) lands
/// before the call returns, so the deltas are exact and replayable.
fn modeled_samples(env: &Env, payload: usize, warmup: usize, iters: usize) -> Vec<u64> {
    let body = BytesWritable(vec![0x5a; payload]);
    for _ in 0..warmup {
        ping(env, &body);
    }
    (0..iters)
        .map(|_| {
            let before = env.fabric.modeled_ns(env.client_node);
            ping(env, &body);
            env.fabric.modeled_ns(env.client_node) - before
        })
        .collect()
}

/// Nearest-rank percentile over sorted samples.
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The percentile block every figure row shares.
fn percentile_fields(row: Json, samples: &mut [u64]) -> Json {
    samples.sort_unstable();
    let sum: u64 = samples.iter().sum();
    let count = samples.len() as u64;
    row.field("calls", count)
        .field("p50_ns", percentile_ns(samples, 0.50))
        .field("p95_ns", percentile_ns(samples, 0.95))
        .field("p99_ns", percentile_ns(samples, 0.99))
        .field("max_ns", samples.last().copied().unwrap_or(0))
        .field("mean_ns", sum.checked_div(count).unwrap_or(0))
}

fn header(figure: &str, opts: &RunOpts, git_rev: &str) -> Json {
    Json::obj()
        .field("figure", figure)
        .field("seed", opts.seed)
        .field("quick", opts.quick)
        .field("jitter_ns", JITTER.as_nanos() as u64)
        .field("git_rev", git_rev)
}

/// Figure: ping-pong latency vs payload size, socket vs verbs (the
/// paper's Fig. 5(a)/(b) shape). One fresh fabric per row so payload
/// ordering cannot leak pool history across rows.
pub fn run_pingpong(opts: &RunOpts, git_rev: &str) -> Json {
    let warmup = opts.iters(5, 20);
    let iters = opts.iters(40, 200);
    let mut rows = Vec::new();
    for (label, cfg) in transports() {
        for &payload in PINGPONG_PAYLOADS {
            let env = boot(&cfg, opts.seed, Some(JITTER));
            let mut samples = modeled_samples(&env, payload, warmup, iters);
            let snap = env.client.metrics_snapshot();
            let row = Json::obj()
                .field("transport", label)
                .field("payload", payload);
            let row = percentile_fields(row, &mut samples)
                .field("retries", snap.counters.retries)
                .field("failed_calls", snap.counters.failed_calls)
                .field("busy_rejections", snap.counters.busy_rejections);
            rows.push(row);
            env.client.shutdown();
        }
    }
    header("pingpong", opts, git_rev).field("rows", Json::Arr(rows))
}

/// The workload mixes of the buffer-pool figure: each is a repeating
/// payload-size sequence the shadow pool's `<protocol, method>` history
/// must track. Steady sizes should hit; alternating sizes defeat the
/// one-slot history; ramps force grows.
fn bufpool_mixes() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("steady_512", vec![512]),
        ("steady_32k", vec![32768]),
        ("bimodal_512_64k", vec![512, 65536]),
        (
            "ramp_1k_to_64k",
            vec![1024, 2048, 4096, 8192, 16384, 32768, 65536],
        ),
    ]
}

/// Figure: buffer-pool hit rate vs workload mix (paper §V.C / Fig. 3
/// shape), with the same modeled-latency percentiles so the cost of
/// mispredictions is visible. Pool counters come from the client's
/// RPCoIB context; the socket transport has no pool, so its `pool`
/// field is `null` — it rides along as the latency baseline.
pub fn run_bufpool(opts: &RunOpts, git_rev: &str) -> Json {
    let calls = opts.iters(60, 300);
    let mut rows = Vec::new();
    for (label, cfg) in transports() {
        for (mix, sizes) in bufpool_mixes() {
            let env = boot(&cfg, opts.seed, Some(JITTER));
            // Warm up the connection (not the pool history: cold starts
            // and the convergence grows are exactly what this figure
            // counts).
            ping(&env, &BytesWritable(vec![0u8; sizes[0]]));
            let mut samples = Vec::with_capacity(calls);
            for i in 0..calls {
                let body = BytesWritable(vec![0x77; sizes[i % sizes.len()]]);
                let before = env.fabric.modeled_ns(env.client_node);
                ping(&env, &body);
                samples.push(env.fabric.modeled_ns(env.client_node) - before);
            }
            let snap = env.client.metrics_snapshot();
            let row = Json::obj().field("transport", label).field("mix", mix);
            let mut row = percentile_fields(row, &mut samples);
            row = match snap.pool {
                Some(pool) => {
                    let lookups = pool.history_hits + pool.grows + pool.shrinks + pool.cold;
                    row.field(
                        "pool",
                        Json::obj()
                            .field("history_hits", pool.history_hits)
                            .field("grows", pool.grows)
                            .field("shrinks", pool.shrinks)
                            .field("cold", pool.cold)
                            .field("native_hits", pool.native_hits)
                            .field("native_misses", pool.native_misses)
                            .field("native_returns", pool.native_returns)
                            .field("oversize", pool.oversize),
                    )
                    .field("hit_rate_bp", pool.history_hits * 10_000 / lookups.max(1))
                }
                None => row
                    .field("pool", Json::Null)
                    .field("hit_rate_bp", Json::Null),
            };
            rows.push(row);
            env.client.shutdown();
        }
    }
    header("bufpool", opts, git_rev).field("rows", Json::Arr(rows))
}

/// Figure: handler-count scaling (the paper's server-side concurrency
/// knob). `clients` concurrent callers — each on its own fabric node so
/// its ledger deltas stay private — hammer a server configured with a
/// varying handler pool. The JSON records the modeled per-call costs
/// (deterministic; identical across handler counts by construction,
/// since queue wait is a scheduler effect the model does not charge);
/// measured wall-clock throughput per handler count goes to stdout.
pub fn run_handlers(opts: &RunOpts, git_rev: &str) -> Json {
    let handler_counts: &[usize] = if opts.quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let clients = 6usize;
    let calls_per_client = opts.iters(30, 120);
    let payload = 4096usize;
    let mut rows = Vec::new();
    for (label, cfg) in transports() {
        for &handlers in handler_counts {
            let mut cfg = cfg.clone();
            cfg.rpc.handlers = handlers;
            // No link faults: concurrent clients would race for the RNG,
            // making draw order (and thus every sample) scheduling-
            // dependent. Without faults nothing draws, and each client's
            // deltas depend only on its own sequential traffic.
            let fabric = Fabric::new(cfg.model);
            fabric.set_fault_seed(opts.seed);
            let server_node = fabric.add_node();
            let mut registry = ServiceRegistry::new();
            registry.register(Arc::new(EchoService));
            let server = Server::start(&fabric, server_node, 9999, cfg.rpc.clone(), registry)
                .expect("start server");
            let addr = server.addr();

            let start = std::time::Instant::now();
            let mut threads = Vec::new();
            for _ in 0..clients {
                let fabric = fabric.clone();
                let rpc = cfg.rpc.clone();
                let node = fabric.add_node();
                threads.push(std::thread::spawn(move || {
                    let client = Client::new(&fabric, node, rpc).expect("client");
                    let body = BytesWritable(vec![0x33; payload]);
                    let mut deltas = Vec::with_capacity(calls_per_client);
                    for _ in 0..calls_per_client {
                        let before = fabric.modeled_ns(node);
                        let _: BytesWritable = client
                            .call(addr, "bench.PingPongProtocol", "pingpong", &body)
                            .expect("call");
                        deltas.push(fabric.modeled_ns(node) - before);
                    }
                    client.shutdown();
                    deltas
                }));
            }
            let mut samples: Vec<u64> = Vec::new();
            for t in threads {
                samples.extend(t.join().expect("client thread"));
            }
            let wall = start.elapsed();
            let total_calls = samples.len();
            println!(
                "handlers {label:>6} h={handlers:<2} wall {:>8.1} ms  {:>7.1} calls/s (wall-clock, not serialized)",
                wall.as_secs_f64() * 1e3,
                total_calls as f64 / wall.as_secs_f64()
            );
            server.stop();

            let row = Json::obj()
                .field("transport", label)
                .field("handlers", handlers)
                .field("clients", clients);
            let row = percentile_fields(row, &mut samples)
                .field("modeled_total_ns", samples.iter().sum::<u64>());
            rows.push(row);
        }
    }
    header("handlers", opts, git_rev).field("rows", Json::Arr(rows))
}

/// Connection counts of the shard-scaling sweep.
const SHARD_CLIENTS: &[usize] = &[1, 4, 16, 64, 256];

/// Reader shard counts swept.
const SHARD_COUNTS: &[usize] = &[1, 2, 4];

/// Figure: connection scaling versus reader shard count. Every
/// connection drives an identical sequential call stream from its own
/// fabric node, so each per-call ledger delta is deterministic, and —
/// because connections are dealt onto shards round-robin by accept-order
/// id — the per-shard load split is `ceil(C/M)` connections on the
/// busiest shard no matter which client won which accept slot.
///
/// The serialized throughput figure is *derived* from the ledger, not
/// measured: it models each reader shard as serving its connections'
/// call streams one after another — a lone call is read, run and
/// answered by its shard's thread — and the shards as running in
/// parallel, so the modeled makespan is `ceil(C/M) × per_conn_ns` (the
/// busiest *reader* shard's connections) and modeled throughput is total
/// calls over that: `M = 4` cuts the bottleneck shard's stream to a
/// quarter. Wall-clock throughput (scheduler-dependent) goes to stdout
/// only.
pub fn run_shards(opts: &RunOpts, git_rev: &str) -> Json {
    let warmup = 2usize;
    let calls_per_conn = opts.iters(6, 24);
    let payload = 512usize;
    let mut rows = Vec::new();
    for (label, cfg) in transports() {
        for &clients in SHARD_CLIENTS {
            for &shards in SHARD_COUNTS {
                let mut cfg = cfg.clone();
                cfg.rpc.reader_shards = shards;
                // Trim buffer footprints: at 256 connections the
                // default 4 MB large region each would cost a gigabyte;
                // the 512 B payloads here only ever ride the small path.
                cfg.rpc.rdma_threshold = 16 * 1024;
                cfg.rpc.recv_buf_bytes = 16 * 1024;
                cfg.rpc.large_region_bytes = 64 * 1024;
                cfg.rpc.prefill_per_class = 2;
                // No link faults: concurrent clients would race for the
                // RNG (see run_handlers).
                let fabric = Fabric::new(cfg.model);
                fabric.set_fault_seed(opts.seed);
                let server_node = fabric.add_node();
                let mut registry = ServiceRegistry::new();
                registry.register(Arc::new(EchoService));
                let server = Server::start(&fabric, server_node, 9999, cfg.rpc.clone(), registry)
                    .expect("start server");
                let addr = server.addr();

                let start = std::time::Instant::now();
                let mut threads = Vec::new();
                for _ in 0..clients {
                    let fabric = fabric.clone();
                    let rpc = cfg.rpc.clone();
                    let node = fabric.add_node();
                    threads.push(std::thread::spawn(move || {
                        let client = Client::new(&fabric, node, rpc).expect("client");
                        let body = BytesWritable(vec![0x44; payload]);
                        for _ in 0..warmup {
                            let _: BytesWritable = client
                                .call(addr, "bench.PingPongProtocol", "pingpong", &body)
                                .expect("warmup call");
                        }
                        let mut deltas = Vec::with_capacity(calls_per_conn);
                        for _ in 0..calls_per_conn {
                            let before = fabric.modeled_ns(node);
                            let _: BytesWritable = client
                                .call(addr, "bench.PingPongProtocol", "pingpong", &body)
                                .expect("call");
                            deltas.push(fabric.modeled_ns(node) - before);
                        }
                        client.shutdown();
                        deltas
                    }));
                }
                let mut samples: Vec<u64> = Vec::new();
                let mut per_conn_ns: u64 = 0;
                for t in threads {
                    let deltas = t.join().expect("client thread");
                    per_conn_ns = per_conn_ns.max(deltas.iter().sum());
                    samples.extend(deltas);
                }
                let wall = start.elapsed();
                let total_calls = samples.len() as u64;
                println!(
                    "shards {label:>6} c={clients:<3} s={shards} wall {:>8.1} ms  {:>8.1} calls/s (wall-clock, not serialized)",
                    wall.as_secs_f64() * 1e3,
                    total_calls as f64 / wall.as_secs_f64()
                );

                // Per-shard frames read: which connection landed on which
                // shard is an accept race, but the *sorted* counts are
                // fixed by the round-robin deal.
                server.stop();
                let snap = server.metrics_snapshot();
                let mut reader_processed: Vec<u64> = snap
                    .shards
                    .iter()
                    .filter(|s| s.role.name() == "reader")
                    .map(|s| s.processed)
                    .collect();
                reader_processed.sort_unstable_by(|a, b| b.cmp(a));
                let reader_processed =
                    Json::Arr(reader_processed.into_iter().map(Json::U64).collect());

                let bottleneck_conns = clients.div_ceil(shards);
                let makespan_ns = bottleneck_conns as u64 * per_conn_ns;
                let modeled_calls_per_sec = (total_calls * 1_000_000_000)
                    .checked_div(makespan_ns)
                    .unwrap_or(0);
                let row = Json::obj()
                    .field("transport", label)
                    .field("point", format!("c{clients}_s{shards}"))
                    .field("clients", clients as u64)
                    .field("shards", shards as u64);
                let row = percentile_fields(row, &mut samples)
                    .field("per_conn_modeled_ns", per_conn_ns)
                    .field("bottleneck_conns", bottleneck_conns as u64)
                    .field("modeled_makespan_ns", makespan_ns)
                    .field("modeled_calls_per_sec", modeled_calls_per_sec)
                    .field("reader_processed", reader_processed);
                rows.push(row);
            }
        }
    }
    header("shards", opts, git_rev).field("rows", Json::Arr(rows))
}

/// Payloads of the small-call sweep: the ≤128 B regime where Hadoop RPC
/// time is dominated by per-call metadata work, not bytes on the wire
/// (Table I's heartbeat/getFileInfo class of calls).
pub const SMALLCALL_PAYLOADS: &[usize] = &[1, 16, 64, 128];

/// Figure: small-call latency with and without the interned hot path.
///
/// Every `(transport, payload)` cell is measured once, on the shipped
/// allocation-free path (`interned`), and reported twice: the `legacy`
/// row is the same samples plus [`rpcoib::hostcost::legacy_call_ns`] per
/// call — the modeled cost of the pre-interning path's owned key
/// strings, fresh reply channel, and global-map lock rounds, a constant
/// the client used to charge to its ledger on every attempt. Calls repeat
/// one payload size per cell — the Figure-3 locality regime, where the
/// shadow pool's size history hits every time — so the delta isolates
/// metadata cost. No link jitter: the ledger is fully deterministic, and
/// `improvement_bp` (basis points of the legacy p50 saved by interning)
/// is exact.
pub fn run_smallcall(opts: &RunOpts, git_rev: &str) -> Json {
    let warmup = opts.iters(10, 40);
    let iters = opts.iters(50, 250);
    let legacy_ns = rpcoib::hostcost::legacy_call_ns();
    let mut rows = Vec::new();
    for (label, cfg) in transports() {
        for &payload in SMALLCALL_PAYLOADS {
            let env = boot(&cfg, opts.seed, None);
            let mut interned = modeled_samples(&env, payload, warmup, iters);
            env.client.shutdown();
            // Sorted once, up front: adding a constant keeps the order.
            interned.sort_unstable();
            let mut legacy: Vec<u64> = interned.iter().map(|ns| ns + legacy_ns).collect();
            let legacy_p50 = percentile_ns(&legacy, 0.50);
            let saved = legacy_p50 - percentile_ns(&interned, 0.50);
            let cell = |mode: &str, samples: &mut [u64]| {
                let row = Json::obj()
                    .field("transport", format!("{label}_{mode}"))
                    .field("payload", payload)
                    .field("mode", mode);
                percentile_fields(row, samples)
            };
            rows.push(cell("legacy", &mut legacy));
            rows.push(
                cell("interned", &mut interned)
                    .field("legacy_p50_ns", legacy_p50)
                    .field("improvement_bp", saved * 10_000 / legacy_p50.max(1)),
            );
        }
    }
    Json::obj()
        .field("figure", "smallcall")
        .field("seed", opts.seed)
        .field("quick", opts.quick)
        .field("jitter_ns", 0u64)
        .field("legacy_call_ns", legacy_ns)
        .field("git_rev", git_rev)
        .field("rows", Json::Arr(rows))
}

/// Payloads of the batching sweep: the 1–128 B regime where per-frame
/// overhead (stack charge + base latency per wire operation) dominates
/// and coalescing pays.
pub const BATCHING_PAYLOADS: &[usize] = &[1, 32, 128];

/// Queue depth of the multi-client point: how many small frames are
/// ready for one connection when a send turn's holder (or the client's
/// gathered flush) runs. Eight callers multiplexed on a connection is
/// the shape of the paper's multi-client small-call experiments.
const BATCH_DEPTH: usize = 8;

/// Figure: adaptive wire batching — what coalescing K queued small
/// frames into one wire operation saves, and proof it costs an idle
/// connection nothing.
///
/// Two kinds of rows, keyed by `point` only (so the `--check` gate never
/// collides arms that share a payload):
///
/// * `single_p{N}` — the Nagle-free guard: sequential single calls
///   through the full engine. A lone call never waits for company, so it
///   must cost exactly what one frame per wire operation costs; the
///   committed row is that cost, and CI holds the row byte-identical.
/// * `multi8_p{N}` — the multi-client point, measured at the transport
///   conn layer where it is deterministic: [`BATCH_DEPTH`] frames ready
///   at once (eight callers' worth) sent as K individual `send_msg`
///   calls versus one `send_frames` gather, sender + receiver ledger
///   deltas per burst. `speedup_bp` is the unbatched/batched modeled
///   cost ratio in basis points; the acceptance bar is ≥ 2×
///   (`speedup_bp >= 20000`) since coalescing pays the per-operation
///   overhead once instead of K times.
pub fn run_batching(opts: &RunOpts, git_rev: &str) -> Json {
    let warmup = opts.iters(5, 20);
    let iters = opts.iters(40, 200);
    let bursts = opts.iters(12, 48);
    let mut rows = Vec::new();

    for (label, cfg) in transports() {
        // Part A: the single-call latency guard. No jitter, so the ledger
        // is fully deterministic.
        for &payload in BATCHING_PAYLOADS {
            let env = boot(&cfg, opts.seed, None);
            let mut samples = modeled_samples(&env, payload, warmup, iters);
            let row = Json::obj()
                .field("transport", label)
                .field("point", format!("single_p{payload}"));
            rows.push(percentile_fields(row, &mut samples));
            env.client.shutdown();
        }

        // Part B: the multi-client burst point. Engine-level coalescing
        // depends on thread timing (how many callers pile up behind a
        // flush), so the serialized numbers come from the deterministic
        // conn-level equivalent: a burst of BATCH_DEPTH ready frames,
        // transmitted frame-at-a-time versus as one gather.
        for &payload in BATCHING_PAYLOADS {
            let key = rpcoib::intern::method_key("bench.Batching", "burst");
            let burst_totals = |batched: bool| -> Vec<u64> {
                let (fabric, sender, receiver, cli, srv) = conn_pair(&cfg, opts.seed);
                let frame = vec![0x6b_u8; payload];
                let run_burst = || {
                    if batched {
                        cli.send_frames(key, vec![frame.clone(); BATCH_DEPTH])
                            .expect("gathered burst");
                    } else {
                        for _ in 0..BATCH_DEPTH {
                            cli.send_msg(key, &mut |out| out.write_bytes(&frame))
                                .expect("per-frame burst");
                        }
                    }
                    for _ in 0..BATCH_DEPTH {
                        let (payload_in, _) =
                            srv.recv_msg(Duration::from_secs(10)).expect("burst recv");
                        assert_eq!(payload_in.len(), payload);
                    }
                };
                for _ in 0..2 {
                    run_burst(); // registration / pool warmup
                }
                (0..bursts)
                    .map(|_| {
                        let before = fabric.modeled_ns(sender) + fabric.modeled_ns(receiver);
                        run_burst();
                        fabric.modeled_ns(sender) + fabric.modeled_ns(receiver) - before
                    })
                    .collect()
            };
            let unbatched = burst_totals(false);
            let mut batched = burst_totals(true);
            let unbatched_ns: u64 = unbatched.iter().sum();
            let batched_ns: u64 = batched.iter().sum::<u64>().max(1);
            let frames = (BATCH_DEPTH * bursts) as u64;
            let row = Json::obj()
                .field("transport", label)
                .field("point", format!("multi{BATCH_DEPTH}_p{payload}"));
            let row = percentile_fields(row, &mut batched)
                .field("frames", frames)
                .field("unbatched_total_ns", unbatched_ns)
                .field("batched_total_ns", batched_ns)
                .field("unbatched_per_frame_ns", unbatched_ns / frames.max(1))
                .field("batched_per_frame_ns", batched_ns / frames.max(1))
                .field(
                    "modeled_calls_per_sec_unbatched",
                    (frames * 1_000_000_000)
                        .checked_div(unbatched_ns)
                        .unwrap_or(0),
                )
                .field(
                    "modeled_calls_per_sec_batched",
                    frames * 1_000_000_000 / batched_ns,
                )
                .field("speedup_bp", unbatched_ns * 10_000 / batched_ns);
            rows.push(row);
        }
    }
    header("batching", opts, git_rev).field("rows", Json::Arr(rows))
}

/// Handlers in the QoS admission model.
const QOS_HANDLERS: usize = 4;
/// Modeled handler service time per call.
const QOS_SERVICE_NS: u64 = 10_000;
/// Shared admission-queue capacity.
const QOS_CAPACITY: usize = 512;
/// Per-tenant quota (queued + executing) in the QoS-on arms.
const QOS_QUOTA: usize = 64;
/// Per-call deadline budget in the deadline-propagating (QoS-on) arms.
/// Sized between the light tenants' worst isolated sojourn (tens of µs)
/// and the flooder's quota-bound queue wait (hundreds of µs), so only
/// the flooder's stale backlog expires.
const QOS_BUDGET_NS: u64 = 200_000;
/// Light-tenant population the zipfian mix draws from.
const QOS_LIGHT_TENANTS: u64 = 200;
/// The misbehaving tenant's id.
const QOS_FLOODER: u64 = 1_000;

/// Deterministic splitmix64 step — the qos model's only randomness, so
/// the arrival streams replay exactly per seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One arrival in the qos model's virtual timeline.
struct QosArrival {
    at_ns: u64,
    tenant: u64,
}

/// Per-class (light aggregate / flooder) tally of one arm.
#[derive(Default)]
struct QosClass {
    arrivals: u64,
    executed: u64,
    shed: u64,
    busy: u64,
    /// Executed calls whose service *started* after their budget had
    /// already expired — the wasted work deadline shedding eliminates.
    wasted: u64,
    sojourn_ns: Vec<u64>,
}

impl QosClass {
    fn row(mut self, arm: &str, class: &str) -> Json {
        let row = Json::obj()
            .field("transport", "model")
            .field("point", format!("{arm}_{class}"))
            .field("arrivals", self.arrivals)
            .field("executed", self.executed)
            .field("shed", self.shed)
            .field("busy_rejected", self.busy)
            .field("wasted_executions", self.wasted);
        percentile_fields(row, &mut self.sojourn_ns)
    }
}

/// Figure: multi-tenant overload QoS — a zipfian mix of light tenants
/// plus one misbehaving flooder driven through the engine's *real*
/// [`AdmissionQueue`] by a single-threaded discrete-event model with an
/// explicit virtual clock. Four arms cross {qos on, off} × {flooder
/// present, quiet}: "on" runs the per-tenant quota, weighted-fair pop,
/// and deadline shedding exactly as the server does; "off" is the
/// pre-QoS FIFO. Everything is integer math over the seeded splitmix64
/// stream, so the file is byte-identical per seed.
///
/// The acceptance properties are asserted in-code: under the flooder,
/// the light tenants' p99 sojourn stays within 2× their quiet baseline
/// when QoS is on (and their calls are never shed); the QoS arms start
/// no call past its deadline (zero wasted executions) while the FIFO
/// flood arm demonstrably burns handler time on already-dead calls.
pub fn run_qos(opts: &RunOpts, git_rev: &str) -> Json {
    use rpcoib::admission::{AdmissionQueue, CallMeta};

    let light_calls = opts.iters(3_000, 15_000);
    let mut rows = Vec::new();
    let mut light_p99: std::collections::HashMap<&'static str, u64> =
        std::collections::HashMap::new();
    let mut wasted: std::collections::HashMap<&'static str, u64> = std::collections::HashMap::new();
    let mut on_flood_light_shed = 0u64;
    let mut on_flood_flooder_shed = 0u64;

    for (arm, qos_on, flood) in [
        ("on_quiet", true, false),
        ("on_flood", true, true),
        ("off_quiet", false, false),
        ("off_flood", false, true),
    ] {
        let mut rng = opts.seed ^ 0x9050_5f13_0dd1_u64;
        // Zipfian tenant selection: cumulative 1/rank weights, integer
        // scaled, binary-searched per draw.
        let zipf: Vec<u64> = {
            let mut acc = 0u64;
            (0..QOS_LIGHT_TENANTS)
                .map(|r| {
                    acc += 1_000_000 / (r + 1);
                    acc
                })
                .collect()
        };
        let zipf_total = *zipf.last().unwrap();

        // Light arrivals: mean 6 µs apart across the population (~42%
        // of the 4-handler service capacity on their own).
        let mut light = Vec::with_capacity(light_calls);
        let mut t = 0u64;
        for _ in 0..light_calls {
            t += 2_000 + splitmix64(&mut rng) % 8_000;
            let draw = splitmix64(&mut rng) % zipf_total;
            let tenant = 1 + zipf.partition_point(|&c| c <= draw) as u64;
            light.push(QosArrival { at_ns: t, tenant });
        }
        let horizon = t;
        // The flooder alone offers ~125% of total capacity.
        let mut flooder = Vec::new();
        if flood {
            let mut t = 0u64;
            loop {
                t += 1_500 + splitmix64(&mut rng) % 1_000;
                if t > horizon {
                    break;
                }
                flooder.push(QosArrival {
                    at_ns: t,
                    tenant: QOS_FLOODER,
                });
            }
        }
        // Merge the two streams by time (light first on ties).
        let mut arrivals = Vec::with_capacity(light.len() + flooder.len());
        let (mut i, mut j) = (0, 0);
        while i < light.len() || j < flooder.len() {
            let take_light =
                j >= flooder.len() || (i < light.len() && light[i].at_ns <= flooder[j].at_ns);
            if take_light {
                arrivals.push(&light[i]);
                i += 1;
            } else {
                arrivals.push(&flooder[j]);
                j += 1;
            }
        }

        let weights: Vec<(u64, u32)> = if qos_on {
            vec![(QOS_FLOODER, 1)]
        } else {
            Vec::new()
        };
        let quota = if qos_on { QOS_QUOTA } else { 0 };
        let queue: AdmissionQueue<(u64, u64)> = AdmissionQueue::new(QOS_CAPACITY, quota, &weights);
        let mut handlers = [0u64; QOS_HANDLERS];
        let mut light_tally = QosClass::default();
        let mut flood_tally = QosClass::default();

        // Pop everything poppable before `until`. The decision clock for
        // each pop is the freeing handler's time: for backlog that is
        // exactly when the pop happens (every queued call arrived before
        // the handler freed), and for a fresher pop the earlier reading
        // can only under-shed, never invent an expiry.
        let drain = |until: u64,
                     queue: &AdmissionQueue<(u64, u64)>,
                     handlers: &mut [u64; QOS_HANDLERS],
                     light_tally: &mut QosClass,
                     flood_tally: &mut QosClass| {
            loop {
                let slot = (0..QOS_HANDLERS).min_by_key(|&i| handlers[i]).unwrap();
                let free_at = handlers[slot];
                if free_at > until {
                    break;
                }
                let popped = queue.try_pop(free_at);
                for (_meta, (tenant, _arrival)) in &popped.shed {
                    if *tenant == QOS_FLOODER {
                        flood_tally.shed += 1;
                    } else {
                        light_tally.shed += 1;
                    }
                }
                match popped.run {
                    Some((meta, (tenant, arrival))) => {
                        let start = free_at.max(arrival);
                        let done = start + QOS_SERVICE_NS;
                        handlers[slot] = done;
                        queue.release(meta.tenant);
                        let tally = if tenant == QOS_FLOODER {
                            &mut *flood_tally
                        } else {
                            &mut *light_tally
                        };
                        tally.executed += 1;
                        tally.sojourn_ns.push(done - arrival);
                        if start > arrival + QOS_BUDGET_NS {
                            tally.wasted += 1;
                        }
                    }
                    None => {
                        if popped.shed.is_empty() {
                            break; // nothing poppable until more arrives
                        }
                    }
                }
            }
        };

        for ev in arrivals {
            drain(
                ev.at_ns,
                &queue,
                &mut handlers,
                &mut light_tally,
                &mut flood_tally,
            );
            let tally = if ev.tenant == QOS_FLOODER {
                &mut flood_tally
            } else {
                &mut light_tally
            };
            tally.arrivals += 1;
            let expires_at_ns = qos_on.then_some(ev.at_ns + QOS_BUDGET_NS);
            let meta = CallMeta {
                tenant: ev.tenant,
                expires_at_ns,
                class: Default::default(),
            };
            if queue.try_push(meta, (ev.tenant, ev.at_ns)).is_err() {
                tally.busy += 1;
            }
            drain(
                ev.at_ns,
                &queue,
                &mut handlers,
                &mut light_tally,
                &mut flood_tally,
            );
        }
        while !queue.is_empty() {
            drain(
                u64::MAX,
                &queue,
                &mut handlers,
                &mut light_tally,
                &mut flood_tally,
            );
        }

        let mut sorted = light_tally.sojourn_ns.clone();
        sorted.sort_unstable();
        light_p99.insert(arm, percentile_ns(&sorted, 0.99));
        wasted.insert(arm, light_tally.wasted + flood_tally.wasted);
        if arm == "on_flood" {
            on_flood_light_shed = light_tally.shed;
            on_flood_flooder_shed = flood_tally.shed;
        }
        if flood {
            rows.push(flood_tally.row(arm, "flooder"));
        }
        rows.push(light_tally.row(arm, "light"));
    }

    // The acceptance properties this figure exists to hold.
    let quiet = light_p99["on_quiet"].max(1);
    let flooded = light_p99["on_flood"];
    assert!(
        flooded <= 2 * quiet,
        "QoS-on light p99 under flood ({flooded} ns) exceeds 2x the quiet \
         baseline ({quiet} ns)"
    );
    assert_eq!(
        wasted["on_quiet"] + wasted["on_flood"],
        0,
        "a deadline-propagating arm must never start a call past its budget"
    );
    assert!(
        wasted["off_flood"] > 0,
        "the FIFO flood arm should demonstrably execute already-dead calls"
    );
    assert!(
        on_flood_flooder_shed > 0,
        "the flooder's expired backlog must be shed, not executed"
    );
    assert_eq!(
        on_flood_light_shed, 0,
        "isolated light tenants never wait long enough to be shed"
    );

    header("qos", opts, git_rev)
        .field("light_p99_ratio_bp", flooded * 10_000 / quiet)
        .field("rows", Json::Arr(rows))
}

/// Active connections in the connections figure — the handful actually
/// carrying traffic while the idle population sits parked.
const CONN_ACTIVE: usize = 16;
/// Idle-population sweep: 0 idle is the baseline arm every other arm's
/// active-call latency must match under the event model.
pub const CONN_IDLE_COUNTS: &[usize] = &[0, 1, 100, 1_000, 10_000, 20_000, 50_000];
/// Frames a reader burst serves per pop before re-arming (level-trigger
/// fairness budget, mirroring the server's per-pop burst).
const CONN_BURST: usize = 4;
/// Arrivals between reader drain points — batching several arrivals per
/// drain is what exercises the wake token's dedup (many fires, one pop).
const CONN_DRAIN_EVERY: usize = 4;
/// Modeled sender-side cost of firing a ready hook (enqueue a token).
const CONN_WAKE_NS: u64 = 400;
/// Modeled reader cost of one ready-queue pop (mutex + condvar round).
const CONN_POP_NS: u64 = 300;
/// Modeled reader cost of reading + dispatching one frame.
const CONN_FRAME_NS: u64 = 10_000;
/// Modeled cost of one `poll_ready` probe in the sweep model — what the
/// pre-event reader paid per connection per scan pass.
const CONN_PROBE_NS: u64 = 150;

/// Per-arm tally of the connections model.
#[derive(Default)]
struct ConnTally {
    delivered: u64,
    wakes: u64,
    pops: u64,
    rearms: u64,
    passes: u64,
    probes: u64,
    host_ns: u64,
    idle_cost_ns: u64,
    queue_depth_max: u64,
    sojourn_ns: Vec<u64>,
}

/// Figure: connection scaling of the reader's readiness model — 1 to 50k
/// connections, [`CONN_ACTIVE`] of them active, the rest idle. Both arms
/// drive the *same* seeded arrival stream (independent of the idle
/// count) through a discrete-event model with an explicit virtual clock:
///
/// * `event_idle{N}` runs the engine's **real** [`ReadyQueue`] +
///   [`WakeState`] (token dedup, `begin_poll` re-arm discipline, burst
///   budget + level-trigger re-queue) and charges [`CONN_WAKE_NS`] per
///   hook fire, [`CONN_POP_NS`] per pop, [`CONN_FRAME_NS`] per frame.
///   Idle connections never fire, so they charge exactly nothing.
/// * `sweep_idle{N}` replays the pre-event reader: every wake-up scans
///   the whole slab, charging [`CONN_PROBE_NS`] × conns per pass before
///   any frame is served.
///
/// All arithmetic is integer over the seeded splitmix64 stream, so the
/// file is byte-identical per seed. The acceptance properties are
/// asserted in-code: the event arms' active-call sojourns are *identical*
/// across the whole idle sweep (per-idle-connection cost is zero, not
/// merely small), every frame is delivered with the queue drained, and
/// the sweep arms' idle cost grows with the population until it dwarfs
/// the event model at 20k+ connections.
pub fn run_connections(opts: &RunOpts, git_rev: &str) -> Json {
    use rpcoib::readiness::{token, token_slot};
    use std::collections::VecDeque;

    let calls_per_conn = opts.iters(8, 32);

    // One arrival stream per (seed), shared by every arm: per active
    // conn, `calls_per_conn` frames 2–10 µs apart, merged by time (ties
    // broken by conn index, so the order is fully deterministic).
    let mut rng = opts.seed ^ 0xc0_4e_c7_10_4e_5d_u64;
    let mut arrivals: Vec<(u64, usize)> = Vec::with_capacity(CONN_ACTIVE * calls_per_conn);
    for conn in 0..CONN_ACTIVE {
        let mut t = 0u64;
        for _ in 0..calls_per_conn {
            t += 2_000 + splitmix64(&mut rng) % 8_000;
            arrivals.push((t, conn));
        }
    }
    arrivals.sort_unstable();
    let total_frames = arrivals.len() as u64;

    let run_event = |idle: usize| -> ConnTally {
        let queue = Arc::new(rpcoib::ReadyQueue::new(None));
        // Idle conns occupy slots [0, idle); active conns sit above them,
        // so a stale-slot bug would index into the idle population.
        let wakes: Vec<rpcoib::WakeState> = (0..idle + CONN_ACTIVE)
            .map(|slot| rpcoib::WakeState::new(token(slot, 0), Arc::clone(&queue)))
            .collect();
        let mut pending: Vec<VecDeque<u64>> = vec![VecDeque::new(); CONN_ACTIVE];
        let mut tally = ConnTally::default();
        let mut reader_free = 0u64;
        let mut drain = |tally: &mut ConnTally, pending: &mut Vec<VecDeque<u64>>| {
            while let Some(tok) = queue.try_pop() {
                let k = token_slot(tok) - idle;
                tally.pops += 1;
                tally.host_ns += CONN_POP_NS;
                wakes[idle + k].begin_poll();
                let Some(&floor) = pending[k].front() else {
                    continue; // spurious-free: token but no frame ⇒ re-armed race
                };
                reader_free = reader_free.max(floor) + CONN_POP_NS;
                for _ in 0..CONN_BURST {
                    let Some(arr) = pending[k].pop_front() else {
                        break;
                    };
                    reader_free += CONN_FRAME_NS;
                    tally.host_ns += CONN_FRAME_NS;
                    tally.delivered += 1;
                    tally.sojourn_ns.push(reader_free - arr);
                }
                if !pending[k].is_empty() {
                    // Level-trigger re-arm: still readable, back of the line.
                    tally.rearms += 1;
                    wakes[idle + k].wake();
                }
            }
        };
        for (i, &(at, k)) in arrivals.iter().enumerate() {
            pending[k].push_back(at);
            tally.wakes += 1;
            tally.host_ns += CONN_WAKE_NS;
            wakes[idle + k].wake();
            tally.queue_depth_max = tally.queue_depth_max.max(queue.len() as u64);
            if i % CONN_DRAIN_EVERY == CONN_DRAIN_EVERY - 1 {
                drain(&mut tally, &mut pending);
            }
        }
        while tally.delivered < total_frames {
            drain(&mut tally, &mut pending);
        }
        assert!(queue.is_empty(), "event model left tokens queued");
        tally
    };

    let run_sweep = |idle: usize| -> ConnTally {
        let total_conns = (idle + CONN_ACTIVE) as u64;
        let mut pending: Vec<VecDeque<u64>> = vec![VecDeque::new(); CONN_ACTIVE];
        let mut tally = ConnTally::default();
        let mut reader_free = 0u64;
        let mut drain = |tally: &mut ConnTally, pending: &mut Vec<VecDeque<u64>>| {
            if pending.iter().all(VecDeque::is_empty) {
                return;
            }
            // One scan pass probes every conn — idle ones included — and
            // only then serves whatever the probes found ready.
            let floor = pending
                .iter()
                .filter_map(|q| q.front().copied())
                .min()
                .unwrap();
            tally.passes += 1;
            tally.probes += total_conns;
            tally.host_ns += total_conns * CONN_PROBE_NS;
            tally.idle_cost_ns += idle as u64 * CONN_PROBE_NS;
            reader_free = reader_free.max(floor) + total_conns * CONN_PROBE_NS;
            for q in pending.iter_mut() {
                while let Some(arr) = q.pop_front() {
                    reader_free += CONN_FRAME_NS;
                    tally.host_ns += CONN_FRAME_NS;
                    tally.delivered += 1;
                    tally.sojourn_ns.push(reader_free - arr);
                }
            }
        };
        for (i, &(at, k)) in arrivals.iter().enumerate() {
            pending[k].push_back(at);
            if i % CONN_DRAIN_EVERY == CONN_DRAIN_EVERY - 1 {
                drain(&mut tally, &mut pending);
            }
        }
        drain(&mut tally, &mut pending);
        tally
    };

    let mut rows = Vec::new();
    let mut event_p50 = Vec::new();
    let mut sweep_idle_cost = Vec::new();
    let mut sweep_p50 = Vec::new();
    for &idle in CONN_IDLE_COUNTS {
        for arm in ["event", "sweep"] {
            let mut tally = if arm == "event" {
                run_event(idle)
            } else {
                run_sweep(idle)
            };
            assert_eq!(
                tally.delivered, total_frames,
                "{arm}_idle{idle}: lost frames"
            );
            let row = Json::obj()
                .field("transport", "model")
                .field("point", format!("{arm}_idle{idle}"))
                .field("idle_conns", idle as u64)
                .field("active_conns", CONN_ACTIVE as u64)
                .field("frames", tally.delivered)
                .field("wakes", tally.wakes)
                .field("pops", tally.pops)
                .field("rearms", tally.rearms)
                .field("sweep_passes", tally.passes)
                .field("probes", tally.probes)
                .field("host_ns", tally.host_ns)
                .field("idle_cost_ns", tally.idle_cost_ns)
                .field("queue_depth_max", tally.queue_depth_max);
            let row = percentile_fields(row, &mut tally.sojourn_ns);
            if arm == "event" {
                assert_eq!(tally.idle_cost_ns, 0, "idle conns must charge nothing");
                event_p50.push(tally.sojourn_ns[tally.sojourn_ns.len() / 2]);
            } else {
                sweep_idle_cost.push(tally.idle_cost_ns);
                sweep_p50.push(tally.sojourn_ns[tally.sojourn_ns.len() / 2]);
            }
            rows.push(row);
        }
    }

    // The acceptance properties this figure exists to hold. The event
    // arms share one arrival stream and idle conns never fire, so the
    // sojourn distribution must be *identical* across the idle sweep —
    // flat per-idle-conn cost, exactly zero.
    for (i, &p50) in event_p50.iter().enumerate() {
        assert_eq!(
            p50, event_p50[0],
            "event-model p50 at idle={} diverged from the 0-idle arm",
            CONN_IDLE_COUNTS[i]
        );
    }
    for w in sweep_idle_cost.windows(2) {
        assert!(
            w[1] > w[0],
            "sweep idle cost must grow with the idle population"
        );
    }
    let last = CONN_IDLE_COUNTS.len() - 1;
    assert!(
        sweep_p50[last] > 10 * event_p50[last].max(1),
        "at 50k conns the sweep's scan cost must dwarf the event model"
    );

    header("connections", opts, git_rev)
        .field("active_conns", CONN_ACTIVE as u64)
        .field("wake_ns", CONN_WAKE_NS)
        .field("pop_ns", CONN_POP_NS)
        .field("frame_ns", CONN_FRAME_NS)
        .field("probe_ns", CONN_PROBE_NS)
        .field("rows", Json::Arr(rows))
}

/// Bulk-plane payload sweep: large transfers, 64 KiB – 2 MiB.
pub const BULK_PAYLOADS: &[usize] = &[65536, 262144, 1048576, 2097152];

/// Part B pipeline-model geometry: a 16 MiB peer region carved as one
/// slot (the paper's one-deep credit gate) versus sixteen 1 MiB slots,
/// with 16 transfers issued by 4 sender threads.
const BULK_PIPE_REGION: usize = 16 * 1024 * 1024;
const BULK_PIPE_SLOTS: usize = 16;
const BULK_PIPE_TRANSFERS: usize = 16;
const BULK_PIPE_THREADS: usize = 4;

/// Deterministic stage-pipeline makespan for [`BULK_PIPE_TRANSFERS`]
/// large frames of `payload` bytes through a `slots`-slot ring over a
/// [`BULK_PIPE_REGION`]-byte region — the same consumer-stage model shape
/// as the QoS admission figure, driven by the calibrated network model.
///
/// Stages per frame: sender-thread CPU (stack cost of the header write
/// plus each gather segment), a serialized sender egress (wire time of
/// every write), message latency, then a serialized receiver stage that
/// is the payload's ingress wire time alone: the frame is read in the
/// slots it landed in, so there is no region→pool memcpy to model (the
/// reader's own pass over the bytes is host software, which this ledger
/// charges on neither transport).
/// Slot credits mirror the transport's ring arithmetic exactly — in-order
/// allocation, wrap-skip-as-consume, full-drain reset — and each frame's
/// consumed slots return one message latency after it has been received
/// (readers here release in arrival order, at once).
/// With one slot every frame waits out its predecessor's full
/// receive-and-credit round trip; with sixteen, frames overlap until the
/// slowest stage (egress or ingress) saturates.
fn bulk_makespan(m: &simnet::NetworkModel, slots: usize, payload: usize, seg_limit: usize) -> u64 {
    let slot = BULK_PIPE_REGION / slots;
    let footprint = payload + 8;
    let k = footprint.div_ceil(slot);
    assert!(k <= slots, "pipeline-model frame must fit the ring");

    let mut stack_cpu = m.stack_ns(8);
    let mut wire_total = m.wire_ns(8);
    let mut remaining = payload;
    while remaining > 0 {
        let n = remaining.min(seg_limit);
        stack_cpu += m.stack_ns(n);
        wire_total += m.wire_ns(n);
        remaining -= n;
    }
    let ingress = m.wire_ns(payload);
    let lat = m.base_latency_ns;

    let mut thread_free = [0u64; BULK_PIPE_THREADS];
    let mut egress_free = 0u64;
    let mut recv_free = 0u64;
    // Free-at times of the ring's slots, oldest first. Each grant pushes
    // its consumed slots back with their (future) credit-return time, so
    // the queue always holds exactly `slots` entries, sorted.
    let mut returns: std::collections::VecDeque<u64> = std::iter::repeat_n(0, slots).collect();
    let mut ring_pos = 0usize;
    let mut makespan = 0u64;
    for i in 0..BULK_PIPE_TRANSFERS {
        let tail = slots - ring_pos;
        let (needed, consumed) = if k <= tail {
            ring_pos = (ring_pos + k) % slots;
            (k, k)
        } else if tail + k <= slots {
            // Wrap: the tail stub is consumed along with the frame.
            ring_pos = k % slots;
            (tail + k, tail + k)
        } else {
            // Full drain, then the cursor resets to slot 0.
            ring_pos = k % slots;
            (slots, k)
        };
        let credit_ready = returns[needed - 1];
        for _ in 0..consumed.min(needed) {
            returns.pop_front();
        }
        let tid = i % BULK_PIPE_THREADS;
        let start = thread_free[tid].max(credit_ready);
        let posted = (start + stack_cpu).max(egress_free);
        thread_free[tid] = posted;
        egress_free = posted + wire_total;
        let done = recv_free.max(egress_free + lat) + ingress;
        recv_free = done;
        let credit_at = done + lat;
        for _ in 0..consumed {
            returns.push_back(credit_at);
        }
        makespan = makespan.max(done);
    }
    makespan
}

/// The one-sided bulk data-plane figure (DESIGN.md §12).
///
/// * `lone_p{N}_slots{S}` — real-connection lone-transfer guard: one
///   large frame at a time, one way, through a 1-slot ring (the paper's
///   one-deep gate) versus the default 4-slot ring. The receiver lets
///   each frame go unread, as a reader that is done with it would, and
///   has nothing to send back and no idle moment; the sender then
///   absorbs whatever credit message came. The gate sends one per
///   transfer, at the release. The deeper ring holds a credit below its
///   batch for a frame to carry, so it sends fewer, and the arms'
///   ledgers differ by *exactly* the messages it did not send
///   (`ledger_saved_ns == (one_deep_credit_msgs - credit_msgs) ×` one
///   one-byte send, no transfer costing more than the gate's): slot
///   accounting is bookkeeping, and what traffic it makes is counted.
///   The measured window also asserts the registration-cache claim —
///   zero new registrations, zero pool misses, zero oversize allocations
///   at steady state, on both ends.
/// * `pipe_p{N}` — the deterministic pipeline model: makespan of 16
///   pipelined transfers, one-deep versus 16 slots ([`bulk_makespan`]).
///   Acceptance: `speedup_bp >= 20000` (≥ 2×) on every payload.
pub fn run_bulk(opts: &RunOpts, git_rev: &str) -> Json {
    use rpcoib::transport::Conn;

    let base = BenchConfig::rpcoib();
    let warmup = opts.iters(3, 6);
    let iters = opts.iters(12, 48);
    let mut rows = Vec::new();

    // Part A: lone-transfer latency and steady-state counters.
    // What a flow-control message of its own charges the two ledgers.
    let credit_ns = base.model.stack_ns(1) + base.model.wire_ns(1) + base.model.base_latency_ns;
    for &payload in BULK_PAYLOADS {
        // The one-deep arm's p50, samples and credit messages.
        let mut one_deep: Option<(u64, Vec<u64>, u64)> = None;
        for &slots in &[1usize, 4] {
            let mut rpc = base.rpc.clone();
            rpc.large_slots = slots;
            let (fabric, cli_node, srv_node, cli, srv, cli_ctx, srv_ctx) =
                bulk_pair(base.model, &rpc, opts.seed);
            let key = rpcoib::intern::method_key("bench.Bulk", "lone");
            let body = vec![0x6b_u8; payload];
            let transfer = || {
                cli.send_msg(key, &mut |out| out.write_bytes(&body))
                    .expect("bulk send");
                let (got, _) = srv.recv_msg(Duration::from_secs(10)).expect("bulk recv");
                assert_eq!(got.len(), payload);
                // The frame was handed over in its slot; dropping it is
                // what owes the slot back.
                drop(got);
                // Absorb the credit return, if that release sent one,
                // into the sender's ledger (a credit-only completion
                // surfaces as a timeout).
                match cli.recv_msg(Duration::from_millis(5)) {
                    Err(rpcoib::RpcError::Timeout) => {}
                    other => panic!("expected credit-only recv, got {other:?}"),
                }
            };
            for _ in 0..warmup {
                transfer();
            }
            let (sends_before, _, _, regs_before) = fabric.stats().snapshot();
            let (_, cli_miss_b, _, cli_over_b) = cli_ctx.pool_stats();
            let (_, srv_miss_b, _, srv_over_b) = srv_ctx.pool_stats();
            let mut samples: Vec<u64> = (0..iters)
                .map(|_| {
                    let before = fabric.modeled_ns(cli_node) + fabric.modeled_ns(srv_node);
                    transfer();
                    fabric.modeled_ns(cli_node) + fabric.modeled_ns(srv_node) - before
                })
                .collect();
            let (sends_after, _, _, regs_after) = fabric.stats().snapshot();
            // Every frame is an RDMA write: what was *sent* is flow control.
            let credit_msgs = sends_after - sends_before;
            let (_, cli_miss_a, _, cli_over_a) = cli_ctx.pool_stats();
            let (_, srv_miss_a, _, srv_over_a) = srv_ctx.pool_stats();
            let new_regs = regs_after - regs_before;
            let new_misses = (cli_miss_a - cli_miss_b) + (srv_miss_a - srv_miss_b);
            let new_oversize = (cli_over_a - cli_over_b) + (srv_over_a - srv_over_b);
            assert_eq!(
                new_regs, 0,
                "lone_p{payload}_slots{slots}: steady-state large calls registered memory"
            );
            assert_eq!(
                new_misses, 0,
                "lone_p{payload}_slots{slots}: steady-state large calls missed the pool"
            );
            assert_eq!(
                new_oversize, 0,
                "lone_p{payload}_slots{slots}: steady-state large calls allocated oversize"
            );
            let in_order = samples.clone();
            let row = Json::obj()
                .field("transport", "verbs")
                .field("point", format!("lone_p{payload}_slots{slots}"));
            let mut row = percentile_fields(row, &mut samples)
                .field("steady_registrations", new_regs)
                .field("steady_pool_misses", new_misses)
                .field("steady_oversize", new_oversize)
                .field("credit_msgs", credit_msgs);
            let p50 = percentile_ns(&samples, 0.50);
            match &one_deep {
                None => {
                    assert_eq!(
                        credit_msgs, iters as u64,
                        "lone_p{payload}: the one-deep gate credits every transfer at once"
                    );
                    one_deep = Some((p50, in_order, credit_msgs));
                }
                Some((gate_p50, gate, gate_msgs)) => {
                    assert!(
                        in_order.iter().zip(gate).all(|(multi, gate)| multi <= gate),
                        "lone_p{payload}: a multi-slot ring made a lone transfer cost more \
                         than the one-deep gate ({in_order:?} vs {gate:?} ns)"
                    );
                    let saved = gate.iter().sum::<u64>() - in_order.iter().sum::<u64>();
                    assert!(
                        credit_msgs <= *gate_msgs && saved == (gate_msgs - credit_msgs) * credit_ns,
                        "lone_p{payload}: the arms' ledgers differ by {saved} ns, their credit \
                         messages by {gate_msgs} - {credit_msgs} of {credit_ns} ns"
                    );
                    row = row
                        .field("one_deep_p50_ns", *gate_p50)
                        .field("one_deep_credit_msgs", *gate_msgs)
                        .field("ledger_saved_ns", saved);
                }
            }
            rows.push(row);
        }
    }

    // Part B: the pipelining claim, as a deterministic makespan model.
    for &payload in BULK_PAYLOADS {
        let one = bulk_makespan(&base.model, 1, payload, base.rpc.recv_buf_bytes);
        let multi = bulk_makespan(
            &base.model,
            BULK_PIPE_SLOTS,
            payload,
            base.rpc.recv_buf_bytes,
        );
        let speedup = one * 10_000 / multi.max(1);
        assert!(
            speedup >= 20_000,
            "pipe_p{payload}: multi-slot ring must model ≥2× pipelined throughput, \
             got {speedup} bp ({one} vs {multi} ns)"
        );
        rows.push(
            Json::obj()
                .field("transport", "model")
                .field("point", format!("pipe_p{payload}"))
                .field("region_bytes", BULK_PIPE_REGION as u64)
                .field("slots", BULK_PIPE_SLOTS as u64)
                .field("transfers", BULK_PIPE_TRANSFERS as u64)
                .field("sender_threads", BULK_PIPE_THREADS as u64)
                .field("makespan_one_deep_ns", one)
                .field("makespan_multi_slot_ns", multi)
                .field("p99_ns", multi)
                .field("speedup_bp", speedup),
        );
    }

    header("bulk", opts, git_rev).field("rows", Json::Arr(rows))
}

/// A raw verbs conn pair on a fresh seeded fabric, with both endpoints'
/// [`rpcoib::IbContext`]s exposed so the bulk figure can read pool and
/// registration counters. Geometry comes from `rpc` verbatim.
#[allow(clippy::type_complexity)]
fn bulk_pair(
    net: simnet::NetworkModel,
    rpc: &rpcoib::RpcConfig,
    seed: u64,
) -> (
    Fabric,
    NodeId,
    NodeId,
    Arc<rpcoib::transport::rdma::RdmaConn>,
    Arc<rpcoib::transport::rdma::RdmaConn>,
    rpcoib::IbContext,
    rpcoib::IbContext,
) {
    use rpcoib::transport::rdma::RdmaConn;
    use simnet::SimListener;

    let fabric = Fabric::new(net);
    fabric.set_fault_seed(seed);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let addr = SimAddr::new(server_node, 9701);
    let listener = SimListener::bind(&fabric, addr).expect("bind");
    let cli_ctx = rpcoib::IbContext::new(&fabric, client_node, rpc).expect("client ctx");
    let srv_ctx = rpcoib::IbContext::new(&fabric, server_node, rpc).expect("server ctx");
    let f2 = fabric.clone();
    let ctx2 = cli_ctx.clone();
    let rpc2 = rpc.clone();
    let h = std::thread::spawn(move || {
        let stream = simnet::SimStream::connect(&f2, client_node, addr).unwrap();
        RdmaConn::bootstrap(&stream, &ctx2, &rpc2).unwrap()
    });
    let (srv_stream, _) = listener.accept().expect("accept");
    let srv = RdmaConn::bootstrap(&srv_stream, &srv_ctx, rpc).expect("server bootstrap");
    let cli = h.join().expect("client bootstrap");
    (
        fabric,
        client_node,
        server_node,
        Arc::new(cli),
        Arc::new(srv),
        cli_ctx,
        srv_ctx,
    )
}

/// A raw transport conn pair on a fresh seeded fabric: the client end,
/// the server end, and the two node ids whose ledgers the batching burst
/// reads. Socket conns get the engine's framing buffer defaults; verbs
/// conns bootstrap through the same stream exchange the engine uses.
#[allow(clippy::type_complexity)]
fn conn_pair(
    cfg: &BenchConfig,
    seed: u64,
) -> (
    Fabric,
    NodeId,
    NodeId,
    Arc<dyn rpcoib::transport::Conn>,
    Arc<dyn rpcoib::transport::Conn>,
) {
    use rpcoib::transport::rdma::RdmaConn;
    use rpcoib::transport::socket::{SocketConn, SERVER_INIT_BUF};
    use simnet::SimListener;

    let fabric = Fabric::new(cfg.model);
    fabric.set_fault_seed(seed);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let addr = SimAddr::new(server_node, 9700);
    let listener = SimListener::bind(&fabric, addr).expect("bind");
    let f2 = fabric.clone();
    let connect =
        std::thread::spawn(move || simnet::SimStream::connect(&f2, client_node, addr).unwrap());
    let (srv_stream, _) = listener.accept().expect("accept");
    let cli_stream = connect.join().expect("connect");
    if cfg.rpc.ib_enabled {
        let cli_ctx = rpcoib::IbContext::new(&fabric, client_node, &cfg.rpc).expect("client ctx");
        let srv_ctx = rpcoib::IbContext::new(&fabric, server_node, &cfg.rpc).expect("server ctx");
        let f3 = fabric.clone();
        let rpc = cfg.rpc.clone();
        let h = std::thread::spawn(move || {
            let _ = &f3;
            RdmaConn::bootstrap(&cli_stream, &cli_ctx, &rpc).unwrap()
        });
        let srv = RdmaConn::bootstrap(&srv_stream, &srv_ctx, &cfg.rpc).expect("server bootstrap");
        let cli = h.join().expect("client bootstrap");
        (
            fabric,
            client_node,
            server_node,
            Arc::new(cli),
            Arc::new(srv),
        )
    } else {
        let cli = SocketConn::new(cli_stream, wire::buffer::INITIAL_CAPACITY);
        let srv = SocketConn::new(srv_stream, SERVER_INIT_BUF);
        (
            fabric,
            client_node,
            server_node,
            Arc::new(cli),
            Arc::new(srv),
        )
    }
}

/// Best-effort `git rev-parse HEAD` (the files record provenance; two
/// runs from the same checkout still diff byte-identical).
/// OS workers driving the `handlers_mn` model arms (the figure's
/// reference point: "100k parked calls on 4 workers").
const MN_WORKERS: usize = 4;
/// Modeled service cost of one fast call's single poll.
const MN_FAST_SERVICE_NS: u64 = 4_000;
/// Modeled cost of a poll that parks — or later retires — a suspended
/// call frame (queue ops + one closure invocation; no stack switch).
const MN_PARK_POLL_NS: u64 = 500;

/// Figure: the handler runtime — parked calls cost bytes, not threads.
///
/// **Part A (real engine, both transports).** A lone sequential
/// ping-pong: the reference cost of a call that never suspends (its
/// first poll completes on the worker's stack; the scheduler in Part B
/// never sees it).
///
/// **Part B (virtual time).** The *real* [`Sched`] — same queues, same
/// wake cells, same timer heap the server mounts — driven
/// single-threaded on a virtual clock: a `quiet` arm runs a seeded fast
/// call stream alone; the `parked_flood` arm first parks ≥ 1000 call
/// frames on 4 workers, runs the identical fast stream *over* them,
/// then wakes and drains the lot. Asserted in-code: parked-peak ≥ 1000,
/// fast-call p99 ≤ 2× the quiet baseline, every frame retired, zero
/// residue after the drain. Integer arithmetic over splitmix64 keeps
/// the file byte-identical per seed.
pub fn run_handlers_mn(opts: &RunOpts, git_rev: &str) -> Json {
    use rpcoib::metrics::{MetricsRegistry, ShardRole};
    use rpcoib::{Sched, Step};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    let mut rows = Vec::new();

    // ---- Part A: a lone call on the real engine. ----
    let warmup = opts.iters(5, 20);
    let iters = opts.iters(40, 200);
    for (label, cfg) in transports() {
        let env = boot(&cfg, opts.seed, Some(JITTER));
        let mut samples = modeled_samples(&env, 512, warmup, iters);
        let row = Json::obj().field("transport", label).field("point", "lone");
        rows.push(percentile_fields(row, &mut samples));
        env.client.shutdown();
    }

    // ---- Part B: the runtime itself under a parked-call flood. ----
    let parked_tasks = opts.iters(1_500, 20_000);
    let fast_calls = opts.iters(3_000, 15_000);
    let mut fast_p99: std::collections::HashMap<&'static str, u64> =
        std::collections::HashMap::new();
    for (arm, parked_n) in [("quiet", 0usize), ("parked_flood", parked_tasks)] {
        let metrics = MetricsRegistry::new(false);
        let stats: Vec<_> = (0..MN_WORKERS)
            .map(|i| metrics.register_shard(ShardRole::Worker, i))
            .collect();
        let sched = Sched::new(MN_WORKERS, stats);
        // The driver's clock reading at the current poll, visible to the
        // task closures (they compute their own completion time), and
        // the cost each closure charges for the poll that just ran.
        let now = Arc::new(AtomicU64::new(0));
        let poll_cost = Arc::new(AtomicU64::new(0));
        let woken = Arc::new(AtomicU64::new(0));
        let sojourns: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(fast_calls)));
        let handles = Arc::new(Mutex::new(Vec::with_capacity(parked_n)));

        // Park phase: `parked_n` calls spawn round-robin onto the worker
        // queues (exercising local pops and steals), poll once, and
        // suspend on their wake handles. Each frame now costs bytes.
        for i in 0..parked_n {
            let handles = Arc::clone(&handles);
            let woken = Arc::clone(&woken);
            let poll_cost = Arc::clone(&poll_cost);
            sched.spawn(i % MN_WORKERS, move |cx| {
                poll_cost.store(MN_PARK_POLL_NS, Ordering::Relaxed);
                if cx.polls() == 0 {
                    handles.lock().unwrap().push(cx.wake_handle());
                    return Step::Park;
                }
                woken.fetch_add(1, Ordering::Relaxed);
                Step::Done
            });
        }

        // Virtual-time driver, mirroring `run_qos`: the next poll runs
        // on the earliest-free worker at `max(free_at, floor)`; `floor`
        // is the newest arrival, so an idle worker never polls a call
        // before it exists.
        let mut free_at = [0u64; MN_WORKERS];
        let drain = |until: u64, floor: u64, free_at: &mut [u64; MN_WORKERS], sched: &Sched| loop {
            let slot = (0..MN_WORKERS).min_by_key(|&i| free_at[i]).unwrap();
            let t = free_at[slot].max(floor);
            if t > until {
                break;
            }
            sched.fire_timers(t);
            let Some(task) = sched.next_task(slot) else {
                break;
            };
            now.store(t, Ordering::Relaxed);
            sched.run(slot, task, t);
            free_at[slot] = t + poll_cost.load(Ordering::Relaxed);
        };
        drain(u64::MAX, 0, &mut free_at, &sched);
        if parked_n > 0 {
            assert!(
                sched.parked() == parked_n,
                "{arm}: {} of {parked_n} frames parked",
                sched.parked()
            );
        }

        // Fast stream: seeded arrivals (mean 6 µs apart), one-poll calls
        // racing over the parked population.
        let stream_base = *free_at.iter().max().unwrap();
        let mut rng = opts.seed ^ 0x004d_4e50_5231_300a_u64;
        let mut at = stream_base;
        for _ in 0..fast_calls {
            at += 2_000 + splitmix64(&mut rng) % 8_000;
            drain(at, 0, &mut free_at, &sched);
            let arrival = at;
            let now = Arc::clone(&now);
            let poll_cost = Arc::clone(&poll_cost);
            let sojourns = Arc::clone(&sojourns);
            sched.inject(move |_cx| {
                poll_cost.store(MN_FAST_SERVICE_NS, Ordering::Relaxed);
                let done = now.load(Ordering::Relaxed) + MN_FAST_SERVICE_NS;
                sojourns.lock().unwrap().push(done - arrival);
                Step::Done
            });
            drain(at, at, &mut free_at, &sched);
        }
        drain(u64::MAX, at, &mut free_at, &sched);

        // Wake-and-drain: every parked frame retires; nothing survives.
        let wake_at = free_at.iter().max().unwrap().max(&at) + 1;
        for h in handles.lock().unwrap().drain(..) {
            h.wake();
        }
        drain(u64::MAX, wake_at, &mut free_at, &sched);
        assert_eq!(
            woken.load(Ordering::Relaxed) as usize,
            parked_n,
            "{arm}: every parked frame must be woken and retired exactly once"
        );
        assert_eq!(
            sched.residue(),
            0,
            "{arm}: no frame, slot, or timer survives"
        );
        if parked_n > 0 {
            assert!(
                sched.parked_peak() >= 1_000,
                "{arm}: parked-peak {} never reached the figure's 1000-frame floor",
                sched.parked_peak()
            );
        }

        let mut fast = std::mem::take(&mut *sojourns.lock().unwrap());
        assert_eq!(fast.len(), fast_calls, "{arm}: every fast call completed");
        let shard_rows: Vec<Json> = metrics
            .shard_snapshot()
            .into_iter()
            .map(|s| {
                Json::obj()
                    .field("worker", s.index as u64)
                    .field("processed", s.processed)
                    .field("steals", s.steals)
                    .field("parks", s.parks)
                    .field("wakes", s.wakes)
            })
            .collect();
        let row = Json::obj()
            .field("transport", "model")
            .field("point", arm)
            .field("workers", MN_WORKERS as u64)
            .field("parked", parked_n as u64)
            .field("parked_peak", sched.parked_peak() as u64);
        let row = percentile_fields(row, &mut fast);
        fast_p99.insert(arm, percentile_ns(&fast, 0.99));
        rows.push(row.field("shards", Json::Arr(shard_rows)));
    }

    let quiet = fast_p99["quiet"].max(1);
    let flooded = fast_p99["parked_flood"];
    assert!(
        flooded <= 2 * quiet,
        "fast-call p99 over >=1000 parked frames ({flooded} ns) exceeds 2x \
         the quiet baseline ({quiet} ns)"
    );

    header("handlers_mn", opts, git_rev)
        .field("fast_p99_ratio_bp", flooded * 10_000 / quiet)
        .field("rows", Json::Arr(rows))
}

pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&sorted, 0.50), 50);
        assert_eq!(percentile_ns(&sorted, 0.95), 95);
        assert_eq!(percentile_ns(&sorted, 0.99), 99);
        assert_eq!(percentile_ns(&sorted, 1.0), 100);
        assert_eq!(percentile_ns(&[], 0.5), 0);
        assert_eq!(percentile_ns(&[7], 0.01), 7);
    }
}
