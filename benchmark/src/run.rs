//! One run of one workload: set up, measure, derive the metrics.
//!
//! A run with tracing off reports the gated end-to-end metrics (counts per
//! call, memory, set-up); a traced run reports the wall-clock figures from
//! its untraced slices, then the per-layer metrics and the isolated probes.
//! Both go through the same window.

use std::time::Instant;

use rpcoib::{MetricsSnapshot, Phase, PoolCounters, ShardRole};
use simnet::Fabric;

use crate::contract::{END_TO_END, PER_LAYER};
use crate::spans::{self, Span};
use crate::stats::{interquartile_mean, median, percentile_sorted, rel_std_err, trimmed_mean};
use crate::window::{self, Caller, SliceEnd, Window};
use crate::{echo, host, kv, layers};

/// A run above this share of caller-thread time in benchmark code measures
/// the generator, not the engine, and is failed.
const MAX_SELF_SHARE: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// How many times the program is set up at least (a cheap set-up is
    /// repeated more often); `setup_s` is the median.
    pub setups: usize,
    pub out_dir: std::path::PathBuf,
}

/// What a run hands back: the metrics by name, and for each end-to-end
/// metric and wall-clock figure its standard error judged from the run's
/// own slices (or set-ups), which `compare` uses to tell "unchanged" from
/// "unresolved".
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub spread: Vec<(&'static str, f64)>,
    /// Calls per second in each slice, in order: shows a run that drifted
    /// or switched between modes where a single median would hide it.
    pub slice_calls_per_s: Vec<f64>,
    pub notes: Vec<String>,
}

/// A booted system under test.
pub trait Env {
    /// Every fabric traffic can cross, for the modeled-time ledger.
    fn fabrics(&self) -> Vec<Fabric>;
    /// The engine's own cumulative counters, read between calls.
    fn surfaces(&self) -> Surfaces;
    fn teardown(self: Box<Self>);
}

/// Cumulative engine counters at one instant; two of them subtract.
#[derive(Debug, Clone, Copy, Default)]
pub struct Surfaces {
    /// Summed phase time by `Phase::ALL` index, client and server side.
    client_phase_ns: [u64; 5],
    server_phase_ns: [u64; 5],
    /// The server's sends are keyed `<protocol, method#resp>`.
    server_resp_serialize_ns: u64,
    server_resp_wire_ns: u64,
    client_retries: u64,
    client_late_responses: u64,
    server_busy_rejections: u64,
    server_frame_errors: u64,
    server_retry_cache_hits: u64,
    /// High-water marks, not counters: the later reading stands.
    reader_queue_depth_max: u64,
    responder_queue_depth_max: u64,
    pool: PoolCounters,
    fabric_messages: u64,
    fabric_bytes: u64,
    fabric_rdma_writes: u64,
    fabric_registrations: u64,
    pub regionserver_ops: u64,
    pub namenode_rpcs: u64,
}

fn phase_index(phase: Phase) -> usize {
    Phase::ALL
        .iter()
        .position(|p| *p == phase)
        .expect("Phase::ALL lists every phase")
}

impl Surfaces {
    pub fn add_client(&mut self, snap: &MetricsSnapshot) {
        for (_, phases) in &snap.phases {
            for (phase, hist) in phases.iter() {
                self.client_phase_ns[phase_index(phase)] += hist.sum_ns;
            }
        }
        self.client_retries += snap.counters.retries;
        self.client_late_responses += snap.counters.late_responses;
        if let Some(pool) = snap.pool {
            self.pool.history_hits += pool.history_hits;
            self.pool.grows += pool.grows;
            self.pool.shrinks += pool.shrinks;
            self.pool.cold += pool.cold;
            self.pool.native_hits += pool.native_hits;
            self.pool.native_misses += pool.native_misses;
            self.pool.oversize += pool.oversize;
        }
    }

    pub fn add_server(&mut self, snap: &MetricsSnapshot) {
        for ((_, method), phases) in &snap.phases {
            let response = method.ends_with("#resp");
            for (phase, hist) in phases.iter() {
                match (response, phase) {
                    (true, Phase::Serialize) => self.server_resp_serialize_ns += hist.sum_ns,
                    (true, Phase::Wire) => self.server_resp_wire_ns += hist.sum_ns,
                    _ => self.server_phase_ns[phase_index(phase)] += hist.sum_ns,
                }
            }
        }
        self.server_busy_rejections += snap.counters.busy_rejections;
        self.server_frame_errors += snap.counters.frame_errors;
        self.server_retry_cache_hits += snap.counters.retry_cache_hits;
        for shard in &snap.shards {
            let max = match shard.role {
                ShardRole::Reader => &mut self.reader_queue_depth_max,
                ShardRole::Responder => &mut self.responder_queue_depth_max,
                ShardRole::Worker => continue,
            };
            *max = (*max).max(shard.queue_depth_max);
        }
    }

    pub fn add_fabric(&mut self, fabric: &Fabric) {
        let (messages, bytes, rdma_writes, registrations) = fabric.stats().snapshot();
        self.fabric_messages += messages;
        self.fabric_bytes += bytes;
        self.fabric_rdma_writes += rdma_writes;
        self.fabric_registrations += registrations;
    }
}

type Booted = (Box<dyn Env>, Vec<Box<dyn Caller>>);

/// The workload behind a name: how to boot it and how a slice ends.
struct Plan {
    boot: Box<dyn Fn() -> Result<Booted, String>>,
    slice_end: SliceEnd,
    expect_calls: usize,
    payload_bytes: usize,
    /// Whether the calls divide into gets and puts.
    get_put: bool,
}

fn plan(args: &RunArgs) -> Result<Plan, String> {
    if let Some(spec) = echo::spec(&args.workload) {
        let inputs = echo::inputs(&spec, args.seed);
        return Ok(Plan {
            boot: Box::new(move || {
                let (env, callers) = echo::boot(&spec, &inputs).map_err(|e| e.to_string())?;
                Ok((Box::new(env) as Box<dyn Env>, callers))
            }),
            slice_end: spec.slice_end(args.seconds),
            expect_calls: (spec.calls_per_caller_s as f64 * args.seconds) as usize,
            payload_bytes: spec.payload_bytes(),
            get_put: false,
        });
    }
    if args.workload == "hbase_mix" {
        let ops_per_slice = kv::ops_per_slice(args.seconds);
        let inputs = kv::inputs(args.seed, ops_per_slice * window::SLICES);
        return Ok(Plan {
            boot: Box::new(move || {
                let (env, callers) = kv::boot(&inputs).map_err(|e| e.to_string())?;
                Ok((Box::new(env) as Box<dyn Env>, callers))
            }),
            slice_end: SliceEnd::AfterOps(ops_per_slice),
            expect_calls: ops_per_slice * window::SLICES,
            payload_bytes: kv::VALUE_BYTES,
            get_put: true,
        });
    }
    Err(format!("unknown workload {:?}", args.workload))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per(total: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total / calls as f64
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    simnet::set_fast_forward(true);
    let plan = plan(args)?;

    let mut setup_s = Vec::new();
    let boot_timed = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let booted = (plan.boot)();
        setup_s.push(start.elapsed().as_secs_f64());
        booted
    };

    // The first set-up, in a fresh process, is the one that gets measured.
    let (env, callers) = boot_timed(&mut setup_s)?;
    let fabrics = env.fabrics();
    let modeled_ns = || fabrics.iter().map(Fabric::modeled_total_ns).sum::<u64>();
    let before = env.surfaces();
    let window = window::run(
        callers,
        plan.slice_end,
        args.trace,
        plan.expect_calls,
        &modeled_ns,
    );
    let after = env.surfaces();
    let peak_rss_mb = host::peak_rss_mb();
    env.teardown();

    // The rest only time set-up, so that `setup_s` is a median: of
    // `args.setups`, and of more when set-up is cheap (up to nine, about two
    // seconds in all), because a 0.2 s set-up is at the host's mercy and the
    // driver holds the median of a set of runs to its bound.
    while setup_s.len() < args.setups
        || (args.setups > 1 && setup_s.len() < 9 && setup_s.iter().sum::<f64>() < 2.0)
    {
        let (env, callers) = boot_timed(&mut setup_s)?;
        drop(callers);
        env.teardown();
    }

    let mut result = RunResult {
        attempted: window.attempted(),
        failed: window.attempted() - window.correct(),
        ..RunResult::default()
    };
    result.correct = result.failed == 0 && result.attempted > 0;
    let self_share = window.self_share();
    if self_share > MAX_SELF_SHARE {
        result.correct = false;
        result.notes.push(format!(
            "gen.self_share {self_share:.3} is above {MAX_SELF_SHARE}: the generator is in the way"
        ));
    }

    result.slice_calls_per_s = window
        .slices
        .iter()
        .map(|s| s.correct as f64 / s.wall_s)
        .collect();
    if args.trace {
        per_layer(args, &plan, &window, &before, &after, &mut result)?;
    } else {
        end_to_end(&window, &setup_s, peak_rss_mb, &mut result);
    }
    Ok(result)
}

/// The gated metrics: whole-window counts per correct call, no trimming.
fn end_to_end(window: &Window, setup_s: &[f64], peak_rss_mb: f64, result: &mut RunResult) {
    let s = &window.slices;
    let calls = window.correct();
    let per_call = |f: &dyn Fn(&window::SliceStats) -> f64| {
        let per_slice: Vec<f64> = s.iter().map(|x| per(f(x), x.correct)).collect();
        (per(s.iter().map(f).sum(), calls), rel_std_err(&per_slice))
    };
    let modeled = per_call(&|x| x.modeled_ns as f64 / 1e3);
    let switches = per_call(&|x| x.ctx_switches);
    let allocs = per_call(&|x| x.allocs as f64);
    let alloc_bytes = per_call(&|x| x.alloc_bytes as f64);

    let values = [
        ("setup_s", median(setup_s), rel_std_err(setup_s)),
        ("modeled_us_per_call", modeled.0, modeled.1),
        ("peak_rss_mb", peak_rss_mb, 0.0),
        ("host.ctx_switches_per_call", switches.0, switches.1),
        ("host.allocs_per_call", allocs.0, allocs.1),
        ("host.alloc_bytes_per_call", alloc_bytes.0, alloc_bytes.1),
    ];
    for (metric, (name, value, spread)) in END_TO_END.iter().zip(values) {
        assert_eq!(metric.name, name, "END_TO_END order drifted from run.rs");
        result.metrics.push((metric.name, value));
        result.spread.push((metric.name, spread));
    }
}

/// The wall-clock figures, from the slices of a traced run that ran with
/// tracing off; each is a trimmed mean of per-slice values, and carries its
/// standard error for `compare`.
fn wall_clock(window: &Window, result: &mut RunResult) {
    let plain: Vec<usize> = (0..window.slices.len())
        .filter(|k| !window.slices[*k].traced)
        .collect();
    let per_slice = |f: &dyn Fn(&window::SliceStats) -> f64| -> Vec<f64> {
        plain.iter().map(|k| f(&window.slices[*k])).collect()
    };
    let mid: Vec<f64> = plain
        .iter()
        .map(|k| interquartile_mean(&window.slice_latencies(*k)) / 1e3)
        .collect();
    let values = [
        ("call_mid_us", mid),
        ("calls_per_s", per_slice(&|x| x.correct as f64 / x.wall_s)),
        (
            "goodput_mb_s",
            per_slice(&|x| x.payload_bytes as f64 / x.wall_s / 1e6),
        ),
        (
            "cpu_us_per_call",
            per_slice(&|x| per(x.cpu.total_us(), x.correct)),
        ),
    ];
    for (name, slices) in values {
        result.metrics.push((name, trimmed_mean(&slices)));
        result.spread.push((name, rel_std_err(&slices)));
    }
}

fn per_layer(
    args: &RunArgs,
    plan: &Plan,
    window: &Window,
    before: &Surfaces,
    after: &Surfaces,
    result: &mut RunResult,
) -> Result<(), String> {
    wall_clock(window, result);
    let calls = window.correct();
    let d = |f: fn(&Surfaces) -> u64| (f(after) - f(before)) as f64;
    let per_call = |f: fn(&Surfaces) -> u64| per(d(f), calls);
    let per_kcall = |f: fn(&Surfaces) -> u64| per(d(f) * 1e3, calls);
    let phase_us = |f: fn(&Surfaces) -> u64| per(d(f) / 1e3, calls);
    let mut put = |name: &'static str, value: f64| result.metrics.push((name, value));

    // Spans: join each sampled call with its handler span and cut the tree.
    let handlers: std::collections::HashMap<u64, spans::HandlerSpan> = spans::take_handler_spans()
        .into_iter()
        .map(|h| (h.call_id, h))
        .collect();
    let mut all_spans: Vec<Span> = Vec::new();
    let (mut req, mut hand, mut resp) = (Vec::new(), Vec::new(), Vec::new());
    let mut untiled = 0usize;
    for call in window.logs.iter().flat_map(|log| &log.spans) {
        match handlers.get(&call.call_id) {
            Some(handler) => {
                let tree = spans::call_tree(call, handler);
                // The children must account for the call: a gap means the
                // handler stamp fell outside the call, i.e. a broken clock.
                let gap = tree[0].self_ns(&tree[1..]);
                untiled += usize::from(gap * 100 > tree[0].dur_ns());
                req.push(tree[1].dur_ns());
                hand.push(tree[2].dur_ns());
                resp.push(tree[3].dur_ns());
                all_spans.extend(tree);
            }
            // No benchmark-owned handler (hbase_mix): the call span alone,
            // named for the operation.
            None => all_spans.push(Span {
                trace: call.call_id,
                name: match (plan.get_put, call.kind) {
                    (true, kv::KIND_GET) => "get",
                    (true, _) => "put",
                    (false, _) => "call",
                },
                parent: None,
                start_ns: call.start_ns,
                end_ns: call.end_ns,
            }),
        }
    }
    if untiled > 0 {
        result.correct = false;
        result.notes.push(format!(
            "{untiled} sampled calls whose child spans leave more than 1 % of the call uncovered"
        ));
    }
    let p50 = |v: &mut Vec<u64>| {
        v.sort_unstable();
        us(percentile_sorted(v, 0.5))
    };
    put("span.request_path_us_p50", p50(&mut req));
    put("span.handler_us_p50", p50(&mut hand));
    put("span.response_path_us_p50", p50(&mut resp));
    let trace_file = args.out_dir.join(format!("trace_{}.jsonl", args.workload));
    spans::write_jsonl(&trace_file, &args.workload, &all_spans)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let latencies = window.sorted_latencies(None);
    put("client.call_p50_us", us(percentile_sorted(&latencies, 0.5)));
    put(
        "client.call_p99_us",
        us(percentile_sorted(&latencies, 0.99)),
    );
    put(
        "client.call_p999_us",
        us(percentile_sorted(&latencies, 0.999)),
    );

    // Engine phases as means per call, and what no phase accounts for.
    let ser = |s: &Surfaces| s.client_phase_ns[phase_index(Phase::Serialize)];
    let wire = |s: &Surfaces| s.client_phase_ns[phase_index(Phase::Wire)];
    let deser = |s: &Surfaces| s.client_phase_ns[phase_index(Phase::Deserialize)];
    let queue = |s: &Surfaces| s.server_phase_ns[phase_index(Phase::ServerQueue)];
    let handler = |s: &Surfaces| s.server_phase_ns[phase_index(Phase::Handler)];
    let phases = [
        ("core.client.serialize_us_mean", phase_us(ser)),
        ("core.client.wire_us_mean", phase_us(wire)),
        ("core.client.deserialize_us_mean", phase_us(deser)),
        ("core.server.queue_us_mean", phase_us(queue)),
        ("core.server.handler_us_mean", phase_us(handler)),
        (
            "core.server.resp_serialize_us_mean",
            phase_us(|s| s.server_resp_serialize_ns),
        ),
        (
            "core.server.resp_wire_us_mean",
            phase_us(|s| s.server_resp_wire_ns),
        ),
    ];
    let mean_call_us = per(
        latencies.iter().sum::<u64>() as f64 / 1e3,
        latencies.len() as u64,
    );
    let in_phases: f64 = phases.iter().map(|(_, v)| v).sum();
    for (name, value) in phases {
        put(name, value);
    }
    put("core.handoff_us_mean", mean_call_us - in_phases);

    put(
        "core.server.reader_queue_depth_max",
        after.reader_queue_depth_max as f64,
    );
    put(
        "core.server.responder_queue_depth_max",
        after.responder_queue_depth_max as f64,
    );
    put(
        "core.server.busy_rejections",
        d(|s| s.server_busy_rejections),
    );
    put("core.server.frame_errors", d(|s| s.server_frame_errors));
    put(
        "core.server.retry_cache_hits",
        d(|s| s.server_retry_cache_hits),
    );
    put("core.client.retries", d(|s| s.client_retries));
    put("core.client.late_responses", d(|s| s.client_late_responses));

    // Zero on workloads whose client has no pool (or hides it).
    let acquires = d(|s| s.pool.history_hits + s.pool.grows + s.pool.shrinks + s.pool.cold);
    let native = d(|s| s.pool.native_hits + s.pool.native_misses);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    put(
        "bufpool.history_hit_share",
        share(d(|s| s.pool.history_hits), acquires),
    );
    put("bufpool.grows_per_kcall", per_kcall(|s| s.pool.grows));
    put("bufpool.shrinks_per_kcall", per_kcall(|s| s.pool.shrinks));
    put(
        "bufpool.native_miss_share",
        share(d(|s| s.pool.native_misses), native),
    );
    put("bufpool.oversize_per_kcall", per_kcall(|s| s.pool.oversize));

    put("simnet.messages_per_call", per_call(|s| s.fabric_messages));
    put("simnet.wire_bytes_per_call", per_call(|s| s.fabric_bytes));
    put(
        "simnet.overhead_bytes_per_call",
        per(d(|s| s.fabric_bytes) - window.payload_bytes() as f64, calls),
    );
    put(
        "simnet.rdma_writes_per_call",
        per_call(|s| s.fabric_rdma_writes),
    );
    put(
        "simnet.registrations_per_kcall",
        per_kcall(|s| s.fabric_registrations),
    );

    let traced: Vec<_> = window.slices.iter().filter(|s| s.traced).collect();
    let plain: Vec<_> = window.slices.iter().filter(|s| !s.traced).collect();
    let cpu_user: f64 = window.slices.iter().map(|s| s.cpu.user_us).sum();
    let cpu_sys: f64 = window.slices.iter().map(|s| s.cpu.sys_us).sum();
    put("host.sys_cpu_share", share(cpu_sys, cpu_user + cpu_sys));

    let kind_p50 = |kind| match plan.get_put {
        true => us(percentile_sorted(&window.sorted_latencies(Some(kind)), 0.5)),
        false => 0.0,
    };
    put("hbase.get_p50_us", kind_p50(kv::KIND_GET));
    put("hbase.put_p50_us", kind_p50(kv::KIND_PUT));
    put("hbase.regionserver_ops", d(|s| s.regionserver_ops));
    put("hdfs.namenode_rpcs_per_op", per_call(|s| s.namenode_rpcs));

    let rate = |slices: &[&window::SliceStats]| {
        trimmed_mean(
            &slices
                .iter()
                .map(|s| s.correct as f64 / s.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    put("gen.self_share", window.self_share());
    put("trace.calls_per_s", traced_rate);
    put(
        "trace.overhead_share",
        share(plain_rate - traced_rate, plain_rate),
    );

    for (name, value) in layers::probe(plan.payload_bytes) {
        put(name, value);
    }

    let names: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
    let listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, listed, "PER_LAYER order drifted from run.rs");
    Ok(())
}
