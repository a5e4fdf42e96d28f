//! The benchmark's public face: workload and metric names with their units,
//! directions and bounds. `BENCHMARK.json` at the repository root mirrors
//! these tables (a unit test holds the two together); later issues cite the
//! names, so none is renamed or reused.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small_verbs",
        why: "512 B echo over RPCoIB/verbs, one client per caller: per-call fixed cost (header, pool acquire, admission, six thread hand-offs) dominates",
    },
    Workload {
        name: "small_socket",
        why: "the same 512 B calls over the socket baseline on IPoIB: same server pipeline, no buffer pool - the control on which a verbs/bufpool change must move nothing",
    },
    Workload {
        name: "bulk_verbs",
        why: "256 KiB echo over verbs, two callers sharing one connection: per-byte cost (gather stream, RDMA write, copies) dominates and per-call savings vanish",
    },
    Workload {
        name: "hbase_mix",
        why: "mini-HBase all-IB, 50/50 get/put with Zipfian keys, fixed op count: the application tier, where puts drag in WAL rolls, flushes and NameNode RPC beside reads",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected. End-to-end metrics only; 0 for per-layer.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What the driver gates: what a call costs that does not depend on how fast
/// the sandbox's CPU happens to run. Reported by the run with tracing off.
///
/// Wall-clock speed is not in this table. The sandbox shares its core with
/// other tenants and the CPU runs 25-30 % slower for minutes at a time (the
/// same instructions and context switches per call, see the README), so no
/// timing of a 10-60 s run repeats within a bound the driver allows. The
/// timings lead `PER_LAYER` instead; what is gated here are counts of the
/// host work the paper's design removes (thread hand-offs, allocations), the
/// modeled wire cost, memory and set-up.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("modeled_us_per_call", "us", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("host.ctx_switches_per_call", "1/call", Lower, 0.1),
    e2e("host.allocs_per_call", "1/call", Lower, 0.1),
    e2e("host.alloc_bytes_per_call", "B/call", Lower, 0.1),
];

/// The wall-clock figures of a run: the first four names of `PER_LAYER`.
/// `compare` prints them beside the gated ones, without a verdict.
pub const WALL_CLOCK: usize = 4;

/// Wall-clock speed, then one layer each. Reported by the traced run (the
/// wall-clock rows from its untraced slices); no bounds.
pub const PER_LAYER: [Metric; 60] = [
    // What a caller sees on a quiet host; ungated, see `END_TO_END`.
    layer("call_mid_us", "us", Lower),
    layer("calls_per_s", "1/s", Higher),
    layer("goodput_mb_s", "MB/s", Higher),
    layer("cpu_us_per_call", "us", Lower),
    // Outside-in spans around the engine (benchmark-side instrumentation).
    layer("span.request_path_us_p50", "us", Lower),
    layer("span.handler_us_p50", "us", Lower),
    layer("span.response_path_us_p50", "us", Lower),
    layer("client.call_p50_us", "us", Lower),
    layer("client.call_p99_us", "us", Lower),
    layer("client.call_p999_us", "us", Lower),
    // Engine phase histograms, as means per call.
    layer("core.client.serialize_us_mean", "us", Lower),
    layer("core.client.wire_us_mean", "us", Lower),
    layer("core.client.deserialize_us_mean", "us", Lower),
    layer("core.server.queue_us_mean", "us", Lower),
    layer("core.server.handler_us_mean", "us", Lower),
    layer("core.server.resp_serialize_us_mean", "us", Lower),
    layer("core.server.resp_wire_us_mean", "us", Lower),
    layer("core.handoff_us_mean", "us", Lower),
    // Engine queues and resilience counters; all expected 0 or small.
    layer("core.server.reader_queue_depth_max", "count", Lower),
    layer("core.server.responder_queue_depth_max", "count", Lower),
    layer("core.server.busy_rejections", "count", Lower),
    layer("core.server.frame_errors", "count", Lower),
    layer("core.server.retry_cache_hits", "count", Lower),
    layer("core.client.retries", "count", Lower),
    layer("core.client.late_responses", "count", Lower),
    // Buffer pool (client side).
    layer("bufpool.history_hit_share", "ratio", Higher),
    layer("bufpool.grows_per_kcall", "1/kcall", Lower),
    layer("bufpool.shrinks_per_kcall", "1/kcall", Lower),
    layer("bufpool.native_miss_share", "ratio", Lower),
    layer("bufpool.oversize_per_kcall", "1/kcall", Lower),
    // Fabric counters: exact counts of what crossed the modeled wire.
    layer("simnet.messages_per_call", "1/call", Lower),
    layer("simnet.wire_bytes_per_call", "B/call", Lower),
    layer("simnet.overhead_bytes_per_call", "B/call", Lower),
    layer("simnet.rdma_writes_per_call", "1/call", Lower),
    layer("simnet.registrations_per_kcall", "1/kcall", Lower),
    // Host cost (the per-call counts are gated: `END_TO_END`).
    layer("host.sys_cpu_share", "ratio", Lower),
    // Application tier.
    layer("hbase.get_p50_us", "us", Lower),
    layer("hbase.put_p50_us", "us", Lower),
    layer("hbase.regionserver_ops", "count", Higher),
    layer("hdfs.namenode_rpcs_per_op", "1/op", Lower),
    // Self-checks on the generator and the tracer.
    layer("gen.self_share", "ratio", Lower),
    layer("trace.calls_per_s", "1/s", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    // Isolated probes: one thread timing each layer's public functions.
    layer("wire.bytes_write_ns", "ns", Lower),
    layer("wire.bytes_read_ns", "ns", Lower),
    layer("wire.dob_adjustments", "count", Lower),
    layer("wire.vlong_codec_ns", "ns", Lower),
    layer("bufpool.acquire_release_ns", "ns", Lower),
    layer("bufpool.native_acquire_ns", "ns", Lower),
    layer("core.frame.req_header_codec_ns", "ns", Lower),
    layer("core.frame.req_header_bytes", "B", Lower),
    layer("core.frame.resp_header_codec_ns", "ns", Lower),
    layer("core.stream.rdma_out_ns", "ns", Lower),
    layer("core.admission.push_pop_ns", "ns", Lower),
    layer("core.retry_cache.begin_complete_ns", "ns", Lower),
    layer("core.readiness.push_pop_ns", "ns", Lower),
    layer("simnet.stream.write_read_ns", "ns", Lower),
    layer("simnet.verbs.send_recv_ns", "ns", Lower),
    layer("simnet.verbs.rdma_write_ns", "ns", Lower),
    layer("simnet.verbs.register_ns", "ns", Lower),
];

/// The first name in `PER_LAYER` that the isolated probes emit; everything
/// from here on comes from `layers::probe`, everything before from a run.
#[cfg(test)]
pub const FIRST_PROBE: &str = "wire.bytes_write_ns";

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}
