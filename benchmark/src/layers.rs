//! Isolated probes: one thread calling each layer's public functions on a
//! workload's payload size, so that a layer's share of a call is a measured
//! number and not a guess. Each value is the median of five batches.
//!
//! The functions called here are the benchmark's frozen API surface (see
//! the README): a change to one of their signatures needs a change here
//! first.

use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpcoib::frame::{self, V3Decoder, V3Encoder};
use rpcoib::intern::method_key;
use rpcoib::readiness::{self, ReadyQueue};
use rpcoib::{
    AdmissionQueue, CallClass, CallMeta, IbContext, MetricsRegistry, RdmaOutputStream, RetryCache,
    RpcConfig,
};
use simnet::{model, Fabric, RdmaDevice, SimAddr, SimListener, SimStream};
use wire::varint::{read_vlong, write_vlong};
use wire::{BytesWritable, DataOutputBuffer, NullWritable, Writable};

use crate::stats::median;

const BATCHES: usize = 5;
const PROTOCOL: &str = "benchmark.ProbeProtocol";
const METHOD: &str = "probe";

/// Nanoseconds per call of `op`: median over `BATCHES` batches of `iters`.
fn time_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Every isolated-probe metric, in `contract::PER_LAYER` order, on payloads
/// of `payload_bytes`.
pub fn probe(payload_bytes: usize) -> Vec<(&'static str, f64)> {
    simnet::set_fast_forward(true);
    // About 4 MB moved per batch whatever the payload: 2000 small ops or a
    // few dozen bulk ones.
    let iters = (4_000_000 / (payload_bytes + 512)).clamp(20, 2_000);
    let payload = BytesWritable(vec![0xa5; payload_bytes]);
    let mut out = Vec::new();

    // wire: what the socket transport pays to serialize (a fresh 32-byte
    // Algorithm-1 buffer per call) and any transport to deserialize.
    let mut adjustments = 0;
    out.push((
        "wire.bytes_write_ns",
        time_ns(iters, || {
            let mut buf = DataOutputBuffer::new();
            payload.write(&mut buf).expect("in-memory write");
            adjustments = buf.adjustments();
            black_box(buf.len());
        }),
    ));
    let encoded = wire::to_bytes(&payload).expect("in-memory write");
    out.push((
        "wire.bytes_read_ns",
        time_ns(iters, || {
            let back: BytesWritable = wire::from_bytes(black_box(&encoded)).expect("round trip");
            black_box(back.0.len());
        }),
    ));
    out.push(("wire.dob_adjustments", adjustments as f64));
    let values = [
        0i64,
        127,
        -112,
        128,
        300,
        65_535,
        -65_536,
        1 << 30,
        -(1 << 40),
        i64::MAX,
    ];
    let mut scratch = Vec::with_capacity(128);
    out.push((
        "wire.vlong_codec_ns",
        time_ns(2_000, || {
            scratch.clear();
            for v in values {
                write_vlong(&mut scratch, v).expect("in-memory write");
            }
            let mut cursor = scratch.as_slice();
            for _ in values {
                black_box(read_vlong(&mut cursor).expect("round trip"));
            }
        }) / values.len() as f64,
    ));

    // bufpool + core::stream, on the engine's own pool as `Client::new`
    // builds it.
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let (node_a, node_b) = (fabric.add_node(), fabric.add_node());
    let ib = IbContext::new(&fabric, node_a, &RpcConfig::rpcoib()).expect("open the HCA");
    let pool = ib.pool();
    pool.record(PROTOCOL, METHOD, payload_bytes + 64);
    out.push((
        "bufpool.acquire_release_ns",
        time_ns(iters, || {
            black_box(pool.acquire(PROTOCOL, METHOD).capacity());
        }),
    ));
    out.push((
        "bufpool.native_acquire_ns",
        time_ns(iters, || {
            black_box(pool.native().acquire_size(payload_bytes).capacity());
        }),
    ));

    // core::frame: the V3 header both ways, in the self-contained form
    // verbs connections use (the larger of the two forms).
    let key = method_key(PROTOCOL, METHOD);
    let (mut enc, mut dec) = (V3Encoder::new(false), V3Decoder::new(false));
    let mut header = Vec::with_capacity(128);
    let mut seq = 0i64;
    out.push((
        "core.frame.req_header_codec_ns",
        time_ns(2_000, || {
            seq += 1;
            header.clear();
            enc.write_request_header(&mut header, seq, 0, Some(Duration::from_secs(30)), key)
                .expect("in-memory write");
            let parsed = dec
                .read_request_header(&mut header.as_slice(), 7)
                .expect("round trip");
            black_box(parsed.seq);
        }),
    ));
    out.push(("core.frame.req_header_bytes", header.len() as f64));
    out.push((
        "core.frame.resp_header_codec_ns",
        time_ns(2_000, || {
            seq += 1;
            header.clear();
            enc.write_response_lead(&mut header, seq)
                .expect("in-memory write");
            frame::write_response_body(&mut header, Ok(&NullWritable)).expect("in-memory write");
            let parsed = dec
                .read_response_header(&mut header.as_slice())
                .expect("round trip");
            black_box(parsed.seq);
        }),
    ));

    out.push((
        "core.stream.rdma_out_ns",
        time_ns(iters, || {
            let mut stream = RdmaOutputStream::new(pool, key);
            payload.write(&mut stream).expect("pool-backed write");
            stream.flush().expect("pool-backed write");
            black_box(stream.finish().1);
        }),
    ));

    // The three per-call server structures, uncontended.
    let admission: AdmissionQueue<u64> = AdmissionQueue::new(4_096, 0, &[]);
    let meta = CallMeta {
        tenant: 7,
        expires_at_ns: None,
        class: CallClass::Bulk,
    };
    out.push((
        "core.admission.push_pop_ns",
        time_ns(2_000, || {
            admission.try_push(meta, 1).expect("queue has room");
            black_box(admission.try_pop(0).run.is_some());
            admission.release(meta.tenant);
        }),
    ));
    let cache: RetryCache<()> =
        RetryCache::new(Duration::from_secs(120), 8_192, MetricsRegistry::new(false));
    let response = Arc::new(vec![0u8; 16]);
    out.push((
        "core.retry_cache.begin_complete_ns",
        time_ns(2_000, || {
            seq += 1;
            black_box(cache.begin((7, seq), || ()));
            black_box(cache.complete((7, seq), Arc::clone(&response)).len());
        }),
    ));
    let ready = ReadyQueue::new(None);
    let token = readiness::token(3, 1);
    out.push((
        "core.readiness.push_pop_ns",
        time_ns(2_000, || {
            ready.push(token);
            black_box(ready.try_pop());
        }),
    ));

    // simnet::stream: one write and the matching read, same thread.
    let sock = Fabric::new(model::IPOIB_QDR);
    let (srv_node, cli_node) = (sock.add_node(), sock.add_node());
    let addr = SimAddr::new(srv_node, 1_000);
    let listener = SimListener::bind(&sock, addr).expect("bind");
    let connector = {
        let sock = sock.clone();
        std::thread::spawn(move || SimStream::connect(&sock, cli_node, addr))
    };
    let (accepted, _) = listener.accept().expect("accept");
    let mut stream = connector
        .join()
        .expect("connect thread panicked")
        .expect("connect");
    let mut sink = vec![0u8; payload_bytes];
    out.push((
        "simnet.stream.write_read_ns",
        time_ns(iters, || {
            stream.write_all(&payload.0).expect("stream write");
            accepted.read_exact_at(&mut sink).expect("stream read");
        }),
    ));

    // simnet::verbs: two-sided, one-sided, and registration.
    let dev_a = ib.device().clone();
    let dev_b = RdmaDevice::open(&fabric, node_b).expect("open the HCA");
    let (qa, qb) = (dev_a.create_qp(), dev_b.create_qp());
    qa.connect(qb.endpoint());
    qb.connect(qa.endpoint());
    let (src, dst) = (dev_a.register(payload_bytes), dev_b.register(payload_bytes));
    out.push((
        "simnet.verbs.send_recv_ns",
        time_ns(iters, || {
            qb.post_recv(1, dst.clone());
            qa.post_send(&src, 0, payload_bytes, 0).expect("post_send");
            black_box(
                qb.poll_recv(Duration::from_secs(1))
                    .expect("completion")
                    .len,
            );
        }),
    ));
    let rkey = dst.remote_key();
    out.push((
        "simnet.verbs.rdma_write_ns",
        time_ns(iters, || {
            qa.rdma_write(&src, 0, payload_bytes, rkey, 0, None)
                .expect("rdma_write");
        }),
    ));
    out.push((
        "simnet.verbs.register_ns",
        time_ns(iters, || {
            black_box(dev_a.register(payload_bytes).len());
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{FIRST_PROBE, PER_LAYER};

    #[test]
    fn probes_emit_exactly_the_listed_metrics_in_order() {
        let names: Vec<&str> = probe(512).into_iter().map(|(n, _)| n).collect();
        let listed: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .skip_while(|n| *n != FIRST_PROBE)
            .collect();
        assert_eq!(names, listed);
    }
}
