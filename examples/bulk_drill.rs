//! Bulk drill: drive the one-sided large-frame data plane end to end.
//!
//! ```sh
//! cargo run --release --example bulk_drill
//! ```
//!
//! A blob service echoes multi-hundred-KiB payloads, so every call
//! crosses the RDMA crossover in both directions: the request rides the
//! client's slot ring into the server's large region, the response rides
//! back the other way. The drill checks the two properties the design
//! promises for lone transfers:
//!
//! * **slot-count parity, less the credit message** — a transfer with
//!   nothing to pipeline against costs the same modeled time on a
//!   one-deep ring (`large_slots = 1`, the legacy credit gate) as on a
//!   multi-slot ring, but for flow control: the gate answers every
//!   response with a credit message of its own, the deeper ring lets the
//!   credit ride the caller's next request. The client's ledger differs
//!   by exactly that one-byte send per call, and by nothing else;
//! * **zero steady-state registrations** — after warmup, large calls
//!   are served entirely from pooled registered segments: the fabric's
//!   memory-registration counter must not move.

use std::sync::Arc;

use rpcoib_suite::rpcoib::{Client, RpcConfig, RpcService, Server, ServiceRegistry};
use rpcoib_suite::simnet::{model, Fabric};
use rpcoib_suite::wire::{BytesWritable, DataInput, Writable};

/// Echoes the payload back, byte for byte.
struct BlobService;

impl RpcService for BlobService {
    fn protocol(&self) -> &'static str {
        "demo.BlobProtocol"
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "echo" => {
                let mut blob = BytesWritable::default();
                blob.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(blob))
            }
            other => Err(format!("unknown method {other}")),
        }
    }
}

/// Runs `calls` lone echo calls of `payload` bytes on a ring with
/// `slots` slots; returns (modeled ns per call, registrations during
/// the measured window).
fn drill(slots: usize, payload: usize, calls: u32) -> (u64, u64) {
    let cfg = RpcConfig {
        large_slots: slots,
        ..RpcConfig::rpcoib()
    };
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();

    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(BlobService));
    let server = Server::start(&fabric, server_node, 8020, cfg.clone(), registry).unwrap();
    let client = Client::new(&fabric, client_node, cfg).unwrap();

    let blob = BytesWritable(vec![0xAB; payload]);
    // Warmup: bootstrap, size-history learning, and segment-pool fill —
    // all registrations must happen here.
    for _ in 0..4 {
        let echoed: BytesWritable = client
            .call(server.addr(), "demo.BlobProtocol", "echo", &blob)
            .unwrap();
        assert_eq!(echoed.0.len(), payload);
    }

    let (_, _, _, regs_before) = fabric.stats().snapshot();
    let start_ns = fabric.modeled_ns(client_node);
    for _ in 0..calls {
        let echoed: BytesWritable = client
            .call(server.addr(), "demo.BlobProtocol", "echo", &blob)
            .unwrap();
        assert_eq!(echoed.0.len(), payload);
    }
    let per_call = (fabric.modeled_ns(client_node) - start_ns) / u64::from(calls);
    let (_, _, _, regs_after) = fabric.stats().snapshot();

    client.shutdown();
    server.stop();
    (per_call, regs_after - regs_before)
}

fn main() {
    println!("lone large echoes through the bulk data plane:\n");
    println!(
        "{:>10}  {:>16}  {:>16}  {:>7}",
        "payload", "one-deep ring", "16-slot ring", "regs"
    );
    // What a credit message of its own charges its sender's ledger.
    let m = model::IB_QDR_VERBS;
    let credit_ns = m.stack_ns(1) + m.wire_ns(1) + m.base_latency_ns;
    for &payload in &[65_536usize, 262_144, 1_048_576] {
        let (one_deep, regs_a) = drill(1, payload, 8);
        let (multi, regs_b) = drill(16, payload, 8);
        // Lone transfers never wait on ring credits, so slot count
        // changes their modeled cost by the credit message alone.
        assert_eq!(
            one_deep - multi,
            credit_ns,
            "lone-transfer cost must differ by one credit message at {payload} B"
        );
        // Steady state registers nothing: segments come from the pool.
        assert_eq!(
            regs_a + regs_b,
            0,
            "steady-state large calls registered memory"
        );
        println!(
            "{:>9}K  {:>13.1}us  {:>13.1}us  {:>7}",
            payload / 1024,
            one_deep as f64 / 1000.0,
            multi as f64 / 1000.0,
            regs_a + regs_b,
        );
    }
    println!(
        "\nlone-transfer parity holds (one-deep == multi-slot + one {credit_ns} ns credit message)"
    );
    println!("and the measured windows performed zero memory registrations —");
    println!("steady-state large calls gather straight from pooled segments.");
}
