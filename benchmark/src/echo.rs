//! The three echo workloads: one benchmark-owned `RpcService` behind the
//! real `Server`, driven through the real `Client`.
//!
//! Configurations come from presets only (`RpcConfig::rpcoib()`,
//! `RpcConfig::socket()`, `simnet::model::*`); the benchmark never sets an
//! `RpcConfig` field, so knobs can be deleted without touching this file.

use std::sync::Arc;

use rpcoib::{Client, MetricsSnapshot, RpcConfig, RpcResult, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric, NetworkModel, SimAddr};
use wire::{BytesWritable, DataInput, Writable};

use crate::gen::{self, Rng};
use crate::host;
use crate::run::{Env, Surfaces};
use crate::spans::{self, HandlerSpan};
use crate::window::{Caller, SliceEnd, CALLERS};

const PROTOCOL: &str = "benchmark.EchoProtocol";
const METHOD: &str = "echo";
const PORT: u16 = 9000;

/// The first eight payload bytes carry the call id, so the handler can tag
/// its span with the caller's id without any side channel.
const ID_BYTES: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct EchoSpec {
    verbs: bool,
    payload_bytes: usize,
    /// Both callers on one `Client` (one connection) instead of one each.
    shared_client: bool,
    /// Per caller. Both callers together make more calls than the server's
    /// retry cache holds responses (8192), so the window opens on a full
    /// cache: until then every response is fresh memory (on `bulk_verbs`
    /// 2 GB of page faults, a third slower for the first 8192 calls).
    warmup_calls: usize,
    /// Distinct payloads each caller cycles through.
    payloads_per_caller: usize,
    /// Upper estimate of calls per caller per second, to size the logs.
    pub calls_per_caller_s: usize,
}

pub fn spec(workload: &str) -> Option<EchoSpec> {
    let small = EchoSpec {
        verbs: true,
        payload_bytes: 512,
        shared_client: false,
        warmup_calls: 5_000,
        payloads_per_caller: 256,
        calls_per_caller_s: 40_000,
    };
    match workload {
        "small_verbs" => Some(small),
        "small_socket" => Some(EchoSpec {
            verbs: false,
            ..small
        }),
        "bulk_verbs" => Some(EchoSpec {
            payload_bytes: 256 * 1024,
            shared_client: true,
            warmup_calls: 4_500,
            payloads_per_caller: 8,
            calls_per_caller_s: 8_000,
            ..small
        }),
        _ => None,
    }
}

impl EchoSpec {
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    fn transport(&self) -> (NetworkModel, RpcConfig) {
        if self.verbs {
            (model::IB_QDR_VERBS, RpcConfig::rpcoib())
        } else {
            (model::IPOIB_QDR, RpcConfig::socket())
        }
    }

    pub fn slice_end(&self, seconds: f64) -> SliceEnd {
        SliceEnd::AfterNs((seconds * 1e9 / crate::window::SLICES as f64) as u64)
    }
}

/// Echoes a `BytesWritable`. In a traced slice it also records its own
/// span for one call in eight; otherwise it reads no clock.
struct EchoService;

impl RpcService for EchoService {
    fn protocol(&self) -> &'static str {
        PROTOCOL
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        if method != METHOD {
            return Err(format!("no such method {method}"));
        }
        let start_ns = spans::tracing().then(host::now_ns);
        let mut payload = BytesWritable::default();
        payload.read_fields(param).map_err(|e| e.to_string())?;
        let reply = Box::new(payload);
        if let (Some(start_ns), Some(id)) = (start_ns, reply.0.first_chunk::<ID_BYTES>()) {
            let call_id = u64::from_be_bytes(*id);
            if spans::sampled(call_id) {
                spans::record_handler(HandlerSpan {
                    call_id,
                    start_ns,
                    end_ns: host::now_ns(),
                });
            }
        }
        Ok(reply)
    }
}

/// The seeded inputs of one run: each caller's payloads.
pub struct EchoInputs {
    payloads: Vec<Vec<Vec<u8>>>,
}

pub fn inputs(spec: &EchoSpec, seed: u64) -> EchoInputs {
    EchoInputs {
        payloads: (0..CALLERS)
            .map(|c| {
                gen::payloads(
                    &mut Rng::new(seed, c as u64),
                    spec.payloads_per_caller,
                    spec.payload_bytes,
                )
            })
            .collect(),
    }
}

struct EchoCaller {
    client: Client,
    server: SimAddr,
    payloads: Vec<BytesWritable>,
    current: usize,
    reply: Option<RpcResult<BytesWritable>>,
}

impl Caller for EchoCaller {
    fn prepare(&mut self, call_id: u64) {
        self.current = (self.current + 1) % self.payloads.len();
        self.payloads[self.current].0[..ID_BYTES].copy_from_slice(&call_id.to_be_bytes());
    }

    fn invoke(&mut self) {
        self.reply =
            Some(
                self.client
                    .call(self.server, PROTOCOL, METHOD, &self.payloads[self.current]),
            );
    }

    fn check(&mut self) -> Option<u64> {
        let sent = &self.payloads[self.current];
        match self.reply.take() {
            Some(Ok(reply)) if reply == *sent => Some(2 * sent.0.len() as u64),
            _ => None,
        }
    }
}

pub struct EchoEnv {
    fabric: Fabric,
    server: Server,
    clients: Vec<Client>,
}

/// Boot the server and the clients, connect, and warm up: everything a
/// process pays before its first steady-state call.
pub fn boot(spec: &EchoSpec, inputs: &EchoInputs) -> RpcResult<(EchoEnv, Vec<Box<dyn Caller>>)> {
    let (net, cfg) = spec.transport();
    let fabric = Fabric::new(net);
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(&fabric, fabric.add_node(), PORT, cfg.clone(), registry)?;

    let n_clients = if spec.shared_client { 1 } else { CALLERS };
    let clients = (0..n_clients)
        .map(|_| Client::new(&fabric, fabric.add_node(), cfg.clone()))
        .collect::<RpcResult<Vec<_>>>()?;

    let mut callers: Vec<EchoCaller> = (0..CALLERS)
        .map(|c| EchoCaller {
            client: clients[c % n_clients].clone(),
            server: server.addr(),
            payloads: inputs.payloads[c]
                .iter()
                .cloned()
                .map(BytesWritable)
                .collect(),
            current: 0,
            reply: None,
        })
        .collect();

    // Warm-up is a fixed count, not a time: connection set-up, pool
    // registration and size-history learning all happen in here, and a
    // faster build must not get a longer warm-up for it.
    let warm = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                scope.spawn(move || {
                    (0..spec.warmup_calls).all(|i| {
                        caller.prepare(u64::MAX - i as u64);
                        caller.invoke();
                        caller.check().is_some()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .all(|h| h.join().expect("a warm-up thread panicked"))
    });
    if !warm {
        return Err(rpcoib::RpcError::Protocol(
            "a warm-up call failed or echoed the wrong bytes".into(),
        ));
    }

    let env = EchoEnv {
        fabric,
        server,
        clients,
    };
    let callers = callers
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn Caller>)
        .collect();
    Ok((env, callers))
}

impl Env for EchoEnv {
    fn fabrics(&self) -> Vec<Fabric> {
        vec![self.fabric.clone()]
    }

    fn surfaces(&self) -> Surfaces {
        let mut s = Surfaces::default();
        for client in &self.clients {
            s.add_client(&client.metrics_snapshot());
        }
        let server: MetricsSnapshot = self.server.metrics_snapshot();
        s.add_server(&server);
        s.add_fabric(&self.fabric);
        s
    }

    fn teardown(self: Box<Self>) {
        for client in &self.clients {
            client.shutdown();
        }
        self.server.stop();
    }
}
