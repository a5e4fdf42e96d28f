//! One verbs context per node: every verbs endpoint on a node with the
//! same buffer geometry takes its receive buffers from one shared receive
//! queue and its registered memory from one pool
//! ([`IbContext::for_node`]). What a node keeps posted does not grow with
//! its connections, and an endpoint's pool counters are its node's.

use std::sync::Arc;

use rpcoib::transport::rdma::SRQ_DEPTH;
use rpcoib::{Client, IbContext, RpcConfig, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric, NodeId};
use wire::{BytesWritable, DataInput, Writable};

struct EchoService;

impl RpcService for EchoService {
    fn protocol(&self) -> &'static str {
        "test.NodeContext"
    }
    fn call(
        &self,
        _method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut payload = BytesWritable::default();
        payload.read_fields(param).map_err(|e| e.to_string())?;
        Ok(Box::new(payload))
    }
}

fn start(fabric: &Fabric, node: NodeId, cfg: &RpcConfig) -> Server {
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    Server::start(fabric, node, 8020, cfg.clone(), registry).unwrap()
}

fn echo(client: &Client, server: &Server) {
    let body = BytesWritable(vec![7u8; 300]);
    let back: BytesWritable = client
        .call(server.addr(), "test.NodeContext", "echo", &body)
        .unwrap();
    assert_eq!(back, body);
}

/// The HDFS data plane's buffers (`HdfsConfig::data_rpc_config` at its
/// default 64 KiB chunk): larger receive buffers, so another context.
fn data_plane_cfg() -> RpcConfig {
    RpcConfig {
        rdma_threshold: 64 * 1024 + 256,
        recv_buf_bytes: 128 * 1024,
        large_region_bytes: 1024 * 1024,
        prefill_per_class: 2,
        ..RpcConfig::rpcoib()
    }
}

#[test]
fn a_client_and_a_server_on_one_node_share_its_context_and_the_data_plane_does_not() {
    simnet::set_fast_forward(true);
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let (a, b) = (fabric.add_node(), fabric.add_node());
    let cfg = RpcConfig::rpcoib();
    let server_a = start(&fabric, a, &cfg);
    let server_b = start(&fabric, b, &cfg);
    let client_a = Client::new(&fabric, a, cfg.clone()).unwrap();
    let data_a = Client::new(&fabric, a, data_plane_cfg()).unwrap();
    let pool = |snapshot: rpcoib::MetricsSnapshot| snapshot.pool.expect("a verbs endpoint");
    let (served_before, data_before) = (
        pool(server_a.metrics_snapshot()),
        pool(data_a.metrics_snapshot()),
    );

    for _ in 0..20 {
        echo(&client_a, &server_b);
    }
    // Server A served nothing, yet its pool served client A's calls: it
    // is the node's. The data-plane endpoint's is not.
    let served_after = pool(server_a.metrics_snapshot());
    assert!(served_after.native_hits > served_before.native_hits);
    assert_eq!(served_after, pool(client_a.metrics_snapshot()));
    assert_eq!(pool(data_a.metrics_snapshot()), data_before);
    assert_eq!(
        IbContext::for_node(&fabric, a, &cfg)
            .unwrap()
            .posted_recvs(),
        SRQ_DEPTH
    );
    for client in [&client_a, &data_a] {
        client.shutdown();
    }
    server_a.stop();
    server_b.stop();
}

#[test]
fn sixteen_connections_into_a_node_post_what_one_does() {
    simnet::set_fast_forward(true);
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let node = fabric.add_node();
    let cfg = RpcConfig::rpcoib();
    let server = start(&fabric, node, &cfg);
    let clients: Vec<Client> = (0..16)
        .map(|_| Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap())
        .collect();
    echo(&clients[0], &server);
    let ctx = IbContext::for_node(&fabric, node, &cfg).unwrap();
    assert_eq!(ctx.posted_recvs(), SRQ_DEPTH);
    let held_by_one = fabric.registered_bytes(node);
    for client in &clients[1..] {
        echo(client, &server);
    }
    assert_eq!(ctx.posted_recvs(), SRQ_DEPTH);
    // Each server end registers its large region and its two small send
    // regions; nothing it receives into.
    let per_end = cfg.large_region_bytes as u64 + 128 + 64;
    assert_eq!(fabric.registered_bytes(node) - held_by_one, 15 * per_end);
    for client in &clients {
        client.shutdown();
    }
    server.stop();
}
