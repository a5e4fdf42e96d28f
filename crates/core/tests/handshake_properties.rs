//! Property tests for the connect handshake's trust boundary: whatever
//! bytes a peer opens with, `server_accept` must classify them exactly —
//! a handshake (acked at our version), a refused peer (no magic, or an
//! older version: `Protocol`, and not one byte written back), or a
//! vanished peer — without ever panicking. Plus the one compatibility
//! promise the version byte exists for, over the wire: a peer from the
//! future is acked our version and served.

use std::io::Write;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use rpcoib::handshake::{server_accept, MAGIC, MAX_VERSION};
use rpcoib::intern::method_key;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::socket::SocketConn;
use rpcoib::transport::Conn;
use rpcoib::{
    IbContext, ResponseStatus, RpcConfig, RpcError, RpcService, Server, ServiceRegistry, V3Decoder,
    V3Encoder,
};
use simnet::{model, Fabric, SimAddr, SimListener, SimStream};
use wire::{DataInput, LongWritable, Writable};

fn stream_pair() -> (SimStream, SimStream) {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server = fabric.add_node();
    let client = fabric.add_node();
    let addr = SimAddr::new(server, 9100);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let f2 = fabric.clone();
    let h = thread::spawn(move || SimStream::connect(&f2, client, addr).unwrap());
    let (srv, _) = listener.accept().unwrap();
    (h.join().unwrap(), srv)
}

const ASSIGNED: u64 = 0xA551;

/// The specification of the boundary, written independently of the
/// implementation: what `server_accept` must return for a peer whose
/// entire output is `data` followed by EOF.
enum Expect {
    /// Peer vanished mid-handshake (too few bytes).
    Io,
    /// First four bytes are not the magic, or the magic with a version
    /// this server does not speak: refused, nothing written back.
    Refused,
    /// Well-formed hello; the connection speaks our version under this
    /// id.
    Accepted(u64),
}

fn oracle(data: &[u8]) -> Expect {
    if data.len() < 4 {
        return Expect::Io;
    }
    if u32::from_be_bytes(data[..4].try_into().unwrap()) != MAGIC {
        return Expect::Refused;
    }
    if data.len() < 13 {
        return Expect::Io;
    }
    if data[4] < MAX_VERSION {
        return Expect::Refused;
    }
    let presented = u64::from_be_bytes(data[5..13].try_into().unwrap());
    Expect::Accepted(if presented == 0 { ASSIGNED } else { presented })
}

/// Run `server_accept` against a peer that writes `data` and then shuts
/// down its write half, and check the outcome — and every byte the server
/// wrote back — against the oracle.
fn check(data: &[u8]) {
    let (cli, srv) = stream_pair();
    (&cli).write_all(data).unwrap();
    cli.shutdown_write();

    let out = server_accept(&srv, || ASSIGNED);
    // Closing the server end bounds what the peer can read: whatever
    // `server_accept` wrote, then EOF.
    drop(srv);
    let mut one = [0u8; 1];
    match oracle(data) {
        Expect::Io => prop_assert!(
            matches!(out, Err(RpcError::Io(_))),
            "{} bytes must read as a vanished peer, got {out:?}",
            data.len()
        ),
        Expect::Refused => {
            prop_assert!(
                matches!(out, Err(RpcError::Protocol(_))),
                "opening {:?} must be refused, got {out:?}",
                &data[..data.len().min(5)]
            );
            prop_assert!(
                cli.read_exact_at(&mut one).is_err(),
                "a refused peer must be written nothing"
            );
        }
        Expect::Accepted(id) => {
            prop_assert_eq!(out.unwrap(), id, "hello bytes {:?}", data);
            // The ack confirms our version — whatever the peer offered —
            // and the identity, and nothing follows it.
            let mut ack = [0u8; 9];
            cli.read_exact_at(&mut ack).unwrap();
            prop_assert_eq!(ack[0], MAX_VERSION);
            prop_assert_eq!(u64::from_be_bytes(ack[1..9].try_into().unwrap()), id);
            prop_assert!(
                cli.read_exact_at(&mut one).is_err(),
                "nothing after the ack"
            );
        }
    }
}

proptest! {
    /// Arbitrary opening bytes: overwhelmingly refused or vanished peers.
    #[test]
    fn arbitrary_prefix_never_panics(data in proptest::collection::vec(any::<u8>(), 0..40)) {
        check(&data);
    }

    /// Magic-led opening bytes: exercises truncated hellos, old
    /// versions, zero ids (assignment), and complete handshakes.
    #[test]
    fn magic_prefix_classifies_exactly(tail in proptest::collection::vec(any::<u8>(), 0..20)) {
        let mut data = MAGIC.to_be_bytes().to_vec();
        data.extend_from_slice(&tail);
        check(&data);
    }

    /// Well-formed 13-byte hellos over the full version × id space:
    /// below our version refused, at or above it acked our version.
    #[test]
    fn full_hello_roundtrip(version in any::<u8>(), id in any::<u64>()) {
        let mut data = MAGIC.to_be_bytes().to_vec();
        data.push(version);
        data.extend_from_slice(&id.to_be_bytes());
        check(&data);
    }
}

struct Echo;

impl RpcService for Echo {
    fn protocol(&self) -> &'static str {
        "nego.Echo"
    }
    fn call(
        &self,
        _method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut v = LongWritable::default();
        v.read_fields(param).map_err(|e| e.to_string())?;
        Ok(Box::new(v))
    }
}

/// A build from the future — its hello offers a version in 4..=255 — is
/// acked version 3 and then served in it, on both transports: the peer
/// speaks the frame codec by hand over a raw connection and gets its
/// echo back.
#[test]
fn future_peer_is_acked_our_version_and_served() {
    for ib in [false, true] {
        let (fabric, cfg) = if ib {
            (Fabric::new(model::IB_QDR_VERBS), RpcConfig::rpcoib())
        } else {
            (Fabric::new(model::IPOIB_QDR), RpcConfig::socket())
        };
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(Echo));
        let server =
            Server::start(&fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
        let key = method_key("nego.Echo", "echo");

        for (i, offered) in [4u8, 5, 128, 255].into_iter().enumerate() {
            let node = fabric.add_node();
            let stream = SimStream::connect(&fabric, node, server.addr()).unwrap();
            let mut hello = [0u8; 13];
            hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
            hello[4] = offered;
            hello[5..].copy_from_slice(&(0xf00d + i as u64).to_be_bytes());
            (&stream).write_all(&hello).unwrap();
            let mut ack = [0u8; 9];
            stream.read_exact_at(&mut ack).unwrap();
            assert_eq!(ack[0], 3, "ib={ib}: offer {offered} must be acked 3");

            let ctx = ib.then(|| IbContext::new(&fabric, node, &cfg).unwrap());
            let conn: Box<dyn Conn> = match &ctx {
                Some(ctx) => Box::new(RdmaConn::bootstrap(&stream, ctx, &cfg).unwrap()),
                None => Box::new(SocketConn::new(stream, 64)),
            };
            let (mut enc, mut dec) = (V3Encoder::new(!ib), V3Decoder::new(!ib));
            let sent = LongWritable(1000 + i64::from(offered));
            conn.send_msg(key, &mut |out| {
                enc.write_request_header(out, 1, 0, None, key)?;
                sent.write(out)
            })
            .unwrap();
            let (payload, _) = conn.recv_msg(Duration::from_secs(30)).unwrap();
            let mut reader = payload.reader();
            let header = dec.read_response_header(&mut reader).unwrap();
            assert_eq!((header.seq, header.status), (1, ResponseStatus::Ok));
            let mut echoed = LongWritable::default();
            echoed.read_fields(&mut reader).unwrap();
            assert_eq!(echoed.0, sent.0, "ib={ib}: offer {offered} must be served");
            conn.close();
        }
        assert_eq!(server.metrics_snapshot().counters.frame_errors, 0);
        server.stop();
    }
}
