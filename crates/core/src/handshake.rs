//! Connect-time handshake: wire version and client identity.
//!
//! Before any RPC frame (and, in RPCoIB mode, before the verbs end-point
//! exchange) the client sends a 13-byte hello over the freshly connected
//! stream — `[u32 MAGIC][u8 version][u64 client_id]` — and the server
//! answers with a 9-byte ack, `[u8 version][u64 client_id]`, carrying the
//! version the connection will speak and the identity it will speak under.
//! There is one wire version ([`MAX_VERSION`]; see [`crate::frame`]): the
//! server acks it to every peer that offers at least that much and
//! refuses a peer that offers less. The byte stays in both messages as
//! the forward-compatibility hook — a later build can offer more and
//! still be acked what this one speaks.
//!
//! The handshake is *demanded*. A connection whose first four bytes are
//! not the magic is refused before anything else is read from it: nothing
//! is written back, no endpoint exchange starts, and no byte of it is ever
//! interpreted as a frame length. The peer sees its connection close.
//!
//! The `client_id` keys the server's retry cache, so it must be stable
//! across reconnects of one client and unique among all clients a server
//! ever sees. A client normally mints its own random id at construction
//! and presents it on every connect; a client that presents `0` is handed
//! a server-assigned id in the ack ("handed out at connect handshake"),
//! which it adopts and re-presents on subsequent connects.

use std::io::Write;

use simnet::SimStream;

use crate::error::{RpcError, RpcResult};

/// `b"RPCB"` — first bytes on every connection.
pub const MAGIC: u32 = 0x5250_4342;

/// The wire version this build speaks (see [`crate::frame`]) — the
/// highest, and the only one.
pub const MAX_VERSION: u8 = 3;

/// Client side: offer [`MAX_VERSION`] and present `client_id` (0 = please
/// assign one). Returns the id the server confirmed or assigned.
pub fn client_hello(stream: &SimStream, client_id: u64) -> RpcResult<u64> {
    let mut hello = [0u8; 13];
    hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
    hello[4] = MAX_VERSION;
    hello[5..].copy_from_slice(&client_id.to_be_bytes());
    // A server at `max_connections` refuses without reading: it writes
    // its busy ack and closes, possibly before this hello is out. A send
    // that failed with something already there to read therefore decides
    // nothing yet — that something may be the ack, the retryable answer.
    // (With nothing there, nothing is waited for: the peer never heard
    // the hello and will not answer it.)
    let sent = (&*stream).write_all(&hello);
    if let Err(e) = &sent {
        if !stream.readable() {
            return Err(RpcError::Io(e.to_string()));
        }
    }
    let mut ack = [0u8; 9];
    if let Err(unread) = stream.read_exact_at(&mut ack) {
        return Err(RpcError::Io(sent.err().unwrap_or(unread).to_string()));
    }
    if ack[0] != 0 {
        sent.map_err(|e| RpcError::Io(e.to_string()))?;
    }
    match ack[0] {
        // Accept-path backpressure: the server is at `max_connections`
        // and refused this connection before any setup. Retryable — the
        // client backs off and reconnects.
        0 => return Err(RpcError::ServerBusy),
        MAX_VERSION => {}
        other => {
            return Err(RpcError::Protocol(format!(
                "server acked wire version {other}, this client speaks {MAX_VERSION}"
            )))
        }
    }
    let confirmed = u64::from_be_bytes(ack[1..9].try_into().expect("8-byte slice"));
    if confirmed == 0 {
        return Err(RpcError::Protocol("server confirmed client_id 0".into()));
    }
    Ok(confirmed)
}

/// Server side: demand the hello on a freshly accepted connection, ack
/// [`MAX_VERSION`] with the connection's client id (assigned via `assign` if
/// the client presented 0), and return that id.
///
/// `Protocol` errors mean the peer did not open with the magic, or
/// offered a version below [`MAX_VERSION`]: nothing was written to it, and
/// the caller counts it and closes. `Io` means the peer vanished
/// mid-handshake (routine churn).
pub fn server_accept(stream: &SimStream, assign: impl FnOnce() -> u64) -> RpcResult<u64> {
    let mut hello = [0u8; 13];
    stream
        .read_exact_at(&mut hello[..4])
        .map_err(|e| RpcError::Io(e.to_string()))?;
    if hello[..4] != MAGIC.to_be_bytes() {
        return Err(RpcError::Protocol(format!(
            "connection opened with {:02x?}, not the handshake magic",
            &hello[..4]
        )));
    }
    stream
        .read_exact_at(&mut hello[4..])
        .map_err(|e| RpcError::Io(e.to_string()))?;
    let peer_version = hello[4];
    if peer_version < MAX_VERSION {
        return Err(RpcError::Protocol(format!(
            "peer offers wire version {peer_version}, this server speaks {MAX_VERSION}"
        )));
    }
    let presented = u64::from_be_bytes(hello[5..].try_into().expect("8-byte slice"));
    let client_id = if presented == 0 { assign() } else { presented };

    let mut ack = [0u8; 9];
    ack[0] = MAX_VERSION;
    ack[1..].copy_from_slice(&client_id.to_be_bytes());
    (&*stream)
        .write_all(&ack)
        .map_err(|e| RpcError::Io(e.to_string()))?;
    Ok(client_id)
}

/// Mint a random, non-zero client id. Mixes wall-clock entropy, the
/// caller-supplied salt (e.g. an address), and a process-wide counter
/// through splitmix64, so two clients created in the same nanosecond on
/// different nodes still diverge.
pub fn mint_client_id(salt: u64) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5eed);
    let raw = nanos ^ salt.rotate_left(17) ^ COUNTER.fetch_add(0x9e37_79b9, Ordering::Relaxed);
    let mut z = raw.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{model, Fabric, SimAddr, SimListener};
    use std::thread;

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

    #[test]
    fn presented_id_is_confirmed() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || client_hello(&cli, 0xfeed).unwrap());
        let seen = server_accept(&srv, || panic!("must not assign")).unwrap();
        assert_eq!(seen, 0xfeed);
        assert_eq!(h.join().unwrap(), 0xfeed);
    }

    #[test]
    fn future_peer_is_acked_our_version() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || {
            let mut hello = [0u8; 13];
            hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
            hello[4] = MAX_VERSION + 5; // a build from the future
            hello[5..].copy_from_slice(&0xbeefu64.to_be_bytes());
            (&cli).write_all(&hello).unwrap();
            let mut ack = [0u8; 9];
            cli.read_exact_at(&mut ack).unwrap();
            ack[0]
        });
        assert_eq!(server_accept(&srv, || 1).unwrap(), 0xbeef);
        assert_eq!(h.join().unwrap(), MAX_VERSION);
    }

    #[test]
    fn zero_id_gets_assigned() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || client_hello(&cli, 0).unwrap());
        assert_eq!(server_accept(&srv, || 777).unwrap(), 777);
        assert_eq!(h.join().unwrap(), 777, "assigned id travels back");
    }

    /// What the peer of a refused connection sees: no byte, then EOF.
    fn assert_refused(opening: &[u8]) {
        let (cli, srv) = stream_pair();
        (&cli).write_all(opening).unwrap();
        let err = server_accept(&srv, || panic!("must not assign")).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        drop(srv);
        let mut byte = [0u8; 1];
        assert!(
            cli.read_exact_at(&mut byte).is_err(),
            "a refused peer must be written nothing"
        );
    }

    #[test]
    fn non_magic_peer_is_refused_with_nothing_written() {
        // A frame length prefix (what a pre-handshake peer would open
        // with), and an HTTP probe.
        assert_refused(&[0, 0, 0, 64, 0xab, 0xcd]);
        assert_refused(b"GET / HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn busy_ack_maps_to_retryable_server_busy() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || client_hello(&cli, 0xfeed));
        // The listener's refusal: the 9-byte ack with version byte 0,
        // written without reading the hello.
        (&srv).write_all(&[0u8; 9]).unwrap();
        let err = h.join().unwrap().unwrap_err();
        drop(srv);
        assert!(matches!(err, RpcError::ServerBusy), "{err}");
        assert!(err.is_retryable(), "accept rejection must be retryable");
    }

    #[test]
    fn busy_ack_is_read_even_when_the_server_closed_before_the_hello() {
        // A listener that accepts at once can have refused and hung up
        // before the client has said anything.
        let (cli, srv) = stream_pair();
        (&srv).write_all(&[0u8; 9]).unwrap();
        drop(srv);
        let err = client_hello(&cli, 0xfeed).unwrap_err();
        assert!(matches!(err, RpcError::ServerBusy), "{err}");
        // Hung up on with nothing said: still the I/O error it was.
        let (cli, srv) = stream_pair();
        drop(srv);
        let err = client_hello(&cli, 0xfeed).unwrap_err();
        assert!(matches!(err, RpcError::Io(_)), "{err}");
    }

    #[test]
    fn client_accepts_only_its_own_version_in_the_ack() {
        for acked in [2u8, MAX_VERSION + 1] {
            let (cli, srv) = stream_pair();
            let h = thread::spawn(move || client_hello(&cli, 0xfeed));
            let mut ack = [0u8; 9];
            ack[0] = acked;
            ack[1..].copy_from_slice(&0xfeedu64.to_be_bytes());
            (&srv).write_all(&ack).unwrap();
            let err = h.join().unwrap().unwrap_err();
            assert!(matches!(err, RpcError::Protocol(_)), "ack {acked}: {err}");
        }
    }

    #[test]
    fn magic_with_an_older_version_is_refused() {
        for version in [0u8, 1, 2] {
            let mut hello = [0u8; 13];
            hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
            hello[4] = version;
            hello[5..].copy_from_slice(&0xfeedu64.to_be_bytes());
            assert_refused(&hello);
        }
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let id = mint_client_id(i % 3);
            assert_ne!(id, 0);
            assert!(seen.insert(id), "collision at iteration {i}");
        }
    }
}
