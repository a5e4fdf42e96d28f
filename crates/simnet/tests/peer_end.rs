//! A peer's end is an event, on both transports. A receive blocked on
//! another thread — a verbs `poll_recv`, a stream read — returns within
//! [`PROMPT`] of its peer's drop, a kill of either node, or its own local
//! close. It first reads what had arrived, and its armed readiness hook
//! fires exactly once for the end.

use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use simnet::{model, Fabric, RdmaDevice, SimAddr, SimListener, SimStream, VerbsError};

/// How soon after the end the blocked receive must have returned.
const PROMPT: Duration = Duration::from_millis(100);

/// How long the receive would block with no end delivered.
const PATIENCE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy)]
enum End {
    DropPeer,
    KillPeerNode,
    KillOwnNode,
    CloseLocally,
}

/// A counting readiness hook, armed through `arm`.
fn armed(arm: impl FnOnce(Arc<dyn Fn() + Send + Sync>)) -> Arc<AtomicUsize> {
    let fired = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&fired);
    arm(Arc::new(move || {
        count.fetch_add(1, Ordering::SeqCst);
    }));
    fired
}

fn verbs_case(end: End) {
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let (a, b) = (fabric.add_node(), fabric.add_node());
    let dev_a = RdmaDevice::open(&fabric, a).unwrap();
    let dev_b = RdmaDevice::open(&fabric, b).unwrap();
    let (qa, qb) = (dev_a.create_qp(), Arc::new(dev_b.create_qp()));
    qa.connect(qb.endpoint());
    qb.connect(qa.endpoint());
    for wr in 0..2 {
        qb.post_recv(wr, dev_b.register(64));
    }
    let fired = armed(|hook| qb.set_recv_interest(hook));
    let receiver = {
        let qb = Arc::clone(&qb);
        thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match qb.poll_recv(PATIENCE) {
                    Ok(done) => got.push(done.imm),
                    Err(e) => return (got, e, Instant::now()),
                }
            }
        })
    };
    thread::sleep(Duration::from_millis(30));
    assert!(!receiver.is_finished(), "{end:?}: the poll is blocked");
    qa.post_send(&dev_a.register(64), 0, 8, 7).unwrap();
    let before = fired.load(Ordering::SeqCst);
    let at = Instant::now();
    match end {
        End::DropPeer => drop(qa),
        End::KillPeerNode => fabric.kill_node(a),
        End::KillOwnNode => fabric.kill_node(b),
        End::CloseLocally => qb.disconnect(),
    }
    let (got, err, ended) = receiver.join().unwrap();
    assert_eq!(got, [7], "{end:?}: what had arrived is read first");
    assert_eq!(err, VerbsError::PeerDown, "{end:?}");
    let took = ended - at;
    assert!(took < PROMPT, "{end:?}: the poll returned {took:?} after");
    assert_eq!(
        fired.load(Ordering::SeqCst) - before,
        1,
        "{end:?}: the end fires the hook once"
    );
}

fn stream_case(end: End) {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let (srv_node, cli_node) = (fabric.add_node(), fabric.add_node());
    let addr = SimAddr::new(srv_node, 9000);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let connector = {
        let fabric = fabric.clone();
        thread::spawn(move || SimStream::connect(&fabric, cli_node, addr).unwrap())
    };
    let (srv, _) = listener.accept().unwrap();
    let mut cli = connector.join().unwrap();
    srv.set_read_timeout(Some(PATIENCE));
    let fired = armed(|hook| srv.set_read_interest(hook));
    let receiver = {
        let srv = srv.clone();
        thread::spawn(move || {
            let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
            loop {
                match (&srv).read(&mut buf) {
                    Ok(0) => return (got, None, Instant::now()),
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) => return (got, Some(e.kind()), Instant::now()),
                }
            }
        })
    };
    thread::sleep(Duration::from_millis(30));
    assert!(!receiver.is_finished(), "{end:?}: the read is blocked");
    cli.write_all(b"arrived").unwrap();
    let before = fired.load(Ordering::SeqCst);
    let at = Instant::now();
    match end {
        End::DropPeer => drop(cli),
        End::KillPeerNode => fabric.kill_node(cli_node),
        End::KillOwnNode => fabric.kill_node(srv_node),
        End::CloseLocally => srv.shutdown_read(),
    }
    let (got, ending, ended) = receiver.join().unwrap();
    assert_eq!(got, b"arrived", "{end:?}: what had arrived is read first");
    let reset = matches!(end, End::KillPeerNode | End::KillOwnNode);
    assert_eq!(
        ending,
        reset.then_some(ErrorKind::ConnectionReset),
        "{end:?}: a killed node resets the stream, a close ends it"
    );
    let took = ended - at;
    assert!(took < PROMPT, "{end:?}: the read returned {took:?} after");
    assert_eq!(
        fired.load(Ordering::SeqCst) - before,
        1,
        "{end:?}: the end fires the hook once"
    );
}

#[test]
fn a_dropped_peer_ends_a_blocked_receive_after_what_arrived() {
    verbs_case(End::DropPeer);
    stream_case(End::DropPeer);
}

#[test]
fn a_killed_peer_node_ends_a_blocked_receive_after_what_arrived() {
    verbs_case(End::KillPeerNode);
    stream_case(End::KillPeerNode);
}

#[test]
fn a_killed_own_node_ends_a_blocked_receive_after_what_arrived() {
    verbs_case(End::KillOwnNode);
    stream_case(End::KillOwnNode);
}

#[test]
fn a_local_close_ends_a_blocked_receive_after_what_arrived() {
    verbs_case(End::CloseLocally);
    stream_case(End::CloseLocally);
}
