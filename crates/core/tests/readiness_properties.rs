//! Equivalence property for the reader's readiness-queue event model:
//! under arbitrary interleavings of sends, EOFs, and (on verbs) injected
//! message drops, a consumer driven by [`ReadyQueue`]/[`WakeState`] wake
//! tokens must deliver exactly the frames — same sets, same per-connection
//! order — that the pre-event `poll_ready` sweep oracle delivers.
//!
//! The two runs build identical fabrics with the same fault seed and
//! apply the same schedule, so verbs drop coins replay identically (the
//! fault window only spans client-side sequential sends, and wake-hook
//! fires are charge-free and draw nothing). Divergence therefore means a
//! readiness bug: a lost wakeup (event consumer starves and the queue
//! stays empty), a spurious one (a token for a conn that is not ready), or
//! a non-sticky EOF.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rpcoib::intern::method_key;
use rpcoib::readiness::{token, token_slot, ReadyQueue, WakeState};
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::socket::SocketConn;
use rpcoib::transport::Conn;
use rpcoib::{IbContext, RpcConfig, RpcError};
use simnet::{model, Fabric, FaultSpec, SimAddr, SimListener, SimStream};

/// Frames a ready conn serves per wake before the level-trigger re-arm —
/// deliberately small so partial reads (the re-arm path) happen often.
const BURST: usize = 3;

/// Last frame on every conn that stays open; consumers run until each
/// conn has produced its sentinel or a (sticky) EOF.
const SENTINEL: &[u8] = &[0xEE];

/// One step of a schedule. `conn` indexes are taken modulo the case's
/// connection count, so any generated index is well-formed.
#[derive(Debug, Clone)]
enum Op {
    Send { conn: usize, len: usize },
    Eof { conn: usize },
}

/// Decode raw `(conn, kind, len)` tuples (the shapes the proptest shim
/// can generate) into ops: kind 0 — one draw in five — is an EOF.
fn to_ops(raw: &[(usize, usize, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(conn, kind, len)| {
            if kind == 0 {
                Op::Eof { conn }
            } else {
                Op::Send { conn, len }
            }
        })
        .collect()
}

/// Abort (not hang) if a run wedges — a lost wakeup in the event
/// consumer would otherwise stall the whole property suite.
struct Watchdog {
    done: Arc<AtomicBool>,
}

fn watchdog(name: &'static str, limit: Duration) -> Watchdog {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("watchdog: {name} exceeded {limit:?}, aborting");
        std::process::abort();
    });
    Watchdog { done }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
    }
}

struct Harness {
    fabric: Fabric,
    server_node: simnet::NodeId,
    client_node: simnet::NodeId,
    cli: Vec<Option<Arc<dyn Conn>>>,
    srv: Vec<Arc<dyn Conn>>,
}

/// `n_conns` raw conn pairs on a fresh seeded fabric — the same
/// transport bring-up the engine's accept path performs, minus the
/// engine, so the consumers under test own the read side outright.
fn harness(rdma: bool, n_conns: usize, seed: u64) -> Harness {
    let (net, cfg) = if rdma {
        (model::IB_QDR_VERBS, RpcConfig::rpcoib())
    } else {
        (model::IPOIB_QDR, RpcConfig::socket())
    };
    let fabric = Fabric::new(net);
    fabric.set_fault_seed(seed);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let addr = SimAddr::new(server_node, 9800);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let mut cli: Vec<Option<Arc<dyn Conn>>> = Vec::new();
    let mut srv: Vec<Arc<dyn Conn>> = Vec::new();
    let ctxs = rdma.then(|| {
        (
            IbContext::new(&fabric, client_node, &cfg).unwrap(),
            IbContext::new(&fabric, server_node, &cfg).unwrap(),
        )
    });
    for _ in 0..n_conns {
        let f2 = fabric.clone();
        let connect =
            std::thread::spawn(move || SimStream::connect(&f2, client_node, addr).unwrap());
        let (srv_stream, _) = listener.accept().unwrap();
        let cli_stream = connect.join().unwrap();
        if let Some((cli_ctx, srv_ctx)) = &ctxs {
            let rpc = cfg.clone();
            let cli_ctx = cli_ctx.clone();
            let h = std::thread::spawn(move || {
                RdmaConn::bootstrap(&cli_stream, &cli_ctx, &rpc).unwrap()
            });
            srv.push(Arc::new(
                RdmaConn::bootstrap(&srv_stream, srv_ctx, &cfg).unwrap(),
            ));
            cli.push(Some(Arc::new(h.join().unwrap())));
        } else {
            cli.push(Some(Arc::new(SocketConn::new(cli_stream, 4096))));
            srv.push(Arc::new(SocketConn::new(srv_stream, 4096)));
        }
    }
    Harness {
        fabric,
        server_node,
        client_node,
        cli,
        srv,
    }
}

/// Serve up to `burst` frames from one ready conn. Shared verbatim by
/// both consumers so any delivery difference comes from *when* a conn is
/// visited, never from how it is read.
fn drain_conn(
    conn: &Arc<dyn Conn>,
    delivered: &mut Vec<Vec<u8>>,
    done: &mut bool,
    burst: usize,
) -> bool {
    let mut progress = false;
    for _ in 0..burst {
        if *done || !conn.poll_ready() {
            break;
        }
        match conn.recv_msg(Duration::from_millis(200)) {
            Ok((payload, _)) => {
                let bytes = payload
                    .reader()
                    .with_bytes(payload.len(), <[u8]>::to_vec)
                    .unwrap();
                progress = true;
                if bytes == SENTINEL {
                    *done = true;
                } else {
                    delivered.push(bytes);
                }
            }
            Err(RpcError::ConnectionClosed) => {
                assert!(conn.poll_ready(), "EOF readiness must be sticky");
                *done = true;
                progress = true;
            }
            // A ready verbs completion can be credit-only; bounded
            // timeout is the shard's answer there too.
            Err(RpcError::Timeout) => break,
            Err(e) => panic!("unexpected recv error: {e:?}"),
        }
    }
    progress
}

/// Apply `ops` (with an optional verbs drop-fault window over
/// `ops[fault.0..fault.1]`) and consume every conn to its sentinel/EOF,
/// via the event model (`event = true`) or the sweep oracle. Returns the
/// delivered frames per conn.
fn run(
    rdma: bool,
    n_conns: usize,
    ops: &[Op],
    fault: Option<(usize, usize)>,
    seed: u64,
    event: bool,
) -> Vec<Vec<Vec<u8>>> {
    simnet::set_fast_forward(true);
    let mut h = harness(rdma, n_conns, seed);
    let key = method_key("prop.Readiness", "frame");
    let mut delivered: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_conns];
    let mut done = vec![false; n_conns];
    let mut eof = vec![false; n_conns];
    let mut seq = vec![0u16; n_conns];

    // Event plumbing: hooks registered before any traffic, exactly like
    // the server registering a conn before its first frame can arrive.
    let queue = Arc::new(ReadyQueue::new(None));
    let wakes: Vec<Arc<WakeState>> = (0..n_conns)
        .map(|i| Arc::new(WakeState::new(token(i, 0), Arc::clone(&queue))))
        .collect();
    if event {
        for (i, conn) in h.srv.iter().enumerate() {
            let ws = Arc::clone(&wakes[i]);
            conn.set_ready_hook(Arc::new(move || {
                ws.wake();
            }));
            if conn.poll_ready() {
                wakes[i].wake();
            }
        }
    }

    // Bounded consumer step used mid-schedule, so consumption genuinely
    // interleaves with production instead of trailing it.
    let step = |delivered: &mut Vec<Vec<Vec<u8>>>, done: &mut Vec<bool>| {
        if event {
            for _ in 0..2 {
                let Some(tok) = queue.try_pop() else { break };
                let i = token_slot(tok);
                wakes[i].begin_poll();
                if done[i] {
                    continue;
                }
                assert!(
                    h.srv[i].poll_ready(),
                    "spurious wakeup: token for conn {i} that is not ready"
                );
                drain_conn(&h.srv[i], &mut delivered[i], &mut done[i], BURST);
                if !done[i] && h.srv[i].poll_ready() {
                    wakes[i].wake();
                }
            }
        } else {
            for i in 0..n_conns {
                if !done[i] && h.srv[i].poll_ready() {
                    drain_conn(&h.srv[i], &mut delivered[i], &mut done[i], BURST);
                }
            }
        }
    };

    for (at, op) in ops.iter().enumerate() {
        if let Some((start, end)) = fault {
            if at == start {
                h.fabric.set_link_fault(
                    h.server_node,
                    h.client_node,
                    FaultSpec::default().with_drop_rate(0.25),
                );
            }
            if at == end {
                h.fabric
                    .set_link_fault(h.server_node, h.client_node, FaultSpec::default());
            }
        }
        match *op {
            Op::Send { conn, len } => {
                let i = conn % n_conns;
                if eof[i] {
                    continue;
                }
                let mut frame = vec![0x11u8; len.max(4)];
                frame[0] = 0xAB;
                frame[1] = i as u8;
                frame[2] = seq[i] as u8;
                frame[3] = (seq[i] >> 8) as u8;
                seq[i] += 1;
                h.cli[i]
                    .as_ref()
                    .unwrap()
                    .send_msg(key, &mut |out| out.write_bytes(&frame))
                    .unwrap();
            }
            Op::Eof { conn } => {
                let i = conn % n_conns;
                if eof[i] {
                    continue;
                }
                eof[i] = true;
                h.cli[i] = None; // drop the client end
                if rdma {
                    // Verbs has no in-band EOF; the engine tears the conn
                    // down out-of-band. Drain what already landed (so the
                    // delivered set is consumer-independent — close()
                    // discards any pending stash), then model the
                    // teardown with a local close: itself a readiness
                    // edge the hook must fire.
                    while !done[i] && h.srv[i].poll_ready() {
                        if !drain_conn(&h.srv[i], &mut delivered[i], &mut done[i], BURST) {
                            break;
                        }
                    }
                    h.srv[i].close();
                }
            }
        }
        if at % 3 == 2 {
            step(&mut delivered, &mut done);
        }
    }
    // Close the fault window if the schedule ended inside it, then mark
    // end-of-stream on every conn still open.
    h.fabric
        .set_link_fault(h.server_node, h.client_node, FaultSpec::default());
    for (i, closed) in eof.iter().enumerate() {
        if !closed {
            h.cli[i]
                .as_ref()
                .unwrap()
                .send_msg(key, &mut |out| out.write_bytes(SENTINEL))
                .unwrap();
        }
    }

    // Run each conn to completion. The event consumer reads only what the
    // ready queue hands it: the queue idle for 5 s with work outstanding
    // is a lost wakeup.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last_token = Instant::now();
    while !done.iter().all(|&d| d) {
        assert!(Instant::now() < deadline, "consumer wedged");
        if event {
            let Some(tok) = queue.try_pop() else {
                assert!(
                    last_token.elapsed() < Duration::from_secs(5),
                    "lost wakeup: ready queue idle 5s with conns {:?} unfinished",
                    done.iter()
                        .enumerate()
                        .filter(|(_, d)| !**d)
                        .map(|(i, _)| i)
                        .collect::<Vec<_>>()
                );
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            last_token = Instant::now();
            let i = token_slot(tok);
            wakes[i].begin_poll();
            if done[i] {
                continue;
            }
            assert!(
                h.srv[i].poll_ready(),
                "spurious wakeup: token for conn {i} that is not ready"
            );
            drain_conn(&h.srv[i], &mut delivered[i], &mut done[i], BURST);
            if !done[i] && h.srv[i].poll_ready() {
                wakes[i].wake();
            }
        } else {
            let mut progress = false;
            for i in 0..n_conns {
                if !done[i] && h.srv[i].poll_ready() {
                    progress |= drain_conn(&h.srv[i], &mut delivered[i], &mut done[i], BURST);
                }
            }
            if !progress {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
    delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Socket: event consumer ≡ sweep oracle under random send/EOF
    /// interleavings (EOF propagates in-band on streams).
    #[test]
    fn socket_event_matches_sweep(
        n_conns in 1usize..5,
        raw in proptest::collection::vec((0usize..6, 0usize..5, 4usize..256), 1..24),
        seed in any::<u64>(),
    ) {
        let _wd = watchdog("socket_event_matches_sweep", Duration::from_secs(120));
        let ops = to_ops(&raw);
        let by_event = run(false, n_conns, &ops, None, seed, true);
        let by_sweep = run(false, n_conns, &ops, None, seed, false);
        prop_assert_eq!(by_event, by_sweep);
    }

    /// Verbs: same property with a drop-fault window over part of the
    /// schedule. Drop coins replay per seed (the window covers only
    /// sequential client sends), so both consumers must lose the *same*
    /// frames — and a dropped message correctly wakes nobody.
    #[test]
    fn verbs_event_matches_sweep(
        n_conns in 1usize..5,
        raw in proptest::collection::vec((0usize..6, 0usize..5, 4usize..256), 4..24),
        window in (0usize..12, 1usize..12),
        seed in any::<u64>(),
    ) {
        let _wd = watchdog("verbs_event_matches_sweep", Duration::from_secs(120));
        let ops = to_ops(&raw);
        let fault = Some((window.0, window.0 + window.1));
        let by_event = run(true, n_conns, &ops, fault, seed, true);
        let by_sweep = run(true, n_conns, &ops, fault, seed, false);
        prop_assert_eq!(by_event, by_sweep);
    }
}
