//! Flow-control properties of the one-sided bulk data plane.
//!
//! The multi-slot ring must be *behaviourally equivalent* to the paper's
//! one-deep credit gate: whatever schedule of concurrent large calls is
//! thrown at it, and whatever slot count the region is carved into, the
//! receiver sees exactly the frames that were sent — same contents, and
//! (for a single sender) the same order. Pipelining is allowed to change
//! timing, never delivery. A second property drives the credit window
//! with seeded message drops: the plane may lose frames and starve
//! senders, but every failure must surface as a clean, classified
//! transport error — retryable starvation, timeout, closure, or protocol
//! — and never as a deadlock or a panic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rpcoib::intern::method_key;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::Conn;
use rpcoib::{IbContext, RpcConfig, RpcError};
use simnet::{model, Fabric, FaultSpec, SimAddr, SimListener, SimStream};

/// Geometry small enough that generated schedules actually contend for
/// slots: a 64 KiB region over 1..=8 slots, frames a few slots wide.
fn bulk_cfg(slots: usize, call_timeout: Duration) -> RpcConfig {
    RpcConfig {
        rdma_threshold: 2 * 1024,
        recv_buf_bytes: 8 * 1024,
        large_region_bytes: 64 * 1024,
        large_slots: slots,
        posted_recvs: 8,
        prefill_per_class: 2,
        call_timeout,
        ..RpcConfig::rpcoib()
    }
}

struct Pair {
    fabric: Fabric,
    server_node: simnet::NodeId,
    client_node: simnet::NodeId,
    cli: Arc<RdmaConn>,
    srv: Arc<RdmaConn>,
}

fn pair(cfg: &RpcConfig, seed: u64) -> Pair {
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    fabric.set_fault_seed(seed);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let addr = SimAddr::new(server_node, 9700);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let cli_ctx = IbContext::new(&fabric, client_node, cfg).unwrap();
    let srv_ctx = IbContext::new(&fabric, server_node, cfg).unwrap();
    let f2 = fabric.clone();
    let rpc = cfg.clone();
    let h = thread::spawn(move || {
        let stream = SimStream::connect(&f2, client_node, addr).unwrap();
        RdmaConn::bootstrap(&stream, &cli_ctx, &rpc).unwrap()
    });
    let (srv_stream, _) = listener.accept().unwrap();
    let srv = Arc::new(RdmaConn::bootstrap(&srv_stream, &srv_ctx, cfg).unwrap());
    let cli = Arc::new(h.join().unwrap());
    Pair {
        fabric,
        server_node,
        client_node,
        cli,
        srv,
    }
}

/// Abort (not hang) if a schedule wedges: a flow-control deadlock would
/// otherwise stall the whole property suite.
struct Watchdog {
    done: Arc<AtomicBool>,
}

fn watchdog(name: &'static str, limit: Duration) -> Watchdog {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if flag.load(Ordering::Acquire) {
                return;
            }
            thread::sleep(Duration::from_millis(50));
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

/// A deterministic frame body: tagged with its sender and sequence
/// number, filled with a recognizable pattern.
fn frame_body(sender: usize, seq: usize, len: usize) -> Vec<u8> {
    let mut body = vec![0u8; len];
    body[0] = 0xAB;
    body[1] = sender as u8;
    body[2] = seq as u8;
    body[3] = (seq >> 8) as u8;
    for (i, b) in body.iter_mut().enumerate().skip(4) {
        *b = ((i + sender + seq) % 251) as u8;
    }
    body
}

/// Run `lens` as concurrent large calls (round-robined over `senders`
/// threads) against a `slots`-slot ring and return the delivered frames.
/// Nobody polls the client's receive side: the senders waiting for
/// credits read them off the queue pair themselves.
fn deliver(slots: usize, senders: usize, lens: &[usize], seed: u64) -> Vec<Vec<u8>> {
    simnet::set_fast_forward(true);
    let cfg = bulk_cfg(slots, Duration::from_secs(20));
    let p = pair(&cfg, seed);
    let total = lens.len();
    let srv = Arc::clone(&p.srv);
    let reader = thread::spawn(move || {
        let mut got = Vec::new();
        while got.len() < total {
            let (payload, _) = srv.recv_msg(Duration::from_secs(20)).unwrap();
            let mut bytes = Vec::with_capacity(payload.len());
            std::io::Read::read_to_end(&mut payload.reader(), &mut bytes).unwrap();
            got.push(bytes);
        }
        got
    });
    let key = method_key("prop.Bulk", "frame");
    let mut handles = Vec::new();
    for t in 0..senders {
        let my: Vec<(usize, usize)> = lens
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % senders == t)
            .collect();
        let cli = Arc::clone(&p.cli);
        handles.push(thread::spawn(move || {
            for (seq, len) in my {
                let body = frame_body(t, seq, len);
                cli.send_msg(key, &mut |out| out.write_bytes(&body))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let got = reader.join().unwrap();
    p.cli.close();
    p.srv.close();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delivered frames are independent of the slot count: a multi-slot
    /// ring and the one-deep gate move exactly the same set of frames,
    /// bytes intact, for the same schedule of concurrent senders.
    #[test]
    fn multi_slot_ring_delivers_the_same_frames_as_one_deep(
        slots_idx in 0usize..3,
        senders in 1usize..4,
        lens in proptest::collection::vec(2100usize..20_000, 1..10),
        seed in any::<u64>(),
    ) {
        let _wd = watchdog("bulk equivalence", Duration::from_secs(120));
        let slots = [2usize, 4, 8][slots_idx];
        let mut expected: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(seq, &len)| frame_body(seq % senders, seq, len))
            .collect();
        expected.sort();
        let mut one_deep = deliver(1, senders, &lens, seed);
        one_deep.sort();
        let mut multi = deliver(slots, senders, &lens, seed);
        multi.sort();
        prop_assert_eq!(&one_deep, &expected, "one-deep arm lost or corrupted frames");
        prop_assert_eq!(&multi, &expected, "multi-slot arm lost or corrupted frames");
    }

    /// A single sender's frames additionally arrive *in order*, at any
    /// slot count — the ring's posting turnstile at work.
    #[test]
    fn single_sender_order_is_preserved(
        slots_idx in 0usize..3,
        lens in proptest::collection::vec(2100usize..20_000, 1..8),
        seed in any::<u64>(),
    ) {
        let _wd = watchdog("bulk ordering", Duration::from_secs(120));
        let slots = [1usize, 4, 8][slots_idx];
        let expected: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(seq, &len)| frame_body(0, seq, len))
            .collect();
        let got = deliver(slots, 1, &lens, seed);
        prop_assert_eq!(&got, &expected);
    }

    /// Seeded drops inside the credit window: frames and credit returns
    /// vanish mid-flight. The plane may lose data, but every outcome must
    /// be a classified error — starvation is retryable, nothing panics,
    /// nothing deadlocks, and delivery never exceeds what was sent.
    #[test]
    fn credit_window_drops_fail_cleanly(
        slots_idx in 0usize..2,
        lens in proptest::collection::vec(2100usize..16_000, 2..8),
        drop_bp in 500u32..3000,
        seed in any::<u64>(),
    ) {
        let _wd = watchdog("bulk faults", Duration::from_secs(120));
        let slots = [1usize, 4][slots_idx];
        simnet::set_fast_forward(true);
        let cfg = bulk_cfg(slots, Duration::from_millis(400));
        let p = pair(&cfg, seed);
        p.fabric.set_link_fault(
            p.client_node,
            p.server_node,
            FaultSpec::default().with_drop_rate(drop_bp as f64 / 10_000.0),
        );
        p.fabric.set_link_fault(
            p.server_node,
            p.client_node,
            FaultSpec::default().with_drop_rate(drop_bp as f64 / 10_000.0),
        );
            let srv = Arc::clone(&p.srv);
        let sent_flag = Arc::new(AtomicBool::new(false));
        let sent_flag2 = Arc::clone(&sent_flag);
        let reader = thread::spawn(move || {
            let mut delivered = 0usize;
            loop {
                match srv.recv_msg(Duration::from_millis(300)) {
                    Ok(_) => delivered += 1,
                    Err(RpcError::Timeout) => {
                        if sent_flag2.load(Ordering::Acquire) {
                            return delivered;
                        }
                    }
                    // A partially-dropped frame trips validation and tears
                    // the connection down — clean, classified outcomes.
                    Err(RpcError::Protocol(_)) | Err(RpcError::ConnectionClosed) => {
                        return delivered;
                    }
                    Err(e) => panic!("unclassified receive failure: {e:?}"),
                }
            }
        });
        let key = method_key("prop.BulkFault", "frame");
        let mut ok_sends = 0usize;
        for (seq, &len) in lens.iter().enumerate() {
            let body = frame_body(0, seq, len);
            match p.cli.send_msg(key, &mut |out| out.write_bytes(&body)) {
                Ok(_) => ok_sends += 1,
                Err(RpcError::CreditStarved) => {
                    // The signature loss mode: a dropped frame or credit
                    // strands slots. Must be flagged retryable so the
                    // engine's failover can re-issue the call.
                    prop_assert!(RpcError::CreditStarved.is_retryable());
                    prop_assert!(!RpcError::CreditStarved.invalidates_connection());
                }
                Err(RpcError::Timeout) | Err(RpcError::ConnectionClosed) => {}
                Err(e) => panic!("unclassified send failure: {e:?}"),
            }
        }
        sent_flag.store(true, Ordering::Release);
        let delivered = reader.join().unwrap();
        prop_assert!(
            delivered <= ok_sends,
            "delivered {delivered} frames but only {ok_sends} sends succeeded"
        );
        p.cli.close();
        p.srv.close();
        }
}

/// A frame too large for the peer's region is refused up front with a
/// protocol error — on a one-deep gate and on a multi-slot ring alike —
/// and the refusal leaves the connection fully usable.
#[test]
fn oversize_frames_are_rejected_on_both_arms() {
    simnet::set_fast_forward(true);
    for slots in [1usize, 4, 8] {
        let cfg = bulk_cfg(slots, Duration::from_secs(5));
        let p = pair(&cfg, 7);
        let key = method_key("prop.Oversize", "frame");
        let body = vec![9u8; cfg.large_region_bytes + 1];
        let err = p
            .cli
            .send_msg(key, &mut |out| out.write_bytes(&body))
            .unwrap_err();
        assert!(
            matches!(err, RpcError::Protocol(_)),
            "slots={slots}: expected Protocol, got {err:?}"
        );
        // No slots were claimed and nothing was torn down: a normal
        // large frame still goes through.
        let body = frame_body(0, 0, 10_000);
        p.cli
            .send_msg(key, &mut |out| out.write_bytes(&body))
            .unwrap();
        let (payload, _) = p.srv.recv_msg(Duration::from_secs(10)).unwrap();
        let mut bytes = Vec::new();
        std::io::Read::read_to_end(&mut payload.reader(), &mut bytes).unwrap();
        assert_eq!(bytes, body, "slots={slots}");
        p.cli.close();
        p.srv.close();
    }
}

/// A sender blocked on credits with nobody receiving takes the poll turn
/// itself. Frames that arrive ahead of the credit are parked for
/// `recv_msg`, in order, and announced through the ready hook — the queue
/// pair's own edge is gone once the waiter has consumed the completion.
#[test]
fn credit_waiter_stashes_the_frames_it_meets_and_tells_the_receiver() {
    let _wd = watchdog("credit_waiter_stash", Duration::from_secs(60));
    let p = pair(&bulk_cfg(1, Duration::from_secs(20)), 11);
    let key = method_key("prop.Stash", "frame");
    let fired = Arc::new(AtomicUsize::new(0));
    let fired2 = Arc::clone(&fired);
    p.cli.set_ready_hook(Arc::new(move || {
        fired2.fetch_add(1, Ordering::Relaxed);
    }));
    // The first bulk frame takes the only slot; the second waits for its
    // credit, which the server owes only once it drains the first.
    let first = frame_body(0, 0, 10_000);
    p.cli
        .send_msg(key, &mut |out| out.write_bytes(&first))
        .unwrap();
    let cli = Arc::clone(&p.cli);
    let blocked = thread::spawn(move || {
        let second = frame_body(0, 1, 10_000);
        cli.send_msg(key, &mut |out| out.write_bytes(&second))
    });
    for tag in [1u8, 2] {
        p.srv
            .send_msg(key, &mut |out| out.write_bytes(&[tag; 32]))
            .unwrap();
    }
    let edges = fired.load(Ordering::Relaxed);
    for seq in 0..2 {
        let (payload, _) = p.srv.recv_msg(Duration::from_secs(10)).unwrap();
        let mut bytes = Vec::new();
        std::io::Read::read_to_end(&mut payload.reader(), &mut bytes).unwrap();
        assert_eq!(bytes, frame_body(0, seq, 10_000));
    }
    blocked.join().unwrap().unwrap();
    assert!(
        fired.load(Ordering::Relaxed) > edges,
        "stashed frames were not announced"
    );
    assert!(p.cli.poll_ready());
    assert_eq!(p.cli.buffered_bytes(), 64);
    for tag in [1u8, 2] {
        let (payload, _) = p.cli.recv_msg(Duration::from_secs(1)).unwrap();
        let mut bytes = Vec::new();
        std::io::Read::read_to_end(&mut payload.reader(), &mut bytes).unwrap();
        assert_eq!(bytes, [tag; 32], "stash out of order");
    }
    p.cli.close();
    p.srv.close();
}
