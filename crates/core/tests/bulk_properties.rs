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
//!
//! A bulk frame is read in the slots it landed in, so the rest is the
//! slot's life: credits come back in ring order whatever order readers
//! finish in; two callers on one connection each read their own reply out
//! of the ring, consumed in the opposite order; and a payload outlives
//! the connection it arrived on.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rpcoib::intern::method_key;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::Conn;
use rpcoib::{
    Client, IbContext, Payload, RawResponse, RetryPolicy, RpcConfig, RpcError, RpcService, Server,
    ServiceRegistry, ShardRole,
};
use simnet::{model, Fabric, FaultSpec, SimAddr, SimListener, SimStream};
use wire::{BytesWritable, DataInput, Writable};

/// Geometry small enough that generated schedules actually contend for
/// slots: a 64 KiB region over 1..=8 slots, frames a few slots wide.
fn bulk_cfg(slots: usize, call_timeout: Duration) -> RpcConfig {
    RpcConfig {
        rdma_threshold: 2 * 1024,
        recv_buf_bytes: 8 * 1024,
        large_region_bytes: 64 * 1024,
        large_slots: slots,
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
            got.push(read_all(&payload));
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

/// Every byte of a received frame.
fn read_all(payload: &Payload) -> Vec<u8> {
    payload
        .reader()
        .with_bytes(payload.len(), <[u8]>::to_vec)
        .unwrap()
}

/// A frame length whose footprint (8-byte header included) spans exactly
/// `k` slots of `slot` bytes and routes bulk, `frac` picking the point in
/// that range.
fn spanning_len(slot: usize, k: usize, frac: u16) -> usize {
    let hi = k * slot - 8;
    let lo = ((k - 1) * slot).saturating_sub(8).max(2048) + 1;
    lo + (hi - lo) * frac as usize / u16::MAX as usize
}

/// Frames of `spans` slots each through a `slots`-slot ring, one sender
/// sending as fast as credits allow. The receiver holds what arrives and
/// lets go in the order `picks` says — any permutation — taking more
/// frames in between when `coins` says so (or when it holds none), and
/// reads each frame *as it lets it go*: a slot granted again while its
/// frame is unread shows as another frame's bytes. A last frame spanning
/// the whole ring is granted only when every credit has come back.
fn release_in_any_order(
    slots: usize,
    spans: &[(u16, u16)],
    picks: &[u16],
    coins: &[bool],
    seed: u64,
) {
    simnet::set_fast_forward(true);
    let cfg = bulk_cfg(slots, Duration::from_secs(20));
    let slot = cfg.large_region_bytes / slots;
    let p = pair(&cfg, seed);
    let mut lens: Vec<usize> = spans
        .iter()
        .map(|&(k, frac)| spanning_len(slot, 1 + k as usize % slots, frac))
        .collect();
    lens.push(spanning_len(slot, slots, u16::MAX));
    let key = method_key("prop.Bulk", "lease");
    let cli = Arc::clone(&p.cli);
    let to_send = lens.clone();
    let sender = thread::spawn(move || {
        for (seq, len) in to_send.into_iter().enumerate() {
            let body = frame_body(0, seq, len);
            cli.send_msg(key, &mut |out| out.write_bytes(&body))
                .unwrap();
        }
    });
    let mut held: Vec<(usize, Payload)> = Vec::new();
    let (mut arrived, mut step) = (0, 0);
    // The whole-ring frame is taken last, once nothing else is held.
    let last = lens.len() - 1;
    while arrived < last || !held.is_empty() {
        if arrived < last && (held.is_empty() || coins[step % coins.len()]) {
            match p.srv.recv_msg(Duration::from_millis(5)) {
                Ok((payload, _)) => {
                    held.push((arrived, payload));
                    arrived += 1;
                    continue;
                }
                // The sender waits for a credit only a release will send.
                Err(RpcError::Timeout) => {}
                Err(e) => panic!("receive failed: {e:?}"),
            }
        }
        if held.is_empty() {
            continue;
        }
        let pick = picks[step % picks.len()] as usize % held.len();
        let (seq, payload) = held.swap_remove(pick);
        assert!(
            read_all(&payload) == frame_body(0, seq, lens[seq]),
            "slots={slots}: frame {seq} changed while it was held ({lens:?})"
        );
        drop(payload);
        step += 1;
    }
    let (payload, _) = p.srv.recv_msg(Duration::from_secs(20)).unwrap();
    assert!(read_all(&payload) == frame_body(0, last, lens[last]));
    drop(payload);
    sender.join().unwrap();
    p.cli.close();
    p.srv.close();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Credits return in ring order whatever order frames are released
    /// in: on rings of 1, 2, 4 and 16 slots no reader ever sees a frame
    /// other than the one sent, every credit comes back, nothing hangs.
    #[test]
    fn slots_are_credited_in_ring_order_whatever_the_release_order(
        spans in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..24),
        picks in proptest::collection::vec(any::<u16>(), 32),
        coins in proptest::collection::vec(any::<bool>(), 32),
        seed in any::<u64>(),
    ) {
        let _wd = watchdog("ring-order crediting", Duration::from_secs(120));
        for slots in [1usize, 2, 4, 16] {
            release_in_any_order(slots, &spans, &picks, &coins, seed);
        }
    }

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
    /// slot count — grants posted in grant order, under the send lock.
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
        assert_eq!(read_all(&payload), body, "slots={slots}");
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
        assert_eq!(read_all(&payload), frame_body(0, seq, 10_000));
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
        assert_eq!(read_all(&payload), [tag; 32], "stash out of order");
    }
    p.cli.close();
    p.srv.close();
}

/// Handlers parked on numbered gates the test opens, so the server
/// answers in the order the test chooses. `fill` takes `[gate, seed]` and
/// answers, once its gate is open, with the 256 KiB [`reply_body`] of
/// `seed`; `echo` takes a body of any size and answers with its length.
#[derive(Default)]
struct GatedFill {
    state: std::sync::Mutex<(usize, std::collections::HashSet<u8>)>,
    cv: std::sync::Condvar,
}

const REPLY_BYTES: usize = 256 * 1024;

fn reply_body(seed: u8) -> Vec<u8> {
    (0..REPLY_BYTES)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_be_bytes()[0] ^ seed)
        .collect()
}

impl GatedFill {
    fn open(&self, gate: u8) {
        self.state.lock().unwrap().1.insert(gate);
        self.cv.notify_all();
    }

    /// Block until `n` `fill` calls have reached their handlers.
    fn await_arrivals(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.0 < n {
            st = self.cv.wait(st).unwrap();
        }
    }
}

impl RpcService for GatedFill {
    fn protocol(&self) -> &'static str {
        "prop.GatedFill"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut body = BytesWritable::default();
        body.read_fields(param).map_err(|e| e.to_string())?;
        if method == "echo" {
            return Ok(Box::new(BytesWritable(body.0.len().to_be_bytes().to_vec())));
        }
        let (gate, seed) = (body.0[0], body.0[1]);
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        self.cv.notify_all();
        while !st.1.contains(&gate) {
            st = self.cv.wait(st).unwrap();
        }
        Ok(Box::new(BytesWritable(reply_body(seed))))
    }
}

/// Opens every gate when dropped, so a failed assertion unwinds into a
/// server that can stop. Bound after the server, it drops before it.
struct OpenOnDrop(Arc<GatedFill>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        if let Ok(mut st) = self.0.state.lock() {
            st.1.extend(0..=u8::MAX);
        }
        self.0.cv.notify_all();
    }
}

fn gated_server(fabric: &Fabric, cfg: &RpcConfig) -> (Server, Arc<GatedFill>, OpenOnDrop) {
    let service = Arc::new(GatedFill::default());
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::clone(&service) as Arc<dyn RpcService>);
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    let guard = OpenOnDrop(Arc::clone(&service));
    (server, service, guard)
}

/// Responses the server has put on the wire, whoever sent them.
fn responses_sent(server: &Server) -> u64 {
    let shards = server.metrics_snapshot().shards;
    let ledger = shards.iter().filter(|s| s.role == ShardRole::Responder);
    ledger.map(|s| s.processed).sum()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// The `BytesWritable` a raw response carries.
fn reply_bytes(resp: &RawResponse) -> Vec<u8> {
    let mut reader = resp.payload.reader();
    reader.skip(resp.body_offset);
    let mut body = BytesWritable::default();
    body.read_fields(&mut reader).unwrap();
    body.0
}

/// Two callers share one connection and the server answers them in the
/// reverse of the order they called in, with 256 KiB replies: the first
/// caller (as a rule) leads, meets the second's reply first and hands it
/// over *in its slot*. With a four-slot ring both replies are then held, and the
/// one that arrived second is read and let go first; with the one-deep
/// gate the second reply cannot be sent before the first is let go, so
/// they are consumed as they come. Every reply byte-equal, no retry.
#[test]
fn two_callers_consume_their_replies_in_the_opposite_order() {
    let _wd = watchdog("opposite order", Duration::from_secs(120));
    simnet::set_fast_forward(true);
    for slots in [1usize, 4] {
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        let cfg = RpcConfig {
            large_slots: slots,
            handlers: 2,
            call_timeout: Duration::from_secs(10),
            retry: RetryPolicy::none(),
            ..RpcConfig::rpcoib()
        };
        let (server, gates, _open) = gated_server(&fabric, &cfg);
        let addr = server.addr();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        let caller = |gate: u8| {
            let client = client.clone();
            thread::spawn(move || {
                client
                    .call_raw(
                        addr,
                        "prop.GatedFill",
                        "fill",
                        &BytesWritable(vec![gate, gate]),
                    )
                    .unwrap_or_else(|e| panic!("slots={slots} caller {gate}: {e:?}"))
            })
        };
        let check = |resp: RawResponse, seed: u8| {
            assert!(
                matches!(resp.payload, Payload::InPlace { .. }),
                "slots={slots}: a bulk reply was copied on the way"
            );
            assert!(
                reply_bytes(&resp) == reply_body(seed),
                "slots={slots}: caller {seed} read another reply's bytes"
            );
        };
        for round in 0..20u8 {
            let (first, second) = (2 * round, 2 * round + 1);
            let sent = responses_sent(&server);
            let leader = caller(first);
            gates.await_arrivals(2 * round as usize + 1);
            let follower = caller(second);
            gates.await_arrivals(2 * round as usize + 2);
            // The follower is answered first; the leader hands it over.
            gates.open(second);
            let early = follower.join().unwrap();
            if slots == 1 {
                check(early, second);
                gates.open(first);
                check(leader.join().unwrap(), first);
            } else {
                wait_until("the first reply to leave", || {
                    responses_sent(&server) > sent
                });
                gates.open(first);
                check(leader.join().unwrap(), first);
                check(early, second);
            }
        }
        let counters = client.metrics().counters();
        assert_eq!(counters.retries, 0, "slots={slots}");
        assert_eq!(counters.failed_calls, 0, "slots={slots}");
        assert_eq!(counters.late_responses, 0, "slots={slots}");
        assert!(
            client.recv_handoffs() >= 1,
            "slots={slots}: nobody was handed a reply"
        );
        client.shutdown();
        server.stop();
    }
}

/// Teardown with live frames. A client's 256 KiB requests sit at a
/// one-handler server — one inside the handler, the rest in the admission
/// queue, all in their slots — when the client closes and goes away; and
/// a reply that reached its caller through a `CallSlot` is still held
/// when its client shuts down and the server stops. Nothing panics, the
/// drain meets its bound, the held reply still reads byte-equal, and the
/// server's tables empty (the churn soak's counters).
#[test]
fn connections_torn_down_under_live_frames_leave_nothing_behind() {
    let _wd = watchdog("teardown", Duration::from_secs(120));
    simnet::set_fast_forward(true);
    static PANICKED: AtomicBool = AtomicBool::new(false);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICKED.store(true, Ordering::SeqCst);
        hook(info);
    }));

    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let cfg = RpcConfig {
        handlers: 1,
        call_timeout: Duration::from_secs(10),
        retry: RetryPolicy::none(),
        ..RpcConfig::rpcoib()
    };
    let (server, gates, _open) = gated_server(&fabric, &cfg);
    let addr = server.addr();

    // A reply handed over through a `CallSlot`, kept by its caller.
    let keeper = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    let caller = |client: &Client, gate: u8| {
        let client = client.clone();
        thread::spawn(move || {
            client.call_raw(
                addr,
                "prop.GatedFill",
                "fill",
                &BytesWritable(vec![gate, gate]),
            )
        })
    };
    let leader = caller(&keeper, 0);
    gates.await_arrivals(1);
    let follower = caller(&keeper, 1);
    // One handler: the second call runs when the first has answered, so
    // both gates open at once answer 0 then 1 — met by the leader or not,
    // each is kept where its caller got it.
    gates.open(0);
    gates.open(1);
    let kept = [
        leader.join().unwrap().unwrap(),
        follower.join().unwrap().unwrap(),
    ];
    assert!(kept
        .iter()
        .all(|r| matches!(r.payload, Payload::InPlace { .. })));

    // Bulk requests under a closing client: gate 2 holds the handler.
    let doomed = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
    let mut body = vec![2u8; REPLY_BYTES];
    body[1] = 7;
    let doomed_calls: Vec<_> = (0..cfg.large_slots)
        .map(|_| {
            let (client, body) = (doomed.clone(), BytesWritable(body.clone()));
            thread::spawn(move || client.call_raw(addr, "prop.GatedFill", "fill", &body))
        })
        .collect();
    gates.await_arrivals(3);
    wait_until("the other requests to queue", || {
        let shards = server.metrics_snapshot().shards;
        let readers = shards.iter().filter(|s| s.role == ShardRole::Reader);
        readers.map(|s| s.processed).sum::<u64>() >= 2 + cfg.large_slots as u64
    });
    doomed.shutdown();
    for call in doomed_calls {
        assert!(call.join().unwrap().is_err(), "answered after shutdown");
    }
    drop(doomed);
    keeper.shutdown();
    drop(keeper);

    // The queued calls still run — out of slots of a connection that is
    // gone — and the drain meets its bound.
    gates.open(2);
    let asked = Instant::now();
    assert!(server.drain(Duration::from_secs(10)), "drain cut short");
    assert!(asked.elapsed() < Duration::from_secs(10));
    assert_eq!(server.connection_count(), 0);
    assert_eq!(server.metrics_snapshot().conn_buffered_bytes, 0);
    drop(server);

    // The kept replies outlived client, connection and server.
    for (seed, resp) in kept.into_iter().enumerate() {
        assert!(reply_bytes(&resp) == reply_body(seed as u8));
    }
    assert!(!PANICKED.load(Ordering::SeqCst), "a thread panicked");
}
