//! The response path's send discipline: every response leaves through
//! its connection's send turn — transmitted by the thread that produced
//! it when the turn is free and nothing is pending, otherwise pushed
//! behind the turn's holder, who sends it before letting go (and looks
//! once more after). There is no responder thread.
//!
//! Whoever sends, one connection's frames must be encoded in wire order,
//! nothing pushed may be stranded, a stuck peer must cost one sender and
//! not the pool, and `drain` must still account for every response.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rpcoib::handshake::client_hello;
use rpcoib::intern::method_key;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::Conn;
use rpcoib::{
    Client, IbContext, ResponseStatus, RetryPolicy, RpcConfig, RpcError, RpcService, Server,
    ServiceRegistry, ShardRole, ShardSnapshot, V3Decoder, V3Encoder,
};
use simnet::{model, Fabric, SimStream};
use wire::{BytesWritable, DataInput, IntWritable, Writable};

/// `echo` returns its payload (and counts the execution); `slow_echo`
/// sleeps `delay` first (and counts itself in before it does); `inflate`
/// answers an `i32 n` with `n` bytes.
struct TestService {
    executed: Arc<AtomicU64>,
    sleeping: Arc<AtomicU64>,
    delay: Duration,
}

impl RpcService for TestService {
    fn protocol(&self) -> &'static str {
        "test.SendDiscipline"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "echo" | "slow_echo" => {
                if method == "slow_echo" {
                    self.sleeping.fetch_add(1, Ordering::AcqRel);
                    std::thread::sleep(self.delay);
                }
                let mut payload = BytesWritable::default();
                payload.read_fields(param).map_err(|e| e.to_string())?;
                self.executed.fetch_add(1, Ordering::AcqRel);
                Ok(Box::new(payload))
            }
            "inflate" => {
                let mut n = IntWritable::default();
                n.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(BytesWritable(vec![0x5a; n.0 as usize])))
            }
            other => Err(format!("no such method {other}")),
        }
    }
}

/// `cfg` under the CI matrix's shard setting (each case picks its own
/// transport).
fn matrix(mut cfg: RpcConfig) -> RpcConfig {
    if let Some(n) = std::env::var("RPC_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        cfg.reader_shards = n;
    }
    cfg
}

fn start_server(fabric: &Fabric, cfg: &RpcConfig, delay: Duration) -> (Server, Arc<AtomicU64>) {
    let (server, executed, _sleeping) = start_counting_server(fabric, cfg, delay);
    (server, executed)
}

/// The server, its `executed` count and its `sleeping` count (slow calls
/// that have begun).
fn start_counting_server(
    fabric: &Fabric,
    cfg: &RpcConfig,
    delay: Duration,
) -> (Server, Arc<AtomicU64>, Arc<AtomicU64>) {
    let executed = Arc::new(AtomicU64::new(0));
    let sleeping = Arc::new(AtomicU64::new(0));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(TestService {
        executed: Arc::clone(&executed),
        sleeping: Arc::clone(&sleeping),
        delay,
    }));
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    (server, executed, sleeping)
}

/// The send ledger: the snapshot's one `Responder` row — responses sent
/// (`processed`) and responses pending behind a send turn's holder (the
/// depth gauge), whoever sent and wherever they wait.
fn send_ledger(server: &Server) -> ShardSnapshot {
    let mut rows = server.metrics_snapshot().shards;
    rows.retain(|s| s.role == ShardRole::Responder);
    assert_eq!(rows.len(), 1, "one ledger, no shards: {rows:?}");
    rows.remove(0)
}

fn echo(
    client: &Client,
    server: &Server,
    method: &str,
    payload: &[u8],
) -> Result<Vec<u8>, RpcError> {
    client
        .call::<_, BytesWritable>(
            server.addr(),
            "test.SendDiscipline",
            method,
            &BytesWritable(payload.to_vec()),
        )
        .map(|b| b.0)
}

fn wait_until(limit: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// (a) One stateful-V3 socket connection carries, interleaved, responses
/// sent at once by the thread that produced them and responses sent from
/// the pending list by the turn's holder: every `slow_echo` outlives the
/// call timeout, so its retry — the same seq on the same connection —
/// parks behind the execution (and is released by the handler that
/// completes it) or, arriving later, is replayed by whoever reads (pushed
/// under the table lock, flushed after it); and caller 3's echoes are a
/// quarter megabyte each, which holds the turn for the ~200 µs the link
/// takes to carry one — the other callers' responses run into that
/// (about one per echo; with every fourth echo that big, one run in 180
/// saw none). The V3 response
/// lead is a *delta* against the previous frame on the wire: if encode
/// order ever differed from wire order the client would attribute frames
/// to the wrong calls, so every echo matching its request is the proof.
#[test]
fn inline_and_queued_sends_share_one_stateful_connection() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let cfg = RpcConfig {
        handlers: 8,
        call_timeout: Duration::from_millis(40),
        retry: RetryPolicy::exponential(8, Duration::from_millis(2)),
        ..matrix(RpcConfig::socket())
    };
    let (server, _executed) = start_server(&fabric, &cfg, Duration::from_millis(70));
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    echo(&client, &server, "echo", b"warm").unwrap();

    let callers: Vec<_> = (0..4u8)
        .map(|t| {
            let client = client.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                for i in 0..40u8 {
                    // Caller 0 forces the duplicates, caller 3 holds the
                    // turn; the others keep running into both.
                    let method = if t == 0 && i % 4 == 0 {
                        "slow_echo"
                    } else {
                        "echo"
                    };
                    let size = if t == 3 {
                        256 * 1024
                    } else {
                        48 + t as usize * 100
                    };
                    let payload = vec![t * 64 + i; size + i as usize];
                    let got: BytesWritable = client
                        .call(
                            addr,
                            "test.SendDiscipline",
                            method,
                            &BytesWritable(payload.clone()),
                        )
                        .unwrap_or_else(|e| panic!("caller {t} call {i} ({method}): {e:?}"));
                    assert_eq!(
                        got.0, payload,
                        "caller {t} call {i} got another call's response"
                    );
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }

    let server_counters = server.metrics().counters();
    assert!(
        server_counters.retry_cache_parked + server_counters.retry_cache_hits >= 10,
        "the slow calls should each have forced a duplicate: {server_counters:?}"
    );
    assert_eq!(server_counters.frame_errors, 0);
    assert_eq!(server_counters.broken_sends, 0);
    let client_counters = client.metrics().counters();
    assert_eq!(client_counters.failed_calls, 0, "{client_counters:?}");
    assert_eq!(
        client_counters.reconnects, 0,
        "a corrupt response frame would have cost the connection"
    );
    let responder_queued: u64 = server
        .metrics_snapshot()
        .shards
        .iter()
        .filter(|s| s.role == ShardRole::Responder)
        .map(|s| s.queue_depth_max)
        .sum();
    assert!(
        responder_queued >= 1,
        "no response ever took the queued path"
    );
    client.shutdown();
    server.stop();
}

/// (b′) Nothing pushed is ever stranded. Eight callers share one
/// connection and call in lockstep: a volley of eight, every response
/// awaited, then the next — so eight handlers answer at once, the first
/// takes the turn and the rest find it taken for as long as the link
/// takes to carry a response of up to 100 kB (sizes straddle
/// `rdma_threshold`: eager neighbours gather, bulk bodies go alone), and
/// **no later traffic exists to rescue a response its holder left
/// behind**: a holder that does not look again after letting go hangs the
/// volley (the watchdog's case; see KNOWN_FAILURES for the mutation run).
/// Payloads are distinct per call and a caller has one call in flight, so
/// each echo matching its request is every response arriving, once, in
/// its caller's order.
fn nothing_pushed_behind_a_holder_is_stranded(fabric: Fabric, base: RpcConfig) {
    const CALLERS: usize = 8;
    const VOLLEYS: usize = 250;
    const SIZES: [usize; 4] = [600, 3_000, 40_000, 100_000];
    let _wd = watchdog("nothing_stranded", Duration::from_secs(180));
    let cfg = RpcConfig {
        handlers: CALLERS,
        call_timeout: Duration::from_secs(120),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, executed) = start_server(&fabric, &cfg, Duration::ZERO);
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    echo(&client, &server, "echo", b"warm").unwrap();

    let volley = Arc::new(Barrier::new(CALLERS));
    let callers: Vec<_> = (0..CALLERS)
        .map(|t| {
            let (client, volley, addr) = (client.clone(), Arc::clone(&volley), server.addr());
            std::thread::spawn(move || {
                for i in 0..VOLLEYS {
                    let mut payload = vec![(t * 31 + i) as u8; SIZES[(t + i) % 4] + t];
                    payload[..8].copy_from_slice(&((t as u64) << 32 | i as u64).to_be_bytes());
                    volley.wait();
                    let got: BytesWritable = client
                        .call(
                            addr,
                            "test.SendDiscipline",
                            "echo",
                            &BytesWritable(payload.clone()),
                        )
                        .unwrap_or_else(|e| panic!("caller {t} volley {i}: {e:?}"));
                    assert!(got.0 == payload, "caller {t} volley {i}: not its response");
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }

    let sent = (CALLERS * VOLLEYS) as u64 + 1;
    assert_eq!(executed.load(Ordering::Acquire), sent);
    wait_until(Duration::from_secs(1), "the last send to be booked", || {
        send_ledger(&server).processed >= sent
    });
    let ledger = send_ledger(&server);
    assert_eq!(ledger.processed, sent, "{ledger:?}");
    assert_eq!(ledger.queue_depth, 0, "something is still pending");
    let counters = server.metrics().counters();
    assert!(
        counters.resp_sent_behind > 0 && ledger.queue_depth_max > 0,
        "no response ever met a taken turn: {counters:?} {ledger:?}"
    );
    assert_eq!(counters.frame_errors, 0);
    assert_eq!(counters.broken_sends, 0);
    assert_eq!(client.metrics().counters().failed_calls, 0);
    client.shutdown();
    server.stop();
}

#[test]
fn nothing_pushed_behind_a_holder_is_stranded_socket() {
    nothing_pushed_behind_a_holder_is_stranded(
        Fabric::new(model::IPOIB_QDR),
        matrix(RpcConfig::socket()),
    );
}

#[test]
fn nothing_pushed_behind_a_holder_is_stranded_verbs() {
    nothing_pushed_behind_a_holder_is_stranded(
        Fabric::new(model::IB_QDR_VERBS),
        matrix(RpcConfig::rpcoib()),
    );
}

/// One hand-written request frame on a stateful stream connection.
fn raw_request(
    enc: &mut V3Encoder,
    seq: i64,
    attempt: u32,
    method: &str,
    payload: &[u8],
) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::new();
    let key = method_key("test.SendDiscipline", method);
    enc.write_request_header(&mut body, seq, attempt, None, key)
        .unwrap();
    BytesWritable(payload.to_vec()).write(&mut body).unwrap();
    let mut frame = (body.len() as i32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// The next response frame off a stateful stream connection: its seq, its
/// status, and — when it carries one — the echoed payload.
fn raw_response(stream: &SimStream, dec: &mut V3Decoder) -> (i64, ResponseStatus, Vec<u8>) {
    let mut len = [0u8; 4];
    stream.read_exact_at(&mut len).unwrap();
    let mut frame = vec![0u8; i32::from_be_bytes(len) as usize];
    stream.read_exact_at(&mut frame).unwrap();
    let mut input = frame.as_slice();
    let header = dec.read_response_header(&mut input).unwrap();
    let mut value = BytesWritable::default();
    if header.ok() {
        value.read_fields(&mut input).unwrap();
    }
    (header.seq, header.status, value.0)
}

/// (f) A reader's own answers keep their order and need no worker. One
/// run permit, asleep in a slow call; a raw peer on a stateful socket
/// connection then pipelines four calls that fill the call queue, two
/// that no longer fit, a duplicate of a call already answered, and one
/// more that does not fit. Whoever reads that burst — the shard's owner,
/// or the one worker standing in for an owner that ran the slow call
/// itself — answers busy, busy, replay, busy from under its table lock
/// and sends them itself once it is out: all four arrive, in that order,
/// **while the handler still sleeps**. The stateful lead is a delta, so a
/// frame encoded out of wire order would decode to the wrong seq.
#[test]
fn a_readers_own_answers_keep_order_and_need_no_worker() {
    const DELAY: Duration = Duration::from_millis(1500);
    let _wd = watchdog("readers_own_answers", Duration::from_secs(60));
    let fabric = Fabric::new(model::IPOIB_QDR);
    let cfg = RpcConfig {
        handlers: 1,
        // Also the most answers a reader may leave pending on one
        // connection before it drops them.
        call_queue_len: 4,
        ..matrix(RpcConfig::socket())
    };
    let (server, executed, sleeping) = start_counting_server(&fabric, &cfg, DELAY);
    let stream = SimStream::connect(&fabric, fabric.add_node(), server.addr()).unwrap();
    client_hello(&stream, 0).unwrap();
    let (mut enc, mut dec) = (V3Encoder::new(true), V3Decoder::new(true));
    let payload = |seq: i64| vec![seq as u8; 40 + seq as usize];
    let echoed = |seq: i64| (seq, ResponseStatus::Ok, payload(seq));
    let busy = |seq: i64| (seq, ResponseStatus::Busy, Vec::new());

    // Call 1 executes and is answered: its response is now replayable.
    (&stream)
        .write_all(&raw_request(&mut enc, 1, 0, "echo", &payload(1)))
        .unwrap();
    assert_eq!(raw_response(&stream, &mut dec), echoed(1));
    // Call 2 takes the one permit and goes to sleep under it.
    (&stream)
        .write_all(&raw_request(&mut enc, 2, 0, "slow_echo", &payload(2)))
        .unwrap();
    wait_until(Duration::from_secs(5), "the slow call to begin", || {
        sleeping.load(Ordering::Acquire) == 1
    });
    let asleep_since = Instant::now();

    let mut burst = Vec::new();
    for (seq, attempt) in [
        (3, 0),
        (4, 0),
        (5, 0),
        (6, 0),
        (7, 0),
        (8, 0),
        (1, 1),
        (9, 0),
    ] {
        burst.extend(raw_request(&mut enc, seq, attempt, "echo", &payload(seq)));
    }
    (&stream).write_all(&burst).unwrap();

    for refused in [busy(7), busy(8), echoed(1), busy(9)] {
        assert_eq!(raw_response(&stream, &mut dec), refused);
    }
    assert_eq!(
        executed.load(Ordering::Acquire),
        1,
        "the refusals waited for the handler"
    );
    assert!(asleep_since.elapsed() < DELAY, "the refusals waited");

    // The sleeper's answer, then the queued calls', one permit at a time.
    for seq in 2..=6 {
        assert_eq!(raw_response(&stream, &mut dec), echoed(seq));
    }
    assert_eq!(executed.load(Ordering::Acquire), 6);

    let counters = server.metrics().counters();
    assert_eq!(counters.busy_rejections, 3, "{counters:?}");
    assert_eq!(counters.retry_cache_hits, 1, "{counters:?}");
    assert_eq!(counters.frame_errors, 0);
    assert_eq!(counters.broken_sends, 0);
    assert_eq!(send_ledger(&server).queue_depth, 0);
    drop(stream);
    server.stop();
}

/// (g) A dead peer's pending answers do not hold `drain`. Peer A, as in
/// the credit-starved case below, never polls: of its four 10 kB
/// responses the first takes three of its four slots, the second blocks
/// its sender — the turn's holder — for the server's credit budget, and
/// the other two wait on the pending list behind it. Then A's node dies
/// and the server drains: the holder's budget runs out, its send fails
/// and closes the connection, the two behind it are attempted on the
/// broken connection — failing at once, each giving its `open_work` slot
/// back — and `drain` returns true well inside its bound, with no
/// connection left.
#[test]
fn a_dead_peers_pending_answers_do_not_hold_drain() {
    const BUDGET: Duration = Duration::from_secs(2);
    let _wd = watchdog("dead_peer_drain", Duration::from_secs(60));
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let cfg = RpcConfig {
        handlers: 4,
        rdma_threshold: 2 * 1024,
        recv_buf_bytes: 4 * 1024,
        posted_recvs: 8,
        prefill_per_class: 2,
        large_region_bytes: 16 * 1024,
        large_slots: 4,
        call_timeout: BUDGET,
        retry: RetryPolicy::none(),
        ..matrix(RpcConfig::rpcoib())
    };
    let (server, _executed) = start_server(&fabric, &cfg, Duration::ZERO);
    let node_a = fabric.add_node();
    let ctx_a = IbContext::new(&fabric, node_a, &cfg).unwrap();
    let stream_a = SimStream::connect(&fabric, node_a, server.addr()).unwrap();
    client_hello(&stream_a, 0).unwrap();
    let conn_a = RdmaConn::bootstrap(&stream_a, &ctx_a, &cfg).unwrap();
    let key = method_key("test.SendDiscipline", "inflate");
    let mut enc = V3Encoder::new(false);
    for seq in 1..=4i64 {
        conn_a
            .send_msg(key, &mut |out| {
                enc.write_request_header(out, seq, 0, None, key)?;
                IntWritable(10_000).write(out)
            })
            .unwrap();
    }
    wait_until(Duration::from_secs(5), "answers behind the holder", || {
        let ledger = send_ledger(&server);
        ledger.processed == 1 && ledger.queue_depth == 2
    });

    fabric.kill_node(node_a);
    let draining = Instant::now();
    assert!(
        server.drain(Duration::from_secs(30)),
        "pending answers to a dead peer held the drain"
    );
    assert!(
        draining.elapsed() < BUDGET + Duration::from_secs(10),
        "drain outlasted the holder's budget by {:?}",
        draining.elapsed() - BUDGET
    );
    assert_eq!(server.connection_count(), 0);
    let ledger = send_ledger(&server);
    assert_eq!((ledger.processed, ledger.queue_depth), (4, 0), "{ledger:?}");
    assert_eq!(server.metrics().counters().broken_sends, 3);
    drop(conn_a);
}

/// (c) A credit-starved bulk response holds up its own connection's send
/// turn — one sender — and nothing else. Peer A never polls its receive
/// side, so it never returns slot credits: its first 10 kB response takes
/// three of its four slots and the second blocks whoever sends it for the
/// server's whole credit budget. Meanwhile a second connection's 512 B
/// calls must all complete while that send is still waiting. (The clocks
/// are wall clocks and sibling tests spin the simulated fabric on the same
/// cores, so the margins are wide: B gives up after half the budget, a
/// thousand times what a call takes.)
#[test]
fn credit_starved_peer_costs_one_sender_not_the_pool() {
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let cfg = RpcConfig {
        handlers: 2,
        rdma_threshold: 2 * 1024,
        recv_buf_bytes: 4 * 1024,
        posted_recvs: 8,
        prefill_per_class: 2,
        large_region_bytes: 16 * 1024,
        large_slots: 4,
        // The server's slot-credit budget for one bulk send.
        call_timeout: Duration::from_secs(10),
        retry: RetryPolicy::none(),
        ..matrix(RpcConfig::rpcoib())
    };
    let (server, _executed) = start_server(&fabric, &cfg, Duration::ZERO);

    // Peer A: a hand-driven verbs connection whose receive side is never
    // polled.
    let node_a = fabric.add_node();
    let ctx_a = IbContext::new(&fabric, node_a, &cfg).unwrap();
    let stream_a = SimStream::connect(&fabric, node_a, server.addr()).unwrap();
    client_hello(&stream_a, 0).unwrap();
    let conn_a = RdmaConn::bootstrap(&stream_a, &ctx_a, &cfg).unwrap();
    let key = method_key("test.SendDiscipline", "inflate");
    let mut enc = V3Encoder::new(false);
    for seq in 1..=2i64 {
        conn_a
            .send_msg(key, &mut |out| {
                enc.write_request_header(out, seq, 0, None, key)?;
                IntWritable(10_000).write(out)
            })
            .unwrap();
    }
    // The first response is out (its transmission is booked on the
    // responder shard whoever sent it); the second is right behind it.
    let responses_sent = |server: &Server| -> u64 {
        server
            .metrics_snapshot()
            .shards
            .iter()
            .filter(|s| s.role == ShardRole::Responder)
            .map(|s| s.processed)
            .sum()
    };
    wait_until(Duration::from_secs(5), "A's first response", || {
        responses_sent(&server) >= 1
    });

    // Connection B: an ordinary client with a shorter patience than A's
    // stall.
    let client_b = Client::new(
        &fabric,
        fabric.add_node(),
        RpcConfig {
            call_timeout: Duration::from_secs(5),
            ..cfg.clone()
        },
    )
    .unwrap();
    for i in 0..50u8 {
        let payload = vec![i; 512];
        let got = echo(&client_b, &server, "echo", &payload)
            .unwrap_or_else(|e| panic!("B's call {i} was held up behind A: {e:?}"));
        assert_eq!(got, payload);
    }
    // All of B finished while A's second response was still waiting for
    // credits: it has neither completed nor failed yet. (A sender books
    // its transmission just after the bytes leave, so B's last one may
    // trail B's return by a moment.)
    const A_FIRST_PLUS_B: u64 = 1 + 50;
    wait_until(Duration::from_secs(1), "B's sends to be booked", || {
        responses_sent(&server) >= A_FIRST_PLUS_B
    });
    assert_eq!(
        responses_sent(&server),
        A_FIRST_PLUS_B,
        "A's second response went out?"
    );
    assert_eq!(server.metrics().counters().broken_sends, 0);

    // The stall ends the way a stall must: the budget runs out and the
    // one starved connection is torn down.
    wait_until(Duration::from_secs(30), "A's starved send to fail", || {
        server.metrics().counters().broken_sends == 1
    });
    client_b.shutdown();
    drop(conn_a);
    server.stop();
}

/// (d) `drain` with inline sends in flight: callers hammer the server
/// while it drains; `open_work` must still reach zero, and every call the
/// server executed is answered exactly once — each success is one
/// execution, no caller sees a duplicate or a stray response.
fn drain_answers_every_admitted_call_once(fabric: Fabric, base: RpcConfig) {
    let cfg = RpcConfig {
        handlers: 4,
        call_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
        ..base
    };
    let (server, executed) = start_server(&fabric, &cfg, Duration::ZERO);
    let server = Arc::new(server);
    let clients: Vec<Client> = (0..2)
        .map(|_| Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap())
        .collect();
    for c in &clients {
        echo(c, &server, "echo", b"warm").unwrap();
    }
    let warm = executed.load(Ordering::Acquire);

    let callers: Vec<_> = (0..8usize)
        .map(|t| {
            let client = clients[t % 2].clone();
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                for i in 0..100_000u32 {
                    let payload = [t as u8, i as u8, (i >> 8) as u8, (i >> 16) as u8];
                    match echo(&client, &server, "echo", &payload) {
                        Ok(got) => {
                            assert_eq!(got, payload);
                            ok += 1;
                        }
                        // The drained server closes the connection.
                        Err(_) => break,
                    }
                }
                ok
            })
        })
        .collect();
    wait_until(Duration::from_secs(10), "traffic", || {
        executed.load(Ordering::Acquire) >= warm + 200
    });
    assert!(
        server.drain(Duration::from_secs(10)),
        "open work never reached zero"
    );
    let ok: u64 = callers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(
        executed.load(Ordering::Acquire) - warm,
        ok,
        "an executed call went unanswered (or was answered twice)"
    );
    for c in &clients {
        assert_eq!(c.metrics().counters().late_responses, 0);
        c.shutdown();
    }
}

#[test]
fn drain_answers_every_admitted_call_once_socket() {
    drain_answers_every_admitted_call_once(
        Fabric::new(model::IPOIB_QDR),
        matrix(RpcConfig::socket()),
    );
}

#[test]
fn drain_answers_every_admitted_call_once_verbs() {
    drain_answers_every_admitted_call_once(
        Fabric::new(model::IB_QDR_VERBS),
        matrix(RpcConfig::rpcoib()),
    );
}

/// Aborts (rather than hangs) the test binary if a case wedges.
struct Watchdog(Arc<AtomicBool>);

fn watchdog(name: &'static str, limit: Duration) -> Watchdog {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while !flag.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                eprintln!("watchdog: {name} exceeded {limit:?}, aborting");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    Watchdog(done)
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// (e) A response body is never rewritten while anyone can still send
/// it. With `retry_cache_capacity = 2` nearly every completion evicts a
/// body and the next response is serialized into it — while duplicates,
/// forced as in (a), keep *other* holders of cached bodies alive: a retry
/// parked behind a slow execution is released through the responder
/// shard, a later one is replayed from the cache, and both can still be
/// queued there when two more completions evict the entry. Payloads are
/// distinct per call and stay within two size classes, so a buffer
/// recycled while a responder still held it would reach some caller as
/// another call's bytes.
fn recycled_bodies_are_not_rewritten_under_a_sender(fabric: Fabric, base: RpcConfig) {
    let _wd = watchdog("recycled_bodies", Duration::from_secs(120));
    let cfg = RpcConfig {
        handlers: 8,
        retry_cache_capacity: 2,
        call_timeout: Duration::from_millis(40),
        retry: RetryPolicy::exponential(8, Duration::from_millis(2)),
        ..base
    };
    let (server, _executed) = start_server(&fabric, &cfg, Duration::from_millis(70));
    let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
    echo(&client, &server, "echo", b"warm").unwrap();

    let callers: Vec<_> = (0..4u32)
        .map(|t| {
            let client = client.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                for i in 0..200u32 {
                    // Two callers force duplicates now and then; all four
                    // keep completions — evictions — coming.
                    let method = if t % 2 == 0 && i % 16 == 5 {
                        "slow_echo"
                    } else {
                        "echo"
                    };
                    let mut payload = vec![(t * 50 + i % 50) as u8; 260 + (i as usize * 7) % 700];
                    payload[..8]
                        .copy_from_slice(&(u64::from(t) << 32 | u64::from(i)).to_be_bytes());
                    let got: BytesWritable = client
                        .call(
                            addr,
                            "test.SendDiscipline",
                            method,
                            &BytesWritable(payload.clone()),
                        )
                        .unwrap_or_else(|e| panic!("caller {t} call {i} ({method}): {e:?}"));
                    assert_eq!(
                        got.0, payload,
                        "caller {t} call {i} got bytes that are not its response"
                    );
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }

    let counters = server.metrics().counters();
    assert!(
        counters.retry_cache_parked + counters.retry_cache_hits >= 10,
        "the slow calls should each have forced a duplicate: {counters:?}"
    );
    assert!(
        counters.resp_bodies_reused >= 400,
        "a cache of two entries evicts — and recycles — on nearly every call: {counters:?}"
    );
    assert_eq!(counters.frame_errors, 0);
    assert_eq!(client.metrics().counters().failed_calls, 0);
    client.shutdown();
    server.stop();
}

#[test]
fn recycled_bodies_are_not_rewritten_under_a_sender_socket() {
    recycled_bodies_are_not_rewritten_under_a_sender(
        Fabric::new(model::IPOIB_QDR),
        matrix(RpcConfig::socket()),
    );
}

#[test]
fn recycled_bodies_are_not_rewritten_under_a_sender_verbs() {
    recycled_bodies_are_not_rewritten_under_a_sender(
        Fabric::new(model::IB_QDR_VERBS),
        matrix(RpcConfig::rpcoib()),
    );
}
