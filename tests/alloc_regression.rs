//! Steady-state allocation regression harness (tier 2: run with
//! `cargo test --release --test alloc_regression -- --ignored`).
//!
//! A counting global allocator tallies heap allocations made by the
//! *caller thread* while a flag is set; allocations inside
//! `simnet::hw_scope` — staging copies that model NIC/DMA work, not
//! host-side malloc traffic — are excluded, as are all frees. After a
//! warmup phase fills the buffer pools, the call-slot freelist, and the
//! pending-table shard capacity, the RPCoIB (verbs) hot path must make
//! **zero** allocations per call, and the sockets baseline must stay
//! under its small historical bound.
//!
//! The same allocator also keeps a *process-wide* tally (every thread,
//! `hw_scope` excluded the same way), which is what sees the server side
//! of a call: reader shard, handler, whoever sends, retry cache,
//! admission queue. The engine's own share of that tally is **zero**: a response is
//! serialized into a buffer the retry cache has just let go of, so what a
//! steady-state call allocates anywhere in the process is the
//! application's — the values `RpcService::call` and `Client::call` hand
//! back. The gates: a service that allocates nothing costs nothing, cache
//! on or off; ceilings on whole-process allocations per 512 B verbs echo
//! and on payload-sized buffers per 256 KiB echo; an error response and a
//! mixed-size load leave both where they were — so churn added to
//! `server.rs` fails a test instead of waiting for a benchmark run. Every
//! such test warms up past its server's `retry_cache_capacity`: a cache
//! that is still filling keeps what it is given, and that memory has to
//! come from somewhere. One more gate bounds what a peer that never
//! handshakes can make the server allocate. The tests of this file
//! serialize on one lock, since a process-wide count must not see a
//! sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use rpcoib::{Client, RetryPolicy, RpcConfig, RpcError, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric};
use wire::{BytesWritable, DataInput, IntWritable, NullWritable, Writable};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide tally: every thread's allocations while the flag is set,
/// and how many of them asked for at least `BIG_BYTES`.
static PROCESS_COUNTING: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
/// ...and how many asked for exactly `EXACT_BYTES` (the allocator rounds
/// nothing: a one-byte `Vec` asks for one byte).
static PROCESS_EXACT_ALLOCS: AtomicU64 = AtomicU64::new(0);
static EXACT_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

fn note_alloc(size: usize) {
    // `try_with`, not `with`: the allocator runs during TLS setup and
    // teardown, where touching a destroyed key would abort.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() && !simnet::in_hw_scope() {
            let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
        }
    });
    if PROCESS_COUNTING.load(Ordering::Relaxed) && !simnet::in_hw_scope() {
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size >= BIG_BYTES.load(Ordering::Relaxed) {
            PROCESS_BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        if size == EXACT_BYTES.load(Ordering::Relaxed) {
            PROCESS_EXACT_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting enabled on this thread; returns the
/// number of counted allocations alongside `f`'s result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|allocs| allocs.set(0));
    COUNTING.with(|counting| counting.set(true));
    let result = f();
    COUNTING.with(|counting| counting.set(false));
    (ALLOCS.with(|allocs| allocs.get()), result)
}

/// Run `f` with the process-wide tally on; returns (allocations on any
/// thread, those of at least `big_bytes`). The caller holds [`serial`].
fn counted_process_wide(big_bytes: usize, f: impl FnOnce()) -> (u64, u64) {
    BIG_BYTES.store(big_bytes, Ordering::Relaxed);
    PROCESS_ALLOCS.store(0, Ordering::Relaxed);
    PROCESS_BIG_ALLOCS.store(0, Ordering::Relaxed);
    PROCESS_COUNTING.store(true, Ordering::SeqCst);
    f();
    PROCESS_COUNTING.store(false, Ordering::SeqCst);
    (
        PROCESS_ALLOCS.load(Ordering::Relaxed),
        PROCESS_BIG_ALLOCS.load(Ordering::Relaxed),
    )
}

/// One test of this file at a time (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A sibling's failed assertion must not cascade into this test.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct EchoService;

/// The parameter `EchoService::keep` kept last.
static KEPT: Mutex<Vec<u8>> = Mutex::new(Vec::new());

impl RpcService for EchoService {
    fn protocol(&self) -> &'static str {
        "test.AllocProtocol"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "echo" => {
                let mut value = IntWritable::default();
                value.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(value))
            }
            // Two names, so two `<protocol, method#resp>` size histories.
            "echo_bytes" | "echo_small" => {
                let mut value = BytesWritable::default();
                value.read_fields(param).map_err(|e| e.to_string())?;
                // An empty payload is this method's failure case: same
                // method, same `<protocol, method#resp>` size history.
                if value.0.is_empty() {
                    return Err("echo_bytes: nothing to echo".into());
                }
                Ok(Box::new(value))
            }
            // A boxed zero-sized value does not allocate.
            "null" => Ok(Box::new(NullWritable)),
            // Keeps its parameter past the call, as a memstore keeps a
            // put's value (until the next one).
            "keep" => {
                let mut value = BytesWritable::default();
                value.read_fields(param).map_err(|e| e.to_string())?;
                *KEPT.lock().unwrap() = value.0;
                Ok(Box::new(NullWritable))
            }
            other => Err(format!("no such method {other}")),
        }
    }
}

/// Ceiling for [`verbs_small_echo_whole_process_allocations_within_ceiling`].
const WHOLE_PROCESS_ALLOCS_PER_SMALL_ECHO: f64 = 4.0;

/// `retry_cache_capacity` of the servers whose steady state is measured
/// process-wide: small, so that a short warm-up takes the cache past
/// filling and into evicting.
const SMALL_CACHE: usize = 128;

const WARMUP_CALLS: usize = 50;
const MEASURED_CALLS: u64 = 20;

/// Boots a server + client pair, warms the pools, then measures the
/// caller-thread allocation count across `MEASURED_CALLS` echo calls.
fn measure_per_call(fabric: &Fabric, cfg: RpcConfig) -> u64 {
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    let client = Client::new(fabric, fabric.add_node(), cfg).unwrap();
    let addr = server.addr();
    let echo = |i: i32| -> IntWritable {
        client
            .call(addr, "test.AllocProtocol", "echo", &IntWritable(i))
            .unwrap()
    };
    for i in 0..WARMUP_CALLS {
        assert_eq!(echo(i as i32).0, i as i32);
    }
    let (allocs, ()) = counted(|| {
        for i in 0..MEASURED_CALLS {
            assert_eq!(echo(i as i32).0, i as i32);
        }
    });
    client.shutdown();
    server.stop();
    allocs / MEASURED_CALLS
}

/// The tentpole claim: the steady-state RPCoIB call path is
/// allocation-free on the caller thread. Interned method keys, pooled
/// call slots, cached metrics entries, pooled registered buffers, and
/// the vectored send leave nothing to malloc per call.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn rdma_steady_state_call_is_allocation_free() {
    let _serial = serial();
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let per_call = measure_per_call(&fabric, RpcConfig::rpcoib());
    assert_eq!(
        per_call, 0,
        "verbs steady-state call must not allocate (got {per_call}/call)"
    );
}

/// The bulk-plane claim: once pools, registration cache, and the gather
/// serializer's scratch are warm, a *large* call's send path is also
/// allocation-free on the caller thread — and registers no new memory.
/// The frame is serialized into pooled registered segments (no staging
/// buffer, no jumbo allocation) and RDMA-written straight out of them.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn rdma_steady_state_large_call_is_allocation_and_registration_free() {
    let _serial = serial();
    use rpcoib::intern::method_key;
    use rpcoib::transport::rdma::RdmaConn;
    use rpcoib::transport::Conn;
    use rpcoib::{IbContext, RpcError};
    use simnet::{SimAddr, SimListener, SimStream};
    use std::time::Duration;

    const WARMUP: usize = 12;

    let cfg = RpcConfig::rpcoib();
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let cli_ctx = IbContext::new(&fabric, client_node, &cfg).unwrap();
    let srv_ctx = IbContext::new(&fabric, server_node, &cfg).unwrap();
    let addr = SimAddr::new(server_node, 8700);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let f2 = fabric.clone();
    let cfg2 = cfg.clone();
    let h = std::thread::spawn(move || {
        let stream = SimStream::connect(&f2, client_node, addr).unwrap();
        RdmaConn::bootstrap(&stream, &cli_ctx, &cfg2).unwrap()
    });
    let (srv_stream, _) = listener.accept().unwrap();
    let srv = Arc::new(RdmaConn::bootstrap(&srv_stream, &srv_ctx, &cfg).unwrap());
    let cli = Arc::new(h.join().unwrap());

    // Credits return through the client's receive path.
    let cli2 = Arc::clone(&cli);
    let progress = std::thread::spawn(move || loop {
        match cli2.recv_msg(Duration::from_millis(100)) {
            Err(RpcError::Timeout) => continue,
            _ => return,
        }
    });
    let srv2 = Arc::clone(&srv);
    let drain = std::thread::spawn(move || {
        for _ in 0..WARMUP + MEASURED_CALLS as usize {
            srv2.recv_msg(Duration::from_secs(30)).unwrap();
        }
    });

    let key = method_key("test.AllocProtocol", "bulk");
    let body = vec![7u8; 200_000]; // well past rdma_threshold
    for _ in 0..WARMUP {
        cli.send_msg(key, &mut |out| out.write_bytes(&body))
            .unwrap();
    }
    let (_, _, _, regs_before) = fabric.stats().snapshot();
    let (allocs, ()) = counted(|| {
        for _ in 0..MEASURED_CALLS {
            cli.send_msg(key, &mut |out| out.write_bytes(&body))
                .unwrap();
        }
    });
    drain.join().unwrap();
    let (_, _, _, regs_after) = fabric.stats().snapshot();
    cli.close();
    progress.join().unwrap();

    assert_eq!(
        allocs / MEASURED_CALLS,
        0,
        "steady-state large call must not allocate (got {allocs} across {MEASURED_CALLS})"
    );
    assert_eq!(
        regs_after - regs_before,
        0,
        "steady-state large calls must not register new memory"
    );
}

/// The sockets baseline keeps its per-send staging buffer (a deliberate
/// pathology of the IPoIB path the paper measures against), but must
/// stay within a small fixed bound per call.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn socket_steady_state_call_allocates_within_bound() {
    let _serial = serial();
    let fabric = Fabric::new(model::IPOIB_QDR);
    let per_call = measure_per_call(&fabric, RpcConfig::socket());
    assert!(
        per_call > 0,
        "socket baseline is expected to allocate its staging buffer"
    );
    assert!(
        per_call <= 8,
        "socket steady-state call regressed past its bound (got {per_call}/call)"
    );
}

/// A connection that does not open with the handshake is refused before
/// any of its bytes can size anything: on both transports the server
/// makes no allocation above 64 KiB on its account — not the 1.19 GB
/// receive buffer `"GET "` reads as when taken for a frame length, and
/// (verbs) not the registered regions of an endpoint exchange.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn refused_peer_makes_the_server_allocate_nothing_big() {
    use simnet::SimStream;
    use std::io::Write;

    let _serial = serial();
    for (net, cfg) in [
        (model::IPOIB_QDR, RpcConfig::socket()),
        (model::IB_QDR_VERBS, RpcConfig::rpcoib()),
    ] {
        let fabric = Fabric::new(net);
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(EchoService));
        let server = Server::start(&fabric, fabric.add_node(), 8020, cfg, registry).unwrap();
        let probe_node = fabric.add_node();
        let (_, big) = counted_process_wide(64 * 1024 + 1, || {
            let stream = SimStream::connect(&fabric, probe_node, server.addr()).unwrap();
            (&stream).write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut byte = [0u8; 1];
            assert!(
                stream.read_exact_at(&mut byte).is_err(),
                "the probe must be closed on, not answered"
            );
        });
        assert_eq!(server.metrics_snapshot().counters.frame_errors, 1);
        assert_eq!(big, 0, "a refused peer cost {big} allocations above 64 KiB");
        server.stop();
    }
}

/// A handler the test holds: `hold` blocks until released, so that one
/// call occupies the server's one run permit and the next its one queue
/// slot.
#[derive(Default)]
struct HoldService {
    released: Mutex<bool>,
    cv: Condvar,
}

impl HoldService {
    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Releases the held calls when dropped, so a failed assertion unwinds
/// into a server that can stop.
struct ReleaseOnDrop(Arc<HoldService>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

impl RpcService for HoldService {
    fn protocol(&self) -> &'static str {
        "test.AllocHold"
    }
    fn call(
        &self,
        _method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut value = IntWritable::default();
        value.read_fields(param).map_err(|e| e.to_string())?;
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.cv.wait(released).unwrap();
        }
        Ok(Box::new(value))
    }
}

/// A server refuses work exactly when it has none to spare: a busy
/// rejection must not build its (one-byte) body anew — the server holds
/// it once and shares it. With the one permit and the one queue slot
/// taken, 1 000 calls are each refused `ServerBusy`, and in all that time
/// no thread of the process allocates anything the size of that body.
/// (One `Vec` per rejection at a build that calls `BUSY_BODY.to_vec()`.)
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn busy_rejections_build_no_body() {
    const REJECTIONS: u64 = 1_000;
    let _serial = serial();
    for (net, base) in [
        (model::IPOIB_QDR, RpcConfig::socket()),
        (model::IB_QDR_VERBS, RpcConfig::rpcoib()),
    ] {
        let fabric = Fabric::new(net);
        let cfg = RpcConfig {
            handlers: 1,
            call_queue_len: 1,
            reader_shards: 1,
            retry: RetryPolicy::none(),
            ..base
        };
        let service = Arc::new(HoldService::default());
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::clone(&service) as Arc<dyn RpcService>);
        let server =
            Server::start(&fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
        let _release = ReleaseOnDrop(Arc::clone(&service));
        let addr = server.addr();
        let frames_read = || -> u64 {
            let shards = server.metrics_snapshot().shards;
            let readers = shards
                .iter()
                .filter(|s| s.role == rpcoib::ShardRole::Reader);
            readers.map(|s| s.processed).sum()
        };
        let hold = |n: i32| {
            let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
            std::thread::spawn(move || {
                let got: IntWritable =
                    client.call(addr, "test.AllocHold", "hold", &IntWritable(n))?;
                client.shutdown();
                Ok::<i32, RpcError>(got.0)
            })
        };
        // One call executing, one queued behind it — in that order.
        let mut held = Vec::new();
        for n in 1..=2 {
            held.push(hold(n));
            while frames_read() < n as u64 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }

        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        let refused =
            || client.call::<_, IntWritable>(addr, "test.AllocHold", "hold", &IntWritable(0));
        assert_eq!(refused().unwrap_err(), RpcError::ServerBusy, "warm-up");
        let exact = {
            EXACT_BYTES.store(rpcoib::frame::BUSY_BODY.len(), Ordering::Relaxed);
            PROCESS_EXACT_ALLOCS.store(0, Ordering::Relaxed);
            counted_process_wide(usize::MAX, || {
                for _ in 0..REJECTIONS {
                    assert_eq!(refused().unwrap_err(), RpcError::ServerBusy);
                }
            });
            EXACT_BYTES.store(usize::MAX, Ordering::Relaxed);
            PROCESS_EXACT_ALLOCS.load(Ordering::Relaxed)
        };
        assert_eq!(
            server.metrics_snapshot().counters.busy_rejections,
            REJECTIONS + 1
        );
        assert_eq!(
            exact, 0,
            "{REJECTIONS} busy rejections allocated {exact} buffers the size of a busy body"
        );

        service.release();
        for (n, call) in held.into_iter().enumerate() {
            assert_eq!(call.join().unwrap(), Ok(n as i32 + 1));
        }
        client.shutdown();
        server.stop();
    }
}

/// A verbs server + client pair for the process-wide gates, with a retry
/// cache of [`SMALL_CACHE`] entries (or `capacity`).
struct Pair {
    fabric: Fabric,
    server: Server,
    client: Client,
}

impl Pair {
    fn verbs(retry_cache_capacity: usize) -> Pair {
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        let cfg = RpcConfig {
            retry_cache_capacity,
            ..RpcConfig::rpcoib()
        };
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(EchoService));
        let server =
            Server::start(&fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
        let client = Client::new(&fabric, fabric.add_node(), cfg).unwrap();
        Pair {
            fabric,
            server,
            client,
        }
    }

    fn echo(&self, method: &str, body: &BytesWritable) -> Result<BytesWritable, RpcError> {
        let addr = self.server.addr();
        self.client.call(addr, "test.AllocProtocol", method, body)
    }

    fn echo_ok(&self, body: &BytesWritable) {
        let got = self.echo("echo_bytes", body).unwrap();
        assert_eq!(got.0.len(), body.0.len());
    }

    fn stop(self) {
        self.client.shutdown();
        self.server.stop();
    }
}

/// Warms a [`Pair`] with `warmup` echoes of `payload` bytes, then counts
/// allocations on *every* thread across `calls` more. Returns (all, at
/// least `payload` bytes) per call.
fn measure_process_wide(payload: usize, warmup: usize, calls: u64) -> (f64, f64) {
    assert!(warmup > 2 * SMALL_CACHE, "warm up past the cache's filling");
    let pair = Pair::verbs(SMALL_CACHE);
    let body = BytesWritable(vec![0x42; payload]);
    for _ in 0..warmup {
        pair.echo_ok(&body);
    }
    let (all, big) = counted_process_wide(payload, || {
        for _ in 0..calls {
            pair.echo_ok(&body);
        }
    });
    pair.stop();
    (all as f64 / calls as f64, big as f64 / calls as f64)
}

/// Whole-process allocations of one steady-state 512 B verbs echo:
/// caller (which also receives the response), reader shard (which also
/// runs the handler and sends), retry cache. Measured 3.0, all three the
/// application's: the handler's parameter value, its boxed result, and
/// the reply value `Client::call` hands the caller. The response body and
/// its `Arc` — 2 more until the engine learnt to serialize into the
/// buffer its retry cache had just evicted — are gone, so the ceiling
/// is 4; staging responses through per-call route and frame vectors on
/// the way to a responder thread (there was one) once measured 14.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn verbs_small_echo_whole_process_allocations_within_ceiling() {
    let _serial = serial();
    let (per_call, _) = measure_process_wide(512, 300, 400);
    assert!(
        per_call <= WHOLE_PROCESS_ALLOCS_PER_SMALL_ECHO,
        "a 512 B verbs echo now costs {per_call:.2} allocations process-wide \
         (ceiling {WHOLE_PROCESS_ALLOCS_PER_SMALL_ECHO})"
    );
}

/// Payload-sized heap buffers of one 256 KiB verbs echo: the caller's
/// response value, the application's to keep. Request and response cross
/// the wire in pooled registered memory, the serialized response body is
/// the one an earlier call's acknowledgement left behind, and the
/// handler's request value is read into the buffer the last reply gave
/// back; a second buffer means the engine allocates for a payload again.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn verbs_bulk_echo_allocates_at_most_one_payload_buffer() {
    let _serial = serial();
    let (_, big_per_call) = measure_process_wide(256 * 1024, 3 * SMALL_CACHE, 40);
    assert!(
        big_per_call <= 1.0,
        "a 256 KiB echo now allocates {big_per_call:.2} payload-sized buffers per call"
    );
}

/// A steady-state 256 KiB echo touches the registered pool on the *send*
/// side only. Each direction serializes its frame into five 64 KiB
/// segments; receiving it costs the pool nothing: the frame is read in
/// the slots it landed in, and the completion that announced it — like a
/// credit message — puts its own receive buffer back on the node's shared
/// queue. So over a window, client and server together draw exactly
/// `calls × 2 × 5` buffers, all hits. Draining every frame into a jumbo
/// pooled buffer first, as the receive path once did, drew one more on
/// each side per call, and so did replacing each consumed receive buffer
/// with a fresh one.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn verbs_bulk_echo_touches_the_pool_on_the_send_side_only() {
    const CALLS: u64 = 40;
    const SEGMENTS: u64 = 5;
    let _serial = serial();
    let pair = Pair::verbs(SMALL_CACHE);
    let body = BytesWritable(vec![0x42; 256 * 1024]);
    for _ in 0..3 * SMALL_CACHE {
        pair.echo_ok(&body);
    }
    // (buffers drawn, misses, oversize) of both pools, and messages sent.
    let read = || {
        let server = pair.server.metrics_snapshot().pool.expect("verbs pool");
        let (hits, misses, _, oversize) = pair.client.pool_stats().expect("verbs pool");
        (
            hits + misses + server.native_hits + server.native_misses,
            misses + server.native_misses,
            oversize + server.oversize,
            pair.fabric.stats().snapshot().0,
        )
    };
    let before = read();
    for _ in 0..CALLS {
        pair.echo_ok(&body);
    }
    let after = read();
    pair.stop();
    let messages = after.3 - before.3;
    assert_eq!(
        after.0 - before.0,
        CALLS * 2 * SEGMENTS,
        "{CALLS} echoes and {messages} credit messages"
    );
    assert_eq!(after.1 - before.1, 0, "pool misses");
    assert_eq!(after.2 - before.2, 0, "oversize allocations");
}

/// A bulk-sized response that waits behind its connection's send turn is
/// sent from where it lies — borrowed — never copied into a frame to ride
/// a gather it would be split out of again. Four callers share one verbs
/// connection, so 256 KiB responses do queue behind a holder
/// (`resp_sent_behind`), and still every payload-sized allocation is the
/// application's one per call, the caller's reply — or a response body
/// built with no spare to recycle (`resp_bodies_fresh`: four calls in
/// flight now and then need one body more than are in circulation), or,
/// once in a few hundred calls, the registered pool growing by a buffer
/// or a parameter finding no spare of its class — hence the 1 % of
/// slack. (With responder shards, two such responses meeting in one sweep
/// were each copied into a fresh quarter-megabyte `Vec`, then sent one by
/// one anyway: 190 to 280 more such allocations per 400 calls.)
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn bulk_responses_pending_behind_a_holder_are_not_copied() {
    const PAYLOAD: usize = 256 * 1024;
    const CALLERS: u64 = 4;
    const CALLS: u64 = 100;
    let _serial = serial();
    let pair = Pair::verbs(SMALL_CACHE);
    let body = BytesWritable(vec![0x42; PAYLOAD]);
    let volley = |calls: u64| {
        std::thread::scope(|s| {
            for _ in 0..CALLERS {
                s.spawn(|| (0..calls).for_each(|_| pair.echo_ok(&body)));
            }
        })
    };
    // Past the cache's filling, with as many bodies in circulation as
    // there will be calls in flight.
    volley(SMALL_CACHE as u64);
    let warm = pair.server.metrics_snapshot().counters;
    let (_, big) = counted_process_wide(PAYLOAD, || volley(CALLS));
    let counters = pair.server.metrics_snapshot().counters;
    pair.stop();
    assert!(
        counters.resp_sent_behind > warm.resp_sent_behind,
        "no response waited behind a holder: {counters:?}"
    );
    let fresh = counters.resp_bodies_fresh - warm.resp_bodies_fresh;
    let calls = CALLERS * CALLS;
    assert!(
        big <= calls + fresh + calls / 100,
        "{calls} calls and {fresh} fresh bodies made {big} payload-sized allocations \
         ({counters:?})"
    );
}

/// The engine's own steady-state cost, with the application's taken
/// away: a `NullWritable → NullWritable` service allocates nothing (a
/// boxed zero-sized value is no allocation), so across 2 000 verbs calls
/// no thread of the process allocates — with the retry cache
/// evicting (each response is built in the body the previous completion
/// evicted) and with it off (each response is built in the buffer the
/// previous one was sent from). 2.0 per call before: a `Vec` and its
/// `Arc`.
///
/// The bound is 0.01 per call, not 0, for growth that happens once per
/// server rather than per call and cannot be made to fall in the warm-up:
/// the retry cache's `HashMap` reaching its final size (its tombstones
/// decide when), and the first response that finds its connection's send
/// turn still held by the previous one's sender (preempted by the caller
/// it woke) and waits on the connection's pending list, which allocates
/// when it is first pushed onto. Measured 0 to 2 per 2 000 calls.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn engine_allocates_nothing_for_a_service_that_allocates_nothing() {
    const CALLS: u64 = 2_000;
    let _serial = serial();
    for capacity in [SMALL_CACHE, 0] {
        let pair = Pair::verbs(capacity);
        let addr = pair.server.addr();
        let null = || {
            let _: NullWritable = pair
                .client
                .call(addr, "test.AllocProtocol", "null", &NullWritable)
                .unwrap();
        };
        // Two callers on the one connection warm up what a lone caller
        // only meets now and then: two calls in flight (two spares in
        // circulation) and the connection's pending list.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| (0..3 * SMALL_CACHE).for_each(|_| null()));
            }
        });
        let (all, _) = counted_process_wide(usize::MAX, || {
            for _ in 0..CALLS {
                null();
            }
        });
        let counters = pair.server.metrics_snapshot().counters;
        pair.stop();
        assert!(
            all <= CALLS / 100,
            "{CALLS} calls of a service that allocates nothing cost {all} allocations \
             process-wide (retry_cache_capacity {capacity}; {counters:?})"
        );
    }
}

/// One error must not cost its method the size history it has built: a
/// bulk method that fails once keeps serializing its successes into a
/// recycled payload-sized buffer — neither starting again from a
/// 40-byte `Vec` and doubling its way back up (the paper's Algorithm 1),
/// nor drawing from the wrong size class. 256 KiB echoes, one failing
/// call of the same method, echoes again: the calls after the error
/// allocate (or `realloc`) exactly the one payload-sized buffer per call
/// the application keeps, the caller's reply.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn an_error_response_does_not_reset_its_methods_size_history() {
    const PAYLOAD: usize = 256 * 1024;
    const AFTER: u64 = 8;
    let _serial = serial();
    let pair = Pair::verbs(SMALL_CACHE);
    let body = BytesWritable(vec![0x42; PAYLOAD]);
    for _ in 0..3 * SMALL_CACHE {
        pair.echo_ok(&body);
    }
    let failed = pair
        .echo("echo_bytes", &BytesWritable(Vec::new()))
        .unwrap_err();
    assert!(matches!(failed, RpcError::Remote(_)), "{failed:?}");
    // `BIG_BYTES` at a quarter of the payload: a body regrown by
    // doubling would show as 64, 128 and 256 KiB reallocations.
    let (_, big) = counted_process_wide(PAYLOAD / 4, || {
        for _ in 0..AFTER {
            pair.echo_ok(&body);
        }
    });
    pair.stop();
    assert_eq!(
        big, AFTER,
        "the {AFTER} echoes after an error made {big} allocations of 64 KiB or more"
    );
}

/// Recycling must not bloat: one server alternating 256 KiB responses of
/// one method and 8 B responses of another (a region server's `get` and
/// `put`), far past its cache's capacity. Spares are matched by size
/// class, so a bulk buffer never carries the small answer into the cache
/// (what it retains stays below twice what it can replay, plus the
/// 128 B class floor per entry), the bulk calls keep allocating only the
/// application's one payload-sized buffer (the caller's reply), and
/// entries plus idle spares stay inside the byte budget.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn mixed_sizes_recycle_by_class_and_do_not_bloat_the_cache() {
    const PAYLOAD: usize = 256 * 1024;
    const ROUNDS: u64 = 3 * SMALL_CACHE as u64;
    let _serial = serial();
    let pair = Pair::verbs(SMALL_CACHE);
    let budget = SMALL_CACHE * RpcConfig::rpcoib().rdma_threshold;
    let (bulk, small) = (
        BytesWritable(vec![0x42; PAYLOAD]),
        BytesWritable(vec![0x17; 8]),
    );
    let round = || {
        pair.echo_ok(&bulk);
        assert_eq!(pair.echo("echo_small", &small).unwrap().0, small.0);
    };
    for _ in 0..ROUNDS {
        round();
    }
    let (_, big) = counted_process_wide(PAYLOAD, || {
        for _ in 0..ROUNDS {
            round();
            let kept = pair.server.retry_cache_retention();
            // Acknowledged entries leave at once, so the cache may hold
            // none at all.
            assert!(
                kept.entries == 0 || kept.entry_capacity < 2 * kept.entry_len + 128 * kept.entries,
                "the cache retains more than twice what it can replay: {kept:?}"
            );
            assert!(
                kept.entry_capacity + kept.spare_capacity <= budget,
                "entries and spares exceed the {budget} B budget: {kept:?}"
            );
        }
    });
    let counters = pair.server.metrics_snapshot().counters;
    pair.stop();
    assert_eq!(
        big, ROUNDS,
        "{ROUNDS} bulk calls among small ones made {big} payload-sized allocations ({counters:?})"
    );
}

/// Ceiling for [`a_handler_that_keeps_its_bulk_parameter_costs_no_more_allocations`]:
/// what a round of one `keep` and one echo cost before parameters were
/// read into spares — the parameter of each, the echo's boxed result and
/// the caller's reply — plus 0.01 for growth that happens once per
/// server, not per call (4.0000 or 4.0026, one allocation in 384 rounds,
/// before and after alike).
const WHOLE_PROCESS_ALLOCS_PER_KEEP_AND_ECHO: f64 = 4.01;

/// A handler that keeps its bulk parameter takes the spare it was read
/// into with it, so the next parameter of that size finds none and is
/// allocated, as every one was before. One `keep` and one echo of 256 KiB
/// alternating, far past the cache's capacity: what a round costs
/// process-wide does not rise.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn a_handler_that_keeps_its_bulk_parameter_costs_no_more_allocations() {
    const ROUNDS: u64 = 3 * SMALL_CACHE as u64;
    let _serial = serial();
    let pair = Pair::verbs(SMALL_CACHE);
    let body = BytesWritable(vec![0x42; 256 * 1024]);
    let addr = pair.server.addr();
    let round = || {
        let _: NullWritable = pair
            .client
            .call(addr, "test.AllocProtocol", "keep", &body)
            .unwrap();
        pair.echo_ok(&body);
    };
    for _ in 0..ROUNDS {
        round();
    }
    let (all, _) = counted_process_wide(usize::MAX, || {
        for _ in 0..ROUNDS {
            round();
        }
    });
    pair.stop();
    assert_eq!(KEPT.lock().unwrap().len(), body.0.len());
    let per_round = all as f64 / ROUNDS as f64;
    assert!(
        per_round <= WHOLE_PROCESS_ALLOCS_PER_KEEP_AND_ECHO,
        "a keep and an echo now cost {per_round:.2} allocations process-wide \
         (ceiling {WHOLE_PROCESS_ALLOCS_PER_KEEP_AND_ECHO})"
    );
}
