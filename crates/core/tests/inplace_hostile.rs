//! A bulk frame is read in the slots it landed in, and the peer that
//! wrote it keeps the rkey: it can rewrite those slots while the server
//! reads. The engine looks at no byte of an in-place frame twice (the
//! length header once at the announcement, the request header once in
//! the reader, the parameter bytes once per poll — and a call that is
//! polled again has taken its own copy), so **a rewritten slot hurts only
//! its owner**: its call is answered (with whatever its handler made of
//! the bytes) or its connection is forfeited as a protocol error — never
//! a panic, never an allocation a peer's bytes sized, and never anything
//! a second connection can notice.
//!
//! The hostile peer is a *raw verbs* endpoint: it speaks the connect
//! handshake and the end-point exchange by hand and then uses the rkey as
//! it pleases. (A file of its own because the largest-allocation
//! allocator below is process-wide: a neighbouring test's quarter-megabyte
//! body would trip it.)
//!
//! The same allocator counts what one thread allocates, which is how the
//! reader's own cases are checked on a bare verbs connection: a
//! length-prefixed buffer costs one allocation of exactly its length from
//! any payload, and visiting one in place costs none; a length beyond the
//! frame costs nothing it sized, and a negative one or one beyond the
//! frame is refused before it is visited at no cost at all; and a
//! recycled spare shows none of its old bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bufpool::heap::{self, HeapTier};
use proptest::prelude::*;
use rpcoib::intern::method_key;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::Conn;
use rpcoib::{handshake, Client, RpcConfig, RpcService, Server, ServiceRegistry};
use rpcoib::{IbContext, Payload, V3Decoder, V3Encoder};
use simnet::{
    model, CompletionKind, Fabric, MemoryRegion, QpEndpoint, QueuePair, RdmaDevice, RemoteKey,
    SimAddr, SimListener, SimStream, VerbsError,
};
use wire::{BytesWritable, DataInput, DataOutput, LongWritable, Writable};

/// Records the largest request any thread but an exempt one makes.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The hostile peer's own thread: its regions are the test's cost.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations and their bytes, while [`tally`] runs.
    static TALLY: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn note_alloc(size: usize) {
    // `try_with`: the allocator also runs during TLS setup and teardown.
    if !EXEMPT.try_with(Cell::get).unwrap_or(true) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
    let _ = TALLY.try_with(|tally| {
        if let Some((n, bytes)) = tally.get() {
            tally.set(Some((n + 1, bytes + size)));
        }
    });
}

/// `f`'s result, and how many allocations of how many bytes in all this
/// thread made running it.
fn tally<R>(f: impl FnOnce() -> R) -> (R, (usize, usize)) {
    TALLY.with(|tally| tally.set(Some((0, 0))));
    let result = f();
    (result, TALLY.with(Cell::take).expect("set above"))
}

unsafe impl GlobalAlloc for LargestAlloc {
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
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// Sums the bytes of a `BytesWritable` parameter through a fixed window:
/// the length a peer writes sizes nothing the *service* allocates, so
/// what the allocator sees is the engine's.
struct SumService;

impl RpcService for SumService {
    fn protocol(&self) -> &'static str {
        "hostile.Sum"
    }
    fn call(
        &self,
        _method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut left = param.read_i32().map_err(|e| e.to_string())? as u32 as usize;
        let mut window = [0u8; 4096];
        let mut sum = 0i64;
        while left > 0 {
            let chunk = &mut window[..left.min(4096)];
            param.read_bytes(chunk).map_err(|e| e.to_string())?;
            sum += chunk.iter().map(|&b| i64::from(b)).sum::<i64>();
            left -= chunk.len();
        }
        Ok(Box::new(LongWritable(sum)))
    }
}

/// The RPCoIB wire constants a peer has to know (`transport/rdma.rs`).
const HELLO_MAGIC: u32 = 0x5250_4942;
const HELLO_VERSION: u8 = 3;
const HELLO_BYTES: usize = 48;
const IMM_SMALL: u32 = 1;
const IMM_LARGE: u32 = 2;

/// One connection of the hostile peer, brought up by hand.
struct RawPeer {
    qp: QueuePair,
    server_rkey: RemoteKey,
    /// Where outgoing bytes are staged for the RDMA write.
    stage: MemoryRegion,
    posted: VecDeque<(u64, MemoryRegion)>,
    _region: MemoryRegion,
}

impl RawPeer {
    fn connect(fabric: &Fabric, dev: &RdmaDevice, addr: SimAddr, cfg: &RpcConfig) -> RawPeer {
        let stream = SimStream::connect(fabric, dev.node(), addr).unwrap();
        handshake::client_hello(&stream, 0).unwrap();
        let qp = dev.create_qp();
        let region = dev.register(cfg.large_region_bytes);
        let mut hello = [0u8; HELLO_BYTES];
        hello[0..4].copy_from_slice(&HELLO_MAGIC.to_be_bytes());
        hello[4] = HELLO_VERSION;
        hello[8..20].copy_from_slice(&qp.endpoint().to_bytes());
        hello[20..32].copy_from_slice(&region.remote_key().to_bytes());
        hello[32..40].copy_from_slice(&(cfg.large_region_bytes as u64).to_be_bytes());
        hello[40..44].copy_from_slice(&(cfg.large_slots as u32).to_be_bytes());
        (&stream).write_all(&hello).unwrap();
        let mut theirs = [0u8; HELLO_BYTES];
        stream.read_exact_at(&mut theirs).unwrap();
        qp.connect(QpEndpoint::from_bytes(theirs[8..20].try_into().unwrap()));
        let posted: VecDeque<_> = (0..4u64)
            .map(|wr| (wr, dev.register(cfg.recv_buf_bytes)))
            .collect();
        for (wr, mr) in &posted {
            qp.post_recv(*wr, mr.clone());
        }
        RawPeer {
            qp,
            server_rkey: RemoteKey::from_bytes(theirs[20..32].try_into().unwrap()),
            stage: dev.register(cfg.large_region_bytes / cfg.large_slots),
            posted,
            _region: region,
        }
    }

    /// RDMA-write `bytes` at `offset` of the server's region, announced
    /// as a one-slot bulk frame at `slot` if `announce`.
    fn write(&self, bytes: &[u8], offset: usize, announce: Option<u32>) -> Result<(), VerbsError> {
        self.stage.write_at(0, bytes).unwrap();
        let imm = announce.map(|slot| IMM_LARGE | (slot << 8) | (1 << 20));
        self.qp
            .rdma_write(&self.stage, 0, bytes.len(), self.server_rkey, offset, imm)
    }

    /// The next response the server sends this peer, if one comes within
    /// `patience`: `Some(well_formed)`. Credit returns are skipped. A
    /// server that forfeits the connection ends its queue pair, and the
    /// peer's poll sees `PeerDown`: no response, as when none comes.
    fn response(&mut self, patience: Duration) -> Option<bool> {
        let deadline = Instant::now() + patience;
        while Instant::now() < deadline {
            let done = match self.qp.poll_recv(Duration::from_millis(5)) {
                Ok(done) => done,
                Err(VerbsError::Timeout) => continue,
                Err(VerbsError::PeerDown) => return None,
                Err(e) => panic!("raw peer poll: {e:?}"),
            };
            let (wr, mr) = self.posted.pop_front().expect("a posted buffer");
            assert_eq!((done.kind, done.wr_id), (CompletionKind::Recv, wr));
            self.qp.post_recv(wr, mr.clone());
            self.posted.push_back((wr, mr.clone()));
            if done.imm & 0xff == IMM_SMALL {
                let mut frame = vec![0u8; done.len];
                mr.read_at(0, &mut frame).unwrap();
                let lead = V3Decoder::new(false).read_response_header(&mut frame.as_slice());
                return Some(lead.is_ok());
            }
        }
        None
    }
}

struct Env {
    fabric: Fabric,
    cfg: RpcConfig,
    server: Server,
    dev: RdmaDevice,
    /// Set when any thread of the process panics.
    panicked: &'static AtomicBool,
    /// Calls the honest neighbour has had answered correctly.
    neighbour: Arc<AtomicUsize>,
}

fn env() -> &'static Env {
    static ENV: std::sync::OnceLock<Env> = std::sync::OnceLock::new();
    ENV.get_or_init(|| {
        simnet::set_fast_forward(true);
        static PANICKED: AtomicBool = AtomicBool::new(false);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICKED.store(true, Ordering::SeqCst);
            hook(info);
        }));
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        // A small region: accepting a connection registers one, and that
        // is the largest thing the server may allocate below. (And a
        // small retry cache: the neighbour's calls would grow the default
        // one's table past that.)
        let cfg = RpcConfig {
            large_region_bytes: 256 * 1024,
            rdma_threshold: 4 * 1024,
            retry_cache_capacity: 64,
            ..RpcConfig::rpcoib()
        };
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(SumService));
        let server =
            Server::start(&fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
        let addr = server.addr();
        // The neighbour: a second connection, bulk and eager calls
        // alternating, each answer checked, for as long as the process
        // lives (never joined: a failed check reaches the cases through
        // the panic hook above).
        let neighbour = Arc::new(AtomicUsize::new(0));
        let client = Client::new(&fabric, fabric.add_node(), cfg.clone()).unwrap();
        let answered = Arc::clone(&neighbour);
        std::thread::spawn(move || {
            let bodies = [
                BytesWritable(vec![3u8; 40_000]),
                BytesWritable(vec![5u8; 300]),
            ];
            for body in bodies.iter().cycle() {
                let sum: LongWritable = client.call(addr, "hostile.Sum", "sum", body).unwrap();
                let want: i64 = body.0.iter().map(|&b| i64::from(b)).sum();
                assert_eq!(sum.0, want, "the neighbour read somebody else's bytes");
                answered.fetch_add(1, Ordering::Release);
            }
        });
        // Its connection is up before a case counts connections.
        while neighbour.load(Ordering::Acquire) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let dev = RdmaDevice::open(&fabric, fabric.add_node()).unwrap();
        Env {
            fabric,
            cfg,
            server,
            dev,
            panicked: &PANICKED,
            neighbour,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Announce a valid one-slot frame, then overwrite the slot — before
    /// the announcement lands or racing the server's reads — with
    /// arbitrary bytes at arbitrary offsets.
    #[test]
    fn a_rewritten_slot_hurts_only_its_owner(
        slot in 0u32..4,
        body_len in 0usize..30_000,
        before in any::<bool>(),
        garbage in proptest::collection::vec(
            (any::<u16>(), proptest::collection::vec(any::<u8>(), 1..96)),
            1..8,
        ),
    ) {
        let env = env();
        EXEMPT.with(|e| e.set(true));
        let slot_size = env.cfg.large_region_bytes / env.cfg.large_slots;
        let connections = env.server.connection_count();
        let mut peer = RawPeer::connect(&env.fabric, &env.dev, env.server.addr(), &env.cfg);
        // The connection's region is registered; from here on nothing
        // the server allocates may be sized by what this peer writes.
        let deadline = Instant::now() + Duration::from_secs(10);
        while env.server.connection_count() <= connections {
            prop_assert!(Instant::now() < deadline, "connection never adopted");
            std::thread::sleep(Duration::from_millis(1));
        }
        LARGEST.store(0, Ordering::Relaxed);
        let answered = env.neighbour.load(Ordering::Acquire);
        let frame_errors = env.server.metrics().counters().frame_errors;

        // [u64 length][request header][parameter bytes], as `send_bulk`
        // lays a frame out.
        let mut frame = vec![0u8; 8];
        V3Encoder::new(false)
            .write_request_header(&mut frame, 1, 0, None, method_key("hostile.Sum", "sum"))
            .unwrap();
        frame.extend((body_len as u32).to_be_bytes());
        frame.extend((0..body_len).map(|i| i as u8));
        let len = (frame.len() - 8) as u64;
        frame[..8].copy_from_slice(&len.to_be_bytes());
        let base = slot as usize * slot_size;
        // Anywhere in the frame, its length header included.
        let spots: Vec<(usize, &[u8])> = garbage
            .iter()
            .map(|(at, bytes)| {
                let at = *at as usize % frame.len();
                (at, &bytes[..bytes.len().min(frame.len() - at)])
            })
            .collect();
        if before {
            for &(at, bytes) in &spots {
                frame[at..at + bytes.len()].copy_from_slice(bytes);
            }
            peer.write(&frame, base, Some(slot)).unwrap();
        } else {
            peer.write(&frame, base, Some(slot)).unwrap();
            for &(at, bytes) in &spots {
                // An earlier rewrite may already have had the connection
                // forfeited, its region deregistered (`BadRemoteKey`):
                // the rest have nowhere to land.
                if peer.write(bytes, base + at, None).is_err() {
                    break;
                }
            }
        }

        // Its owner: answered — well-formed, whatever the verdict — or
        // forfeited as a protocol error.
        let resolved = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(well_formed) = peer.response(Duration::from_millis(20)) {
                prop_assert!(well_formed, "the server answered with an unreadable frame");
                break;
            }
            if env.server.metrics().counters().frame_errors > frame_errors {
                break;
            }
            prop_assert!(Instant::now() < resolved, "the call was neither answered nor refused");
        }
        // Everybody else: the neighbour is still being answered, nothing
        // panicked, nothing big was allocated.
        let served = Instant::now() + Duration::from_secs(10);
        while env.neighbour.load(Ordering::Acquire) < answered + 2 {
            prop_assert!(Instant::now() < served, "the neighbour stopped being answered");
            std::thread::sleep(Duration::from_millis(1));
        }
        prop_assert!(!env.panicked.load(Ordering::SeqCst), "a thread panicked");
        let largest = LARGEST.load(Ordering::Relaxed);
        prop_assert!(
            largest <= env.cfg.large_region_bytes,
            "the server allocated {largest} bytes while serving a hostile peer"
        );
        // Its end reaches the server, which lets the connection go (if a
        // forfeit has not already), so the next case counts from here.
        drop(peer);
        let gone = Instant::now() + Duration::from_secs(10);
        while env.server.connection_count() > connections {
            prop_assert!(Instant::now() < gone, "a dropped peer's connection was kept");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A bare verbs connection pair — a sender and a receiver, no server —
/// whose frames longer than `rdma_threshold` bytes go bulk and arrive in
/// place. Set up on threads exempt from the largest-allocation check:
/// each end registers its regions.
fn conn_pair(rdma_threshold: usize) -> (RdmaConn, RdmaConn) {
    simnet::set_fast_forward(true);
    EXEMPT.with(|e| e.set(true));
    let cfg = RpcConfig {
        large_region_bytes: 256 * 1024,
        rdma_threshold,
        ..RpcConfig::rpcoib()
    };
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let (server, client) = (fabric.add_node(), fabric.add_node());
    let srv_ctx = IbContext::new(&fabric, server, &cfg).unwrap();
    let cli_ctx = IbContext::new(&fabric, client, &cfg).unwrap();
    let addr = SimAddr::new(server, 9100);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let cli_cfg = cfg.clone();
    let cli = std::thread::spawn(move || {
        EXEMPT.with(|e| e.set(true));
        let stream = SimStream::connect(&fabric, client, addr).unwrap();
        RdmaConn::bootstrap(&stream, &cli_ctx, &cli_cfg).unwrap()
    });
    let (stream, _) = listener.accept().unwrap();
    let srv = RdmaConn::bootstrap(&stream, &srv_ctx, &cfg).unwrap();
    (cli.join().unwrap(), srv)
}

/// Send `frame` from `cli` and receive it on `srv`.
fn carry(cli: &RdmaConn, srv: &RdmaConn, frame: &[u8]) -> Payload {
    cli.send_msg(method_key("hostile.Reader", "frame"), &mut |out| {
        out.write_bytes(frame)
    })
    .unwrap();
    srv.recv_msg(Duration::from_secs(10)).unwrap().0
}

/// `[i32 len][bytes]`.
fn len_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.write_len_bytes(bytes).unwrap();
    frame
}

#[test]
fn len_bytes_cost_one_allocation_of_their_length_from_any_payload() {
    let (cli, srv) = conn_pair(4096);
    let small: Vec<u8> = (0..1_000u32).map(|i| i as u8).collect();
    let large: Vec<u8> = (0..40_000u32).map(|i| (i * 7) as u8).collect();
    let owned = Payload::Owned(len_bytes(&small));
    let pooled = carry(&cli, &srv, &len_bytes(&small));
    let in_place = carry(&cli, &srv, &len_bytes(&large));
    assert!(matches!(pooled, Payload::Pooled { .. }), "{pooled:?}");
    assert!(matches!(in_place, Payload::InPlace { .. }), "{in_place:?}");
    for (payload, body) in [(&owned, &small), (&pooled, &small), (&in_place, &large)] {
        let (got, allocs) = tally(|| payload.reader().read_len_bytes().unwrap());
        assert_eq!(got, *body, "{payload:?}");
        assert_eq!(allocs, (1, body.len()), "{payload:?}");
        assert_eq!(got.capacity(), body.len(), "{payload:?}");
    }
}

#[test]
fn with_len_bytes_visits_what_read_len_bytes_returns_where_it_landed() {
    let (cli, srv) = conn_pair(4096);
    let framed = |body: &[u8]| {
        let mut frame = len_bytes(body);
        frame.push(7);
        frame
    };
    let small: Vec<u8> = (0..1_000u32).map(|i| i as u8).collect();
    let large: Vec<u8> = (0..40_000u32).map(|i| (i * 7) as u8).collect();
    let owned = Payload::Owned(framed(&small));
    let pooled = carry(&cli, &srv, &framed(&small));
    let in_place = carry(&cli, &srv, &framed(&large));
    let empty = carry(&cli, &srv, &framed(&[]));
    assert!(matches!(pooled, Payload::Pooled { .. }), "{pooled:?}");
    assert!(matches!(in_place, Payload::InPlace { .. }), "{in_place:?}");
    for payload in [&owned, &pooled, &in_place, &empty] {
        let mut copied = payload.reader();
        let want = copied.read_len_bytes().unwrap();
        let mut reader = payload.reader();
        let (visits, allocs) = tally(|| {
            let mut visits = 0;
            reader
                .with_len_bytes(&mut |bytes| {
                    assert!(bytes == want.as_slice(), "other bytes than read_len_bytes'");
                    visits += 1;
                })
                .unwrap();
            visits
        });
        assert_eq!(visits, 1, "{payload:?}");
        assert_eq!(allocs, (0, 0), "{payload:?}");
        assert_eq!(reader.position(), copied.position(), "{payload:?}");
        assert_eq!(reader.read_u8().unwrap(), 7);
    }
}

#[test]
fn with_len_bytes_refuses_a_hostile_length_before_it_visits_or_allocates() {
    let (eager_cli, eager_srv) = conn_pair(4096);
    let (bulk_cli, bulk_srv) = conn_pair(8);
    for (announced, kind) in [
        (-2, std::io::ErrorKind::InvalidData),
        (6, std::io::ErrorKind::UnexpectedEof),
        (i32::MAX, std::io::ErrorKind::UnexpectedEof),
    ] {
        // Announcing `announced` bytes, holding five.
        let mut frame = Vec::new();
        frame.write_i32(announced).unwrap();
        frame.extend_from_slice(b"short");
        let owned = Payload::Owned(frame.clone());
        let pooled = carry(&eager_cli, &eager_srv, &frame);
        let in_place = carry(&bulk_cli, &bulk_srv, &frame);
        assert!(matches!(pooled, Payload::Pooled { .. }), "{pooled:?}");
        assert!(matches!(in_place, Payload::InPlace { .. }), "{in_place:?}");
        for payload in [&owned, &pooled, &in_place] {
            let mut reader = payload.reader();
            let (err, allocs) = tally(|| {
                reader
                    .with_len_bytes(&mut |_| panic!("visited"))
                    .unwrap_err()
            });
            assert_eq!(err.kind(), kind, "{announced} in {payload:?}");
            assert_eq!(allocs, (0, 0), "{announced} in {payload:?}");
            assert_eq!(reader.position(), 4, "nothing read past the length");
        }
    }
}

#[test]
fn a_length_beyond_the_frame_sizes_nothing() {
    // A 9-byte bulk frame that announces 2 GiB.
    let (cli, srv) = conn_pair(8);
    let mut frame = Vec::new();
    frame.write_i32(i32::MAX).unwrap();
    frame.extend_from_slice(b"short");
    let payload = carry(&cli, &srv, &frame);
    assert!(
        matches!(payload, Payload::InPlace { len: 9, .. }),
        "{payload:?}"
    );
    let mut asked = 0;
    let mut spares = |_: usize| {
        asked += 1;
        None
    };
    let (err, (_, bytes)) = tally(|| {
        payload
            .reader()
            .with_spares(&mut spares)
            .read_len_bytes()
            .unwrap_err()
    });
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert_eq!(asked, 0, "a spare was asked for an impossible length");
    // The error's own message is all that was allocated.
    assert!(bytes < 128, "a refused length cost {bytes} bytes");
}

#[test]
fn a_recycled_spare_shows_none_of_its_old_bytes() {
    let (cli, srv) = conn_pair(4096);
    let tier = HeapTier::new(heap::BUDGET_BYTES);
    // The last reply gave back 60 000 bytes of 0xAA, after its parameter
    // found no spare of the class.
    let (claim, none) = tier.draw_param(60_000);
    assert!(none.is_none());
    let stale = vec![0xAA; 60_000];
    let block = stale.as_ptr();
    tier.give_back(claim, stale);
    // A shorter parameter of the same size class is read into it.
    let param: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let payload = carry(&cli, &srv, &len_bytes(&param));
    let mut claim = None;
    let mut spares = |len: usize| {
        let (drawn, buf) = tier.draw_param(len);
        claim = Some(drawn);
        buf
    };
    let (got, allocs) = tally(|| {
        payload
            .reader()
            .with_spares(&mut spares)
            .read_len_bytes()
            .unwrap()
    });
    assert_eq!(got, param);
    assert_eq!(got.len(), param.len());
    assert!(got.capacity() < 2 * param.len(), "{}", got.capacity());
    assert_eq!(got.as_ptr(), block, "read into the spare");
    assert_eq!(allocs, (0, 0));
    assert!(claim.is_some());
}
