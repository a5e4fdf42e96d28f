//! A shuffle fetch against a hostile server, both shuffle transports
//! (sockets, and RPCoIB's bulk plane as the TaskTracker configures it).
//! The partition size in `FOUND` and every chunk's length are the
//! server's word: `fetch` refuses them with `RpcError::Protocol`,
//! reserves no more than a block's worth on the announced size, does not
//! panic, and its next fetch — on a fresh connection — is served.
//! (A file of its own because the largest-allocation allocator below is
//! process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mini_hdfs::dataxfer::DataConnPool;
use mini_mapred::shuffle::{fetch, FETCH_RESERVE};
use rpcoib::intern::method_key;
use rpcoib::transport::rdma::RdmaConn;
use rpcoib::transport::socket::SocketConn;
use rpcoib::transport::Conn;
use rpcoib::{RpcConfig, RpcError};
use simnet::{model, Fabric, SimAddr, SimListener};
use wire::DataOutput;

/// The shuffle opcodes a server has to know (`shuffle.rs`).
const OP_FOUND: u8 = 0x22;
const OP_CHUNK: u8 = 0x24;
const OP_DONE: u8 = 0x25;

/// Records the largest request any thread makes.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

fn send(conn: &Arc<dyn Conn>, frame: &dyn Fn(&mut dyn DataOutput) -> io::Result<()>) {
    conn.send_msg(method_key("mapred.shuffle", "hostile"), &mut |out| {
        frame(out)
    })
    .unwrap();
}

fn found(conn: &Arc<dyn Conn>, total: i64) {
    send(conn, &|out| {
        out.write_u8(OP_FOUND)?;
        out.write_vlong(total)
    });
}

/// A `CHUNK` whose length field is the server's to choose.
fn chunk(conn: &Arc<dyn Conn>, len: i32, body: &[u8]) {
    send(conn, &|out| {
        out.write_u8(OP_CHUNK)?;
        out.write_i32(len)?;
        out.write_bytes(body)
    });
}

fn done(conn: &Arc<dyn Conn>) {
    send(conn, &|out| out.write_u8(OP_DONE));
}

#[test]
fn fetch_refuses_hostile_sizes_and_keeps_fetching() {
    for (cfg, net) in [
        (RpcConfig::rpcoib(), model::IB_QDR_VERBS),
        (RpcConfig::socket(), model::TEN_GIG_E),
    ] {
        let fabric = Fabric::new(net);
        let (server, client) = (fabric.add_node(), fabric.add_node());
        let addr = SimAddr::new(server, 50060);
        let listener = SimListener::bind(&fabric, addr).unwrap();

        let body = [7u8; 16];
        // What the server answers a `FETCH` with, one connection each;
        // the last is well formed.
        type Answer = Box<dyn Fn(&Arc<dyn Conn>) + Send>;
        let answers: Vec<(&str, Answer)> = vec![
            ("total of -1", Box::new(|c| found(c, -1))),
            ("total of i64::MIN", Box::new(|c| found(c, i64::MIN))),
            (
                "total of i64::MAX, then DONE",
                Box::new(|c| {
                    found(c, i64::MAX);
                    done(c);
                }),
            ),
            (
                "chunk longer than its payload",
                Box::new(move |c| {
                    found(c, i64::MAX);
                    chunk(c, i32::MAX, &body);
                }),
            ),
            (
                "chunk of negative length",
                Box::new(move |c| {
                    found(c, 16);
                    chunk(c, -16, &body);
                }),
            ),
            (
                "chunk past the announced total",
                Box::new(move |c| {
                    found(c, 15);
                    chunk(c, 16, &body);
                }),
            ),
            (
                "well formed",
                Box::new(move |c| {
                    found(c, 16);
                    chunk(c, 16, &body);
                    done(c);
                }),
            ),
        ];
        let hostile = answers.len() - 1;
        let (server_fabric, server_cfg) = (fabric.clone(), cfg.clone());
        let tracker = std::thread::spawn(move || {
            let pool = DataConnPool::new(&server_fabric, server, server_cfg.clone()).unwrap();
            for (what, answer) in answers {
                let (stream, _) = listener.accept().unwrap();
                let conn: Arc<dyn Conn> = match pool.ib_context() {
                    Some(ctx) => Arc::new(RdmaConn::bootstrap(&stream, ctx, &server_cfg).unwrap()),
                    None => Arc::new(SocketConn::new(stream, 4096)),
                };
                conn.recv_msg(Duration::from_secs(10)).expect(what);
                answer(&conn);
                // Until the fetcher has hung up (verbs: until it would
                // have: a dropped queue pair is silent).
                let _ = conn.recv_msg(Duration::from_millis(200));
            }
        });

        // Each fetch is on a fresh connection, whose large region (verbs)
        // is the one allocation allowed to be bigger than the reserve.
        let bound = FETCH_RESERVE.max(cfg.large_region_bytes);
        let pool = DataConnPool::new(&fabric, client, cfg).unwrap();
        LARGEST.store(0, Ordering::Relaxed);
        for _ in 0..hostile {
            let err = fetch(&pool, addr, 1, 0, 0).unwrap_err();
            assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= bound,
            "a hostile answer made the process allocate {largest} bytes at once"
        );
        assert_eq!(fetch(&pool, addr, 1, 0, 0).unwrap().unwrap(), body);
        tracker.join().unwrap();
    }
}
