//! Socket emulation: connection-oriented byte streams over the fabric.
//!
//! [`SimStream`] mimics the behaviour of a TCP socket as seen by the Hadoop
//! RPC baseline:
//!
//! * every `write` performs a **real staging copy** of the payload (the
//!   user-space → kernel socket-buffer copy the paper charges the default
//!   design for),
//! * every `write` pays the model's per-operation stack overhead and the
//!   message's wire time against the sender node's egress link clock,
//! * delivery happens one `base_latency` later, gated by the receiver
//!   node's ingress link clock (so many flows into one node contend),
//! * every `read` copies out of the staged segment (kernel → user copy).
//!
//! Streams are full-duplex and sharable across threads (`Read`/`Write` are
//! implemented for `&SimStream`), matching how Hadoop's `Connection` thread
//! and caller threads share one socket.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::fabric::{Fabric, NodeId, SimAddr, WakeSlot};
use crate::time::spin_until;
use crate::time::Clock;

/// How often a blocked read re-checks for node failure.
const FAILURE_POLL: Duration = Duration::from_millis(10);

/// Large writes are cut into wire segments of this size, each with its
/// own delivery window — like TCP segmentation. Without this, a reader
/// would absorb the whole message's wire time on its *first* byte and
/// then copy the rest "for free", which distorts receive-time accounting
/// (Figure 1 measures exactly that breakdown).
const WIRE_SEGMENT: usize = 16 * 1024;

/// A chunk of bytes in flight, stamped with its delivery window.
pub(crate) struct Segment {
    /// Instant at which the first byte reaches the receiver's NIC.
    arrive_start: Instant,
    /// Wire serialization time of this segment.
    wire: Duration,
    data: Bytes,
}

/// A connection handed to a listener by a connecting peer. Each direction
/// carries a [`WakeSlot`]: `read_wake` is the accepted stream's own
/// readiness slot (fired by the connector's writes and EOF), `peer_wake`
/// is the connector's slot (fired by the accepted stream's writes and
/// EOF).
pub(crate) struct PendingConn {
    peer_addr: SimAddr,
    to_peer: Sender<Segment>,
    from_peer: Receiver<Segment>,
    read_wake: WakeSlot,
    peer_wake: WakeSlot,
}

struct RxState {
    rx: Receiver<Segment>,
    /// Bytes from a previously delivered segment not yet read out.
    leftover: VecDeque<Bytes>,
    /// A segment pulled off the channel by [`SimStream::readable`] but not
    /// yet consumed by a read. Ingress/ledger charging happens only at
    /// consumption time, so peeking never perturbs the modeled clock.
    peeked: Option<Segment>,
    /// Set once the channel reports `Disconnected`: the stream is at EOF
    /// and stays readable forever (reads return `Ok(0)`).
    eof: bool,
}

struct StreamInner {
    fabric: Fabric,
    local: SimAddr,
    peer: SimAddr,
    /// `None` after an explicit shutdown of the write half.
    tx: Mutex<Option<Sender<Segment>>>,
    rx: Mutex<RxState>,
    read_timeout: Mutex<Option<Duration>>,
    /// This end's readiness slot, armed via [`SimStream::set_read_interest`]
    /// and fired by the peer's writes and EOF.
    read_wake: WakeSlot,
    /// The peer's readiness slot; fired after every local write, on
    /// [`SimStream::shutdown_write`], and when this end drops (EOF).
    peer_wake: WakeSlot,
}

impl Drop for StreamInner {
    fn drop(&mut self) {
        // Dropping this end drops its `Sender`, which the peer observes as
        // EOF — deliver the readiness edge for it.
        self.peer_wake.fire();
    }
}

/// A simulated full-duplex byte stream.
#[derive(Clone)]
pub struct SimStream {
    inner: Arc<StreamInner>,
}

impl SimStream {
    /// Connect from `local_node` to a listener at `remote`. Pays one round
    /// trip of handshake latency, like TCP's SYN/SYN-ACK.
    pub fn connect(fabric: &Fabric, local_node: NodeId, remote: SimAddr) -> io::Result<SimStream> {
        if fabric.is_dead(local_node) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "local node is down",
            ));
        }
        if fabric.is_dead(remote.node) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "remote node is down",
            ));
        }
        if fabric.is_partitioned(local_node, remote.node) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "network partition",
            ));
        }
        let accept_tx = fabric
            .inner
            .listeners
            .lock()
            .get(&remote)
            .map(|(_, tx)| tx.clone())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("nothing bound at {remote}"),
                )
            })?;
        if fabric.take_connect_failure(remote) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("injected connect failure to {remote}"),
            ));
        }

        let model = *fabric.model();
        // Handshake: one round trip plus a stack operation on each side.
        let handshake_ns = 2 * model.base_latency_ns + 2 * model.stack_overhead_ns;
        fabric.charge_modeled(local_node, handshake_ns);
        crate::time::spin_ns(handshake_ns);

        let local = SimAddr::new(local_node, ephemeral_port(fabric));
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        // One wake slot per direction, shared with the accepted end.
        let connector_wake = WakeSlot::new();
        let acceptor_wake = WakeSlot::new();
        accept_tx
            .send(PendingConn {
                peer_addr: local,
                to_peer: s2c_tx,
                from_peer: c2s_rx,
                read_wake: acceptor_wake.clone(),
                peer_wake: connector_wake.clone(),
            })
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "listener closed"))?;

        Ok(SimStream {
            inner: Arc::new(StreamInner {
                fabric: fabric.clone(),
                local,
                peer: remote,
                tx: Mutex::new(Some(c2s_tx)),
                rx: Mutex::new(RxState {
                    rx: s2c_rx,
                    leftover: VecDeque::new(),
                    peeked: None,
                    eof: false,
                }),
                read_timeout: Mutex::new(None),
                read_wake: connector_wake,
                peer_wake: acceptor_wake,
            }),
        })
    }

    /// The local (node, port) of this end of the stream.
    pub fn local_addr(&self) -> SimAddr {
        self.inner.local
    }

    /// The remote (node, port) this stream is connected to.
    pub fn peer_addr(&self) -> SimAddr {
        self.inner.peer
    }

    /// The clock of the fabric this stream runs on.
    pub fn clock(&self) -> &Clock {
        self.inner.fabric.clock()
    }

    /// Set or clear the timeout applied to blocking reads.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) {
        *self.inner.read_timeout.lock() = timeout;
    }

    /// Close the write half; the peer will observe EOF after draining.
    pub fn shutdown_write(&self) {
        self.inner.tx.lock().take();
        // EOF is a readiness edge: a blocked event-driven peer must learn
        // its next read would return `Ok(0)`.
        self.inner.peer_wake.fire();
    }

    /// Arm this stream's readiness hook: it fires (charge-free, on the
    /// writer's thread) whenever the peer makes new input observable —
    /// bytes written or EOF (write-half shutdown or stream drop). The
    /// level-triggered [`SimStream::readable`] stays authoritative; the
    /// hook is the edge notification that makes polling it unnecessary.
    pub fn set_read_interest(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.inner.read_wake.set(hook);
    }

    /// Bytes received from the wire and buffered for reading (delivered
    /// segments not yet consumed, including one staged by
    /// [`SimStream::readable`]). The per-connection memory-accounting
    /// figure the server's metrics snapshot reports.
    pub fn buffered_bytes(&self) -> usize {
        let rx = self.inner.rx.lock();
        rx.leftover.iter().map(Bytes::len).sum::<usize>()
            + rx.peeked.as_ref().map_or(0, |seg| seg.data.len())
    }

    /// Whether a read would make progress right now without blocking:
    /// buffered bytes, an in-flight segment, or EOF (all senders gone —
    /// a read would return `Ok(0)` immediately). Nothing is charged to
    /// the modeled-time ledger; a segment surfaced here is stashed and
    /// consumed — and charged — by the next read. This is the `select()`
    /// readiness primitive event-loop readers poll.
    pub fn readable(&self) -> bool {
        let mut rx = self.inner.rx.lock();
        if !rx.leftover.is_empty() || rx.peeked.is_some() || rx.eof {
            return true;
        }
        match rx.rx.try_recv() {
            Ok(seg) => {
                rx.peeked = Some(seg);
                true
            }
            Err(crossbeam::channel::TryRecvError::Empty) => false,
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                rx.eof = true;
                true
            }
        }
    }

    fn write_impl(&self, buf: &[u8]) -> io::Result<usize> {
        self.write_gather(&[buf])
    }

    /// Gathering write: transmit the concatenation of `bufs` exactly as if
    /// it were one contiguous `write` — same stack charge, same 16 KB wire
    /// segmentation (segments span slice boundaries), same single message
    /// count — but with **no user-space concatenation copy**. This is the
    /// simulated `writev`: callers hand `[len prefix][payload]` as two
    /// slices instead of staging them into one buffer first.
    pub fn write_gather(&self, bufs: &[&[u8]]) -> io::Result<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        let inner = &self.inner;
        let fabric = &inner.fabric;
        if fabric.is_dead(inner.local.node) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "local node is down",
            ));
        }
        if fabric.is_dead(inner.peer.node) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer node is down",
            ));
        }
        if fabric.is_partitioned(inner.local.node, inner.peer.node) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "network partition",
            ));
        }
        // Injected loss: a reliable stream cannot lose a middle segment, so
        // a drop surfaces as the reset TCP would deliver once retransmits
        // run out.
        if fabric.fault_drops(inner.local.node, inner.peer.node) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected packet loss",
            ));
        }
        let fault_delay = fabric.fault_delay(inner.local.node, inner.peer.node);
        let model = *fabric.model();

        // Protocol stack processing on the sender (one syscall's worth,
        // plus the per-KB skb cost of the whole buffer). The modeled-time
        // ledger is charged with the sender-side one-way costs here (stack,
        // propagation, injected fault delay); per-segment wire time is
        // charged below as each segment reserves the egress link.
        crate::time::spin_ns(model.stack_ns(total));
        fabric.charge_modeled(
            inner.local.node,
            model.stack_ns(total) + model.base_latency_ns + fault_delay.as_nanos() as u64,
        );

        let tx = inner
            .tx
            .lock()
            .clone()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "write half shut down"))?;

        // Segment like TCP: each wire segment pays its own bandwidth and
        // gets its own delivery window, so a receiver drains a large
        // message at wire pace instead of all at once. Segments are cut
        // from the *concatenation* of the slices, so a gathered write is
        // wire-identical to a contiguous one.
        let (mut idx, mut off, mut sent) = (0usize, 0usize, 0usize);
        while sent < total {
            while off == bufs[idx].len() {
                idx += 1;
                off = 0;
            }
            let chunk_len = (total - sent).min(WIRE_SEGMENT);
            // The staging copy user buffer -> "kernel" segment is real (a
            // socket write always pays it) but models kernel work, hence
            // the hw scope.
            let data = crate::hw::hw_scope(|| {
                if bufs[idx].len() - off >= chunk_len {
                    let d = Bytes::copy_from_slice(&bufs[idx][off..off + chunk_len]);
                    off += chunk_len;
                    d
                } else {
                    let mut gathered = Vec::with_capacity(chunk_len);
                    while gathered.len() < chunk_len {
                        if off == bufs[idx].len() {
                            idx += 1;
                            off = 0;
                            continue;
                        }
                        let take = (bufs[idx].len() - off).min(chunk_len - gathered.len());
                        gathered.extend_from_slice(&bufs[idx][off..off + take]);
                        off += take;
                    }
                    Bytes::from(gathered)
                }
            });
            let wire = Duration::from_nanos(model.wire_ns(chunk_len));
            let egress_end = match fabric.links(inner.local.node) {
                Some(links) => links.egress.reserve_from(Instant::now(), wire),
                None => Instant::now() + wire,
            };
            fabric.charge_modeled(inner.local.node, wire.as_nanos() as u64);
            spin_until(egress_end);
            let arrive_start =
                egress_end - wire + Duration::from_nanos(model.base_latency_ns) + fault_delay;
            tx.send(Segment {
                arrive_start,
                wire,
                data,
            })
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))?;
            sent += chunk_len;
        }
        // Readiness edge for an event-driven peer. Fired once per message
        // (not per segment), after every segment is on the channel, and
        // charge-free — notification is bookkeeping, not wire traffic.
        inner.peer_wake.fire();
        let stats = fabric.stats();
        stats.messages.fetch_add(1, Ordering::Relaxed);
        stats.bytes.fetch_add(total as u64, Ordering::Relaxed);
        Ok(total)
    }

    fn read_impl(&self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let inner = &self.inner;
        let mut rx = inner.rx.lock();

        // Serve buffered bytes first (kernel -> user copy).
        if let Some(front) = rx.leftover.front_mut() {
            let n = front.len().min(buf.len());
            buf[..n].copy_from_slice(&front[..n]);
            let _ = front.split_to(n);
            if front.is_empty() {
                rx.leftover.pop_front();
            }
            return Ok(n);
        }

        let deadline = inner.read_timeout.lock().map(|t| Instant::now() + t);
        let seg = if let Some(seg) = rx.peeked.take() {
            // A segment staged by `readable()`: consume it before touching
            // the channel so delivery order is preserved. Its ingress and
            // ledger charges happen below, exactly as for a fresh recv.
            seg
        } else if rx.eof {
            return Ok(0);
        } else {
            loop {
                if inner.fabric.is_dead(inner.local.node) {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "local node is down",
                    ));
                }
                let wait = match deadline {
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Err(io::Error::new(io::ErrorKind::TimedOut, "read timeout"));
                        }
                        FAILURE_POLL.min(d - now)
                    }
                    None => FAILURE_POLL,
                };
                match rx.rx.recv_timeout(wait) {
                    Ok(seg) => break seg,
                    Err(RecvTimeoutError::Timeout) => {
                        if inner.fabric.is_dead(inner.peer.node) {
                            return Err(io::Error::new(
                                io::ErrorKind::ConnectionReset,
                                "peer node is down",
                            ));
                        }
                    }
                    // All senders gone: orderly EOF.
                    Err(RecvTimeoutError::Disconnected) => {
                        rx.eof = true;
                        return Ok(0);
                    }
                }
            }
        };

        // Wait for the bytes to finish arriving, gated by our ingress link.
        // The receiver's ledger is charged the ingress serialization time of
        // each fresh segment (leftover re-reads cost nothing, as above).
        let ingress_end = match inner.fabric.links(inner.local.node) {
            Some(links) => links.ingress.reserve_from(seg.arrive_start, seg.wire),
            None => seg.arrive_start + seg.wire,
        };
        inner
            .fabric
            .charge_modeled(inner.local.node, seg.wire.as_nanos() as u64);
        spin_until(ingress_end);

        let mut data = seg.data;
        let n = data.len().min(buf.len());
        buf[..n].copy_from_slice(&data[..n]);
        let rest = data.split_off(n);
        if !rest.is_empty() {
            rx.leftover.push_back(rest);
        }
        Ok(n)
    }

    /// Read exactly `buf.len()` bytes or fail (like `Read::read_exact`, but
    /// usable on `&self`).
    pub fn read_exact_at(&self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.read_impl(&mut buf[filled..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed",
                ));
            }
            filled += n;
        }
        Ok(())
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_impl(buf)
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_impl(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for &SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_impl(buf)
    }
}

impl Write for &SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_impl(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl std::fmt::Debug for SimStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimStream({} -> {})", self.inner.local, self.inner.peer)
    }
}

fn ephemeral_port(fabric: &Fabric) -> u16 {
    49152u16.wrapping_add((fabric.fresh_id() % 16000) as u16)
}

/// A bound, listening endpoint.
#[derive(Debug)]
pub struct SimListener {
    fabric: Fabric,
    addr: SimAddr,
    /// Which binding of `addr` this is (see [`Fabric::unbind`]).
    id: u64,
    incoming: Receiver<PendingConn>,
}

impl SimListener {
    /// Bind to `addr`. Fails with `AddrInUse` if something is already bound.
    pub fn bind(fabric: &Fabric, addr: SimAddr) -> io::Result<SimListener> {
        if fabric.is_dead(addr.node) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "node is down"));
        }
        let (tx, rx) = unbounded();
        let mut listeners = fabric.inner.listeners.lock();
        if listeners.contains_key(&addr) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{addr} already bound"),
            ));
        }
        let id = fabric
            .inner
            .next_listener_id
            .fetch_add(1, Ordering::Relaxed);
        listeners.insert(addr, (id, tx));
        drop(listeners);
        Ok(SimListener {
            fabric: fabric.clone(),
            addr,
            id,
            incoming: rx,
        })
    }

    /// The address this listener is bound to.
    pub fn local_addr(&self) -> SimAddr {
        self.addr
    }

    /// Block until a peer connects; returns the stream and the peer
    /// address. Returns `Err` at once when the listener is unbound under
    /// it — its node killed, or [`ListenerCloser::close`] — so a thread
    /// parked here needs no poll to be stopped.
    pub fn accept(&self) -> io::Result<(SimStream, SimAddr)> {
        if self.fabric.is_dead(self.addr.node) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "node is down"));
        }
        loop {
            let pending = self.incoming.recv().map_err(|_| evicted())?;
            if let Some(accepted) = self.establish(pending) {
                return Ok(accepted);
            }
        }
    }

    /// Non-blocking accept: `Ok(None)` when no connection is pending.
    pub fn try_accept(&self) -> io::Result<Option<(SimStream, SimAddr)>> {
        match self.incoming.try_recv() {
            Ok(pending) => Ok(self.establish(pending)),
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(evicted()),
        }
    }

    /// Turn a pending connect into the accepted end of the stream — or
    /// into nothing, on an injected accept failure: the connection is
    /// dropped on the floor, and the peer, whose connect already
    /// succeeded, discovers the breakage only on its first I/O.
    fn establish(&self, pending: PendingConn) -> Option<(SimStream, SimAddr)> {
        if self.fabric.take_accept_failure(self.addr) {
            return None;
        }
        let peer = pending.peer_addr;
        let stream = SimStream {
            inner: Arc::new(StreamInner {
                fabric: self.fabric.clone(),
                local: self.addr,
                peer,
                tx: Mutex::new(Some(pending.to_peer)),
                rx: Mutex::new(RxState {
                    rx: pending.from_peer,
                    leftover: VecDeque::new(),
                    peeked: None,
                    eof: false,
                }),
                read_timeout: Mutex::new(None),
                read_wake: pending.read_wake,
                peer_wake: pending.peer_wake,
            }),
        };
        Some((stream, peer))
    }

    /// A handle that unbinds this listener from another thread.
    pub fn closer(&self) -> ListenerCloser {
        ListenerCloser {
            fabric: self.fabric.clone(),
            addr: self.addr,
            id: self.id,
        }
    }
}

fn evicted() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "listener evicted")
}

/// Unbinds one particular [`SimListener`] — not whatever is bound at its
/// address by then — so that a thread blocked in its `accept` returns
/// `Err` immediately and later connects are refused. How a server stops
/// its accept thread without having it poll.
pub struct ListenerCloser {
    fabric: Fabric,
    addr: SimAddr,
    id: u64,
}

impl ListenerCloser {
    pub fn close(&self) {
        self.fabric.unbind(self.addr, self.id);
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        self.fabric.unbind(self.addr, self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GIG_E, IPOIB_QDR};
    use std::thread;

    fn pair(model: crate::NetworkModel) -> (Fabric, SimStream, SimStream) {
        let fabric = Fabric::new(model);
        let server = fabric.add_node();
        let client = fabric.add_node();
        let addr = SimAddr::new(server, 9000);
        let listener = SimListener::bind(&fabric, addr).unwrap();
        let f2 = fabric.clone();
        let h = thread::spawn(move || SimStream::connect(&f2, client, addr).unwrap());
        let (srv_stream, _) = listener.accept().unwrap();
        let cli_stream = h.join().unwrap();
        (fabric, cli_stream, srv_stream)
    }

    #[test]
    fn roundtrip_bytes() {
        let (_f, mut cli, mut srv) = pair(IPOIB_QDR);
        cli.write_all(b"hello fabric").unwrap();
        let mut buf = [0u8; 12];
        srv.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello fabric");
        // And the other direction.
        srv.write_all(b"pong").unwrap();
        let mut buf = [0u8; 4];
        cli.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn partial_reads_preserve_order() {
        let (_f, mut cli, mut srv) = pair(IPOIB_QDR);
        cli.write_all(&(0u8..100).collect::<Vec<_>>()).unwrap();
        let mut out = Vec::new();
        let mut chunk = [0u8; 7];
        while out.len() < 100 {
            let n = srv.read(&mut chunk).unwrap();
            out.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(out, (0u8..100).collect::<Vec<_>>());
    }

    #[test]
    fn eof_on_peer_drop() {
        let (_f, cli, mut srv) = pair(IPOIB_QDR);
        drop(cli);
        let mut buf = [0u8; 8];
        assert_eq!(srv.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn shutdown_write_gives_peer_eof_but_keeps_reading() {
        let (_f, cli, mut srv) = pair(IPOIB_QDR);
        cli.write_impl(b"last words").unwrap();
        cli.shutdown_write();
        let mut buf = [0u8; 10];
        srv.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"last words");
        assert_eq!(srv.read(&mut buf).unwrap(), 0, "EOF after shutdown");
        // Reverse direction still works.
        srv.write_impl(b"reply").unwrap();
        let mut buf = [0u8; 5];
        (&cli).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"reply");
    }

    #[test]
    fn connect_to_unbound_address_is_refused() {
        let fabric = Fabric::new(IPOIB_QDR);
        let n = fabric.add_node();
        let err = SimStream::connect(&fabric, n, SimAddr::new(NodeId(42), 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn double_bind_is_addr_in_use() {
        let fabric = Fabric::new(IPOIB_QDR);
        let n = fabric.add_node();
        let addr = SimAddr::new(n, 80);
        let _l1 = SimListener::bind(&fabric, addr).unwrap();
        let err = SimListener::bind(&fabric, addr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
    }

    #[test]
    fn rebind_after_drop() {
        let fabric = Fabric::new(IPOIB_QDR);
        let n = fabric.add_node();
        let addr = SimAddr::new(n, 80);
        drop(SimListener::bind(&fabric, addr).unwrap());
        SimListener::bind(&fabric, addr).unwrap();
    }

    #[test]
    fn a_blocked_accept_fails_at_once_when_its_node_dies_or_its_listener_closes() {
        let fabric = Fabric::new(IPOIB_QDR);
        let n = fabric.add_node();
        let addr = SimAddr::new(n, 80);
        for how in ["kill_node", "close"] {
            fabric.revive_node(n);
            let listener = Arc::new(SimListener::bind(&fabric, addr).unwrap());
            let accepting = Arc::clone(&listener);
            let blocked = thread::spawn(move || accepting.accept().map(drop));
            thread::sleep(Duration::from_millis(50));
            assert!(
                !blocked.is_finished(),
                "{how}: accept returned with no peer"
            );
            let unbound = Instant::now();
            match how {
                "kill_node" => fabric.kill_node(n),
                _ => listener.closer().close(),
            }
            assert!(blocked.join().unwrap().is_err(), "{how}");
            let took = unbound.elapsed();
            assert!(
                took < Duration::from_millis(100),
                "{how}: accept took {took:?}"
            );
        }
    }

    #[test]
    fn killed_peer_fails_writes() {
        let (f, cli, _srv) = pair(IPOIB_QDR);
        f.kill_node(cli.peer_addr().node);
        let err = cli.write_impl(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn killed_peer_fails_blocked_reads() {
        let (f, mut cli, _srv) = pair(IPOIB_QDR);
        let node = cli.peer_addr().node;
        let h = thread::spawn(move || {
            let mut buf = [0u8; 1];
            cli.read(&mut buf)
        });
        thread::sleep(Duration::from_millis(30));
        f.kill_node(node);
        let res = h.join().unwrap();
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn read_timeout_fires() {
        let (_f, cli, _srv) = pair(IPOIB_QDR);
        cli.set_read_timeout(Some(Duration::from_millis(25)));
        let mut buf = [0u8; 1];
        let start = Instant::now();
        let err = (&cli).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn latency_is_charged_per_fabric() {
        // 1GigE model has ~35us one-way latency; a 1-byte ping-pong should
        // therefore take at least 2 * (latency + stack) = ~86us.
        let (_f, mut cli, mut srv) = pair(GIG_E);
        let h = thread::spawn(move || {
            let mut b = [0u8; 1];
            srv.read_exact(&mut b).unwrap();
            srv.write_all(&b).unwrap();
        });
        let start = Instant::now();
        cli.write_all(&[7]).unwrap();
        let mut b = [0u8; 1];
        cli.read_exact(&mut b).unwrap();
        let rtt = start.elapsed();
        h.join().unwrap();
        assert_eq!(b[0], 7);
        assert!(rtt >= Duration::from_micros(80), "rtt too small: {rtt:?}");
    }

    #[test]
    fn bandwidth_is_charged_for_large_messages() {
        // 1 MB over ~117 MB/s is ~8.5ms of wire time each way.
        let (_f, mut cli, mut srv) = pair(GIG_E);
        let payload = vec![0xabu8; 1 << 20];
        let h = thread::spawn(move || {
            let mut buf = vec![0u8; 1 << 20];
            srv.read_exact(&mut buf).unwrap();
            buf
        });
        let start = Instant::now();
        cli.write_all(&payload).unwrap();
        let got = h.join().unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got, payload);
        assert!(
            elapsed >= Duration::from_millis(7),
            "too fast for 1GigE: {elapsed:?}"
        );
    }

    #[test]
    fn readable_reflects_pending_data_and_eof() {
        let (f, cli, mut srv) = pair(IPOIB_QDR);
        assert!(!srv.readable(), "idle stream must not be readable");
        cli.write_impl(b"ping").unwrap();
        // The segment is on the channel immediately (delivery gating
        // happens at read time), so readiness flips without blocking.
        assert!(srv.readable());
        // Peeking must not charge the receiver's modeled ledger; the
        // charge lands when the bytes are actually consumed.
        let before = f.modeled_ns(srv.local_addr().node);
        assert!(srv.readable());
        assert_eq!(f.modeled_ns(srv.local_addr().node), before);
        let mut buf = [0u8; 4];
        srv.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        assert!(
            f.modeled_ns(srv.local_addr().node) > before,
            "consuming the peeked segment must charge ingress wire time"
        );
        assert!(!srv.readable(), "drained stream must not be readable");
        // EOF counts as readable: a read would return Ok(0) immediately.
        drop(cli);
        assert!(srv.readable());
        assert_eq!(srv.read(&mut buf).unwrap(), 0);
        assert!(srv.readable(), "EOF readiness is sticky");
    }

    #[test]
    fn peeked_segment_preserves_order_and_partial_reads() {
        let (_f, cli, mut srv) = pair(IPOIB_QDR);
        cli.write_impl(b"first").unwrap();
        assert!(srv.readable());
        cli.write_impl(b"second").unwrap();
        let mut out = vec![0u8; 11];
        srv.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"firstsecond");
    }

    #[test]
    fn gathered_write_is_wire_identical_to_contiguous() {
        // Same payload, once contiguous and once as a gathered write cut at
        // awkward offsets (including an empty slice and a cut straddling
        // the 16KB wire-segment boundary): both must charge the sender's
        // modeled ledger identically, count one message, and deliver the
        // same bytes.
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i * 7) as u8).collect();

        let (f1, cli1, mut srv1) = pair(IPOIB_QDR);
        let (f2, cli2, mut srv2) = pair(IPOIB_QDR);
        let before1 = f1.modeled_ns(cli1.local_addr().node);
        let before2 = f2.modeled_ns(cli2.local_addr().node);

        cli1.write_impl(&payload).unwrap();
        cli2.write_gather(&[
            &payload[..4],
            &[],
            &payload[4..WIRE_SEGMENT + 100],
            &payload[WIRE_SEGMENT + 100..],
        ])
        .unwrap();

        let charged1 = f1.modeled_ns(cli1.local_addr().node) - before1;
        let charged2 = f2.modeled_ns(cli2.local_addr().node) - before2;
        assert_eq!(charged1, charged2, "gather must charge like contiguous");

        let (mut got1, mut got2) = (vec![0u8; payload.len()], vec![0u8; payload.len()]);
        srv1.read_exact(&mut got1).unwrap();
        srv2.read_exact(&mut got2).unwrap();
        assert_eq!(got1, payload);
        assert_eq!(got2, payload);

        let (msgs1, bytes1, _, _) = f1.stats().snapshot();
        let (msgs2, bytes2, _, _) = f2.stats().snapshot();
        assert_eq!(msgs1, msgs2, "one message either way");
        assert_eq!(bytes1, bytes2);
    }

    #[test]
    fn read_interest_fires_on_data_eof_and_drop() {
        use std::sync::atomic::AtomicUsize;

        let (f, cli, srv) = pair(IPOIB_QDR);
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        srv.set_read_interest(Arc::new(move || {
            f2.fetch_add(1, Ordering::SeqCst);
        }));

        // Data edge: one fire per message, regardless of segment count,
        // and the notification itself charges no modeled time.
        let before = f.modeled_ns(srv.local_addr().node);
        cli.write_impl(&[0u8; 40_000]).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "one wake per message");
        assert_eq!(
            f.modeled_ns(srv.local_addr().node),
            before,
            "wake delivery is charge-free"
        );
        assert!(srv.readable());

        // EOF edges: shutdown_write fires, and dropping the peer (which
        // closes the channel) fires again. Double EOF fires are harmless —
        // the reader re-checks `readable()` on every wake.
        cli.shutdown_write();
        assert_eq!(fired.load(Ordering::SeqCst), 2, "shutdown fires wake");
        drop(cli);
        assert_eq!(fired.load(Ordering::SeqCst), 3, "drop fires wake");

        // Connector side is symmetric: the accepted stream's writes wake it.
        let (_, cli2, srv2) = pair(IPOIB_QDR);
        let fired2 = Arc::new(AtomicUsize::new(0));
        let f3 = fired2.clone();
        cli2.set_read_interest(Arc::new(move || {
            f3.fetch_add(1, Ordering::SeqCst);
        }));
        srv2.write_impl(b"hi").unwrap();
        assert_eq!(fired2.load(Ordering::SeqCst), 1);
        assert_eq!(cli2.buffered_bytes(), 0, "nothing consumed or peeked yet");
        assert!(cli2.readable());
        assert_eq!(cli2.buffered_bytes(), 2, "peeked segment is accounted");
    }

    #[test]
    fn fabric_stats_count_traffic() {
        let (f, cli, mut srv) = pair(IPOIB_QDR);
        cli.write_impl(&[0u8; 256]).unwrap();
        let mut buf = [0u8; 256];
        srv.read_exact(&mut buf).unwrap();
        let (msgs, bytes, _, _) = f.stats().snapshot();
        assert!(msgs >= 1);
        assert!(bytes >= 256);
    }
}
