//! The default Hadoop RPC transport, bottlenecks included.
//!
//! This path deliberately reproduces every inefficiency Section II
//! profiles:
//!
//! **Send (Listing 1):** serialize into a fresh 32-byte
//! [`wire::DataOutputBuffer`] that grows by Algorithm 1 (instrumented);
//! then hand `[len prefix][payload]` to the socket as one *gathering*
//! write — the socket's own write path (in `simnet`) still performs the
//! user→kernel staging copy and charges the TCP/IP stack cost, but the
//! former user-space `BufferedOutputStream` re-copy is gone (it modeled
//! a copy the vectored syscall never needed).
//!
//! **Receive (Listing 2):** read the 4-byte length, allocate a fresh
//! heap buffer *per call* (timed — this is Figure 1's numerator), then
//! read the body through a bounded temporary chunk, copying temp→heap —
//! emulating the JDK's hidden direct-buffer hop for channel reads into
//! heap `ByteBuffer`s.
//!
//! **Opportunistic coalescing.** Sends go through a single-writer write
//! queue (the bRPC execution-queue idiom): the first sender to find the
//! wire free becomes the *flusher* and writes its own frame immediately —
//! an idle connection is never delayed (no Nagle timer anywhere). Senders
//! that arrive while a flush is in flight enqueue their finished frames
//! and park; the flusher's next sweep drains everything queued into one
//! vectored `write_gather`, amortizing the per-syscall stack traversal
//! and latency across the whole batch.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use simnet::SimStream;
use wire::{DataOutput, DataOutputBuffer};

use crate::error::{RpcError, RpcResult};
use crate::frame::Payload;
use crate::intern::MethodKey;
use crate::metrics::{MetricsRegistry, Phase};
use crate::transport::{Conn, RecvProfile, SendProfile};

/// Size of the temporary chunk used for the native→heap copy on receive
/// (the JDK uses an 8 KB-ish temp direct buffer).
const TEMP_CHUNK: usize = 8 * 1024;

/// How finely a blocked read slices its wait to notice a local close.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Initial serialization buffer of a server-side connection: Hadoop's
/// server starts at 10 KB where its client starts at
/// [`wire::buffer::INITIAL_CAPACITY`] (32 B).
pub const SERVER_INIT_BUF: usize = 10 * 1024;

/// Inline capacity for a frame's order-sensitive lead bytes. A V3 lead is
/// 3–27 bytes unless it carries an inline method announcement, which
/// spills to the heap once per `<protocol, method>` per connection.
const LEAD_INLINE: usize = 32;

/// Socket-based RPC connection.
pub struct SocketConn {
    stream: SimStream,
    /// The write queue: all frames pass through here so concurrent
    /// senders cannot interleave on the stream and queued frames can be
    /// coalesced into one gathered write.
    wq: Mutex<WriteQueue>,
    wq_cv: Condvar,
    recv: Mutex<RecvState>,
    closed: AtomicBool,
    /// Initial capacity of fresh serialization buffers (32 B client-side,
    /// 10 KB server-side in Hadoop).
    init_buf: usize,
    /// When attached, every send feeds the per-`<protocol, method>`
    /// serialize/wire phase histograms.
    metrics: Option<MetricsRegistry>,
    /// Copy of the armed readiness hook, so a local `close()` can deliver
    /// its own wake (the stream only fires for peer-side edges).
    ready_hook: Mutex<Option<std::sync::Arc<dyn Fn() + Send + Sync>>>,
}

/// A serializer callback writing one frame part into the transport's
/// preferred [`DataOutput`].
type WritePart<'a> = &'a mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>;

/// One finished frame awaiting the wire: `[u32 len][lead][body]`.
struct WqEntry {
    ticket: u64,
    lead_len: usize,
    lead: [u8; LEAD_INLINE],
    /// Overflow home for a long lead; when non-empty it replaces `lead`.
    lead_spill: Vec<u8>,
    body: Vec<u8>,
}

impl WqEntry {
    fn lead_bytes(&self) -> &[u8] {
        if self.lead_spill.is_empty() {
            &self.lead[..self.lead_len]
        } else {
            &self.lead_spill
        }
    }

    fn frame_len(&self) -> usize {
        self.lead_bytes().len() + self.body.len()
    }
}

struct WriteQueue {
    queue: VecDeque<WqEntry>,
    next_ticket: u64,
    /// Every ticket `<= done_ticket` is on the wire.
    done_ticket: u64,
    /// A flusher thread currently owns the stream.
    flushing: bool,
    /// Sticky first write error; every queued and future send observes it.
    err: Option<RpcError>,
}

/// `DataOutput` sink for lead encoding: inline array first, one heap
/// spill if the lead outgrows it.
struct LeadSink {
    buf: [u8; LEAD_INLINE],
    len: usize,
    spill: Vec<u8>,
}

impl LeadSink {
    fn new() -> Self {
        LeadSink {
            buf: [0u8; LEAD_INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl io::Write for LeadSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.spill.is_empty() {
            if self.len + data.len() <= LEAD_INLINE {
                self.buf[self.len..self.len + data.len()].copy_from_slice(data);
                self.len += data.len();
                return Ok(data.len());
            }
            self.spill.reserve(self.len + data.len());
            self.spill.extend_from_slice(&self.buf[..self.len]);
        }
        self.spill.extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct RecvState {
    /// Reusable temp chunk standing in for the JDK's temp direct buffer.
    temp: Box<[u8]>,
}

impl SocketConn {
    /// Wrap an established stream. `init_buf` is the initial
    /// `DataOutputBuffer` capacity for messages sent on this connection.
    pub fn new(stream: SimStream, init_buf: usize) -> Self {
        SocketConn {
            stream,
            wq: Mutex::new(WriteQueue {
                queue: VecDeque::new(),
                next_ticket: 0,
                done_ticket: 0,
                flushing: false,
                err: None,
            }),
            wq_cv: Condvar::new(),
            recv: Mutex::new(RecvState {
                temp: vec![0u8; TEMP_CHUNK].into_boxed_slice(),
            }),
            closed: AtomicBool::new(false),
            init_buf,
            metrics: None,
            ready_hook: Mutex::new(None),
        }
    }

    /// Attach a metrics registry; subsequent sends record their serialize
    /// and wire times into its phase histograms.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn check_open(&self) -> RpcResult<()> {
        if self.closed.load(Ordering::Acquire) {
            Err(RpcError::ConnectionClosed)
        } else {
            Ok(())
        }
    }

    /// Read exactly `buf.len()` bytes. Returns `Timeout` only if *nothing*
    /// was consumed before the deadline; once a frame has started we wait
    /// it out (it is in flight on a reliable stream).
    fn read_exact_deadline(&self, buf: &mut [u8], deadline: Option<Instant>) -> RpcResult<usize> {
        use std::io::Read;
        let mut filled = 0usize;
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(RpcError::ConnectionClosed);
            }
            // Sliced so a local close is noticed; while nothing is consumed
            // the slice is cut to the deadline, so a waiting caller's
            // timeout is its own and not rounded up to the slice.
            let slice = match deadline {
                Some(d) if filled == 0 => {
                    READ_SLICE.min(d.saturating_duration_since(Instant::now()))
                }
                _ => READ_SLICE,
            };
            self.stream.set_read_timeout(Some(slice));
            match (&self.stream).read(&mut buf[filled..]) {
                Ok(0) => return Err(RpcError::ConnectionClosed),
                Ok(n) => {
                    filled += n;
                    if filled == buf.len() {
                        return Ok(filled);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    if filled == 0 {
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                return Err(RpcError::Timeout);
                            }
                        }
                    }
                    // Frame started (or no deadline): keep waiting.
                }
                Err(e) => return Err(RpcError::Io(e.to_string())),
            }
        }
    }

    fn map_write_err(e: io::Error) -> RpcError {
        match e.kind() {
            io::ErrorKind::BrokenPipe | io::ErrorKind::NotConnected => RpcError::ConnectionClosed,
            _ => RpcError::Io(e.to_string()),
        }
    }

    /// Write one drained batch as a single vectored gather:
    /// `[len0][lead0][body0][len1][lead1][body1]…`. The stream charges
    /// the stack traversal and base latency once for the whole gather —
    /// the amortization the batching layer exists for. The single-frame
    /// case (every uncontended send) composes its slices on the stack.
    fn write_batch(&self, batch: &[WqEntry]) -> RpcResult<()> {
        if let [entry] = batch {
            // Empty slices contribute no bytes to the gather's cost model,
            // so a lead-less frame really is the old `[prefix][payload]`.
            let prefix = (entry.frame_len() as i32).to_be_bytes();
            let slices: [&[u8]; 3] = [&prefix, entry.lead_bytes(), &entry.body];
            return self
                .stream
                .write_gather(&slices)
                .map(|_| ())
                .map_err(Self::map_write_err);
        }
        let prefixes: Vec<[u8; 4]> = batch
            .iter()
            .map(|e| (e.frame_len() as i32).to_be_bytes())
            .collect();
        let mut slices: Vec<&[u8]> = Vec::with_capacity(batch.len() * 3);
        for (entry, prefix) in batch.iter().zip(&prefixes) {
            slices.push(prefix);
            let lead = entry.lead_bytes();
            if !lead.is_empty() {
                slices.push(lead);
            }
            if !entry.body.is_empty() {
                slices.push(&entry.body);
            }
        }
        self.stream
            .write_gather(&slices)
            .map(|_| ())
            .map_err(Self::map_write_err)
    }

    /// Enqueue one finished frame and see it onto the wire.
    ///
    /// `lead` (if any) is encoded *under the queue lock*, at the moment
    /// this frame's wire order becomes final — the ordering point that
    /// [`Conn::send_msg_ordered`] promises stateful encoders.
    fn transmit_one(&self, lead: Option<WritePart<'_>>, body: Vec<u8>) -> RpcResult<()> {
        let mut st = self.wq.lock();
        if let Some(e) = &st.err {
            return Err(e.clone());
        }
        let mut entry = WqEntry {
            ticket: st.next_ticket,
            lead_len: 0,
            lead: [0u8; LEAD_INLINE],
            lead_spill: Vec::new(),
            body,
        };
        if let Some(write_lead) = lead {
            let mut sink = LeadSink::new();
            write_lead(&mut sink)?;
            entry.lead = sink.buf;
            entry.lead_len = sink.len;
            entry.lead_spill = sink.spill;
        }
        st.next_ticket += 1;
        let ticket = entry.ticket;
        st.queue.push_back(entry);
        self.flush_or_wait(st, ticket)
    }

    /// Enqueue several finished frames back-to-back and see them onto the
    /// wire; an uncontended caller flushes them as one gather.
    fn transmit_many(&self, bodies: impl Iterator<Item = Vec<u8>>) -> RpcResult<()> {
        let mut st = self.wq.lock();
        if let Some(e) = &st.err {
            return Err(e.clone());
        }
        let mut last_ticket = None;
        for body in bodies {
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push_back(WqEntry {
                ticket,
                lead_len: 0,
                lead: [0u8; LEAD_INLINE],
                lead_spill: Vec::new(),
                body,
            });
            last_ticket = Some(ticket);
        }
        match last_ticket {
            Some(ticket) => self.flush_or_wait(st, ticket),
            None => Ok(()),
        }
    }

    /// The single-writer protocol. The first sender to find the wire free
    /// becomes the flusher and writes immediately (Nagle-free: an idle
    /// connection's frame is never delayed); senders arriving mid-flush
    /// park until their ticket is on the wire, and the owning flusher
    /// sweeps everything queued into one gather per iteration.
    fn flush_or_wait<'a>(
        &'a self,
        mut st: parking_lot::MutexGuard<'a, WriteQueue>,
        my_ticket: u64,
    ) -> RpcResult<()> {
        if st.flushing {
            while st.err.is_none() && st.done_ticket < my_ticket {
                self.wq_cv.wait(&mut st);
            }
            return match &st.err {
                Some(e) if st.done_ticket < my_ticket => Err(e.clone()),
                _ => Ok(()),
            };
        }
        st.flushing = true;
        self.flush_queue(st)
    }

    /// The flusher's sweep: one gather per iteration until nothing is
    /// queued, then release the wire. The caller has set `flushing`.
    fn flush_queue<'a>(&'a self, mut st: parking_lot::MutexGuard<'a, WriteQueue>) -> RpcResult<()> {
        while !st.queue.is_empty() {
            let batch: Vec<WqEntry> = st.queue.drain(..).collect();
            drop(st);
            let result = self.write_batch(&batch);
            st = self.wq.lock();
            match result {
                Ok(()) => {
                    st.done_ticket = batch.last().expect("non-empty batch").ticket;
                    self.wq_cv.notify_all();
                }
                Err(e) => return Err(self.fail_flush(st, e)),
            }
        }
        st.flushing = false;
        Ok(())
    }

    /// A flusher's write failed: make the error sticky, fail everything
    /// queued behind it and release the wire.
    fn fail_flush(&self, mut st: parking_lot::MutexGuard<'_, WriteQueue>, e: RpcError) -> RpcError {
        if st.err.is_none() {
            st.err = Some(e.clone());
        }
        st.queue.clear();
        st.flushing = false;
        self.wq_cv.notify_all();
        e
    }
}

impl Conn for SocketConn {
    fn send_msg(
        &self,
        key: MethodKey,
        write: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
    ) -> RpcResult<SendProfile> {
        self.check_open()?;

        // --- Serialization (Listing 1 lines 2-7) ---
        let ser_start = Instant::now();
        let mut d = DataOutputBuffer::with_capacity(self.init_buf);
        write(&mut d)?;
        let serialize_ns = ser_start.elapsed().as_nanos() as u64;
        let adjustments = d.adjustments();
        let size = d.len();

        // --- Sending (Listing 1 lines 9-13, vectored + coalesced) ---
        // The finished frame moves into the write queue without a copy;
        // the stream still performs the user→kernel staging copy and pays
        // the stack + wire costs, but nothing re-copies it in user space.
        let send_start = Instant::now();
        self.transmit_one(None, d.into_vec())?;
        let send_ns = send_start.elapsed().as_nanos() as u64;

        if let Some(m) = &self.metrics {
            let entry = m.entry(key);
            entry.record_phase(Phase::Serialize, serialize_ns);
            entry.record_phase(Phase::Wire, send_ns);
        }

        Ok(SendProfile {
            serialize_ns,
            send_ns,
            adjustments,
            size,
        })
    }

    fn send_msg_ordered(
        &self,
        key: MethodKey,
        lead: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
        body: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
    ) -> RpcResult<SendProfile> {
        self.check_open()?;

        // The body (the call parameters — all the bulk) serializes off
        // every lock, concurrently with other senders; only the tiny
        // order-sensitive lead is encoded under the queue lock, inside
        // `transmit_one`, once this frame's wire position is final.
        let ser_start = Instant::now();
        let mut d = DataOutputBuffer::with_capacity(self.init_buf);
        body(&mut d)?;
        let serialize_ns = ser_start.elapsed().as_nanos() as u64;
        let adjustments = d.adjustments();
        let body_len = d.len();

        let send_start = Instant::now();
        self.transmit_one(Some(lead), d.into_vec())?;
        let send_ns = send_start.elapsed().as_nanos() as u64;

        if let Some(m) = &self.metrics {
            let entry = m.entry(key);
            entry.record_phase(Phase::Serialize, serialize_ns);
            entry.record_phase(Phase::Wire, send_ns);
        }

        Ok(SendProfile {
            serialize_ns,
            send_ns,
            adjustments,
            // The lead is a handful of bytes; the profile tracks the
            // serialized body, which is what sizing heuristics care about.
            size: body_len,
        })
    }

    fn send_serialized(&self, key: MethodKey, lead: &[u8], body: &[u8]) -> RpcResult<()> {
        self.check_open()?;
        let send_start = Instant::now();
        let mut st = self.wq.lock();
        if let Some(e) = &st.err {
            return Err(e.clone());
        }
        if st.flushing {
            // Another sender owns the wire: an owned copy queues behind it.
            drop(st);
            self.transmit_one(None, [lead, body].concat())?;
        } else {
            // Wire free (so nothing is queued): this thread is the flusher
            // and gathers `[len][lead][body]` straight from the borrowed
            // slices — no staging buffer, no queue entry.
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.flushing = true;
            drop(st);
            let prefix = ((lead.len() + body.len()) as i32).to_be_bytes();
            let result = self.stream.write_gather(&[&prefix, lead, body]);
            st = self.wq.lock();
            match result {
                Ok(_) => {
                    st.done_ticket = ticket;
                    self.flush_queue(st)?;
                }
                Err(e) => return Err(self.fail_flush(st, Self::map_write_err(e))),
            }
        }
        if let Some(m) = &self.metrics {
            // Pre-serialized, like `send_frames`: serialize time is nil.
            let entry = m.entry(key);
            entry.record_phase(Phase::Serialize, 0);
            entry.record_phase(Phase::Wire, send_start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn send_frames(&self, key: MethodKey, frames: Vec<Vec<u8>>) -> RpcResult<()> {
        self.check_open()?;
        let n = frames.len() as u64;
        if n == 0 {
            return Ok(());
        }
        let send_start = Instant::now();
        self.transmit_many(frames.into_iter())?;
        if let Some(m) = &self.metrics {
            // One sample per frame, as a per-frame send would record —
            // the gathered send's cost amortized over its frames. The
            // bytes arrive pre-serialized, so serialize time is nil.
            let per_frame = (send_start.elapsed().as_nanos() as u64) / n;
            let entry = m.entry(key);
            for _ in 0..n {
                entry.record_phase(Phase::Serialize, 0);
                entry.record_phase(Phase::Wire, per_frame);
            }
        }
        Ok(())
    }

    fn recv_msg(&self, timeout: Duration) -> RpcResult<(Payload, RecvProfile)> {
        self.check_open()?;
        let mut state = self.recv.lock();
        let deadline = Instant::now() + timeout;

        // Listing 2 line 3-5: read the length (tiny per-call buffer).
        let mut len_buf = [0u8; 4];
        self.read_exact_deadline(&mut len_buf, Some(deadline))?;
        let total_start = Instant::now();
        let len = i32::from_be_bytes(len_buf);
        if len < 0 {
            return Err(RpcError::Protocol(format!("negative frame length {len}")));
        }
        let len = len as usize;

        // Listing 2 line 6: ByteBuffer.allocate(len) — a fresh, zeroed
        // heap buffer per call. This allocation is what Figure 1 measures.
        // Deliberately NOT `vec![0; len]`: that lowers to calloc, whose
        // lazily-mapped zero pages would make the "allocation" free. The
        // JVM zeroes heap arrays eagerly; the explicit resize models that.
        #[allow(clippy::slow_vector_initialization)]
        let (mut heap, alloc_ns) = {
            let alloc_start = Instant::now();
            let mut heap = Vec::with_capacity(len);
            heap.resize(len, 0);
            (heap, alloc_start.elapsed().as_nanos() as u64)
        };

        // Listing 2 line 8: read fully, in chunks, through the temp
        // buffer (native→heap copy per chunk).
        let mut filled = 0;
        while filled < len {
            let chunk = (len - filled).min(state.temp.len());
            self.read_exact_deadline(&mut state.temp[..chunk], None)?;
            heap[filled..filled + chunk].copy_from_slice(&state.temp[..chunk]);
            filled += chunk;
        }
        let total_ns = total_start.elapsed().as_nanos() as u64 + 1;

        Ok((
            Payload::Owned(heap),
            RecvProfile {
                alloc_ns,
                total_ns,
                size: len,
            },
        ))
    }

    fn poll_ready(&self) -> bool {
        // A closed connection is "ready" so the shard's next recv_msg
        // observes ConnectionClosed instead of skipping the conn forever.
        self.closed.load(Ordering::Acquire) || self.stream.readable()
    }

    fn set_ready_hook(&self, hook: std::sync::Arc<dyn Fn() + Send + Sync>) {
        *self.ready_hook.lock() = Some(hook.clone());
        self.stream.set_read_interest(hook);
    }

    fn buffered_bytes(&self) -> usize {
        self.stream.buffered_bytes()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.stream.shutdown_write();
        // Fail queued frames and wake parked senders; the active flusher
        // (if any) will observe the dead stream on its own.
        let mut st = self.wq.lock();
        if st.err.is_none() {
            st.err = Some(RpcError::ConnectionClosed);
        }
        st.queue.clear();
        self.wq_cv.notify_all();
        // A local close is a readiness edge too (`poll_ready` is now
        // permanently true); the stream won't fire for it, so do it here.
        let hook = self.ready_hook.lock().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    fn peer(&self) -> String {
        self.stream.peer_addr().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{model, Fabric, SimAddr, SimListener};
    use std::sync::Arc;
    use std::thread;
    use wire::DataInput;

    fn conn_pair() -> (Arc<SocketConn>, Arc<SocketConn>) {
        let fabric = Fabric::new(model::IPOIB_QDR);
        let server = fabric.add_node();
        let client = fabric.add_node();
        let addr = SimAddr::new(server, 9000);
        let listener = SimListener::bind(&fabric, addr).unwrap();
        let f2 = fabric.clone();
        let h = thread::spawn(move || SimStream::connect(&f2, client, addr).unwrap());
        let (srv_stream, _) = listener.accept().unwrap();
        let cli_stream = h.join().unwrap();
        (
            Arc::new(SocketConn::new(cli_stream, 32)),
            Arc::new(SocketConn::new(srv_stream, SERVER_INIT_BUF)),
        )
    }

    #[test]
    fn message_roundtrip_with_profiles() {
        let (cli, srv) = conn_pair();
        let profile = cli
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_string("hello")?;
                out.write_i64(12345)
            })
            .unwrap();
        assert_eq!(profile.size, 1 + 5 + 8);
        assert!(profile.serialize_ns > 0);
        assert!(profile.send_ns > 0);
        assert_eq!(profile.adjustments, 0, "fits in 32 bytes");

        let (payload, recv) = srv.recv_msg(Duration::from_secs(1)).unwrap();
        assert_eq!(recv.size, profile.size);
        let mut reader = payload.reader();
        assert_eq!(reader.read_string().unwrap(), "hello");
        assert_eq!(reader.read_i64().unwrap(), 12345);
    }

    #[test]
    fn algorithm1_adjustments_show_up_in_profile() {
        let (cli, srv) = conn_pair();
        let profile = cli
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&[7u8; 1000])
            })
            .unwrap();
        assert!(
            profile.adjustments >= 1,
            "32-byte buffer must adjust for 1000 bytes"
        );
        let (payload, recv) = srv.recv_msg(Duration::from_secs(1)).unwrap();
        assert_eq!(payload.len(), 1000);
        assert!(recv.alloc_ns > 0, "per-call allocation is timed");
    }

    #[test]
    fn server_init_buffer_avoids_adjustments_for_medium_frames() {
        let (_cli, srv) = conn_pair();
        // Server-side responses start from a 10KB buffer (Hadoop default):
        // a 5KB response needs no adjustment.
        let profile = srv
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&[1u8; 5000])
            })
            .unwrap();
        assert_eq!(profile.adjustments, 0);
    }

    #[test]
    fn recv_timeout_when_idle() {
        let (_cli, srv) = conn_pair();
        let err = srv.recv_msg(Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, RpcError::Timeout);
    }

    #[test]
    fn poll_ready_tracks_data_eof_and_close() {
        let (cli, srv) = conn_pair();
        assert!(!srv.poll_ready(), "idle conn must not be ready");
        cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
            out.write_u8(9)
        })
        .unwrap();
        assert!(srv.poll_ready());
        let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
        assert_eq!(payload.len(), 1);
        assert!(!srv.poll_ready(), "drained conn must not be ready");
        drop(cli);
        assert!(srv.poll_ready(), "EOF counts as ready");
        assert_eq!(
            srv.recv_msg(Duration::from_secs(1)).unwrap_err(),
            RpcError::ConnectionClosed
        );
        let (_cli2, srv2) = conn_pair();
        srv2.close();
        assert!(srv2.poll_ready(), "locally closed conn must be ready");
    }

    #[test]
    fn eof_maps_to_connection_closed() {
        let (cli, srv) = conn_pair();
        drop(cli);
        let err = srv.recv_msg(Duration::from_secs(1)).unwrap_err();
        assert_eq!(err, RpcError::ConnectionClosed);
    }

    #[test]
    fn close_fails_future_operations() {
        let (cli, _srv) = conn_pair();
        cli.close();
        let err = cli
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_u8(1)
            })
            .unwrap_err();
        assert_eq!(err, RpcError::ConnectionClosed);
    }

    #[test]
    fn large_frames_survive_chunked_receive() {
        let (cli, srv) = conn_pair();
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let p2 = payload.clone();
        let h = thread::spawn(move || {
            cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&p2)
            })
            .unwrap();
        });
        let (got, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
        h.join().unwrap();
        let mut reader = got.reader();
        let mut out = vec![0u8; payload.len()];
        std::io::Read::read_exact(&mut reader, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn send_frames_preserves_frame_boundaries() {
        let (cli, srv) = conn_pair();
        let frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        cli.send_frames(crate::intern::method_key("p", "m"), frames.clone())
            .unwrap();
        for want in &frames {
            let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
            assert_eq!(payload.len(), want.len());
            let mut got = vec![0u8; want.len()];
            std::io::Read::read_exact(&mut payload.reader(), &mut got).unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn ordered_send_encodes_lead_before_body() {
        let (cli, srv) = conn_pair();
        cli.send_msg_ordered(
            crate::intern::method_key("p", "m"),
            &mut |out| out.write_u8(0xAA),
            &mut |out| out.write_bytes(&[1, 2, 3]),
        )
        .unwrap();
        let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
        let mut got = vec![0u8; 4];
        std::io::Read::read_exact(&mut payload.reader(), &mut got).unwrap();
        assert_eq!(got, [0xAA, 1, 2, 3], "lead precedes body in one frame");
    }

    #[test]
    fn long_lead_spills_without_corruption() {
        let (cli, srv) = conn_pair();
        let lead: Vec<u8> = (0..100u8).collect();
        cli.send_msg_ordered(
            crate::intern::method_key("p", "m"),
            &mut |out| out.write_bytes(&lead),
            &mut |out| out.write_bytes(&[7, 8]),
        )
        .unwrap();
        let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
        assert_eq!(payload.len(), 102);
        let mut got = vec![0u8; 102];
        std::io::Read::read_exact(&mut payload.reader(), &mut got).unwrap();
        assert_eq!(&got[..100], &lead[..]);
        assert_eq!(&got[100..], &[7, 8]);
    }

    #[test]
    fn queued_senders_survive_batched_flush() {
        // Many threads race the write queue; every frame must arrive
        // whole regardless of which sweep coalesced it.
        let (cli, srv) = conn_pair();
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let cli = Arc::clone(&cli);
            handles.push(thread::spawn(move || {
                for i in 0..16u8 {
                    cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                        out.write_u8(t)?;
                        out.write_u8(i)?;
                        out.write_bytes(&[t ^ i; 100])
                    })
                    .unwrap();
                }
            }));
        }
        for _ in 0..128 {
            let (payload, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
            assert_eq!(payload.len(), 102);
            let mut reader = payload.reader();
            let t = reader.read_u8().unwrap();
            let i = reader.read_u8().unwrap();
            let mut body = vec![0u8; 100];
            std::io::Read::read_exact(&mut reader, &mut body).unwrap();
            assert!(body.iter().all(|&b| b == t ^ i), "frame corrupted");
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn serialized_send_is_one_frame_and_queues_behind_a_busy_wire() {
        let (cli, srv) = conn_pair();
        let key = crate::intern::method_key("p", "m");
        cli.send_serialized(key, &[0xAA, 0xBB], &[1, 2, 3]).unwrap();
        let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
        let mut got = vec![0u8; 5];
        std::io::Read::read_exact(&mut payload.reader(), &mut got).unwrap();
        assert_eq!(got, [0xAA, 0xBB, 1, 2, 3]);

        // Racing ordinary senders: whichever path a frame takes (borrowed
        // gather as the flusher, owned copy behind one), it arrives whole.
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let cli = Arc::clone(&cli);
            handles.push(thread::spawn(move || {
                for i in 0..32u8 {
                    if t % 2 == 0 {
                        cli.send_serialized(key, &[t, i], &[t ^ i; 200]).unwrap();
                    } else {
                        cli.send_msg(key, &mut |out| {
                            out.write_bytes(&[t, i])?;
                            out.write_bytes(&[t ^ i; 200])
                        })
                        .unwrap();
                    }
                }
            }));
        }
        for _ in 0..128 {
            let (payload, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
            assert_eq!(payload.len(), 202);
            let mut frame = vec![0u8; 202];
            std::io::Read::read_exact(&mut payload.reader(), &mut frame).unwrap();
            let (t, i) = (frame[0], frame[1]);
            assert!(frame[2..].iter().all(|&b| b == t ^ i), "frame corrupted");
        }
        for h in handles {
            h.join().unwrap();
        }
        cli.close();
        assert_eq!(
            cli.send_serialized(key, &[1], &[2]).unwrap_err(),
            RpcError::ConnectionClosed
        );
    }

    #[test]
    fn close_wakes_and_fails_queued_senders() {
        let (cli, _srv) = conn_pair();
        cli.close();
        let err = cli
            .send_frames(crate::intern::method_key("p", "m"), vec![vec![1]])
            .unwrap_err();
        assert_eq!(err, RpcError::ConnectionClosed);
    }

    #[test]
    fn concurrent_senders_do_not_interleave_frames() {
        let (cli, srv) = conn_pair();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let cli = Arc::clone(&cli);
            handles.push(thread::spawn(move || {
                for _ in 0..10 {
                    cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                        out.write_u8(t)?;
                        out.write_bytes(&[t; 499])
                    })
                    .unwrap();
                }
            }));
        }
        for _ in 0..40 {
            let (payload, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
            assert_eq!(payload.len(), 500);
            let mut reader = payload.reader();
            let tag = reader.read_u8().unwrap();
            let mut body = vec![0u8; 499];
            std::io::Read::read_exact(&mut reader, &mut body).unwrap();
            assert!(
                body.iter().all(|&b| b == tag),
                "frame interleaving detected"
            );
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
