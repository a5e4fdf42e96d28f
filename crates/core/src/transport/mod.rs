//! Transport abstraction: the socket baseline and the RPCoIB verbs path
//! implement the same [`Conn`] interface, so the client and server engines
//! above are transport-agnostic — exactly the compatibility argument of
//! Section III-A.

pub mod rdma;
pub mod socket;

use std::io;
use std::time::Duration;

use simnet::Clock;
use wire::DataOutput;

use crate::error::RpcResult;
use crate::frame::Payload;
use crate::intern::MethodKey;

/// Profile of one outgoing message (feeds Table I columns) and of one
/// incoming message (feeds Figure 1): the transports produce exactly the
/// observations the metrics registry records.
pub use crate::metrics::{CallProfile as SendProfile, RecvProfile};

/// A bidirectional, message-oriented RPC connection.
///
/// `send_msg` may be called from any thread (internally serialized);
/// `recv_msg` has one receiver at a time, and it is the callers' turn
/// discipline that enforces it: on the client, the waiting caller that
/// holds the connection's receive turn (there is no Connection thread —
/// see [`crate::client`]); on the server, whichever pool thread holds the
/// server's one read turn. That turn multiplexes every connection
/// event-style: each conn's [`Conn::set_ready_hook`] enqueues a wake
/// token on the server's one wake list when input becomes observable,
/// the turn's holder pops it, and `poll_ready` stays the level-triggered
/// truth it re-checks on every pop (so a spurious or duplicate wake is
/// harmless, and a conn with residual input is re-armed). Idle
/// connections therefore cost nothing per scheduling round — on either
/// side. A transport may read its own wire outside `recv_msg` when one of
/// its senders must block on it (verbs credit waits); what it reads is
/// kept, in order, for the receiver, and announced through the hook.
pub trait Conn: Send + Sync {
    /// Serialize one message via `write` (which receives this transport's
    /// preferred `DataOutput`) and transmit it. `key` indexes the RPCoIB
    /// buffer-size history; the socket path ignores it. Passing the
    /// interned `Copy` key keeps this call allocation-free.
    fn send_msg(
        &self,
        key: MethodKey,
        write: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
    ) -> RpcResult<SendProfile>;

    /// Like [`Conn::send_msg`], but the message is written in two parts
    /// and `lead` runs at the transport's *wire-ordering point*: by the
    /// time it executes, the relative order of this frame among all
    /// frames on the connection is final. Stateful encoders (the V3
    /// delta/method-table codec) hang their per-frame state off `lead`,
    /// so concurrent senders can serialize their (large) bodies in
    /// parallel while the (tiny) order-sensitive leads are encoded under
    /// the transport's own ordering lock. The default implementation
    /// simply concatenates the parts inside one `send_msg`, which is
    /// correct for transports whose `send_msg` holds its ordering lock
    /// for the whole serialize+send.
    fn send_msg_ordered(
        &self,
        key: MethodKey,
        lead: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
        body: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
    ) -> RpcResult<SendProfile> {
        self.send_msg(key, &mut |out| {
            lead(out)?;
            body(out)
        })
    }

    /// Transmit several already-serialized frames back-to-back, as few
    /// wire operations as the transport can manage (one gathered write on
    /// the socket path, merged completions on verbs). Frame boundaries
    /// are preserved for the receiver; `frames[i]` is everything after
    /// the transport's own framing (length prefix / completion length).
    /// The default implementation degrades to one send per frame.
    fn send_frames(&self, key: MethodKey, frames: Vec<Vec<u8>>) -> RpcResult<()> {
        for frame in frames {
            self.send_msg(key, &mut |out| out.write_bytes(&frame))?;
        }
        Ok(())
    }

    /// Transmit one frame whose parts are already serialized: `lead`
    /// (a few order-sensitive header bytes) immediately followed by
    /// `body`. This is the server's response path — the body was
    /// serialized once by the thread that computed it (and may be shared
    /// with a retry cache), and the caller holds its own per-connection
    /// ordering lock across encoding `lead` and this call, so the bytes
    /// go to the wire exactly once with no intermediate frame buffer. The
    /// default writes both parts through [`Conn::send_msg`], which is
    /// already copy-free for transports that serialize into their own
    /// send buffers (verbs: straight into pooled registered memory).
    fn send_serialized(&self, key: MethodKey, lead: &[u8], body: &[u8]) -> RpcResult<()> {
        self.send_msg(key, &mut |out| {
            out.write_bytes(lead)?;
            out.write_bytes(body)
        })
        .map(|_| ())
    }

    /// Receive the next message. Returns [`crate::RpcError::Timeout`] if
    /// nothing arrives within `timeout` on the connection's clock (the
    /// caller decides whether to retry),
    /// [`crate::RpcError::ConnectionClosed`] on orderly EOF.
    fn recv_msg(&self, timeout: Duration) -> RpcResult<(Payload, RecvProfile)> {
        self.recv_until(self.clock().deadline(timeout))
    }

    /// [`Conn::recv_msg`] until the clock reads `deadline_ns`: a caller
    /// with a deadline of its own hands it down as it is, since turning
    /// it into a timeout and back would read the clock twice.
    fn recv_until(&self, deadline_ns: u64) -> RpcResult<(Payload, RecvProfile)>;

    /// The clock the connection's waits and phase timings read: its
    /// fabric's.
    fn clock(&self) -> &Clock;

    /// Whether a `recv_msg` would make progress right now without an idle
    /// wait: data (or EOF, or a local close) is observable. May stage data
    /// internally but consumes nothing; `true` does not guarantee a full
    /// frame is buffered — only that the transport has *something* for the
    /// receiving thread, which may still briefly block assembling the rest
    /// of a frame already in flight. The server's event loop uses this to
    /// skip idle connections.
    fn poll_ready(&self) -> bool;

    /// Arm the readiness notification: `hook` fires (possibly on the
    /// peer's writer thread — it must be cheap, non-blocking, and must
    /// not call back into this connection) whenever new input becomes
    /// observable — bytes arrive, EOF hits, a verbs recv completes, or
    /// [`Conn::close`] is called locally. Edges may coalesce and
    /// duplicate; consumers re-check [`Conn::poll_ready`] on every fire.
    /// The default is a no-op, which degrades consumers to polling.
    fn set_ready_hook(&self, _hook: std::sync::Arc<dyn Fn() + Send + Sync>) {}

    /// Bytes buffered inside the transport awaiting `recv_msg` (received
    /// but unconsumed input). Feeds the server's per-connection memory
    /// accounting; `0` when the transport doesn't track it.
    fn buffered_bytes(&self) -> usize {
        0
    }

    /// Tear down the connection; pending and future operations fail.
    fn close(&self);

    /// Human-readable peer description for diagnostics.
    fn peer(&self) -> String;
}
