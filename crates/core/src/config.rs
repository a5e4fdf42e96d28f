//! RPC engine configuration.
//!
//! The paper exposes a single switch, `rpc.ib.enabled`, plus a tunable
//! small-message threshold that routes tiny payloads through send/recv and
//! larger ones through RDMA. [`RpcConfig`] carries those, the sizing of
//! the server's pools, queues and rings, the policies (retry, tenant,
//! priority) two deployments can want different values of, and the
//! switches the paper's ablations flip (`use_size_history`, `trace_sizes`,
//! `prefill_per_class`). A behaviour with one value in use is not here:
//! it is what the engine does.

use std::time::Duration;

use crate::retry::RetryPolicy;

/// Configuration shared by [`crate::Client`] and [`crate::Server`].
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// The paper's `rpc.ib.enabled`: `false` = default socket-based Hadoop
    /// RPC; `true` = RPCoIB over verbs.
    pub ib_enabled: bool,
    /// Messages at or below this size go through send/recv; larger ones
    /// through one-sided RDMA write (Section III-D's tunable threshold).
    /// The configured value is the value used, read where a frame is
    /// routed: nothing clamps or retunes it ([`RpcConfig::validate`]
    /// rejects one a posted receive buffer could not hold).
    pub rdma_threshold: usize,
    /// Calls the server executes at once (the paper's microbenchmarks
    /// fix 8) — a count of calls, not a set of threads. That many
    /// handler workers are started, but a reader shard that has just
    /// read a lone call runs it itself, *in the place of* an idle worker
    /// (under one of this many run permits), so whichever threads are
    /// executing, never more than `handlers` calls are. One that
    /// suspends (`RpcService::call_mn` returning `Pending`) gives its
    /// permit back and is resumed later by whichever worker is free.
    pub handlers: usize,
    /// Bound of the server call queue between Readers and Handlers.
    pub call_queue_len: usize,
    /// Client-side wait for a response before failing one attempt. When
    /// `retry.deadline` is set, each attempt waits at most the remaining
    /// deadline budget, whichever is smaller.
    pub call_timeout: Duration,
    /// Client-side retry schedule (attempts, backoff, overall deadline).
    /// The default performs one transparent immediate retry — enough to
    /// heal a cached connection to a restarted server.
    pub retry: RetryPolicy,
    /// How long a completed call's response stays replayable in the
    /// server's retry cache. Must comfortably exceed the worst-case
    /// client retry horizon (attempts × call_timeout + backoff), or a
    /// late retry re-executes.
    pub retry_cache_ttl: Duration,
    /// Maximum completed responses the server's retry cache holds; the
    /// oldest completed entry is evicted first. `0` disables at-most-once
    /// caching entirely: every retry re-executes.
    pub retry_cache_capacity: usize,
    /// Whether the shadow pool uses `<protocol, method>` size history
    /// (disabled only by the ablation).
    pub use_size_history: bool,
    /// Buffers pre-allocated (and pre-registered) per size class at
    /// startup.
    pub prefill_per_class: usize,
    /// Capacity of each pre-posted receive buffer on RDMA connections.
    /// Must be ≥ `rdma_threshold`.
    pub recv_buf_bytes: usize,
    /// Number of receive buffers kept posted per RDMA connection.
    pub posted_recvs: usize,
    /// Size of the per-connection region that large frames are
    /// RDMA-written into.
    pub large_region_bytes: usize,
    /// Number of credit slots the large region is divided into. Each
    /// large frame occupies one or more contiguous slots; the writer
    /// consumes slot credits and the receiver returns them in batches, so
    /// up to `large_slots` worth of frames can be in flight at once.
    /// `1` reproduces the original one-deep credit gate exactly.
    pub large_slots: usize,
    /// Record every call's serialized size in the metrics registry
    /// (needed by the Figure 3 harness; off by default — it allocates).
    pub trace_sizes: bool,
    /// Reader shard count. Connections are hashed onto shards at accept
    /// time and each shard runs an event loop over its connections
    /// (replacing the paper's one-Reader-thread-per-connection model).
    /// `0` = auto (currently 4).
    pub reader_shards: usize,
    /// Per-tenant weights for the weighted-fair admission plane, keyed by
    /// handshake `client_id`. A tenant absent from the list has weight 1;
    /// a tenant with weight `w` is served up to `w` calls per fair round.
    /// Non-empty weights enable weighted-fair scheduling in the server's
    /// admission queue and shard sweeps. Empty (default) with
    /// `tenant_quota == 0` keeps the plain FIFO call queue.
    pub tenant_weights: Vec<(u64, u32)>,
    /// Per-tenant outstanding-call quota (queued + executing), keyed by
    /// handshake `client_id`. A tenant at its quota gets `STATUS_BUSY`
    /// even while the global queue has room, so one flooder cannot own
    /// the whole call queue. `0` (default) disables per-tenant quotas.
    pub tenant_quota: usize,
    /// Maximum connections the server keeps alive (live + in setup);
    /// connects past the limit are answered with the retryable busy
    /// rejection instead of growing the conn table without bound. `0`
    /// (default) = unlimited, the pre-PR-8 behaviour.
    pub max_connections: usize,
    /// Maximum connection setups (handshake + RPCoIB endpoint exchange)
    /// in flight at once — the bounded accept queue. A connect storm
    /// past this waits in the listener queue until setups drain (added
    /// latency, not rejection), keeping the accept path's thread and
    /// memory use bounded.
    pub accept_backlog: usize,
    /// Cap on calls popped from the admission queue and not yet
    /// answered (running + runnable + parked); workers stop popping
    /// admission when at the cap, leaving calls queued (backpressure,
    /// not rejection). It only binds when calls suspend — otherwise at
    /// most `handlers` are ever in flight. `0` (default) = memory-bound,
    /// no cap.
    pub max_inflight_calls: usize,
    /// Protocol names treated as the control/heartbeat class by the
    /// admission queue: within a tenant's DRR turn, calls to these
    /// protocols dequeue ahead of bulk calls, so a flood of bulk work
    /// cannot starve heartbeats. Empty (default) = single class,
    /// seed-identical FIFO order.
    pub priority_protocols: Vec<String>,
}

/// Upper bound on explicit shard counts — far above any sane
/// configuration; catches arithmetic mistakes (e.g. `usize::MAX`).
pub(crate) const MAX_SHARDS: usize = 1024;

/// Upper bound on `large_slots`: the slot ring's start index and consumed
/// count each ride a 12-bit field of the write-with-imm immediate.
pub const MAX_LARGE_SLOTS: usize = 2048;

/// Reader shard count used when `reader_shards` is `0` (auto).
pub(crate) const AUTO_READER_SHARDS: usize = 4;

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            ib_enabled: false,
            rdma_threshold: 16 * 1024,
            handlers: 8,
            call_queue_len: 4096,
            call_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            retry_cache_ttl: Duration::from_secs(120),
            retry_cache_capacity: 8192,
            use_size_history: true,
            prefill_per_class: 4,
            recv_buf_bytes: 64 * 1024,
            posted_recvs: 32,
            large_region_bytes: 4 * 1024 * 1024,
            large_slots: 4,
            trace_sizes: false,
            reader_shards: 0,
            tenant_weights: Vec::new(),
            tenant_quota: 0,
            max_connections: 0,
            accept_backlog: 64,
            max_inflight_calls: 0,
            priority_protocols: Vec::new(),
        }
    }
}

impl RpcConfig {
    /// Default socket-based configuration (runs on any fabric model).
    pub fn socket() -> Self {
        RpcConfig::default()
    }

    /// RPCoIB configuration (requires an RDMA-capable fabric model).
    pub fn rpcoib() -> Self {
        RpcConfig {
            ib_enabled: true,
            ..RpcConfig::default()
        }
    }

    /// The effective reader shard count (resolving `0` = auto).
    pub fn effective_reader_shards(&self) -> usize {
        if self.reader_shards == 0 {
            AUTO_READER_SHARDS
        } else {
            self.reader_shards
        }
    }

    /// Validate internal consistency; called by client/server construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.handlers == 0 {
            return Err("handlers must be >= 1".into());
        }
        if self.reader_shards > MAX_SHARDS {
            return Err(format!(
                "reader_shards ({}) exceeds the sanity cap ({MAX_SHARDS})",
                self.reader_shards
            ));
        }
        self.retry.validate()?;
        let mut seen_tenants = std::collections::HashSet::new();
        for &(tenant, weight) in &self.tenant_weights {
            if weight == 0 {
                return Err(format!("tenant_weights: tenant {tenant} has weight 0"));
            }
            if !seen_tenants.insert(tenant) {
                return Err(format!("tenant_weights: tenant {tenant} listed twice"));
            }
        }
        if self.tenant_quota > self.call_queue_len {
            return Err(format!(
                "tenant_quota ({}) exceeds call_queue_len ({}): the quota could never bind",
                self.tenant_quota, self.call_queue_len
            ));
        }
        if self.accept_backlog == 0 {
            return Err("accept_backlog must be >= 1 (no connection could ever set up)".into());
        }
        if self.max_inflight_calls != 0 && self.max_inflight_calls < self.handlers {
            return Err(format!(
                "max_inflight_calls ({}) below handlers ({}): workers could never all run",
                self.max_inflight_calls, self.handlers
            ));
        }
        {
            let mut seen = std::collections::HashSet::new();
            for proto in &self.priority_protocols {
                if proto.is_empty() {
                    return Err("priority_protocols: empty protocol name".into());
                }
                if !seen.insert(proto.as_str()) {
                    return Err(format!("priority_protocols: {proto:?} listed twice"));
                }
            }
        }
        if self.retry_cache_capacity > 0 && self.retry_cache_ttl.is_zero() {
            return Err("retry_cache_ttl must be > 0 when the retry cache is enabled".into());
        }
        if self.ib_enabled {
            if self.rdma_threshold > self.recv_buf_bytes {
                return Err(format!(
                    "rdma_threshold ({}) exceeds recv_buf_bytes ({}): small frames would not \
                     fit in posted receive buffers",
                    self.rdma_threshold, self.recv_buf_bytes
                ));
            }
            if self.posted_recvs == 0 {
                return Err("posted_recvs must be >= 1".into());
            }
            if self.large_region_bytes < self.recv_buf_bytes {
                return Err("large_region_bytes must be >= recv_buf_bytes".into());
            }
            if self.large_slots == 0 || self.large_slots > MAX_LARGE_SLOTS {
                return Err(format!(
                    "large_slots ({}) must be in 1..={MAX_LARGE_SLOTS} (the slot index and \
                     consumed count must fit the write-with-imm encoding)",
                    self.large_slots
                ));
            }
            if !self.large_region_bytes.is_multiple_of(self.large_slots) {
                return Err(format!(
                    "large_region_bytes ({}) must be a multiple of large_slots ({})",
                    self.large_region_bytes, self.large_slots
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        RpcConfig::socket().validate().unwrap();
        RpcConfig::rpcoib().validate().unwrap();
    }

    #[test]
    fn bad_threshold_is_rejected() {
        let cfg = RpcConfig {
            rdma_threshold: 1 << 20,
            ..RpcConfig::rpcoib()
        };
        assert!(cfg.validate().is_err());
        // Irrelevant for socket mode.
        let cfg = RpcConfig {
            rdma_threshold: 1 << 20,
            ..RpcConfig::socket()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn bad_slot_counts_are_rejected() {
        for bad in [0usize, MAX_LARGE_SLOTS + 1, usize::MAX] {
            let cfg = RpcConfig {
                large_slots: bad,
                ..RpcConfig::rpcoib()
            };
            assert!(
                cfg.validate().is_err(),
                "large_slots={bad} must be rejected"
            );
        }
        // The region must split evenly into slots.
        let cfg = RpcConfig {
            large_region_bytes: 4 * 1024 * 1024,
            large_slots: 3,
            ..RpcConfig::rpcoib()
        };
        assert!(cfg.validate().is_err());
        // A one-deep ring (the legacy gate shape) stays valid.
        let cfg = RpcConfig {
            large_slots: 1,
            ..RpcConfig::rpcoib()
        };
        cfg.validate().unwrap();
        // Socket mode does not care.
        let cfg = RpcConfig {
            large_slots: 0,
            ..RpcConfig::socket()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_handlers_rejected() {
        let cfg = RpcConfig {
            handlers: 0,
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_ttl_with_enabled_cache_rejected() {
        let cfg = RpcConfig {
            retry_cache_ttl: Duration::ZERO,
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
        // A disabled cache (capacity 0) does not care about the TTL.
        let cfg = RpcConfig {
            retry_cache_ttl: Duration::ZERO,
            retry_cache_capacity: 0,
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn reader_shards_default_to_auto() {
        let cfg = RpcConfig::default();
        assert_eq!(cfg.reader_shards, 0);
        assert_eq!(cfg.effective_reader_shards(), AUTO_READER_SHARDS);
        let cfg = RpcConfig {
            reader_shards: 2,
            ..RpcConfig::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.effective_reader_shards(), 2);
    }

    #[test]
    fn absurd_shard_counts_rejected() {
        let cfg = RpcConfig {
            reader_shards: MAX_SHARDS + 1,
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn qos_knobs_validated() {
        // Defaults: no quota, no weights; either knob alone is legal.
        let cfg = RpcConfig::default();
        assert_eq!(cfg.tenant_quota, 0);
        assert!(cfg.tenant_weights.is_empty());
        let cfg = RpcConfig {
            tenant_quota: 64,
            ..RpcConfig::default()
        };
        cfg.validate().unwrap();
        let cfg = RpcConfig {
            tenant_weights: vec![(7, 4), (9, 1)],
            ..RpcConfig::default()
        };
        cfg.validate().unwrap();
        // Zero weights and duplicate tenants are config mistakes.
        let cfg = RpcConfig {
            tenant_weights: vec![(7, 0)],
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = RpcConfig {
            tenant_weights: vec![(7, 1), (7, 2)],
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
        // A quota wider than the whole queue could never bind.
        let cfg = RpcConfig {
            tenant_quota: 8192,
            call_queue_len: 4096,
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn connection_limits_validated() {
        // Defaults: unlimited conns, bounded setup backlog.
        let cfg = RpcConfig::default();
        assert_eq!(cfg.max_connections, 0);
        assert_eq!(cfg.accept_backlog, 64);
        // Any max_connections value is legal (0 = unlimited)...
        let cfg = RpcConfig {
            max_connections: 1,
            ..RpcConfig::default()
        };
        cfg.validate().unwrap();
        // ...but a zero accept backlog could never admit a connection.
        let cfg = RpcConfig {
            accept_backlog: 0,
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn inflight_cap_validated() {
        // Defaults: no cap, one admission class.
        let cfg = RpcConfig::default();
        assert_eq!(cfg.max_inflight_calls, 0);
        assert!(cfg.priority_protocols.is_empty());
        let cfg = RpcConfig {
            handlers: 4,
            max_inflight_calls: 100_000,
            ..RpcConfig::default()
        };
        cfg.validate().unwrap();
        // A cap below the worker count could never let them all run.
        let cfg = RpcConfig {
            handlers: 8,
            max_inflight_calls: 4,
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn priority_protocols_validated() {
        let cfg = RpcConfig {
            priority_protocols: vec!["hdfs.Heartbeat".into()],
            ..RpcConfig::default()
        };
        cfg.validate().unwrap();
        let cfg = RpcConfig {
            priority_protocols: vec![String::new()],
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = RpcConfig {
            priority_protocols: vec!["a".into(), "a".into()],
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_retry_policy_rejected() {
        let cfg = RpcConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..RpcConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
