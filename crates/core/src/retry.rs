//! Client-side resilience policy: bounded retries with exponential
//! backoff, jitter, and an overall per-call deadline.
//!
//! Hadoop's RPC client survives transient server trouble by retrying
//! idempotent calls with a backoff schedule (`RetryPolicies` in the real
//! codebase). This module is the engine-level equivalent: a small value
//! type carried in [`crate::RpcConfig`] that the client consults after
//! every failed attempt.
//!
//! Semantics:
//!
//! * `max_attempts` counts **total** attempts, not retries: `1` means
//!   fail on the first error ([`RetryPolicy::none`]).
//! * The backoff before attempt `n+1` is
//!   `base_backoff * multiplier^(n-1)`, capped at `max_backoff`, then
//!   spread by ±`jitter` (a fraction in `[0, 1]`) to avoid retry
//!   convoys when many callers fail together.
//! * `deadline`, when set, bounds the **total** wall-clock time of the
//!   call across every attempt and backoff sleep. The remaining budget
//!   also caps each attempt's receive wait, so a deadline of 1 s can
//!   never wait out a 30 s `call_timeout`.
//!
//! Which errors are worth retrying is the error's own call
//! ([`crate::RpcError::is_retryable`]); the policy only says how often
//! and how patiently.

use std::time::Duration;

/// Retry schedule for one RPC call. Carried by [`crate::RpcConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Sleep before the second attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Growth factor between consecutive backoffs. Must be ≥ 1.
    pub multiplier: f64,
    /// Fraction in `[0, 1]` by which each sleep is randomly spread:
    /// a computed sleep `s` becomes uniform in `[s·(1−j), s·(1+j)]`.
    pub jitter: f64,
    /// Overall wall-clock budget for the call across all attempts,
    /// backoffs included. `None` = bounded only by
    /// `call_timeout × max_attempts`.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    /// Hadoop's baseline behavior: one transparent immediate retry, so a
    /// cached connection to a restarted server heals without the caller
    /// noticing, but nothing resembling a retry storm.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            multiplier: 1.0,
            jitter: 0.0,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// Fail fast: a single attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Exponential backoff: `max_attempts` tries, sleeping
    /// `base, 2·base, 4·base, …` (±20% jitter, capped at `32·base`)
    /// between them.
    pub fn exponential(max_attempts: u32, base_backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff,
            max_backoff: base_backoff.saturating_mul(32),
            multiplier: 2.0,
            jitter: 0.2,
            deadline: None,
        }
    }

    /// Same policy with an overall per-call deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Same policy with a different jitter fraction (`0.0..=1.0`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Internal consistency; folded into [`crate::RpcConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("retry.max_attempts must be >= 1".into());
        }
        if self.multiplier.is_nan() || self.multiplier < 1.0 {
            return Err(format!(
                "retry.multiplier must be >= 1 (got {})",
                self.multiplier
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!(
                "retry.jitter must be in [0, 1] (got {})",
                self.jitter
            ));
        }
        if self.max_backoff < self.base_backoff {
            return Err("retry.max_backoff must be >= retry.base_backoff".into());
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err("retry.deadline must be positive when set".into());
        }
        Ok(())
    }

    /// The latest time after a call starts at which its client can still
    /// send an attempt: every attempt waiting out `call_timeout`, and
    /// every sleep between them at its ceiling,
    /// `max_attempts × call_timeout + (max_attempts − 1) × max_backoff ×
    /// (1 + jitter)`, capped by `deadline`. Saturating: a horizon too long
    /// to represent is [`Duration::MAX`].
    pub fn horizon(&self, call_timeout: Duration) -> Duration {
        let sleep =
            Duration::try_from_secs_f64(self.max_backoff.as_secs_f64() * (1.0 + self.jitter))
                .unwrap_or(Duration::MAX);
        let horizon = call_timeout
            .saturating_mul(self.max_attempts)
            .saturating_add(sleep.saturating_mul(self.max_attempts.saturating_sub(1)));
        self.deadline
            .map_or(horizon, |deadline| horizon.min(deadline))
    }

    /// The sleep after `failed_attempts` attempts have failed (≥ 1).
    /// `entropy` decorrelates concurrent callers' jitter; pass anything
    /// call-unique (the engine uses the call id).
    pub fn backoff(&self, failed_attempts: u32, entropy: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .multiplier
            .powi(failed_attempts.saturating_sub(1).min(63) as i32);
        let mut nanos =
            (self.base_backoff.as_nanos() as f64 * exp).min(self.max_backoff.as_nanos() as f64);
        if self.jitter > 0.0 {
            // splitmix64 of (entropy, attempt) → uniform in [-1, 1).
            let mut z = entropy
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(failed_attempts as u64);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // [0, 1)
            nanos *= 1.0 + self.jitter * (2.0 * unit - 1.0);
        }
        Duration::from_nanos(nanos.max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_one_immediate_retry() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 2);
        assert_eq!(p.backoff(1, 7), Duration::ZERO);
        p.validate().unwrap();
    }

    #[test]
    fn none_is_single_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        p.validate().unwrap();
    }

    #[test]
    fn exponential_grows_and_caps() {
        let p = RetryPolicy::exponential(5, Duration::from_millis(10)).with_jitter(0.0);
        assert_eq!(p.backoff(1, 0), Duration::from_millis(10));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(20));
        assert_eq!(p.backoff(3, 0), Duration::from_millis(40));
        // Cap: 32 × base = 320 ms regardless of attempt count.
        assert_eq!(p.backoff(30, 0), Duration::from_millis(320));
    }

    #[test]
    fn jitter_spreads_but_stays_bounded() {
        let p = RetryPolicy::exponential(3, Duration::from_millis(100)).with_jitter(0.5);
        let lo = Duration::from_millis(50);
        let hi = Duration::from_millis(150);
        let sleeps: Vec<Duration> = (0..64).map(|e| p.backoff(1, e)).collect();
        for s in &sleeps {
            assert!(*s >= lo && *s <= hi, "jittered sleep out of range: {s:?}");
        }
        // Different entropy must actually decorrelate.
        assert!(sleeps.iter().any(|s| *s != sleeps[0]));
        // Same entropy replays the same sleep.
        assert_eq!(p.backoff(1, 9), p.backoff(1, 9));
    }

    #[test]
    fn horizon_is_every_attempt_and_every_sleep_at_its_ceiling() {
        let timeout = Duration::from_secs(30);
        // Defaults: two attempts, no sleep between them.
        assert_eq!(
            RetryPolicy::default().horizon(timeout),
            Duration::from_secs(60)
        );
        assert_eq!(RetryPolicy::none().horizon(timeout), timeout);
        // Exponential backoff with jitter: three sleeps of at most
        // 32 × 100 ms × 1.2 each, beside four attempts.
        let p = RetryPolicy::exponential(4, Duration::from_millis(100));
        assert_eq!(
            p.horizon(timeout),
            Duration::from_secs(120) + Duration::from_millis(3 * 3_840)
        );
        // A deadline caps it.
        let p = p.with_deadline(Duration::from_secs(5));
        assert_eq!(p.horizon(timeout), Duration::from_secs(5));
        // A horizon too long to represent saturates.
        assert_eq!(RetryPolicy::default().horizon(Duration::MAX), Duration::MAX);
        let p = RetryPolicy {
            max_backoff: Duration::MAX,
            jitter: 1.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.horizon(timeout), Duration::MAX);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(RetryPolicy {
            max_attempts: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            multiplier: 0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            jitter: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::ZERO,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
