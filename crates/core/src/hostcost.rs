//! Deterministic host-side metadata cost model.
//!
//! The simnet ledger charges *network* costs (stack traversal, wire time,
//! propagation) from the calibrated [`simnet::NetworkModel`]s; host-side
//! software costs — managed-heap allocation, lock acquisition — are
//! normally real wall-clock effects the ledger does not see. That is fine
//! while both designs under comparison do the same host work, but the
//! whole point of the interned hot path is that it *stops* doing that
//! work. To make the saving visible in the deterministic, replayable
//! bench figures, the `smallcall` figure's `*_legacy` rows are its
//! `*_interned` samples plus [`legacy_call_ns`] — the bundle of constants
//! below, which is what the pre-interning metadata path cost per call.
//!
//! The constants are deliberately conservative round numbers in the range
//! reported for managed-runtime RPC stacks (the paper's §III measures
//! whole-buffer allocation at tens of microseconds; a single small
//! object allocation plus zeroing is ~100 ns on the paper's Westmere-era
//! hosts, an uncontended lock round-trip ~50 ns). The interned path
//! charges nothing: its metadata cost is a few relaxed atomic adds,
//! below the model's resolution.

/// Modeled cost of one managed small-object heap allocation (allocate +
/// zero + eventual collection amortized).
pub const MANAGED_ALLOC_NS: u64 = 110;

/// Modeled cost of one uncontended lock acquire/release round.
pub const LOCK_ROUND_NS: u64 = 45;

/// Heap allocations the pre-interning metadata path performed per call:
/// two owned key `String`s in the pending-call entry, two more cloned
/// into the metrics key, the per-call one-shot reply channel (channel
/// block + queue node), and the response-side key clones.
pub const LEGACY_ALLOCS_PER_CALL: u64 = 8;

/// Lock rounds the pre-interning path took per call: the global metrics
/// stats map (call + recv + two phase records), the single pending-table
/// mutex (insert + remove), and the trace flag.
pub const LEGACY_LOCKS_PER_CALL: u64 = 6;

/// What the pre-interning metadata path cost per call.
pub const fn legacy_call_ns() -> u64 {
    LEGACY_ALLOCS_PER_CALL * MANAGED_ALLOC_NS + LEGACY_LOCKS_PER_CALL * LOCK_ROUND_NS
}

/// Modeled host memcpy bandwidth for copying a received large frame out
/// of the registered region into a pooled buffer, ~10 GB/s (a single
/// stream of rep-movs on the paper's Westmere hosts). Charged to the
/// *receiver's* ledger per copied byte, where the copy is made: when a
/// call that suspends takes its bytes with it
/// ([`crate::IbContext::evacuate`]). A frame read where it landed — every
/// other one — charges nothing beyond the wire, like the sender side.
pub const DRAIN_BYTES_PER_NS: u64 = 10;

/// Modeled cost of copying `len` bytes out of the large region.
pub const fn drain_ns(len: usize) -> u64 {
    (len as u64).div_ceil(DRAIN_BYTES_PER_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_bundle_is_the_documented_sum() {
        assert_eq!(legacy_call_ns(), 8 * 110 + 6 * 45);
        assert_eq!(legacy_call_ns(), 1150);
    }

    #[test]
    fn drain_cost_tracks_the_memcpy_model() {
        assert_eq!(drain_ns(0), 0);
        assert_eq!(drain_ns(1), 1);
        assert_eq!(drain_ns(10), 1);
        // 1 MiB at 10 GB/s ≈ 105 µs.
        assert_eq!(drain_ns(1 << 20), 104_858);
    }
}
