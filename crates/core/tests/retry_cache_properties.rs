//! A response body is never rewritten while anyone can read it.
//!
//! The retry cache recycles: a body that leaves it (acknowledged, evicted,
//! expired) is kept as a spare and the next response of its size class is
//! serialized into it. What makes that safe is `Arc::get_mut` — a body is
//! cleared or written only when no replay handle, parked route or sender
//! holds it. This property drives random schedules of `begin` (some
//! acknowledging another key, completed or in flight) / `build_body` +
//! `complete` (three size classes) / held `Replay` handles / dropped and
//! offered handles / TTL expiry / parameters read into spares and given
//! back over a small capacity and byte budget, against a model that
//! remembers what every completion wrote (an acknowledged key may
//! re-execute, which the model allows as it allows an evicted one):
//!
//! * every held handle still equals the bytes it was completed with,
//!   after every step and when it is finally let go;
//! * a replay returns the latest completion of its key, and a key the
//!   model knows in flight parks;
//! * what the cache retains — entries plus idle spares, by `capacity()` —
//!   never exceeds the byte budget, and no class idles more than
//!   [`SPARES_PER_CLASS`] spares;
//! * offering a body somebody else still holds files nothing;
//! * a parameter's buffer is cleared, of its length's own class, and no
//!   held handle's: the parameter written into it rewrites nothing held.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use bufpool::classes::class_for;
use proptest::prelude::*;
use rpcoib::metrics::MetricsRegistry;
use rpcoib::retry_cache::{Admission, ParamDraw, RetryCache, SPARES_PER_CLASS};

const CAPACITY: usize = 4;
/// Room for two of the largest bodies and change: the byte bound and the
/// entry bound both get to bind, and no single body is oversized.
const BUDGET: usize = 2_500;
const TTL: Duration = Duration::from_millis(3);
/// Body lengths, one per size class (128 B, 512 B, 1 KiB).
const SIZES: [usize; 3] = [40, 300, 900];
const KEYS: i64 = 10;

/// What completion number `stamp` writes: its number, then a pattern.
fn content(stamp: u64, len: usize) -> Vec<u8> {
    let mut bytes = stamp.to_be_bytes().to_vec();
    bytes.resize(len, stamp as u8 ^ 0x5A);
    bytes
}

struct Held {
    handle: Arc<Vec<u8>>,
    expected: Vec<u8>,
}

fn run(ops: &[(usize, i64, usize)]) {
    let cache: RetryCache<()> =
        RetryCache::new(TTL, CAPACITY, MetricsRegistry::new(false)).with_byte_budget(BUDGET);
    let mut in_flight: HashSet<i64> = HashSet::new();
    let mut done: HashMap<i64, Vec<u8>> = HashMap::new();
    let mut held: Vec<Held> = Vec::new();
    let mut params: Vec<(ParamDraw, Vec<u8>)> = Vec::new();
    let mut stamp = 0u64;
    let mut naps = 0;
    for &(kind, seq, size) in ops {
        match kind {
            // An attempt arrives; one in four acknowledges another key.
            0..=3 => match cache.begin_acking(
                (1, seq),
                (kind == 3).then_some((seq + 1 + size as i64) % KEYS),
                || (),
            ) {
                Admission::Execute => {
                    prop_assert!(in_flight.insert(seq), "executed a call in flight");
                }
                Admission::Parked => prop_assert!(in_flight.contains(&seq)),
                Admission::Replay(handle) => {
                    prop_assert!(!in_flight.contains(&seq));
                    let expected = done[&seq].clone();
                    prop_assert_eq!(&*handle, &expected, "replay of seq {}", seq);
                    held.push(Held { handle, expected });
                }
            },
            // A call in flight finishes: serialized the way the server
            // does it, into whatever the cache has to spare.
            4..=6 => {
                let Some(&seq) = in_flight.iter().min_by_key(|&&s| (s - seq).abs()) else {
                    continue;
                };
                in_flight.remove(&seq);
                stamp += 1;
                let expected = content(stamp, SIZES[size]);
                let body = cache.build_body(SIZES[size], |buf| buf.extend_from_slice(&expected));
                prop_assert_eq!(&*body, &expected);
                cache.complete((1, seq), body);
                done.insert(seq, expected);
            }
            // A held replay is sent and let go: dropped...
            7 if !held.is_empty() => {
                let h = held.swap_remove(seq as usize % held.len());
                prop_assert_eq!(&*h.handle, &h.expected, "held handle rewritten");
            }
            // ...or offered back, while a second sender still holds it:
            // shared, so nothing may be filed.
            8 if !held.is_empty() => {
                let h = &held[seq as usize % held.len()];
                let spares = cache.retention().spares;
                cache.offer(Arc::clone(&h.handle));
                prop_assert_eq!(cache.retention().spares, spares, "filed a shared body");
            }
            // Everything completed so far outlives its TTL.
            9 if naps < 3 => {
                naps += 1;
                std::thread::sleep(TTL + Duration::from_millis(1));
            }
            // A parameter is read into a spare, or a buffer of its own.
            10 => {
                let len = SIZES[size];
                let (claim, buf) = cache.draw_param(len);
                let mut buf = match buf {
                    Some(buf) => {
                        prop_assert!(buf.is_empty(), "a spare kept {} bytes", buf.len());
                        prop_assert_eq!(class_for(buf.capacity()), class_for(len));
                        prop_assert!(
                            held.iter().all(|h| h.handle.as_ptr() != buf.as_ptr()),
                            "drew a buffer a handle holds"
                        );
                        buf
                    }
                    None => Vec::with_capacity(len),
                };
                buf.resize(len, 0xEE);
                params.push((claim, buf));
            }
            // Its call's reply gives the buffer back.
            11 if !params.is_empty() => {
                let (claim, buf) = params.swap_remove(seq as usize % params.len());
                cache.give_back(claim, buf);
            }
            _ => {}
        }
        for h in &held {
            prop_assert_eq!(&*h.handle, &h.expected, "held handle rewritten");
        }
        let kept = cache.retention();
        prop_assert!(
            kept.entry_capacity + kept.spare_capacity <= BUDGET,
            "over budget: {:?}",
            kept
        );
        prop_assert!(kept.entries <= CAPACITY);
        prop_assert!(kept.spares_in_fullest_class <= SPARES_PER_CLASS);
    }
    // Let go one by one, offering each: the last holder of a body the
    // cache has dropped makes it a spare, which must not disturb the rest.
    for (claim, buf) in params {
        cache.give_back(claim, buf);
    }
    while let Some(h) = held.pop() {
        prop_assert_eq!(&*h.handle, &h.expected);
        cache.offer(h.handle);
        for h in &held {
            prop_assert_eq!(&*h.handle, &h.expected, "held handle rewritten");
        }
    }
    let kept = cache.retention();
    prop_assert!(kept.entry_capacity + kept.spare_capacity <= BUDGET);
    prop_assert!(kept.spares_in_fullest_class <= SPARES_PER_CLASS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn held_bodies_are_never_rewritten_and_the_budget_holds(
        ops in proptest::collection::vec((0usize..12, 0i64..KEYS, 0usize..3), 20..160),
    ) {
        run(&ops);
    }
}
