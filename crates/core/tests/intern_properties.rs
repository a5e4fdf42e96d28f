//! Property tests for the method-key interner: ids must be stable (the
//! same `<protocol, method>` pair always resolves to the same id and the
//! same pointer), distinct pairs must never collide, and a key threaded
//! through frame encode → decode — stateful and self-contained alike —
//! must come back as the *identical* interned key with its strings intact.

use proptest::prelude::*;
use rpcoib::intern;
use rpcoib::{V3Decoder, V3Encoder};
use wire::{DataOutputBuffer, IntWritable, Writable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interning is idempotent and pointer-stable: every re-resolution of
    /// a pair yields the same id, the same `Arc` pointers, and a key that
    /// `lookup` and `by_id` both find again.
    #[test]
    fn interned_ids_are_stable(protocol in "\\PC*", method in "\\PC*") {
        let first = intern::method_key(&protocol, &method);
        let again = intern::method_key(&protocol, &method);
        prop_assert_eq!(first, again);
        prop_assert_eq!(first.id(), again.id());
        prop_assert_eq!(first.protocol(), protocol.as_str());
        prop_assert_eq!(first.method(), method.as_str());
        prop_assert_eq!(intern::lookup(&protocol, &method), Some(first));
        prop_assert_eq!(intern::by_id(first.id()), Some(first));
        // The derived response key is itself stable and distinct.
        let resp = first.response_key();
        prop_assert_eq!(resp, first.response_key());
        prop_assert_ne!(resp.id(), first.id());
    }

    /// Two pairs intern to the same id only when they are the same pair.
    #[test]
    fn distinct_pairs_get_distinct_ids(
        p1 in "\\PC*", m1 in "\\PC*",
        p2 in "\\PC*", m2 in "\\PC*",
    ) {
        let k1 = intern::method_key(&p1, &m1);
        let k2 = intern::method_key(&p2, &m2);
        prop_assert_eq!(k1.id() == k2.id(), p1 == p2 && m1 == m2);
        prop_assert_eq!(k1 == k2, p1 == p2 && m1 == m2);
    }

    /// Frame round-trip in both codec modes: the decoded header carries
    /// the identical interned key (not merely an equal string pair),
    /// every scalar field survives, and the param follows the header.
    #[test]
    fn frames_roundtrip_interned_keys(
        protocol in "\\PC*",
        method in "\\PC*",
        stateful in any::<bool>(),
        client_id in any::<u64>(),
        seq in any::<i64>(),
        retry_attempt in 0u32..1024,
        value in any::<i32>(),
    ) {
        let key = intern::method_key(&protocol, &method);
        let mut buf = DataOutputBuffer::with_capacity(64);
        V3Encoder::new(stateful)
            .write_request_header(&mut buf, seq, retry_attempt, None, key)
            .unwrap();
        IntWritable(value).write(&mut buf).unwrap();
        let mut input: &[u8] = buf.data();
        let header = V3Decoder::new(stateful)
            .read_request_header(&mut input, client_id)
            .unwrap();
        prop_assert_eq!(header.client_id, client_id);
        prop_assert_eq!(header.seq, seq);
        prop_assert_eq!(header.retry_attempt, retry_attempt);
        prop_assert_eq!(header.key, key);
        prop_assert_eq!(header.protocol(), protocol.as_str());
        prop_assert_eq!(header.method(), method.as_str());
        let mut param = IntWritable::default();
        param.read_fields(&mut input).unwrap();
        prop_assert_eq!(param.0, value);
    }
}

/// Names past the decoder's 192-byte stack window take the heap-spill
/// path; the key must still intern identically.
#[test]
fn oversized_names_spill_and_still_intern() {
    let protocol = "p".repeat(4000);
    let method = "m".repeat(500);
    let key = intern::method_key(&protocol, &method);
    for stateful in [true, false] {
        let mut buf = DataOutputBuffer::with_capacity(64);
        V3Encoder::new(stateful)
            .write_request_header(&mut buf, 1, 0, None, key)
            .unwrap();
        let mut input: &[u8] = buf.data();
        let header = V3Decoder::new(stateful)
            .read_request_header(&mut input, 7)
            .unwrap();
        assert_eq!(header.key, key);
        assert_eq!(header.protocol(), protocol);
    }
}
