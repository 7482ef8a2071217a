//! Property tests for the durability codec: every encodable artifact —
//! [`Value`], [`StoreSnapshot`], [`Checkpoint`] — must decode back to an
//! equal value, consuming exactly the bytes it produced.  The WAL and the
//! checkpoint files both build on these primitives, so a codec asymmetry
//! here would silently corrupt recovery.

use proptest::prelude::*;
use tstream_state::checkpoint::{Checkpoint, CheckpointManifest, TableSnapshot};
use tstream_state::codec::{decode_value, encode_value, Reader};
use tstream_state::{state_root, StateStore, StoreSnapshot, TableBuilder, Value};

fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Long),
        // Finite doubles only: the codec is bit-exact, but `Value`'s
        // equality (and this test's assertions) follow IEEE, so NaN would
        // fail reflexivity rather than the codec.
        (any::<i32>(), 1u32..1_000).prop_map(|(n, d)| Value::Double(n as f64 / d as f64)),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(|bytes| Value::Str(
            bytes
                .iter()
                .map(|b| (b % 94 + 32) as char)
                .collect::<String>()
                .into()
        )),
        proptest::collection::vec(any::<u64>(), 0..24)
            .prop_map(|ids| Value::Set(ids.into_iter().collect())),
        (any::<i64>(), any::<i64>()).prop_map(|(a, b)| Value::Pair(a, b)),
    ]
    .boxed()
}

fn snapshot_strategy() -> BoxedStrategy<StoreSnapshot> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<u8>(), 1..12),
            proptest::collection::vec((any::<u64>(), value_strategy()), 0..30),
        ),
        0..4,
    )
    .prop_map(|tables| StoreSnapshot {
        tables: tables
            .into_iter()
            .map(|(name_bytes, entries)| TableSnapshot {
                name: name_bytes.iter().map(|b| (b % 94 + 32) as char).collect(),
                entries,
            })
            .collect(),
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `Value` round-trips through the codec, consuming exactly its
    /// own bytes (no over- or under-read that would corrupt a neighbour).
    #[test]
    fn value_encode_decode_round_trips(value in value_strategy()) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &value);
        let mut reader = Reader::new(&buf);
        let decoded = decode_value(&mut reader).expect("decodable");
        prop_assert_eq!(reader.remaining(), 0, "every byte must be consumed");
        prop_assert_eq!(&decoded, &value);
        // Deterministic: re-encoding the decoded value is byte-identical
        // (sets are sorted before encoding).
        let mut re_encoded = Vec::new();
        encode_value(&mut re_encoded, &decoded);
        prop_assert_eq!(re_encoded, buf);
    }

    /// Truncating an encoded value anywhere yields `Corrupted`, never a
    /// panic or a bogus success that consumes the wrong byte count.
    #[test]
    fn truncated_values_never_panic(value in value_strategy(), cut in any::<u16>()) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &value);
        if buf.len() > 1 {
            let cut = 1 + (cut as usize % (buf.len() - 1));
            let mut reader = Reader::new(&buf[..cut]);
            match decode_value(&mut reader) {
                // Variable-length payloads may decode a shorter prefix as a
                // (different) valid value; the reader must then still be
                // fully consumed or report corruption, never wander past.
                Ok(_) => prop_assert!(reader.remaining() < cut),
                Err(e) => prop_assert!(e.to_string().contains("corrupted")
                    || e.to_string().contains("unexpected end")
                    || e.to_string().contains("unknown")),
            }
        }
    }

    /// Whole snapshots round-trip: same tables, same order, same entries.
    #[test]
    fn store_snapshot_round_trips(snapshot in snapshot_strategy()) {
        let decoded = StoreSnapshot::decode(&snapshot.encode()).expect("decodable");
        prop_assert_eq!(decoded, snapshot);
    }

    /// Epoch-stamped checkpoints round-trip with their manifests.
    #[test]
    fn checkpoint_round_trips(
        snapshot in snapshot_strategy(),
        epoch in any::<u64>(),
        events in any::<u64>(),
        committed in any::<u64>(),
        rejected in any::<u64>(),
    ) {
        let checkpoint = Checkpoint {
            manifest: Some(CheckpointManifest { epoch, events, committed, rejected }),
            snapshot,
        };
        let decoded = Checkpoint::decode(&checkpoint.encode()).expect("decodable");
        prop_assert_eq!(decoded, checkpoint);
    }

    /// Set encoding is canonical regardless of insertion/iteration order.
    #[test]
    fn set_encoding_is_order_independent(ids in proptest::collection::vec(any::<u64>(), 0..32)) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_value(&mut a, &Value::Set(ids.iter().copied().collect()));
        encode_value(&mut b, &Value::Set(ids.iter().rev().copied().collect()));
        prop_assert_eq!(a, b);
    }
}

/// The codec and the state root write a set exactly as they did while sets
/// were hash tables sorted on the way out (constants captured at 48b9ec1), so
/// checkpoints, WAL-recovered stores and a standby's per-epoch roots carry
/// over unchanged.
#[test]
fn set_bytes_and_state_root_match_the_hash_set_era() {
    let value = Value::Set([1u64 << 40, 7, 100_000].into_iter().collect());
    let mut bytes = Vec::new();
    encode_value(&mut bytes, &value);
    #[rustfmt::skip]
    let expected = [
        4, 3, 0, 0, 0,
        7, 0, 0, 0, 0, 0, 0, 0,
        160, 134, 1, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 1, 0, 0,
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_value(&mut Reader::new(&bytes)).unwrap(), value);

    let table = TableBuilder::new("vehicle_cnt")
        .extend([(3u64, value), (4u64, Value::Set(Default::default()))])
        .build()
        .unwrap();
    let store = StateStore::new(vec![table]).unwrap();
    assert_eq!(state_root(&store), 0xa57f_6fb2_d656_fc13);
}
