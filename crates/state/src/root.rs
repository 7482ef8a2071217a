//! Deterministic state roots: an order-independent hash of a store's
//! committed state.
//!
//! Replication needs a cheap way for two engines to agree that they hold the
//! same state after the same epoch without shipping a full snapshot in each
//! direction.  A *state root* is a 64-bit digest of every committed
//! `(table, key, value)` triple: each entry is hashed independently (a
//! strong word-at-a-time mix over its fields) and the entry
//! digests are merged with wrapping addition.  Addition commutes, so the
//! root is independent of iteration order, table layout **and shard count**
//! — a 1-shard primary and a 4-shard standby that hold the same values
//! produce the same root, which is exactly the comparison the divergence
//! detector performs on every ship-ack.
//!
//! The caller must ensure the store is quiescent; the engine computes roots
//! at the end-of-batch barrier where that holds by construction.

use crate::store::StateStore;
use crate::value::Value;

/// Multiplier of the per-entry word mix (the 64-bit golden-ratio constant).
const MIX_MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fold one 64-bit word into a running entry digest.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(29) ^ word).wrapping_mul(MIX_MULT)
}

/// Fold a byte slice into a running entry digest, eight bytes per serial
/// multiply.  The leading length word keeps a zero-padded tail from
/// colliding with explicit zero bytes.
#[inline]
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = mix(h, bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = mix(
            h,
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
        );
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(tail));
    }
    h
}

/// Fold a committed value into a running entry digest: one tag word per
/// variant, then the payload as whole words.  Values are hashed field by
/// field rather than through the codec — the root never leaves memory, so
/// it does not need the codec's byte layout, and skipping the intermediate
/// encode buffer roughly halves the hashing cost per record.
fn mix_value(h: u64, value: &Value) -> u64 {
    match value {
        Value::Null => mix(h, 0),
        Value::Long(v) => mix(mix(h, 1), *v as u64),
        Value::Double(v) => mix(mix(h, 2), v.to_bits()),
        Value::Str(s) => mix_bytes(mix(h, 3), s.as_bytes()),
        // Sets iterate in ascending order, so equal sets digest equally on
        // every engine.
        Value::Set(set) => set.iter().fold(mix(mix(h, 4), set.len() as u64), mix),
        Value::Pair(a, b) => mix(mix(mix(h, 5), *a as u64), *b as u64),
    }
}

/// splitmix64 avalanche: spreads single-bit entry differences across the
/// whole digest before the commutative merge (un-finalized digests are too
/// correlated for wrapping addition to be collision-safe on near-identical
/// entries).
#[inline]
fn finish(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// Compute the state root of `store`: the wrapping sum of the digests of
/// every committed `(table name, key, value)` entry.
///
/// Independent of shard count and iteration order; sensitive to any single
/// changed, added or removed entry.  The store must be quiescent.
pub fn state_root(store: &StateStore) -> u64 {
    // Streams over the records in physical order — no snapshot vector, no
    // value clones, no sort and no per-record encode buffer (the
    // commutative merge makes ordering irrelevant, and values hash field by
    // field).  The root runs on the engine's epoch hook while the executors
    // wait at the barrier, so it must stay O(n) with the smallest constant
    // we can manage; the remaining cost is one record-lock acquire plus a
    // handful of serial multiplies per entry.
    let mut root = 0u64;
    for (_, table) in store.tables() {
        let name_seed = mix_bytes(0, table.name().as_bytes());
        for (key, record) in table.iter() {
            let seeded = mix(name_seed, key);
            let h = record.with_committed(|value| mix_value(seeded, value));
            root = root.wrapping_add(finish(h));
        }
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use crate::TableId;
    use std::sync::Arc;

    fn store_with_shards(shards: u32) -> Arc<StateStore> {
        let accounts = TableBuilder::new("accounts")
            .extend((0..64u64).map(|k| (k, Value::Long(k as i64 * 3))))
            .build()
            .unwrap();
        let speeds = TableBuilder::new("speeds")
            .extend((0..16u64).map(|k| (k, Value::Double(55.0 + k as f64))))
            .build()
            .unwrap();
        StateStore::with_shards(vec![accounts, speeds], shards).unwrap()
    }

    #[test]
    fn root_is_shard_count_independent() {
        let roots: Vec<u64> = [1, 2, 4, 8]
            .iter()
            .map(|&s| state_root(&store_with_shards(s)))
            .collect();
        assert!(roots.windows(2).all(|w| w[0] == w[1]), "{roots:?}");
    }

    #[test]
    fn root_changes_when_any_single_value_changes() {
        let base = state_root(&store_with_shards(4));
        for key in [0u64, 17, 63] {
            let store = store_with_shards(4);
            store
                .record(TableId(0), key)
                .unwrap()
                .write_committed(Value::Long(-1));
            assert_ne!(state_root(&store), base, "flip of accounts[{key}] unseen");
        }
        let store = store_with_shards(4);
        store
            .record(TableId(1), 3)
            .unwrap()
            .write_committed(Value::Double(0.0));
        assert_ne!(state_root(&store), base, "flip of speeds[3] unseen");
    }

    #[test]
    fn root_distinguishes_table_membership() {
        // Same (key, value) under a different table name must not collide:
        // the table name is part of every entry digest.
        let a = TableBuilder::new("a")
            .extend([(1u64, Value::Long(7))])
            .build()
            .unwrap();
        let b = TableBuilder::new("b")
            .extend([(1u64, Value::Long(7))])
            .build()
            .unwrap();
        let only_a = StateStore::new(vec![a]).unwrap();
        let only_b = StateStore::new(vec![b]).unwrap();
        assert_ne!(state_root(&only_a), state_root(&only_b));
    }

    #[test]
    fn swapped_values_do_not_cancel() {
        // Commutative merges are prone to "swap" collisions; the per-entry
        // avalanche must keep value-exchanged stores distinguishable.
        let store = store_with_shards(2);
        let swapped = store_with_shards(2);
        swapped
            .record(TableId(0), 0)
            .unwrap()
            .write_committed(Value::Long(3));
        swapped
            .record(TableId(0), 1)
            .unwrap()
            .write_committed(Value::Long(0));
        assert_ne!(state_root(&store), state_root(&swapped));
    }
}
