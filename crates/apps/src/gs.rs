//! Grep and Sum (GS), Section VI-A / Figure 5.
//!
//! A synthetic application over one shared table of 10 000 records.  Each
//! input event triggers a transaction of length 10 that either **reads** ten
//! records (the Grep operator then forwards the values to Sum, which adds
//! them up and emits the result) or **writes** ten records.  Records are
//! 32-byte strings, matching the paper's record layout.
//!
//! The generator controls three knobs used by the sensitivity studies:
//! the read/write ratio (Figure 11a), the Zipf skew of the key distribution
//! (Figure 11b) and the ratio/length of multi-partition transactions
//! (Figure 10); the latter requires the generator to plan against the same
//! hash partitioning the PAT scheme uses.

use std::sync::Arc;

use tstream_core::prelude::*;
use tstream_state::partition::Partitioner;
use tstream_state::{StateError, StateStore, TableBuilder};
use tstream_txn::TxnBuilder as Txn;

use crate::workload::{Rng, WorkloadSpec, Zipf};

/// Table index of the shared record table.
pub const RECORD_TABLE: u32 = 0;

/// Width of the stored value strings (the paper's 32-byte values).
pub const VALUE_WIDTH: usize = 32;

/// Encode a number as a fixed-width record string: its decimal digits,
/// left-aligned and space-padded (`format!("{v:<32}")`), laid out in a stack
/// buffer so the shared string is the only allocation.
pub fn encode_value(v: i64) -> Arc<str> {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        digits[at] = b'-';
    }
    let mut record = [b' '; VALUE_WIDTH];
    record[..digits.len() - at].copy_from_slice(&digits[at..]);
    std::str::from_utf8(&record)
        .expect("digits, sign and padding are ASCII")
        .into()
}

/// Decode a fixed-width record string back into a number.
pub fn decode_value(s: &str) -> i64 {
    s.trim_end().parse().unwrap_or(0)
}

/// One GS input event.
#[derive(Debug, Clone)]
pub struct GsEvent {
    /// Distinct keys the transaction accesses.
    pub keys: Vec<u64>,
    /// `None` for a read transaction, the values to write otherwise.
    pub writes: Option<Vec<i64>>,
}

impl GsEvent {
    /// Whether this event triggers a read-only transaction.
    pub fn is_read(&self) -> bool {
        self.writes.is_none()
    }
}

/// The Grep and Sum application.
#[derive(Debug, Clone)]
pub struct GrepSum {
    /// Whether the Sum operator's summation runs in post-processing;
    /// the read-ratio study of Figure 11a removes it to isolate state-access
    /// efficiency.
    pub with_summation: bool,
}

impl Default for GrepSum {
    fn default() -> Self {
        GrepSum {
            with_summation: true,
        }
    }
}

impl Application for GrepSum {
    type Payload = GsEvent;

    fn name(&self) -> &'static str {
        "GS"
    }

    fn read_write_set(&self, e: &GsEvent) -> ReadWriteSet {
        let mut set = ReadWriteSet::new();
        for &k in &e.keys {
            set.push(
                StateRef::new(RECORD_TABLE, k),
                if e.is_read() {
                    AccessMode::Read
                } else {
                    AccessMode::Write
                },
            );
        }
        set
    }

    fn state_access(&self, e: &GsEvent, txn: &mut Txn) {
        txn.reserve(e.keys.len());
        match &e.writes {
            None => {
                for &k in &e.keys {
                    txn.read(RECORD_TABLE, k);
                }
            }
            Some(values) => {
                for (&k, &v) in e.keys.iter().zip(values) {
                    if v < 0 {
                        txn.write_with(RECORD_TABLE, k, None, |_ctx| {
                            Err(StateError::ConsistencyViolation(
                                "GS records must be non-negative".into(),
                            ))
                        });
                    } else {
                        // Encode during decomposition (compute mode): the
                        // state access then installs the prepared record
                        // with a refcount bump instead of formatting under
                        // the access timer.
                        txn.write_value(RECORD_TABLE, k, Value::Str(encode_value(v)));
                    }
                }
            }
        }
    }

    fn post_process(&self, e: &GsEvent, blotter: &EventBlotter) -> PostAction {
        if blotter.is_aborted() {
            return PostAction::Silent;
        }
        if e.is_read() && self.with_summation {
            // The Sum operator: add up the grep'd values.
            let mut sum = 0i64;
            for i in 0..e.keys.len() {
                if let Some(Ok(n)) = blotter.with_result(i, |v| v.as_str().map(decode_value)) {
                    sum = sum.wrapping_add(n);
                }
            }
            // The sum is emitted as one event to the sink; the engine's sink
            // only records completion, so the value itself is discarded here.
            std::hint::black_box(sum);
        }
        PostAction::Emit
    }
}

/// Build the shared record table, randomly populated (Section VI-B) and
/// split over `spec.shards` physical shards.
pub fn build_store(spec: &WorkloadSpec) -> Arc<StateStore> {
    let mut rng = Rng::new(spec.seed ^ 0x6060_7070);
    let table = TableBuilder::new("records")
        .extend((0..spec.keys).map(|k| {
            (
                k,
                Value::Str(encode_value(rng.next_below(1_000_000) as i64)),
            )
        }))
        .build_sharded(spec.shards)
        .expect("GS record table");
    StateStore::with_shards(vec![table], spec.shards).expect("GS store")
}

/// Generate the GS input stream.
///
/// Key selection is partition-aware: single-partition transactions draw all
/// keys from one hash partition, multi-partition transactions draw keys
/// spanning exactly `spec.multi_partition_len` partitions.  Within a
/// partition, keys follow the Zipf skew.
pub fn generate(spec: &WorkloadSpec) -> Vec<GsEvent> {
    let mut rng = Rng::new(spec.seed);
    let partitioner = Partitioner::new(spec.partitions);
    // Precompute the key list of every partition.
    let mut partition_keys: Vec<Vec<u64>> = vec![Vec::new(); spec.partitions as usize];
    for k in 0..spec.keys {
        partition_keys[partitioner.partition_of_in_table(RECORD_TABLE, k) as usize].push(k);
    }
    partition_keys.retain(|p| !p.is_empty());
    let zipfs: Vec<Zipf> = partition_keys
        .iter()
        .map(|keys| Zipf::new(keys.len(), spec.skew))
        .collect();

    let mut events = Vec::with_capacity(spec.events);
    for _ in 0..spec.events {
        let multi = rng.chance(spec.multi_partition_ratio);
        let span = if multi {
            spec.multi_partition_len.min(partition_keys.len())
        } else {
            1
        };
        // Choose the partitions this transaction touches.
        let chosen = rng.distinct_below(span, partition_keys.len() as u64);
        // Draw distinct keys, cycling over the chosen partitions.
        let mut keys = Vec::with_capacity(spec.txn_len);
        let mut guard = 0usize;
        while keys.len() < spec.txn_len {
            let p = chosen[keys.len() % chosen.len()] as usize;
            let idx = zipfs[p].sample(&mut rng) as usize;
            let key = partition_keys[p][idx];
            if !keys.contains(&key) {
                keys.push(key);
            }
            guard += 1;
            if guard > spec.txn_len * 128 {
                // Tiny partitions under heavy skew: fill deterministically.
                for &key in partition_keys[p].iter() {
                    if keys.len() == spec.txn_len {
                        break;
                    }
                    if !keys.contains(&key) {
                        keys.push(key);
                    }
                }
                guard = 0;
            }
        }
        let writes = if rng.chance(spec.read_ratio) {
            None
        } else {
            Some(
                (0..keys.len())
                    .map(|_| rng.next_below(1_000_000) as i64)
                    .collect(),
            )
        };
        events.push(GsEvent { keys, writes });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstream_core::{Engine, EngineConfig, Scheme};

    #[test]
    fn value_encoding_round_trips() {
        for v in [0i64, 1, 999_999, 42, -7, i64::MAX, i64::MIN] {
            let s = encode_value(v);
            assert_eq!(&*s, format!("{v:<VALUE_WIDTH$}"));
            assert_eq!(decode_value(&s), v);
        }
        assert_eq!(decode_value("garbage"), 0);
    }

    #[test]
    fn generator_respects_read_ratio_and_txn_len() {
        let spec = WorkloadSpec::default().events(2_000).read_ratio(0.3);
        let events = generate(&spec);
        assert_eq!(events.len(), 2_000);
        let reads = events.iter().filter(|e| e.is_read()).count();
        let ratio = reads as f64 / events.len() as f64;
        assert!((ratio - 0.3).abs() < 0.05, "observed read ratio {ratio}");
        for e in &events {
            assert_eq!(e.keys.len(), spec.txn_len);
            let mut dedup = e.keys.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), spec.txn_len, "keys must be distinct");
        }
    }

    #[test]
    fn generator_controls_partition_span() {
        let spec = WorkloadSpec::default()
            .events(1_000)
            .multi_partition(0.0, 6)
            .partitions(8);
        let partitioner = Partitioner::new(spec.partitions);
        for e in generate(&spec) {
            let mut parts: Vec<u32> = e
                .keys
                .iter()
                .map(|&k| partitioner.partition_of_in_table(RECORD_TABLE, k))
                .collect();
            parts.sort_unstable();
            parts.dedup();
            assert_eq!(
                parts.len(),
                1,
                "single-partition txns must stay in one partition"
            );
        }

        let spec = spec.multi_partition(1.0, 6);
        let mut spans = Vec::new();
        for e in generate(&spec) {
            let mut parts: Vec<u32> = e
                .keys
                .iter()
                .map(|&k| partitioner.partition_of_in_table(RECORD_TABLE, k))
                .collect();
            parts.sort_unstable();
            parts.dedup();
            spans.push(parts.len());
        }
        assert!(
            spans.iter().all(|&s| s == 6),
            "multi-partition txns must span 6 partitions"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default().events(100);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.keys, y.keys);
            assert_eq!(x.writes, y.writes);
        }
    }

    #[test]
    fn gs_runs_under_tstream_and_a_baseline() {
        let spec = WorkloadSpec::default().events(600);
        let app = Arc::new(GrepSum::default());
        for scheme in [Scheme::TStream, Scheme::Eager(Arc::new(LockScheme::new()))] {
            let store = build_store(&spec);
            let engine = Engine::new(EngineConfig::with_executors(4).punctuation(100));
            let report = engine.run(&app, &store, generate(&spec), &scheme);
            assert_eq!(report.events, 600);
            assert_eq!(report.committed, 600, "no GS transaction should abort");
            assert!(report.throughput_keps() > 0.0);
        }
    }

    #[test]
    fn gs_reads_see_written_string_values() {
        // Single-threaded sanity check of the read path + summation.
        let spec = WorkloadSpec::default().events(50).read_ratio(1.0);
        let store = build_store(&spec);
        let app = Arc::new(GrepSum::default());
        let engine = Engine::new(EngineConfig::with_executors(1).punctuation(25));
        let report = engine.run(&app, &store, generate(&spec), &Scheme::TStream);
        assert_eq!(report.committed, 50);
    }
}
