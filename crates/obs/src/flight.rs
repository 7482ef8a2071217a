//! The flight recorder: fixed-capacity per-lane ring buffers of typed trace
//! events, drainable as one merged chronological timeline.
//!
//! Every runtime thread writes to its own *lane* — one per executor, one for
//! the ingestion thread, one for the WAL writer — so recording never
//! contends: each lane is guarded by a `parking_lot` mutex that only its
//! owning thread takes on the hot path (the drain side takes them briefly,
//! one at a time).  A lane holds the last `capacity` events; older events
//! are overwritten, which is the point — when a barrier poisons or a thread
//! panics, the recorder holds exactly the recent history a post-mortem
//! needs.
//!
//! Events are stamped with nanoseconds since the recorder's epoch plus a
//! global sequence number, so [`FlightRecorder::timeline`] can merge all
//! lanes into one stable chronological order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Default per-lane ring capacity (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What happened, at one point of the batch lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A punctuation batch finished forming at ingestion.
    BatchFormed {
        /// Events in the batch.
        events: u32,
        /// Whether the batch is a recovery replay.
        replayed: bool,
    },
    /// The ingestion thread staged the batch (after any backpressure wait).
    BatchStaged {
        /// Nanoseconds spent blocked on the staging queue.
        wait_ns: u64,
    },
    /// An executor picked the batch up for execution.
    BatchInjected,
    /// The batch filed nothing: every transaction ran directly.
    FastPath,
    /// The leader decomposed the batch into operation chains.
    Restructured {
        /// Chains built for this batch.
        chains: u32,
    },
    /// One executor completed one barrier round.
    BarrierRound {
        /// Nanoseconds spent waiting at the barrier.
        wait_ns: u64,
    },
    /// The leader replayed the closure of a multi-write abort.
    AbortReplay {
        /// Transactions re-executed.
        transactions: u32,
        /// Blind writes re-applied.
        writes: u32,
        /// Re-executed transactions that aborted.
        aborted: u32,
    },
    /// The batch published its results to the sink.
    Published {
        /// Transactions committed.
        committed: u32,
        /// Transactions rejected.
        rejected: u32,
    },
    /// The WAL sealed the batch's segment.
    Sealed {
        /// Epoch of the sealed segment.
        epoch: u64,
    },
    /// A checkpoint covering this epoch completed.
    Checkpointed {
        /// Checkpointed epoch.
        epoch: u64,
    },
    /// A due checkpoint for this epoch could not be written.
    CheckpointFailed {
        /// Epoch the checkpoint would have covered.
        epoch: u64,
    },
    /// Sealed segments were truncated after a checkpoint.
    Truncated {
        /// Segments removed.
        segments: u32,
    },
    /// The run's barrier was poisoned.
    Poisoned,
    /// A runtime thread panicked.
    Panicked,
}

impl TraceKind {
    fn describe(&self) -> String {
        match self {
            TraceKind::BatchFormed { events, replayed } => {
                format!(
                    "batch formed ({events} events{})",
                    if *replayed { ", replayed" } else { "" }
                )
            }
            TraceKind::BatchStaged { wait_ns } => format!("staged (waited {wait_ns} ns)"),
            TraceKind::BatchInjected => "injected".to_string(),
            TraceKind::FastPath => "fast path".to_string(),
            TraceKind::Restructured { chains } => format!("restructured into {chains} chains"),
            TraceKind::BarrierRound { wait_ns } => format!("barrier round ({wait_ns} ns)"),
            TraceKind::AbortReplay {
                transactions,
                writes,
                aborted,
            } => format!("replayed {transactions} txns + {writes} writes, {aborted} aborts"),
            TraceKind::Published {
                committed,
                rejected,
            } => {
                format!("published ({committed} committed, {rejected} rejected)")
            }
            TraceKind::Sealed { epoch } => format!("sealed epoch {epoch}"),
            TraceKind::Checkpointed { epoch } => format!("checkpointed epoch {epoch}"),
            TraceKind::CheckpointFailed { epoch } => format!("CHECKPOINT FAILED epoch {epoch}"),
            TraceKind::Truncated { segments } => format!("truncated {segments} segments"),
            TraceKind::Poisoned => "POISONED".to_string(),
            TraceKind::Panicked => "PANICKED".to_string(),
        }
    }
}

/// Sentinel for [`TraceEvent::batch`] when the event is not tied to a batch.
pub const NO_BATCH: u64 = u64::MAX;

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (engine creation).
    pub t_ns: u64,
    /// Global sequence number: a stable tie-break for merge ordering.
    pub seq: u64,
    /// Lane index (see [`FlightRecorder::lane_name`]).
    pub lane: u32,
    /// Punctuation sequence number of the batch, or [`NO_BATCH`].
    pub batch: u64,
    /// What happened.
    pub kind: TraceKind,
}

#[derive(Debug)]
struct Lane {
    buf: Vec<TraceEvent>,
    next: usize,
}

/// The per-engine flight recorder.  Lanes `0..executors` belong to the
/// executors, lane `executors` to the ingestion thread, lane
/// `executors + 1` to the WAL writer.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    executors: usize,
    epoch: Instant,
    seq: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    lanes: Vec<Mutex<Lane>>,
}

impl FlightRecorder {
    /// A recorder with `executors + 2` lanes of `capacity` events each.
    pub fn new(enabled: bool, executors: usize, capacity: usize) -> Self {
        let executors = executors.max(1);
        let capacity = capacity.max(1);
        FlightRecorder {
            enabled,
            capacity,
            executors,
            epoch: crate::clock::now(),
            seq: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            lanes: (0..executors + 2)
                .map(|_| {
                    Mutex::new(Lane {
                        buf: Vec::with_capacity(capacity),
                        next: 0,
                    })
                })
                .collect(),
        }
    }

    /// Whether recording does anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-lane ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lane index of executor `i`.
    pub fn executor_lane(&self, i: usize) -> usize {
        i.min(self.executors - 1)
    }

    /// Lane index of the ingestion thread.
    pub fn ingest_lane(&self) -> usize {
        self.executors
    }

    /// Lane index of the WAL writer thread.
    pub fn wal_lane(&self) -> usize {
        self.executors + 1
    }

    /// Human-readable lane label.
    pub fn lane_name(&self, lane: u32) -> String {
        let lane = lane as usize;
        if lane < self.executors {
            format!("exec{lane}")
        } else if lane == self.executors {
            "ingest".to_string()
        } else {
            "wal".to_string()
        }
    }

    /// Record `kind` on `lane` for `batch` (or [`NO_BATCH`]).
    #[inline]
    pub fn record(&self, lane: usize, batch: u64, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        let event = TraceEvent {
            t_ns: self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            lane: lane.min(self.lanes.len() - 1) as u32,
            batch,
            kind,
        };
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lanes[event.lane as usize].lock();
        if guard.buf.len() < self.capacity {
            guard.buf.push(event);
        } else {
            let slot = guard.next;
            guard.buf[slot] = event;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        guard.next = (guard.next + 1) % self.capacity;
    }

    /// Total events recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events overwritten before they were drained.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot every lane and merge into one chronological timeline,
    /// ordered by `(t_ns, seq)`.
    pub fn timeline(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            let guard = lane.lock();
            all.extend_from_slice(&guard.buf);
        }
        all.sort_unstable_by_key(|e| (e.t_ns, e.seq));
        all
    }

    /// Format a timeline into the human-readable post-mortem layout.
    pub fn format_timeline(&self, events: &[TraceEvent]) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(events.len() * 64 + 64);
        for e in events {
            let _ = write!(
                out,
                "[+{:>12.6}s] {:<7}",
                e.t_ns as f64 / 1e9,
                self.lane_name(e.lane)
            );
            if e.batch != NO_BATCH {
                let _ = write!(out, " batch={:<5}", e.batch);
            } else {
                let _ = write!(out, "            ");
            }
            let _ = writeln!(out, " {}", e.kind.describe());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_merges_lanes_in_stamp_order() {
        let rec = FlightRecorder::new(true, 2, 16);
        rec.record(
            rec.ingest_lane(),
            0,
            TraceKind::BatchFormed {
                events: 4,
                replayed: false,
            },
        );
        rec.record(rec.executor_lane(0), 0, TraceKind::BatchInjected);
        rec.record(rec.executor_lane(1), 0, TraceKind::BatchInjected);
        rec.record(rec.executor_lane(0), 0, TraceKind::FastPath);
        rec.record(rec.wal_lane(), 0, TraceKind::Sealed { epoch: 0 });
        let tl = rec.timeline();
        assert_eq!(tl.len(), 5);
        for w in tl.windows(2) {
            assert!(
                (w[0].t_ns, w[0].seq) <= (w[1].t_ns, w[1].seq),
                "timeline must be chronologically ordered"
            );
        }
        assert_eq!(
            tl[0].kind,
            TraceKind::BatchFormed {
                events: 4,
                replayed: false
            }
        );
        assert_eq!(tl[4].kind, TraceKind::Sealed { epoch: 0 });
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn lanes_are_bounded_rings() {
        let rec = FlightRecorder::new(true, 1, 4);
        for i in 0..10u64 {
            rec.record(0, i, TraceKind::BatchInjected);
        }
        let tl = rec.timeline();
        assert_eq!(tl.len(), 4, "ring keeps only the last `capacity` events");
        let batches: Vec<u64> = {
            let mut b: Vec<u64> = tl.iter().map(|e| e.batch).collect();
            b.sort_unstable();
            b
        };
        assert_eq!(batches, vec![6, 7, 8, 9], "oldest events are overwritten");
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = FlightRecorder::new(false, 2, 16);
        rec.record(0, 0, TraceKind::FastPath);
        assert!(rec.timeline().is_empty());
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn lane_names_cover_all_roles() {
        let rec = FlightRecorder::new(true, 2, 4);
        assert_eq!(rec.lane_name(0), "exec0");
        assert_eq!(rec.lane_name(1), "exec1");
        assert_eq!(rec.lane_name(2), "ingest");
        assert_eq!(rec.lane_name(3), "wal");
    }

    #[test]
    fn format_timeline_is_readable() {
        let rec = FlightRecorder::new(true, 1, 8);
        rec.record(
            rec.ingest_lane(),
            3,
            TraceKind::BatchFormed {
                events: 64,
                replayed: true,
            },
        );
        rec.record(rec.executor_lane(0), 3, TraceKind::Poisoned);
        rec.record(
            rec.wal_lane(),
            NO_BATCH,
            TraceKind::Truncated { segments: 2 },
        );
        let text = rec.format_timeline(&rec.timeline());
        assert!(text.contains("ingest"));
        assert!(text.contains("batch=3"));
        assert!(text.contains("replayed"));
        assert!(text.contains("POISONED"));
        assert!(text.contains("truncated 2 segments"));
    }
}
