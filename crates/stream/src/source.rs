//! The ingestion layer: online batch formation and bounded source channels.
//!
//! The seed engine pre-materialized its whole input into punctuation batches
//! before the first executor started — a one-shot benchmark harness.  This
//! module is the streaming replacement: a [`BatchBuilder`] that stamps each
//! event **at arrival time**, routes it to its executor incrementally, and
//! emits a punctuation-delimited [`SourceBatch`] as soon as the punctuation
//! interval fills, so batch *k + 1* can form while batch *k* executes.
//!
//! [`bounded_source`] provides the matching transport: a bounded channel
//! that connects external producer threads to the ingestion loop with
//! backpressure — when the runtime falls behind, producers block instead of
//! growing an unbounded buffer.  Handles and outlets are both cloneable, so
//! the channel serves the single-producer/multi-consumer hand-off used by the
//! examples as well as fan-in from several producers.

use crate::event::{Event, Punctuation};
use crate::progress::ProgressController;

/// One punctuation-delimited batch produced by a [`BatchBuilder`]: the
/// events already split per executor, the per-event routing descriptors in
/// timestamp order, and the punctuation that closed the batch.
#[derive(Debug)]
pub struct SourceBatch<P, D> {
    /// Events assigned to each executor, in timestamp order per executor.
    pub per_executor: Vec<Vec<Event<P>>>,
    /// One descriptor per event of the batch, in timestamp order (whatever
    /// the router derived: for the engine, the transaction's timestamp and
    /// determined read/write set).
    pub descriptors: Vec<D>,
    /// The punctuation closing this batch: every event of the batch has
    /// `ts < punctuation.ts`, and no later event has a smaller timestamp.
    pub punctuation: Punctuation,
    /// Whether any event of this batch was re-ingested during recovery
    /// replay ([`BatchBuilder::set_replay`]).  Replayed events count toward
    /// throughput but carry re-ingestion arrival instants, so consumers must
    /// not sample their latency.  Sticky per batch: a mixed tail batch
    /// (replayed events followed by live ones) is marked replayed as a whole.
    pub replayed: bool,
    /// Whether the consumer found every transaction of the batch alone in
    /// it (pairwise disjoint read/write sets), so that nothing is filed.
    /// `false` until the consumer classifies the batch — the builder itself
    /// never inspects descriptors.
    pub conflict_free: bool,
}

impl<P, D> SourceBatch<P, D> {
    /// Number of events in the batch.
    pub fn events(&self) -> usize {
        self.descriptors.len()
    }
}

/// Routing callback of a [`BatchBuilder`]: maps a freshly stamped event and
/// its position within the forming batch to `(target executor, descriptor)`.
/// Boxed so sessions don't carry the closure type in their signature.
pub type Router<P, D> = Box<dyn FnMut(&Event<P>, usize) -> (usize, D) + Send>;

/// Online batch formation (the Parser operator of the paper, made
/// incremental).
///
/// `push` stamps the payload with the next dense timestamp *and* the current
/// wall-clock instant — so end-to-end latency measured from
/// [`Event::arrival`] covers the true ingestion-to-sink interval, not the
/// pre-materialization skew of the seed engine — applies the routing callback
/// and, every `interval` events, closes the batch with a punctuation and
/// hands it out.
pub struct BatchBuilder<P, D> {
    progress: ProgressController,
    executors: usize,
    interval: usize,
    router: Router<P, D>,
    per_executor: Vec<Vec<Event<P>>>,
    descriptors: Vec<D>,
    in_batch: usize,
    batches_emitted: u64,
    /// Whether pushes are currently recovery replays ([`Self::set_replay`]).
    replaying: bool,
    /// Whether the forming batch holds at least one replayed event.
    batch_replayed: bool,
}

impl<P, D> std::fmt::Debug for BatchBuilder<P, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchBuilder")
            .field("executors", &self.executors)
            .field("interval", &self.interval)
            .field("in_batch", &self.in_batch)
            .field("batches_emitted", &self.batches_emitted)
            .finish()
    }
}

impl<P, D> BatchBuilder<P, D> {
    /// Creates a builder splitting the stream over `executors` executors
    /// with a punctuation every `interval` events (both clamped to ≥ 1).
    pub fn new(executors: usize, interval: usize, router: Router<P, D>) -> Self {
        let executors = executors.max(1);
        let interval = interval.max(1);
        BatchBuilder {
            progress: ProgressController::new(interval as u64),
            executors,
            interval,
            router,
            per_executor: (0..executors).map(|_| Vec::new()).collect(),
            descriptors: Vec::with_capacity(interval),
            in_batch: 0,
            batches_emitted: 0,
            replaying: false,
            batch_replayed: false,
        }
    }

    /// Mark subsequent pushes as recovery replays (or back to live events).
    /// Any batch holding at least one replayed event is emitted with
    /// [`SourceBatch::replayed`] set, including a mixed tail batch that live
    /// events later complete.
    pub fn set_replay(&mut self, replaying: bool) {
        self.replaying = replaying;
    }

    /// Number of executors batches are split over.
    pub fn executors(&self) -> usize {
        self.executors
    }

    /// Punctuation interval in events.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Change the punctuation interval (clamped to ≥ 1).  Takes effect
    /// immediately: if the forming batch already holds at least `interval`
    /// events, the next [`BatchBuilder::push`] closes it.  Used by adaptive
    /// punctuation tuning, which retunes the interval between batches.
    pub fn set_interval(&mut self, interval: usize) {
        self.interval = interval.max(1);
    }

    /// Events stamped so far (the progress controller's high watermark).
    pub fn stamped(&self) -> u64 {
        self.progress.high_watermark()
    }

    /// Events sitting in the currently forming (not yet emitted) batch.
    pub fn pending(&self) -> usize {
        self.in_batch
    }

    /// Batches emitted so far.
    pub fn batches_emitted(&self) -> u64 {
        self.batches_emitted
    }

    /// Stamp `payload` at arrival time, route it, and — if this event filled
    /// the punctuation interval — emit the completed batch.
    pub fn push(&mut self, payload: P) -> Option<SourceBatch<P, D>> {
        let event = self.progress.stamp(payload);
        let (target, descriptor) = (self.router)(&event, self.in_batch);
        self.descriptors.push(descriptor);
        self.per_executor[target % self.executors].push(event);
        self.batch_replayed |= self.replaying;
        self.in_batch += 1;
        // `>=`, not `==`: a shrinking adaptive interval may undercut an
        // already larger forming batch.
        if self.in_batch >= self.interval {
            Some(self.emit())
        } else {
            None
        }
    }

    /// Close and emit the partially filled batch, if any (end of stream /
    /// explicit flush).
    pub fn finish(&mut self) -> Option<SourceBatch<P, D>> {
        if self.in_batch == 0 {
            return None;
        }
        Some(self.emit())
    }

    fn emit(&mut self) -> SourceBatch<P, D> {
        let punctuation = self.progress.punctuate();
        let per_executor = std::mem::replace(
            &mut self.per_executor,
            (0..self.executors).map(|_| Vec::new()).collect(),
        );
        let descriptors =
            std::mem::replace(&mut self.descriptors, Vec::with_capacity(self.interval));
        self.in_batch = 0;
        self.batches_emitted += 1;
        let replayed = std::mem::take(&mut self.batch_replayed);
        SourceBatch {
            per_executor,
            descriptors,
            punctuation,
            replayed,
            conflict_free: false,
        }
    }
}

/// Error returned by [`SourceHandle::push`] once the consuming side is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SourceClosed<T>(pub T);

/// Producer side of a bounded source channel; cloneable for fan-in.
#[derive(Debug, Clone)]
pub struct SourceHandle<T> {
    tx: crossbeam::channel::Sender<T>,
}

impl<T> SourceHandle<T> {
    /// Enqueue a payload, blocking while the channel is full (backpressure).
    /// Fails only once every outlet has been dropped.
    pub fn push(&self, payload: T) -> Result<(), SourceClosed<T>> {
        self.tx
            .send(payload)
            .map_err(|crossbeam::channel::SendError(p)| SourceClosed(p))
    }
}

/// Consumer side of a bounded source channel; cloneable, so several
/// consumers may drain one producer (SPMC).
#[derive(Debug, Clone)]
pub struct SourceOutlet<T> {
    rx: crossbeam::channel::Receiver<T>,
}

impl<T> SourceOutlet<T> {
    /// Blocking receive; `None` once every handle is dropped and the queue
    /// has drained.
    pub fn recv(&self) -> Option<T> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.rx.try_recv()
    }

    /// Blocking iterator; ends when every handle is dropped and the queue
    /// has drained.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv())
    }
}

/// Creates a bounded source channel holding at most `capacity` in-flight
/// payloads: the hand-off between external producers and the ingestion loop
/// of a streaming session.  A full channel blocks the producers, which is the
/// backpressure that keeps a sustained overload from growing an unbounded
/// buffer.
pub fn bounded_source<T>(capacity: usize) -> (SourceHandle<T>, SourceOutlet<T>) {
    let (tx, rx) = crossbeam::channel::bounded(capacity.max(1));
    (SourceHandle { tx }, SourceOutlet { rx })
}

#[cfg(test)]
mod tests {
    // These tests probe real timing (blocked-thread interleavings), so
    // they sleep deliberately; the workspace-wide sleep ban targets
    // production code.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn round_robin_builder(executors: usize, interval: usize) -> BatchBuilder<u64, u64> {
        BatchBuilder::new(
            executors,
            interval,
            Box::new(|event, in_batch| (in_batch, event.ts)),
        )
    }

    #[test]
    fn batches_close_exactly_at_the_interval() {
        let mut builder = round_robin_builder(2, 4);
        for i in 0..3u64 {
            assert!(builder.push(i).is_none());
            assert_eq!(builder.pending(), i as usize + 1);
        }
        let batch = builder.push(3).expect("fourth event closes the batch");
        assert_eq!(batch.events(), 4);
        assert_eq!(builder.pending(), 0);
        assert_eq!(builder.batches_emitted(), 1);
        // Round-robin by in-batch position: events 0,2 on executor 0; 1,3 on 1.
        assert_eq!(batch.per_executor[0].len(), 2);
        assert_eq!(batch.per_executor[1].len(), 2);
    }

    #[test]
    fn timestamps_are_dense_across_batches_and_punctuation_covers_them() {
        let mut builder = round_robin_builder(3, 5);
        let mut batches = Vec::new();
        for i in 0..12u64 {
            if let Some(b) = builder.push(i) {
                batches.push(b);
            }
        }
        batches.extend(builder.finish());
        assert_eq!(batches.len(), 3, "5 + 5 + 2 events");
        assert_eq!(batches[2].events(), 2);
        let mut all_ts: Vec<u64> = Vec::new();
        for batch in &batches {
            for events in &batch.per_executor {
                for e in events {
                    assert!(
                        e.ts < batch.punctuation.ts,
                        "punctuation must cover the batch"
                    );
                    all_ts.push(e.ts);
                }
            }
        }
        all_ts.sort_unstable();
        assert_eq!(all_ts, (0..12).collect::<Vec<_>>());
        assert_eq!(builder.stamped(), 12);
        // Punctuation sequence numbers are dense too.
        let seqs: Vec<u64> = batches.iter().map(|b| b.punctuation.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn descriptors_stay_in_timestamp_order() {
        let mut builder = round_robin_builder(4, 8);
        let batch = (0..8).fold(None, |_, i| builder.push(i)).unwrap();
        assert_eq!(batch.descriptors, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn router_targets_are_clamped_to_the_executor_range() {
        let mut builder: BatchBuilder<u64, ()> =
            BatchBuilder::new(2, 3, Box::new(|_, _| (usize::MAX, ())));
        let batch = (0..3).fold(None, |_, i| builder.push(i)).unwrap();
        let total: usize = batch.per_executor.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert_eq!(batch.per_executor.len(), 2);
    }

    #[test]
    fn replay_mode_taints_whole_batches_including_the_mixed_tail() {
        let mut builder = round_robin_builder(1, 2);
        // Batch 1 forms entirely under replay.
        builder.set_replay(true);
        assert!(builder.push(0).is_none());
        let replayed = builder.push(1).unwrap();
        assert!(replayed.replayed);
        assert!(!replayed.conflict_free, "classification is the consumer's");
        // Batch 2 starts with a replayed tail event, then live pushes land.
        builder.push(2);
        builder.set_replay(false);
        let mixed = builder.push(3).unwrap();
        assert!(mixed.replayed, "one replayed event taints the whole batch");
        // Batch 3 is entirely live again.
        builder.push(4);
        let live = builder.push(5).unwrap();
        assert!(!live.replayed);
    }

    #[test]
    fn finish_on_an_empty_builder_returns_none() {
        let mut builder = round_robin_builder(1, 10);
        assert!(builder.finish().is_none());
        builder.push(1);
        assert!(builder.finish().is_some());
        assert!(builder.finish().is_none(), "flush is idempotent");
    }

    #[test]
    fn arrival_instants_are_monotone_within_a_push_sequence() {
        let mut builder = round_robin_builder(1, 3);
        builder.push(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        builder.push(1);
        let batch = builder.push(2).unwrap();
        let events = &batch.per_executor[0];
        assert!(events[0].arrival <= events[1].arrival);
        assert!(
            events[1].arrival.duration_since(events[0].arrival)
                >= std::time::Duration::from_millis(1),
            "each event must be stamped at its own arrival, not up front"
        );
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let builder = round_robin_builder(0, 0);
        assert_eq!(builder.executors(), 1);
        assert_eq!(builder.interval(), 1);
    }

    #[test]
    fn bounded_source_applies_backpressure_and_disconnects() {
        let (tx, rx) = bounded_source::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        // Third push must block until the consumer drains one slot.
        let tx2 = tx.clone();
        let producer = std::thread::spawn(move || tx2.push(3).is_ok());
        assert_eq!(rx.recv(), Some(1));
        assert!(producer.join().unwrap());
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(rx.recv(), None, "all handles dropped");
    }

    #[test]
    fn source_push_fails_once_outlets_are_gone() {
        let (tx, rx) = bounded_source::<u32>(1);
        drop(rx);
        assert_eq!(tx.push(9), Err(SourceClosed(9)));
    }
}
