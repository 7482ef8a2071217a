//! `Stamped<A>`: the benchmark's window into the engine.
//!
//! The engine is timed from outside.  The only code of the benchmark's that
//! the engine runs is an application's four callbacks, so the benchmark wraps
//! the application: the payload carries the event's index, and each callback
//! can note when (open phase: completion time per index) and for how long
//! (traced run: one span per callback) it ran.  The wrapper delegates every
//! method, so results are those of the bare application.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tstream::core::prelude::*;
use tstream::state::codec::Reader;
use tstream::state::StateResult;

/// An application payload tagged with its position in the input.
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged<P> {
    pub idx: u32,
    pub payload: P,
}

/// Tag an input stream with its indices.
pub fn tag<P>(inputs: impl IntoIterator<Item = P>) -> impl Iterator<Item = Tagged<P>> {
    inputs.into_iter().enumerate().map(|(idx, payload)| Tagged {
        idx: idx as u32,
        payload,
    })
}

/// WAL codec: the index, then the inner payload's own encoding — so a
/// durable session can carry tagged events.
impl<P: WalPayload> WalPayload for Tagged<P> {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.idx.to_le_bytes());
        self.payload.encode_wal(out);
    }

    fn decode_wal(reader: &mut Reader<'_>) -> StateResult<Self> {
        Ok(Tagged {
            idx: reader.u32()?,
            payload: P::decode_wal(reader)?,
        })
    }
}

/// The four application callbacks, in span-table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    RwSet = 0,
    PreProcess = 1,
    StateAccess = 2,
    PostProcess = 3,
}

pub const CALLBACKS: [(Callback, &str); 4] = [
    (Callback::RwSet, "rw_set"),
    (Callback::PreProcess, "pre_process"),
    (Callback::StateAccess, "state_access"),
    (Callback::PostProcess, "post_process"),
];

/// Spans of the traced run, in memory preallocated before the run starts.
/// Every callback adds to its running total; the first `full.len()` events
/// additionally keep each span's start and end for the trace file.
#[derive(Debug)]
pub struct SpanStore {
    total_ns: [AtomicU64; 4],
    calls: [AtomicU64; 4],
    /// `[start, end]` per callback per event, ns since the recorder's epoch.
    full: Vec<[[AtomicU64; 2]; 4]>,
}

impl SpanStore {
    pub fn new(full_events: usize) -> Self {
        SpanStore {
            total_ns: Default::default(),
            calls: Default::default(),
            full: (0..full_events).map(|_| Default::default()).collect(),
        }
    }

    /// Total time spent in `callback`, and how often it ran.
    pub fn total(&self, callback: Callback) -> (u64, u64) {
        (
            self.total_ns[callback as usize].load(Ordering::Relaxed),
            self.calls[callback as usize].load(Ordering::Relaxed),
        )
    }

    /// Events whose spans were kept in full.
    pub fn full_events(&self) -> usize {
        self.full.len()
    }

    /// `(start, end)` of `callback` for event `idx`, if kept and run.
    pub fn span(&self, idx: usize, callback: Callback) -> Option<(u64, u64)> {
        let [start, end] = &self.full.get(idx)?[callback as usize];
        let end = end.load(Ordering::Relaxed);
        (end != 0).then(|| (start.load(Ordering::Relaxed), end))
    }
}

/// What `Stamped` writes into.  Each slot is written by exactly one thread
/// (whichever runs that event's callback) and read after the session has
/// reported, so relaxed atomics suffice: they only make the sharing safe.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Open phase: when each event's `post_process` ran, ns since `epoch`
    /// (0 = not yet).  Empty in the traced run.
    done_ns: Vec<AtomicU64>,
    completed: AtomicU64,
    spans: Option<SpanStore>,
}

impl Recorder {
    /// Recorder for an open phase over `events` events.
    pub fn for_latency(events: usize) -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            done_ns: (0..events).map(|_| AtomicU64::new(0)).collect(),
            completed: AtomicU64::new(0),
            spans: None,
        })
    }

    /// Recorder for a traced closed phase keeping `full_events` full spans.
    pub fn for_spans(full_events: usize) -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            done_ns: Vec::new(),
            completed: AtomicU64::new(0),
            spans: Some(SpanStore::new(full_events)),
        })
    }

    /// The instant every time this recorder notes is counted from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the recorder was made; never 0.
    pub fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// When event `idx` completed (`None` if it never did).
    pub fn done_ns(&self, idx: usize) -> Option<u64> {
        match self.done_ns[idx].load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Events completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    pub fn spans(&self) -> Option<&SpanStore> {
        self.spans.as_ref()
    }

    /// Run `f` as one span of `callback` for event `idx`.
    #[inline]
    fn span<R>(&self, callback: Callback, idx: u32, f: impl FnOnce() -> R) -> R {
        let Some(spans) = &self.spans else {
            return f();
        };
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        let c = callback as usize;
        spans.total_ns[c].fetch_add(end - start, Ordering::Relaxed);
        spans.calls[c].fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = spans.full.get(idx as usize) {
            slot[c][0].store(start, Ordering::Relaxed);
            slot[c][1].store(end, Ordering::Relaxed);
        }
        result
    }
}

/// `A`, observed: see the module documentation.
#[derive(Debug)]
pub struct Stamped<A> {
    inner: Arc<A>,
    recorder: Arc<Recorder>,
}

impl<A> Stamped<A> {
    pub fn new(inner: Arc<A>, recorder: Arc<Recorder>) -> Arc<Self> {
        Arc::new(Stamped { inner, recorder })
    }
}

impl<A: Application> Application for Stamped<A> {
    type Payload = Tagged<A::Payload>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pre_process(&self, p: &Self::Payload) -> bool {
        self.recorder.span(Callback::PreProcess, p.idx, || {
            self.inner.pre_process(&p.payload)
        })
    }

    fn read_write_set(&self, p: &Self::Payload) -> ReadWriteSet {
        self.recorder.span(Callback::RwSet, p.idx, || {
            self.inner.read_write_set(&p.payload)
        })
    }

    fn state_access(&self, p: &Self::Payload, txn: &mut TxnBuilder) {
        self.recorder.span(Callback::StateAccess, p.idx, || {
            self.inner.state_access(&p.payload, txn)
        })
    }

    fn post_process(&self, p: &Self::Payload, blotter: &EventBlotter) -> PostAction {
        let action = self.recorder.span(Callback::PostProcess, p.idx, || {
            self.inner.post_process(&p.payload, blotter)
        });
        if let Some(slot) = self.recorder.done_ns.get(p.idx as usize) {
            slot.store(self.recorder.now_ns(), Ordering::Relaxed);
            self.recorder.completed.fetch_add(1, Ordering::Relaxed);
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstream::apps::gs::GsEvent;
    use tstream::apps::sl::SlEvent;

    /// Encode, decode, and compare through `Debug` (the app payloads do not
    /// implement `PartialEq`).
    fn round_trip<P: WalPayload + std::fmt::Debug>(value: Tagged<P>) {
        let mut bytes = Vec::new();
        value.encode_wal(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let back = Tagged::<P>::decode_wal(&mut reader).expect("decodes");
        assert_eq!(reader.remaining(), 0, "consumes exactly its own bytes");
        assert_eq!(format!("{back:?}"), format!("{value:?}"));
    }

    #[test]
    fn tagged_payloads_round_trip_through_the_wal_codec() {
        round_trip(Tagged {
            idx: 0,
            payload: SlEvent::Deposit {
                account: 1,
                asset: 2,
                amount: 3,
            },
        });
        round_trip(Tagged {
            idx: u32::MAX,
            payload: SlEvent::Transfer {
                src_account: 9,
                dst_account: 8,
                src_asset: 7,
                dst_asset: 6,
                amount: 55,
            },
        });
        round_trip(Tagged {
            idx: 1_499_999,
            payload: GsEvent {
                keys: vec![4, 5, 6],
                writes: Some(vec![-1, 0, 999_999]),
            },
        });
    }

    #[test]
    fn truncated_tagged_frames_are_errors() {
        let mut bytes = Vec::new();
        Tagged {
            idx: 7,
            payload: GsEvent {
                keys: vec![1, 2],
                writes: None,
            },
        }
        .encode_wal(&mut bytes);
        for len in 0..bytes.len() {
            let mut reader = Reader::new(&bytes[..len]);
            assert!(Tagged::<GsEvent>::decode_wal(&mut reader).is_err(), "{len}");
        }
    }

    #[test]
    fn tag_numbers_events_from_zero() {
        let tagged: Vec<_> = tag(["a", "b", "c"]).collect();
        assert_eq!(tagged[0].idx, 0);
        assert_eq!(tagged[2].idx, 2);
        assert_eq!(tagged[2].payload, "c");
    }

    #[test]
    fn spans_accumulate_and_keep_the_first_events_in_full() {
        let recorder = Recorder::for_spans(2);
        for idx in 0..4 {
            recorder.span(Callback::StateAccess, idx, || std::hint::black_box(idx));
        }
        let spans = recorder.spans().unwrap();
        assert_eq!(spans.total(Callback::StateAccess).1, 4);
        assert_eq!(spans.total(Callback::RwSet), (0, 0));
        let (start, end) = spans.span(1, Callback::StateAccess).unwrap();
        assert!(start <= end);
        assert_eq!(spans.span(1, Callback::PostProcess), None, "never ran");
        assert_eq!(spans.span(3, Callback::StateAccess), None, "not kept");
    }
}
