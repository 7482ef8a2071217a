//! # tstream-stream
//!
//! The stream-processing substrate TStream is built on — the role BriskStream
//! plays in the paper (Section V).  It contains everything that is *not*
//! specific to concurrent state access:
//!
//! * [`event`] — input events, timestamps and punctuations;
//! * [`progress`] — the progress controller that assigns monotonically
//!   increasing timestamps and injects punctuations (Section IV-B.3);
//! * [`operator`] — the three-step operator abstraction (pre-process /
//!   state-access / post-process, feature **F1**) and the descriptor of a
//!   transaction's read/write set (feature **F2**);
//! * [`partition`] — round-robin shuffle, key-based stream partitioning and
//!   shard-affine event routing onto the state store's shard layer;
//! * [`source`] — the ingestion layer: online, punctuation-delimited batch
//!   formation ([`source::BatchBuilder`]) that stamps events at arrival time,
//!   plus bounded source channels with backpressure;
//! * [`barrier`] — a reusable cyclic barrier used for dual-mode switching;
//! * [`executor`] — executor identities and thread helpers;
//! * [`sink`] — throughput / end-to-end latency measurement;
//! * [`metrics`] — the per-transaction time breakdown used by Figures 1 and 9
//!   (Useful / Sync / Lock / Others, plus a count of modelled remote
//!   accesses);
//! * [`topology`] — a small DAG description used by the examples to mirror the
//!   Storm-like API of the paper.

#![warn(missing_docs)]

pub mod barrier;
pub mod event;
pub mod executor;
pub mod metrics;
pub mod operator;
pub mod partition;
pub mod progress;
pub mod sink;
pub mod source;
pub mod topology;

pub use barrier::CyclicBarrier;
pub use event::{Event, Punctuation, StreamElement, Timestamp};
pub use executor::{ExecutorId, ExecutorLayout};
pub use metrics::{Breakdown, Component, ComponentTimer};
pub use operator::{AccessMode, ReadWriteSet, StateRef};
pub use partition::{EventRouting, KeyPartitioner, RoundRobin, ShardAffineRouter};
pub use progress::ProgressController;
pub use sink::{LatencyStats, Sink};
pub use source::{bounded_source, BatchBuilder, SourceBatch, SourceHandle, SourceOutlet};
