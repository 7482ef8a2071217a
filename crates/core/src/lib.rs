//! # tstream-core
//!
//! A Rust reproduction of **TStream** (*Towards Concurrent Stateful Stream
//! Processing on Multicore Processors*, ICDE 2020): a data stream processing
//! engine that supports concurrent access to shared mutable application state
//! by modelling the state accesses of each input event as a *state
//! transaction* and guaranteeing a schedule conflict-equivalent to the event
//! timestamp order.
//!
//! The crate implements the paper's two contributions:
//!
//! * **Dual-mode scheduling** ([`engine`]) — executors postpone the state
//!   access step of every event during *compute mode* and collaboratively
//!   process the postponed transactions in *state-access mode* at every
//!   punctuation;
//! * **Dynamic restructuring execution** ([`chains`], [`restructure`]) — the
//!   postponed batch is decomposed into per-state, timestamp-ordered
//!   *operation chains* that are evaluated in parallel without lock
//!   contention, with temporary multi-versioning for cross-chain data
//!   dependencies.
//!
//! The baseline schemes the paper compares against (No-Lock, LOCK, MVLK, PAT)
//! live in `tstream-txn` and are driven by the same [`engine::Engine`], so a
//! single [`engine::RunReport`] interface covers every figure of the paper.
//!
//! Execution is a three-stage pipeline: the stream crate's online
//! `BatchBuilder` forms punctuation batches at ingestion time, a persistent
//! [`runtime::ExecutorPool`] (threads spawned once per engine) executes them
//! batch by batch, and per-executor sinks aggregate the report.  Continuous
//! ingestion goes through one [`session::Session`] type built with
//! [`engine::Engine::session_builder`] → [`builder::SessionBuilder`]
//! (`push` / `flush` / `report`; `.durable(dir)`, `.recover()`,
//! `.adaptive_punctuation()`, `.pipeline_depth(n)` and `.label(..)` compose
//! as builder options).  Sessions of one engine run **concurrently**: the
//! pool's scheduler interleaves their punctuation batches round-robin with
//! per-session backpressure.  `Engine::run` streams a pre-collected input
//! through a session, and `Engine::run_offline` keeps the seed's one-shot
//! mode as a differential baseline.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tstream_core::prelude::*;
//!
//! // A tiny application: every event increments one counter.
//! struct Counter;
//! impl Application for Counter {
//!     type Payload = u64;
//!     fn name(&self) -> &'static str { "counter" }
//!     fn read_write_set(&self, key: &u64) -> ReadWriteSet {
//!         ReadWriteSet::new().write(StateRef::new(0, *key))
//!     }
//!     fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
//!         txn.read_modify(0, *key, None, |ctx| {
//!             Ok(Value::Long(ctx.current.as_long()? + 1))
//!         });
//!     }
//!     fn post_process(&self, _key: &u64, _blotter: &EventBlotter) -> PostAction {
//!         PostAction::Emit
//!     }
//! }
//!
//! let table = TableBuilder::new("counters")
//!     .extend((0..16u64).map(|k| (k, Value::Long(0))))
//!     .build()
//!     .unwrap();
//! let store = StateStore::new(vec![table]).unwrap();
//! let engine = Engine::new(EngineConfig::with_executors(2).punctuation(64));
//! let report = engine.run(
//!     &Arc::new(Counter),
//!     &store,
//!     (0..256u64).map(|i| i % 16).collect(),
//!     &Scheme::TStream,
//! );
//! assert_eq!(report.committed, 256);
//! ```

#![deny(missing_docs)]

pub mod adaptive;
pub mod builder;
pub mod chains;
pub mod config;
pub mod engine;
pub mod restructure;
pub mod runtime;
pub mod session;
pub mod standby;
pub mod walwriter;

pub use adaptive::{AdaptiveConfig, AdaptiveIntervalController, IntervalObservation};
pub use builder::SessionBuilder;
pub use chains::{
    ChainPool, ChainPoolSet, ChainSlot, FrozenPool, OperationChain, ProcessingAssignment,
};
pub use config::{ChainPlacement, DependencyResolution, EngineConfig, TStreamConfig};
pub use engine::{Engine, RunReport, Scheme};
pub use restructure::{BatchAbortLog, ChainStats, ReplayStats, RestructureContext};
pub use runtime::ExecutorPool;
pub use session::Session;
pub use standby::{restore_to_epoch, StandbySession};
pub use tstream_obs::{MetricsSnapshot, ObsConfig, TraceEvent, TraceKind};
pub use tstream_recovery::{FsyncPolicy, WalPayload};
pub use tstream_stream::partition::EventRouting;

/// Everything a user needs to define and run a concurrent stateful stream
/// application.
pub mod prelude {
    pub use crate::builder::SessionBuilder;
    pub use crate::config::{ChainPlacement, DependencyResolution, EngineConfig, TStreamConfig};
    pub use crate::engine::{Engine, RunReport, Scheme};
    pub use crate::session::Session;
    pub use tstream_obs::{MetricsSnapshot, ObsConfig, TraceEvent, TraceKind};
    pub use tstream_recovery::{FsyncPolicy, RecoveryCoordinator, WalPayload};
    pub use tstream_state::{
        Checkpoint, CheckpointManifest, Checkpointer, ShardId, ShardRouter, StateStore,
        StoreSnapshot, Table, TableBuilder, Value,
    };
    pub use tstream_stream::operator::{AccessMode, ReadWriteSet, StateRef};
    pub use tstream_stream::partition::EventRouting;
    pub use tstream_txn::{
        lock_based::LockScheme, mvlk::MvlkScheme, nolock::NoLockScheme, pat::PatScheme,
    };
    pub use tstream_txn::{
        Application, EventBlotter, NumaModel, OpCtx, PostAction, TxnBuilder, TxnOutcome,
    };
}
