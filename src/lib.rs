//! # tstream
//!
//! Facade crate for the TStream reproduction (*Towards Concurrent Stateful
//! Stream Processing on Multicore Processors*, ICDE 2020). It re-exports the
//! workspace crates under one roof and owns the repository-level integration
//! tests and examples.
//!
//! The interesting code lives in the member crates:
//!
//! * [`core`] — the engine: dual-mode scheduling + dynamic restructuring;
//! * [`txn`] — state transactions and the baseline schemes (No-Lock, LOCK,
//!   MVLK, PAT, ...);
//! * [`state`] — tables, versioned records, locks, checkpoints;
//! * [`recovery`] — the crash-recovery subsystem: segmented write-ahead
//!   input log and the coordinator behind the session builder's
//!   `.durable(dir).recover()` mode;
//! * [`replica`] — hot-standby replication: segment shipping from a
//!   primary's durable log to a continuously-replaying standby, takeover
//!   (`promote`) and per-epoch divergence detection;
//! * [`stream`] — events, punctuation barriers, operators, topologies;
//! * [`skiplist`] — a concurrent skip list; no engine crate uses it any more
//!   (operation chains are sorted runs of flat logs), the benchmark's
//!   `skiplist.*` rungs still measure it;
//! * [`obs`] — the observability layer: lock-free metrics hub, flight
//!   recorder, and the clock facade behind every runtime timestamp;
//! * [`apps`] — the paper's four benchmark applications (GS, SL, OB, TP).

#![warn(missing_docs)]

pub use tstream_apps as apps;
pub use tstream_core as core;
pub use tstream_obs as obs;
pub use tstream_recovery as recovery;
pub use tstream_replica as replica;
pub use tstream_skiplist as skiplist;
pub use tstream_state as state;
pub use tstream_stream as stream;
pub use tstream_txn as txn;

pub use tstream_core::prelude;
