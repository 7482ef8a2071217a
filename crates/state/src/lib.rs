//! # tstream-state
//!
//! The in-memory state store TStream runs on top of.  It plays the role the
//! Cavalia database plays in the paper's implementation (Section V): it owns
//! the shared mutable application state (tables of keyed records) and provides
//! the low-level machinery every concurrency-control scheme builds on:
//!
//! * [`Value`] — dynamically typed cell values (64-bit integers, doubles,
//!   short strings and sets of ids, covering the state layouts of the four
//!   benchmark applications GS / SL / OB / TP), each cloned in constant time;
//! * [`IdSet`] — the persistent sorted set behind `Value::Set`: versions of
//!   a growing set share structure instead of copying it;
//! * [`Record`] — one keyed state: the committed value, an optional committed
//!   multi-version chain (for MVLK), a temporary per-batch version list (for
//!   TStream's dynamic restructuring), a queued timestamp-ordered
//!   [`lock::RecordLock`], and a write watermark;
//! * [`Table`] / [`StateStore`] — collections of records reachable through a
//!   sharded hash [`index`], mirroring the index-lookup cost the paper calls
//!   out in its No-Lock analysis (Section VI-D);
//! * [`shard`] — the shard layer: a [`shard::ShardRouter`] maps every key to
//!   exactly one of `N` hash partitions, tables allocate their records
//!   per shard (each slice with its own key index and maintenance lock, so
//!   shard-level operations on unrelated shards never contend), and the chain
//!   pools / stream layer reuse the same router for shard-affine executor
//!   assignment.  `StateStore::with_shards` selects the shard count and
//!   rejects a zero count; snapshots are key-sorted so results compare equal
//!   across shard layouts;
//! * [`partition`] — hash partitioning of records used by the PAT scheme and,
//!   through [`shard::ShardRouter`], by the store's shard layer;
//! * [`codec`] / [`checkpoint`] — the durability layer of Section IV-D:
//!   binary snapshots of the committed state, written to disk at punctuation
//!   boundaries and recoverable after a crash.
//!
//! The store is deliberately scheme-agnostic: LOCK, MVLK, PAT and TStream all
//! drive it through the same handful of primitives, which is what lets the
//! engine swap schemes for the paper's comparisons.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod idset;
pub mod index;
pub mod lock;
pub mod partition;
pub mod record;
pub mod root;
pub mod shard;
pub mod store;
pub mod table;
pub mod value;
pub mod version;

pub use checkpoint::{Checkpoint, CheckpointManifest, Checkpointer, StoreSnapshot, TableSnapshot};
pub use error::{StateError, StateResult};
pub use idset::IdSet;
pub use record::Record;
pub use root::state_root;
pub use shard::{ShardId, ShardRouter, MAX_SHARDS};
pub use store::{StateStore, TableId};
pub use table::{Table, TableBuilder};
pub use value::Value;
pub use version::VersionChain;

/// Keys are 64-bit identifiers. Applications with string keys hash them into
/// this space (see `tstream-apps`); the sharded index resolves them to record
/// slots.
pub type Key = u64;

/// Transaction / event timestamps. Dense, monotonically increasing per batch,
/// assigned by the progress controller (`tstream-stream`).
pub type Timestamp = u64;
