//! Executable models of the runtime's hand-written sync protocols.
//!
//! Each submodule reimplements one production protocol against the
//! [`crate::sync`] / [`crate::thread`] shims — close enough to the real code
//! that the model *is* the safety argument — plus, where instructive, a
//! deliberately buggy variant that the checker must catch.  The variants
//! keep the history of "bugs this protocol is one careless edit away from"
//! executable: a self-test proving the checker finds each bug is regression
//! cover for both the checker and the protocol.
//!
//! | module | production code | checked property |
//! |---|---|---|
//! | [`barrier`] | `tstream_stream::CyclicBarrier` | the round's action runs once per generation and is visible on release, wraparound, poison wakes everyone, including the parties of a round whose action panicked |
//! | [`injector`] | `ExecutorPool` scheduler (`crates/core/src/runtime.rs`) | atomic batch injection: every batch reaches all executor queues before any later batch |
//! | [`backpressure`] | per-session staging queues | bounded staging never overfills and never wedges |
//! | [`wal`] | `SegmentedWal` seal/poison + `Checkpointer` gating | checkpoints never cover an unsealed epoch; appends refused after seal failure |
//! | [`groupcommit`] | `DurableLog` group-commit pipeline (`crates/recovery/src/coordinator.rs`) | one window in flight; acks never outrun the covering sync; seal drains before the marker |
//! | [`ship`] | replication shipping handoff (`crates/replica`) | ack only after durable receipt + apply; truncation clamped to the acked floor; promote drains in-flight epochs |

pub mod backpressure;
pub mod barrier;
pub mod groupcommit;
pub mod injector;
pub mod ship;
pub mod wal;
