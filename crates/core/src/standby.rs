//! Standby replay and point-in-time restore: the engine-side half of
//! hot-standby replication.
//!
//! A standby node receives sealed WAL segments shipped from a primary (see
//! the `tstream-replica` crate for the transport) and must replay each one
//! through the *normal* session path — batch formation, routing and
//! execution identical to the primary — so that after applying epoch `e`
//! its store is byte-identical to the primary's store at that punctuation
//! boundary.  The session internals that make this possible
//! (`Session::ingest`, `dispatch_now`, `set_replay`) are crate-private, so
//! this module exposes the two public entry points the replica crate
//! builds on:
//!
//! * [`StandbySession`] — a continuously-replaying session: one
//!   [`StandbySession::apply_segment`] call per shipped epoch keeps the
//!   standby at most one epoch behind, and [`StandbySession::promote`]
//!   turns it into a live, durable [`Session`] positioned at the next
//!   epoch (takeover);
//! * [`restore_to_epoch`] — offline point-in-time recovery: rebuild the
//!   exact state after epoch `e` from a durability directory (newest
//!   checkpoint at or before `e`, then replay through exactly `e`).

use std::path::Path;
use std::sync::Arc;

use tstream_recovery::{
    read_segment, DurableMeta, RecoveryCoordinator, RecoveryOptions, WalPayload,
};
use tstream_state::{StateError, StateResult, StateStore};
use tstream_txn::Application;

use crate::builder::DurableDirGuard;
use crate::engine::{Engine, RunReport, Scheme};
use crate::session::{DurableParts, Session, SessionOptions};

/// A continuously-replaying standby session over an [`Engine`].
///
/// The standby applies shipped segments strictly in epoch order — one
/// segment is one punctuation batch, so [`StandbySession::apply_segment`]
/// forces the same batch boundary the primary cut, and the stores converge
/// at every epoch.  [`StandbySession::state_root`] exposes the
/// order-independent digest used for divergence detection, and
/// [`StandbySession::promote`] performs takeover.
pub struct StandbySession<'e, A: Application> {
    engine: &'e Engine,
    app: Arc<A>,
    store: Arc<StateStore>,
    scheme: Scheme,
    session: Option<Session<'e, A>>,
    next_epoch: u64,
}

impl<'e, A: Application> std::fmt::Debug for StandbySession<'e, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandbySession")
            .field("app", &self.app.name())
            .field("scheme", &self.scheme)
            .field("next_epoch", &self.next_epoch)
            .finish()
    }
}

impl<'e, A: Application> StandbySession<'e, A> {
    /// Open a standby session over `app` × `store` × `scheme`, expecting
    /// the first shipped segment to carry epoch 0.  Use
    /// [`StandbySession::open_at`] when the standby starts from a restored
    /// checkpoint instead of an empty history.
    pub fn open(
        engine: &'e Engine,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        scheme: &Scheme,
    ) -> Self {
        Self::open_at(engine, app, store, scheme, 0)
    }

    /// Open a standby session whose first expected segment is
    /// `next_epoch`.  The caller must have restored the checkpoint
    /// covering epochs `< next_epoch` into `store` first.
    pub fn open_at(
        engine: &'e Engine,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        scheme: &Scheme,
        next_epoch: u64,
    ) -> Self {
        let mut session =
            Session::open(engine, app, store, scheme, None, SessionOptions::default());
        // Shipped segments are replays of the primary's batches: their
        // arrival instants here are ship times, not original arrivals, so
        // they are excluded from latency sampling and adaptive tuning.
        session.set_replay(true);
        StandbySession {
            engine,
            app: app.clone(),
            store: store.clone(),
            scheme: scheme.clone(),
            session: Some(session),
            next_epoch,
        }
    }

    /// The epoch the next [`StandbySession::apply_segment`] call must
    /// carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Apply one shipped sealed segment: the events of epoch `epoch`, in
    /// their original order.  The whole segment executes as exactly one
    /// batch — the same boundary the primary's punctuation cut — and the
    /// call returns only after the batch is fully executed, so the store
    /// reflects epoch `epoch` on return.
    ///
    /// # Errors
    ///
    /// [`StateError::InvalidDefinition`] when `epoch` is not the expected
    /// next epoch (a gap or replayed duplicate in the shipping stream).
    pub fn apply_segment(&mut self, epoch: u64, events: Vec<A::Payload>) -> StateResult<()> {
        if epoch != self.next_epoch {
            return Err(StateError::InvalidDefinition(format!(
                "standby expected segment for epoch {} but was handed epoch {}",
                self.next_epoch, epoch
            )));
        }
        let session = self
            .session
            .as_mut()
            .expect("standby session is live until promote");
        for payload in events {
            if let Some(batch) = session.ingest(payload) {
                session.dispatch_now(batch);
            }
        }
        if let Some(batch) = session.take_partial() {
            session.dispatch_now(batch);
        }
        session.drain();
        self.next_epoch += 1;
        Ok(())
    }

    /// The deterministic state-root digest of the standby's store — the
    /// same function the primary records per epoch
    /// ([`tstream_state::state_root`]), computable here because
    /// [`StandbySession::apply_segment`] returns only at a quiescent
    /// punctuation boundary.
    pub fn state_root(&self) -> u64 {
        tstream_state::state_root(&self.store)
    }

    /// Take over: close the replay session and reopen this node as the
    /// **primary** — a live durable [`Session`] over the same store and
    /// engine, write-ahead logging into `dir` starting at the epoch after
    /// the last applied segment.
    ///
    /// `dir` must be the standby's mirrored durability directory (the
    /// replica transport writes shipped segments and checkpoints there):
    /// takeover validates that the directory's sealed history ends exactly
    /// where replay stopped, refuses an unsealed tail, and positions the
    /// WAL at [`StandbySession::next_epoch`].  The returned session's
    /// [`Session::report`] counts are cumulative across the replayed
    /// history, identical to an uninterrupted primary.
    ///
    /// # Errors
    ///
    /// Any durability error opening `dir`, plus
    /// [`StateError::InvalidDefinition`] when the directory's sealed
    /// history does not end at the replayed epoch (segments were shipped
    /// but not applied, or vice versa).
    pub fn promote(mut self, dir: impl AsRef<Path>) -> StateResult<Session<'e, A>>
    where
        A::Payload: WalPayload,
    {
        let session = self
            .session
            .take()
            .expect("standby session is live until promote");
        // `report` flushes (nothing is pending: every applied segment was
        // fully drained) and yields the cumulative counts of the replayed
        // history — they become the promoted log's base, so the new
        // primary's reports stay cumulative.
        let report = session.report()?;
        let base = tstream_recovery::RecoveredProgress {
            events: report.events,
            committed: report.committed,
            rejected: report.rejected,
        };
        let dir = dir.as_ref();
        let dir_guard = DurableDirGuard::acquire(dir)?;
        let config = self.engine.config();
        let mut log = RecoveryCoordinator::new(dir)
            .options(RecoveryOptions {
                fsync: config.fsync,
                checkpoint_every: config.checkpoint_every.max(1) as u64,
                retain: 2,
                meta: Some(DurableMeta {
                    punctuation_interval: config.punctuation_interval.max(1) as u64,
                }),
                group: config.group_commit(),
            })
            .open_for_takeover(base)?;
        if log.epoch_base() != self.next_epoch {
            return Err(StateError::InvalidDefinition(format!(
                "takeover directory's sealed history ends at epoch {} but the standby \
                 replayed through epoch {}; apply the remaining shipped segments before \
                 promoting",
                log.epoch_base(),
                self.next_epoch
            )));
        }
        log.attach_group_executor(Arc::new(self.engine.pool().wal_writer(self.engine.obs())));
        Ok(Session::open(
            self.engine,
            &self.app,
            &self.store,
            &self.scheme,
            Some(DurableParts {
                log: Arc::new(log),
                append: |log, payload| log.append(payload),
                _dir_guard: dir_guard,
            }),
            SessionOptions::default(),
        ))
    }
}

/// Point-in-time recovery: rebuild in `store` the exact committed state
/// after epoch `epoch` from the durability directory `dir`, and return the
/// cumulative [`RunReport`] of the history through that epoch.
///
/// The directory is read-only for this call — the newest checkpoint at or
/// before `epoch` restores into the store and the sealed segments covering
/// the remaining range replay through the normal session path, so many
/// historical epochs can be materialized from one directory (each into its
/// own fresh store).  Retention is the caller's contract: epochs whose
/// segments were truncated after checkpointing are only reachable through
/// a checkpoint; pin retention on the primary
/// ([`tstream_recovery::DurableLog::pin_retention`]) to keep the full
/// range replayable.
///
/// # Errors
///
/// * [`StateError::InvalidDefinition`] when `epoch` is not fully sealed in
///   the directory (it exists only as the unsealed tail, or the history
///   ends earlier);
/// * [`StateError::Corrupted`] when the segment range has a gap (history
///   truncated without a retention pin);
/// * any I/O or decode error reading the directory.
pub fn restore_to_epoch<A: Application>(
    engine: &Engine,
    app: &Arc<A>,
    store: &Arc<StateStore>,
    scheme: &Scheme,
    dir: impl AsRef<Path>,
    epoch: u64,
) -> StateResult<RunReport>
where
    A::Payload: WalPayload,
{
    let pit = RecoveryCoordinator::new(dir.as_ref()).recover_to(epoch)?;
    // Restore before opening the session: opening resets the store's
    // synchronisation state and replay re-executes on top.
    if let Some(snapshot) = &pit.snapshot {
        snapshot.restore(store)?;
    }
    let mut session = Session::open(engine, app, store, scheme, None, SessionOptions::default());
    session.set_replay(true);
    for info in &pit.sealed_segments {
        for payload in read_segment::<A::Payload>(&info.path)?.events {
            if let Some(batch) = session.ingest(payload) {
                session.dispatch_now(batch);
            }
        }
        if let Some(batch) = session.take_partial() {
            session.dispatch_now(batch);
        }
    }
    session.set_replay(false);
    let mut report = session.report()?;
    report.events += pit.base.events;
    report.committed += pit.base.committed;
    report.rejected += pit.base.rejected;
    Ok(report)
}
