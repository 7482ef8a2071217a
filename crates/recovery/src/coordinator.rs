//! The recovery coordinator: glue between the WAL and the checkpoints.
//!
//! A durability directory has two sub-directories:
//!
//! ```text
//! <root>/checkpoints/  checkpoint-000000000007.tsnap   (epoch-stamped, v2)
//! <root>/wal/          segment-000000000014.twal       (sealed batches)
//!                      segment-000000000015.twal.open  (active tail)
//! ```
//!
//! [`RecoveryCoordinator::open`] turns that directory into a
//! [`RecoveredState`]: the newest checkpoint (snapshot + manifest), the
//! sealed segments *after* the checkpoint epoch that must be replayed, the
//! unsealed tail whose events re-enter the forming batch, and a
//! [`DurableLog`] ready for live appends.  Segments the checkpoint already
//! covers — leftovers of a truncation the crash interrupted — are deleted on
//! open, so recovery is idempotent: crash during recovery, open again, and
//! the same procedure converges.
//!
//! [`DurableLog`] is the handle the engine holds during a run.  Two threads
//! use it concurrently: the ingestion thread appends events and seals
//! segments at punctuation; the executor leader writes epoch-stamped
//! checkpoints at the end-of-batch barrier and truncates covered segments.
//! A mutex over the WAL serializes them; truncation never touches the
//! active segment, so ingestion is only ever blocked for the file-remove
//! window.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};

use tstream_state::checkpoint::{Checkpoint, CheckpointManifest, Checkpointer};
use tstream_state::codec::Reader;
use tstream_state::{StateError, StateResult, StateStore, StoreSnapshot};

use crate::wal::{self, FsyncPolicy, GroupCommitConfig, SegmentInfo, SegmentedWal, WalPayload};

/// Something that can run a WAL flush job on another thread.
///
/// The recovery crate owns the group-commit *protocol* but not the threads:
/// the engine's executor pool implements this trait with its spawn-once WAL
/// writer, and tooling that has no runtime simply attaches nothing — the
/// [`DurableLog`] then flushes windows inline on the appending thread.
///
/// Jobs submitted through one executor must run **in submission order, one
/// at a time**: the log relies on that FIFO ordering as its flush barrier.
pub trait FlushExecutor: Send + Sync {
    /// Enqueue `job` to run on the executor's writer thread.
    fn submit(&self, job: Box<dyn FnOnce() + Send + 'static>);
}

/// Observer of the durable artifacts a [`DurableLog`] produces, the shipping
/// side of hot-standby replication.
///
/// The log calls these hooks synchronously on the thread that produced the
/// artifact — no thread is spawned here.  [`ShipSink::segment_executed`]
/// fires from [`DurableLog::record_epoch_root`], i.e. at the end-of-batch
/// barrier *after* the epoch's batch executed: the segment is sealed on disk
/// and the leader's state root is known, which is exactly what a standby
/// needs to replay and cross-check the epoch.
/// [`ShipSink::checkpoint_written`] fires from [`DurableLog::checkpoint`]
/// after the checkpoint file is durably renamed and *before* covered
/// segments are truncated.
///
/// Implementations must be quick and must not call back into the log beyond
/// the pin API — they run under the engine's batch barrier.
pub trait ShipSink: Send + Sync {
    /// Epoch `epoch` executed: its sealed segment lives at `path`, and the
    /// leader computed `root` over the quiescent store (when epoch roots are
    /// enabled — attaching a shipper enables them).
    fn segment_executed(&self, epoch: u64, path: &Path, root: Option<u64>);

    /// A checkpoint covering `epoch` was durably written to `path`.
    fn checkpoint_written(&self, epoch: u64, path: &Path);
}

/// A registered retention pin: while it exists, [`DurableLog::checkpoint`]
/// will not truncate any sealed segment with epoch `>= floor` — the holder
/// (a shipper that has not been acked yet, or a point-in-time-recovery
/// floor) still needs those files.
///
/// Obtained from [`DurableLog::pin_retention`]; advance the floor with
/// [`DurableLog::advance_pin`] as the consumer catches up and release it
/// with [`DurableLog::release_pin`].  Pins are process-local state: they
/// protect a *live* lagging consumer, not one that outlives a crash.
#[derive(Debug)]
pub struct RetentionPin {
    id: u64,
}

/// What [`RecoveryCoordinator::recover_to`] found for a target epoch: the
/// restore base and the sealed segments whose replay reproduces the state
/// exactly as of the end of that epoch.
///
/// Purely descriptive — producing it does not mutate the durability
/// directory, so historical states can be materialized over and over from
/// one directory (each onto a fresh store).
#[derive(Debug)]
pub struct PointInTime {
    /// The target epoch.
    pub epoch: u64,
    /// Snapshot of the newest checkpoint at or before the target epoch, to
    /// restore before replay; `None` when replay starts from the empty
    /// (initial) store state.
    pub snapshot: Option<StoreSnapshot>,
    /// Progress counters covered by `snapshot` (zero when it is `None`).
    pub base: RecoveredProgress,
    /// Sealed segments to replay after the restore, ascending and dense,
    /// ending exactly at `epoch`.
    pub sealed_segments: Vec<SegmentInfo>,
}

/// Shared ack state of the group-commit protocol: how many windows were
/// handed to the flush executor and how many have finished (synced under
/// [`FsyncPolicy::Always`]).  `error` latches the first write failure so
/// the appending thread surfaces it on the next append or seal.
#[derive(Debug, Default)]
struct GroupProgress {
    submitted: u64,
    completed: u64,
    error: Option<String>,
}

/// Sub-directory holding checkpoint files.
pub const CHECKPOINT_SUBDIR: &str = "checkpoints";

/// Sub-directory holding WAL segments.
pub const WAL_SUBDIR: &str = "wal";

/// File stamping the run parameters a durability directory was written with.
pub const META_FILE: &str = "meta.tmeta";

const META_MAGIC: &[u8; 5] = b"TMETA";
const META_VERSION: u8 = 1;

/// Run parameters that must stay fixed across recoveries of one directory.
///
/// The WAL's epoch alignment assumes one sealed segment ⇔ one punctuation
/// batch; reopening the directory with a different punctuation interval
/// would re-batch the replay and desynchronize epoch stamps from segment
/// numbering, so the interval is stamped on first use and validated on
/// every reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableMeta {
    /// Punctuation interval (events per batch) of the runs over this
    /// directory.
    pub punctuation_interval: u64,
}

impl DurableMeta {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(META_MAGIC);
        out.push(b'0' + META_VERSION);
        out.extend_from_slice(&self.punctuation_interval.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> StateResult<Self> {
        let mut reader = Reader::new(bytes);
        reader.versioned_header(META_MAGIC, META_VERSION, "durability metadata")?;
        Ok(DurableMeta {
            punctuation_interval: reader.u64()?,
        })
    }
}

/// Tuning of a durability directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// When the WAL forces data to stable storage.
    pub fsync: FsyncPolicy,
    /// Write a checkpoint every `checkpoint_every` batches (clamped to at
    /// least 1).  Between checkpoints the WAL alone carries durability, so
    /// larger values trade recovery replay time for run-time throughput.
    pub checkpoint_every: u64,
    /// How many checkpoint files to retain.
    pub retain: usize,
    /// Run parameters to stamp into the directory on first use and validate
    /// on every reopen; `None` skips the check (raw-log tooling).
    pub meta: Option<DurableMeta>,
    /// Group-commit window bounds: appends buffer in memory and the window
    /// flushes (and under [`FsyncPolicy::Always`] syncs) when either bound
    /// is reached, or at the latest when the segment seals.
    pub group: GroupCommitConfig,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            fsync: FsyncPolicy::default(),
            checkpoint_every: 1,
            retain: 2,
            meta: None,
            group: GroupCommitConfig::default(),
        }
    }
}

/// Cumulative progress restored from a checkpoint manifest; the base the
/// recovered run's own counting starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveredProgress {
    /// Input events already covered by the restored snapshot.
    pub events: u64,
    /// Committed transactions already covered.
    pub committed: u64,
    /// Rejected transactions already covered.
    pub rejected: u64,
}

/// Everything [`RecoveryCoordinator::open`] found in a durability directory.
#[derive(Debug)]
pub struct RecoveredState {
    /// Snapshot of the newest checkpoint, to be restored onto the store
    /// before any replay.  `None` on a fresh (or checkpoint-less) directory.
    pub snapshot: Option<StoreSnapshot>,
    /// Sealed segments newer than the checkpoint, ascending by epoch; each
    /// replays as exactly one punctuation batch.
    pub sealed_segments: Vec<SegmentInfo>,
    /// The unsealed tail segment, if the crash hit mid-batch: its complete
    /// events re-enter the forming batch (the log keeps appending to this
    /// very segment).
    pub pending_segment: Option<SegmentInfo>,
    /// The log, positioned to continue exactly where the crash stopped.
    pub log: DurableLog,
}

/// Opens durability directories and validates their invariants.
#[derive(Debug, Clone)]
pub struct RecoveryCoordinator {
    root: PathBuf,
    options: RecoveryOptions,
}

impl RecoveryCoordinator {
    /// Coordinator over `root` with default options.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RecoveryCoordinator {
            root: root.into(),
            options: RecoveryOptions::default(),
        }
    }

    /// Replace the options wholesale.
    pub fn options(mut self, options: RecoveryOptions) -> Self {
        self.options = options;
        self
    }

    /// Root directory of the durability state.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Stamp the run parameters on first use; reject a mismatch on reopen
    /// (re-batching a replay with a different punctuation interval would
    /// silently desynchronize epoch stamps from segment numbering).
    fn stamp_or_validate_meta(&self, expected: DurableMeta) -> StateResult<()> {
        let path = self.root.join(META_FILE);
        match fs::read(&path) {
            Ok(bytes) => {
                let found = DurableMeta::decode(&bytes)?;
                if found != expected {
                    return Err(StateError::InvalidDefinition(format!(
                        "durability directory {} was written with punctuation interval {}, \
                         but the engine is configured with {}; recover with the original \
                         interval (or use a fresh directory)",
                        self.root.display(),
                        found.punctuation_interval,
                        expected.punctuation_interval
                    )));
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::create_dir_all(&self.root)?;
                fs::write(&path, expected.encode())?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Open the directory: restore-able checkpoint, segments to replay, and
    /// a live [`DurableLog`].  Works identically on a fresh directory (no
    /// checkpoint, no segments) and after a crash at any point.
    pub fn open(&self) -> StateResult<RecoveredState> {
        if let Some(expected) = self.options.meta {
            self.stamp_or_validate_meta(expected)?;
        }
        let checkpointer = Checkpointer::new(
            self.root.join(CHECKPOINT_SUBDIR),
            self.options.retain.max(1),
        )?;
        let latest = checkpointer.latest_checkpoint()?;
        let (snapshot, manifest) = match latest {
            None => (None, None),
            Some(Checkpoint { manifest, snapshot }) => (Some(snapshot), manifest),
        };
        let covered_epoch: Option<u64> = manifest.map(|m| m.epoch);

        // The checkpoint's covered epoch is the numbering floor: even when
        // truncation has emptied the WAL directory, epoch numbering must
        // resume at `covered + 1`, never restart at 0 (re-used low epochs
        // would be mistaken for checkpoint-covered on the next recovery and
        // silently truncated).
        let floor = covered_epoch.map_or(0, |c| c + 1);
        let mut wal = SegmentedWal::open(self.root.join(WAL_SUBDIR), self.options.fsync, floor)?;
        wal.set_group_commit(self.options.group);
        // Finish a truncation the crash interrupted: segments the checkpoint
        // covers are redundant.
        if let Some(epoch) = covered_epoch {
            wal.truncate_through(epoch)?;
        }

        let mut sealed_segments = Vec::new();
        let mut pending_segment = None;
        for info in wal::list_segments(wal.directory())? {
            if covered_epoch.is_some_and(|c| info.epoch <= c) {
                continue; // already truncated above; be tolerant of races
            }
            if info.sealed {
                sealed_segments.push(info);
            } else {
                pending_segment = Some(info);
            }
        }
        if snapshot.is_some()
            && manifest.is_none()
            && (!sealed_segments.is_empty() || pending_segment.is_some())
        {
            return Err(StateError::Corrupted(
                "checkpoint carries no epoch manifest but WAL segments exist; \
                 cannot tell which segments it covers"
                    .to_owned(),
            ));
        }
        // The surviving epochs must be dense: checkpoint epoch + 1, +2, ...
        // up to the tail.  A gap means a segment vanished and replay would
        // silently skip its events.
        let mut expected = covered_epoch.map_or(0, |c| c + 1);
        for info in &sealed_segments {
            if info.epoch != expected {
                return Err(StateError::Corrupted(format!(
                    "WAL epoch gap: expected segment {expected}, found {}",
                    info.epoch
                )));
            }
            expected += 1;
        }
        if let Some(info) = &pending_segment {
            if info.epoch != expected {
                return Err(StateError::Corrupted(format!(
                    "WAL epoch gap: expected tail segment {expected}, found {}",
                    info.epoch
                )));
            }
        }

        let base = manifest.map_or(RecoveredProgress::default(), |m| RecoveredProgress {
            events: m.events,
            committed: m.committed,
            rejected: m.rejected,
        });
        let epoch_base = covered_epoch.map_or(0, |c| c + 1);
        let sealed_count = sealed_segments.len() as u64;
        Ok(RecoveredState {
            snapshot,
            sealed_segments,
            pending_segment,
            // Everything below `epoch_base + sealed_count` is sealed on
            // disk: the checkpoint-covered epochs plus the surviving (dense)
            // sealed segments.
            log: DurableLog::assemble(
                wal,
                checkpointer,
                base,
                epoch_base,
                self.options.checkpoint_every,
                epoch_base + sealed_count,
            ),
        })
    }

    /// Open the directory for **standby takeover**: position a [`DurableLog`]
    /// *after* the last sealed segment without replaying anything.
    ///
    /// A promoting standby has already replayed every mirrored segment
    /// through its live session, so the normal [`RecoveryCoordinator::open`]
    /// contract (restore + replay) would double-apply.  This opens the same
    /// directory write-only: epoch numbering resumes right after the newest
    /// sealed segment, and `base` carries the cumulative progress the
    /// standby's replay already counted (so recovered reports stay identical
    /// to an uninterrupted run).
    ///
    /// Refuses a directory holding an unsealed tail segment — a standby only
    /// mirrors sealed history, so a tail means this directory belonged to a
    /// live primary, not a mirror.
    pub fn open_for_takeover(&self, base: RecoveredProgress) -> StateResult<DurableLog> {
        if let Some(expected) = self.options.meta {
            self.stamp_or_validate_meta(expected)?;
        }
        let checkpointer = Checkpointer::new(
            self.root.join(CHECKPOINT_SUBDIR),
            self.options.retain.max(1),
        )?;
        let covered: Option<u64> = checkpointer
            .latest_checkpoint()?
            .and_then(|cp| cp.manifest.map(|m| m.epoch));
        let floor = covered.map_or(0, |c| c + 1);
        let mut wal = SegmentedWal::open(self.root.join(WAL_SUBDIR), self.options.fsync, floor)?;
        wal.set_group_commit(self.options.group);
        let mut expected = floor;
        for info in wal::list_segments(wal.directory())? {
            if covered.is_some_and(|c| info.epoch <= c) {
                continue;
            }
            if !info.sealed {
                return Err(StateError::InvalidDefinition(format!(
                    "takeover refuses the unsealed tail segment (epoch {}): a standby \
                     mirrors sealed history only",
                    info.epoch
                )));
            }
            if info.epoch != expected {
                return Err(StateError::Corrupted(format!(
                    "WAL epoch gap: expected segment {expected}, found {}",
                    info.epoch
                )));
            }
            expected += 1;
        }
        let next = wal.next_epoch().max(floor);
        Ok(DurableLog::assemble(
            wal,
            checkpointer,
            base,
            next,
            self.options.checkpoint_every,
            next,
        ))
    }

    /// Point-in-time recovery: describe how to reproduce the state exactly
    /// as of the end of `epoch` — the newest checkpoint at or before it plus
    /// the sealed segments `(checkpoint, epoch]`, dense and ending exactly
    /// at `epoch`.
    ///
    /// Read-only: nothing in the directory is stamped, healed or truncated,
    /// so any number of historical epochs can be materialized from one
    /// directory.  Fails when the target's segment exists only as an
    /// unsealed tail (the epoch never became durable) or when retention has
    /// already truncated part of the needed history — which is what
    /// [`DurableLog::pin_retention`] exists to prevent.
    pub fn recover_to(&self, epoch: u64) -> StateResult<PointInTime> {
        let checkpointer = Checkpointer::new(
            self.root.join(CHECKPOINT_SUBDIR),
            self.options.retain.max(1),
        )?;
        let found = checkpointer.checkpoint_at_or_before(epoch)?;
        let (snapshot, manifest) = match found {
            None => (None, None),
            Some(Checkpoint { manifest, snapshot }) => (Some(snapshot), manifest),
        };
        let covered: Option<u64> = manifest.map(|m| m.epoch);
        let base = manifest.map_or(RecoveredProgress::default(), |m| RecoveredProgress {
            events: m.events,
            committed: m.committed,
            rejected: m.rejected,
        });

        let mut sealed_segments = Vec::new();
        let mut expected = covered.map_or(0, |c| c + 1);
        for info in wal::list_segments(&self.root.join(WAL_SUBDIR))? {
            if covered.is_some_and(|c| info.epoch <= c) || info.epoch > epoch {
                continue;
            }
            if !info.sealed {
                return Err(StateError::InvalidDefinition(format!(
                    "recover_to({epoch}): epoch {} exists only as an unsealed tail; \
                     point-in-time recovery replays durable (sealed) history only",
                    info.epoch
                )));
            }
            if info.epoch != expected {
                return Err(StateError::Corrupted(format!(
                    "recover_to({epoch}): WAL epoch gap — expected segment {expected}, \
                     found {} (was the history truncated without a retention pin?)",
                    info.epoch
                )));
            }
            expected += 1;
            sealed_segments.push(info);
        }
        if covered != Some(epoch) && expected != epoch + 1 {
            return Err(StateError::InvalidDefinition(format!(
                "recover_to({epoch}): durable history ends at epoch {}; the target epoch \
                 was never sealed (or its segments were truncated without a pin)",
                expected.saturating_sub(1)
            )));
        }
        Ok(PointInTime {
            epoch,
            snapshot,
            base,
            sealed_segments,
        })
    }
}

/// The live durability handle of an engine run.
///
/// Appends/seals come from the ingestion thread; checkpoints and truncation
/// from the action of a batch's closing barrier round.  When a
/// [`FlushExecutor`] is attached and the policy syncs every window
/// ([`FsyncPolicy::Always`]), full group-commit windows are written and
/// synced on its writer thread while the ingestion thread keeps buffering
/// the next window; at most one window is in flight, and `seal` drains the
/// pipeline before stamping the batch durable.  Windows that are not synced
/// are written inline.
pub struct DurableLog {
    wal: Arc<Mutex<SegmentedWal>>,
    checkpointer: Checkpointer,
    base: RecoveredProgress,
    epoch_base: u64,
    checkpoint_every: u64,
    /// Exclusive upper bound of the epochs whose segments are sealed on
    /// disk.  A checkpoint may only cover sealed epochs: stamping a manifest
    /// for an epoch whose seal *failed* would raise the recovery floor past
    /// an unsealed tail and brick the directory.
    sealed_below: AtomicU64,
    /// Background writer for full group-commit windows; `None` flushes
    /// inline on the appending thread.
    executor: Option<Arc<dyn FlushExecutor>>,
    /// Submitted/completed window counters plus the latched first error.
    progress: Arc<(Mutex<GroupProgress>, Condvar)>,
    /// Retention pins: pin id → lowest epoch that holder still needs.  The
    /// effective truncation ceiling is the minimum over all pins.
    pins: Mutex<BTreeMap<u64, u64>>,
    /// Next pin id.
    next_pin: AtomicU64,
    /// Whether the executor leader should compute a per-epoch state root at
    /// the end-of-batch barrier (replication / divergence detection).
    record_roots: AtomicBool,
    /// Per-epoch state roots recorded so far.
    roots: Mutex<BTreeMap<u64, u64>>,
    /// The attached shipping sink, if any.  Held weakly: the shipper owns
    /// an `Arc` of this log (to verify roots and advance its retention
    /// pin), so a strong reference back would leak both — and with them
    /// the log's group-commit executor handle, wedging engine shutdown.
    shipper: Mutex<Option<Weak<dyn ShipSink>>>,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("checkpointer", &self.checkpointer)
            .field("base", &self.base)
            .field("epoch_base", &self.epoch_base)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("sealed_below", &self.sealed_below)
            .field("has_executor", &self.executor.is_some())
            .finish_non_exhaustive()
    }
}

impl DurableLog {
    /// Assemble a log over an opened WAL + checkpointer (shared by
    /// [`RecoveryCoordinator::open`] and
    /// [`RecoveryCoordinator::open_for_takeover`]).
    fn assemble(
        wal: SegmentedWal,
        checkpointer: Checkpointer,
        base: RecoveredProgress,
        epoch_base: u64,
        checkpoint_every: u64,
        sealed_below: u64,
    ) -> Self {
        DurableLog {
            wal: Arc::new(Mutex::new(wal)),
            checkpointer,
            base,
            epoch_base,
            checkpoint_every: checkpoint_every.max(1),
            sealed_below: AtomicU64::new(sealed_below),
            executor: None,
            progress: Arc::new((Mutex::new(GroupProgress::default()), Condvar::new())),
            pins: Mutex::new(BTreeMap::new()),
            next_pin: AtomicU64::new(0),
            record_roots: AtomicBool::new(false),
            roots: Mutex::new(BTreeMap::new()),
            shipper: Mutex::new(None),
        }
    }

    /// Progress already covered by the restored checkpoint (zero on a fresh
    /// directory).
    pub fn base(&self) -> RecoveredProgress {
        self.base
    }

    /// Durable epoch of the session's first batch: the session's punctuation
    /// sequence `s` executes as durable epoch `epoch_base() + s`.
    pub fn epoch_base(&self) -> u64 {
        self.epoch_base
    }

    /// Whether the batch of durable epoch `epoch` should be followed by a
    /// checkpoint (every `checkpoint_every` batches, on absolute epochs so
    /// the cadence survives restarts).
    pub fn should_checkpoint(&self, epoch: u64) -> bool {
        (epoch + 1).is_multiple_of(self.checkpoint_every)
    }

    /// Attach the background writer for full group-commit windows.  Called
    /// once by the engine before the log is shared; without it, windows
    /// flush inline on the appending thread (tooling, tests).
    pub fn attach_group_executor(&mut self, executor: Arc<dyn FlushExecutor>) {
        self.executor = Some(executor);
    }

    /// Append one event to the active WAL segment (creating it if needed).
    ///
    /// The frame is encoded straight into the writer's reusable buffer; if
    /// that fills the group-commit window, a window the policy syncs is
    /// handed to the attached [`FlushExecutor`].  A window that is only
    /// written ([`FsyncPolicy::OnSeal`], [`FsyncPolicy::Never`]) is flushed
    /// inline, as is every window when no executor is attached: one buffered
    /// `write` costs less than waking another thread for it, and costs the
    /// same from one batch to the next, which a hand-off on a host with as
    /// many busy threads as CPUs does not.
    pub fn append<P: WalPayload>(&self, payload: &P) -> StateResult<()> {
        let mut wal = self.wal.lock();
        let window_full = wal.append_deferred(|buf| payload.encode_wal(buf))?;
        if !window_full {
            return Ok(());
        }
        if self.executor.is_none() || !wal.syncs_windows() {
            return wal.flush_window();
        }
        let window = wal.take_window()?;
        drop(wal);
        if let Some(window) = window {
            self.submit_window(window)?;
        }
        Ok(())
    }

    /// Hand one full window to the writer thread, first waiting out the
    /// previous one (at most one window is in flight — natural backpressure
    /// when the disk cannot keep up with ingestion).
    fn submit_window(&self, window: wal::PendingWindow) -> StateResult<()> {
        let executor = self.executor.as_ref().expect("checked by caller");
        self.drain_in_flight()?;
        {
            let (lock, _) = &*self.progress;
            lock.lock().submitted += 1;
        }
        let wal = Arc::clone(&self.wal);
        let progress = Arc::clone(&self.progress);
        executor.submit(Box::new(move || {
            let failure = match window.commit() {
                Ok((buf, sync_ns)) => {
                    let mut wal = wal.lock();
                    wal.recycle_window_buffer(buf);
                    wal.note_offline_sync(sync_ns);
                    None
                }
                Err(e) => {
                    // The file may hold a torn frame; appending behind it
                    // would corrupt the tail.
                    wal.lock().poison();
                    Some(e.to_string())
                }
            };
            let (lock, cvar) = &*progress;
            let mut p = lock.lock();
            if p.error.is_none() {
                p.error = failure;
            }
            p.completed += 1;
            cvar.notify_all();
        }));
        Ok(())
    }

    /// Wait until every submitted window has committed; surface the first
    /// writer-thread failure as an I/O error.
    fn drain_in_flight(&self) -> StateResult<()> {
        if self.executor.is_none() {
            return Ok(());
        }
        let (lock, cvar) = &*self.progress;
        let mut p = lock.lock();
        while p.completed < p.submitted {
            cvar.wait(&mut p);
        }
        if let Some(e) = p.error.as_ref() {
            return Err(StateError::Io(format!(
                "WAL group-commit write failed: {e}"
            )));
        }
        Ok(())
    }

    /// Seal the active segment at a punctuation boundary; returns its epoch.
    ///
    /// Drains the in-flight window first — the seal marker must land behind
    /// every event frame — then flushes the buffered remainder, syncs, and
    /// renames (the WAL writer does all three).  Only after the covering
    /// sync does the batch count as acked-durable.
    pub fn seal(&self) -> StateResult<u64> {
        self.drain_in_flight()?;
        let epoch = self.wal.lock().seal()?;
        self.sealed_below.fetch_max(epoch + 1, Ordering::Release);
        Ok(epoch)
    }

    /// Write an epoch-stamped checkpoint of `store` and truncate every WAL
    /// segment the checkpoint covers.  Called by the action of a batch's
    /// closing barrier round, where the store is quiescent by construction:
    /// every executor's writes of the batch landed, and no executor is
    /// released into the next batch before the action returns.
    ///
    /// Refuses to checkpoint an epoch whose WAL segment never sealed (a
    /// failed seal leaves the batch input only in the unsealed tail): a
    /// manifest for it would raise the recovery floor past the tail and make
    /// the directory unrecoverable.  The batch stays covered by a future
    /// successful seal or by replay of the tail.
    pub fn checkpoint(
        &self,
        store: &StateStore,
        manifest: CheckpointManifest,
    ) -> StateResult<PathBuf> {
        let epoch = manifest.epoch;
        let sealed_below = self.sealed_below.load(Ordering::Acquire);
        if epoch >= sealed_below {
            return Err(StateError::InvalidDefinition(format!(
                "refusing to checkpoint epoch {epoch}: its WAL segment has not sealed \
                 (sealed epochs end below {sealed_below})"
            )));
        }
        let path = self.checkpointer.write_checkpoint(&Checkpoint {
            manifest: Some(manifest),
            snapshot: StoreSnapshot::capture(store),
        })?;
        if let Some(sink) = self.attached_shipper() {
            sink.checkpoint_written(epoch, &path);
        }
        // Only after the checkpoint is durably renamed may its segments go —
        // and never a segment a retention pin still needs: a pinned floor of
        // `f` keeps epochs `>= f` on disk however far checkpoints advance.
        let through = match self.retention_floor() {
            None => Some(epoch),
            Some(0) => None,
            Some(floor) => Some(epoch.min(floor - 1)),
        };
        if let Some(through) = through {
            self.wal.lock().truncate_through(through)?;
        }
        Ok(path)
    }

    /// Register a retention pin at `floor`: sealed segments with epoch
    /// `>= floor` survive checkpoint truncation until the pin is advanced
    /// past them or released.
    pub fn pin_retention(&self, floor: u64) -> RetentionPin {
        let id = self.next_pin.fetch_add(1, Ordering::Relaxed);
        self.pins.lock().insert(id, floor);
        RetentionPin { id }
    }

    /// Raise a pin's floor (the consumer caught up through `floor - 1`).
    /// Floors only move forward; a lower value is ignored.
    pub fn advance_pin(&self, pin: &RetentionPin, floor: u64) {
        let mut pins = self.pins.lock();
        if let Some(current) = pins.get_mut(&pin.id) {
            *current = (*current).max(floor);
        }
    }

    /// Release a pin; its segments become truncatable at the next
    /// checkpoint.
    pub fn release_pin(&self, pin: RetentionPin) {
        self.pins.lock().remove(&pin.id);
    }

    /// The effective retention floor: the minimum over all registered pins
    /// (`None` when nothing is pinned and truncation is unrestricted).
    pub fn retention_floor(&self) -> Option<u64> {
        self.pins.lock().values().min().copied()
    }

    /// Ask the executor leader to compute a deterministic state root at
    /// every end-of-batch barrier (see [`DurableLog::record_epoch_root`]).
    /// Off by default — root hashing walks the whole store, and runs without
    /// a standby should not pay for it.  Attaching a shipper enables this.
    pub fn enable_epoch_roots(&self) {
        self.record_roots.store(true, Ordering::Release);
    }

    /// Whether per-epoch state roots should be computed.
    pub fn wants_epoch_roots(&self) -> bool {
        self.record_roots.load(Ordering::Acquire)
    }

    /// Record the leader's state root for `epoch` and notify the attached
    /// shipper that the epoch's sealed segment is ready to ship.
    ///
    /// Called by the action of the epoch's closing barrier round, after its
    /// batch fully executed (store quiescent, segment sealed).
    pub fn record_epoch_root(&self, epoch: u64, root: u64) {
        self.roots.lock().insert(epoch, root);
        if let Some(sink) = self.attached_shipper() {
            sink.segment_executed(epoch, &self.sealed_segment_path(epoch), Some(root));
        }
    }

    /// The recorded state root of `epoch`, if the leader computed one.
    pub fn epoch_root(&self, epoch: u64) -> Option<u64> {
        self.roots.lock().get(&epoch).copied()
    }

    /// All recorded `(epoch, root)` pairs, ascending by epoch.
    pub fn epoch_roots(&self) -> Vec<(u64, u64)> {
        self.roots.lock().iter().map(|(&e, &r)| (e, r)).collect()
    }

    /// Attach the shipping sink and enable epoch roots.  The sink is called
    /// synchronously from [`DurableLog::record_epoch_root`] (executor
    /// leader) and [`DurableLog::checkpoint`] (same thread); it should hold
    /// a retention pin for everything it has not shipped-and-acked yet.
    pub fn attach_shipper(&self, sink: &Arc<dyn ShipSink>) {
        *self.shipper.lock() = Some(Arc::downgrade(sink));
        self.enable_epoch_roots();
    }

    /// The live attached sink, dropping the registration once the shipper
    /// is gone.
    fn attached_shipper(&self) -> Option<Arc<dyn ShipSink>> {
        let mut slot = self.shipper.lock();
        let sink = slot.as_ref().and_then(Weak::upgrade);
        if sink.is_none() {
            *slot = None;
        }
        sink
    }

    /// Directory the WAL segments live in.
    pub fn wal_directory(&self) -> PathBuf {
        self.wal.lock().directory().to_path_buf()
    }

    /// Path the sealed segment of `epoch` lives at (whether or not it still
    /// exists — truncation may have removed it).
    pub fn sealed_segment_path(&self, epoch: u64) -> PathBuf {
        self.wal_directory().join(wal::sealed_segment_name(epoch))
    }

    /// Bytes appended to the WAL through this log instance.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.lock().bytes_written()
    }

    /// Cumulative WAL activity counters (windows, fsyncs, seals,
    /// truncations).  The engine drains these as deltas into its metrics
    /// hub at batch boundaries.
    pub fn wal_stats(&self) -> wal::WalStats {
        self.wal.lock().stats()
    }

    /// Events sitting in the active (unsealed) segment.
    pub fn pending_records(&self) -> u64 {
        self.wal.lock().pending_records()
    }

    /// The underlying checkpointer (for inspection in tests and tools).
    pub fn checkpointer(&self) -> &Checkpointer {
        &self.checkpointer
    }
}

impl Drop for DurableLog {
    /// Let the in-flight window land before the WAL's own drop flushes the
    /// buffered remainder behind it — frames must stay in append order even
    /// on the shutdown path.
    fn drop(&mut self) {
        let (lock, cvar) = &*self.progress;
        let mut p = lock.lock();
        while p.completed < p.submitted {
            cvar.wait(&mut p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use tstream_state::{TableBuilder, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tstream-coordinator-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_store() -> std::sync::Arc<StateStore> {
        let table = TableBuilder::new("t")
            .extend((0..8u64).map(|k| (k, Value::Long(0))))
            .build()
            .unwrap();
        StateStore::new(vec![table]).unwrap()
    }

    fn append_event(log: &DurableLog, value: u64) {
        log.append(&value).unwrap();
    }

    #[test]
    fn fresh_directory_opens_empty() {
        let dir = temp_dir("fresh");
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        assert!(state.snapshot.is_none());
        assert!(state.sealed_segments.is_empty());
        assert!(state.pending_segment.is_none());
        assert_eq!(state.log.epoch_base(), 0);
        assert_eq!(state.log.base(), RecoveredProgress::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_covered_segments_and_advances_the_base() {
        let dir = temp_dir("truncate");
        let store = sample_store();
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        let log = state.log;
        for epoch in 0..3u64 {
            append_event(&log, epoch);
            assert_eq!(log.seal().unwrap(), epoch);
        }
        log.checkpoint(
            &store,
            CheckpointManifest {
                epoch: 1,
                events: 2,
                committed: 2,
                rejected: 0,
            },
        )
        .unwrap();
        drop(log);

        // Reopen: the checkpoint covers epochs <= 1, segment 2 survives.
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        assert!(state.snapshot.is_some());
        let epochs: Vec<u64> = state.sealed_segments.iter().map(|s| s.epoch).collect();
        assert_eq!(epochs, vec![2]);
        assert_eq!(state.log.epoch_base(), 2);
        assert_eq!(
            state.log.base(),
            RecoveredProgress {
                events: 2,
                committed: 2,
                rejected: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_tail_segments_survive_reopen() {
        let dir = temp_dir("pending");
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            append_event(&state.log, 1);
            state.log.seal().unwrap();
            append_event(&state.log, 2);
            // crash mid-batch: no seal
        }
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        assert_eq!(state.sealed_segments.len(), 1);
        let pending = state.pending_segment.expect("tail must survive");
        assert_eq!(pending.epoch, 1);
        let decoded = wal::read_segment::<u64>(&pending.path).unwrap();
        assert_eq!(decoded.events, vec![2]);
        // And the log keeps appending to that very segment.
        assert_eq!(state.log.pending_records(), 1);
        append_event(&state.log, 3);
        assert_eq!(state.log.seal().unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_gaps_are_rejected() {
        let dir = temp_dir("gap");
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            for epoch in 0..3u64 {
                append_event(&state.log, epoch);
                state.log.seal().unwrap();
            }
        }
        // Delete the middle segment: replay would silently skip its events.
        fs::remove_file(dir.join(WAL_SUBDIR).join("segment-000000000001.twal")).unwrap();
        assert!(matches!(
            RecoveryCoordinator::new(&dir).open(),
            Err(StateError::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_cadence_follows_absolute_epochs() {
        let dir = temp_dir("cadence");
        let state = RecoveryCoordinator::new(&dir)
            .options(RecoveryOptions {
                checkpoint_every: 3,
                ..RecoveryOptions::default()
            })
            .open()
            .unwrap();
        let decisions: Vec<bool> = (0..7).map(|e| state.log.should_checkpoint(e)).collect();
        assert_eq!(
            decisions,
            vec![false, false, true, false, false, true, false]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_numbering_survives_a_fully_truncated_wal() {
        // checkpoint covers epoch 1 and truncation removed every segment;
        // reopening must resume numbering at 2, not restart at 0 (restarted
        // low epochs would be mistaken for covered and truncated on the
        // *next* recovery).
        let dir = temp_dir("full-truncation");
        let store = sample_store();
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            for epoch in 0..2u64 {
                append_event(&state.log, epoch);
                state.log.seal().unwrap();
            }
            state
                .log
                .checkpoint(
                    &store,
                    CheckpointManifest {
                        epoch: 1,
                        events: 2,
                        committed: 2,
                        rejected: 0,
                    },
                )
                .unwrap();
        }
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        assert!(state.sealed_segments.is_empty());
        assert_eq!(state.log.epoch_base(), 2);
        append_event(&state.log, 9);
        assert_eq!(
            state.log.seal().unwrap(),
            2,
            "numbering resumes after the checkpoint"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_parameter_meta_is_stamped_and_validated() {
        let dir = temp_dir("meta");
        let meta = |interval: u64| {
            RecoveryCoordinator::new(&dir).options(RecoveryOptions {
                meta: Some(DurableMeta {
                    punctuation_interval: interval,
                }),
                ..RecoveryOptions::default()
            })
        };
        meta(100).open().unwrap(); // stamps
        meta(100).open().unwrap(); // same interval: fine
        match meta(50).open() {
            Err(StateError::InvalidDefinition(msg)) => {
                assert!(msg.contains("100") && msg.contains("50"), "{msg}");
            }
            other => panic!("expected InvalidDefinition, got {other:?}"),
        }
        // Tooling without meta skips the check.
        RecoveryCoordinator::new(&dir).open().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifestless_checkpoint_with_any_wal_data_is_rejected() {
        // A legacy (v1, no-manifest) checkpoint cannot say which epochs it
        // covers, so replaying *any* surviving WAL data on top of it —
        // sealed segments or just the unsealed tail — could double-apply.
        for tail_only in [false, true] {
            let dir = temp_dir(&format!("manifestless-{tail_only}"));
            {
                let state = RecoveryCoordinator::new(&dir).open().unwrap();
                append_event(&state.log, 1);
                if !tail_only {
                    state.log.seal().unwrap();
                }
                state
                    .log
                    .checkpointer()
                    .write_snapshot(&StoreSnapshot::capture(&sample_store()))
                    .unwrap();
            }
            assert!(
                matches!(
                    RecoveryCoordinator::new(&dir).open(),
                    Err(StateError::Corrupted(_))
                ),
                "tail_only = {tail_only}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    fn manifest(epoch: u64, events: u64) -> CheckpointManifest {
        CheckpointManifest {
            epoch,
            events,
            committed: events,
            rejected: 0,
        }
    }

    fn sealed_epochs(dir: &Path) -> Vec<u64> {
        wal::list_segments(&dir.join(WAL_SUBDIR))
            .unwrap()
            .iter()
            .filter(|s| s.sealed)
            .map(|s| s.epoch)
            .collect()
    }

    #[test]
    fn retention_pin_keeps_unshipped_segments_across_checkpoints() {
        // Regression for the lagging-consumer data loss: without a pin,
        // checkpointing epoch 2 deletes segments 0..=2 even though a standby
        // has shipped nothing yet.
        let dir = temp_dir("pin");
        let store = sample_store();
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        let log = state.log;
        let pin = log.pin_retention(0);
        for epoch in 0..4u64 {
            append_event(&log, epoch);
            log.seal().unwrap();
        }
        log.checkpoint(&store, manifest(2, 3)).unwrap();
        assert_eq!(
            sealed_epochs(&dir),
            vec![0, 1, 2, 3],
            "pinned segments must survive checkpoint truncation"
        );

        // The consumer catches up through epoch 1: 0 and 1 become
        // truncatable, 2 and beyond stay.
        log.advance_pin(&pin, 2);
        log.checkpoint(&store, manifest(3, 4)).unwrap();
        assert_eq!(sealed_epochs(&dir), vec![2, 3]);

        // Releasing the pin restores unconditional truncation.
        log.release_pin(pin);
        append_event(&log, 9);
        log.seal().unwrap();
        log.checkpoint(&store, manifest(4, 5)).unwrap();
        assert!(sealed_epochs(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_floor_is_the_minimum_over_pins() {
        let dir = temp_dir("pin-floor");
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        let log = state.log;
        assert_eq!(log.retention_floor(), None);
        let a = log.pin_retention(5);
        let b = log.pin_retention(2);
        assert_eq!(log.retention_floor(), Some(2));
        log.advance_pin(&b, 7);
        assert_eq!(log.retention_floor(), Some(5));
        log.advance_pin(&b, 3); // floors never move backwards
        assert_eq!(log.retention_floor(), Some(5));
        log.release_pin(a);
        assert_eq!(log.retention_floor(), Some(7));
        log.release_pin(b);
        assert_eq!(log.retention_floor(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_roots_are_recorded_only_when_enabled() {
        let dir = temp_dir("roots");
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        let log = state.log;
        assert!(!log.wants_epoch_roots());
        log.enable_epoch_roots();
        log.record_epoch_root(0, 11);
        log.record_epoch_root(1, 22);
        assert_eq!(log.epoch_root(1), Some(22));
        assert_eq!(log.epoch_roots(), vec![(0, 11), (1, 22)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_to_selects_checkpoint_and_segment_range() {
        let dir = temp_dir("pitr");
        let store = sample_store();
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        let log = state.log;
        let pin = log.pin_retention(0); // keep full history for PITR
        for epoch in 0..5u64 {
            append_event(&log, epoch);
            log.seal().unwrap();
            if epoch == 2 {
                log.checkpoint(&store, manifest(2, 3)).unwrap();
            }
        }
        // Target before the checkpoint: replay everything from scratch.
        let pit = RecoveryCoordinator::new(&dir).recover_to(1).unwrap();
        assert!(pit.snapshot.is_none());
        assert_eq!(
            pit.sealed_segments
                .iter()
                .map(|s| s.epoch)
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        // Target exactly at the checkpoint: restore only, no replay.
        let pit = RecoveryCoordinator::new(&dir).recover_to(2).unwrap();
        assert!(pit.snapshot.is_some());
        assert_eq!(pit.base.events, 3);
        assert!(pit.sealed_segments.is_empty());
        // Target past the checkpoint: restore + replay (2, 4].
        let pit = RecoveryCoordinator::new(&dir).recover_to(4).unwrap();
        assert_eq!(
            pit.sealed_segments
                .iter()
                .map(|s| s.epoch)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        // Target beyond durable history is refused.
        assert!(matches!(
            RecoveryCoordinator::new(&dir).recover_to(5),
            Err(StateError::InvalidDefinition(_))
        ));
        log.release_pin(pin);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_to_refuses_an_unsealed_target() {
        let dir = temp_dir("pitr-tail");
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            append_event(&state.log, 1);
            state.log.seal().unwrap();
            append_event(&state.log, 2); // epoch 1 exists only as a tail
        }
        match RecoveryCoordinator::new(&dir).recover_to(1) {
            Err(StateError::InvalidDefinition(msg)) => {
                assert!(msg.contains("unsealed tail"), "{msg}");
            }
            other => panic!("expected InvalidDefinition, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_to_fails_when_history_was_truncated_without_a_pin() {
        let dir = temp_dir("pitr-truncated");
        let store = sample_store();
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            for epoch in 0..4u64 {
                append_event(&state.log, epoch);
                state.log.seal().unwrap();
            }
            // No pin: checkpointing epoch 2 truncates segments 0..=2.
            state.log.checkpoint(&store, manifest(2, 3)).unwrap();
        }
        // Epoch 1 predates the only surviving checkpoint: unrecoverable.
        assert!(RecoveryCoordinator::new(&dir).recover_to(1).is_err());
        // Epoch 3 is still fine (checkpoint at 2 + segment 3).
        let pit = RecoveryCoordinator::new(&dir).recover_to(3).unwrap();
        assert_eq!(pit.sealed_segments.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn takeover_positions_after_the_last_sealed_segment() {
        let dir = temp_dir("takeover");
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            for epoch in 0..3u64 {
                append_event(&state.log, epoch);
                state.log.seal().unwrap();
            }
        }
        let base = RecoveredProgress {
            events: 3,
            committed: 3,
            rejected: 0,
        };
        let log = RecoveryCoordinator::new(&dir)
            .open_for_takeover(base)
            .unwrap();
        assert_eq!(log.epoch_base(), 3);
        assert_eq!(log.base(), base);
        append_event(&log, 9);
        assert_eq!(log.seal().unwrap(), 3, "writes resume at the next epoch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn takeover_refuses_an_unsealed_tail() {
        let dir = temp_dir("takeover-tail");
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            append_event(&state.log, 1);
            state.log.seal().unwrap();
            append_event(&state.log, 2); // tail never sealed
        }
        assert!(matches!(
            RecoveryCoordinator::new(&dir).open_for_takeover(RecoveredProgress::default()),
            Err(StateError::InvalidDefinition(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shipper_hooks_fire_on_execution_and_checkpoint() {
        #[derive(Default)]
        struct Spy {
            segments: Mutex<Vec<(u64, Option<u64>, bool)>>,
            checkpoints: Mutex<Vec<u64>>,
        }
        impl ShipSink for Spy {
            fn segment_executed(&self, epoch: u64, path: &Path, root: Option<u64>) {
                self.segments.lock().push((epoch, root, path.exists()));
            }
            fn checkpoint_written(&self, epoch: u64, path: &Path) {
                assert!(path.exists());
                self.checkpoints.lock().push(epoch);
            }
        }

        let dir = temp_dir("ship-hooks");
        let store = sample_store();
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        let log = state.log;
        let spy = Arc::new(Spy::default());
        log.attach_shipper(&(spy.clone() as Arc<dyn ShipSink>));
        assert!(log.wants_epoch_roots(), "attaching a shipper enables roots");
        for epoch in 0..2u64 {
            append_event(&log, epoch);
            log.seal().unwrap();
            log.record_epoch_root(epoch, 100 + epoch);
        }
        log.checkpoint(&store, manifest(1, 2)).unwrap();
        assert_eq!(
            *spy.segments.lock(),
            vec![(0, Some(100), true), (1, Some(101), true)],
            "segments are announced sealed-on-disk with their roots"
        );
        assert_eq!(*spy.checkpoints.lock(), vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_interrupted_truncation_converges() {
        let dir = temp_dir("idempotent");
        let store = sample_store();
        {
            let state = RecoveryCoordinator::new(&dir).open().unwrap();
            for epoch in 0..2u64 {
                append_event(&state.log, epoch);
                state.log.seal().unwrap();
            }
            // Checkpoint epoch 1 but "crash" before truncation finishes:
            // write the checkpoint file directly, leaving both segments.
            state
                .log
                .checkpointer()
                .write_checkpoint(&Checkpoint {
                    manifest: Some(CheckpointManifest {
                        epoch: 1,
                        events: 2,
                        committed: 2,
                        rejected: 0,
                    }),
                    snapshot: StoreSnapshot::capture(&store),
                })
                .unwrap();
        }
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        assert!(
            state.sealed_segments.is_empty(),
            "covered segments are deleted on open"
        );
        assert_eq!(state.log.epoch_base(), 2);
        assert!(wal::list_segments(&dir.join(WAL_SUBDIR))
            .unwrap()
            .is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
