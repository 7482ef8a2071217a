//! The unified session builder: one entry point for every session mode.
//!
//! [`Engine::session_builder`] is the one way to open a session: a single
//! [`SessionBuilder`] composes orthogonal options —
//! [`SessionBuilder::durable`], [`SessionBuilder::recover`],
//! [`SessionBuilder::pipeline_depth`],
//! [`SessionBuilder::adaptive_punctuation`], [`SessionBuilder::label`] —
//! and yields one [`Session`] type.  `Engine::run` / `Engine::run_offline`
//! remain as thin wrappers for the differential baseline.
//!
//! ```
//! use std::sync::Arc;
//! use tstream_core::prelude::*;
//! # struct Noop;
//! # impl Application for Noop {
//! #     type Payload = u64;
//! #     fn name(&self) -> &'static str { "noop" }
//! #     fn read_write_set(&self, key: &u64) -> ReadWriteSet {
//! #         ReadWriteSet::new().write(StateRef::new(0, *key))
//! #     }
//! #     fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
//! #         txn.read_modify(0, *key, None, |ctx| Ok(ctx.current.clone()));
//! #     }
//! #     fn post_process(&self, _k: &u64, _b: &EventBlotter) -> PostAction {
//! #         PostAction::Emit
//! #     }
//! # }
//! # let table = TableBuilder::new("t")
//! #     .extend((0..4u64).map(|k| (k, Value::Long(0))))
//! #     .build()
//! #     .unwrap();
//! # let store = StateStore::new(vec![table]).unwrap();
//! let engine = Engine::new(EngineConfig::with_executors(2).punctuation(32));
//! let mut session = engine
//!     .session_builder(&Arc::new(Noop), &store, &Scheme::TStream)
//!     .label("reader-7")
//!     .pipeline_depth(2)
//!     .open()
//!     .unwrap();
//! session.push(3).unwrap();
//! let report = session.report().unwrap();
//! assert_eq!(report.events, 1);
//! ```

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use tstream_recovery::{
    read_segment, DurableLog, DurableMeta, RecoveryCoordinator, RecoveryOptions, WalPayload,
};
use tstream_state::{StateError, StateResult, StateStore};
use tstream_txn::Application;

use crate::adaptive::AdaptiveConfig;
use crate::engine::{Engine, Scheme};
use crate::session::{DurableParts, Session, SessionOptions};

/// Durability directories with a live durable session anywhere in this
/// process.  Two concurrent sessions over one directory would interleave
/// WAL appends and desynchronize epochs (the second open even truncates and
/// heals the first session's active tail), so `open_durable` registers the
/// canonicalized directory here and rejects a second open; the guard is
/// released when the session drops.  (Before the session builder this was
/// enforced incidentally — and only per engine — by the exclusive run
/// lease.)
fn open_durable_dirs() -> &'static Mutex<HashSet<PathBuf>> {
    static DIRS: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    DIRS.get_or_init(|| Mutex::new(HashSet::new()))
}

/// RAII registration of one durability directory; carried by the session's
/// `DurableParts` so the directory frees exactly when the session ends.
#[derive(Debug)]
pub(crate) struct DurableDirGuard(PathBuf);

impl DurableDirGuard {
    pub(crate) fn acquire(dir: &Path) -> StateResult<Self> {
        // The coordinator has not run yet, so the directory may not exist;
        // create it first so canonicalization (symlink/relative-path
        // normalization) sees the real path.
        std::fs::create_dir_all(dir)?;
        let canonical = dir.canonicalize()?;
        let mut open = open_durable_dirs().lock();
        if !open.insert(canonical.clone()) {
            return Err(StateError::InvalidDefinition(format!(
                "durability directory {} already has a live durable session in this process; \
                 close it before opening another",
                canonical.display()
            )));
        }
        Ok(DurableDirGuard(canonical))
    }
}

impl Drop for DurableDirGuard {
    fn drop(&mut self) {
        let mut open = open_durable_dirs().lock();
        open.remove(&self.0);
    }
}

/// Type-erased WAL hooks, instantiated where the `P: WalPayload` bound is
/// in scope (inside [`SessionBuilder::durable`]) so neither the builder nor
/// the session needs the bound on its type.
#[derive(Clone, Copy)]
struct WalHooks<P> {
    append: fn(&DurableLog, &P) -> StateResult<()>,
    read: fn(&Path) -> StateResult<Vec<P>>,
}

/// The durable half of a builder: where the log lives plus the payload
/// codec hooks.
#[derive(Clone)]
struct DurableRequest<P> {
    dir: PathBuf,
    hooks: WalHooks<P>,
}

/// Composable configuration of one [`Session`], created by
/// [`Engine::session_builder`].
///
/// Every option is orthogonal; [`SessionBuilder::open`] validates the
/// combination and opens the session.  The builder borrows the engine, so
/// N builders may be opened concurrently — their sessions multiplex over
/// the engine's shared executor pool.
#[derive(Clone)]
pub struct SessionBuilder<'e, A: Application> {
    engine: &'e Engine,
    app: Arc<A>,
    store: Arc<StateStore>,
    scheme: Scheme,
    label: Option<String>,
    pipeline_depth: Option<usize>,
    adaptive: Option<AdaptiveConfig>,
    durable: Option<DurableRequest<A::Payload>>,
    recover: bool,
}

impl<A: Application> std::fmt::Debug for SessionBuilder<'_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("app", &self.app.name())
            .field("scheme", &self.scheme)
            .field("label", &self.label)
            .field("pipeline_depth", &self.pipeline_depth)
            .field("adaptive", &self.adaptive.is_some())
            .field("durable", &self.durable.as_ref().map(|d| d.dir.clone()))
            .field("recover", &self.recover)
            .finish()
    }
}

impl<'e, A: Application> SessionBuilder<'e, A> {
    pub(crate) fn new(
        engine: &'e Engine,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        scheme: &Scheme,
    ) -> Self {
        SessionBuilder {
            engine,
            app: app.clone(),
            store: store.clone(),
            scheme: scheme.clone(),
            label: None,
            pipeline_depth: None,
            adaptive: None,
            durable: None,
            recover: false,
        }
    }

    /// Attach a label to the session: it is stamped into the
    /// [`crate::RunReport`] (`label` field) so multi-session output stays
    /// attributable.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Override the session's staging-queue depth: how many completed
    /// punctuation batches may wait between this session's ingestion and
    /// the shared executor pool before `push` blocks (per-session
    /// backpressure; clamped to ≥ 1).  Defaults to the engine's
    /// [`crate::EngineConfig::pipeline_depth`].
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = Some(depth.max(1));
        self
    }

    /// Enable adaptive punctuation with the default
    /// [`AdaptiveConfig`]: after every batch the session feeds the measured
    /// window throughput (and p99, when a latency bound is configured) into
    /// an [`crate::AdaptiveIntervalController`] and retunes the punctuation
    /// interval of the *next* batch.  The search starts from the engine's
    /// configured interval.
    ///
    /// Adaptive sessions trade the fixed batch boundaries of a plain
    /// session for throughput: results remain timestamp-order equivalent,
    /// but batch sizes (and hence run timing) become load-dependent.
    /// Incompatible with [`SessionBuilder::durable`], whose WAL pins one
    /// punctuation interval per directory.
    pub fn adaptive_punctuation(self) -> Self {
        self.adaptive_punctuation_with(AdaptiveConfig::default())
    }

    /// [`SessionBuilder::adaptive_punctuation`] with explicit controller
    /// bounds / steps / latency bound.
    pub fn adaptive_punctuation_with(mut self, config: AdaptiveConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Make the session **durable** over `dir`: every pushed event is
    /// write-ahead logged before routing, the WAL segment seals before a
    /// completed batch dispatches, and the executor leader writes
    /// epoch-stamped checkpoints on the engine's
    /// [`crate::EngineConfig::checkpoint_every`] cadence (fsync per
    /// [`crate::EngineConfig::fsync`]).
    ///
    /// On a fresh directory this starts an empty log; on a directory with
    /// existing durability state it restores the newest checkpoint, replays
    /// the surviving WAL segments and resumes — the same semantics as
    /// [`SessionBuilder::recover`], so one entry point serves both the
    /// `--durable` and `--recover` paths.  The store must be freshly built
    /// with the run's schema (and shard count); a recovered snapshot
    /// overwrites every committed value.
    ///
    /// A directory holds at most **one** live durable session per process:
    /// while one is open, [`SessionBuilder::open`] over the same directory
    /// fails with [`StateError::InvalidDefinition`] — concurrent sessions
    /// must use disjoint directories, just like disjoint stores.
    pub fn durable(mut self, dir: impl AsRef<Path>) -> Self
    where
        A::Payload: WalPayload,
    {
        self.durable = Some(DurableRequest {
            dir: dir.as_ref().to_path_buf(),
            hooks: WalHooks {
                append: |log, payload| log.append(payload),
                read: |path| read_segment::<A::Payload>(path).map(|decoded| decoded.events),
            },
        });
        self
    }

    /// Declare that this open **recovers** a crashed durable run: restores
    /// the newest epoch-stamped checkpoint into the store, replays the
    /// surviving WAL segments through the normal streaming path (dual-mode
    /// scheduling unchanged), feeds the unsealed tail back into the forming
    /// batch, and resumes live ingestion.
    ///
    /// Recovery is idempotent — crash during recovery and reopening
    /// converges — and exactly-once: the recovered final state and the
    /// cumulative counts of [`Session::report`] are byte-identical to an
    /// uninterrupted run over the same input.
    ///
    /// This is documentation-by-construction over
    /// [`SessionBuilder::durable`] (which already recovers whatever the
    /// directory holds); [`SessionBuilder::open`] rejects `recover()`
    /// without a durable directory.
    pub fn recover(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Validate the option combination and open the [`Session`].
    ///
    /// # Errors
    ///
    /// * [`StateError::InvalidDefinition`] for contradictory options:
    ///   `recover()` without `durable(dir)`, or `adaptive_punctuation()`
    ///   combined with `durable(dir)` (the WAL pins one punctuation
    ///   interval per directory);
    /// * any durability error surfaced while opening, restoring or
    ///   replaying the directory.  Plain sessions cannot fail to open.
    pub fn open(self) -> StateResult<Session<'e, A>> {
        if self.recover && self.durable.is_none() {
            return Err(StateError::InvalidDefinition(
                "SessionBuilder::recover() requires a durable directory — call .durable(dir) too"
                    .into(),
            ));
        }
        if self.adaptive.is_some() && self.durable.is_some() {
            return Err(StateError::InvalidDefinition(
                "adaptive punctuation cannot be combined with a durable session: the WAL pins \
                 one punctuation interval per directory"
                    .into(),
            ));
        }
        let options = SessionOptions {
            label: self.label,
            staging_depth: self.pipeline_depth,
            adaptive: self.adaptive,
        };
        match self.durable {
            None => Ok(Session::open(
                self.engine,
                &self.app,
                &self.store,
                &self.scheme,
                None,
                options,
            )),
            Some(request) => open_durable(
                self.engine,
                &request.dir,
                &self.app,
                &self.store,
                &self.scheme,
                request.hooks,
                options,
            ),
        }
    }
}

/// Open (or recover) a durable session: restore the newest checkpoint,
/// replay surviving sealed segments through the normal session path — one
/// segment, one batch, so batch formation and routing are identical to the
/// original run — feed the unsealed tail back into the forming batch, and
/// return the live session.
fn open_durable<'e, A: Application>(
    engine: &'e Engine,
    dir: &Path,
    app: &Arc<A>,
    store: &Arc<StateStore>,
    scheme: &Scheme,
    hooks: WalHooks<A::Payload>,
    options: SessionOptions,
) -> StateResult<Session<'e, A>> {
    // Claim the directory before the coordinator touches it: a second
    // durable open would truncate/heal the live session's active tail.
    let dir_guard = DurableDirGuard::acquire(dir)?;
    let config = engine.config();
    let recovered = RecoveryCoordinator::new(dir)
        .options(RecoveryOptions {
            fsync: config.fsync,
            checkpoint_every: config.checkpoint_every.max(1) as u64,
            retain: 2,
            // Epoch alignment assumes one segment = one punctuation batch,
            // so the interval is pinned to the directory.
            meta: Some(DurableMeta {
                punctuation_interval: config.punctuation_interval.max(1) as u64,
            }),
            group: config.group_commit(),
        })
        .open()?;
    // Restore the checkpointed state before the session resets the store's
    // synchronisation state and replay re-executes on top.
    if let Some(snapshot) = &recovered.snapshot {
        snapshot.restore(store)?;
    }
    let mut log = recovered.log;
    // Full group-commit windows that the policy syncs flush on the engine's
    // spawn-once WAL-writer thread instead of the ingestion thread.
    log.attach_group_executor(Arc::new(engine.pool().wal_writer(engine.obs())));
    let mut session = Session::open(
        engine,
        app,
        store,
        scheme,
        Some(DurableParts {
            log: Arc::new(log),
            append: hooks.append,
            _dir_guard: dir_guard,
        }),
        options,
    );

    // Replay surviving sealed segments through the normal path.  Every
    // sealed segment was cut at a punctuation (or an explicit flush), so it
    // replays as exactly one batch — forcing the partial dispatch at each
    // segment end reproduces the original batch boundaries, and with them
    // routing and results.  Nothing is re-appended to the WAL: these events
    // are already durable.  Replay mode excludes these batches from latency
    // sampling and adaptive observations: their arrival instants are
    // re-ingestion times, not original arrivals.
    session.set_replay(true);
    for info in &recovered.sealed_segments {
        for payload in (hooks.read)(&info.path)? {
            if let Some(batch) = session.ingest(payload) {
                session.dispatch_now(batch);
            }
        }
        if let Some(batch) = session.take_partial() {
            session.dispatch_now(batch);
        }
    }
    // The unsealed tail re-enters the forming batch; the log keeps
    // appending to that very segment, so alignment is preserved.  If the
    // crash hit between batch completion and seal, the tail already holds a
    // full batch: it seals now, then dispatches.  Tail events keep the
    // replay taint sticky: the mixed batch that live pushes later complete
    // is excluded from sampling as a whole.
    if let Some(info) = &recovered.pending_segment {
        for payload in (hooks.read)(&info.path)? {
            session.ingest_logged(payload)?;
        }
    }
    session.set_replay(false);
    Ok(session)
}

impl Engine {
    /// Start building a session over `app` × `store` × `scheme`: the single
    /// entry point for plain, durable, recovering, adaptive and labelled
    /// sessions (see [`SessionBuilder`]).
    ///
    /// Sessions of one engine run **concurrently** over its shared executor
    /// pool: the runtime's scheduler interleaves their punctuation batches
    /// fairly (round-robin at batch granularity) with per-session
    /// backpressure, and opening or closing sessions never spawns threads.
    pub fn session_builder<'e, A: Application>(
        &'e self,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        scheme: &Scheme,
    ) -> SessionBuilder<'e, A> {
        SessionBuilder::new(self, app, store, scheme)
    }
}
