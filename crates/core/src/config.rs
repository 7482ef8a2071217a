//! Configuration of the TStream engine.

use tstream_obs::ObsConfig;
use tstream_recovery::{FsyncPolicy, GroupCommitConfig};
use tstream_state::MAX_SHARDS;
use tstream_stream::EventRouting;
use tstream_txn::NumaModel;

/// How operation chains are placed over executors on a multi-socket machine
/// (Section IV-E, "NUMA-Aware Processing", evaluated in Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainPlacement {
    /// One pool of operation chains per executor ("per core"); decomposed
    /// operations are routed to a fixed executor by hashing, and each
    /// executor processes only its own pool.  Minimises cross-core
    /// communication; may suffer from load imbalance.
    SharedNothing,
    /// A single pool shared by every executor; chains are claimed dynamically
    /// (work stealing) or split statically.
    SharedEverything,
    /// One pool per synthetic socket, shared by that socket's executors.
    SharedPerSocket,
}

impl ChainPlacement {
    /// All placements, in the order Figure 14 reports them.
    pub const ALL: [ChainPlacement; 3] = [
        ChainPlacement::SharedNothing,
        ChainPlacement::SharedEverything,
        ChainPlacement::SharedPerSocket,
    ];

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChainPlacement::SharedNothing => "shared-nothing",
            ChainPlacement::SharedEverything => "shared-everything",
            ChainPlacement::SharedPerSocket => "shared-per-socket",
        }
    }
}

/// How cross-chain data dependencies are resolved during state-access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependencyResolution {
    /// The paper's iterative process: in every round, process in parallel all
    /// chains whose dependencies have already been fully processed; repeat.
    /// Falls back to fine-grained scheduling if a dependency cycle between
    /// chains remains.
    Rounds,
    /// Fine-grained scheduling: every chain is processed immediately, and an
    /// operation with a dependency waits only until the depended-upon chain
    /// has advanced past all writes with smaller timestamps.
    FineGrained,
}

impl DependencyResolution {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            DependencyResolution::Rounds => "rounds",
            DependencyResolution::FineGrained => "fine-grained",
        }
    }
}

/// Configuration of the TStream execution strategy.
#[derive(Debug, Clone, Copy)]
pub struct TStreamConfig {
    /// Chain placement over executors / sockets.
    pub placement: ChainPlacement,
    /// Whether executors in a sharing group claim chains dynamically
    /// (work stealing) instead of a static split.
    pub work_stealing: bool,
    /// Dependency-resolution strategy.
    pub resolution: DependencyResolution,
}

impl Default for TStreamConfig {
    fn default() -> Self {
        // The paper's default execution configuration (Section VI-B).
        TStreamConfig {
            placement: ChainPlacement::SharedNothing,
            work_stealing: false,
            resolution: DependencyResolution::FineGrained,
        }
    }
}

/// Configuration of a full engine run, shared by every scheme.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of executor threads ("cores" in the paper's figures).
    pub executors: usize,
    /// Punctuation interval in events (the paper's default is 500).
    pub punctuation_interval: usize,
    /// Cores per synthetic socket (the paper's machine has 10).
    pub cores_per_socket: usize,
    /// Number of state shards the run partitions chains (and, with
    /// shard-affine routing, events) over.  Should match the shard count of
    /// the [`tstream_state::StateStore`] the run executes against so chain
    /// routing and physical record placement agree; `1` reproduces the
    /// unsharded seed behaviour.
    pub num_shards: usize,
    /// How input events are assigned to executors: the paper's round-robin
    /// shuffle, or shard-affine routing onto the owners of their key shards.
    pub event_routing: EventRouting,
    /// NUMA model under which remote accesses are counted.
    pub numa: NumaModel,
    /// TStream-specific options (ignored by eager schemes).
    pub tstream: TStreamConfig,
    /// Depth of each executor's batch queue in the pipelined runtime: how
    /// many batches may sit between ingestion and execution per executor
    /// before `push` blocks (backpressure).  Fixed when the engine's pool is
    /// spawned; clamped to at least 1.
    pub pipeline_depth: usize,
    /// When durable sessions force WAL appends to stable storage (ignored by
    /// non-durable runs).  The default syncs once per sealed batch.
    pub fsync: FsyncPolicy,
    /// A durable session writes an epoch-stamped checkpoint every
    /// `checkpoint_every` punctuation batches (clamped to at least 1).
    /// Between checkpoints the WAL alone carries durability, so larger
    /// values trade recovery replay time for run-time throughput.
    pub checkpoint_every: usize,
    /// Group-commit window of durable sessions, in events: WAL appends
    /// buffer in the writer's reusable frame buffer and flush (and, under
    /// [`FsyncPolicy::Always`], sync) when this many events accumulate.
    /// `1` degenerates to the pre-group-commit write-per-append behaviour.
    pub group_window_events: u64,
    /// Group-commit window of durable sessions, in buffered frame bytes:
    /// the window also flushes when the frame buffer reaches this size, so
    /// large payloads cannot grow the buffer unboundedly.
    pub group_window_bytes: u64,
    /// Observability: the metrics hub and flight recorder
    /// ([`tstream_obs::Obs`]) built for every engine.  On by default — the
    /// hub is lock-free relaxed atomics and the recorder writes to
    /// fixed-size per-thread rings, so the instrumented engine stays within
    /// the benchmarked overhead bound.  [`ObsConfig::disabled`] turns every
    /// recording call into a single branch.
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            executors: 1,
            punctuation_interval: 500,
            cores_per_socket: 10,
            num_shards: 1,
            event_routing: EventRouting::RoundRobin,
            numa: NumaModel::disabled(),
            tstream: TStreamConfig::default(),
            pipeline_depth: 4,
            fsync: FsyncPolicy::default(),
            checkpoint_every: 1,
            group_window_events: GroupCommitConfig::default().window_events,
            group_window_bytes: GroupCommitConfig::default().window_bytes,
            obs: ObsConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Convenience constructor for the common "N executors, default rest"
    /// case used throughout tests and benches.
    pub fn with_executors(executors: usize) -> Self {
        EngineConfig {
            executors: executors.max(1),
            ..Default::default()
        }
    }

    /// Set the punctuation interval.
    pub fn punctuation(mut self, interval: usize) -> Self {
        self.punctuation_interval = interval.max(1);
        self
    }

    /// Set the TStream chain placement.
    pub fn placement(mut self, placement: ChainPlacement) -> Self {
        self.tstream.placement = placement;
        self
    }

    /// Enable or disable work stealing for shared placements.
    pub fn work_stealing(mut self, enabled: bool) -> Self {
        self.tstream.work_stealing = enabled;
        self
    }

    /// Set the dependency-resolution strategy.
    pub fn resolution(mut self, resolution: DependencyResolution) -> Self {
        self.tstream.resolution = resolution;
        self
    }

    /// Set the NUMA model.
    pub fn numa(mut self, numa: NumaModel) -> Self {
        self.numa = numa;
        self
    }

    /// Set the number of state shards (clamped to `1..=MAX_SHARDS`).
    pub fn shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards.clamp(1, MAX_SHARDS as usize);
        self
    }

    /// Set the event-routing strategy.
    pub fn event_routing(mut self, routing: EventRouting) -> Self {
        self.event_routing = routing;
        self
    }

    /// Set the per-executor batch queue depth of the pipelined runtime
    /// (clamped to at least 1).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Set the WAL fsync policy of durable sessions.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Set the checkpoint cadence of durable sessions, in punctuation
    /// batches (clamped to at least 1).
    pub fn checkpoint_every(mut self, batches: usize) -> Self {
        self.checkpoint_every = batches.max(1);
        self
    }

    /// Set the group-commit window of durable sessions: the WAL flushes
    /// (and under [`FsyncPolicy::Always`] syncs) whenever `events` appends
    /// or `bytes` buffered frame bytes accumulate, whichever comes first
    /// (both clamped to at least 1).  `(1, _)` restores write-per-append.
    pub fn group_window(mut self, events: u64, bytes: u64) -> Self {
        self.group_window_events = events.max(1);
        self.group_window_bytes = bytes.max(1);
        self
    }

    /// Set the observability configuration (use [`ObsConfig::disabled`] to
    /// turn the metrics hub and flight recorder off).
    pub fn observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// The group-commit window as the recovery layer's config type.
    pub fn group_commit(&self) -> GroupCommitConfig {
        GroupCommitConfig {
            window_events: self.group_window_events,
            window_bytes: self.group_window_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.punctuation_interval, 500);
        assert_eq!(cfg.cores_per_socket, 10);
        assert_eq!(cfg.num_shards, 1, "unsharded by default, like the seed");
        assert_eq!(cfg.event_routing, EventRouting::RoundRobin);
        assert_eq!(cfg.pipeline_depth, 4);
        assert_eq!(cfg.fsync, FsyncPolicy::OnSeal);
        assert_eq!(cfg.checkpoint_every, 1);
        assert_eq!(cfg.group_window_events, 128);
        assert_eq!(cfg.group_window_bytes, 32 * 1024);
        assert!(cfg.obs.enabled, "observability is on by default");
        assert_eq!(cfg.tstream.placement, ChainPlacement::SharedNothing);
        assert!(!cfg.tstream.work_stealing);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = EngineConfig::with_executors(8)
            .punctuation(100)
            .placement(ChainPlacement::SharedPerSocket)
            .work_stealing(true)
            .resolution(DependencyResolution::Rounds);
        assert_eq!(cfg.executors, 8);
        assert_eq!(cfg.punctuation_interval, 100);
        assert_eq!(cfg.tstream.placement, ChainPlacement::SharedPerSocket);
        assert!(cfg.tstream.work_stealing);
        assert_eq!(cfg.tstream.resolution, DependencyResolution::Rounds);
    }

    #[test]
    fn degenerate_values_are_clamped() {
        let cfg = EngineConfig::with_executors(0)
            .punctuation(0)
            .shards(0)
            .pipeline_depth(0)
            .checkpoint_every(0);
        assert_eq!(cfg.executors, 1);
        assert_eq!(cfg.punctuation_interval, 1);
        assert_eq!(cfg.num_shards, 1);
        assert_eq!(cfg.pipeline_depth, 1);
        assert_eq!(cfg.checkpoint_every, 1);
        assert_eq!(
            EngineConfig::default().fsync(FsyncPolicy::Always).fsync,
            FsyncPolicy::Always
        );
        assert_eq!(
            EngineConfig::default().shards(100_000).num_shards,
            MAX_SHARDS as usize
        );
        let cfg = EngineConfig::default().group_window(0, 0);
        assert_eq!((cfg.group_window_events, cfg.group_window_bytes), (1, 1));
        let cfg = EngineConfig::default().group_window(256, 64 * 1024);
        assert_eq!(cfg.group_commit().window_events, 256);
        assert_eq!(cfg.group_commit().window_bytes, 64 * 1024);
    }

    #[test]
    fn shard_and_routing_builders_compose() {
        let cfg = EngineConfig::with_executors(4)
            .shards(8)
            .event_routing(EventRouting::ShardAffine);
        assert_eq!(cfg.num_shards, 8);
        assert_eq!(cfg.event_routing, EventRouting::ShardAffine);
    }

    #[test]
    fn observability_builder_composes() {
        let cfg = EngineConfig::with_executors(2).observability(ObsConfig::disabled());
        assert!(!cfg.obs.enabled);
        let cfg = EngineConfig::default().observability(ObsConfig::new().flight_capacity(64));
        assert!(cfg.obs.enabled);
        assert_eq!(cfg.obs.flight_capacity, 64);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ChainPlacement::SharedNothing.label(), "shared-nothing");
        assert_eq!(ChainPlacement::ALL.len(), 3);
        assert_eq!(DependencyResolution::FineGrained.label(), "fine-grained");
    }
}
