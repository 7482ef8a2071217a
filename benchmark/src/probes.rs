//! The traced run: one closed phase with a span around every boundary the
//! benchmark can see, plus a standalone probe per rung of the event journey,
//! each over the workload's own first batches and each calling only public
//! functions of the layer it times.  Spans inside the engine are a later
//! issue; this is the ladder as seen from outside.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tstream::core::prelude::*;
use tstream::core::restructure::{self, BatchAbortLog, RestructureContext};
use tstream::core::{ChainPlacement, ChainPoolSet, DependencyResolution, ObsConfig};
use tstream::recovery::{
    list_segments, read_segment, DurableMeta, FsyncPolicy, GroupCommitConfig, RecoveryOptions,
};
use tstream::replica::transport::{decode_item, encode_item};
use tstream::replica::{ChannelTransport, ShipItem, Shipper, StandbyEngine};
use tstream::skiplist::ConcurrentSkipList;
use tstream::state::checkpoint::CHECKPOINT_EXTENSION;
use tstream::state::{state_root, Record, StateResult, TableId};
use tstream::stream::executor::{ExecutorId, ExecutorLayout};
use tstream::stream::metrics::Breakdown;
use tstream::stream::sink::Sink;
use tstream::stream::source::BatchBuilder;
use tstream::txn::exec::{execute_transaction_body, ValueMode};
use tstream::txn::{ExecEnv, StateTransaction, INVALID_SLOT};

use crate::host;
use crate::json::Json;
use crate::metrics::Values;
use crate::phases::{closed_phase, closed_run, ClosedRun, Job, PhaseDir, PushTrace, RecoveryRun};
use crate::stamped::{tag, Callback, Recorder, Stamped, CALLBACKS};
use crate::stats::{median, ms, percentile};
use crate::workloads::{Workload, CHECKPOINT_EVERY, PUNCTUATION};

/// Batches each standalone probe runs over (fewer if the input is shorter).
const PROBE_BATCHES: usize = 64;

/// Batches whose spans the trace file keeps one by one; the rest only add to
/// the per-callback totals.  Eight batches are 20 000 spans.
const FULL_SPAN_BATCHES: usize = 8;

/// Batches the replication probe ships to a standby.
const REPLICA_BATCHES: usize = 16;

/// Repetitions of each millisecond-scale state probe; the median is kept.
const STATE_REPS: usize = 5;

/// Everything the traced run measured.
pub struct Traced {
    executors: usize,
    durable: bool,
    events: usize,
    traced: ClosedRun,
    recorder: Arc<Recorder>,
    push: PushTrace,
    obs_off_keps: f64,
    scrape_us: f64,
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Time `f`.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let result = f();
    (result, t.elapsed())
}

/// Median duration of `reps` runs of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    median(&mut (0..reps).map(|_| ms(f())).collect::<Vec<_>>())
}

/// The traced closed phase, the obs-off closed phase, and every probe; the
/// probes set their metrics in `values` as they go.
pub fn traced_run<A: Application>(
    w: &Workload,
    job: &Job<A>,
    inputs: &[A::Payload],
    recovery: &RecoveryRun,
    scratch: &Path,
    values: &mut Values,
) -> StateResult<Traced>
where
    A::Payload: WalPayload,
{
    let events = inputs.len();

    // ---- The closed phase again, observed: every push timed, every
    // application callback a span.
    let recorder = Recorder::for_spans((FULL_SPAN_BATCHES * PUNCTUATION).min(events));
    let app = Stamped::new(job.app.clone(), recorder.clone());
    let store = (job.build_store)();
    // Tagged and cloned before the clock starts, then moved into `push`.
    let tagged: Vec<_> = tag(inputs.iter().cloned()).collect();
    let mut push = PushTrace::new(recorder.epoch(), events);
    let dir = PhaseDir::new(w, scratch, "traced");
    let traced = closed_run(
        w,
        &app,
        &store,
        tagged.into_iter(),
        ObsConfig::new(),
        dir.path(),
        Some(&mut push),
    )?;
    drop(dir);

    // ---- Observability's own cost: the untraced closed phase once more,
    // with the metrics hub and flight recorder off.
    let obs_off = closed_phase(
        w,
        job,
        events,
        ObsConfig::disabled(),
        PhaseDir::new(w, scratch, "obs-off").path(),
    )?;
    let scrape_us = {
        let engine = Engine::new(w.engine_config(ObsConfig::new()));
        let mut scrapes: Vec<f64> = (0..101)
            .map(|_| ns(timed(|| std::hint::black_box(engine.metrics_text())).1) / 1e3)
            .collect();
        median(&mut scrapes)
    };

    let probe_events = (PROBE_BATCHES * PUNCTUATION).min(events);
    stream_rungs(values, w, &inputs[..probe_events]);
    let (targets, chain_keys) = txn_and_core_rungs(values, w, job, &inputs[..probe_events]);
    state_rungs(values, job, &targets, &traced, recovery, scratch)?;
    recovery_rungs::<A>(values, job, &inputs[..probe_events], recovery, scratch)?;
    replica_rungs(values, w, job, inputs, recovery, scratch)?;
    skiplist_rungs(values, &chain_keys);

    Ok(Traced {
        executors: w.executors,
        durable: w.durable,
        events,
        traced,
        recorder,
        push,
        obs_off_keps: obs_off.throughput_keps(),
        scrape_us,
    })
}

/// `stream`: batch formation and the sink, on their own.
fn stream_rungs<P: Clone>(values: &mut Values, w: &Workload, inputs: &[P]) {
    let executors = w.executors;
    let mut builder: BatchBuilder<P, ()> = BatchBuilder::new(
        executors,
        PUNCTUATION,
        Box::new(move |_event, in_batch| (in_batch % executors, ())),
    );
    let payloads = inputs.to_vec();
    let mut batches = Vec::with_capacity(inputs.len() / PUNCTUATION + 1);
    let ((), spent) = timed(|| {
        for payload in payloads {
            batches.extend(builder.push(payload));
        }
        batches.extend(builder.finish());
    });
    values.set(
        "stream.batch_build_ns_per_event",
        ns(spent) / inputs.len() as f64,
    );
    drop(batches);

    let (stats, spent) = timed(|| {
        let mut sink = Sink::new();
        for i in 0..inputs.len() as u64 {
            sink.emit_with_latency(Duration::from_nanos(1_000 + i));
        }
        Sink::merge([sink])
    });
    assert_eq!(stats.emitted(), inputs.len() as u64);
    values.set(
        "stream.sink_emit_ns_per_event",
        ns(spent) / inputs.len() as f64,
    );
}

/// One operation's address, as the state probes replay it.
struct Target {
    table: u32,
    key: u64,
    slot: u32,
}

/// Build (pre-process + state access) and slot-resolve the transaction of
/// every event of one batch, the way the engine's executors do.
fn build_batch<A: Application>(
    app: &A,
    store: &StateStore,
    first_ts: u64,
    batch: &[A::Payload],
    build_time: &mut Duration,
    resolve_time: &mut Duration,
) -> Vec<StateTransaction> {
    let (mut txns, spent) = timed(|| {
        batch
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                let mut builder = TxnBuilder::new(first_ts + i as u64);
                if app.pre_process(payload) {
                    app.state_access(payload, &mut builder);
                }
                builder.build().0
            })
            .collect::<Vec<_>>()
    });
    *build_time += spent;
    let ((), spent) = timed(|| {
        for txn in &mut txns {
            txn.resolve_slots(|state| {
                store
                    .try_slot_of(TableId(state.table), state.key)
                    .unwrap_or(INVALID_SLOT)
            });
        }
    });
    *resolve_time += spent;
    txns
}

/// `txn` and `core`: transaction build, slot resolution, the serial
/// execution floor, and the restructuring path — chain insert, chain
/// evaluation, serial replay — driven batch by batch exactly as
/// `tstream_step` drives it.  Returns the operations' addresses and, per
/// batch and chain, the chain's skip-list keys, for the probes that follow.
fn txn_and_core_rungs<A: Application>(
    values: &mut Values,
    w: &Workload,
    job: &Job<A>,
    inputs: &[A::Payload],
) -> (Vec<Target>, Vec<Vec<(u64, u32)>>) {
    let app = job.app.as_ref();
    let env = ExecEnv::single();
    let mut breakdown = Breakdown::new();

    // Serial floor: build, resolve, execute in timestamp order (No-Lock).
    let store = (job.build_store)();
    let (mut build, mut resolve, mut serial) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut ops = 0usize;
    let mut targets = Vec::new();
    for (b, batch) in inputs.chunks(PUNCTUATION).enumerate() {
        let first_ts = (b * PUNCTUATION) as u64;
        let txns = build_batch(app, &store, first_ts, batch, &mut build, &mut resolve);
        for txn in &txns {
            ops += txn.ops.len();
            targets.extend(txn.ops.iter().map(|op| Target {
                table: op.target.table,
                key: op.target.key,
                slot: op.slot,
            }));
        }
        let ((), spent) = timed(|| {
            for txn in &txns {
                // An `Err` is an application-level abort, rolled back.
                let _ = execute_transaction_body(
                    &txn.ops,
                    &store,
                    &env,
                    ValueMode::Committed,
                    &mut breakdown,
                );
            }
        });
        serial += spent;
    }
    let events = inputs.len() as f64;
    values.set("txn.build_ns_per_event", ns(build) / events);
    values.set(
        "txn.resolve_slots_ns_per_op",
        ns(resolve) / ops.max(1) as f64,
    );
    values.set("txn.exec_serial_ns_per_event", ns(serial) / events);
    values.set("txn.ops_per_event", ops as f64 / events);

    // Restructuring path over a fresh store, pools recycled across batches.
    let store = (job.build_store)();
    let pools = ChainPoolSet::new(
        ChainPlacement::SharedNothing,
        ExecutorLayout::new(1, 10),
        w.shards,
    );
    let abort_log = BatchAbortLog::new();
    let (mut insert, mut eval, mut replay) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut replayed_events = 0usize;
    let mut chain_keys: Vec<Vec<(u64, u32)>> = Vec::new();
    for (b, batch) in inputs.chunks(PUNCTUATION).enumerate() {
        let first_ts = (b * PUNCTUATION) as u64;
        // Built and resolved again, untimed: inserting consumes them.
        let (mut untimed_build, mut untimed_resolve) = (Duration::ZERO, Duration::ZERO);
        let txns = build_batch(
            app,
            &store,
            first_ts,
            batch,
            &mut untimed_build,
            &mut untimed_resolve,
        );
        let ((), spent) = timed(|| {
            for txn in txns {
                for op in txn.ops {
                    let chain = pools.chain_for(op.target);
                    if let Some(dep) = op.dependency {
                        chain.add_dependency(dep);
                        pools.chain_for(dep).mark_depended_upon();
                    }
                    chain.insert(op);
                }
            }
        });
        insert += spent;
        for pool in pools.pools() {
            pool.for_each_chain(|chain| {
                chain_keys.push(chain.iter().map(|op| (op.ts, op.op_index)).collect());
            });
        }
        let ((), spent) = timed(|| {
            let ctx = RestructureContext {
                pools: &pools,
                store: &store,
                env,
                resolution: DependencyResolution::FineGrained,
                work_stealing: false,
                classify_remote: false,
                single_executor: true,
                abort_log: &abort_log,
            };
            let (_, versioned) = restructure::process_assigned(
                &ctx,
                pools.assignment(ExecutorId(0)),
                &mut breakdown,
            );
            restructure::collapse_versioned(&store, &versioned);
        });
        eval += spent;
        if abort_log.replay_needed() {
            let (_, spent) = timed(|| {
                restructure::replay_batch_serially(&store, &pools, &abort_log, &env, &mut breakdown)
            });
            replay += spent;
            replayed_events += batch.len();
        }
        let ((), spent) = timed(|| {
            pools.clear_all();
            abort_log.clear_batch();
        });
        insert += spent;
    }
    values.set(
        "core.chain_insert_ns_per_op",
        ns(insert) / ops.max(1) as f64,
    );
    values.set("core.chain_eval_ns_per_op", ns(eval) / ops.max(1) as f64);
    values.set(
        "core.replay_ns_per_event",
        ns(replay) / replayed_events.max(1) as f64,
    );
    (targets, chain_keys)
}

/// `state`: record access both ways, the temporary-version cycle, value
/// clones, and the snapshot / checkpoint / restore / root family over the
/// state the traced run ended in.
fn state_rungs<A: Application>(
    values: &mut Values,
    job: &Job<A>,
    targets: &[Target],
    traced: &ClosedRun,
    recovery: &RecoveryRun,
    scratch: &Path,
) -> StateResult<()> {
    let final_state = &traced.outcome.state;
    let store = (job.build_store)();
    final_state.restore(&store)?;
    let ops = targets.len().max(1) as f64;

    let (size, spent) = timed(|| {
        targets
            .iter()
            .filter(|t| t.slot != INVALID_SLOT)
            .map(|t| {
                store
                    .record_at(TableId(t.table), t.slot)
                    .with_committed(|v| v.approx_size())
            })
            .sum::<usize>()
    });
    std::hint::black_box(size);
    values.set("state.record_at_ns_per_op", ns(spent) / ops);
    let (size, spent) = timed(|| {
        targets
            .iter()
            .filter_map(|t| store.record(TableId(t.table), t.key).ok())
            .map(|record| record.with_committed(|v| v.approx_size()))
            .sum::<usize>()
    });
    std::hint::black_box(size);
    values.set("state.record_keyed_ns_per_op", ns(spent) / ops);

    // The workload's own values, as the run left them.
    let finals: Vec<&Value> = final_state
        .tables
        .iter()
        .flat_map(|table| table.entries.iter().map(|(_, value)| value))
        .collect();
    let ((), spent) = timed(|| {
        for value in &finals {
            std::hint::black_box((*value).clone());
        }
    });
    values.set(
        "state.value_clone_ns_per_op",
        ns(spent) / finals.len().max(1) as f64,
    );

    // Install / read / collapse, with the workload's largest value: what a
    // depended-upon chain pays per write.
    let largest = finals
        .iter()
        .max_by_key(|v| v.approx_size())
        .map_or(Value::Long(0), |v| (*v).clone());
    const VERSIONS: u64 = 256;
    let record = Record::new(largest.clone());
    let ((), spent) = timed(|| {
        for ts in 0..VERSIONS {
            record.install_version(ts, largest.clone());
        }
        for ts in 0..VERSIONS {
            std::hint::black_box(record.read_visible(ts + 1));
        }
        record.collapse_versions();
    });
    values.set("state.version_cycle_ns_per_op", ns(spent) / VERSIONS as f64);

    values.set(
        "state.snapshot_capture_ms",
        median_ms(STATE_REPS, || timed(|| StoreSnapshot::capture(&store)).1),
    );
    let snapshot = StoreSnapshot::capture(&store);
    values.set(
        "state.snapshot_encode_ms",
        median_ms(STATE_REPS, || timed(|| snapshot.encode()).1),
    );
    values.set("state.snapshot_bytes", snapshot.encode().len() as f64);
    values.set(
        "state.root_ms",
        median_ms(STATE_REPS, || timed(|| state_root(&store)).1),
    );

    let checkpoint_dir = scratch.join("checkpoint-probe");
    let checkpointer = Checkpointer::new(&checkpoint_dir, 2)?;
    let checkpoint = Checkpoint {
        manifest: Some(CheckpointManifest::default()),
        snapshot,
    };
    let mut writes = Vec::with_capacity(STATE_REPS);
    for _ in 0..STATE_REPS {
        let (written, spent) = timed(|| checkpointer.write_checkpoint(&checkpoint));
        written?;
        writes.push(ms(spent));
    }
    values.set("state.checkpoint_write_ms", median(&mut writes));
    std::fs::remove_dir_all(&checkpoint_dir)?;

    // Restore exactly what recovery restores: the crashed directory's
    // checkpoint (or, when the run was too short to write one, the final
    // state's encoding).
    let bytes = latest_checkpoint_bytes(recovery)?.unwrap_or_else(|| checkpoint.encode());
    let mut restores = Vec::with_capacity(STATE_REPS);
    for _ in 0..STATE_REPS {
        let target = (job.build_store)();
        let (restored, spent) = timed(|| Checkpoint::decode(&bytes)?.snapshot.restore(&target));
        restored?;
        restores.push(ms(spent));
    }
    values.set("state.restore_ms", median(&mut restores));
    Ok(())
}

/// The newest checkpoint file of the crashed directory, if it has one.
fn latest_checkpoint_bytes(recovery: &RecoveryRun) -> StateResult<Option<Vec<u8>>> {
    let dir = recovery
        .directory
        .join(tstream::recovery::coordinator::CHECKPOINT_SUBDIR);
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| path.extension().is_some_and(|e| e == CHECKPOINT_EXTENSION))
        .collect();
    files.sort();
    files
        .pop()
        .map(std::fs::read)
        .transpose()
        .map_err(Into::into)
}

/// `recovery`: WAL append, seal and checkpoint through a `DurableLog` of the
/// probe's own, and segment decoding over the crashed directory.
fn recovery_rungs<A: Application>(
    values: &mut Values,
    job: &Job<A>,
    inputs: &[A::Payload],
    recovery: &RecoveryRun,
    scratch: &Path,
) -> StateResult<()>
where
    A::Payload: WalPayload,
{
    let dir = scratch.join("wal-probe");
    let log = tstream::recovery::RecoveryCoordinator::new(&dir)
        .options(RecoveryOptions {
            fsync: FsyncPolicy::OnSeal,
            checkpoint_every: CHECKPOINT_EVERY as u64,
            retain: 2,
            meta: Some(DurableMeta {
                punctuation_interval: PUNCTUATION as u64,
            }),
            group: GroupCommitConfig {
                window_events: 128,
                window_bytes: 32 * 1024,
            },
        })
        .open()?
        .log;
    let store = (job.build_store)();
    let mut append = Duration::ZERO;
    let mut seals = Vec::new();
    let mut checkpoints = Vec::new();
    let mut events = 0u64;
    for (b, batch) in inputs.chunks(PUNCTUATION).enumerate() {
        let (appended, spent) = timed(|| batch.iter().try_for_each(|payload| log.append(payload)));
        appended?;
        append += spent;
        events += batch.len() as u64;
        let (epoch, spent) = timed(|| log.seal());
        let epoch = epoch?;
        seals.push(spent.as_nanos() as u64);
        // A checkpoint every eighth batch: enough samples for a median
        // without spending the probe's time on fsyncs.
        if b % 8 == 7 {
            let manifest = CheckpointManifest {
                epoch,
                events,
                committed: events,
                rejected: 0,
            };
            let (written, spent) = timed(|| log.checkpoint(&store, manifest));
            written?;
            checkpoints.push(ms(spent));
        }
    }
    drop(log);
    std::fs::remove_dir_all(&dir)?;
    seals.sort_unstable();
    values.set(
        "recovery.wal_append_ns_per_event",
        ns(append) / inputs.len() as f64,
    );
    values.set(
        "recovery.wal_seal_p50_us",
        percentile(&seals, 50.0).map_or(0.0, |ns| ns as f64 / 1e3),
    );
    values.set(
        "recovery.checkpoint_p50_ms",
        if checkpoints.is_empty() {
            0.0
        } else {
            median(&mut checkpoints)
        },
    );

    let wal = recovery
        .directory
        .join(tstream::recovery::coordinator::WAL_SUBDIR);
    let mut decoded = 0usize;
    let mut decode = Duration::ZERO;
    for segment in list_segments(&wal)? {
        let (read, spent) = timed(|| read_segment::<A::Payload>(&segment.path));
        decoded += read?.events.len();
        decode += spent;
    }
    values.set(
        "recovery.segment_decode_ns_per_event",
        ns(decode) / decoded.max(1) as f64,
    );
    Ok(())
}

/// `replica`: ship a short durable prefix to a standby over the in-process
/// transport and time the standby's apply; frame codec over real segments.
fn replica_rungs<A: Application>(
    values: &mut Values,
    w: &Workload,
    job: &Job<A>,
    inputs: &[A::Payload],
    recovery: &RecoveryRun,
    scratch: &Path,
) -> StateResult<()>
where
    A::Payload: WalPayload,
{
    let primary_dir = scratch.join("replica-primary");
    let standby_dir = scratch.join("replica-standby");
    let transport = ChannelTransport::new();
    let events = (REPLICA_BATCHES * PUNCTUATION).min(inputs.len());
    {
        let primary = Engine::new(w.engine_config(ObsConfig::new()));
        let primary_store = (job.build_store)();
        let mut session = primary
            .session_builder(&job.app, &primary_store, &Scheme::TStream)
            .pipeline_depth(4)
            .durable(&primary_dir)
            .open()?;
        let log = session.log().expect("a durable session has a log").clone();
        let shipper = Shipper::attach(&log, transport.clone(), primary.observability())?;

        let standby_engine = Engine::new(w.engine_config(ObsConfig::new()));
        let standby_store = (job.build_store)();
        let mut standby = StandbyEngine::follow(
            &standby_engine,
            &job.app,
            &standby_store,
            &Scheme::TStream,
            &standby_dir,
            transport,
        )?;
        host::pin_engine_threads(w.executors);

        let mut apply = Duration::ZERO;
        let mut epochs = 0usize;
        for batch in inputs[..events].chunks(PUNCTUATION) {
            for payload in batch {
                session.push(payload.clone())?;
            }
            session.flush()?;
            let (applied, spent) = timed(|| standby.pump());
            epochs += applied?;
            apply += spent;
        }
        shipper.pump_acks()?;
        values.set(
            "replica.apply_ms_per_epoch",
            ms(apply) / epochs.max(1) as f64,
        );
        values.set(
            "replica.shipped_bytes_per_event",
            primary.metrics_snapshot().replica_shipped_bytes as f64 / events as f64,
        );
        let _ = session.report()?;
    }
    std::fs::remove_dir_all(&primary_dir)?;
    std::fs::remove_dir_all(&standby_dir)?;

    let wal = recovery
        .directory
        .join(tstream::recovery::coordinator::WAL_SUBDIR);
    let mut bytes = 0usize;
    let mut codec = Duration::ZERO;
    for segment in list_segments(&wal)? {
        let item = ShipItem::Segment {
            epoch: segment.epoch,
            root: Some(segment.epoch),
            bytes: std::fs::read(&segment.path)?,
        };
        let (decoded, spent) = timed(|| decode_item(&encode_item(&item)));
        assert_eq!(decoded?, item, "ship frames round-trip");
        codec += spent;
        if let ShipItem::Segment { bytes: b, .. } = &item {
            bytes += b.len();
        }
    }
    values.set(
        "replica.frame_codec_ns_per_kib",
        ns(codec) / (bytes.max(1) as f64 / 1024.0),
    );
    Ok(())
}

/// `skiplist`: the chain container on its own — one list per chain of the
/// probe batches, keys in the order restructuring inserted them, then one
/// full iteration each.  Long chains (tp_hot) against short ones (gs_rw).
fn skiplist_rungs(values: &mut Values, chain_keys: &[Vec<(u64, u32)>]) {
    let ops: usize = chain_keys.iter().map(Vec::len).sum();
    let (lists, spent) = timed(|| {
        chain_keys
            .iter()
            .map(|keys| {
                let list = ConcurrentSkipList::new();
                for &key in keys {
                    list.insert(key, key.0);
                }
                list
            })
            .collect::<Vec<_>>()
    });
    values.set("skiplist.insert_ns_per_op", ns(spent) / ops.max(1) as f64);
    let (sum, spent) = timed(|| {
        lists
            .iter()
            .flat_map(|list| list.iter())
            .map(|(_, ts)| *ts)
            .fold(0u64, u64::wrapping_add)
    });
    std::hint::black_box(sum);
    values.set("skiplist.iter_ns_per_op", ns(spent) / ops.max(1) as f64);
}

impl Traced {
    /// Mean time per event of one application callback, from its spans.
    fn callback_ns(&self, callback: Callback) -> f64 {
        let spans = self.recorder.spans().expect("a span recorder");
        spans.total(callback).0 as f64 / self.events as f64
    }

    /// Set the metrics of the traced closed phase itself, the overheads and
    /// the ladder.  `untraced` is the closed phase of the same input without
    /// tracing; `values` already holds what the untraced phases and the
    /// probes gave; `replayed` is how many events recovery replayed.
    pub fn metrics(&self, values: &mut Values, untraced: &ClosedRun, replayed: usize) {
        for (callback, name) in CALLBACKS {
            values.set(
                &format!("apps.{name}_ns_per_event"),
                self.callback_ns(callback),
            );
        }
        let durations = &self.push.duration_ns;
        let total: u64 = durations.iter().map(|&ns| ns as u64).sum();
        values.set(
            "core.push_ns_per_event",
            total as f64 / durations.len().max(1) as f64,
        );
        let mut closing: Vec<u64> = durations
            .iter()
            .skip(PUNCTUATION - 1)
            .step_by(PUNCTUATION)
            .map(|&ns| ns as u64)
            .collect();
        closing.sort_unstable();
        let us = |pct: f64| percentile(&closing, pct).map_or(0.0, |ns| ns as f64 / 1e3);
        values.set("core.push_close_p50_us", us(50.0));
        values.set("core.push_close_p99_us", us(99.0));

        let get = |values: &Values, name: &str| values.get(name).unwrap_or(f64::NAN);
        let recovery_ms = get(values, "recovery_ms");
        let restore_ms = get(values, "state.restore_ms");
        values.set(
            "recovery.replay_ns_per_event",
            (recovery_ms - restore_ms).max(0.0) * 1e6 / replayed as f64,
        );
        let on_keps = untraced.throughput_keps();
        values.set(
            "obs.overhead_frac",
            (self.obs_off_keps - on_keps) / self.obs_off_keps,
        );
        values.set("obs.scrape_us", self.scrape_us);
        values.set(
            "trace.overhead_frac",
            (on_keps - self.traced.throughput_keps()) / on_keps,
        );

        // ---- The ladder.  Ingest and execution run side by side, so an
        // event costs the run whichever side is slower; each side is the sum
        // of the rungs on it, weighted by the share of batches on each path.
        let v = |name: &str| get(values, name);
        let ops = v("txn.ops_per_event");
        let fast = v("core.fast_path_share");
        let per_batch = PUNCTUATION as f64;
        let mut ingest = v("apps.rw_set_ns_per_event")
            + v("stream.batch_build_ns_per_event")
            + v("txn.resolve_slots_ns_per_op") * ops;
        let mut exec = v("txn.build_ns_per_event")
            + (1.0 - fast)
                * ops
                * (v("core.chain_insert_ns_per_op") + v("core.chain_eval_ns_per_op"))
            + fast * v("txn.exec_serial_ns_per_event")
            + v("core.serial_replay_share") * v("core.replay_ns_per_event")
            + v("apps.post_process_ns_per_event")
            + v("stream.sink_emit_ns_per_event");
        if self.durable {
            ingest += v("recovery.wal_append_ns_per_event")
                + v("recovery.wal_seal_p50_us") * 1e3 / per_batch;
            exec += v("recovery.checkpoint_p50_ms") * 1e6 / (per_batch * CHECKPOINT_EVERY as f64);
        }
        let exec = exec / self.executors as f64;
        let sum = ingest.max(exec);
        let per_event = 1e6 / on_keps;
        values.set("ladder.ingest_ns_per_event", ingest);
        values.set("ladder.exec_ns_per_event", exec);
        values.set("ladder.sum_ns_per_event", sum);
        values.set("ladder.residual_frac", (per_event - sum) / per_event);
    }

    /// The trace file: the first batches' spans one by one, every
    /// callback's totals, and the ladder table.
    pub fn trace_json(&self, values: &Values) -> Json {
        let spans = self.recorder.spans().expect("a span recorder");
        let num = |v: u64| Json::Num(v as f64);
        let mut list = Vec::new();
        let mut span = |name: &str, idx: usize, start: u64, end: u64, parent: String| {
            list.push(Json::obj([
                ("id", Json::str(format!("{name}:{idx}"))),
                ("name", Json::str(name)),
                ("batch", num((idx / PUNCTUATION) as u64)),
                ("start_ns", num(start)),
                ("end_ns", num(end)),
                ("parent", Json::str(parent)),
            ]));
        };
        for idx in 0..spans.full_events() {
            let start = self.push.start_ns[idx];
            let end = start + self.push.duration_ns[idx] as u64;
            span("push", idx, start, end, "closed_phase".into());
            // The push that closed the batch dispatched it: it is what
            // caused the executor-side callbacks of every event in it.
            let closing = idx / PUNCTUATION * PUNCTUATION + PUNCTUATION - 1;
            for (callback, name) in CALLBACKS {
                if let Some((start, end)) = spans.span(idx, callback) {
                    let cause = if callback == Callback::RwSet {
                        idx
                    } else {
                        closing
                    };
                    span(name, idx, start, end, format!("push:{cause}"));
                }
            }
        }
        let totals = CALLBACKS.iter().map(|&(callback, name)| {
            let (total_ns, calls) = spans.total(callback);
            (
                name,
                Json::obj([("total_ns", num(total_ns)), ("calls", num(calls))]),
            )
        });
        let rung = |name: &str| {
            (
                name.to_owned(),
                Json::Num(values.get(name).unwrap_or(f64::NAN)),
            )
        };
        Json::obj([
            (
                "note",
                Json::str(
                    "spans: first batches of the traced closed phase, ns since the trace epoch; \
                     self time of a push = its span minus its rw_set child",
                ),
            ),
            ("traced_events", num(self.events as u64)),
            ("traced_keps", Json::Num(self.traced.throughput_keps())),
            ("report_span_ms", Json::Num(ms(self.traced.flush))),
            ("obs_off_keps", Json::Num(self.obs_off_keps)),
            ("callback_totals", Json::obj(totals)),
            (
                "ladder",
                Json::Obj(
                    [
                        "ladder.ingest_ns_per_event",
                        "ladder.exec_ns_per_event",
                        "ladder.sum_ns_per_event",
                        "ladder.residual_frac",
                        "trace.overhead_frac",
                        "obs.overhead_frac",
                    ]
                    .into_iter()
                    .map(rung)
                    .collect(),
                ),
            ),
            ("spans", Json::Arr(list)),
        ])
    }
}
