//! Crash-recovery differential tests: the tentpole guarantee of the
//! recovery subsystem is **exactly-once results across a crash**.
//!
//! For every app (GS/SL/OB/TP) and shard count {1, 4}, a durable run is
//! killed at *every* punctuation-batch boundary in turn; recovering the
//! durability directory with `.durable(dir).recover()` and finishing the stream
//! must yield a key-sorted store snapshot and cumulative commit/abort
//! counts **byte-identical** to an uninterrupted `run_offline` over the
//! same input.  The checkpoint cadence is deliberately sparser than one
//! (every 2 batches) so most crash points force genuine WAL replay, not
//! just snapshot restoration.
//!
//! The boundary-crash simulation pushes a batch-aligned prefix through a
//! durable session and drops the process-local state; what remains on disk
//! — sealed segments, epoch-stamped checkpoints, possibly an interrupted
//! truncation — is exactly what a `kill -9` at that boundary leaves.  True
//! process-kill coverage (abort mid-run, separate process) lives in
//! `examples/crash_recovery.rs`, which CI runs.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{
    run_benchmark_durable, run_benchmark_with_snapshot, AppKind, ExecutionPath, RunOptions,
    SchemeKind,
};
use tstream_core::prelude::*;
use tstream_recovery::{
    list_segments, read_segment, FsyncPolicy, GroupCommitConfig, RecoveryCoordinator, SegmentedWal,
    WalPayload,
};
use tstream_state::codec::Reader;
use tstream_state::{StateError, StateResult};

const INTERVAL: usize = 100;
const EVENTS: usize = 500;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tstream-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn options(shards: u32, seed: u64) -> RunOptions {
    options_with_executors(shards, seed, 2)
}

fn options_with_executors(shards: u32, seed: u64, executors: usize) -> RunOptions {
    let spec = WorkloadSpec::default()
        .events(EVENTS)
        .keys(1_000)
        .seed(seed)
        .shards(shards);
    let engine = EngineConfig::with_executors(executors)
        .punctuation(INTERVAL)
        .checkpoint_every(2);
    RunOptions::new(spec, engine)
}

/// Kill a durable run at every batch boundary; recovery must reproduce the
/// uninterrupted run byte for byte.
fn kill_at_every_boundary(app: AppKind, scheme: SchemeKind, shards: u32, seed: u64) {
    kill_at_every_boundary_with(app, scheme, shards, seed, 2);
}

fn kill_at_every_boundary_with(
    app: AppKind,
    scheme: SchemeKind,
    shards: u32,
    seed: u64,
    executors: usize,
) {
    let options = options_with_executors(shards, seed, executors);
    let (baseline, baseline_snapshot) =
        run_benchmark_with_snapshot(app, scheme, &options, ExecutionPath::Offline);
    assert_eq!(baseline.events, EVENTS as u64);

    let batches = EVENTS.div_ceil(INTERVAL);
    for boundary in 1..batches {
        let dir = temp_dir(&format!(
            "boundary-{}-{}-{shards}-{boundary}",
            app.label(),
            scheme.label()
        ));
        // Phase 1: run up to the boundary, then "crash" (drop everything
        // process-local; the durability directory is all that survives).
        let (partial, _) =
            run_benchmark_durable(app, scheme, &options, &dir, Some(boundary * INTERVAL))
                .expect("durable run");
        assert_eq!(partial.events, (boundary * INTERVAL) as u64);

        // Phase 2: recover and finish the stream.
        let (report, snapshot) =
            run_benchmark_durable(app, scheme, &options, &dir, None).expect("recovered run");
        let ctx = format!(
            "{}/{} shards={shards} crash after batch {boundary}",
            app.label(),
            scheme.label()
        );
        assert_eq!(report.events, baseline.events, "events: {ctx}");
        assert_eq!(report.committed, baseline.committed, "committed: {ctx}");
        assert_eq!(report.rejected, baseline.rejected, "rejected: {ctx}");
        assert_eq!(snapshot, baseline_snapshot, "snapshot: {ctx}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn gs_recovers_exactly_once_at_every_boundary() {
    for shards in [1u32, 4] {
        kill_at_every_boundary(AppKind::Gs, SchemeKind::TStream, shards, 0xD1);
    }
}

#[test]
fn sl_recovers_exactly_once_at_every_boundary() {
    for shards in [1u32, 4] {
        kill_at_every_boundary(AppKind::Sl, SchemeKind::TStream, shards, 0xD2);
    }
}

#[test]
fn ob_recovers_exactly_once_at_every_boundary() {
    for shards in [1u32, 4] {
        kill_at_every_boundary(AppKind::Ob, SchemeKind::TStream, shards, 0xD3);
    }
}

#[test]
fn tp_recovers_exactly_once_at_every_boundary() {
    for shards in [1u32, 4] {
        kill_at_every_boundary(AppKind::Tp, SchemeKind::TStream, shards, 0xD4);
    }
}

#[test]
fn recovery_works_under_an_eager_scheme_too() {
    // The WAL is scheme-agnostic: the serial No-Lock baseline must recover
    // just like dual-mode scheduling.  One executor, deliberately: No-Lock
    // has no synchronisation, so with several executors its racy schedule —
    // not the recovery machinery — would decide the final state and the
    // byte-identical differential would be flaky.
    kill_at_every_boundary_with(AppKind::Sl, SchemeKind::NoLock, 1, 0xD5, 1);
}

#[test]
fn checkpoints_truncate_covered_wal_segments() {
    let dir = temp_dir("truncation");
    let options = options(1, 0xE1);
    // checkpoint_every = 2: after the run (5 batches, last checkpoint at
    // epoch 3), only segment 4 may survive.
    let (report, _) =
        run_benchmark_durable(AppKind::Gs, SchemeKind::TStream, &options, &dir, None).unwrap();
    assert_eq!(report.events, EVENTS as u64);
    assert_eq!(report.checkpoints, 2, "epochs 1 and 3 hit the cadence");
    assert!(report.wal_bytes > 0, "the WAL must actually be written");
    let segments = list_segments(&dir.join("wal")).unwrap();
    let epochs: Vec<u64> = segments.iter().map(|s| s.epoch).collect();
    assert_eq!(epochs, vec![4], "segments <= checkpoint epoch 3 are gone");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_batch_crash_replays_the_unsealed_tail() {
    // Crash *inside* a batch: 2 sealed batches + 50 events in the unsealed
    // tail segment.  The WAL is written directly (a session drop would seal
    // the partial batch, which a real kill never does); recovery must feed
    // the tail back into the forming batch and still converge with the
    // uninterrupted run.
    let dir = temp_dir("mid-batch");
    let options = options(1, 0xE2);
    let events = tstream_apps::sl::generate(&options.spec);
    let (baseline, baseline_snapshot) = run_benchmark_with_snapshot(
        AppKind::Sl,
        SchemeKind::TStream,
        &options,
        ExecutionPath::Offline,
    );
    {
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        for (i, event) in events.iter().take(2 * INTERVAL + 50).enumerate() {
            state.log.append(event).unwrap();
            if (i + 1) % INTERVAL == 0 {
                state.log.seal().unwrap();
            }
        }
        // Dropped without sealing the tail: 50 events pending on disk.
        assert_eq!(state.log.pending_records(), 50);
    }

    let store = tstream_apps::sl::build_store(&options.spec);
    let app = Arc::new(tstream_apps::sl::StreamingLedger);
    let engine = Engine::new(options.engine.shards(1));
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .durable(&dir)
        .recover()
        .open()
        .expect("recover mid-batch state");
    assert_eq!(session.ingested(), (2 * INTERVAL + 50) as u64);
    for event in events.iter().skip(2 * INTERVAL + 50).cloned() {
        session.push(event).unwrap();
    }
    let report = session.report().unwrap();
    assert_eq!(report.events, baseline.events);
    assert_eq!(report.committed, baseline.committed);
    assert_eq!(report.rejected, baseline.rejected);
    assert_eq!(StoreSnapshot::capture(&store), baseline_snapshot);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn double_crash_after_full_truncation_recovers_exactly_once() {
    // Regression: with checkpoint_every = 1 every checkpoint truncates the
    // whole WAL, so a recovery used to find an empty directory and restart
    // epoch numbering at 0 — mislabelling live batches as checkpoint-covered
    // and silently truncating them on the *second* recovery.  Crash twice
    // and the run must still converge with the uninterrupted baseline.
    let mut options = options(1, 0xE8);
    options.engine = options.engine.checkpoint_every(1);
    let (baseline, baseline_snapshot) = run_benchmark_with_snapshot(
        AppKind::Sl,
        SchemeKind::TStream,
        &options,
        ExecutionPath::Offline,
    );
    let dir = temp_dir("double-crash");
    let _ = run_benchmark_durable(
        AppKind::Sl,
        SchemeKind::TStream,
        &options,
        &dir,
        Some(INTERVAL),
    )
    .unwrap();
    // First recovery runs two more batches, then "crashes" again.
    let _ = run_benchmark_durable(
        AppKind::Sl,
        SchemeKind::TStream,
        &options,
        &dir,
        Some(3 * INTERVAL),
    )
    .unwrap();
    // Second recovery finishes the stream.
    let (report, snapshot) =
        run_benchmark_durable(AppKind::Sl, SchemeKind::TStream, &options, &dir, None).unwrap();
    assert_eq!(report.events, baseline.events);
    assert_eq!(report.committed, baseline.committed);
    assert_eq!(report.rejected, baseline.rejected);
    assert_eq!(snapshot, baseline_snapshot);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_batch_crash_after_full_truncation_recovers() {
    // Regression companion to the epoch-floor fix: a crash mid-batch when
    // the previous checkpoint truncated every sealed segment used to fail
    // recovery with a spurious "open WAL segment carries epoch N, expected
    // 0" corruption error on a perfectly healthy directory.
    let mut options = options(1, 0xE9);
    options.engine = options.engine.checkpoint_every(1);
    let events = tstream_apps::sl::generate(&options.spec);
    let (baseline, baseline_snapshot) = run_benchmark_with_snapshot(
        AppKind::Sl,
        SchemeKind::TStream,
        &options,
        ExecutionPath::Offline,
    );
    let dir = temp_dir("mid-batch-truncated");
    // Two full batches, each checkpointed and truncated away.
    let _ = run_benchmark_durable(
        AppKind::Sl,
        SchemeKind::TStream,
        &options,
        &dir,
        Some(2 * INTERVAL),
    )
    .unwrap();
    // Crash mid-batch: 30 more events reach only the WAL tail (epoch 2).
    {
        let state = RecoveryCoordinator::new(&dir).open().unwrap();
        for event in events.iter().skip(2 * INTERVAL).take(30) {
            state.log.append(event).unwrap();
        }
        assert_eq!(state.log.pending_records(), 30);
    }
    let store = tstream_apps::sl::build_store(&options.spec);
    let app = Arc::new(tstream_apps::sl::StreamingLedger);
    let engine = Engine::new(options.engine.shards(1));
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .durable(&dir)
        .recover()
        .open()
        .expect("healthy directory must recover");
    assert_eq!(session.ingested(), (2 * INTERVAL + 30) as u64);
    for event in events.iter().skip(2 * INTERVAL + 30).cloned() {
        session.push(event).unwrap();
    }
    let report = session.report().unwrap();
    assert_eq!(report.committed, baseline.committed);
    assert_eq!(report.rejected, baseline.rejected);
    assert_eq!(StoreSnapshot::capture(&store), baseline_snapshot);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopening_with_a_different_punctuation_interval_is_rejected() {
    // The WAL's epoch alignment assumes one sealed segment per punctuation
    // batch; re-batching a replay with a different interval would silently
    // desynchronize epochs, so the interval is pinned to the directory.
    let dir = temp_dir("interval-pin");
    let options_a = options(1, 0xEA);
    let _ = run_benchmark_durable(
        AppKind::Gs,
        SchemeKind::TStream,
        &options_a,
        &dir,
        Some(200),
    )
    .unwrap();
    let mut options_b = options(1, 0xEA);
    options_b.engine = options_b.engine.punctuation(INTERVAL / 2);
    match run_benchmark_durable(AppKind::Gs, SchemeKind::TStream, &options_b, &dir, None) {
        Err(StateError::InvalidDefinition(msg)) => {
            assert!(msg.contains("punctuation interval"), "{msg}");
        }
        other => panic!("expected InvalidDefinition, got {:?}", other.map(|_| ())),
    }
    // The original interval still recovers fine.
    let (report, _) =
        run_benchmark_durable(AppKind::Gs, SchemeKind::TStream, &options_a, &dir, None).unwrap();
    assert_eq!(report.events, EVENTS as u64);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent_a_crash_during_recovery_converges() {
    let dir = temp_dir("idempotent");
    let options = options(1, 0xE3);
    // Crash after batch 3 (checkpoint at epoch 1, segments 2 and 3 pending).
    let _ = run_benchmark_durable(
        AppKind::Tp,
        SchemeKind::TStream,
        &options,
        &dir,
        Some(3 * INTERVAL),
    )
    .unwrap();
    // First recovery attempt "crashes" right after open+replay: open a
    // session, replay happens inside, then drop it without pushing the rest.
    {
        let store = tstream_apps::tp::build_store(&options.spec);
        let app = Arc::new(tstream_apps::tp::TollProcessing);
        let engine = Engine::new(options.engine.shards(1));
        let session = engine
            .session_builder(&app, &store, &Scheme::TStream)
            .durable(&dir)
            .recover()
            .open()
            .unwrap();
        assert_eq!(session.ingested(), (3 * INTERVAL) as u64);
        drop(session);
    }
    // Second recovery finishes the stream and must still match the baseline.
    let (baseline, baseline_snapshot) = run_benchmark_with_snapshot(
        AppKind::Tp,
        SchemeKind::TStream,
        &options,
        ExecutionPath::Offline,
    );
    let (report, snapshot) =
        run_benchmark_durable(AppKind::Tp, SchemeKind::TStream, &options, &dir, None).unwrap();
    assert_eq!(report.events, baseline.events);
    assert_eq!(report.committed, baseline.committed);
    assert_eq!(report.rejected, baseline.rejected);
    assert_eq!(snapshot, baseline_snapshot);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durable_report_counts_are_cumulative_across_recovery() {
    let dir = temp_dir("cumulative");
    let options = options(1, 0xE4);
    let (partial, _) =
        run_benchmark_durable(AppKind::Ob, SchemeKind::TStream, &options, &dir, Some(200)).unwrap();
    assert_eq!(partial.events, 200);
    assert_eq!(partial.committed + partial.rejected, 200);
    let (full, _) =
        run_benchmark_durable(AppKind::Ob, SchemeKind::TStream, &options, &dir, None).unwrap();
    assert_eq!(full.events, EVENTS as u64);
    assert_eq!(full.committed + full.rejected, EVENTS as u64);
    assert!(full.checkpoints >= 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fsync_policies_all_recover() {
    for policy in [FsyncPolicy::Never, FsyncPolicy::OnSeal, FsyncPolicy::Always] {
        let dir = temp_dir(&format!("fsync-{}", policy.label()));
        let mut options = options(1, 0xE5);
        options.engine = options.engine.fsync(policy);
        let _ = run_benchmark_durable(AppKind::Gs, SchemeKind::TStream, &options, &dir, Some(200))
            .unwrap();
        let (report, _) =
            run_benchmark_durable(AppKind::Gs, SchemeKind::TStream, &options, &dir, None).unwrap();
        assert_eq!(report.events, EVENTS as u64);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_segments_from_the_future_are_rejected_with_a_clear_error() {
    let dir = temp_dir("future");
    let wal_dir = dir.join("wal");
    fs::create_dir_all(&wal_dir).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"TWAL9");
    bytes.extend_from_slice(&0u64.to_le_bytes());
    fs::write(wal_dir.join("segment-000000000000.twal"), &bytes).unwrap();

    let store = tstream_apps::gs::build_store(&options(1, 0xE6).spec);
    let app = Arc::new(tstream_apps::gs::GrepSum::default());
    let engine = Engine::new(EngineConfig::with_executors(1));
    match engine
        .session_builder(&app, &store, &Scheme::TStream)
        .durable(&dir)
        .recover()
        .open()
    {
        Err(StateError::UnsupportedVersion {
            artifact, found, ..
        }) => {
            assert_eq!(artifact, "WAL segment");
            assert_eq!(found, 9);
        }
        other => panic!("expected UnsupportedVersion, got {:?}", other.map(|_| ())),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The WAL payload codecs are exercised end-to-end above; this pins the
/// contract that every generated event round-trips bit-exactly (speed is a
/// float — compared by bits).
#[test]
fn every_generated_payload_round_trips_through_the_wal_codec() {
    fn assert_round_trips<P: WalPayload>(events: &[P], re_encode: impl Fn(&P, &mut Vec<u8>)) {
        for event in events {
            let mut encoded = Vec::new();
            re_encode(event, &mut encoded);
            let mut reader = tstream_state::codec::Reader::new(&encoded);
            let decoded = P::decode_wal(&mut reader).expect("decodable");
            assert_eq!(reader.remaining(), 0);
            let mut re_encoded = Vec::new();
            re_encode(&decoded, &mut re_encoded);
            assert_eq!(encoded, re_encoded);
        }
    }
    let spec = WorkloadSpec::default().events(300).seed(0xE7);
    assert_round_trips(&tstream_apps::gs::generate(&spec), |e, out| {
        e.encode_wal(out)
    });
    assert_round_trips(&tstream_apps::sl::generate(&spec), |e, out| {
        e.encode_wal(out)
    });
    assert_round_trips(&tstream_apps::ob::generate(&spec), |e, out| {
        e.encode_wal(out)
    });
    assert_round_trips(&tstream_apps::tp::generate(&spec), |e, out| {
        e.encode_wal(out)
    });
}

// ---------------------------------------------------------------------------
// Kill points *inside* the group-commit window.
//
// The group-commit ack contract: under `FsyncPolicy::Always` an event is
// acked-durable only once its covering window (or the seal) has synced, and
// a sealed batch is acked only once the seal's rename is covered by the
// directory fsync.  A kill inside the window may lose *buffered, unacked*
// frames but never a synced window and never a sealed batch; `OnSeal` keeps
// its batch-level contract unchanged.  The kills below use `mem::forget` so
// the writer's best-effort drop flush never runs — exactly the state a
// `kill -9` leaves on disk.
// ---------------------------------------------------------------------------

fn group_wal(dir: &std::path::Path, policy: FsyncPolicy, window_events: u64) -> SegmentedWal {
    let mut wal = SegmentedWal::open(dir, policy, 0).unwrap();
    wal.set_group_commit(GroupCommitConfig {
        window_events,
        window_bytes: 1 << 20,
    });
    wal
}

fn encoded<P: WalPayload>(events: &[P]) -> Vec<Vec<u8>> {
    events
        .iter()
        .map(|e| {
            let mut out = Vec::new();
            e.encode_wal(&mut out);
            out
        })
        .collect()
}

#[test]
fn kill_with_an_unsynced_buffered_tail_keeps_every_synced_window() {
    // 10 events through a 4-event window under `Always`: windows sync after
    // events 4 and 8, events 9-10 sit in the in-memory buffer.  Those two
    // were never acked (their window never synced), so the kill may lose
    // them — but nothing from the synced windows.
    let dir = temp_dir("kill-unsynced-tail");
    fs::create_dir_all(&dir).unwrap();
    let events = tstream_apps::gs::generate(&WorkloadSpec::default().events(10).seed(0xF1));
    let mut wal = group_wal(&dir, FsyncPolicy::Always, 4);
    for event in &events {
        let full = wal.append_deferred(|buf| event.encode_wal(buf)).unwrap();
        if full {
            wal.flush_window().unwrap();
        }
    }
    assert_eq!(wal.pending_records(), 10, "all ten counted pre-kill");
    std::mem::forget(wal); // kill -9: no drop flush

    let mut healed = group_wal(&dir, FsyncPolicy::Always, 4);
    assert_eq!(
        healed.pending_records(),
        8,
        "both synced windows survive; the unacked buffered tail is gone"
    );
    // The healed tail accepts the retransmitted remainder and seals whole.
    for event in &events[8..] {
        let full = healed.append_deferred(|buf| event.encode_wal(buf)).unwrap();
        if full {
            healed.flush_window().unwrap();
        }
    }
    let epoch = healed.seal().unwrap();
    let decoded =
        read_segment::<tstream_apps::gs::GsEvent>(&dir.join(format!("segment-{epoch:012}.twal")))
            .unwrap();
    assert!(decoded.sealed);
    assert_eq!(
        encoded(&decoded.events),
        encoded(&events),
        "bit-exact replay"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_after_the_window_synced_but_before_seal_replays_in_full() {
    // Two full 4-event windows, both synced under `Always`, buffer empty —
    // then the kill lands before any seal.  Every synced frame must replay.
    let dir = temp_dir("kill-synced-unsealed");
    fs::create_dir_all(&dir).unwrap();
    let events = tstream_apps::gs::generate(&WorkloadSpec::default().events(10).seed(0xF2));
    let mut wal = group_wal(&dir, FsyncPolicy::Always, 4);
    for event in &events[..8] {
        let full = wal.append_deferred(|buf| event.encode_wal(buf)).unwrap();
        if full {
            wal.flush_window().unwrap();
        }
    }
    std::mem::forget(wal);

    let mut healed = group_wal(&dir, FsyncPolicy::Always, 4);
    assert_eq!(
        healed.pending_records(),
        8,
        "synced-but-unsealed tail intact"
    );
    for event in &events[8..] {
        let full = healed.append_deferred(|buf| event.encode_wal(buf)).unwrap();
        if full {
            healed.flush_window().unwrap();
        }
    }
    let epoch = healed.seal().unwrap();
    let decoded =
        read_segment::<tstream_apps::gs::GsEvent>(&dir.join(format!("segment-{epoch:012}.twal")))
            .unwrap();
    assert_eq!(encoded(&decoded.events), encoded(&events));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_that_undoes_the_seal_rename_is_healed_without_losing_the_batch() {
    // The rename is the last durability step of a seal; without the
    // directory fsync a crash can resurrect the segment under its unsealed
    // name.  Recovery must re-recognise the embedded seal marker and heal
    // the rename — the acked batch is never lost.
    let dir = temp_dir("kill-mid-rename");
    fs::create_dir_all(&dir).unwrap();
    let events = tstream_apps::gs::generate(&WorkloadSpec::default().events(6).seed(0xF3));
    let mut wal = group_wal(&dir, FsyncPolicy::Always, 4);
    for event in &events {
        let full = wal.append_deferred(|buf| event.encode_wal(buf)).unwrap();
        if full {
            wal.flush_window().unwrap();
        }
    }
    let epoch = wal.seal().unwrap();
    drop(wal);
    // Undo the rename: the file carries a valid seal marker but the
    // directory entry reverted to the open name.
    let sealed_path = dir.join(format!("segment-{epoch:012}.twal"));
    let open_path = dir.join(format!("segment-{epoch:012}.twal.open"));
    fs::rename(&sealed_path, &open_path).unwrap();

    let healed = group_wal(&dir, FsyncPolicy::Always, 4);
    assert_eq!(healed.pending_records(), 0, "no open tail after healing");
    assert_eq!(healed.next_epoch(), epoch + 1);
    drop(healed);
    let segments = list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1);
    assert!(segments[0].sealed, "the seal rename was replayed");
    let decoded = read_segment::<tstream_apps::gs::GsEvent>(&sealed_path).unwrap();
    assert_eq!(
        encoded(&decoded.events),
        encoded(&events),
        "acked batch intact"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn on_seal_kill_inside_the_window_keeps_sealed_batches_unchanged() {
    // `OnSeal` acks at batch granularity: a sealed epoch must survive any
    // later kill; unsealed frames carry no ack and may lose the buffered
    // (unflushed) remainder.
    let dir = temp_dir("kill-onseal-window");
    fs::create_dir_all(&dir).unwrap();
    let events = tstream_apps::gs::generate(&WorkloadSpec::default().events(11).seed(0xF4));
    let mut wal = group_wal(&dir, FsyncPolicy::OnSeal, 4);
    for event in &events[..6] {
        let full = wal.append_deferred(|buf| event.encode_wal(buf)).unwrap();
        if full {
            wal.flush_window().unwrap();
        }
    }
    let sealed_epoch = wal.seal().unwrap();
    // Next batch: one full window flushed (write, no sync under OnSeal),
    // one event still buffered when the kill lands.
    for event in &events[6..] {
        let full = wal.append_deferred(|buf| event.encode_wal(buf)).unwrap();
        if full {
            wal.flush_window().unwrap();
        }
    }
    assert_eq!(wal.pending_records(), 5);
    std::mem::forget(wal);

    let healed = group_wal(&dir, FsyncPolicy::OnSeal, 4);
    let decoded = read_segment::<tstream_apps::gs::GsEvent>(
        &dir.join(format!("segment-{sealed_epoch:012}.twal")),
    )
    .unwrap();
    assert!(decoded.sealed);
    assert_eq!(
        encoded(&decoded.events),
        encoded(&events[..6]),
        "the acked (sealed) batch is byte-identical"
    );
    assert_eq!(
        healed.pending_records(),
        4,
        "the flushed window replays; only the single buffered frame is lost"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replayed_batches_are_excluded_from_latency_stats_but_not_counts() {
    // Crash after batch 3 of 5 with checkpoints every 2 batches: the
    // checkpoint at epoch 1 covers 200 events, so recovery genuinely
    // replays batch 3 (100 events) through the engine before the 200 live
    // events arrive.  A replayed event's "arrival" is the re-ingestion
    // instant — sampling it would poison the latency distribution with
    // replay-speed values — so replayed batches must be counted (emitted)
    // but never sampled.
    let dir = temp_dir("replay-latency");
    let options = options(1, 0xF5);
    let (partial, _) = run_benchmark_durable(
        AppKind::Gs,
        SchemeKind::TStream,
        &options,
        &dir,
        Some(3 * INTERVAL),
    )
    .unwrap();
    assert_eq!(partial.events, (3 * INTERVAL) as u64);
    assert_eq!(partial.rejected, 0, "GS commits everything");
    assert_eq!(
        partial.latency.samples() as u64,
        partial.committed,
        "a fresh run samples every committed event"
    );

    let (report, _) =
        run_benchmark_durable(AppKind::Gs, SchemeKind::TStream, &options, &dir, None).unwrap();
    assert_eq!(
        report.events, EVENTS as u64,
        "replayed events still counted"
    );
    assert_eq!(
        report.committed, EVENTS as u64,
        "every event commits exactly once across the crash"
    );
    let live = (EVENTS - 3 * INTERVAL) as u64; // events pushed after recovery
    let replayed = INTERVAL as u64; // batch 3, past the checkpoint floor
    assert_eq!(
        report.latency.samples() as u64,
        live,
        "replayed batches must leave no latency samples"
    );
    assert_eq!(
        report.latency.emitted(),
        live + replayed,
        "replayed events are emitted (counted) even though unsampled"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// One event: increment the counter at `key`.
#[derive(Debug, Clone, Copy)]
struct Key(u64);

impl WalPayload for Key {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn decode_wal(reader: &mut Reader<'_>) -> StateResult<Self> {
        Ok(Key(reader.u64()?))
    }
}

struct Increment;

impl Application for Increment {
    type Payload = Key;
    fn name(&self) -> &'static str {
        "increment"
    }
    fn read_write_set(&self, key: &Key) -> ReadWriteSet {
        ReadWriteSet::new().write(StateRef::new(0, key.0))
    }
    fn state_access(&self, key: &Key, txn: &mut TxnBuilder) {
        txn.read_modify(0, key.0, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + 1))
        });
    }
    fn post_process(&self, _: &Key, _: &EventBlotter) -> PostAction {
        PostAction::Emit
    }
}

/// Conflict-free batches on two executors in a durable session: the closing
/// round's action writes the checkpoint before any executor may start the
/// next batch, so no checkpoint holds a write that the WAL replay of a later
/// epoch applies again.  The odd batch count leaves the last batch past the
/// last checkpoint, so recovery restores a snapshot *and* replays.
#[test]
fn conflict_free_durable_batches_recover_without_double_counting() {
    const KEYS: u64 = 20_000;
    const BATCH: usize = 16;
    const EVENTS: usize = 9 * BATCH;
    let engine = || {
        Engine::new(
            EngineConfig::with_executors(2)
                .punctuation(BATCH)
                .checkpoint_every(2),
        )
    };
    let store = || {
        let table = TableBuilder::new("counters")
            .extend((0..KEYS).map(|k| (k, Value::Long(0))))
            .build()
            .unwrap();
        StateStore::new(vec![table]).unwrap()
    };
    let dir = temp_dir("fast-checkpoint");
    let app = Arc::new(Increment);
    {
        let engine = engine();
        let mut session = engine
            .session_builder(&app, &store(), &Scheme::TStream)
            .durable(&dir)
            .open()
            .unwrap();
        // Distinct keys, at the end of a table large enough that capturing
        // it takes a while: a next batch running beside the capture would
        // land its increments before the capture reaches them.
        for i in 0..EVENTS as u64 {
            session.push(Key(KEYS - 1 - i)).unwrap();
        }
        session.flush().unwrap();
        let m = engine.metrics_snapshot();
        assert_eq!(m.exec_fast_path_batches, (EVENTS / BATCH) as u64);
        assert!(m.wal_checkpoints >= 1);
    }

    let recovered = store();
    let engine = engine();
    let session = engine
        .session_builder(&app, &recovered, &Scheme::TStream)
        .durable(&dir)
        .recover()
        .open()
        .unwrap();
    assert_eq!(session.ingested(), EVENTS as u64);
    drop(session);
    let sum: i64 = recovered
        .snapshot()
        .iter()
        .map(|(_, _, value)| value.as_long().unwrap())
        .sum();
    assert_eq!(sum, EVENTS as i64, "every increment applied exactly once");
    let _ = fs::remove_dir_all(&dir);
}
