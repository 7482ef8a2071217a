//! Durability: store snapshots and on-disk checkpoints.
//!
//! Section IV-D of the paper: "*Durability requires modification to state are
//! durable.  TStream can replicate states stored in memory to disk before
//! resuming to compute mode to satisfy durability.*"  The punctuation
//! boundary is a natural quiescent point — every transaction of the batch has
//! either committed or aborted, and no version chains are live — so a
//! consistent snapshot can be taken without any coordination beyond the
//! barriers dual-mode scheduling already uses.
//!
//! Three pieces live here:
//!
//! * [`StoreSnapshot`] — an owned, order-stable copy of every committed value
//!   of a [`StateStore`], encodable with the [`crate::codec`] format and
//!   restorable onto a store with the same schema;
//! * [`CheckpointManifest`] / [`Checkpoint`] — an epoch-stamped snapshot:
//!   the manifest records which punctuation epoch the snapshot covers and the
//!   cumulative progress counters at that boundary, which is what lets the
//!   recovery subsystem truncate write-ahead-log segments the checkpoint
//!   already covers and resume result counting after a restart;
//! * [`Checkpointer`] — writes numbered snapshot files into a directory,
//!   retains the most recent `retain` checkpoints, and can recover the latest
//!   one after a crash.
//!
//! Checkpoints are written atomically (write to a temporary file, then
//! rename) so a crash mid-write never leaves a truncated "latest" checkpoint.
//! Several `Checkpointer` instances (engine clones, concurrent processes in
//! one address space) may target the same directory: sequence allocation and
//! retention pruning serialize on a process-wide per-directory lock, so a
//! `retain` race never double-deletes or interleaves with a write.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use std::sync::Arc;

use crate::codec::{self, Reader};
use crate::error::{StateError, StateResult};
use crate::store::StateStore;
use crate::value::Value;
use crate::Key;

/// File extension of checkpoint files.
pub const CHECKPOINT_EXTENSION: &str = "tsnap";

/// Process-wide lock per checkpoint directory: held across the sequence
/// allocation + write and across the list+delete window of retention, so
/// concurrent [`Checkpointer`] instances over one directory never race.
fn directory_lock(directory: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    // Canonicalize so `dir` and `./dir` share a lock; the directory exists by
    // the time this is called (created in `Checkpointer::new`).
    let key = fs::canonicalize(directory).unwrap_or_else(|_| directory.to_path_buf());
    LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .entry(key)
        .or_default()
        .clone()
}

/// Progress counters a [`Checkpoint`] carries: which punctuation epoch the
/// snapshot covers and the cumulative result counts at that boundary.
///
/// The epoch is the durable batch number (0-based, monotonically increasing
/// across restarts).  After a checkpoint for epoch `e` is on disk, every
/// write-ahead-log segment with epoch `<= e` is redundant and may be
/// truncated; recovery restores the snapshot and replays only segments
/// `> e`.  The counts let a recovered run report totals identical to an
/// uninterrupted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointManifest {
    /// Punctuation epoch (durable batch number) this checkpoint covers.
    pub epoch: u64,
    /// Cumulative input events processed through `epoch`.
    pub events: u64,
    /// Cumulative committed transactions through `epoch`.
    pub committed: u64,
    /// Cumulative rejected (aborted) transactions through `epoch`.
    pub rejected: u64,
}

/// A snapshot plus the manifest describing what it covers.
///
/// Encoded as snapshot format version 2 (`TSNAP2`); decoding also accepts
/// the bare version-1 layout, which simply has no manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Epoch manifest; `None` for a version-1 file (plain snapshot).
    pub manifest: Option<CheckpointManifest>,
    /// The committed state.
    pub snapshot: StoreSnapshot,
}

impl Checkpoint {
    /// Encode: version 2 when a manifest is present, version 1 otherwise.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.snapshot.record_count() * 24);
        match &self.manifest {
            None => codec::put_snapshot_header(&mut out, codec::SNAPSHOT_VERSION_PLAIN),
            Some(manifest) => {
                codec::put_snapshot_header(&mut out, codec::SNAPSHOT_VERSION_MANIFEST);
                out.extend_from_slice(&manifest.epoch.to_le_bytes());
                out.extend_from_slice(&manifest.events.to_le_bytes());
                out.extend_from_slice(&manifest.committed.to_le_bytes());
                out.extend_from_slice(&manifest.rejected.to_le_bytes());
            }
        }
        self.snapshot.encode_body(&mut out);
        out
    }

    /// Decode either snapshot format version.
    pub fn decode(bytes: &[u8]) -> StateResult<Self> {
        let mut reader = Reader::new(bytes);
        let version = reader.snapshot_version()?;
        let manifest = if version >= codec::SNAPSHOT_VERSION_MANIFEST {
            Some(CheckpointManifest {
                epoch: reader.u64()?,
                events: reader.u64()?,
                committed: reader.u64()?,
                rejected: reader.u64()?,
            })
        } else {
            None
        };
        let snapshot = StoreSnapshot::decode_body(&mut reader)?;
        Ok(Checkpoint { manifest, snapshot })
    }
}

/// Snapshot of one table: its name and every `(key, committed value)` pair in
/// slot order.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table name.
    pub name: String,
    /// Committed values in slot order.
    pub entries: Vec<(Key, Value)>,
}

/// A consistent snapshot of every committed value of a store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreSnapshot {
    /// Per-table snapshots in table-id order.
    pub tables: Vec<TableSnapshot>,
}

impl StoreSnapshot {
    /// Capture the committed values of every table.
    ///
    /// The caller must ensure the store is quiescent (no concurrent writers);
    /// the engine takes snapshots in the action of a batch's closing barrier
    /// round, which runs after every executor's writes of the batch landed
    /// and before any executor is released into the next batch.
    pub fn capture(store: &StateStore) -> Self {
        let tables = store
            .tables()
            .map(|(_, table)| TableSnapshot {
                name: table.name().to_owned(),
                entries: table.snapshot(),
            })
            .collect();
        StoreSnapshot { tables }
    }

    /// Total number of records across all tables.
    pub fn record_count(&self) -> usize {
        self.tables.iter().map(|t| t.entries.len()).sum()
    }

    /// Encode into the version-1 (`TSNAP1`, tables only) binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.record_count() * 24);
        codec::put_snapshot_header(&mut out, codec::SNAPSHOT_VERSION_PLAIN);
        self.encode_body(&mut out);
        out
    }

    /// Encode the table section (shared by every format version).
    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for table in &self.tables {
            codec::put_string(out, &table.name);
            out.extend_from_slice(&(table.entries.len() as u64).to_le_bytes());
            for (key, value) in &table.entries {
                out.extend_from_slice(&key.to_le_bytes());
                codec::encode_value(out, value);
            }
        }
    }

    /// Decode a snapshot file of any supported format version, discarding
    /// the manifest of a version-2 file (use [`Checkpoint::decode`] to keep
    /// it).
    pub fn decode(bytes: &[u8]) -> StateResult<Self> {
        Ok(Checkpoint::decode(bytes)?.snapshot)
    }

    /// Decode the table section (shared by every format version); the reader
    /// must be positioned right after the header/manifest and is required to
    /// be fully consumed.
    pub(crate) fn decode_body(reader: &mut Reader<'_>) -> StateResult<Self> {
        // Counts come from the file: bound each by what the remaining bytes
        // can hold (a table is at least a name length and a record count, a
        // record at least a key and a value tag) before allocating for it.
        let table_count = reader.u32()?;
        let table_count = reader.bounded_count(table_count.into(), 12, "tables")?;
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let name = reader.string()?;
            let record_count = reader.u64()?;
            let record_count = reader.bounded_count(record_count, 9, "records")?;
            let mut entries = Vec::with_capacity(record_count);
            for _ in 0..record_count {
                let key = reader.u64()?;
                let value = codec::decode_value(reader)?;
                entries.push((key, value));
            }
            tables.push(TableSnapshot { name, entries });
        }
        if reader.remaining() != 0 {
            return Err(StateError::Corrupted(format!(
                "{} trailing bytes after snapshot",
                reader.remaining()
            )));
        }
        Ok(StoreSnapshot { tables })
    }

    /// Restore every value of this snapshot into `store`.
    ///
    /// The store must have the same schema (table names and keys); restoring
    /// onto a mismatched store fails without applying a partial state.
    pub fn restore(&self, store: &StateStore) -> StateResult<()> {
        // Validate first so restore is all-or-nothing.
        for table in &self.tables {
            let id = store.table_id(&table.name)?;
            for (key, _) in &table.entries {
                store.record(id, *key)?;
                // Route stability across snapshot/restore: the store-level
                // router (reused by chain pools and event routing) and the
                // table's own router must agree on every restored key, or a
                // recovered record would live on a different shard than the
                // one live routing consults.
                debug_assert_eq!(
                    store.shard_of(*key),
                    store.table(id).shard_of(*key),
                    "shard routing diverged between store and table {} for key {key}",
                    table.name
                );
            }
        }
        for table in &self.tables {
            let id = store.table_id(&table.name)?;
            for (key, value) in &table.entries {
                store.record(id, *key)?.write_committed(value.clone());
            }
        }
        Ok(())
    }
}

/// Writes and recovers on-disk checkpoints of a store.
#[derive(Debug)]
pub struct Checkpointer {
    directory: PathBuf,
    retain: usize,
    sequence: AtomicU64,
    /// Shared per-directory lock (see [`directory_lock`]).
    lock: Arc<Mutex<()>>,
}

impl Checkpointer {
    /// Create a checkpointer writing into `directory`, keeping the most
    /// recent `retain` checkpoints (older ones are pruned after every write).
    ///
    /// The directory is created if missing.  If it already contains
    /// checkpoints, numbering continues after the largest existing sequence
    /// number so recovery and further checkpointing compose.
    pub fn new(directory: impl Into<PathBuf>, retain: usize) -> StateResult<Self> {
        let directory = directory.into();
        fs::create_dir_all(&directory)?;
        let lock = directory_lock(&directory);
        let next = Self::existing_sequences(&directory)?
            .last()
            .map(|&(seq, _)| seq + 1)
            .unwrap_or(0);
        Ok(Checkpointer {
            directory,
            retain: retain.max(1),
            sequence: AtomicU64::new(next),
            lock,
        })
    }

    /// Directory the checkpoints are written to.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// Number of checkpoints retained.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Sequence number the next checkpoint will use.
    pub fn next_sequence(&self) -> u64 {
        self.sequence.load(Ordering::SeqCst)
    }

    /// Existing checkpoint files, sorted by sequence number.
    fn existing_sequences(directory: &Path) -> StateResult<Vec<(u64, PathBuf)>> {
        let mut found = Vec::new();
        if !directory.exists() {
            return Ok(found);
        }
        for entry in fs::read_dir(directory)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(CHECKPOINT_EXTENSION) {
                continue;
            }
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default();
            if let Some(seq) = stem
                .strip_prefix("checkpoint-")
                .and_then(|s| s.parse::<u64>().ok())
            {
                found.push((seq, path));
            }
        }
        found.sort_by_key(|&(seq, _)| seq);
        Ok(found)
    }

    /// Paths of all checkpoints currently on disk, oldest first.
    pub fn list(&self) -> StateResult<Vec<PathBuf>> {
        Ok(Self::existing_sequences(&self.directory)?
            .into_iter()
            .map(|(_, p)| p)
            .collect())
    }

    fn path_for(&self, sequence: u64) -> PathBuf {
        self.directory
            .join(format!("checkpoint-{sequence:012}.{CHECKPOINT_EXTENSION}"))
    }

    /// Write a snapshot of `store` as the next checkpoint and prune old ones.
    ///
    /// Returns the path of the new checkpoint file.
    pub fn checkpoint(&self, store: &StateStore) -> StateResult<PathBuf> {
        self.write_snapshot(&StoreSnapshot::capture(store))
    }

    /// Write an already-captured snapshot as the next checkpoint (format
    /// version 1, no manifest).
    pub fn write_snapshot(&self, snapshot: &StoreSnapshot) -> StateResult<PathBuf> {
        self.write_bytes(snapshot.encode())
    }

    /// Write an epoch-stamped checkpoint as the next numbered file and prune
    /// old ones.
    pub fn write_checkpoint(&self, checkpoint: &Checkpoint) -> StateResult<PathBuf> {
        self.write_bytes(checkpoint.encode())
    }

    /// Write an encoded checkpoint as the next numbered file, durably, and
    /// prune old ones.
    ///
    /// The per-directory lock is held across sequence allocation, write and
    /// pruning, so concurrent checkpointers over one directory (engine
    /// clones) serialize instead of racing on file names or the retention
    /// window.  The file is fsynced before the rename and the directory
    /// fsynced after it: callers delete the WAL segments a checkpoint covers
    /// as soon as this returns, so the checkpoint must actually be on stable
    /// storage — not just in the page cache — by then.
    fn write_bytes(&self, encoded: Vec<u8>) -> StateResult<PathBuf> {
        use std::io::Write as _;

        let _guard = self.lock.lock();
        // Another instance over the same directory may have advanced the
        // on-disk numbering past our local counter; never reuse a live name.
        let on_disk_next = Self::existing_sequences(&self.directory)?
            .last()
            .map(|&(seq, _)| seq + 1)
            .unwrap_or(0);
        let sequence = self.sequence.load(Ordering::SeqCst).max(on_disk_next);
        self.sequence.store(sequence + 1, Ordering::SeqCst);
        let path = self.path_for(sequence);
        let tmp = path.with_extension("tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&encoded)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        #[cfg(unix)]
        fs::File::open(&self.directory)?.sync_all()?;
        self.prune_locked()?;
        Ok(path)
    }

    /// Remove all but the newest `retain` checkpoints.  The caller must hold
    /// the per-directory lock; a file already removed by a checkpointer in a
    /// *different process* is tolerated.
    fn prune_locked(&self) -> StateResult<()> {
        let existing = Self::existing_sequences(&self.directory)?;
        if existing.len() <= self.retain {
            return Ok(());
        }
        for (_, path) in &existing[..existing.len() - self.retain] {
            match fs::remove_file(path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                other => other?,
            }
        }
        Ok(())
    }

    /// Load the most recent checkpoint's snapshot, if any exists.
    pub fn latest_snapshot(&self) -> StateResult<Option<StoreSnapshot>> {
        Ok(self.latest_checkpoint()?.map(|cp| cp.snapshot))
    }

    /// Load the most recent checkpoint (manifest included), if any exists.
    pub fn latest_checkpoint(&self) -> StateResult<Option<Checkpoint>> {
        match Self::existing_sequences(&self.directory)?.last() {
            None => Ok(None),
            Some((_, path)) => {
                let bytes = fs::read(path)?;
                Ok(Some(Checkpoint::decode(&bytes)?))
            }
        }
    }

    /// Load the newest checkpoint whose manifest covers an epoch `<= epoch`
    /// — the restore base of a point-in-time recovery.
    ///
    /// Scans newest-first and stops at the first qualifying file, so the
    /// common case (recovering near the present) decodes one checkpoint.
    /// Manifest-less (version-1) files never qualify: without an epoch they
    /// cannot anchor a point-in-time restore.
    pub fn checkpoint_at_or_before(&self, epoch: u64) -> StateResult<Option<Checkpoint>> {
        for (_, path) in Self::existing_sequences(&self.directory)?.iter().rev() {
            let bytes = fs::read(path)?;
            let checkpoint = Checkpoint::decode(&bytes)?;
            if checkpoint.manifest.is_some_and(|m| m.epoch <= epoch) {
                return Ok(Some(checkpoint));
            }
        }
        Ok(None)
    }

    /// Convenience: restore the most recent checkpoint onto `store`.
    ///
    /// Returns `true` if a checkpoint was found and applied.
    pub fn recover_into(&self, store: &StateStore) -> StateResult<bool> {
        match self.latest_snapshot()? {
            None => Ok(false),
            Some(snapshot) => {
                snapshot.restore(store)?;
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tstream-checkpoint-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_store() -> Arc<StateStore> {
        let accounts = TableBuilder::new("accounts")
            .extend((0..32u64).map(|k| (k, Value::Long(k as i64 * 100))))
            .build()
            .unwrap();
        let speeds = TableBuilder::new("speeds")
            .extend((0..8u64).map(|k| (k, Value::Double(60.0 + k as f64))))
            .build()
            .unwrap();
        StateStore::new(vec![accounts, speeds]).unwrap()
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocating() {
        // Checkpoints carry no checksum and decode on the recovery path: a
        // count the file cannot back must be an error, not a reservation
        // (`Vec::with_capacity(u64::MAX)` panics with "capacity overflow").
        let mut tables = Vec::new();
        codec::put_snapshot_header(&mut tables, codec::SNAPSHOT_VERSION_PLAIN);
        let mut records = tables.clone();
        tables.extend_from_slice(&u32::MAX.to_le_bytes());
        records.extend_from_slice(&1u32.to_le_bytes());
        codec::put_string(&mut records, "accounts");
        records.extend_from_slice(&u64::MAX.to_le_bytes());
        for bytes in [tables, records] {
            assert!(matches!(
                StoreSnapshot::decode(&bytes),
                Err(StateError::Corrupted(_))
            ));
        }
    }

    #[test]
    fn snapshot_encode_decode_round_trip() {
        let store = sample_store();
        store
            .record(crate::TableId(0), 3)
            .unwrap()
            .write_committed(Value::Long(-7));
        let snapshot = StoreSnapshot::capture(&store);
        assert_eq!(snapshot.record_count(), 40);
        let decoded = StoreSnapshot::decode(&snapshot.encode()).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn restore_reproduces_the_captured_state() {
        let source = sample_store();
        source
            .record(crate::TableId(0), 5)
            .unwrap()
            .write_committed(Value::Long(555));
        source
            .record(crate::TableId(1), 2)
            .unwrap()
            .write_committed(Value::Double(12.5));
        let snapshot = StoreSnapshot::capture(&source);

        let target = sample_store();
        snapshot.restore(&target).unwrap();
        assert_eq!(target.snapshot(), source.snapshot());
    }

    #[test]
    fn restore_onto_mismatched_schema_fails_without_partial_apply() {
        let source = sample_store();
        let snapshot = StoreSnapshot::capture(&source);

        let other = StateStore::new(vec![TableBuilder::new("other")
            .insert(0, Value::Long(1))
            .build()
            .unwrap()])
        .unwrap();
        let before = other.snapshot();
        assert!(matches!(
            snapshot.restore(&other),
            Err(StateError::UnknownTable(_))
        ));
        assert_eq!(
            other.snapshot(),
            before,
            "nothing may be applied on failure"
        );
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let store = sample_store();
        let mut bytes = StoreSnapshot::capture(&store).encode();
        bytes.truncate(bytes.len() / 2);
        assert!(matches!(
            StoreSnapshot::decode(&bytes),
            Err(StateError::Corrupted(_))
        ));
        assert!(matches!(
            StoreSnapshot::decode(b"garbage"),
            Err(StateError::Corrupted(_))
        ));
        let mut trailing = StoreSnapshot::capture(&store).encode();
        trailing.push(0);
        assert!(matches!(
            StoreSnapshot::decode(&trailing),
            Err(StateError::Corrupted(_))
        ));
    }

    #[test]
    fn checkpointer_writes_numbered_files_and_prunes() {
        let dir = temp_dir("prune");
        let store = sample_store();
        let cp = Checkpointer::new(&dir, 2).unwrap();
        for i in 0..5i64 {
            store
                .record(crate::TableId(0), 0)
                .unwrap()
                .write_committed(Value::Long(i));
            cp.checkpoint(&store).unwrap();
        }
        let files = cp.list().unwrap();
        assert_eq!(files.len(), 2, "only the two newest checkpoints remain");
        // The latest checkpoint holds the latest value.
        let latest = cp.latest_snapshot().unwrap().unwrap();
        assert_eq!(latest.tables[0].entries[0].1, Value::Long(4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_restores_the_latest_checkpoint() {
        let dir = temp_dir("recover");
        let store = sample_store();
        {
            let cp = Checkpointer::new(&dir, 4).unwrap();
            store
                .record(crate::TableId(0), 7)
                .unwrap()
                .write_committed(Value::Long(777));
            cp.checkpoint(&store).unwrap();
        }
        // "Crash": a brand-new store and a brand-new checkpointer over the
        // same directory.
        let recovered = sample_store();
        let cp = Checkpointer::new(&dir, 4).unwrap();
        assert!(cp.recover_into(&recovered).unwrap());
        assert_eq!(recovered.snapshot(), store.snapshot());
        // Sequence numbering continues after the recovered checkpoint.
        assert_eq!(cp.next_sequence(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_with_no_checkpoints_is_a_noop() {
        let dir = temp_dir("empty");
        let cp = Checkpointer::new(&dir, 1).unwrap();
        let store = sample_store();
        let before = store.snapshot();
        assert!(!cp.recover_into(&store).unwrap());
        assert_eq!(store.snapshot(), before);
        assert!(cp.latest_snapshot().unwrap().is_none());
        assert!(cp.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_checkpoints_round_trip_and_plain_files_stay_readable() {
        let store = sample_store();
        let manifest = CheckpointManifest {
            epoch: 41,
            events: 4_200,
            committed: 4_100,
            rejected: 100,
        };
        let checkpoint = Checkpoint {
            manifest: Some(manifest),
            snapshot: StoreSnapshot::capture(&store),
        };
        let bytes = checkpoint.encode();
        assert_eq!(&bytes[..6], b"TSNAP2");
        let decoded = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(decoded, checkpoint);
        // StoreSnapshot::decode also accepts version 2 (manifest discarded).
        assert_eq!(StoreSnapshot::decode(&bytes).unwrap(), checkpoint.snapshot);

        // A version-1 file decodes with no manifest.
        let plain = checkpoint.snapshot.encode();
        assert_eq!(&plain[..6], b"TSNAP1");
        let decoded = Checkpoint::decode(&plain).unwrap();
        assert_eq!(decoded.manifest, None);
        assert_eq!(decoded.snapshot, checkpoint.snapshot);
    }

    #[test]
    fn checkpointer_persists_and_recovers_manifests() {
        let dir = temp_dir("manifest");
        let store = sample_store();
        let cp = Checkpointer::new(&dir, 2).unwrap();
        for epoch in 0..3u64 {
            cp.write_checkpoint(&Checkpoint {
                manifest: Some(CheckpointManifest {
                    epoch,
                    events: (epoch + 1) * 100,
                    committed: (epoch + 1) * 90,
                    rejected: (epoch + 1) * 10,
                }),
                snapshot: StoreSnapshot::capture(&store),
            })
            .unwrap();
        }
        let latest = cp.latest_checkpoint().unwrap().unwrap();
        let manifest = latest.manifest.unwrap();
        assert_eq!(manifest.epoch, 2);
        assert_eq!(manifest.events, 300);
        assert_eq!(manifest.committed, 270);
        assert_eq!(manifest.rejected, 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_format_versions_are_rejected_not_misparsed() {
        let mut bytes = sample_store_encoded();
        bytes[5] = b'7'; // pretend version 7
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(StateError::UnsupportedVersion { found: 7, .. })
        ));
    }

    fn sample_store_encoded() -> Vec<u8> {
        StoreSnapshot::capture(&sample_store()).encode()
    }

    #[test]
    fn concurrent_checkpointers_over_one_directory_do_not_race_on_retention() {
        // Regression: two engine clones (separate `Checkpointer` instances)
        // pruning the same directory used to race in the list+delete window —
        // both would list the same victim and the loser died on NotFound.
        // The per-directory lock serializes the whole write+prune.
        let dir = temp_dir("race");
        fs::create_dir_all(&dir).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let store = sample_store();
                    let cp = Checkpointer::new(&dir, 2).unwrap();
                    for i in 0..8i64 {
                        store
                            .record(crate::TableId(0), 0)
                            .unwrap()
                            .write_committed(Value::Long(t * 100 + i));
                        cp.checkpoint(&store).expect("no retention race");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no thread may panic");
        }
        // One more write from a fresh instance settles the directory at
        // exactly the retention limit, and the latest file is decodable.
        let cp = Checkpointer::new(&dir, 2).unwrap();
        cp.checkpoint(&sample_store()).unwrap();
        assert_eq!(cp.list().unwrap().len(), 2);
        assert!(cp.latest_snapshot().unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn configuration_accessors() {
        let dir = temp_dir("config");
        let cp = Checkpointer::new(&dir, 0).unwrap();
        assert_eq!(cp.retain(), 1, "retention is clamped to at least one");
        assert_eq!(cp.directory(), dir.as_path());
        assert_eq!(cp.next_sequence(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
