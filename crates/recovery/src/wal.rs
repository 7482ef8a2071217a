//! The segmented, punctuation-aligned write-ahead input log.
//!
//! Every input event is appended to the **active segment** before it is
//! routed to an executor; the segment **seals** exactly when the punctuation
//! closes the batch.  One sealed segment therefore corresponds to one
//! executed batch — its file name carries the batch's durable **epoch** —
//! which is what lets recovery replay surviving segments as whole batches
//! and lets a checkpoint for epoch `e` truncate every segment `<= e`.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! directory/  segment-000000000000.twal        sealed epoch 0
//!             segment-000000000001.twal        sealed epoch 1
//!             segment-000000000002.twal.open   active (tail) segment
//!
//! segment  := header frame*
//! header   := "TWAL" version_digit u64:epoch
//! frame    := 0x01 u32:len payload_bytes      one input event
//!           | 0xFF u64:record_count           seal marker (last frame)
//! ```
//!
//! A crash can leave a torn frame at the tail of the *active* segment; the
//! complete prefix is replayed and the torn bytes are truncated when the
//! segment is reopened (the event was never acknowledged to the producer).
//! A sealed segment with a torn frame is corruption.  A crash between
//! writing the seal marker and the rename is healed on open: a `.open` file
//! that ends with a valid seal marker is renamed into place.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use tstream_obs::Stopwatch;
use tstream_state::codec::Reader;
use tstream_state::{StateError, StateResult};

/// Magic prefix of every WAL segment; an ASCII-digit version byte follows.
pub const WAL_MAGIC: &[u8; 4] = b"TWAL";

/// Newest WAL format version this build can decode (and the one it writes).
pub const WAL_VERSION: u8 = 1;

/// File extension of sealed segments.
pub const SEGMENT_EXTENSION: &str = "twal";

/// Extension suffix of the active (unsealed) segment.
pub const OPEN_SUFFIX: &str = ".open";

const FRAME_EVENT: u8 = 0x01;
const FRAME_SEAL: u8 = 0xFF;

/// When the log forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; rely on the OS to flush.  Fastest, weakest: a machine
    /// crash (not just a process crash) can lose recently sealed batches.
    Never,
    /// Fsync when a segment seals — once per punctuation batch.  The
    /// default: a sealed (checkpointable, replayable) batch is always
    /// durable, while per-event appends stay cheap.
    #[default]
    OnSeal,
    /// Fsync after every appended event.  Strongest, slowest.
    Always,
}

impl FsyncPolicy {
    /// Label used in reports and config dumps.
    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Never => "never",
            FsyncPolicy::OnSeal => "on-seal",
            FsyncPolicy::Always => "always",
        }
    }
}

/// Bounds of one **group-commit window**.
///
/// Appended events accumulate in a writer-owned frame buffer; the buffer is
/// flushed to the segment file (and, under [`FsyncPolicy::Always`], fsynced)
/// when either bound is reached, so the cost of a `write` syscall — and of a
/// sync — is amortized over the whole window instead of being paid per
/// event.  Under `Always` an event is **acked by the group sync that covers
/// it**: a crash can lose at most the tail of the current (un-synced)
/// window, which no caller was told is durable.  Sealing always flushes and
/// (per policy) syncs whatever is buffered, so a sealed batch is never
/// partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Flush when this many events are buffered.
    pub window_events: u64,
    /// Flush when the buffered frames reach this many bytes.
    pub window_bytes: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            window_events: 128,
            window_bytes: 32 * 1024,
        }
    }
}

/// Cumulative WAL activity counters.
///
/// Accumulated as plain integers under the owner's (`DurableLog`'s) mutex —
/// the WAL itself never touches atomics or an observability handle — and
/// drained as deltas into the engine's metrics hub at batch boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Group-commit windows flushed (inline or handed off).
    pub windows: u64,
    /// `fsync` (`sync_data`) calls issued.
    pub fsyncs: u64,
    /// Nanoseconds spent inside those syncs.
    pub fsync_ns: u64,
    /// Segments sealed.
    pub seals: u64,
    /// Sealed segments removed by checkpoint truncation.
    pub truncated_segments: u64,
}

impl WalStats {
    /// Field-wise `self - prev` (saturating), for delta draining against a
    /// cached previous snapshot.
    pub fn delta_since(&self, prev: &WalStats) -> WalStats {
        WalStats {
            windows: self.windows.saturating_sub(prev.windows),
            fsyncs: self.fsyncs.saturating_sub(prev.fsyncs),
            fsync_ns: self.fsync_ns.saturating_sub(prev.fsync_ns),
            seals: self.seals.saturating_sub(prev.seals),
            truncated_segments: self
                .truncated_segments
                .saturating_sub(prev.truncated_segments),
        }
    }
}

/// A full group-commit window handed off for out-of-line writing: the frames
/// to append, a duplicated handle of the active segment file, and whether
/// the policy wants the window synced.  Produced by
/// [`SegmentedWal::take_window`]; consumed by [`PendingWindow::commit`] on
/// whatever thread performs the I/O (the engine's WAL-writer thread in
/// production).
#[derive(Debug)]
pub struct PendingWindow {
    frames: Vec<u8>,
    file: File,
    sync: bool,
}

impl PendingWindow {
    /// Write (and per policy sync) the window.  Returns the drained frame
    /// buffer — so the owner can hand it back via
    /// [`SegmentedWal::recycle_window_buffer`] — and the nanoseconds spent
    /// in the sync (`None` when the policy wanted none), which the owner
    /// feeds back via [`SegmentedWal::note_offline_sync`].
    pub fn commit(mut self) -> std::io::Result<(Vec<u8>, Option<u64>)> {
        self.file.write_all(&self.frames)?;
        let mut sync_ns = None;
        if self.sync {
            let sw = Stopwatch::start();
            self.file.sync_data()?;
            sync_ns = Some(sw.elapsed_ns());
        }
        Ok((self.frames, sync_ns))
    }
}

/// How a payload type serialises itself into (and out of) WAL frames.
///
/// Implementations reuse the primitives of [`tstream_state::codec`]; the
/// framing (length prefix, seal markers, headers) is owned by this module,
/// so an implementation only encodes its own fields.
pub trait WalPayload: Sized {
    /// Append the encoded payload onto `out`.
    fn encode_wal(&self, out: &mut Vec<u8>);
    /// Decode one payload; must consume exactly the bytes `encode_wal`
    /// produced (the caller verifies the frame is fully consumed).
    fn decode_wal(reader: &mut Reader<'_>) -> StateResult<Self>;
}

/// One segment file on disk, as discovered by a directory scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Durable epoch (batch number) the segment covers.
    pub epoch: u64,
    /// Path of the segment file.
    pub path: PathBuf,
    /// Whether the segment is sealed (complete batch) or the active tail.
    pub sealed: bool,
}

/// A fully decoded segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSegment<P> {
    /// Durable epoch (batch number) the segment covers.
    pub epoch: u64,
    /// The events of the segment, in append order.
    pub events: Vec<P>,
    /// Whether the segment was sealed.  An unsealed segment yields its
    /// complete frame prefix; a torn tail frame is skipped.
    pub sealed: bool,
}

fn sealed_name(epoch: u64) -> String {
    format!("segment-{epoch:012}.{SEGMENT_EXTENSION}")
}

/// File name a sealed segment of `epoch` carries (`segment-<epoch>.twal`).
///
/// Exposed so shipping and mirroring code can address a sealed segment — or
/// write a received one under its canonical name — without reimplementing
/// the layout.
pub fn sealed_segment_name(epoch: u64) -> String {
    sealed_name(epoch)
}

fn open_name(epoch: u64) -> String {
    format!("{}{OPEN_SUFFIX}", sealed_name(epoch))
}

/// Parse `segment-<epoch>.twal[.open]`; `None` for foreign files.
fn parse_segment_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("segment-")?;
    if let Some(digits) = rest.strip_suffix(&format!(".{SEGMENT_EXTENSION}")) {
        return Some((digits.parse().ok()?, true));
    }
    let digits = rest.strip_suffix(&format!(".{SEGMENT_EXTENSION}{OPEN_SUFFIX}"))?;
    Some((digits.parse().ok()?, false))
}

/// List every segment of `directory`, sealed and open, sorted by epoch.
pub fn list_segments(directory: &Path) -> StateResult<Vec<SegmentInfo>> {
    let mut found = Vec::new();
    if !directory.exists() {
        return Ok(found);
    }
    for entry in fs::read_dir(directory)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some((epoch, sealed)) = parse_segment_name(name) {
            found.push(SegmentInfo {
                epoch,
                path,
                sealed,
            });
        }
    }
    found.sort_by_key(|s| s.epoch);
    Ok(found)
}

/// Result of structurally scanning one segment's bytes.
struct SegmentScan {
    epoch: u64,
    records: u64,
    /// Byte length of the valid prefix (header + complete frames); anything
    /// past it is a torn tail.
    valid_len: u64,
    sealed: bool,
}

/// Scan a segment's frames without decoding payloads.
///
/// `expect_sealed` tightens the rules for sealed files: a missing seal
/// marker or torn tail there is corruption, while the active segment merely
/// ends at its last complete frame.
fn scan_segment(bytes: &[u8], expect_sealed: bool) -> StateResult<SegmentScan> {
    let mut reader = Reader::new(bytes);
    reader.versioned_header(WAL_MAGIC, WAL_VERSION, "WAL segment")?;
    let epoch = reader.u64()?;
    let mut records = 0u64;
    let mut valid_len = (bytes.len() - reader.remaining()) as u64;
    loop {
        if reader.remaining() == 0 {
            break;
        }
        let before_frame = reader.remaining();
        match reader.u8()? {
            FRAME_EVENT => {
                if reader.remaining() < 4 {
                    break; // torn length prefix
                }
                let len = reader.u32()? as usize;
                if reader.remaining() < len {
                    break; // torn payload
                }
                reader.skip(len)?;
                records += 1;
                valid_len += (before_frame - reader.remaining()) as u64;
            }
            FRAME_SEAL => {
                if reader.remaining() < 8 {
                    break; // torn seal marker
                }
                let count = reader.u64()?;
                if count != records {
                    if expect_sealed {
                        return Err(StateError::Corrupted(format!(
                            "WAL seal marker claims {count} records, segment has {records}"
                        )));
                    }
                    break; // garbage at the tail that happens to look like a marker
                }
                if reader.remaining() != 0 {
                    if expect_sealed {
                        return Err(StateError::Corrupted(format!(
                            "{} trailing bytes after WAL seal marker",
                            reader.remaining()
                        )));
                    }
                    break;
                }
                return Ok(SegmentScan {
                    epoch,
                    records,
                    valid_len: bytes.len() as u64,
                    sealed: true,
                });
            }
            tag => {
                if expect_sealed {
                    return Err(StateError::Corrupted(format!(
                        "unknown WAL frame tag {tag:#04x}"
                    )));
                }
                // The active segment's appends are not necessarily fsynced:
                // a machine crash can persist the file size without the data
                // (zero-filled blocks), so arbitrary garbage after the last
                // complete frame is a torn tail, not corruption.
                break;
            }
        }
    }
    if expect_sealed {
        return Err(StateError::Corrupted(
            "sealed WAL segment is missing its seal marker".to_owned(),
        ));
    }
    Ok(SegmentScan {
        epoch,
        records,
        valid_len,
        sealed: false,
    })
}

/// Decode a segment file's events.
///
/// Sealed segments must be structurally perfect; the active segment yields
/// its complete frame prefix (a torn tail frame — the event whose append the
/// crash interrupted, never acknowledged — is dropped).
pub fn read_segment<P: WalPayload>(path: &Path) -> StateResult<DecodedSegment<P>> {
    let bytes = fs::read(path)?;
    let expect_sealed = path.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXTENSION);
    let scan = scan_segment(&bytes, expect_sealed)?;
    let mut reader = Reader::new(&bytes[..scan.valid_len as usize]);
    reader.versioned_header(WAL_MAGIC, WAL_VERSION, "WAL segment")?;
    let _epoch = reader.u64()?;
    let mut events = Vec::with_capacity(scan.records as usize);
    for _ in 0..scan.records {
        match reader.u8()? {
            FRAME_EVENT => {
                let len = reader.u32()? as usize;
                let before = reader.remaining();
                let event = P::decode_wal(&mut reader)?;
                let consumed = before - reader.remaining();
                if consumed != len {
                    return Err(StateError::Corrupted(format!(
                        "WAL event frame declared {len} payload bytes, decoder consumed {consumed}"
                    )));
                }
                events.push(event);
            }
            tag => {
                return Err(StateError::Corrupted(format!(
                    "expected WAL event frame, found tag {tag:#04x}"
                )));
            }
        }
    }
    Ok(DecodedSegment {
        epoch: scan.epoch,
        events,
        sealed: scan.sealed,
    })
}

struct ActiveSegment {
    file: File,
    path: PathBuf,
    epoch: u64,
    records: u64,
}

/// The writer side of the log: one active segment at a time, sealed at
/// punctuation, plus maintenance (truncation, reopen-after-crash).
///
/// Not internally synchronized — the owner (`DurableLog`) wraps it in a
/// mutex, since appends come from the ingestion thread while truncation
/// comes from the executor leader.
pub struct SegmentedWal {
    directory: PathBuf,
    fsync: FsyncPolicy,
    group: GroupCommitConfig,
    active: Option<ActiveSegment>,
    next_epoch: u64,
    bytes_written: u64,
    /// Reusable frame buffer: appends encode into it in place (no per-event
    /// allocation, no per-event `write` syscall); it drains to the file once
    /// per group-commit window and at seal.
    frame_buf: Vec<u8>,
    /// Events currently sitting in `frame_buf`.
    buffered_records: u64,
    /// Drained window buffer handed back for reuse (ping-pong with
    /// `frame_buf` when windows are written out-of-line).
    spare_buf: Option<Vec<u8>>,
    /// Set when a seal failed mid-way: the tail file may carry a partial
    /// seal marker, so appends are refused until the directory is reopened.
    poisoned: bool,
    /// Cumulative activity counters (see [`WalStats`]).
    stats: WalStats,
}

impl std::fmt::Debug for SegmentedWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedWal")
            .field("directory", &self.directory)
            .field("fsync", &self.fsync)
            .field("active_epoch", &self.active.as_ref().map(|a| a.epoch))
            .field("next_epoch", &self.next_epoch)
            .finish()
    }
}

impl SegmentedWal {
    /// Open (or create) the log at `directory`.
    ///
    /// `first_epoch` is the numbering floor: the epoch a checkpoint already
    /// covers, plus one (`0` with no covering checkpoint).  It matters when
    /// a checkpoint has truncated *every* sealed segment — the directory
    /// alone then carries no epoch information, and numbering must resume at
    /// the floor, not restart at zero (a restarted log that re-used low
    /// epochs would label live batches as checkpoint-covered, and the next
    /// recovery would silently truncate them).
    ///
    /// Crash healing happens here: a `.open` file that already ends with a
    /// valid seal marker is renamed into its sealed name (the crash hit
    /// between marker and rename); an unsealed tail segment is truncated to
    /// its last complete frame and reopened for further appends.
    pub fn open(
        directory: impl Into<PathBuf>,
        fsync: FsyncPolicy,
        first_epoch: u64,
    ) -> StateResult<Self> {
        let directory = directory.into();
        fs::create_dir_all(&directory)?;
        let mut sealed_max: Option<u64> = None;
        let mut tail: Option<(u64, PathBuf, SegmentScan)> = None;
        for info in list_segments(&directory)? {
            if info.sealed {
                sealed_max = Some(sealed_max.map_or(info.epoch, |m| m.max(info.epoch)));
                continue;
            }
            let scan = scan_segment(&fs::read(&info.path)?, false)?;
            if scan.epoch != info.epoch {
                return Err(StateError::Corrupted(format!(
                    "WAL segment {} carries epoch {} in its header",
                    info.path.display(),
                    scan.epoch
                )));
            }
            if scan.sealed {
                // Heal a crash between seal marker and rename.
                let sealed_path = directory.join(sealed_name(info.epoch));
                fs::rename(&info.path, &sealed_path)?;
                sealed_max = Some(sealed_max.map_or(info.epoch, |m| m.max(info.epoch)));
                continue;
            }
            if tail.is_some() {
                return Err(StateError::Corrupted(
                    "multiple open WAL segments; refusing to guess the tail".to_owned(),
                ));
            }
            tail = Some((info.epoch, info.path, scan));
        }

        let mut wal = SegmentedWal {
            directory,
            fsync,
            group: GroupCommitConfig::default(),
            active: None,
            next_epoch: sealed_max.map_or(first_epoch, |m| (m + 1).max(first_epoch)),
            bytes_written: 0,
            frame_buf: Vec::new(),
            buffered_records: 0,
            spare_buf: None,
            poisoned: false,
            stats: WalStats::default(),
        };
        if let Some((epoch, path, scan)) = tail {
            if epoch != wal.next_epoch {
                return Err(StateError::Corrupted(format!(
                    "open WAL segment carries epoch {epoch}, expected {} \
                     (sealed segments end at {sealed_max:?}, numbering floor {first_epoch})",
                    wal.next_epoch
                )));
            }
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(scan.valid_len)?; // drop the torn tail frame, if any
            drop(file);
            let file = OpenOptions::new().append(true).open(&path)?;
            wal.active = Some(ActiveSegment {
                file,
                path,
                epoch,
                records: scan.records,
            });
            wal.next_epoch = epoch + 1;
        }
        Ok(wal)
    }

    /// Directory the segments live in.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// Epoch of the active segment, if one is open.
    pub fn active_epoch(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.epoch)
    }

    /// Events sitting in the active segment.
    pub fn pending_records(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.records)
    }

    /// Epoch the next freshly created segment will carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Bytes appended through this writer instance (frames + headers).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Cumulative activity counters of this writer instance.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Fold the sync timing of an out-of-line window commit (reported by
    /// [`PendingWindow::commit`]) back into the counters.
    pub fn note_offline_sync(&mut self, sync_ns: Option<u64>) {
        if let Some(ns) = sync_ns {
            self.stats.fsyncs += 1;
            self.stats.fsync_ns += ns;
        }
    }

    /// Replace the group-commit window bounds (defaults otherwise).
    pub fn set_group_commit(&mut self, group: GroupCommitConfig) {
        self.group = group;
    }

    /// Current group-commit window bounds.
    pub fn group_commit(&self) -> GroupCommitConfig {
        self.group
    }

    /// Whether a full window is forced to disk ([`FsyncPolicy::Always`]).
    /// Only such a window is worth writing on another thread: without the
    /// sync, committing it is one buffered `write`.
    pub fn syncs_windows(&self) -> bool {
        self.fsync == FsyncPolicy::Always
    }

    /// Append one encoded event to the active segment, creating the segment
    /// if this is the first event since the last seal.  The frame lands in
    /// the reusable in-memory buffer; when the group-commit window fills,
    /// the buffer is flushed (and under [`FsyncPolicy::Always`] synced)
    /// inline.
    pub fn append(&mut self, payload: &[u8]) -> StateResult<()> {
        let full = self.append_deferred(|buf| buf.extend_from_slice(payload))?;
        if full {
            self.flush_window()?;
        }
        Ok(())
    }

    /// Buffer one event frame, encoding the payload directly into the frame
    /// buffer via `encode` (no intermediate allocation).  Returns whether
    /// the group-commit window is now full; the caller then either calls
    /// [`SegmentedWal::flush_window`] inline or hands the window to another
    /// thread via [`SegmentedWal::take_window`].
    pub fn append_deferred(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> StateResult<bool> {
        if self.poisoned {
            return Err(StateError::Io(
                "WAL poisoned by an earlier failed seal; reopen the directory to recover"
                    .to_owned(),
            ));
        }
        if self.active.is_none() {
            let epoch = self.next_epoch;
            let path = self.directory.join(open_name(epoch));
            let mut header = Vec::with_capacity(16);
            header.extend_from_slice(WAL_MAGIC);
            header.push(b'0' + WAL_VERSION);
            header.extend_from_slice(&epoch.to_le_bytes());
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&path)?;
            file.write_all(&header)?;
            self.bytes_written += header.len() as u64;
            self.active = Some(ActiveSegment {
                file,
                path,
                epoch,
                records: 0,
            });
            self.next_epoch = epoch + 1;
        }
        let active = self.active.as_mut().expect("just ensured");
        let buf = &mut self.frame_buf;
        buf.push(FRAME_EVENT);
        let len_at = buf.len();
        buf.extend_from_slice(&[0u8; 4]);
        encode(buf);
        let payload_len = buf.len() - len_at - 4;
        buf[len_at..len_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        active.records += 1;
        self.buffered_records += 1;
        self.bytes_written += (5 + payload_len) as u64;
        Ok(self.buffered_records >= self.group.window_events
            || self.frame_buf.len() as u64 >= self.group.window_bytes)
    }

    /// Flush the buffered window to the segment file with one `write`, and
    /// force it to disk under [`FsyncPolicy::Always`].  A failed flush
    /// poisons the writer — the file may hold a torn frame, and appending
    /// behind it would corrupt the tail.
    pub fn flush_window(&mut self) -> StateResult<()> {
        if self.frame_buf.is_empty() {
            return Ok(());
        }
        let Some(active) = self.active.as_mut() else {
            return Ok(());
        };
        let stats = &mut self.stats;
        let fsync = self.fsync;
        let outcome = (|| {
            active.file.write_all(&self.frame_buf)?;
            if fsync == FsyncPolicy::Always {
                let sw = Stopwatch::start();
                active.file.sync_data()?;
                stats.fsyncs += 1;
                stats.fsync_ns += sw.elapsed_ns();
            }
            stats.windows += 1;
            Ok(())
        })();
        self.frame_buf.clear();
        self.buffered_records = 0;
        if outcome.is_err() {
            self.poison();
        }
        outcome
    }

    /// Hand the buffered window off for out-of-line writing: the frames move
    /// out (the spare buffer, if any, slides in so appends keep a warm
    /// allocation) together with a duplicated file handle.  Returns `None`
    /// when nothing is buffered.  The caller owns ordering: no other write
    /// to the segment may happen until [`PendingWindow::commit`] ran.
    pub fn take_window(&mut self) -> StateResult<Option<PendingWindow>> {
        if self.frame_buf.is_empty() {
            return Ok(None);
        }
        let Some(active) = self.active.as_ref() else {
            return Ok(None);
        };
        let file = active.file.try_clone()?;
        let spare = self.spare_buf.take().unwrap_or_default();
        let frames = std::mem::replace(&mut self.frame_buf, spare);
        self.buffered_records = 0;
        self.stats.windows += 1;
        Ok(Some(PendingWindow {
            frames,
            file,
            sync: self.syncs_windows(),
        }))
    }

    /// Hand a drained window buffer back for reuse by the next window.
    pub fn recycle_window_buffer(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.spare_buf = Some(buf);
    }

    /// Poison the writer: the tail file is in an unknown state (torn frame,
    /// partial seal marker), so appends and seals are refused until the
    /// directory is reopened and healed.
    pub fn poison(&mut self) {
        self.poisoned = true;
        self.active = None;
        self.frame_buf.clear();
        self.buffered_records = 0;
    }

    /// Seal the active segment at a punctuation boundary: flush the buffered
    /// window, write the seal marker, force the file to disk (per policy),
    /// rename it into its sealed name, and fsync the directory so the rename
    /// itself is durable.  Returns the sealed epoch.
    ///
    /// Without the directory sync a crash after `seal` returned could
    /// resurrect the segment under its unsealed name — losing an epoch the
    /// caller was told is durable — so it is skipped only under
    /// [`FsyncPolicy::Never`], mirroring the checkpoint path's file+dir
    /// fsync.
    ///
    /// A failed seal **poisons** the writer: the segment may hold a partial
    /// or un-renamed seal marker, so further appends (which would interleave
    /// event frames behind it and corrupt the tail) are refused until the
    /// directory is reopened — `open` truncates a torn marker back to the
    /// last complete event and heals a fully written one.
    pub fn seal(&mut self) -> StateResult<u64> {
        if self.poisoned {
            return Err(StateError::Io(
                "WAL poisoned by an earlier failed seal; reopen the directory to recover"
                    .to_owned(),
            ));
        }
        let Some(active) = self.active.as_mut() else {
            return Err(StateError::InvalidDefinition(
                "sealing a WAL with no active segment".to_owned(),
            ));
        };
        let mut marker = [0u8; 9];
        marker[0] = FRAME_SEAL;
        marker[1..].copy_from_slice(&active.records.to_le_bytes());
        let directory = &self.directory;
        let frame_buf = &mut self.frame_buf;
        let fsync = self.fsync;
        let stats = &mut self.stats;
        let sealed = (|| {
            if !frame_buf.is_empty() {
                active.file.write_all(frame_buf)?;
                stats.windows += 1;
            }
            active.file.write_all(&marker)?;
            if fsync != FsyncPolicy::Never {
                let sw = Stopwatch::start();
                active.file.sync_data()?;
                stats.fsyncs += 1;
                stats.fsync_ns += sw.elapsed_ns();
            }
            let sealed_path = directory.join(sealed_name(active.epoch));
            fs::rename(&active.path, &sealed_path)?;
            if fsync != FsyncPolicy::Never {
                let sw = Stopwatch::start();
                File::open(directory)?.sync_all()?;
                stats.fsyncs += 1;
                stats.fsync_ns += sw.elapsed_ns();
            }
            stats.seals += 1;
            Ok(active.epoch)
        })();
        self.frame_buf.clear();
        self.buffered_records = 0;
        match sealed {
            Ok(epoch) => {
                self.bytes_written += marker.len() as u64;
                self.active = None;
                Ok(epoch)
            }
            Err(e) => {
                self.poisoned = true;
                self.active = None;
                Err(e)
            }
        }
    }

    /// Delete every sealed segment with epoch `<= epoch` (they are covered
    /// by a durable checkpoint).  The active segment is never touched.
    /// Returns how many segments were removed.
    pub fn truncate_through(&mut self, epoch: u64) -> StateResult<usize> {
        let mut removed = 0;
        for info in list_segments(&self.directory)? {
            if !info.sealed || info.epoch > epoch {
                continue;
            }
            match fs::remove_file(&info.path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                other => other?,
            }
            removed += 1;
        }
        self.stats.truncated_segments += removed as u64;
        Ok(removed)
    }
}

impl Drop for SegmentedWal {
    /// Best-effort flush of a still-buffered window so a clean shutdown
    /// (process exit without seal) leaves the complete frames on the file
    /// for tail replay.  No sync: an unsealed tail was never acked as
    /// durable beyond the policy's per-window guarantee, and erroring in
    /// drop would mask the original failure.
    fn drop(&mut self) {
        if self.poisoned || self.frame_buf.is_empty() {
            return;
        }
        if let Some(active) = self.active.as_mut() {
            let _ = active.file.write_all(&self.frame_buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WalPayload for u64 {
        fn encode_wal(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }
        fn decode_wal(reader: &mut Reader<'_>) -> StateResult<Self> {
            reader.u64()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tstream-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn append_u64(wal: &mut SegmentedWal, value: u64) {
        let mut buf = Vec::new();
        value.encode_wal(&mut buf);
        wal.append(&buf).unwrap();
    }

    #[test]
    fn segments_seal_at_batch_boundaries_and_replay_in_order() {
        let dir = temp_dir("roundtrip");
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::OnSeal, 0).unwrap();
        for batch in 0..3u64 {
            for i in 0..4u64 {
                append_u64(&mut wal, batch * 10 + i);
            }
            assert_eq!(wal.pending_records(), 4);
            assert_eq!(wal.seal().unwrap(), batch);
        }
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 3);
        assert!(segments.iter().all(|s| s.sealed));
        for (i, info) in segments.iter().enumerate() {
            let decoded = read_segment::<u64>(&info.path).unwrap();
            assert_eq!(decoded.epoch, i as u64);
            assert!(decoded.sealed);
            assert_eq!(
                decoded.events,
                (0..4).map(|j| i as u64 * 10 + j).collect::<Vec<_>>()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_the_epoch_sequence() {
        let dir = temp_dir("reopen");
        {
            let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
            append_u64(&mut wal, 1);
            wal.seal().unwrap();
        }
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(wal.next_epoch(), 1);
        append_u64(&mut wal, 2);
        assert_eq!(wal.seal().unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_tail_is_reopened_for_append() {
        let dir = temp_dir("tail");
        {
            let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
            append_u64(&mut wal, 7);
            wal.seal().unwrap();
            append_u64(&mut wal, 8);
            append_u64(&mut wal, 9);
            // Dropped without seal: simulates a crash mid-batch.
        }
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(wal.active_epoch(), Some(1));
        assert_eq!(wal.pending_records(), 2);
        append_u64(&mut wal, 10);
        assert_eq!(wal.seal().unwrap(), 1);
        let segments = list_segments(&dir).unwrap();
        let decoded = read_segment::<u64>(&segments[1].path).unwrap();
        assert_eq!(decoded.events, vec![8, 9, 10]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_frames_are_truncated_on_reopen() {
        let dir = temp_dir("torn");
        {
            let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
            append_u64(&mut wal, 1);
            append_u64(&mut wal, 2);
        }
        // Corrupt the tail: half an event frame (tag + truncated length).
        let open_path = dir.join(open_name(0));
        let mut bytes = fs::read(&open_path).unwrap();
        bytes.extend_from_slice(&[FRAME_EVENT, 3, 0]);
        fs::write(&open_path, &bytes).unwrap();

        // The torn frame is invisible to readers and dropped on reopen.
        let decoded = read_segment::<u64>(&open_path).unwrap();
        assert_eq!(decoded.events, vec![1, 2]);
        assert!(!decoded.sealed);
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(wal.pending_records(), 2);
        append_u64(&mut wal, 3);
        wal.seal().unwrap();
        let decoded = read_segment::<u64>(&dir.join(sealed_name(0))).unwrap();
        assert_eq!(decoded.events, vec![1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_filled_tail_garbage_is_truncated_not_fatal() {
        // Appends are not fsynced under OnSeal/Never, so a machine crash can
        // persist the tail file's *size* without its data — ext4 leaves
        // zero-filled blocks.  0x00 is not a frame tag; the tail must still
        // reopen with its complete prefix instead of failing as corrupted.
        let dir = temp_dir("zero-fill");
        {
            let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
            append_u64(&mut wal, 1);
            append_u64(&mut wal, 2);
        }
        let open_path = dir.join(open_name(0));
        let mut bytes = fs::read(&open_path).unwrap();
        bytes.extend_from_slice(&[0u8; 512]);
        fs::write(&open_path, &bytes).unwrap();

        let decoded = read_segment::<u64>(&open_path).unwrap();
        assert_eq!(decoded.events, vec![1, 2]);
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(wal.pending_records(), 2);
        append_u64(&mut wal, 3);
        wal.seal().unwrap();
        let decoded = read_segment::<u64>(&dir.join(sealed_name(0))).unwrap();
        assert_eq!(decoded.events, vec![1, 2, 3]);

        // The same garbage in a *sealed* segment stays fatal.
        let sealed_path = dir.join(sealed_name(0));
        let mut bytes = fs::read(&sealed_path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        fs::write(&sealed_path, &bytes).unwrap();
        assert!(matches!(
            read_segment::<u64>(&sealed_path),
            Err(StateError::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_between_seal_marker_and_rename_is_healed() {
        let dir = temp_dir("heal");
        {
            let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
            append_u64(&mut wal, 5);
        }
        // Hand-write the seal marker without renaming, as a crash would.
        let open_path = dir.join(open_name(0));
        let mut bytes = fs::read(&open_path).unwrap();
        bytes.push(FRAME_SEAL);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        fs::write(&open_path, &bytes).unwrap();

        let wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(wal.active_epoch(), None);
        assert_eq!(wal.next_epoch(), 1);
        let decoded = read_segment::<u64>(&dir.join(sealed_name(0))).unwrap();
        assert!(decoded.sealed);
        assert_eq!(decoded.events, vec![5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_removes_covered_segments_only() {
        let dir = temp_dir("truncate");
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        for batch in 0..4u64 {
            append_u64(&mut wal, batch);
            wal.seal().unwrap();
        }
        append_u64(&mut wal, 99); // active tail, epoch 4
        assert_eq!(wal.truncate_through(2).unwrap(), 3);
        let segments = list_segments(&dir).unwrap();
        let epochs: Vec<(u64, bool)> = segments.iter().map(|s| (s.epoch, s.sealed)).collect();
        assert_eq!(epochs, vec![(3, true), (4, false)]);
        // Idempotent: nothing left to remove below 2.
        assert_eq!(wal.truncate_through(2).unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segment_corruption_is_rejected() {
        let dir = temp_dir("corrupt");
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        append_u64(&mut wal, 1);
        wal.seal().unwrap();
        let path = dir.join(sealed_name(0));
        let bytes = fs::read(&path).unwrap();

        // Truncated sealed file: missing seal marker.
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            read_segment::<u64>(&path),
            Err(StateError::Corrupted(_))
        ));

        // Wrong record count in the seal marker.
        let mut wrong = bytes.clone();
        let len = wrong.len();
        wrong[len - 8..].copy_from_slice(&9u64.to_le_bytes());
        fs::write(&path, &wrong).unwrap();
        assert!(matches!(
            read_segment::<u64>(&path),
            Err(StateError::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_wal_versions_are_rejected_with_a_clear_error() {
        let dir = temp_dir("version");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(sealed_name(0));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.push(b'9');
        bytes.extend_from_slice(&0u64.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment::<u64>(&path),
            Err(StateError::UnsupportedVersion {
                artifact: "WAL segment",
                found: 9,
                ..
            })
        ));
        // The writer refuses to adopt the directory too.
        let renamed = dir.join(open_name(0));
        fs::rename(&path, &renamed).unwrap();
        assert!(matches!(
            SegmentedWal::open(&dir, FsyncPolicy::Never, 0),
            Err(StateError::UnsupportedVersion { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_numbering_floor_governs_an_emptied_directory() {
        // After a checkpoint truncated every sealed segment the directory is
        // empty; numbering must resume at the floor, not restart at 0.
        let dir = temp_dir("floor");
        {
            let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 7).unwrap();
            assert_eq!(wal.next_epoch(), 7);
            append_u64(&mut wal, 1);
            assert_eq!(wal.seal().unwrap(), 7);
            append_u64(&mut wal, 2); // unsealed tail, epoch 8
        }
        // Reopen after the covering checkpoint advanced to epoch 7: the
        // sealed segment is stale, the tail must still line up.
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 8).unwrap();
        assert_eq!(wal.active_epoch(), Some(8));
        wal.truncate_through(7).unwrap();
        append_u64(&mut wal, 3);
        assert_eq!(wal.seal().unwrap(), 8);

        // A floor *below* the on-disk state must not rewind numbering.
        let wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(wal.next_epoch(), 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tail_segment_below_the_floor_is_rejected() {
        // A tail carrying an epoch the checkpoint already covers means the
        // directory is inconsistent — replaying it would double-apply.
        let dir = temp_dir("floor-reject");
        {
            let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
            append_u64(&mut wal, 1); // tail epoch 0
        }
        assert!(matches!(
            SegmentedWal::open(&dir, FsyncPolicy::Never, 5),
            Err(StateError::Corrupted(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealing_an_empty_wal_is_an_error() {
        let dir = temp_dir("empty-seal");
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert!(wal.seal().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_seal_poisons_the_writer_and_reopen_recovers() {
        // Force the seal's rename to fail by stealing the open file from
        // under the writer.  The writer must then refuse further appends
        // (they would land behind a possibly-partial seal marker and corrupt
        // the tail) instead of opening a second `.open` segment.
        let dir = temp_dir("poison");
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        append_u64(&mut wal, 1);
        let stolen = dir.join("stolen");
        fs::rename(dir.join(open_name(0)), &stolen).unwrap();
        assert!(wal.seal().is_err(), "rename target vanished");
        let mut buf = Vec::new();
        2u64.encode_wal(&mut buf);
        assert!(matches!(wal.append(&buf), Err(StateError::Io(_))));
        assert!(wal.seal().is_err(), "nothing active either");
        drop(wal);

        // Put the file back, as a crash-and-restart over a surviving tail
        // would see it; reopening recovers the complete prefix (the seal
        // marker was fully written here, so the segment heals to sealed).
        fs::rename(&stolen, dir.join(open_name(0))).unwrap();
        let wal = SegmentedWal::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(wal.next_epoch(), 1, "healed seal marker counts as sealed");
        let decoded = read_segment::<u64>(&dir.join(sealed_name(0))).unwrap();
        assert_eq!(decoded.events, vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_stats_count_windows_fsyncs_seals_and_truncations() {
        let dir = temp_dir("stats");
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::OnSeal, 0).unwrap();
        assert_eq!(wal.stats(), WalStats::default());
        for batch in 0..2u64 {
            append_u64(&mut wal, batch);
            wal.seal().unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.seals, 2);
        assert_eq!(s.windows, 2, "the sealed remainder counts as a window");
        // OnSeal: one data sync + one directory sync per seal.
        assert_eq!(s.fsyncs, 4);
        assert!(s.fsync_ns > 0);
        assert_eq!(wal.truncate_through(0).unwrap(), 1);
        assert_eq!(wal.stats().truncated_segments, 1);
        // Deltas compose against a cached snapshot.
        let delta = wal.stats().delta_since(&s);
        assert_eq!(delta.seals, 0);
        assert_eq!(delta.truncated_segments, 1);
        // Out-of-line sync feedback folds in.
        wal.note_offline_sync(Some(1_000));
        wal.note_offline_sync(None);
        assert_eq!(wal.stats().fsyncs, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_always_appends_are_durable_and_readable() {
        let dir = temp_dir("fsync");
        let mut wal = SegmentedWal::open(&dir, FsyncPolicy::Always, 0).unwrap();
        for i in 0..5u64 {
            append_u64(&mut wal, i);
        }
        wal.seal().unwrap();
        assert!(wal.bytes_written() > 0);
        let decoded = read_segment::<u64>(&dir.join(sealed_name(0))).unwrap();
        assert_eq!(decoded.events, vec![0, 1, 2, 3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }
}
