//! The spawn-once background WAL-writer thread.
//!
//! Group commit moves the per-window `write` + `fsync` off the ingestion
//! thread: when a durable session syncs every window
//! (`FsyncPolicy::Always`) and its frame buffer fills the group-commit
//! window, the window is handed to this writer, which commits windows **in
//! submission order, one at a time** — the FIFO ordering the
//! [`tstream_recovery::DurableLog`] relies on as its flush barrier — while
//! the ingestion thread keeps buffering the next window.  Under the other
//! policies a window is one buffered `write`, done where it is: cheaper than
//! the wake-up, and the writer stays idle.
//!
//! The thread follows the same spawn-once discipline as the executor
//! threads: it is created lazily by [`crate::runtime::ExecutorPool`] the
//! first time a durable session opens, reused by every durable session of
//! the engine afterwards, and joined when the pool drops.  repolint audits
//! this file as one of the pool's two allowed spawn sites.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Sender};

use tstream_obs::Obs;
use tstream_recovery::FlushExecutor;

/// One write job: commit a pending group-commit window (or any closure that
/// must run on the writer thread in submission order).
type WriteJob = Box<dyn FnOnce() + Send + 'static>;

/// Queue depth of the writer.  Each durable log keeps at most one window in
/// flight, so the bound only matters when many sessions share the writer —
/// then a full queue backpressures their ingestion threads, exactly like the
/// executor queues do.
const QUEUE_DEPTH: usize = 64;

/// Pool-owned writer thread: the join handle plus the live job sender.
/// Dropping it disconnects the queue and joins the thread (queued windows
/// still commit before exit).
#[derive(Debug)]
pub(crate) struct WalWriter {
    /// `None` only during teardown: dropping the sender is what tells the
    /// thread to exit its receive loop.
    jobs: Option<Sender<WriteJob>>,
    handle: Option<JoinHandle<()>>,
}

impl WalWriter {
    /// Spawn the writer thread.  Called exactly once per pool (guarded by
    /// [`crate::runtime::ExecutorPool::wal_writer`]).  A panicking write job
    /// dumps the engine's flight recorder before the panic re-raises and
    /// kills the thread — a WAL-writer death is exactly the kind of crash
    /// the post-mortem exists for.
    pub(crate) fn spawn(obs: Arc<Obs>) -> Self {
        let (tx, rx) = bounded::<WriteJob>(QUEUE_DEPTH);
        let handle = std::thread::Builder::new()
            .name("tstream-wal-writer".to_owned())
            .spawn(move || {
                for job in rx.iter() {
                    if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(job)) {
                        obs.post_mortem("WAL writer thread panicked");
                        std::panic::resume_unwind(payload);
                    }
                }
            })
            .expect("spawning the WAL writer thread");
        WalWriter {
            jobs: Some(tx),
            handle: Some(handle),
        }
    }

    /// A cloneable submission handle for attaching to a durable log.
    pub(crate) fn handle(&self) -> WalWriterHandle {
        WalWriterHandle {
            jobs: self
                .jobs
                .clone()
                .expect("WAL writer is live until the pool drops"),
        }
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        self.jobs.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Cloneable handle submitting flush jobs to the pool's WAL writer; the
/// engine attaches one to every durable session's log.
#[derive(Debug, Clone)]
pub struct WalWriterHandle {
    jobs: Sender<WriteJob>,
}

impl FlushExecutor for WalWriterHandle {
    fn submit(&self, job: WriteJob) {
        // Sessions borrow the engine, so the pool — and with it the writer
        // thread — strictly outlives every log that can submit.
        let sent = self.jobs.send(job);
        assert!(
            sent.is_ok(),
            "WAL writer thread exited with logs still live"
        );
    }
}
