//! The fsync crew: parked threads that fsync a log while the thread that
//! sealed it goes on sealing the next one.
//!
//! A [`crate::FileBackend`] under [`crate::FsyncPolicy::OnCommit`] hires
//! a syncer when it opens ([`LogSyncer::hire`]) and hands it back when
//! it is dropped. Sealing a window writes its commit record and hands
//! the log to the syncer ([`LogSyncer::start`]); settling it waits for
//! the answer ([`LogSyncer::wait`]). The idle syncers are one
//! list for the whole process, so the crew grows to the number of
//! backends open at once and no further: backends come and go, indexes
//! are built and dropped, and no thread is created or joined for them.
//!
//! Why threads are kept, and why they are hired at open rather than at
//! each seal, is the allocator's business (DESIGN §9): every thread that
//! allocates is given a malloc arena, a thread that lives on keeps its
//! arena's memory where it sits, and a syncer first hired at a seal —
//! after the index was loaded — lands its own few allocations on top of
//! the loading thread's data.

use std::fs::File;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};

/// Syncers waiting to be hired.
static IDLE: Mutex<Vec<Syncer>> = Mutex::new(Vec::new());

/// Syncers spawned since the process started.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// A syncer needs no more stack than `fsync` does.
const STACK: usize = 64 * 1024;

/// One parked thread: it takes a log from `jobs`, fsyncs it, and answers
/// on `done`.
#[derive(Debug)]
struct Syncer {
    jobs: SyncSender<Arc<File>>,
    done: Receiver<io::Result<()>>,
}

impl Syncer {
    fn spawn() -> io::Result<Self> {
        let (jobs, todo) = sync_channel::<Arc<File>>(1);
        let (answer, done) = sync_channel(1);
        std::thread::Builder::new()
            .name("mobidx-fsync".into())
            .stack_size(STACK)
            .spawn(move || {
                for log in todo {
                    let synced = log.sync_all();
                    // The backend may close its log as soon as it has the
                    // answer; this handle must not be the one that does.
                    drop(log);
                    if answer.send(synced).is_err() {
                        break;
                    }
                }
            })?;
        SPAWNED.fetch_add(1, Ordering::Relaxed);
        Ok(Self { jobs, done })
    }
}

/// A syncer hired for one log until it is dropped, when it goes back to
/// the crew. At most one fsync is in flight per log: [`LogSyncer::wait`]
/// for one before the next [`LogSyncer::start`], and before the drop.
#[derive(Debug)]
pub(crate) struct LogSyncer {
    /// `Some` until the drop hands it back.
    syncer: Option<Syncer>,
    /// The log again, for the syncer's thread to fsync.
    log: Arc<File>,
}

impl LogSyncer {
    /// Hires an idle syncer of the crew for `log`, or a new one when none
    /// is idle.
    ///
    /// # Errors
    /// When the log's handle cannot be duplicated or no thread can be
    /// spawned.
    pub(crate) fn hire(log: &File) -> io::Result<Self> {
        let log = Arc::new(log.try_clone()?);
        let idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let syncer = match idle {
            Some(syncer) => syncer,
            None => Syncer::spawn()?,
        };
        Ok(Self {
            syncer: Some(syncer),
            log,
        })
    }

    fn syncer(&self) -> &Syncer {
        self.syncer.as_ref().expect("hired until dropped")
    }

    /// Starts fsyncing the log.
    ///
    /// # Errors
    /// When the syncer's thread is gone.
    pub(crate) fn start(&self) -> io::Result<()> {
        self.syncer()
            .jobs
            .send(Arc::clone(&self.log))
            .map_err(|_| io::Error::other("fsync thread gone"))
    }

    /// Waits for the fsync [`LogSyncer::start`] started.
    ///
    /// # Errors
    /// The fsync's own error, or the syncer's thread being gone.
    pub(crate) fn wait(&self) -> io::Result<()> {
        self.syncer()
            .done
            .recv()
            .map_err(|_| io::Error::other("fsync thread gone"))?
    }
}

impl Drop for LogSyncer {
    fn drop(&mut self) {
        if let Some(syncer) = self.syncer.take() {
            IDLE.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(syncer);
        }
    }
}

/// Syncers spawned since the process started: the most ever hired at
/// once, not the number of backends or of seals.
#[cfg(test)]
pub(crate) fn spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, FileBackend, FsyncPolicy, PageId, ScratchDir};
    use std::process::Command;

    /// The crew is one list for the whole process, so its size is only
    /// known in a process where nothing else hires: the test runs its
    /// twin alone, in a child.
    #[test]
    fn backends_that_come_and_go_reuse_the_crew() {
        let child = "crew::tests::groups_of_twelve_logs_hire_twelve_syncers";
        let out = Command::new(std::env::current_exe().unwrap())
            .args([child, "--exact", "--ignored", "--test-threads", "1"])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("1 passed"), "{stdout}");
    }

    #[test]
    #[ignore = "run alone, in a child process, by backends_that_come_and_go_reuse_the_crew"]
    fn groups_of_twelve_logs_hire_twelve_syncers() {
        const LOGS: usize = 12;
        const GROUPS: usize = 6;
        let root = ScratchDir::new("pager-crew");
        for group in 0..GROUPS {
            let mut logs: Vec<FileBackend> = (0..LOGS)
                .map(|n| {
                    let dir = root.join(format!("g{group}-{n}"));
                    FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap().0
                })
                .collect();
            for round in 1..=3u8 {
                for b in &mut logs {
                    b.journal_page(PageId::from_index(0), &[round; 8]).unwrap();
                    b.journal_seal(&[round]).unwrap();
                }
                for b in &mut logs {
                    assert_eq!(b.journal_settle().unwrap().fsyncs, 1);
                }
            }
        }
        assert_eq!(spawned(), LOGS, "{GROUPS} groups of {LOGS} logs");
    }
}
