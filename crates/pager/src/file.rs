//! The durable backend: a real page file plus a write-ahead log.
//!
//! [`FileBackend`] is the first backend that actually persists bytes.
//! A store using it journals every commit window ([`crate::wal`]) into
//! `wal.log` and periodically checkpoints the full image into
//! `pages.mdb`:
//!
//! * **Commit protocol** — for each page dirtied since the last commit
//!   the store calls [`Backend::journal_delta`] with what changed in it
//!   or [`Backend::journal_page`] with its whole image, then
//!   [`Backend::journal_free`] for freed pages, then
//!   [`Backend::journal_commit`] to seal the window. Fsyncs follow the
//!   [`FsyncPolicy`]; the default (`OnCommit`) is group commit — one
//!   fsync per window regardless of how many pages it carries.
//! * **Seal, then settle** — under `OnCommit` a commit is two steps:
//!   [`Backend::journal_seal`] writes the window and its commit record
//!   and hands the log to a parked syncer thread ([`crate::crew`]), and
//!   [`Backend::journal_settle`] waits for that fsync and only then
//!   counts the window as committed. A caller with many logs seals them
//!   all before it settles any, so their fsyncs are in flight together;
//!   `journal_commit` is the two back to back.
//! * **One write per window** — framed records are held in a buffer of
//!   [`WINDOW_BUFFER`] bytes and reach the file in one `write` when the
//!   commit record does, before its fsync (or earlier, when the window
//!   outgrows the buffer). What the file holds at any fault point is
//!   what a write per record would have left there: a torn append
//!   writes the held frames and then its prefix, a surfaced fault and
//!   `Drop` write what was appended, a checkpoint writes it before it
//!   truncates. `FsyncPolicy::Always` writes and syncs every record.
//! * **Checkpoint** — [`Backend::checkpoint`] writes every live page to
//!   `pages.mdb.tmp`, fsyncs, renames over `pages.mdb` (atomic on
//!   POSIX), fsyncs the directory (a rename is durable only once its
//!   directory is), then truncates the log. A crash anywhere in between
//!   leaves either the old image + full log or the new image + (stale
//!   but seq-filtered) log — both recover correctly. The page file is never
//!   written in place, so it is never torn: that is why a delta may
//!   refer to "the previous image" without the log first holding one.
//! * **Recovery** — [`FileBackend::open`] loads the checkpoint image,
//!   installs committed log windows with a higher sequence number —
//!   each whole or not at all — truncates the torn tail, and hands the
//!   result back as a [`RecoveredImage`] for the store to decode.
//!
//! [`DurableFaultStore`] aims the existing deterministic fault matrix
//! ([`FaultStore`]) at this real file pair — page-level faults and
//! WAL-level faults are driven by two *independent* plans, so tests can
//! crash during the Nth journal append while page traffic stays clean,
//! or tear an in-memory mutation while the log stays intact.

use crate::backend::{Backend, Fault, FaultKind, FaultStore, IoKind, JournalAck};
use crate::codec::{crc32, put_bytes, put_u32, put_u64, ByteReader};
use crate::crew::LogSyncer;
use crate::store::PageId;
use crate::wal::{self, WalOp, WalRecord};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Page-file name inside a [`FileBackend`] directory.
pub const PAGE_FILE: &str = "pages.mdb";
/// Write-ahead-log name inside a [`FileBackend`] directory.
pub const WAL_FILE: &str = "wal.log";
const PAGE_TMP: &str = "pages.mdb.tmp";
const PAGE_MAGIC: &[u8; 8] = b"MOBIDXPF";
const PAGE_VERSION: u32 = 1;
/// Bytes of framed records a [`FileBackend`] holds before writing them
/// out: a commit window's frames, unless the window outgrows it. Bounded
/// so that a window of every page of an index (a bulk load's) costs a
/// write per 64 KiB instead of its size in memory.
const WINDOW_BUFFER: usize = 64 * 1024;

/// When the durable backend issues `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every journal append. Maximum paranoia, one sync
    /// per record.
    Always,
    /// Fsync once per sealed commit window (group commit) and per
    /// checkpoint — the default: a window is durable exactly when its
    /// commit record is.
    #[default]
    OnCommit,
    /// Never fsync; bytes reach the OS but durability across *OS*
    /// crashes is not promised. Process-crash recovery still works,
    /// which is what the harness and benches exercise.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`always` / `on-commit` / `never`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(Self::Always),
            "on-commit" | "oncommit" | "commit" => Some(Self::OnCommit),
            "never" => Some(Self::Never),
            _ => None,
        }
    }

    /// The canonical CLI spelling ([`Self::parse`] accepts it back).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::OnCommit => "on-commit",
            Self::Never => "never",
        }
    }
}

/// What [`FileBackend::open`] recovered from disk: the byte image of
/// every live page as of the last committed window, plus the metadata
/// blob that window carried. [`crate::PageStore::open_recovered`]
/// decodes it back into typed pages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveredImage {
    /// Slab of page images; `None` slots are dead (freed or never
    /// allocated).
    pub pages: Vec<Option<Vec<u8>>>,
    /// The metadata blob sealed by the newest committed window (or
    /// checkpoint).
    pub meta: Vec<u8>,
    /// The newest committed sequence number.
    pub commit_seq: u64,
    /// WAL records replayed (committed windows only, commit records
    /// included).
    pub replayed_records: u64,
    /// Bytes of torn/uncommitted log tail discarded on open.
    pub dropped_bytes: u64,
}

impl RecoveredImage {
    /// Whether nothing was recovered (a fresh directory).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.commit_seq == 0 && self.pages.iter().all(Option::is_none)
    }

    /// Number of live page images.
    #[must_use]
    pub fn live_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

/// The real-file durable backend (see the module docs).
///
/// `permit` allows everything — durability changes what *happens* on
/// journal calls, not which accesses succeed. Fault injection against
/// the files goes through [`DurableFaultStore`].
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    wal: File,
    wal_len: u64,
    policy: FsyncPolicy,
    commit_seq: u64,
    total: JournalAck,
    /// The frame of the record being appended; every append reuses it.
    frame: Vec<u8>,
    /// Whole frames appended since the last write to `wal`, at most
    /// [`WINDOW_BUFFER`] bytes (see the module docs).
    held: Vec<u8>,
    /// The syncer of the crew that fsyncs the log under
    /// [`FsyncPolicy::OnCommit`], hired for the backend's lifetime.
    syncer: Option<LogSyncer>,
    /// The sequence number of the window sealed and not yet settled,
    /// whose fsync the syncer has in flight.
    sealed: Option<u64>,
}

impl FileBackend {
    /// Opens (or creates) the backend rooted at `dir`, running crash
    /// recovery: checkpoint image + committed WAL windows, torn tail
    /// truncated.
    ///
    /// # Errors
    /// Fails on real filesystem errors (permissions, full disk).
    /// Corrupt or torn content is not an error — it is recovered
    /// around, per the WAL contract.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> io::Result<(Self, RecoveredImage)> {
        std::fs::create_dir_all(dir)?;
        let (mut pages, mut meta, checkpoint_seq) = match std::fs::read(dir.join(PAGE_FILE)) {
            Ok(buf) => decode_page_file(&buf).unwrap_or_default(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Default::default(),
            Err(e) => return Err(e),
        };
        let wal_path = dir.join(WAL_FILE);
        let created = !wal_path.exists();
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        if created && policy != FsyncPolicy::Never {
            // A new log is durable only once its directory entry is.
            sync_dir(dir)?;
        }
        let syncer = match policy {
            FsyncPolicy::OnCommit => Some(LogSyncer::hire(&wal)?),
            FsyncPolicy::Always | FsyncPolicy::Never => None,
        };
        let mut log = Vec::new();
        wal.read_to_end(&mut log)?;
        // The log up to `sealed` stays: windows installed below, and
        // stale ones from before a checkpoint whose log truncation the
        // crash interrupted (skipped, but not torn).
        let mut sealed = 0usize;
        let mut newest = None;
        let mut replayed_records = 0u64;
        for window in &wal::replay(&log) {
            if window.seq > checkpoint_seq {
                if !install_window(&mut pages, &window.ops) {
                    // A delta that does not fit the image before it:
                    // history ends at the previous window, as it does
                    // at a bad checksum.
                    break;
                }
                newest = Some((window.seq, window.meta));
                replayed_records += 1 + window.ops.len() as u64;
            }
            sealed = window.end;
        }
        let mut commit_seq = checkpoint_seq;
        if let Some((seq, window_meta)) = newest {
            commit_seq = seq;
            meta = window_meta.to_vec();
        }
        // Drop the tail so new appends continue the installed prefix.
        wal.set_len(sealed as u64)?;
        wal.seek(SeekFrom::Start(sealed as u64))?;
        let image = RecoveredImage {
            pages,
            meta,
            commit_seq,
            replayed_records,
            dropped_bytes: (log.len() - sealed) as u64,
        };
        Ok((
            Self {
                dir: dir.to_path_buf(),
                wal,
                wal_len: sealed as u64,
                policy,
                commit_seq,
                total: JournalAck::default(),
                frame: Vec::new(),
                held: Vec::with_capacity(WINDOW_BUFFER),
                syncer,
                sealed: None,
            },
            image,
        ))
    }

    /// The directory holding the page file and WAL.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync policy in force.
    #[must_use]
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The newest committed sequence number. A sealed window counts
    /// from its settle on.
    #[must_use]
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Current WAL length in bytes: every byte appended, the ones held
    /// for the window's write included.
    #[must_use]
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Lifetime totals of journal work (bytes / fsyncs / records).
    #[must_use]
    pub fn totals(&self) -> JournalAck {
        self.total
    }

    /// The sequence number the *next* sealed window will carry.
    fn next_seq(&self) -> u64 {
        self.commit_seq + 1
    }

    /// The one append path. Frames `rec` in the reused buffer and holds
    /// the frame; a commit record (every record, under
    /// [`FsyncPolicy::Always`]) writes what is held, this frame last,
    /// and fsyncs as the policy says. Advances `commit_seq` when a
    /// commit record lands — except under [`FsyncPolicy::OnCommit`],
    /// where the commit record only starts its fsync on the crew and
    /// [`Backend::journal_settle`] waits for it and advances the number.
    ///
    /// `tear` is the fault adapter's interrupted write: with a draw, the
    /// held frames are written and then only a prefix of this very frame
    /// ([`torn_len`]), and nothing else happens — no sync, no sequence
    /// number, no record counted.
    fn append_record(&mut self, rec: &WalRecord<'_>, tear: Option<u64>) -> io::Result<JournalAck> {
        self.frame.clear();
        wal::encode_record(rec, &mut self.frame);
        let landed = tear.map_or(self.frame.len(), |draw| torn_len(draw, self.frame.len()));
        let seals = matches!(rec, WalRecord::Commit { .. });
        self.hold(landed)?;
        if tear.is_some() || seals || self.policy == FsyncPolicy::Always {
            self.write_held()?;
        }
        self.wal_len += landed as u64;
        let mut ack = JournalAck {
            bytes: landed as u64,
            ..JournalAck::default()
        };
        if tear.is_none() {
            if self.policy == FsyncPolicy::Always {
                self.wal.sync_all()?;
                ack.fsyncs = 1;
            }
            if let WalRecord::Commit { seq, .. } = *rec {
                match &self.syncer {
                    Some(syncer) => {
                        syncer.start()?;
                        self.sealed = Some(seq);
                    }
                    None => self.commit_seq = seq,
                }
            }
            ack.records = 1;
        }
        self.total = self.total.merge(ack);
        Ok(ack)
    }

    /// Holds the first `len` bytes of the frame, writing out what is held
    /// first when they do not fit beside it, and the bytes themselves
    /// when they do not fit at all — a `BufWriter` of [`WINDOW_BUFFER`]
    /// bytes.
    fn hold(&mut self, len: usize) -> io::Result<()> {
        if self.held.len() + len > WINDOW_BUFFER {
            self.write_held()?;
        }
        let bytes = &self.frame[..len];
        if len > WINDOW_BUFFER {
            self.wal.write_all(bytes)
        } else {
            self.held.extend_from_slice(bytes);
            Ok(())
        }
    }

    /// Writes the held frames to the file in one call. A failed write
    /// drops them: what reached the file of them is unknown, as it was
    /// of a failed write of one frame.
    fn write_held(&mut self) -> io::Result<()> {
        if self.held.is_empty() {
            return Ok(());
        }
        let written = self.wal.write_all(&self.held);
        self.held.clear();
        written
    }

    /// [`Self::append_record`] untorn, for the [`Backend`] methods.
    fn append(&mut self, rec: &WalRecord<'_>) -> Result<JournalAck, Fault> {
        debug_assert!(self.sealed.is_none(), "a sealed window awaits its settle");
        self.append_record(rec, None).map_err(|e| io_fault(&e))
    }

    /// Waits for the sealed window's fsync; on success the window is
    /// committed. Nothing to wait for is a success that syncs nothing.
    fn settle(&mut self) -> io::Result<JournalAck> {
        let (Some(seq), Some(syncer)) = (self.sealed.take(), &self.syncer) else {
            return Ok(JournalAck::default());
        };
        syncer.wait()?;
        self.commit_seq = seq;
        let ack = JournalAck {
            fsyncs: 1,
            ..JournalAck::default()
        };
        self.total = self.total.merge(ack);
        Ok(ack)
    }

    /// Writes the checkpoint image atomically (tmp + rename) and
    /// truncates the WAL.
    fn write_checkpoint(
        &mut self,
        pages: &[(PageId, Vec<u8>)],
        meta: &[u8],
    ) -> io::Result<JournalAck> {
        debug_assert!(self.sealed.is_none(), "a sealed window awaits its settle");
        // The frames of an open window land before the log is truncated,
        // as they did when each append was its own write.
        self.write_held()?;
        let seq = self.next_seq();
        let buf = encode_page_file(seq, meta, pages);
        let tmp = self.dir.join(PAGE_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            if self.policy != FsyncPolicy::Never {
                f.sync_all()?;
            }
        }
        std::fs::rename(&tmp, self.dir.join(PAGE_FILE))?;
        // The image on disk carries `seq` from here on, whatever becomes
        // of the log below: a window sealed after a failed truncation
        // must not reuse it, or recovery skips that window as stale.
        self.commit_seq = seq;
        if self.policy != FsyncPolicy::Never {
            // The rename must be durable before the log is cut: a crash
            // that kept the truncation and lost the rename would leave
            // the old image and an empty log.
            sync_dir(&self.dir)?;
        }
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        if self.policy != FsyncPolicy::Never {
            self.wal.sync_all()?;
        }
        self.wal_len = 0;
        // The directory's fsync is not counted: `fsyncs` counts the
        // page file's and the log's, what a checkpoint costs per byte.
        let ack = JournalAck {
            bytes: buf.len() as u64,
            fsyncs: if self.policy == FsyncPolicy::Never {
                0
            } else {
                2
            },
            records: 1,
        };
        self.total = self.total.merge(ack);
        Ok(ack)
    }
}

/// A backend that goes away leaves the log every byte appended to it.
/// Every commit record writes what is held, so what is left here is an
/// unsealed window, which recovery drops whether or not it lands: a
/// failed write has nothing to report. A sealed window's fsync is
/// waited for, so that it is done when the backend is gone.
impl Drop for FileBackend {
    fn drop(&mut self) {
        let _ = self.write_held();
        let _ = self.settle();
    }
}

/// Fsyncs a directory, making the entries created or renamed in it
/// durable. Directory fsyncs are never counted in
/// [`JournalAck::fsyncs`], so that `fsyncs` keeps counting the syncs of
/// the log and the page file a commit or checkpoint pays for.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Maps a real filesystem error to a hard (non-transient) fault.
fn io_fault(_e: &io::Error) -> Fault {
    Fault {
        kind: FaultKind::Failed,
        transient: false,
    }
}

/// How many leading bytes of a `frame_len`-byte write land when it is
/// torn: `1..frame_len` — at least one byte lands, the frame never
/// completes.
fn torn_len(draw: u64, frame_len: usize) -> usize {
    1 + (draw as usize) % frame_len.max(2).saturating_sub(1)
}

/// Installs one committed window into the recovered slab, whole or not
/// at all. `false` when one of its deltas does not fit the image before
/// it (names a dead page, reaches past the image, starts before its
/// predecessor ended): everything the window displaced so far is put
/// back and `pages` is as it was.
fn install_window(pages: &mut Vec<Option<Vec<u8>>>, ops: &[WalOp<'_>]) -> bool {
    let slots = pages.len();
    let mut displaced: Vec<(usize, Option<Vec<u8>>)> = Vec::with_capacity(ops.len());
    for op in ops {
        let (page, contents) = match *op {
            WalOp::Page { page, bytes } => (page, Some(bytes.to_vec())),
            WalOp::Free { page } => (page, None),
            WalOp::Delta { page, splices } => {
                let base = pages.get(page.index() as usize).and_then(Option::as_deref);
                match base.and_then(|base| wal::apply_splices(base, splices)) {
                    Some(bytes) => (page, Some(bytes)),
                    None => {
                        for (idx, was) in displaced.into_iter().rev() {
                            pages[idx] = was;
                        }
                        pages.truncate(slots);
                        return false;
                    }
                }
            }
        };
        let idx = page.index() as usize;
        if pages.len() <= idx {
            if contents.is_none() {
                continue; // freeing a slot the slab never had
            }
            pages.resize(idx + 1, None);
        }
        displaced.push((idx, std::mem::replace(&mut pages[idx], contents)));
    }
    true
}

impl Backend for FileBackend {
    fn permit(&mut self, _kind: IoKind, _page: PageId) -> Result<(), Fault> {
        // Page contents live in the store's slab; the files only see
        // journal traffic. Every access is permitted.
        Ok(())
    }

    fn label(&self) -> &'static str {
        "file"
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn journal_page(&mut self, page: PageId, bytes: &[u8]) -> Result<JournalAck, Fault> {
        self.append(&WalRecord::PageImage { page, bytes })
    }

    fn journal_delta(&mut self, page: PageId, splices: &[u8]) -> Result<JournalAck, Fault> {
        self.append(&WalRecord::PageDelta { page, splices })
    }

    fn journal_free(&mut self, page: PageId) -> Result<JournalAck, Fault> {
        self.append(&WalRecord::Free { page })
    }

    fn journal_commit(&mut self, meta: &[u8]) -> Result<JournalAck, Fault> {
        let sealed = self.journal_seal(meta)?;
        Ok(sealed.merge(self.journal_settle()?))
    }

    fn journal_seal(&mut self, meta: &[u8]) -> Result<JournalAck, Fault> {
        let seq = self.next_seq();
        self.append(&WalRecord::Commit { seq, meta })
    }

    fn journal_settle(&mut self) -> Result<JournalAck, Fault> {
        self.settle().map_err(|e| io_fault(&e))
    }

    fn checkpoint(
        &mut self,
        pages: &[(PageId, Vec<u8>)],
        meta: &[u8],
    ) -> Result<JournalAck, Fault> {
        self.write_checkpoint(pages, meta).map_err(|e| io_fault(&e))
    }
}

fn encode_page_file(commit_seq: u64, meta: &[u8], pages: &[(PageId, Vec<u8>)]) -> Vec<u8> {
    let slot_count = pages
        .iter()
        .map(|(id, _)| id.index() + 1)
        .max()
        .unwrap_or(0);
    let mut out = Vec::new();
    out.extend_from_slice(PAGE_MAGIC);
    put_u32(&mut out, PAGE_VERSION);
    put_u64(&mut out, commit_seq);
    put_bytes(&mut out, meta);
    put_u32(&mut out, slot_count);
    let mut slots: Vec<Option<&[u8]>> = vec![None; slot_count as usize];
    for (id, bytes) in pages {
        slots[id.index() as usize] = Some(bytes);
    }
    for slot in slots {
        match slot {
            Some(bytes) => {
                out.push(1);
                put_bytes(&mut out, bytes);
            }
            None => out.push(0),
        }
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

#[allow(clippy::type_complexity)]
fn decode_page_file(buf: &[u8]) -> Option<(Vec<Option<Vec<u8>>>, Vec<u8>, u64)> {
    if buf.len() < 4 {
        return None;
    }
    let (body, tail) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let mut r = ByteReader::new(body);
    if r.take(8)? != PAGE_MAGIC {
        return None;
    }
    if r.u32()? != PAGE_VERSION {
        return None;
    }
    let commit_seq = r.u64()?;
    let meta = r.bytes()?.to_vec();
    let slot_count = r.u32()? as usize;
    let mut pages = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        match r.u8()? {
            0 => pages.push(None),
            1 => pages.push(Some(r.bytes()?.to_vec())),
            _ => return None,
        }
    }
    if !r.is_empty() {
        return None;
    }
    Some((pages, meta, commit_seq))
}

/// Aims the deterministic fault matrix at a [`FileBackend`]: one
/// [`FaultStore`] plan arbitrates page-level accesses (`permit`), an
/// independent plan arbitrates journal appends and checkpoints — so a
/// test can tear WAL records or crash at the Nth append while page
/// traffic stays clean, or vice versa.
///
/// Fault semantics against the real files:
///
/// * **failed** — nothing is written; transient failures may be
///   retried by the store's policy and then succeed.
/// * **torn** — a deterministic *prefix* of the framed record reaches
///   the file (exactly what an interrupted `write` leaves behind), and
///   the store is dead from then on. Recovery drops the partial frame.
/// * **crashed** — the store dies before writing anything further.
///
/// After any torn/crash fault the adapter is dead: every subsequent
/// access or journal call fails with a crash fault. "Rebooting" is
/// reopening the directory with [`DurableFaultStore::open`] (or a
/// plain [`FileBackend::open`]), which sees exactly the bytes that
/// physically landed.
#[derive(Debug)]
pub struct DurableFaultStore {
    file: FileBackend,
    page_faults: FaultStore,
    wal_faults: FaultStore,
    /// Private splitmix64 stream for torn-prefix lengths.
    torn_rng: u64,
    dead: bool,
}

/// Pseudo page id the WAL fault plan sees for commit records.
const COMMIT_SLOT: u32 = u32::MAX;
/// Pseudo page id the WAL fault plan sees for checkpoints.
const CHECKPOINT_SLOT: u32 = u32::MAX - 1;

impl DurableFaultStore {
    /// Opens `dir` (with recovery) and arms the two fault plans.
    ///
    /// # Errors
    /// Fails on real filesystem errors, like [`FileBackend::open`].
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        page_plan: crate::FaultPlan,
        wal_plan: crate::FaultPlan,
    ) -> io::Result<(Self, RecoveredImage)> {
        let (file, image) = FileBackend::open(dir, policy)?;
        Ok((
            Self {
                file,
                page_faults: FaultStore::new(page_plan),
                wal_faults: FaultStore::new(wal_plan),
                torn_rng: wal_plan.seed ^ 0xA24B_AED4_963E_E407,
                dead: false,
            },
            image,
        ))
    }

    /// The wrapped file backend.
    #[must_use]
    pub fn file(&self) -> &FileBackend {
        &self.file
    }

    /// Total faults injected across both plans.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.page_faults.injected() + self.wal_faults.injected()
    }

    /// Whether a torn or crash fault has killed the store.
    #[must_use]
    pub fn dead(&self) -> bool {
        self.dead
    }

    /// The next value of the torn-prefix stream (splitmix64).
    fn next_torn_draw(&mut self) -> u64 {
        self.torn_rng = self.torn_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.torn_rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    const DEAD: Fault = Fault {
        kind: FaultKind::Crashed,
        transient: false,
    };

    /// Arbitrates one journal append; on permit, appends `rec` for real
    /// through the file backend's own append path.
    fn arbitrated_append(&mut self, rec: &WalRecord<'_>) -> Result<JournalAck, Fault> {
        if self.dead {
            return Err(Self::DEAD);
        }
        let slot = match *rec {
            WalRecord::PageImage { page, .. }
            | WalRecord::PageDelta { page, .. }
            | WalRecord::Free { page } => page.index(),
            WalRecord::Commit { .. } => COMMIT_SLOT,
        };
        // Journal appends are arbitrated as mutations: that is the
        // access class whose plan draws both clean write faults and
        // torn writes, and it advances the plan's write clock
        // (`crash_after_writes`) without disturbing the read clock.
        match self
            .wal_faults
            .permit(IoKind::Mutate, PageId::from_index(slot))
        {
            Ok(()) => self.file.append(rec),
            Err(fault) => {
                match fault.kind {
                    FaultKind::Failed => {}
                    FaultKind::Torn => {
                        // An interrupted write: the frames before it and
                        // a prefix of this one physically land, then the
                        // process dies.
                        let draw = self.next_torn_draw();
                        let _ = self.file.append_record(rec, Some(draw));
                        self.dead = true;
                    }
                    FaultKind::Crashed => self.dead = true,
                }
                Err(self.surface(fault))
            }
        }
    }

    /// A fault leaves the adapter: the frames appended before it reach
    /// the file now, where a write per record would have put them, so
    /// whoever opens the directory next — a recovery check, a reboot —
    /// finds every byte the fault left behind.
    fn surface(&mut self, fault: Fault) -> Fault {
        let _ = self.file.write_held();
        fault
    }
}

impl Backend for DurableFaultStore {
    fn permit(&mut self, kind: IoKind, page: PageId) -> Result<(), Fault> {
        if self.dead {
            return Err(Self::DEAD);
        }
        match self.page_faults.permit(kind, page) {
            Ok(()) => Ok(()),
            Err(fault) => {
                if fault.kind == FaultKind::Crashed {
                    self.dead = true;
                }
                Err(self.surface(fault))
            }
        }
    }

    fn label(&self) -> &'static str {
        "durable-fault"
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn journal_page(&mut self, page: PageId, bytes: &[u8]) -> Result<JournalAck, Fault> {
        self.arbitrated_append(&WalRecord::PageImage { page, bytes })
    }

    fn journal_delta(&mut self, page: PageId, splices: &[u8]) -> Result<JournalAck, Fault> {
        self.arbitrated_append(&WalRecord::PageDelta { page, splices })
    }

    fn journal_free(&mut self, page: PageId) -> Result<JournalAck, Fault> {
        self.arbitrated_append(&WalRecord::Free { page })
    }

    fn journal_commit(&mut self, meta: &[u8]) -> Result<JournalAck, Fault> {
        let sealed = self.journal_seal(meta)?;
        Ok(sealed.merge(self.journal_settle()?))
    }

    fn journal_seal(&mut self, meta: &[u8]) -> Result<JournalAck, Fault> {
        let seq = self.file.next_seq();
        self.arbitrated_append(&WalRecord::Commit { seq, meta })
    }

    /// Not arbitrated: the plan's write clock counts appends, and the
    /// commit record was one.
    fn journal_settle(&mut self) -> Result<JournalAck, Fault> {
        if self.dead {
            return Err(Self::DEAD);
        }
        self.file.journal_settle()
    }

    fn checkpoint(
        &mut self,
        pages: &[(PageId, Vec<u8>)],
        meta: &[u8],
    ) -> Result<JournalAck, Fault> {
        if self.dead {
            return Err(Self::DEAD);
        }
        match self
            .wal_faults
            .permit(IoKind::Mutate, PageId::from_index(CHECKPOINT_SLOT))
        {
            Ok(()) => self.file.checkpoint(pages, meta),
            Err(fault) => {
                match fault.kind {
                    FaultKind::Failed => {}
                    FaultKind::Torn => {
                        // A torn checkpoint: a partial tmp file lands, the
                        // rename never happens, the process dies. The old
                        // image + full log stay authoritative.
                        let seq = self.file.next_seq();
                        let buf = encode_page_file(seq, meta, pages);
                        let cut = torn_len(self.next_torn_draw(), buf.len());
                        let _ = std::fs::write(self.file.dir().join(PAGE_TMP), &buf[..cut]);
                        self.dead = true;
                    }
                    FaultKind::Crashed => self.dead = true,
                }
                Err(self.surface(fault))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, ScratchDir};

    fn pid(n: u32) -> PageId {
        PageId::from_index(n)
    }

    #[test]
    fn fresh_open_is_empty_and_commits_survive_reopen() {
        let dir = ScratchDir::new("pager-file-roundtrip");
        {
            let (mut b, image) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
            assert!(image.is_empty());
            assert!(b.is_durable());
            assert_eq!(b.label(), "file");
            b.journal_page(pid(0), b"root").unwrap();
            b.journal_page(pid(1), b"leaf").unwrap();
            let ack = b.journal_commit(b"meta-1").unwrap();
            assert_eq!(ack.fsyncs, 1, "group commit: one fsync per window");
            assert_eq!(b.commit_seq(), 1);
            // A second window frees a page.
            b.journal_free(pid(1)).unwrap();
            b.journal_commit(b"meta-2").unwrap();
        }
        let (b, image) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
        assert_eq!(image.commit_seq, 2);
        assert_eq!(image.meta, b"meta-2");
        assert_eq!(image.pages, vec![Some(b"root".to_vec()), None]);
        assert_eq!(image.replayed_records, 5);
        assert_eq!(image.dropped_bytes, 0);
        assert_eq!(b.commit_seq(), 2);
    }

    #[test]
    fn uncommitted_window_is_dropped_and_wal_truncated() {
        let dir = ScratchDir::new("pager-file-tail");
        {
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
            b.journal_page(pid(0), b"committed").unwrap();
            b.journal_commit(b"m").unwrap();
            // Window 2 never commits (the "crash").
            b.journal_page(pid(0), b"lost").unwrap();
            b.journal_page(pid(1), b"also lost").unwrap();
        }
        let committed_wal = {
            let (b, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(image.pages, vec![Some(b"committed".to_vec())]);
            assert!(image.dropped_bytes > 0);
            b.wal_len()
        };
        // The truncation is physical: a third open sees no tail at all.
        let (b, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.dropped_bytes, 0);
        assert_eq!(b.wal_len(), committed_wal);
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovers_alone() {
        let dir = ScratchDir::new("pager-file-checkpoint");
        {
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
            b.journal_page(pid(0), b"a").unwrap();
            b.journal_commit(b"m1").unwrap();
            let live = vec![(pid(0), b"a".to_vec()), (pid(2), b"c".to_vec())];
            b.checkpoint(&live, b"ckpt-meta").unwrap();
            assert_eq!(b.wal_len(), 0);
            assert_eq!(b.commit_seq(), 2);
            // Post-checkpoint window.
            b.journal_page(pid(1), b"b").unwrap();
            b.journal_commit(b"m3").unwrap();
        }
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
        assert_eq!(image.commit_seq, 3);
        assert_eq!(image.meta, b"m3");
        assert_eq!(
            image.pages,
            vec![
                Some(b"a".to_vec()),
                Some(b"b".to_vec()),
                Some(b"c".to_vec())
            ]
        );
        // Only the post-checkpoint window replays from the log.
        assert_eq!(image.replayed_records, 2);
    }

    #[test]
    fn stale_wal_windows_below_checkpoint_seq_are_skipped() {
        let dir = ScratchDir::new("pager-file-stale");
        {
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
            b.journal_page(pid(0), b"old").unwrap();
            b.journal_commit(b"m1").unwrap();
        }
        // Simulate a crash between checkpoint rename and WAL
        // truncation: write a newer checkpoint image directly, leaving
        // the seq-1 window in the log.
        let buf = encode_page_file(5, b"ckpt", &[(pid(0), b"new".to_vec())]);
        std::fs::write(dir.join(PAGE_FILE), &buf).unwrap();
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(
            image.pages,
            vec![Some(b"new".to_vec())],
            "stale window must not clobber the newer checkpoint"
        );
        assert_eq!(image.commit_seq, 5);
        assert_eq!(image.replayed_records, 0);
    }

    #[test]
    fn corrupt_page_file_recovers_from_wal_alone() {
        let dir = ScratchDir::new("pager-file-corrupt");
        {
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
            b.journal_page(pid(0), b"x").unwrap();
            b.journal_commit(b"m").unwrap();
        }
        std::fs::write(dir.join(PAGE_FILE), b"not a page file").unwrap();
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.pages, vec![Some(b"x".to_vec())]);
    }

    #[test]
    fn fsync_policy_counts() {
        let dir = ScratchDir::new("pager-file-fsync");
        let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Always).unwrap();
        let a1 = b.journal_page(pid(0), b"p").unwrap();
        assert_eq!(a1.fsyncs, 1, "Always syncs every append");
        let dir2 = ScratchDir::new("pager-file-fsync-never");
        let (mut b2, _) = FileBackend::open(&dir2, FsyncPolicy::Never).unwrap();
        let a2 = b2.journal_page(pid(0), b"p").unwrap();
        let a3 = b2.journal_commit(b"m").unwrap();
        assert_eq!(a2.fsyncs + a3.fsyncs, 0, "Never never syncs");
        assert!(b2.totals().bytes > 0);
        assert_eq!(b2.totals().records, 2);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("on-commit"), Some(FsyncPolicy::OnCommit));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn durable_fault_store_crash_mid_commit_recovers_previous_window() {
        let dir = ScratchDir::new("pager-file-crash-mid");
        {
            let (mut b, image) = DurableFaultStore::open(
                &dir,
                FsyncPolicy::Never,
                FaultPlan::none(1),
                // Die on the 3rd journal append: window 2 never seals.
                FaultPlan::crash_after_writes(1, 3),
            )
            .unwrap();
            assert!(image.is_empty());
            b.journal_page(pid(0), b"w1").unwrap();
            b.journal_commit(b"m1").unwrap();
            b.journal_page(pid(0), b"w2").unwrap();
            let f = b.journal_commit(b"m2").unwrap_err();
            assert_eq!(f.kind, FaultKind::Crashed);
            assert!(b.dead());
            // Dead for everything afterwards.
            assert!(b.permit(IoKind::Read, pid(0)).is_err());
            assert!(b.journal_page(pid(1), b"x").is_err());
        }
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.commit_seq, 1);
        assert_eq!(image.pages, vec![Some(b"w1".to_vec())]);
        assert!(image.dropped_bytes > 0, "window 2's image was discarded");
    }

    #[test]
    fn durable_fault_store_torn_append_leaves_partial_frame() {
        let dir = ScratchDir::new("pager-file-torn-append");
        let committed_len;
        {
            let (mut b, _) = DurableFaultStore::open(
                &dir,
                FsyncPolicy::Never,
                FaultPlan::none(2),
                FaultPlan::none(2),
            )
            .unwrap();
            b.journal_page(pid(0), b"keep").unwrap();
            b.journal_commit(b"m").unwrap();
            committed_len = b.file().wal_len();
        }
        {
            // Re-arm with a plan that tears every journal append.
            let torn_plan = FaultPlan {
                torn_per_mille: 1000,
                ..FaultPlan::none(3)
            };
            let (mut b, _) =
                DurableFaultStore::open(&dir, FsyncPolicy::Never, FaultPlan::none(3), torn_plan)
                    .unwrap();
            let before = b.file().wal_len();
            let f = b.journal_page(pid(1), b"torn-away").unwrap_err();
            assert_eq!(f.kind, FaultKind::Torn);
            assert!(b.dead());
            let after = b.file().wal_len();
            assert!(after > before, "a partial frame physically landed");
            // Dead: the next append fails as a crash, writing nothing.
            let f2 = b.journal_commit(b"m2").unwrap_err();
            assert_eq!(f2.kind, FaultKind::Crashed);
            assert_eq!(b.file().wal_len(), after);
        }
        let (b, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.pages, vec![Some(b"keep".to_vec())]);
        assert!(image.dropped_bytes > 0);
        assert_eq!(b.wal_len(), committed_len, "tail truncated on reopen");
    }

    #[test]
    fn durable_fault_store_torn_checkpoint_keeps_old_image() {
        let dir = ScratchDir::new("pager-file-torn-ckpt");
        {
            let (mut b, _) = DurableFaultStore::open(
                &dir,
                FsyncPolicy::Never,
                FaultPlan::none(4),
                FaultPlan::none(4),
            )
            .unwrap();
            b.journal_page(pid(0), b"v1").unwrap();
            b.journal_commit(b"m1").unwrap();
            // Checkpoint succeeds: image v1 on disk, log empty.
            b.checkpoint(&[(pid(0), b"v1".to_vec())], b"c1").unwrap();
        }
        {
            // Now a wal plan whose first arbitration tears — the tmp
            // file lands partially, the rename never happens.
            let torn_always = FaultPlan {
                torn_per_mille: 1000,
                ..FaultPlan::none(5)
            };
            let (mut b, _) =
                DurableFaultStore::open(&dir, FsyncPolicy::Never, FaultPlan::none(5), torn_always)
                    .unwrap();
            let f = b
                .checkpoint(&[(pid(0), b"v2".to_vec())], b"c2")
                .unwrap_err();
            assert_eq!(f.kind, FaultKind::Torn);
            assert!(b.dead());
            assert!(dir.join(PAGE_TMP).exists(), "partial tmp file landed");
        }
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.pages, vec![Some(b"v1".to_vec())]);
        assert_eq!(image.meta, b"c1");
    }

    #[test]
    fn a_log_framed_before_the_delta_record_opens_to_the_image_it_always_did() {
        let dir = ScratchDir::new("pager-file-frozen");
        std::fs::create_dir_all(&*dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), wal::FROZEN_LOG).unwrap();
        let (b, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(
            image,
            RecoveredImage {
                pages: vec![Some(b"root".to_vec()), None, None, Some(vec![0xAB; 9])],
                meta: b"meta-1".to_vec(),
                commit_seq: 1,
                replayed_records: 4,
                dropped_bytes: (wal::FROZEN_LOG.len() - wal::FROZEN_SEALED) as u64,
            }
        );
        assert_eq!(
            b.wal_len(),
            wal::FROZEN_SEALED as u64,
            "torn record cut off"
        );
    }

    #[test]
    fn deltas_replay_against_the_previous_image_in_the_log() {
        let dir = ScratchDir::new("pager-file-delta");
        let splice = |offset, remove, insert: &[u8]| {
            let mut out = Vec::new();
            wal::put_splice(&mut out, offset, remove, insert);
            out
        };
        {
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
            b.journal_page(pid(0), b"0123456789").unwrap();
            b.journal_commit(b"m1").unwrap();
            // Against the image of window 1…
            let ack = b.journal_delta(pid(0), &splice(2, 3, b"ab")).unwrap();
            assert_eq!(
                (ack.records, ack.fsyncs),
                (1, 0),
                "a delta is a page record"
            );
            b.journal_commit(b"m2").unwrap();
            // …against the result of window 2, and within one window
            // against an image (then a delta) of that very window.
            b.journal_delta(pid(0), &splice(0, 1, b"")).unwrap();
            b.journal_page(pid(1), b"xyz").unwrap();
            b.journal_delta(pid(1), &splice(3, 0, b"!")).unwrap();
            b.journal_delta(pid(1), &splice(0, 1, b"")).unwrap();
            b.journal_commit(b"m3").unwrap();
        }
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
        assert_eq!(
            image.pages,
            vec![Some(b"1ab56789".to_vec()), Some(b"yz!".to_vec())]
        );
        assert_eq!(image.commit_seq, 3);
        assert_eq!(image.replayed_records, 9);
        assert_eq!(image.dropped_bytes, 0);
    }

    #[test]
    fn durable_fault_store_arbitrates_deltas_like_page_images() {
        let dir = ScratchDir::new("pager-file-delta-fault");
        let (mut b, _) = DurableFaultStore::open(
            &dir,
            FsyncPolicy::Never,
            FaultPlan::none(1),
            // The 3rd journal append — the delta — is the one that dies.
            FaultPlan::crash_after_writes(1, 2),
        )
        .unwrap();
        b.journal_page(pid(0), b"abc").unwrap();
        b.journal_commit(b"m1").unwrap();
        let sealed = b.file().wal_len();
        let f = b.journal_delta(pid(0), &[]).unwrap_err();
        assert_eq!(f.kind, FaultKind::Crashed);
        assert_eq!(b.file().wal_len(), sealed, "nothing was appended");
    }

    /// A checkpoint whose log truncation fails has already replaced the
    /// page file. The backend must count that sequence number as used:
    /// the next window then carries a higher one and recovery applies
    /// it, where a reused one would be skipped as stale.
    #[test]
    fn a_checkpoint_that_fails_after_its_rename_does_not_reuse_its_sequence_number() {
        let dir = ScratchDir::new("pager-file-ckpt-rename");
        let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        b.journal_page(pid(0), b"v1").unwrap();
        b.journal_commit(b"m1").unwrap();
        // A handle that cannot truncate: the rename lands, `set_len`
        // fails.
        let writable = std::mem::replace(&mut b.wal, File::open(dir.join(WAL_FILE)).unwrap());
        let f = b
            .checkpoint(&[(pid(0), b"v2".to_vec())], b"c2")
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Failed);
        assert_eq!(b.commit_seq(), 2, "the renamed image carries sequence 2");
        b.wal = writable;
        // The store's answer to a failed checkpoint: the window again,
        // as images.
        b.journal_page(pid(0), b"v3").unwrap();
        b.journal_commit(b"m3").unwrap();
        assert_eq!(b.commit_seq(), 3);
        drop(b);
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.pages, vec![Some(b"v3".to_vec())]);
        assert_eq!(image.meta, b"m3");
        assert_eq!(image.commit_seq, 3);
        assert_eq!(
            image.replayed_records, 2,
            "window 1 is stale, window 3 is not"
        );
    }

    /// The frames of `recs`, end to end: the bytes a write per record
    /// leaves in the log.
    fn frames(recs: &[WalRecord<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        for rec in recs {
            wal::encode_record(rec, &mut out);
        }
        out
    }

    fn log_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(WAL_FILE)).unwrap()
    }

    /// Appends `rec` through the [`Backend`] method of its kind.
    fn journal(b: &mut dyn Backend, rec: &WalRecord<'_>) -> JournalAck {
        match *rec {
            WalRecord::PageImage { page, bytes } => b.journal_page(page, bytes),
            WalRecord::PageDelta { page, splices } => b.journal_delta(page, splices),
            WalRecord::Free { page } => b.journal_free(page),
            WalRecord::Commit { meta, .. } => b.journal_commit(meta),
        }
        .unwrap()
    }

    #[test]
    fn a_window_reaches_the_file_in_one_write_at_its_commit_record() {
        let dir = ScratchDir::new("pager-file-window");
        let mut splices = Vec::new();
        wal::put_splice(&mut splices, 1, 2, b"xy");
        let windows: [&[WalRecord<'_>]; 3] = [
            &[
                WalRecord::PageImage {
                    page: pid(0),
                    bytes: b"root",
                },
                WalRecord::PageImage {
                    page: pid(3),
                    bytes: &[7; 300],
                },
                WalRecord::Commit {
                    seq: 1,
                    meta: b"m1",
                },
            ],
            &[
                WalRecord::PageDelta {
                    page: pid(3),
                    splices: &splices,
                },
                WalRecord::Free { page: pid(0) },
                WalRecord::Commit {
                    seq: 2,
                    meta: b"m2",
                },
            ],
            &[WalRecord::Commit {
                seq: 3,
                meta: b"m3",
            }],
        ];
        let mut sealed = Vec::new();
        {
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
            for window in windows {
                let (body, commit) = window.split_at(window.len() - 1);
                for rec in body {
                    journal(&mut b, rec);
                    // Held: the file has only the windows sealed so far,
                    // while the backend counts every byte appended.
                    assert_eq!(log_bytes(&dir), sealed);
                    assert!(b.wal_len() > sealed.len() as u64);
                }
                let ack = journal(&mut b, &commit[0]);
                assert_eq!(ack.fsyncs, 1);
                sealed.extend_from_slice(&frames(window));
                assert_eq!(log_bytes(&dir), sealed, "the window, written whole");
                assert_eq!(b.wal_len(), sealed.len() as u64);
            }
            // An open window at `Drop` reaches the file too.
            journal(&mut b, &windows[0][0]);
        }
        sealed.extend_from_slice(&frames(&windows[0][..1]));
        assert_eq!(log_bytes(&dir), sealed);
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.commit_seq, 3);
        let mut page3 = vec![7; 300];
        page3.splice(1..3, *b"xy");
        assert_eq!(image.pages, vec![None, None, None, Some(page3)]);
    }

    #[test]
    fn a_record_larger_than_the_buffer_lands_intact() {
        let dir = ScratchDir::new("pager-file-large");
        let big: Vec<u8> = (0..3 * WINDOW_BUFFER / 2)
            .map(|i| (i % 251) as u8)
            .collect();
        let recs = [
            WalRecord::PageImage {
                page: pid(1),
                bytes: b"small",
            },
            WalRecord::PageImage {
                page: pid(2),
                bytes: &big,
            },
            WalRecord::Free { page: pid(4) },
            WalRecord::Commit { seq: 1, meta: b"m" },
        ];
        let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        journal(&mut b, &recs[0]);
        journal(&mut b, &recs[1]);
        // Too large to hold: written at once, after what was held.
        assert_eq!(log_bytes(&dir), frames(&recs[..2]));
        journal(&mut b, &recs[2]);
        assert_eq!(log_bytes(&dir), frames(&recs[..2]));
        journal(&mut b, &recs[3]);
        assert_eq!(log_bytes(&dir), frames(&recs));
        drop(b);
        let (_, image) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(image.pages[2].as_deref(), Some(&big[..]));
        assert_eq!(image.replayed_records, 4);
    }

    #[test]
    fn always_still_writes_and_syncs_every_record() {
        let dir = ScratchDir::new("pager-file-always");
        let recs = [
            WalRecord::PageImage {
                page: pid(0),
                bytes: b"a",
            },
            WalRecord::Free { page: pid(1) },
            WalRecord::PageImage {
                page: pid(2),
                bytes: b"c",
            },
            WalRecord::Commit { seq: 1, meta: b"m" },
        ];
        let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Always).unwrap();
        for (n, rec) in recs.iter().enumerate() {
            let ack = journal(&mut b, rec);
            assert_eq!((ack.records, ack.fsyncs), (1, 1));
            assert_eq!(
                log_bytes(&dir),
                frames(&recs[..=n]),
                "record {n} is on file"
            );
        }
        assert_eq!(b.totals().fsyncs, 4);
        assert_eq!(b.totals().records, 4);
    }

    #[test]
    fn a_torn_append_after_held_frames_leaves_them_and_its_prefix() {
        let dir = ScratchDir::new("pager-file-torn-held");
        let recs = [
            WalRecord::PageImage {
                page: pid(0),
                bytes: b"sealed",
            },
            WalRecord::Commit { seq: 1, meta: b"m" },
            WalRecord::PageImage {
                page: pid(1),
                bytes: b"held",
            },
            WalRecord::Free { page: pid(0) },
            WalRecord::PageImage {
                page: pid(2),
                bytes: &[5; 40],
            },
        ];
        let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::Never).unwrap();
        for rec in &recs[..4] {
            journal(&mut b, rec);
        }
        assert_eq!(log_bytes(&dir), frames(&recs[..2]));
        let draw = 0x1234_5678_9ABC;
        let ack = b.append_record(&recs[4], Some(draw)).unwrap();
        let frame = frames(&recs[4..]);
        let landed = torn_len(draw, frame.len());
        assert!(landed > 0 && landed < frame.len());
        let mut want = frames(&recs[..4]);
        want.extend_from_slice(&frame[..landed]);
        assert_eq!(log_bytes(&dir), want, "held frames, then the prefix");
        assert_eq!(b.wal_len(), want.len() as u64);
        assert_eq!((ack.bytes, ack.records), (landed as u64, 0));
    }

    #[test]
    fn a_surfaced_fault_leaves_the_held_frames_on_file() {
        let recs = [
            WalRecord::PageImage {
                page: pid(0),
                bytes: b"one",
            },
            WalRecord::PageImage {
                page: pid(1),
                bytes: b"two",
            },
        ];
        // A crash at the third append, and a clean failure there.
        let failing = FaultPlan {
            write_fault_per_mille: 1000,
            ..FaultPlan::none(6)
        };
        for (n, plan) in [FaultPlan::crash_after_writes(6, 2), failing]
            .into_iter()
            .enumerate()
        {
            let dir = ScratchDir::new("pager-file-surfaced");
            let (mut b, _) =
                DurableFaultStore::open(&dir, FsyncPolicy::Never, FaultPlan::none(6), plan)
                    .unwrap();
            if n == 1 {
                // A plan that fails every append fails these too; the
                // frames come from the file backend underneath.
                for rec in &recs {
                    journal(&mut b.file, rec);
                }
            } else {
                for rec in &recs {
                    journal(&mut b, rec);
                }
            }
            assert!(log_bytes(&dir).is_empty(), "held");
            assert!(b.journal_commit(b"m").is_err());
            assert_eq!(log_bytes(&dir), frames(&recs), "plan {n}");
        }
    }

    /// One window per backend, the same windows as
    /// [`a_window_reaches_the_file_in_one_write_at_its_commit_record`]'s
    /// first.
    fn journal_window(b: &mut dyn Backend, n: u8) {
        b.journal_page(pid(0), &[n; 20]).unwrap();
        b.journal_page(pid(u32::from(n)), b"leaf").unwrap();
    }

    #[test]
    fn sealing_every_log_then_settling_them_leaves_what_commits_one_by_one_do() {
        const LOGS: u8 = 5;
        let sequential = ScratchDir::new("pager-file-seq");
        let grouped = ScratchDir::new("pager-file-group");
        for n in 0..LOGS {
            let dir = sequential.join(format!("log{n}"));
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
            journal_window(&mut b, n);
            b.journal_commit(b"m1").unwrap();
        }
        let mut backends: Vec<FileBackend> = (0..LOGS)
            .map(|n| {
                let dir = grouped.join(format!("log{n}"));
                FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap().0
            })
            .collect();
        for (n, b) in (0..LOGS).zip(&mut backends) {
            journal_window(b, n);
            let ack = b.journal_seal(b"m1").unwrap();
            assert_eq!((ack.records, ack.fsyncs), (1, 0), "sealed, not synced");
            assert_eq!(b.commit_seq(), 0, "counted only once settled");
            assert_eq!(b.totals().fsyncs, 0);
        }
        for b in &mut backends {
            let ack = b.journal_settle().unwrap();
            assert_eq!(
                ack,
                JournalAck {
                    fsyncs: 1,
                    ..JournalAck::default()
                }
            );
            assert_eq!(b.commit_seq(), 1);
            assert_eq!(b.totals().fsyncs, 1);
            assert_eq!(b.totals().records, 3);
            // Nothing is left to settle.
            assert_eq!(b.journal_settle().unwrap(), JournalAck::default());
        }
        drop(backends);
        for n in 0..LOGS {
            let name = format!("log{n}");
            let log = log_bytes(&grouped.join(&name));
            assert!(!log.is_empty());
            assert_eq!(log, log_bytes(&sequential.join(&name)), "{name}");
        }
    }

    #[test]
    fn a_backend_dropped_with_a_sealed_window_waits_for_it_and_reopens_to_it() {
        let dir = ScratchDir::new("pager-file-drop-sealed");
        {
            let (mut b, _) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
            journal_window(&mut b, 1);
            b.journal_commit(b"m1").unwrap();
            journal_window(&mut b, 2);
            b.journal_seal(b"m2").unwrap();
        }
        let (b, image) = FileBackend::open(&dir, FsyncPolicy::OnCommit).unwrap();
        assert_eq!(image.commit_seq, 2);
        assert_eq!(image.meta, b"m2");
        assert_eq!(image.dropped_bytes, 0);
        assert_eq!(image.pages[0].as_deref(), Some(&[2; 20][..]));
        assert_eq!(b.commit_seq(), 2);
    }

    #[test]
    fn durable_fault_store_seals_and_settles_through_the_file_backend() {
        let dir = ScratchDir::new("pager-file-fault-seal");
        let (mut b, _) = DurableFaultStore::open(
            &dir,
            FsyncPolicy::OnCommit,
            FaultPlan::none(8),
            FaultPlan::none(8),
        )
        .unwrap();
        journal_window(&mut b, 1);
        b.journal_seal(b"m1").unwrap();
        assert_eq!(b.file().commit_seq(), 0);
        assert_eq!(b.journal_settle().unwrap().fsyncs, 1);
        assert_eq!(b.file().commit_seq(), 1);
        // A dead adapter settles nothing.
        let (mut dead, _) = DurableFaultStore::open(
            &dir,
            FsyncPolicy::OnCommit,
            FaultPlan::none(9),
            FaultPlan::crash_after_writes(9, 0),
        )
        .unwrap();
        assert!(dead.journal_seal(b"m2").is_err());
        assert_eq!(dead.journal_settle().unwrap_err(), DurableFaultStore::DEAD);
    }

    #[test]
    fn page_file_encoding_round_trips() {
        let pages = vec![
            (pid(0), vec![1, 2, 3]),
            (pid(2), vec![]),
            (pid(5), vec![9; 100]),
        ];
        let buf = encode_page_file(7, b"hello", &pages);
        let (decoded, meta, seq) = decode_page_file(&buf).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(meta, b"hello");
        assert_eq!(decoded.len(), 6);
        assert_eq!(decoded[0], Some(vec![1, 2, 3]));
        assert_eq!(decoded[1], None);
        assert_eq!(decoded[2], Some(vec![]));
        assert_eq!(decoded[5], Some(vec![9; 100]));
        // Any single-byte corruption fails the whole-file CRC.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert!(decode_page_file(&bad).is_none(), "flip at {i}");
        }
    }
}
