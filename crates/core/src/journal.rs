//! The one durable log of the workspace (`DESIGN.md` §9.3): CRC-framed
//! records, crash-atomic file replacement, and the segmented
//! [`Journal`] that the daemon's write-ahead log (`qpdo-serve`), the
//! router's binding log (`qpdo-router`) and the experiment sweeps'
//! resume log (`qpdo-bench`) are three [`Record`] codecs of.
//!
//! # Record frame
//!
//! A framed record is `[len: u32 BE][crc: u32 BE][payload: len bytes]`
//! where `crc` is the CRC32 (IEEE/zlib polynomial, reflected) of the
//! payload. Readers treat a clean EOF between records as the end of the
//! stream and anything else — a short header, a short payload, a CRC
//! mismatch, an oversized length — as a **torn tail**: the well-formed
//! prefix is kept and the torn record (plus everything after it) is
//! dropped. That is exactly the recovery semantics a `kill -9` during an
//! append requires. The shot service's wire protocol uses the same
//! frame.
//!
//! # Journal
//!
//! A journal is a directory of segments `<prefix>-<seq:08>.log`, each a
//! run of framed records carrying one text line apiece. What a line
//! means belongs to the [`Record`] codec: it encodes and parses lines,
//! validates a record against the current [`State`] before any byte
//! reaches disk, and folds a record into that state. The **one** fold
//! serves both replay ([`recover`]) and the append side
//! ([`Journal::write_unsynced`]), so the live state is always exactly
//! what a restart would rebuild. Jobs are indexed by id, so replay is
//! linear in the journal length.
//!
//! Everything else lives here, once:
//!
//! - **Durability.** [`Journal::append`] is
//!   [`write_unsynced`](Journal::write_unsynced) +
//!   [`sync`](Journal::sync): a record is durable once `sync` returns.
//!   A torn tail (the frame being written when the process died) is
//!   dropped by the CRC framing; everything before it is intact.
//! - **Compaction and rotation.** [`Journal::open`] always compacts the
//!   recovered state into a fresh segment (atomic write + rename +
//!   directory sync) and deletes the old ones — both to bound startup
//!   cost and because a torn tail must never be appended after. Every
//!   compacted segment begins with a `snapshot` marker: replay resets
//!   at the marker, so a crash *between* the snapshot rename and the
//!   old-segment unlinks (both left on disk) still recovers to exactly
//!   the snapshot state. During operation the journal rotates once a
//!   full size bound of fresh records has been written since the last
//!   compaction — paced per record on appended bytes, not on total
//!   segment size, so neither a snapshot larger than the bound nor a
//!   group-committed batch sharing one fsync distorts the pacing.
//! - **Retention and the pruned-id ledger.** Compaction drops the
//!   oldest terminal jobs beyond a retention count (the codec's
//!   [`Record::RETAIN_TERMINAL`] unless set; a job still in flight is
//!   never dropped), bounding the snapshot and the in-memory
//!   state of a long-lived process. Pruning must not reopen an id: each
//!   compaction folds the dropped ids into a digest set (one 64-bit
//!   [`id_digest`] per id, 8 bytes instead of a full record) carried in
//!   the snapshot as `pruned <count> <digest…>` lines right after the
//!   marker, with a high-water count of everything pruned so far. The
//!   codecs refuse to reopen a pruned id at validation, so a
//!   resubmission after compaction is answered deterministically.

use std::collections::{HashMap, HashSet};
use std::fmt::{Debug, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Records larger than this are rejected on both write and read: no
/// legitimate journal line or wire message comes close, and the
/// bound keeps a corrupt length field from allocating gigabytes.
pub const MAX_RECORD_LEN: usize = 16 << 20;

/// The CRC32 lookup table (IEEE 802.3 / zlib polynomial `0xEDB88320`,
/// reflected), built once at first use.
fn crc_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// The CRC32 (IEEE/zlib) of `bytes`. KAT: `crc32(b"123456789") ==
/// 0xCBF4_3926`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The frame of one record, `[len][crc][payload]`: the bytes
/// [`write_record`] writes, for a caller that queues them itself (the
/// daemon's nonblocking event loop).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when the payload exceeds
/// [`MAX_RECORD_LEN`].
pub fn encode_record(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_RECORD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("record of {} bytes exceeds the frame bound", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record length overflows u32"))?;
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Appends one framed record to `w` with a single `write_all`, so a
/// socket sends header and payload together instead of tripping the
/// Nagle / delayed-ACK stall that small back-to-back writes cause. Does
/// **not** flush or sync; callers that need durability follow up with
/// [`File::sync_data`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when the payload exceeds
/// [`MAX_RECORD_LEN`], and propagates write errors.
pub fn write_record(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_record(payload)?)
}

/// Reads the next framed record from `r`.
///
/// Returns `Ok(Some(payload))` for a well-formed record, `Ok(None)` at a
/// clean end of stream (EOF exactly on a record boundary), and
/// [`io::ErrorKind::InvalidData`] for a torn or corrupt record — a
/// partial header, a partial payload, an oversized length, or a CRC
/// mismatch.
///
/// # Errors
///
/// See above; genuine I/O errors are propagated unchanged.
pub fn read_record(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "torn record: truncated frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_RECORD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt record: length field {len} exceeds the frame bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "torn record: truncated payload",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if crc32(&payload) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt record: CRC mismatch",
        ));
    }
    Ok(Some(payload))
}

/// Reads every well-formed record from `r`, stopping silently at a torn
/// or corrupt tail (the crash-recovery read path: keep the durable
/// prefix, drop the partial append).
///
/// # Errors
///
/// Propagates genuine I/O errors; torn-tail `InvalidData` is not an
/// error here.
pub fn read_records(r: &mut impl Read) -> io::Result<Vec<Vec<u8>>> {
    let mut records = Vec::new();
    loop {
        match read_record(r) {
            Ok(Some(payload)) => records.push(payload),
            Ok(None) => return Ok(records),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Ok(records),
            Err(e) => return Err(e),
        }
    }
}

/// Flushes `file` contents to stable storage (`fsync` on the data).
///
/// # Errors
///
/// Propagates the sync failure.
pub fn sync_file(file: &File) -> io::Result<()> {
    file.sync_data()
}

/// Syncs the directory entry containing `path`, so a just-created or
/// just-renamed file survives a crash. A missing parent (relative paths
/// like `x.log`) syncs the current directory.
///
/// # Errors
///
/// Propagates open/sync failures.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Replaces the file at `path` with `bytes` crash-atomically: the bytes
/// are written to a sibling temporary file, synced, and renamed over the
/// destination, then the directory entry is synced. A crash at any point
/// leaves either the old complete file or the new complete file — never
/// a partial mix.
///
/// # Errors
///
/// Propagates I/O failures from any step.
pub fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Digests per `pruned` ledger line in a snapshot: sorted, fixed-size
/// chunks keep the snapshot bytes deterministic and the lines bounded.
const PRUNED_CHUNK: usize = 256;

/// The 64-bit FNV-1a digest of a job id, the membership key of the
/// pruned-id ledger. A colliding *new* id is (harmlessly) refused; a
/// pruned id is never reopened, which is the invariant that matters.
#[must_use]
pub fn id_digest(id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A journal's record codec and state machine. The `snapshot` and
/// `pruned` lines are the journal's own; a codec never encodes them.
pub trait Record: Clone + Debug + PartialEq {
    /// One job as the fold reconstructs it.
    type Job: Clone + Debug + PartialEq;
    /// State kept beside the jobs (the router's fleet membership).
    type Extra: Clone + Debug + Default + PartialEq;
    /// Segments are named `<SEGMENT_PREFIX>-<seq:08>.log`.
    const SEGMENT_PREFIX: &'static str;

    /// The record's journal line.
    fn encode(&self) -> String;

    /// Parses a journal line.
    ///
    /// # Errors
    ///
    /// Describes the malformed or unknown line.
    fn parse(line: &str) -> Result<Self, String>;

    /// Checks the record against the live state before any byte
    /// reaches disk: a refused record must leave no durable trace.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    fn validate(&self, state: &State<Self>) -> Result<(), String>;

    /// Folds the record into `state`. Replay folds whatever the disk
    /// holds, so an invariant violation is recorded in
    /// [`State::duplicate_terminals`] or [`State::orphaned`], never a
    /// panic.
    fn fold(&self, state: &mut State<Self>);

    /// The id a job is indexed under.
    fn job_id(job: &Self::Job) -> &str;

    /// Whether retention may prune the job.
    fn is_terminal(job: &Self::Job) -> bool;

    /// The terminal jobs a journal keeps through compaction unless
    /// [`Journal::open_retaining`] says otherwise: a codec whose every
    /// job must survive (a sweep's points) says `usize::MAX`.
    const RETAIN_TERMINAL: usize = 1 << 16;

    /// The records a compacted segment carries after its marker and
    /// pruned-id ledger; replaying them rebuilds `state` exactly.
    fn snapshot(state: &State<Self>) -> Vec<Self>;
}

/// A journal's folded state: what a replay found, and what the append
/// side keeps current.
#[derive(Clone, Debug, PartialEq)]
pub struct State<R: Record> {
    /// Every live job, in the order its id was introduced.
    jobs: Vec<R::Job>,
    /// Position of each job in `jobs`, by id.
    index: HashMap<String, usize>,
    /// Codec-specific state beside the jobs.
    pub extra: R::Extra,
    /// Ids with conflicting terminal records — an exactly-once
    /// violation that must never happen.
    pub duplicate_terminals: Vec<String>,
    /// Records whose id (or member) was never introduced — a
    /// write-ordering violation that must never happen.
    pub orphaned: Vec<String>,
    /// Terminal jobs pruned by retention so far (high water).
    pub pruned_count: u64,
    /// Digest set of pruned job ids ([`id_digest`] per id).
    pub pruned: HashSet<u64>,
}

impl<R: Record> Default for State<R> {
    fn default() -> Self {
        State {
            jobs: Vec::new(),
            index: HashMap::new(),
            extra: R::Extra::default(),
            duplicate_terminals: Vec::new(),
            orphaned: Vec::new(),
            pruned_count: 0,
            pruned: HashSet::new(),
        }
    }
}

impl<R: Record> State<R> {
    /// Whether the journal satisfies the exactly-once invariants.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.duplicate_terminals.is_empty() && self.orphaned.is_empty()
    }

    /// Every live job, in the order its id was introduced.
    #[must_use]
    pub fn jobs(&self) -> &[R::Job] {
        &self.jobs
    }

    /// Jobs not yet terminal, in order: what a restarted process must
    /// still finish.
    #[must_use]
    pub fn pending(&self) -> Vec<&R::Job> {
        self.jobs.iter().filter(|j| !R::is_terminal(j)).collect()
    }

    /// Whether `id` belongs to a terminal job pruned by retention.
    #[must_use]
    pub fn was_pruned(&self, id: &str) -> bool {
        self.pruned.contains(&id_digest(id))
    }

    /// Refuses to reopen an id that retention pruned.
    ///
    /// # Errors
    ///
    /// Names the pruned id.
    pub fn refuse_pruned(&self, id: &str) -> Result<(), String> {
        if self.was_pruned(id) {
            Err(format!(
                "job {id:?} already reached a terminal state (pruned by retention)"
            ))
        } else {
            Ok(())
        }
    }

    /// The live job with this id.
    #[must_use]
    pub fn job(&self, id: &str) -> Option<&R::Job> {
        self.index.get(id).map(|&i| &self.jobs[i])
    }

    /// The live job with this id, for the fold to update.
    pub fn job_mut(&mut self, id: &str) -> Option<&mut R::Job> {
        self.index.get(id).map(|&i| &mut self.jobs[i])
    }

    /// Appends a job whose id is not live (the fold checks first).
    pub fn insert(&mut self, job: R::Job) {
        self.index
            .insert(R::job_id(&job).to_owned(), self.jobs.len());
        self.jobs.push(job);
    }

    /// Removes the job with this id, keeping the others in order.
    pub fn remove(&mut self, id: &str) -> Option<R::Job> {
        let i = self.index.remove(id)?;
        for slot in self.index.values_mut() {
            if *slot > i {
                *slot -= 1;
            }
        }
        Some(self.jobs.remove(i))
    }

    /// Folds one journal line: the journal's own `snapshot` and `pruned`
    /// lines here, everything else through the codec.
    fn replay(&mut self, line: &str) -> Result<(), String> {
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            // A compacted segment starts here; whatever older segments
            // a crash mid-rotation left behind is superseded by the
            // snapshot contents that follow (including the pruned-id
            // ledger, rewritten in full right after this marker).
            Some("snapshot") if tokens.next().is_none() => *self = State::default(),
            Some("pruned") => {
                let count = tokens
                    .next()
                    .and_then(|count| count.parse().ok())
                    .ok_or_else(|| format!("malformed pruned count in {line:?}"))?;
                for hash in tokens {
                    let hash = u64::from_str_radix(hash, 16)
                        .map_err(|_| format!("malformed pruned digest in {line:?}"))?;
                    self.pruned.insert(hash);
                }
                self.pruned_count = self.pruned_count.max(count);
            }
            _ => R::parse(line)?.fold(self),
        }
        Ok(())
    }

    /// Prunes the oldest terminal jobs beyond `retain`, recording each
    /// dropped id in the ledger: pruning loses the result, never the
    /// fact that the id is terminal.
    fn prune_terminal(&mut self, retain: usize) {
        let terminal = self.jobs.iter().filter(|j| R::is_terminal(j)).count();
        if terminal <= retain {
            return;
        }
        let mut drop = terminal - retain;
        let (pruned, pruned_count) = (&mut self.pruned, &mut self.pruned_count);
        self.jobs.retain(|job| {
            if drop > 0 && R::is_terminal(job) {
                drop -= 1;
                pruned.insert(id_digest(R::job_id(job)));
                *pruned_count += 1;
                false
            } else {
                true
            }
        });
        self.index = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| (R::job_id(job).to_owned(), i))
            .collect();
    }

    /// The compacted segment: marker, pruned-id ledger, then the
    /// codec's snapshot records.
    fn snapshot_bytes(&self) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        write_record(&mut bytes, b"snapshot")?;
        let mut hashes: Vec<u64> = self.pruned.iter().copied().collect();
        hashes.sort_unstable();
        for chunk in hashes.chunks(PRUNED_CHUNK) {
            let mut line = format!("pruned {}", self.pruned_count);
            for hash in chunk {
                let _ = write!(line, " {hash:016x}");
            }
            write_record(&mut bytes, line.as_bytes())?;
        }
        for record in R::snapshot(self) {
            write_record(&mut bytes, record.encode().as_bytes())?;
        }
        Ok(bytes)
    }
}

fn segment_path<R: Record>(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{}-{seq:08}.log", R::SEGMENT_PREFIX))
}

fn list_segments<R: Record>(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // Leftover `.tmp` files are aborted rotations: never valid state.
        if name.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
            continue;
        }
        if let Some(seq) = name
            .strip_prefix(R::SEGMENT_PREFIX)
            .and_then(|rest| rest.strip_prefix('-'))
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Replays every segment in `dir` without modifying anything but
/// leftover `.tmp` files. This is the read-only audit path the chaos
/// drills use to assert the exactly-once invariants.
///
/// # Errors
///
/// Propagates I/O errors and lines the codec cannot parse; torn tails
/// are tolerated, not errors.
pub fn recover<R: Record>(dir: &Path) -> io::Result<State<R>> {
    let mut state = State::default();
    if !dir.exists() {
        return Ok(state);
    }
    let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
    for (_, path) in list_segments::<R>(dir)? {
        let mut reader = BufReader::new(File::open(&path)?);
        for payload in read_records(&mut reader)? {
            let line = String::from_utf8(payload)
                .map_err(|_| invalid(format!("non-UTF-8 record in {}", path.display())))?;
            state.replay(&line).map_err(invalid)?;
        }
    }
    Ok(state)
}

/// The append side of a journal.
pub struct Journal<R: Record> {
    dir: PathBuf,
    active: File,
    active_seq: u64,
    active_bytes: u64,
    /// Rotate once `active_bytes` passes this: the last snapshot's size
    /// plus a full `max_segment_bytes` of fresh appends.
    rotate_at: u64,
    max_segment_bytes: u64,
    /// Terminal jobs beyond this count are pruned at compaction.
    retain_terminal: usize,
    /// Fault injection: fsyncs of the active segment fail once this
    /// many have succeeded (`None` = never). Rotation syncs are exempt
    /// so the failure mode under test is "the commit fsync fails", not
    /// "the disk is gone entirely".
    fail_sync_after: Option<u64>,
    /// Active-segment fsyncs performed so far (for the injection).
    syncs: u64,
    /// Fault injection: record writes fail once this many have
    /// succeeded (`None` = never), before any byte reaches the segment
    /// — exercising the mid-batch write-failure path in group commit.
    fail_write_after: Option<u64>,
    /// Record writes performed so far (for the injection).
    writes: u64,
    /// The folded state of every record written, for validation and
    /// compaction snapshots.
    state: State<R>,
}

impl<R: Record> Journal<R> {
    /// The default rotation bound for the active segment.
    pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 1 << 20;

    /// The codec's bound on terminal jobs kept through compaction
    /// ([`Record::RETAIN_TERMINAL`]). Jobs pruned past it lose result
    /// queryability, but never their id: the pruned-id ledger keeps an
    /// 8-byte digest per pruned job.
    pub const DEFAULT_RETAIN_TERMINAL: usize = R::RETAIN_TERMINAL;

    /// Opens (creating if needed) the journal in `dir`, replays it, and
    /// compacts the recovered state into a fresh segment — a crash tears
    /// at most the active segment's tail, and a torn tail must never be
    /// appended after, so every open starts a clean segment. Returns the
    /// state as replayed, before compaction prunes it. Retains the
    /// codec's [`DEFAULT_RETAIN_TERMINAL`](Self::DEFAULT_RETAIN_TERMINAL)
    /// terminal jobs; see [`Journal::open_retaining`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and corrupt (non-frame-level) content.
    pub fn open(dir: &Path, max_segment_bytes: u64) -> io::Result<(Self, State<R>)> {
        Self::open_retaining(dir, max_segment_bytes, Self::DEFAULT_RETAIN_TERMINAL)
    }

    /// [`Journal::open`] keeping `retain_terminal` terminal jobs (at
    /// least 1) through every compaction, the open's own included: a
    /// journal that retains more than the codec's default must not be
    /// cut to it at every restart. The oldest terminal jobs are pruned
    /// first; jobs in flight are always kept.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and corrupt (non-frame-level) content.
    pub fn open_retaining(
        dir: &Path,
        max_segment_bytes: u64,
        retain_terminal: usize,
    ) -> io::Result<(Self, State<R>)> {
        std::fs::create_dir_all(dir)?;
        let recovery = recover(dir)?;
        let next_seq = list_segments::<R>(dir)?
            .last()
            .map_or(1, |(seq, _)| seq + 1);
        let mut journal = Journal {
            dir: dir.to_path_buf(),
            // Placeholder; rotate_to() below installs the real handle.
            active: OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path::<R>(dir, next_seq))?,
            active_seq: next_seq,
            active_bytes: 0,
            rotate_at: 0,
            max_segment_bytes: max_segment_bytes.max(1),
            retain_terminal: retain_terminal.max(1),
            fail_sync_after: None,
            syncs: 0,
            fail_write_after: None,
            writes: 0,
            state: recovery.clone(),
        };
        journal.rotate_to(next_seq)?;
        Ok((journal, recovery))
    }

    /// The directory holding the segments.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The folded state of every record written so far.
    #[must_use]
    pub fn state(&self) -> &State<R> {
        &self.state
    }

    /// The sequence number of the active segment (tests observe
    /// rotation through this).
    #[must_use]
    pub fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// Fault injection: active-segment fsyncs fail once `after` have
    /// succeeded (`None` disables). Rotation is exempt.
    pub fn set_fail_sync_after(&mut self, after: Option<u64>) {
        self.fail_sync_after = after;
    }

    /// Fault injection: record writes fail (before any byte reaches the
    /// segment) once `after` have succeeded (`None` disables).
    pub fn set_fail_write_after(&mut self, after: Option<u64>) {
        self.fail_write_after = after;
    }

    /// Whether `id` belongs to a terminal job pruned by retention.
    #[must_use]
    pub fn was_pruned(&self, id: &str) -> bool {
        self.state.was_pruned(id)
    }

    /// Terminal jobs pruned by retention since the journal began.
    #[must_use]
    pub fn pruned_count(&self) -> u64 {
        self.state.pruned_count
    }

    /// Checks a record against the journal invariants without touching
    /// disk or state. Public so a group-commit thread can tell a
    /// *rejected* record (refused before any byte reaches disk) from an
    /// *I/O* failure mid-batch (durability unknown).
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    pub fn validate(&self, record: &R) -> io::Result<()> {
        record.validate(&self.state).map_err(io::Error::other)
    }

    /// Appends one record, fsyncs it, and rotates the segment once a
    /// full size bound of fresh records has accumulated. When this
    /// returns, the record is durable.
    ///
    /// # Errors
    ///
    /// Refuses invariant-violating records before any byte reaches
    /// disk. On an I/O error the record's durability is unknown, so
    /// callers must retry the identical record, never a different
    /// outcome for the same id.
    pub fn append(&mut self, record: &R) -> io::Result<()> {
        self.write_unsynced(record)?;
        self.sync()
    }

    /// Validates, writes, and folds one record **without syncing**: it
    /// is not durable (and must not be acknowledged) until a following
    /// [`sync`](Self::sync) returns `Ok`. The rotation pacing counter
    /// advances here, per record.
    ///
    /// # Errors
    ///
    /// Same validation contract as [`append`](Self::append); a write
    /// error leaves durability of the partial frame unknown (the CRC
    /// framing drops it as a torn tail on recovery).
    pub fn write_unsynced(&mut self, record: &R) -> io::Result<()> {
        self.validate(record)?;
        self.writes += 1;
        if self
            .fail_write_after
            .is_some_and(|after| self.writes > after)
        {
            return Err(io::Error::other("injected write failure"));
        }
        let line = record.encode();
        write_record(&mut self.active, line.as_bytes())?;
        self.active_bytes += 8 + line.len() as u64;
        record.fold(&mut self.state);
        Ok(())
    }

    /// Fsyncs the active segment — every record written since the last
    /// sync becomes durable at once — then rotates if a full size bound
    /// of fresh records has accumulated since the last compaction.
    ///
    /// # Errors
    ///
    /// A sync failure means durability of every unsynced record is
    /// unknown: the caller must stop acknowledging, because a retry
    /// that succeeds cannot prove the earlier bytes landed in order.
    pub fn sync(&mut self) -> io::Result<()> {
        self.syncs += 1;
        if self.fail_sync_after.is_some_and(|after| self.syncs > after) {
            return Err(io::Error::other("injected fsync failure"));
        }
        sync_file(&self.active)?;
        if self.active_bytes > self.rotate_at {
            self.rotate_to(self.active_seq + 1)?;
        }
        Ok(())
    }

    /// Writes the state (after retention pruning) as segment `seq` by
    /// atomic replace, switches appends to it, and deletes every older
    /// segment. The leading marker makes the deletes safe: if a crash
    /// leaves old segments beside the renamed snapshot, replay resets
    /// at the marker instead of double-counting their records.
    fn rotate_to(&mut self, seq: u64) -> io::Result<()> {
        self.state.prune_terminal(self.retain_terminal);
        let snapshot = self.state.snapshot_bytes()?;
        let path = segment_path::<R>(&self.dir, seq);
        atomic_replace(&path, &snapshot)?;
        for (old_seq, old_path) in list_segments::<R>(&self.dir)? {
            if old_seq < seq {
                std::fs::remove_file(old_path)?;
            }
        }
        sync_parent_dir(&path)?;
        self.active = OpenOptions::new().append(true).open(&path)?;
        self.active_seq = seq;
        self.active_bytes = snapshot.len() as u64;
        self.rotate_at = self.active_bytes + self.max_segment_bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"first").unwrap();
        write_record(&mut buf, b"").unwrap();
        write_record(&mut buf, b"third record").unwrap();
        let records = read_records(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(
            records,
            vec![b"first".to_vec(), Vec::new(), b"third record".to_vec()]
        );
    }

    #[test]
    fn a_record_is_one_write_of_the_same_bytes() {
        /// Counts `write` calls and keeps the bytes.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        write_record(&mut w, b"123456789").unwrap();
        write_record(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2, "one write per record");
        // [len BE][crc BE][payload], with the CRC32 KAT of the payload.
        let mut expected = vec![0, 0, 0, 9, 0xCB, 0xF4, 0x39, 0x26];
        expected.extend_from_slice(b"123456789");
        expected.extend_from_slice(&[0; 8]);
        assert_eq!(w.bytes, expected);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"keep me").unwrap();
        write_record(&mut buf, b"torn away").unwrap();
        for cut in 1..12 {
            let truncated = &buf[..buf.len() - cut];
            let records = read_records(&mut Cursor::new(truncated)).unwrap();
            assert_eq!(records, vec![b"keep me".to_vec()], "cut {cut}");
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"pristine").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(read_records(&mut Cursor::new(&buf)).unwrap().is_empty());
        let err = read_record(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        let err = read_record(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The reader must not have tried to allocate 4 GiB.
        assert!(read_records(&mut Cursor::new(&buf)).unwrap().is_empty());
    }

    /// A codec of terminal-on-arrival jobs with a small default
    /// retention, so retention tests need few records.
    #[derive(Clone, Debug, PartialEq)]
    struct Done(String);

    impl Record for Done {
        type Job = String;
        type Extra = ();
        const SEGMENT_PREFIX: &'static str = "done";
        const RETAIN_TERMINAL: usize = 4;

        fn encode(&self) -> String {
            format!("done {}", self.0)
        }

        fn parse(line: &str) -> Result<Self, String> {
            line.strip_prefix("done ")
                .map(|id| Done(id.to_owned()))
                .ok_or_else(|| format!("unknown line {line:?}"))
        }

        fn validate(&self, state: &State<Self>) -> Result<(), String> {
            state.refuse_pruned(&self.0)?;
            match state.job(&self.0) {
                Some(_) => Err(format!("{:?} is already done", self.0)),
                None => Ok(()),
            }
        }

        fn fold(&self, state: &mut State<Self>) {
            match state.job(&self.0) {
                Some(_) => state.duplicate_terminals.push(self.0.clone()),
                None => state.insert(self.0.clone()),
            }
        }

        fn job_id(job: &String) -> &str {
            job
        }

        fn is_terminal(_: &String) -> bool {
            true
        }

        fn snapshot(state: &State<Self>) -> Vec<Self> {
            state.jobs().iter().cloned().map(Done).collect()
        }
    }

    /// Writes `jobs` terminal jobs into a fresh journal at `dir` that
    /// retains them all, then reopens it retaining `retain`: the jobs the
    /// reopened journal keeps.
    fn kept_after_reopen(dir: &Path, jobs: usize, retain: usize) -> Vec<String> {
        let _ = fs::remove_dir_all(dir);
        let (mut journal, _) = Journal::<Done>::open_retaining(dir, 1 << 20, jobs).unwrap();
        for i in 0..jobs {
            journal.append(&Done(format!("j{i}"))).unwrap();
        }
        drop(journal);
        let (journal, recovery) = Journal::<Done>::open_retaining(dir, 1 << 20, retain).unwrap();
        assert_eq!(recovery.jobs().len(), jobs, "replay sees every record");
        let kept = journal.state().jobs().to_vec();
        drop(journal);
        // What the open's compaction kept is what is on disk.
        let (_, recovery) = Journal::<Done>::open_retaining(dir, 1 << 20, retain).unwrap();
        assert_eq!(recovery.jobs(), kept.as_slice());
        let _ = fs::remove_dir_all(dir);
        kept
    }

    #[test]
    fn open_retains_the_callers_count_above_the_codec_default() {
        let dir = std::env::temp_dir().join(format!("qpdo-retain-above-{}", std::process::id()));
        let retain = 2 * Done::RETAIN_TERMINAL;
        let kept = kept_after_reopen(&dir, retain, retain);
        assert_eq!(
            kept.len(),
            retain,
            "the open cut the journal to the codec default"
        );
    }

    #[test]
    fn open_retains_the_callers_count_below_the_codec_default() {
        let dir = std::env::temp_dir().join(format!("qpdo-retain-below-{}", std::process::id()));
        let jobs = Done::RETAIN_TERMINAL;
        let kept = kept_after_reopen(&dir, jobs, 1);
        // The oldest go first.
        assert_eq!(kept, vec![format!("j{}", jobs - 1)]);
    }

    #[test]
    fn atomic_replace_swaps_whole_files() {
        let dir = std::env::temp_dir().join(format!("qpdo-framing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.txt");
        atomic_replace(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_replace(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!path.with_extension("txt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
