//! The queue-draining engine behind the `flexray-serve` binary.
//!
//! [`run_serve_with`] performs one *drain*: it reads the job queue,
//! replays the journal (recovering completed and in-flight work),
//! truncates the journal's torn tail, journals a rejection for every
//! malformed queue line, then hands every job — terminal ones
//! included — to the static-plan scheduler ([`crate::scheduler`]),
//! which runs up to [`ServeConfig::jobs`] jobs concurrently over the
//! shared work-stealing pool. Jobs whose `end` record is journaled are
//! **never recomputed**: their reports are rewritten straight from
//! journal data.
//!
//! Points stream to the journal the moment their plan slot is reached,
//! via unbuffered `write_all` calls — a SIGKILL can lose at most the
//! final, newline-less line, which replay drops as the torn tail. The
//! journal's record order is the scheduler's static plan, a pure
//! function of `(queue content, jobs)`: a killed-and-replayed run
//! journals byte-identical records, and per-job reports are identical
//! for *any* `jobs`/`threads` setting.
//!
//! A stop request (the stop file `<journal>.stop`, or a socket
//! `shutdown`) is honoured *inside* the drain at unit boundaries: the
//! pool stops claiming units, in-flight units are journaled, and a
//! clean `stopped` record marks the early exit — resumable on restart.
//!
//! # Warm passes
//!
//! A long-running daemon drains once per wakeup, so a pass must cost
//! what is new, not what has been journaled so far. The
//! [`ServeControl`] a pass runs under keeps its drain state: the
//! parsed prefix of complete queue lines, and the journal fold with the
//! journal length this process left, each pinned to a content hash.
//! Every pass re-reads both files and trusts the state only if the
//! queue still starts with the bytes it covers and the journal is
//! byte-for-byte what this process left; on any difference — or after
//! a failed pass — the state is dropped and the pass replays cold. A
//! cold pass is the same code with an empty state. A warm pass then
//! parses only the new queue lines, folds only the records it appends
//! itself, still plans over the whole queue, and writes only the
//! reports of jobs that ended in it; a cold pass writes every done
//! job's report.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use flexray_bench::report::GridReportHeader;
use flexray_model::{mix64, ModelError};

use crate::control::{stop_path, ServeControl};
use crate::journal::{
    line_fp, parse_journal_line, JobProgress, JobStatus, JournalSink, JournalState, Record,
    SERVE_SCHEMA_VERSION,
};
use crate::scheduler::{run_schedule, ScheduledJob};
use crate::spec::{parse_job, JobKind, JobSpec};

/// One drain's inputs: where the queue, journal and reports live, and
/// how wide to dispatch.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The JSONL job queue (one job spec per line; `#` comments and
    /// blank lines are skipped). Append-only: existing lines must not
    /// change once journaled.
    pub queue: PathBuf,
    /// The append-only journal; created if absent, replayed if not.
    pub journal: PathBuf,
    /// Directory for per-job reports (`<id>.jsonl`); created if
    /// absent.
    pub reports: PathBuf,
    /// Worker threads for unit dispatch (0 = all cores). Results are
    /// bit-identical for any value.
    pub threads: usize,
    /// Jobs scheduled concurrently (clamped to ≥ 1). The journal's
    /// record order depends on this (it is a pure function of the
    /// queue *and* this), but per-job reports do not.
    pub jobs: usize,
}

/// What one drain did for one job.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Job id.
    pub id: String,
    /// Job kind (`grid`/`sweep`/`fig9`/`fuzz`).
    pub kind: String,
    /// Points recovered from the journal (not recomputed).
    pub recovered: usize,
    /// Points computed by this drain.
    pub computed: usize,
    /// Optimiser candidate evaluations performed by this drain — a
    /// runtime metric, deliberately *not* journaled (a resumed job
    /// would journal only its post-restart share, breaking the
    /// byte-identity contract).
    pub evaluations: u64,
    /// The job's terminal status — `None` when the drain stopped with
    /// the job still in flight (resumable on restart).
    pub status: Option<JobStatus>,
}

/// Everything one drain did.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Per-job summaries, in queue order.
    pub jobs: Vec<JobSummary>,
    /// `(queue line number, error)` of rejected lines, in queue order
    /// (journaled rejections included).
    pub rejected: Vec<(usize, String)>,
    /// Whether a stop request ended the drain before the plan
    /// completed (a `stopped` record was journaled; restart resumes).
    pub stopped: bool,
}

fn infra(what: &str, err: &dyn std::fmt::Display) -> ModelError {
    ModelError::InvalidConfig(format!("serve: {what}: {err}"))
}

/// A streaming hash of a byte sequence: equal for equal bytes however
/// they are split across [`update`](ContentHash::update) calls, so a
/// running hash of appended lines compares with one hash of the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ContentHash {
    acc: u64,
    len: u64,
    /// The bytes of the current partial word, little-endian.
    word: u64,
}

impl ContentHash {
    fn update(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !self.len.is_multiple_of(8) {
            let Some((&byte, tail)) = rest.split_first() else {
                return;
            };
            self.push_byte(byte);
            rest = tail;
        }
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            self.acc = mix64(self.acc ^ u64::from_le_bytes(word.try_into().expect("8 bytes")));
            self.len += 8;
        }
        for &byte in words.remainder() {
            self.push_byte(byte);
        }
    }

    fn push_byte(&mut self, byte: u8) {
        self.word |= u64::from(byte) << (8 * (self.len % 8));
        self.len += 1;
        if self.len.is_multiple_of(8) {
            self.acc = mix64(self.acc ^ self.word);
            self.word = 0;
        }
    }

    /// Hashes the next `len` bytes of `reader` through a fixed buffer;
    /// `None` when it ends sooner.
    fn of_prefix(reader: &mut impl Read, len: usize) -> io::Result<Option<ContentHash>> {
        const CHUNK: usize = 16 * 1024;
        let mut hash = ContentHash::default();
        let mut buf = [0u8; CHUNK];
        let mut left = len;
        while left > 0 {
            let n = reader.read(&mut buf[..left.min(CHUNK)])?;
            if n == 0 {
                return Ok(None);
            }
            hash.update(&buf[..n]);
            left -= n;
        }
        Ok(Some(hash))
    }
}

/// The queue lines a pass leaves parsed for the next: every complete
/// (newline-terminated) line of the first `len` bytes.
#[derive(Debug, Default)]
struct QueueScan {
    /// Bytes of complete lines scanned, and their hash.
    len: usize,
    hash: ContentHash,
    /// Lines scanned.
    lines: usize,
    /// The accepted jobs in queue order, and their ids. A job is
    /// *settled* once it has ended and its report is written: it then
    /// keeps neither its spec nor its point data.
    jobs: Vec<ScheduledJob>,
    ids: HashSet<String>,
    /// `(queue line number, error)` of the rejected lines, in queue
    /// order.
    rejected: Vec<(usize, String)>,
}

/// The journal fold a pass leaves for the next, and the bytes it
/// covers: the whole journal as this process left it.
#[derive(Debug, Default)]
struct JournalFold {
    state: JournalState,
    len: usize,
    hash: ContentHash,
}

impl JournalFold {
    /// Whether the journal (`None`: absent) holds exactly the bytes
    /// folded. Reads them all when the length matches.
    fn covers(&self, file: Option<&mut File>) -> io::Result<bool> {
        let Some(file) = file else {
            return Ok(self.len == 0);
        };
        Ok(file.metadata()?.len() == self.len as u64
            && ContentHash::of_prefix(file, self.len)? == Some(self.hash))
    }

    /// Folds the complete records `reader` holds past the bytes folded
    /// so far (it must be positioned there), one line at a time; a torn
    /// final line is left unfolded, for the caller to truncate.
    fn fold_rest(&mut self, mut reader: impl BufRead, path: &Path) -> Result<(), ModelError> {
        let mut line = Vec::new();
        loop {
            line.clear();
            let n = reader
                .read_until(b'\n', &mut line)
                .map_err(|e| infra(&format!("read journal {}", path.display()), &e))?;
            let Some(text) = line.strip_suffix(b"\n") else {
                return Ok(()); // end of file, or a torn tail
            };
            self.state.apply(&parse_journal_line(text, self.len)?)?;
            self.hash.update(&line);
            self.len += n;
        }
    }
}

/// What one drain pass leaves for the next on the same
/// [`ServeControl`]; empty for a cold pass. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct DrainState {
    queue: QueueScan,
    journal: JournalFold,
}

/// The journal's append handle: unbuffered, one `write_all` per line
/// (see [`JournalSink`] for what that survives), folding each record
/// into the drain state as it lands.
struct JournalWriter<'a> {
    file: File,
    path: &'a Path,
    fold: &'a mut JournalFold,
}

impl JournalSink for JournalWriter<'_> {
    fn append(&mut self, record: &Record) -> Result<(), ModelError> {
        let mut line = record.to_line()?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| infra(&format!("append to journal {}", self.path.display()), &e))?;
        self.fold.len += line.len();
        self.fold.hash.update(line.as_bytes());
        self.fold.state.apply(record)
    }
}

/// Writes `reports/<id>.jsonl` — the job's schema header followed by
/// its point lines, straight from the journal's canonical point text.
/// The codec's parse→write round trip is byte-stable, so a report
/// rewritten from the journal is byte-identical to one written live.
fn write_report(reports: &Path, spec: &JobSpec, points: &[String]) -> Result<(), ModelError> {
    let mut out = match &spec.kind {
        JobKind::Grid(cfg) => GridReportHeader::of(cfg).to_line()?,
        JobKind::Fuzz(cfg) => cfg.header_line()?,
    };
    out.push('\n');
    for data in points {
        out.push_str(data);
        out.push('\n');
    }
    let path = reports.join(format!("{}.jsonl", spec.id));
    fs::write(&path, out).map_err(|e| infra(&format!("write report {}", path.display()), &e))
}

/// Copies what the journal knows about a job into its schedule entry.
fn sync_progress(job: &mut ScheduledJob, progress: Option<&JobProgress>) {
    job.recovered = progress.map_or(0, |p| p.points);
    job.start_journaled = progress.is_some();
    job.terminal = progress.and_then(|p| p.status.clone());
}

/// Deals with the end of a terminal job: writes its report if it is
/// done and, when `keep` is false, settles it — drops its spec and
/// releases its point data, which nothing needs any more. A settled
/// job is left alone.
fn settle(
    job: &mut ScheduledJob,
    keep: bool,
    journal: &mut JournalState,
    reports: &Path,
) -> Result<(), ModelError> {
    let Some(spec) = &job.spec else {
        return Ok(());
    };
    if let Some(JobStatus::Done { .. }) = job.terminal {
        let progress = journal
            .job(&job.id)
            .ok_or_else(|| infra(&format!("job '{}'", job.id), &"done but not journaled"))?;
        write_report(reports, spec, &progress.data)?;
    }
    if !keep {
        journal.release_data(&job.id);
        job.spec = None;
    }
    Ok(())
}

/// One scanned queue line.
enum QueueLine {
    /// Blank or a `#` comment.
    Skip,
    Job(ScheduledJob),
    Rejected(String),
}

/// Scans queue line `lineno` against the journal: verifies the
/// fingerprint of an already-journaled line, journals the rejection of
/// a new malformed one (or one reusing an id in `ids`), and otherwise
/// returns the job with its journaled progress.
fn scan_line(
    raw: &str,
    lineno: usize,
    ids: &HashSet<String>,
    journal: &mut JournalWriter<'_>,
) -> Result<QueueLine, ModelError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(QueueLine::Skip);
    }
    let fp = line_fp(raw);
    if let Some((journaled_fp, error)) = journal.fold.state.rejected(lineno) {
        if journaled_fp != fp {
            return Err(infra(
                &format!("queue line {lineno}"),
                &"line changed under the journal (rejected-record fingerprint mismatch)",
            ));
        }
        return Ok(QueueLine::Rejected(error.to_owned()));
    }
    let spec = match parse_job(raw).and_then(|spec| {
        if ids.contains(&spec.id) {
            Err(ModelError::InvalidConfig(format!(
                "duplicate job id '{}'",
                spec.id
            )))
        } else {
            Ok(spec)
        }
    }) {
        Ok(spec) => spec,
        Err(e) => {
            let error = e.to_string();
            journal.append(&Record::Rejected {
                line: lineno,
                fp,
                error: error.clone(),
            })?;
            return Ok(QueueLine::Rejected(error));
        }
    };
    let progress = journal.fold.state.job(&spec.id);
    if let Some(progress) = progress {
        if progress.fp != fp {
            return Err(infra(
                &format!("job '{}'", spec.id),
                &"queue line changed under the journal (fingerprint mismatch)",
            ));
        }
        if progress.kind != spec.kind_name || progress.total_points != spec.total_points() {
            return Err(infra(
                &format!("job '{}'", spec.id),
                &"journal start record disagrees with the parsed spec",
            ));
        }
    }
    let mut job = ScheduledJob::new(spec, fp);
    sync_progress(&mut job, progress);
    Ok(QueueLine::Job(job))
}

impl QueueScan {
    /// Whether the queue still starts with exactly the bytes scanned.
    /// Reads them from `file`, leaving it positioned after them.
    fn covers(&self, file: &mut File) -> io::Result<bool> {
        Ok(ContentHash::of_prefix(file, self.len)? == Some(self.hash))
    }

    /// Brings the scan up to date with `fresh`, the queue text past the
    /// bytes scanned: scans the new lines — all of them up front, before
    /// any job starts, so their rejections are journaled first — and
    /// settles the new jobs that have already ended. Complete lines
    /// join the scan; a final line without a newline (a hand edit in
    /// progress) is scanned again next pass, and its job, if any, is
    /// returned for this pass only. Fills `outcome.rejected`.
    fn scan(
        &mut self,
        fresh: &str,
        journal: &mut JournalWriter<'_>,
        reports: &Path,
        outcome: &mut ServeOutcome,
    ) -> Result<Option<ScheduledJob>, ModelError> {
        let mut tail = None;
        let mut tail_rejected = None;
        for piece in fresh.split_inclusive('\n') {
            let lineno = self.lines + 1;
            let raw = piece.lines().next().unwrap_or_default();
            let line = scan_line(raw, lineno, &self.ids, journal)?;
            if !piece.ends_with('\n') {
                match line {
                    QueueLine::Skip => {}
                    QueueLine::Job(job) => tail = Some(job),
                    QueueLine::Rejected(error) => tail_rejected = Some((lineno, error)),
                }
                break;
            }
            self.len += piece.len();
            self.hash.update(piece.as_bytes());
            self.lines += 1;
            match line {
                QueueLine::Skip => {}
                QueueLine::Job(mut job) => {
                    if job.terminal.is_some() {
                        settle(&mut job, false, &mut journal.fold.state, reports)?;
                    }
                    self.ids.insert(job.id.clone());
                    self.jobs.push(job);
                }
                QueueLine::Rejected(error) => self.rejected.push((lineno, error)),
            }
        }
        outcome.rejected.clone_from(&self.rejected);
        outcome.rejected.extend(tail_rejected);
        Ok(tail)
    }
}

/// Performs one drain of the queue with a default (inert) control
/// block. See [`run_serve_with`].
///
/// # Errors
///
/// See [`run_serve_with`].
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeOutcome, ModelError> {
    run_serve_with(cfg, &ServeControl::default())
}

/// Performs one drain of the queue. See the module docs for the
/// crash-safety and determinism contract and for warm passes. `control`
/// carries shutdown, cancellation and status-board state shared with a
/// socket front-end, and the drain state this pass leaves for the next.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on IO failures (including a
/// journal append failing mid-drain — e.g. a full disk — with the
/// journal path named), a corrupt journal (a malformed record *before*
/// the torn tail), or a queue line that changed under the journal
/// (fingerprint mismatch). Job failures and rejected queue lines are
/// *not* errors — they are journaled and reported in the
/// [`ServeOutcome`].
pub fn run_serve_with(
    cfg: &ServeConfig,
    control: &ServeControl,
) -> Result<ServeOutcome, ModelError> {
    let mut state = control.take_drain_state();
    let outcome = drain_pass(cfg, control, &mut state)?;
    control.keep_drain_state(state);
    Ok(outcome)
}

fn drain_pass(
    cfg: &ServeConfig,
    control: &ServeControl,
    state: &mut DrainState,
) -> Result<ServeOutcome, ModelError> {
    let queue_err = |e: io::Error| infra(&format!("read queue {}", cfg.queue.display()), &e);
    let journal_err = |e: io::Error| infra(&format!("read journal {}", cfg.journal.display()), &e);
    let mut journal_file = match File::open(&cfg.journal) {
        Ok(file) => Some(file),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(journal_err(e)),
    };
    // Both files are read through a fixed buffer, never whole: the
    // state is trusted only if the journal is exactly what this process
    // left and the queue still starts with the bytes it scanned.
    let journal_warm = state
        .journal
        .covers(journal_file.as_mut())
        .map_err(journal_err)?;
    let reading = control.lock_queue();
    let mut queue_file = File::open(&cfg.queue).map_err(queue_err)?;
    if !(journal_warm && state.queue.covers(&mut queue_file).map_err(queue_err)?) {
        *state = DrainState::default();
        queue_file.rewind().map_err(queue_err)?;
        if let Some(file) = &mut journal_file {
            file.rewind().map_err(journal_err)?;
        }
    }
    let mut fresh = String::new();
    queue_file.read_to_string(&mut fresh).map_err(queue_err)?;
    drop(reading);
    // A warm state has folded the whole journal already; a cold one
    // folds it record by record, keeping only the per-job progress.
    if let Some(file) = journal_file {
        state
            .journal
            .fold_rest(BufReader::new(file), &cfg.journal)?;
    }
    fs::create_dir_all(&cfg.reports)
        .map_err(|e| infra(&format!("create reports dir {}", cfg.reports.display()), &e))?;

    // Not `truncate(true)`: the valid prefix must survive — only the
    // torn tail past the folded records is cut, by the `set_len` below.
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&cfg.journal)
        .map_err(|e| infra(&format!("open journal {}", cfg.journal.display()), &e))?;
    file.set_len(state.journal.len as u64)
        .map_err(|e| infra("truncate journal torn tail", &e))?;
    let mut journal = JournalWriter {
        file,
        path: &cfg.journal,
        fold: &mut state.journal,
    };
    journal
        .file
        .seek(SeekFrom::End(0))
        .map_err(|e| infra("seek journal", &e))?;
    if journal.fold.state.records() == 0 {
        journal.append(&Record::Header {
            version: SERVE_SCHEMA_VERSION,
        })?;
    }

    let mut outcome = ServeOutcome::default();
    let scan = &mut state.queue;
    let tail = scan.scan(&fresh, &mut journal, &cfg.reports, &mut outcome)?;
    drop(fresh);
    let scanned = scan.jobs.len();
    scan.jobs.extend(tail);

    let stop_file = stop_path(&cfg.journal);
    let (results, stopped) = run_schedule(
        &scan.jobs,
        cfg.jobs.max(1),
        flexray_util::worker_threads(cfg.threads),
        control,
        Some(&stop_file),
        &mut journal,
    )?;
    outcome.stopped = stopped;

    for (k, (job, result)) in scan.jobs.iter_mut().zip(&results).enumerate() {
        outcome.jobs.push(JobSummary {
            id: job.id.clone(),
            kind: job.kind_name.clone(),
            recovered: job.recovered,
            computed: result.new_points,
            evaluations: result.evaluations,
            status: result.status.clone(),
        });
        // Nothing follows an end record, so terminal jobs are final.
        if job.terminal.is_none() {
            sync_progress(job, journal.fold.state.job(&job.id));
        }
        if job.terminal.is_some() {
            // The unterminated final line is scanned afresh every pass,
            // so its job is never settled and its report is rewritten.
            settle(job, k >= scanned, &mut journal.fold.state, &cfg.reports)?;
        }
    }
    scan.jobs.truncate(scanned);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_ignores_how_the_bytes_are_split() {
        let text = b"{\"rec\":\"point\",\"job\":\"g1\"}\nsecond line\n";
        let of = |bytes: &[u8]| {
            let mut hash = ContentHash::default();
            hash.update(bytes);
            hash
        };
        let whole = of(text);
        for cut in 0..=text.len() {
            for cut2 in cut..=text.len() {
                let mut split = ContentHash::default();
                split.update(&text[..cut]);
                split.update(&text[cut..cut2]);
                split.update(&text[cut2..]);
                assert_eq!(split, whole, "split at {cut}/{cut2}");
            }
        }
        assert_ne!(of(b"ab"), of(b"ab\0"));
        assert_ne!(of(b"abcdefgh"), of(b"abcdefgi"));
        let mut prefix: &[u8] = text;
        assert_eq!(
            ContentHash::of_prefix(&mut prefix, 10).expect("in memory"),
            Some(of(&text[..10]))
        );
        let mut short: &[u8] = b"abc";
        assert_eq!(
            ContentHash::of_prefix(&mut short, 4).expect("in memory"),
            None
        );
    }

    #[test]
    fn the_streaming_fold_recovers_what_read_journal_does_at_every_cut() {
        use crate::journal::read_journal;
        use flexray_bench::report::Json;
        let point = |index: f64| Record::Point {
            job: "g1".into(),
            data: Json::Obj(vec![
                ("point".into(), Json::Num(index)),
                ("label".into(), Json::Str("n=2 ü".into())),
            ]),
        };
        let text: String = [
            Record::Header {
                version: SERVE_SCHEMA_VERSION,
            },
            Record::Start {
                job: "g1".into(),
                kind: "grid".into(),
                fp: line_fp("spec"),
                total_points: 2,
            },
            point(0.0),
            Record::Stopped,
            point(1.0),
            Record::End {
                job: "g1".into(),
                status: JobStatus::Done { points: 2 },
            },
        ]
        .iter()
        .map(|r| r.to_line().expect("finite record") + "\n")
        .collect();
        for cut in 0..=text.len() {
            let bytes = &text.as_bytes()[..cut];
            let mut fold = JournalFold::default();
            fold.fold_rest(bytes, Path::new("serve.journal"))
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            // A cut inside the two-byte `ü` is a torn tail too.
            let prefix = String::from_utf8_lossy(bytes);
            let (records, valid_len) = read_journal(&prefix).expect("prefix reads");
            assert_eq!(fold.len, valid_len, "cut {cut}");
            assert_eq!(fold.state.records(), records.len(), "cut {cut}");
            let mut hash = ContentHash::default();
            hash.update(&text.as_bytes()[..valid_len]);
            assert_eq!(fold.hash, hash, "cut {cut}");
            let points = fold.state.job("g1").map_or(0, |p| p.data.len());
            let replayed = JournalState::replay(&records).expect("prefix replays");
            assert_eq!(
                points,
                replayed.job("g1").map_or(0, |p| p.data.len()),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn journal_writer_errors_name_the_journal_path() {
        // A directory cannot be written as a file: the append must
        // surface an error naming the journal path, never panic.
        let dir = std::env::temp_dir();
        let file = OpenOptions::new()
            .read(true)
            .open(&dir)
            .expect("open dir read-only");
        let mut fold = JournalFold::default();
        let mut writer = JournalWriter {
            file,
            path: &dir,
            fold: &mut fold,
        };
        let err = writer
            .append(&Record::Header {
                version: SERVE_SCHEMA_VERSION,
            })
            .expect_err("writing a read-only handle fails");
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "error must name the journal path: {err}"
        );
    }
}
