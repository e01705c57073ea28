//! The `flexray-serve` JSONL journal schema (v2).
//!
//! The journal is an append-only file of one JSON record per line:
//!
//! * a header — `{"schema":"flexray-serve","version":2}`;
//! * `{"rec":"rejected","line":N,"fp":"…","error":"…"}` — queue line
//!   `N` (1-based) failed to parse and was skipped;
//! * `{"rec":"start","job":ID,"kind":K,"fp":"…","total_points":N}` —
//!   a job began executing;
//! * `{"rec":"point","job":ID,"data":{…}}` — one completed point, in
//!   point order; `data` is the exact report line of the point's
//!   schema (`flexray-grid` point or `flexray-fuzz` point), in the
//!   *deterministic projection* (wall-clock fields zeroed);
//! * `{"rec":"end","job":ID,"status":"done","points":N}` or
//!   `{"rec":"end","job":ID,"status":"failed","error":"…"}`;
//! * `{"rec":"stopped"}` — the daemon exited a drain early and cleanly
//!   (stop file or `shutdown` request); every record before it is
//!   intact and the run is resumable. Replay ignores it: it marks *the
//!   journal stopped short*, not any change of job state.
//!
//! `fp` fingerprints the raw queue line ([`line_fp`]); replay refuses
//! a journal whose fingerprints disagree with the queue, so a journal
//! can only be replayed against the queue that wrote it (the queue is
//! append-only: existing lines must not change).
//!
//! [`read_journal`] recovers the longest valid newline-terminated
//! record prefix, tolerating exactly one torn final line (the
//! signature of a kill mid-append); [`JournalState::replay`] folds the
//! records into per-job progress with full structural validation
//! (start before point/end, contiguous point indices, nothing after
//! end). The daemon folds each record into the state as it reads it,
//! keeping no record list.

use std::collections::HashMap;

use flexray_bench::report::{malformed, num_field, str_field, Json};
use flexray_model::{mix_words, ModelError};

/// Schema identifier carried by the journal header.
pub const SERVE_SCHEMA: &str = "flexray-serve";
/// Version of the journal record layout; bump on any schema change
/// (the golden test enforces the pairing). v2 added the `stopped`
/// record for clean early exits.
pub const SERVE_SCHEMA_VERSION: u32 = 2;

/// Fingerprint of one raw queue line, as the 16-hex-digit string
/// journal records carry: a [`mix_words`] fold over the line's bytes
/// (8 per word) and its length.
#[must_use]
pub fn line_fp(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut words: Vec<u64> = Vec::with_capacity(bytes.len() / 8 + 2);
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            word |= u64::from(b) << (8 * i);
        }
        words.push(word);
    }
    format!("{:016x}", mix_words(&words))
}

/// Terminal status of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Every point completed and was journaled.
    Done {
        /// Number of journaled points.
        points: usize,
    },
    /// A unit failed; the journal holds the points completed before
    /// the failing one.
    Failed {
        /// The first failing unit's error, in unit order.
        error: String,
    },
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The schema header (always the first record).
    Header {
        /// Record-layout version ([`SERVE_SCHEMA_VERSION`]).
        version: u32,
    },
    /// A queue line was rejected and skipped.
    Rejected {
        /// 1-based queue line number.
        line: usize,
        /// Fingerprint of the raw queue line.
        fp: String,
        /// The parse error.
        error: String,
    },
    /// A job began executing.
    Start {
        /// Job id.
        job: String,
        /// Job kind (`grid`/`sweep`/`fig9`/`fuzz`).
        kind: String,
        /// Fingerprint of the raw queue line.
        fp: String,
        /// Number of points the job will journal.
        total_points: usize,
    },
    /// One completed point (in point order).
    Point {
        /// Job id.
        job: String,
        /// The point's report-line JSON, deterministic projection.
        data: Json,
    },
    /// A job reached a terminal status.
    End {
        /// Job id.
        job: String,
        /// Terminal status.
        status: JobStatus,
    },
    /// The daemon exited this drain early and cleanly (stop file or
    /// socket `shutdown`); the run is resumable. Carries no state:
    /// replay skips it.
    Stopped,
}

impl Record {
    /// Serialises the record as one journal line (no newline).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the record carries a
    /// non-finite number (e.g. a point payload with a NaN statistic),
    /// which has no JSON representation.
    pub fn to_line(&self) -> Result<String, ModelError> {
        match self {
            Record::Header { version } => Json::Obj(vec![
                ("schema".into(), Json::Str(SERVE_SCHEMA.into())),
                ("version".into(), Json::Num(f64::from(*version))),
            ]),
            Record::Rejected { line, fp, error } => Json::Obj(vec![
                ("rec".into(), Json::Str("rejected".into())),
                ("line".into(), Json::Num(*line as f64)),
                ("fp".into(), Json::Str(fp.clone())),
                ("error".into(), Json::Str(error.clone())),
            ]),
            Record::Start {
                job,
                kind,
                fp,
                total_points,
            } => Json::Obj(vec![
                ("rec".into(), Json::Str("start".into())),
                ("job".into(), Json::Str(job.clone())),
                ("kind".into(), Json::Str(kind.clone())),
                ("fp".into(), Json::Str(fp.clone())),
                ("total_points".into(), Json::Num(*total_points as f64)),
            ]),
            Record::Point { job, data } => Json::Obj(vec![
                ("rec".into(), Json::Str("point".into())),
                ("job".into(), Json::Str(job.clone())),
                ("data".into(), data.clone()),
            ]),
            Record::End { job, status } => {
                let mut members = vec![
                    ("rec".into(), Json::Str("end".into())),
                    ("job".into(), Json::Str(job.clone())),
                ];
                match status {
                    JobStatus::Done { points } => {
                        members.push(("status".into(), Json::Str("done".into())));
                        members.push(("points".into(), Json::Num(*points as f64)));
                    }
                    JobStatus::Failed { error } => {
                        members.push(("status".into(), Json::Str("failed".into())));
                        members.push(("error".into(), Json::Str(error.clone())));
                    }
                }
                Json::Obj(members)
            }
            Record::Stopped => Json::Obj(vec![("rec".into(), Json::Str("stopped".into()))]),
        }
        .write()
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] on malformed JSON, an
    /// unknown `rec` tag, or a missing / mistyped field.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn parse(line: &str) -> Result<Record, ModelError> {
        let json = Json::parse(line)?;
        if let Some(schema) = json.get("schema") {
            let schema = schema
                .as_str()
                .ok_or_else(|| malformed("journal 'schema' is not a string"))?;
            if schema != SERVE_SCHEMA {
                return Err(malformed(&format!(
                    "journal schema is '{schema}', expected '{SERVE_SCHEMA}'"
                )));
            }
            let version = num_field(&json, "version")? as u32;
            if version != SERVE_SCHEMA_VERSION {
                return Err(malformed(&format!(
                    "journal schema version {version} unsupported (this build writes \
                     {SERVE_SCHEMA_VERSION})"
                )));
            }
            return Ok(Record::Header { version });
        }
        match str_field(&json, "rec")? {
            "rejected" => Ok(Record::Rejected {
                line: num_field(&json, "line")? as usize,
                fp: str_field(&json, "fp")?.to_owned(),
                error: str_field(&json, "error")?.to_owned(),
            }),
            "start" => Ok(Record::Start {
                job: str_field(&json, "job")?.to_owned(),
                kind: str_field(&json, "kind")?.to_owned(),
                fp: str_field(&json, "fp")?.to_owned(),
                total_points: num_field(&json, "total_points")? as usize,
            }),
            "point" => Ok(Record::Point {
                job: str_field(&json, "job")?.to_owned(),
                data: json
                    .get("data")
                    .ok_or_else(|| malformed("missing field 'data'"))?
                    .clone(),
            }),
            "end" => {
                let job = str_field(&json, "job")?.to_owned();
                let status = match str_field(&json, "status")? {
                    "done" => JobStatus::Done {
                        points: num_field(&json, "points")? as usize,
                    },
                    "failed" => JobStatus::Failed {
                        error: str_field(&json, "error")?.to_owned(),
                    },
                    other => {
                        return Err(malformed(&format!("unknown end status '{other}'")));
                    }
                };
                Ok(Record::End { job, status })
            }
            "stopped" => Ok(Record::Stopped),
            other => Err(malformed(&format!("unknown journal record '{other}'"))),
        }
    }
}

/// Parses the complete journal line (newline stripped) that starts at
/// byte `offset`; a malformed line is an error naming the offset.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on a line that is not UTF-8
/// or not a record.
pub(crate) fn parse_journal_line(line: &[u8], offset: usize) -> Result<Record, ModelError> {
    std::str::from_utf8(line)
        .map_err(|e| ModelError::InvalidConfig(e.to_string()))
        .and_then(Record::parse)
        .map_err(|e| {
            ModelError::InvalidConfig(format!(
                "journal byte {offset}: corrupt record (not a torn tail): {e}"
            ))
        })
}

/// Recovers `(records, valid prefix byte length)` from raw journal
/// content.
///
/// Only complete, newline-terminated lines count; a torn final line
/// (no trailing newline — the signature of a kill mid-append) is
/// dropped, and the returned byte length is where appending must
/// resume (the daemon truncates the file to it). A malformed
/// newline-terminated line is an error: the journal is machine-written
/// and mid-file corruption must not be silently skipped.
///
/// Empty content yields no records — a fresh journal.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on a malformed complete line.
pub fn read_journal(content: &str) -> Result<(Vec<Record>, usize), ModelError> {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    for line in content.split_inclusive('\n') {
        let Some(line) = line.strip_suffix('\n') else {
            break; // torn tail
        };
        records.push(parse_journal_line(line.as_bytes(), valid_len)?);
        valid_len += line.len() + 1;
    }
    Ok((records, valid_len))
}

/// Where journal records go as they are produced.
///
/// The daemon's sink appends each record to the journal file with one
/// unbuffered `write_all` and no `fsync`: a record reported as written
/// survives a kill of the process (it is in the kernel's page cache),
/// but not a power loss or an operating-system crash. Tests substitute
/// in-memory or failing sinks. An `Err` from
/// [`append`](JournalSink::append) must abort the drain — the scheduler
/// propagates it and the daemon exits with code 1 naming the journal
/// path, never panicking.
pub trait JournalSink {
    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the record cannot be
    /// serialised or the underlying medium refuses the write (e.g. a
    /// full disk); the message names the journal path.
    fn append(&mut self, record: &Record) -> Result<(), ModelError>;
}

/// Per-job progress recovered from the journal.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Job kind from the start record.
    pub kind: String,
    /// Fingerprint of the raw queue line that defined the job.
    pub fp: String,
    /// Total points the start record announced.
    pub total_points: usize,
    /// Points journaled, contiguous from point 0.
    pub points: usize,
    /// Each journaled point's data as its canonical JSON text (the
    /// codec's parse→write round trip is byte-stable, so this is
    /// exactly the report line), until the daemon has written the
    /// job's report and drops it.
    pub data: Vec<String>,
    /// Terminal status, if the job's end record was journaled.
    pub status: Option<JobStatus>,
}

/// The fold of a journal: per-job progress plus the rejected lines,
/// both indexed for constant-time lookup.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// Progress per job id.
    jobs: HashMap<String, JobProgress>,
    /// `(fp, error)` of journaled rejections, per queue line number.
    rejected: HashMap<usize, (String, String)>,
    /// Records folded so far (the header is record 0).
    records: usize,
}

impl JournalState {
    /// Progress of job `id`, if journaled.
    #[must_use]
    pub fn job(&self, id: &str) -> Option<&JobProgress> {
        self.jobs.get(id)
    }

    /// The journaled rejection of queue line `line` (1-based), as
    /// `(fp, error)`.
    #[must_use]
    pub fn rejected(&self, line: usize) -> Option<(&str, &str)> {
        self.rejected
            .get(&line)
            .map(|(fp, error)| (fp.as_str(), error.as_str()))
    }

    /// Records folded so far; `0` for a fresh journal.
    #[must_use]
    pub fn records(&self) -> usize {
        self.records
    }

    /// Drops the point data of job `id` once it is no longer needed
    /// (its report is written); its point count stays.
    pub(crate) fn release_data(&mut self, id: &str) {
        if let Some(progress) = self.jobs.get_mut(id) {
            progress.data = Vec::new();
        }
    }

    /// Folds a record sequence into per-job progress, validating the
    /// journal's structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the first record is
    /// not the header (or a header reappears), a point or end record
    /// precedes its start, a start or rejected record repeats, points
    /// arrive out of order, records follow a job's end, a done
    /// record's point count disagrees with the journaled points, or a
    /// point's data has no JSON text (a non-finite number).
    pub fn replay(records: &[Record]) -> Result<JournalState, ModelError> {
        let mut state = JournalState::default();
        for record in records {
            state.apply(record)?;
        }
        Ok(state)
    }

    /// Folds one more record into the state.
    ///
    /// # Errors
    ///
    /// The violations [`replay`](Self::replay) lists.
    pub(crate) fn apply(&mut self, record: &Record) -> Result<(), ModelError> {
        let fail = |msg: String| Err(ModelError::InvalidConfig(format!("journal replay: {msg}")));
        let k = self.records;
        match record {
            Record::Header { .. } => {
                if k != 0 {
                    return fail(format!("header reappears at record {k}"));
                }
            }
            _ if k == 0 => {
                return fail("first record is not the schema header".into());
            }
            Record::Rejected { line, fp, error } => {
                if self.rejected.contains_key(line) {
                    return fail(format!("queue line {line} rejected twice"));
                }
                self.rejected.insert(*line, (fp.clone(), error.clone()));
            }
            Record::Start {
                job,
                kind,
                fp,
                total_points,
            } => {
                if self.jobs.contains_key(job) {
                    return fail(format!("job '{job}' started twice"));
                }
                self.jobs.insert(
                    job.clone(),
                    JobProgress {
                        kind: kind.clone(),
                        fp: fp.clone(),
                        total_points: *total_points,
                        points: 0,
                        data: Vec::new(),
                        status: None,
                    },
                );
            }
            Record::Point { job, data } => {
                let Some(progress) = self.jobs.get_mut(job) else {
                    return fail(format!("point for job '{job}' before its start"));
                };
                if progress.status.is_some() {
                    return fail(format!("point for job '{job}' after its end"));
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let index = num_field(data, "point")? as usize;
                if index != progress.points {
                    return fail(format!(
                        "job '{job}' point {index} journaled after {} point(s)",
                        progress.points
                    ));
                }
                if index >= progress.total_points {
                    return fail(format!(
                        "job '{job}' point {index} beyond its {} total",
                        progress.total_points
                    ));
                }
                progress.data.push(data.write()?);
                progress.points += 1;
            }
            Record::End { job, status } => {
                let Some(progress) = self.jobs.get_mut(job) else {
                    return fail(format!("end for job '{job}' before its start"));
                };
                if progress.status.is_some() {
                    return fail(format!("job '{job}' ended twice"));
                }
                if let JobStatus::Done { points } = status {
                    if *points != progress.points || *points != progress.total_points {
                        return fail(format!(
                            "job '{job}' done with {points} point(s) but journaled {} of {}",
                            progress.points, progress.total_points
                        ));
                    }
                }
                progress.status = Some(status.clone());
            }
            // A stopped marker only says the drain exited early; it
            // changes no job state and may appear any number of times
            // (one per interrupted drain).
            Record::Stopped => {}
        }
        self.records += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(job: &str, index: usize) -> Record {
        Record::Point {
            job: job.into(),
            data: Json::Obj(vec![("point".into(), Json::Num(index as f64))]),
        }
    }

    fn journal_text(records: &[Record]) -> String {
        records
            .iter()
            .map(|r| r.to_line().expect("finite record") + "\n")
            .collect::<String>()
    }

    fn well_formed() -> Vec<Record> {
        vec![
            Record::Header {
                version: SERVE_SCHEMA_VERSION,
            },
            Record::Rejected {
                line: 2,
                fp: line_fp("garbage"),
                error: "malformed".into(),
            },
            Record::Start {
                job: "g1".into(),
                kind: "grid".into(),
                fp: line_fp("spec"),
                total_points: 2,
            },
            point("g1", 0),
            point("g1", 1),
            Record::End {
                job: "g1".into(),
                status: JobStatus::Done { points: 2 },
            },
        ]
    }

    #[test]
    fn records_round_trip_through_their_lines() {
        for record in well_formed() {
            let line = record.to_line().expect("finite record");
            assert_eq!(Record::parse(&line).expect("parses"), record, "{line}");
        }
        let failed = Record::End {
            job: "g1".into(),
            status: JobStatus::Failed {
                error: "boom \"quoted\"".into(),
            },
        };
        assert_eq!(
            Record::parse(&failed.to_line().expect("finite record")).expect("parses"),
            failed
        );
        let stopped = Record::Stopped;
        let line = stopped.to_line().expect("finite record");
        assert_eq!(line, "{\"rec\":\"stopped\"}");
        assert_eq!(Record::parse(&line).expect("parses"), stopped);
    }

    #[test]
    fn replay_ignores_stopped_markers_anywhere_after_the_header() {
        let mut records = well_formed();
        // One per interrupted drain: between jobs, mid-job, trailing.
        records.insert(2, Record::Stopped);
        records.insert(5, Record::Stopped);
        records.push(Record::Stopped);
        let state = JournalState::replay(&records).expect("stopped markers are transparent");
        let progress = state.job("g1").expect("job recovered");
        assert_eq!(progress.points, 2);
        assert_eq!(progress.status, Some(JobStatus::Done { points: 2 }));
        // But not *before* the header: the header-first invariant wins.
        assert!(JournalState::replay(&[Record::Stopped]).is_err());
    }

    #[test]
    fn line_fp_is_deterministic_and_content_sensitive() {
        assert_eq!(line_fp("abc"), line_fp("abc"));
        assert_ne!(line_fp("abc"), line_fp("abd"));
        assert_ne!(line_fp("abc"), line_fp("abc "));
        assert_eq!(line_fp("abc").len(), 16);
    }

    #[test]
    fn torn_tail_recovers_to_the_valid_prefix_at_every_offset() {
        let text = journal_text(&well_formed());
        let (all, full_len) = read_journal(&text).expect("full journal reads");
        assert_eq!(all.len(), 6);
        assert_eq!(full_len, text.len());
        for cut in 0..text.len() {
            let (records, valid_len) = read_journal(&text[..cut])
                .unwrap_or_else(|e| panic!("cut {cut}: torn tail must recover, got {e}"));
            assert!(valid_len <= cut, "cut {cut}");
            assert_eq!(
                records,
                all[..records.len()],
                "cut {cut}: not a record prefix"
            );
            assert_eq!(
                text[..valid_len],
                journal_text(&records),
                "cut {cut}: valid_len does not cover exactly the recovered records"
            );
        }
    }

    #[test]
    fn complete_corrupt_lines_are_errors_not_torn_tails() {
        let mut text = journal_text(&well_formed());
        text.push_str("{\"rec\":\"mystery\"}\n");
        assert!(read_journal(&text).is_err(), "corrupt complete line");
        let mid = journal_text(&well_formed()).replace("\"rec\":\"start\"", "\"rec\":\"sturt\"");
        assert!(read_journal(&mid).is_err(), "corrupt mid-file line");
    }

    #[test]
    fn replay_validates_journal_structure() {
        let state = JournalState::replay(&well_formed()).expect("well-formed replays");
        assert_eq!(
            state.rejected(2),
            Some((line_fp("garbage").as_str(), "malformed"))
        );
        assert_eq!(state.rejected(1), None);
        assert_eq!(state.records(), 6);
        let progress = state.job("g1").expect("job recovered");
        assert_eq!(progress.points, 2);
        assert_eq!(progress.status, Some(JobStatus::Done { points: 2 }));

        let header = Record::Header {
            version: SERVE_SCHEMA_VERSION,
        };
        let bad: Vec<(Vec<Record>, &str)> = vec![
            (vec![point("g1", 0)], "missing header"),
            (vec![header.clone(), header.clone()], "double header"),
            (vec![header.clone(), point("g1", 0)], "point before start"),
            (
                vec![
                    header.clone(),
                    Record::End {
                        job: "g1".into(),
                        status: JobStatus::Done { points: 0 },
                    },
                ],
                "end before start",
            ),
            (
                vec![
                    header.clone(),
                    Record::Start {
                        job: "g1".into(),
                        kind: "grid".into(),
                        fp: String::new(),
                        total_points: 2,
                    },
                    point("g1", 1),
                ],
                "point out of order",
            ),
            (
                vec![
                    header.clone(),
                    Record::Start {
                        job: "g1".into(),
                        kind: "grid".into(),
                        fp: String::new(),
                        total_points: 2,
                    },
                    point("g1", 0),
                    Record::End {
                        job: "g1".into(),
                        status: JobStatus::Done { points: 1 },
                    },
                ],
                "done with missing points",
            ),
        ];
        for (records, what) in bad {
            assert!(
                JournalState::replay(&records).is_err(),
                "accepted journal with {what}"
            );
        }
    }
}
