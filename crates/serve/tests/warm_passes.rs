//! Warm-versus-cold differential suite: a daemon keeps one
//! [`ServeControl`] across drain passes, and each pass reuses the
//! parsed queue and journal fold the last one left. Over a sequence of
//! "append queue lines, then drain" steps, that warm run must journal
//! and report byte-for-byte what a cold run (a fresh control per step)
//! does, and must still notice files changed under it: an edited
//! journaled queue line is a fingerprint error, a truncated journal is
//! replayed cold and converges.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use flexray_serve::{run_serve_with, JobStatus, ServeConfig, ServeControl, ServeOutcome};

fn spec(id: &str, kind: &str, args: &str) -> String {
    format!(
        r#"{{"schema":"flexray-serve-job","version":1,"id":"{id}","kind":"{kind}","args":[{args}]}}"#
    )
}

fn grid(id: &str, nodes: &str) -> String {
    spec(
        id,
        "grid",
        &format!(r#""nodes={nodes}","apps=1","mode=smoke","algos=bbc""#),
    )
}

fn fuzz(id: &str) -> String {
    spec(
        id,
        "fuzz",
        r#""nodes=2","apps=1","orders=1","reps=1","mode=smoke""#,
    )
}

/// The queue text each step appends: rejected lines, a duplicate id,
/// blank and comment lines, and a final line left without its newline
/// for one pass and completed in the next.
fn steps() -> Vec<String> {
    vec![
        format!(
            "# warm workload\n{}\nnot a job spec\n{}\n",
            grid("g1", "2"),
            fuzz("z1")
        ),
        format!("{}\n\n", fuzz("z2")),
        format!("{}\n{}\n", grid("g2", "2,3"), fuzz("z1")),
        spec("f1", "fig9", r#""nodes=2","apps=1","mode=smoke""#),
        format!("\n{}\n", fuzz("z3")),
        String::new(),
    ]
}

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale workdir");
    }
    fs::create_dir_all(&dir).expect("create workdir");
    fs::write(dir.join("jobs.jsonl"), "").expect("create queue");
    dir
}

fn config(dir: &Path, jobs: usize) -> ServeConfig {
    ServeConfig {
        queue: dir.join("jobs.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("out"),
        threads: 2,
        jobs,
    }
}

fn append(path: &Path, text: &str) {
    OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open queue")
        .write_all(text.as_bytes())
        .expect("append to queue");
}

/// Every report file, by name.
fn reports(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir.join("out"))
        .expect("reports dir")
        .map(|entry| {
            let entry = entry.expect("report entry");
            (
                entry.file_name().to_string_lossy().into_owned(),
                fs::read(entry.path()).expect("read report"),
            )
        })
        .collect()
}

/// What one step left: the outcome, the journal and the reports.
type Snapshot = (ServeOutcome, Vec<u8>, BTreeMap<String, Vec<u8>>);

/// Runs every step in `dir`, on one shared control when `warm`, on a
/// fresh control per step otherwise. Returns a snapshot per step and
/// the shared control.
fn run_steps(dir: &Path, jobs: usize, warm: bool) -> (Vec<Snapshot>, ServeControl) {
    let cfg = config(dir, jobs);
    let shared = ServeControl::default();
    let snapshots = steps()
        .iter()
        .map(|text| {
            append(&cfg.queue, text);
            let outcome = if warm {
                run_serve_with(&cfg, &shared)
            } else {
                run_serve_with(&cfg, &ServeControl::default())
            }
            .expect("drain");
            assert!(!outcome.stopped);
            (
                outcome,
                fs::read(&cfg.journal).expect("read journal"),
                reports(dir),
            )
        })
        .collect();
    (snapshots, shared)
}

#[test]
fn warm_passes_journal_and_report_exactly_what_cold_passes_do() {
    for jobs in [1usize, 2] {
        let warm_dir = workdir(&format!("warm_passes_warm_k{jobs}"));
        let cold_dir = workdir(&format!("warm_passes_cold_k{jobs}"));
        let (warm, control) = run_steps(&warm_dir, jobs, true);
        let (cold, _) = run_steps(&cold_dir, jobs, false);
        for (step, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(
                format!("{:?}", w.0),
                format!("{:?}", c.0),
                "jobs={jobs} step {step}: outcomes differ"
            );
            assert!(w.1 == c.1, "jobs={jobs} step {step}: journals differ");
            assert!(w.2 == c.2, "jobs={jobs} step {step}: reports differ");
        }
        let (outcome, reference, reference_reports) = warm.last().expect("steps ran");
        assert!(
            outcome
                .jobs
                .iter()
                .all(|j| j.computed == 0 && matches!(j.status, Some(JobStatus::Done { .. }))),
            "the final step is a pure replay: {outcome:?}"
        );
        assert_eq!(
            outcome.rejected.len(),
            2,
            "the garbage line and the z1 duplicate"
        );
        assert_eq!(reference_reports.len(), 6, "g1 g2 z1 z2 z3 f1 all report");

        // A journal cut short between passes — here mid-record, inside
        // the last computing pass's records — differs from what the warm
        // state left: the pass replays it cold, truncates the torn tail,
        // recomputes the lost points and converges byte-for-byte.
        let cfg = config(&warm_dir, jobs);
        let before_last = &warm[warm.len() - 3].1;
        let cut = (before_last.len() + reference.len()) / 2;
        fs::write(&cfg.journal, &reference[..cut]).expect("truncate journal");
        let outcome = run_serve_with(&cfg, &control).expect("replay after truncation");
        let z3 = outcome
            .jobs
            .iter()
            .find(|j| j.id == "z3")
            .expect("z3 summary");
        assert!(
            z3.computed > 0,
            "jobs={jobs}: the lost points are recomputed"
        );
        assert!(matches!(z3.status, Some(JobStatus::Done { .. })));
        assert!(
            &fs::read(&cfg.journal).expect("read journal") == reference,
            "jobs={jobs}: journal did not converge after truncation"
        );
        assert!(
            &reports(&warm_dir) == reference_reports,
            "jobs={jobs}: reports did not converge after truncation"
        );

        // A journaled queue line edited between passes — same length,
        // so only the content check can tell — is refused exactly as a
        // cold pass refuses it.
        let queue = fs::read_to_string(&cfg.queue).expect("read queue");
        let edited = queue.replacen(&grid("g1", "2"), &grid("g1", "3"), 1);
        assert_eq!(edited.len(), queue.len());
        assert_ne!(edited, queue);
        fs::write(&cfg.queue, edited).expect("edit queue");
        let err = run_serve_with(&cfg, &control).expect_err("an edited queue must not drain");
        assert!(
            err.to_string().contains("fingerprint mismatch"),
            "jobs={jobs}: unexpected error: {err}"
        );
    }
}
