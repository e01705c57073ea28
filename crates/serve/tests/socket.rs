//! Socket front-end suite: strict protocol error replies and the
//! incrementally scanned queue index (in-process, via
//! [`handle_request`]), repeated-status answers on a listener, and the
//! live TCP daemon (spawned binary) — submit/status/cancel/drain/
//! shutdown round trips, single-segment reply latency, plus a
//! kill-mid-`submit` crash test proving the queue file is never torn.

use std::fs::{self, OpenOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexray_serve::socket::{MAX_REQUEST_BYTES, STATUS_WAIT};
use flexray_serve::{
    handle_request, parse_job, run_serve_with, spawn_listener, JobView, ServeConfig, ServeControl,
    SocketShared,
};

/// A tiny fuzz job spec (the fastest kind in smoke mode).
fn spec(id: &str) -> String {
    format!(
        r#"{{"schema":"flexray-serve-job","version":1,"id":"{id}","kind":"fuzz","args":["nodes=2","apps=1","orders=1","reps=1","mode=smoke"]}}"#
    )
}

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale workdir");
    }
    fs::create_dir_all(&dir).expect("create workdir");
    dir
}

fn shared(dir: &Path) -> SocketShared {
    SocketShared::new(dir.join("jobs.jsonl"), Arc::new(ServeControl::default()))
}

// ---------------------------------------------------------------- //
// In-process protocol strictness                                    //
// ---------------------------------------------------------------- //

#[test]
fn malformed_requests_get_error_replies_naming_the_offending_token() {
    let dir = workdir("socket_strict");
    fs::write(dir.join("jobs.jsonl"), "# empty\n").expect("write queue");
    let shared = shared(&dir);
    let cases: [(&str, &str); 7] = [
        ("not json at all", "malformed request"),
        ("[1,2,3]", "not a JSON object"),
        (r#"{"spec":{}}"#, "'req'"),
        (r#"{"req":"frobnicate"}"#, "unknown request 'frobnicate'"),
        (r#"{"req":"submit"}"#, "'spec'"),
        (r#"{"req":"status"}"#, "'id'"),
        (
            r#"{"req":"drain","force":true}"#,
            "unknown key 'force' for request 'drain'",
        ),
    ];
    for (line, needle) in cases {
        let reply = handle_request(&shared, line);
        assert!(
            reply.starts_with(r#"{"ok":false,"error":""#),
            "{line}: not an error reply: {reply}"
        );
        assert!(
            reply.contains(needle),
            "{line}: error must name the offending token ({needle}): {reply}"
        );
    }
    assert_eq!(
        fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue"),
        "# empty\n",
        "rejected requests must not touch the queue"
    );
}

#[test]
fn submit_appends_the_canonical_line_and_refuses_duplicates() {
    let dir = workdir("socket_submit");
    fs::write(dir.join("jobs.jsonl"), "# header comment\n").expect("write queue");
    let shared = shared(&dir);
    let request = format!(r#"{{"req":"submit","spec":{}}}"#, spec("a1"));
    let reply = handle_request(&shared, &request);
    assert!(reply.contains(r#""ok":true"#), "submit failed: {reply}");
    assert!(
        reply.contains(r#""id":"a1""#),
        "reply names the id: {reply}"
    );
    let queue = fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue");
    assert_eq!(
        queue,
        format!("# header comment\n{}\n", spec("a1")),
        "submit must append exactly the canonical spec line"
    );

    let reply = handle_request(&shared, &request);
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("duplicate job id 'a1'"),
        "duplicate submit must be refused naming the id: {reply}"
    );
    assert_eq!(
        fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue"),
        queue,
        "refused submit must not touch the queue"
    );

    let reply = handle_request(&shared, r#"{"req":"submit","spec":{"schema":"nope"}}"#);
    assert!(
        reply.contains(r#""ok":false"#),
        "invalid spec must be refused: {reply}"
    );
}

#[test]
fn submit_heals_a_missing_final_newline_without_touching_existing_lines() {
    let dir = workdir("socket_newline");
    // A hand-edited queue may lack the final newline; the appended
    // line must start on a fresh line so the existing line's bytes —
    // and its journaled fingerprint — survive unchanged.
    fs::write(dir.join("jobs.jsonl"), spec("a1")).expect("write queue");
    let shared = shared(&dir);
    let reply = handle_request(
        &shared,
        &format!(r#"{{"req":"submit","spec":{}}}"#, spec("b1")),
    );
    assert!(reply.contains(r#""ok":true"#), "submit failed: {reply}");
    let queue = fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue");
    assert_eq!(queue, format!("{}\n{}\n", spec("a1"), spec("b1")));
}

#[test]
fn status_and_cancel_know_queued_jobs_and_refuse_unknown_ids() {
    let dir = workdir("socket_status");
    fs::write(dir.join("jobs.jsonl"), format!("{}\n", spec("q1"))).expect("write queue");
    let shared = shared(&dir);

    let reply = handle_request(&shared, r#"{"req":"status","id":"ghost"}"#);
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("unknown job id 'ghost'"),
        "unknown id must be refused by name: {reply}"
    );
    let reply = handle_request(&shared, r#"{"req":"status","id":"q1"}"#);
    assert!(
        reply.contains(r#""state":"queued""#),
        "not-yet-drained job must report queued: {reply}"
    );

    let reply = handle_request(&shared, r#"{"req":"cancel","id":"ghost"}"#);
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("unknown job id 'ghost'"),
        "cancel of unknown id must be refused by name: {reply}"
    );
    let first = handle_request(&shared, r#"{"req":"cancel","id":"q1"}"#);
    assert!(
        first.contains(r#""cancelled":true"#) && first.contains(r#""already_cancelled":false"#),
        "first cancel: {first}"
    );
    let second = handle_request(&shared, r#"{"req":"cancel","id":"q1"}"#);
    assert!(
        second.contains(r#""cancelled":true"#) && second.contains(r#""already_cancelled":true"#),
        "cancel must be idempotent: {second}"
    );
}

fn append(path: &Path, text: &str) {
    OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open queue for append")
        .write_all(text.as_bytes())
        .expect("append to queue");
}

#[test]
fn a_hand_appended_line_is_seen_by_the_warm_queue_index() {
    let dir = workdir("socket_index_append");
    let queue = dir.join("jobs.jsonl");
    fs::write(&queue, "# operator queue\n").expect("write queue");
    let shared = shared(&dir);
    let submit = |id: &str| {
        handle_request(
            &shared,
            &format!(r#"{{"req":"submit","spec":{}}}"#, spec(id)),
        )
    };
    assert!(submit("a1").contains(r#""ok":true"#), "first submit");
    // The index is warm now; an operator appends a line by hand.
    append(&queue, &format!("{}\n", spec("h1")));
    let reply = submit("h1");
    assert!(
        reply.contains("duplicate job id 'h1'"),
        "a submit reusing a hand-appended id must be refused: {reply}"
    );
    let reply = handle_request(&shared, r#"{"req":"status","id":"h1"}"#);
    assert!(
        reply.contains(r#""state":"queued""#),
        "hand-appended job must report queued: {reply}"
    );
    assert!(submit("a2").contains(r#""ok":true"#), "second submit");
    let reply = submit("a1");
    assert!(
        reply.contains("duplicate job id 'a1'"),
        "ids submitted over the socket stay indexed: {reply}"
    );
    assert_eq!(
        fs::read_to_string(&queue).expect("read queue"),
        format!(
            "# operator queue\n{}\n{}\n{}\n",
            spec("a1"),
            spec("h1"),
            spec("a2")
        )
    );

    // A queue rewritten shorter under the index is rescanned: the
    // dropped ids are free again, the kept ones are still refused.
    fs::write(&queue, format!("{}\n", spec("a2"))).expect("rewrite queue");
    assert!(submit("a1").contains(r#""ok":true"#), "a1 was dropped");
    assert!(
        submit("a2").contains("duplicate job id 'a2'"),
        "a2 was kept"
    );
    let reply = handle_request(&shared, r#"{"req":"status","id":"h1"}"#);
    assert!(
        reply.contains("unknown job id 'h1'"),
        "a dropped line leaves the index: {reply}"
    );
}

#[test]
fn a_missing_final_newline_is_healed_after_the_index_is_warm() {
    let dir = workdir("socket_index_newline");
    let queue = dir.join("jobs.jsonl");
    fs::write(&queue, "").expect("write queue");
    let shared = shared(&dir);
    let submit = |id: &str| {
        handle_request(
            &shared,
            &format!(r#"{{"req":"submit","spec":{}}}"#, spec(id)),
        )
    };
    assert!(submit("a1").contains(r#""ok":true"#), "submit a1");
    let reply = handle_request(&shared, r#"{"req":"status","id":"a1"}"#);
    assert!(
        reply.contains(r#""state":"queued""#),
        "warm the index: {reply}"
    );
    // A hand edit leaves the queue without its final newline; the
    // unterminated line is still a job the index knows.
    append(&queue, &spec("h1"));
    let reply = handle_request(&shared, r#"{"req":"status","id":"h1"}"#);
    assert!(reply.contains(r#""state":"queued""#), "status h1: {reply}");
    assert!(
        submit("h1").contains("duplicate job id 'h1'"),
        "the unterminated line's id is taken"
    );
    assert!(submit("b1").contains(r#""ok":true"#), "submit b1");
    assert!(submit("b2").contains(r#""ok":true"#), "submit b2");
    assert_eq!(
        fs::read_to_string(&queue).expect("read queue"),
        format!(
            "{}\n{}\n{}\n{}\n",
            spec("a1"),
            spec("h1"),
            spec("b1"),
            spec("b2")
        ),
        "exactly one newline heals the hand-edited line"
    );
}

#[test]
fn drain_passes_racing_submits_never_see_a_half_written_line() {
    // An append of a long line becomes visible to readers a page at a
    // time. A pass that read half a submitted line would journal its
    // rejection, and the completed line would then fail the rejected
    // record's fingerprint. Passes here only scan the queue: the
    // shutdown flag stops each before it computes anything.
    let dir = workdir("socket_racing_passes");
    fs::write(dir.join("jobs.jsonl"), "").expect("write queue");
    let cfg = ServeConfig {
        queue: dir.join("jobs.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("out"),
        threads: 1,
        jobs: 1,
    };
    let control = Arc::new(ServeControl::default());
    control.request_shutdown();
    let shared = Arc::new(SocketShared::new(cfg.queue.clone(), Arc::clone(&control)));
    let submitters: Vec<_> = (0..2)
        .map(|c| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let pad = "x".repeat(400);
                for k in 0..500 {
                    let request = format!(
                        r#"{{"req":"submit","spec":{}}}"#,
                        spec(&format!("c{c}-{k}-{pad}"))
                    );
                    let reply = handle_request(&shared, &request);
                    assert!(reply.contains(r#""ok":true"#), "submit: {reply}");
                }
            })
        })
        .collect();
    let mut passes = 0usize;
    while submitters.iter().any(|s| !s.is_finished()) {
        let outcome =
            run_serve_with(&cfg, &control).unwrap_or_else(|e| panic!("pass {passes} failed: {e}"));
        assert!(
            outcome.rejected.is_empty(),
            "pass {passes} saw a torn line: {:?}",
            outcome.rejected
        );
        passes += 1;
    }
    for submitter in submitters {
        submitter.join().expect("submitter");
    }
    let outcome = run_serve_with(&cfg, &control).expect("final pass");
    assert_eq!(outcome.jobs.len(), 1000, "every submit is a queued job");
    assert!(outcome.rejected.is_empty());
}

/// A connection to an in-process listener over `shared` (no drain
/// loop: job states come only from what the test publishes).
fn listen(shared: SocketShared) -> ClientConn {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    spawn_listener(listener, Arc::new(shared));
    connect(&addr)
}

fn timed(conn: &mut ClientConn, line: &str) -> (String, Duration) {
    let t = Instant::now();
    let reply = conn.request(line);
    (reply, t.elapsed())
}

#[test]
fn a_repeated_status_waits_for_news_only_while_the_job_is_live() {
    let dir = workdir("socket_status_wait");
    fs::write(dir.join("jobs.jsonl"), format!("{}\n", spec("q1"))).expect("write queue");
    let control = Arc::new(ServeControl::default());
    let mut conn = listen(SocketShared::new(
        dir.join("jobs.jsonl"),
        Arc::clone(&control),
    ));
    let status = r#"{"req":"status","id":"q1"}"#;

    let (reply, _) = timed(&mut conn, status);
    assert!(reply.contains(r#""state":"queued""#), "first: {reply}");
    // Nothing changes: the repeat is answered after the wait, unchanged.
    let (reply, took) = timed(&mut conn, status);
    assert!(reply.contains(r#""state":"queued""#), "repeat: {reply}");
    assert!(took >= STATUS_WAIT, "an unchanged repeat waits: {took:?}");

    // A changed state is news: answered at once, not after a wait.
    let view = |points: usize, state: &str| JobView {
        kind: "fuzz".into(),
        points,
        total_points: 2,
        state: state.into(),
        error: None,
    };
    control.publish("q1", view(0, "running"));
    let (reply, _) = timed(&mut conn, status);
    assert!(reply.contains(r#""state":"running""#), "running: {reply}");
    // Any other request in between makes the next status a fresh one.
    let (reply, _) = timed(&mut conn, r#"{"req":"status","id":"ghost"}"#);
    assert!(reply.contains("unknown job id 'ghost'"), "{reply}");
    control.publish("q1", view(2, "done"));
    // A finished job never changes again: repeats are never held.
    let start = Instant::now();
    for _ in 0..20 {
        let (reply, _) = timed(&mut conn, status);
        assert!(reply.contains(r#""state":"done""#), "done: {reply}");
    }
    assert!(
        start.elapsed() < STATUS_WAIT * 10,
        "20 statuses of a done job took {:?}: terminal repeats must not wait",
        start.elapsed()
    );
}

#[test]
fn an_over_long_request_line_is_refused_and_its_connection_closed() {
    let dir = workdir("socket_line_cap");
    fs::write(dir.join("jobs.jsonl"), format!("{}\n", spec("q1"))).expect("write queue");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    spawn_listener(listener, Arc::new(shared(&dir)));
    let mut watcher = connect(&addr);
    let status = r#"{"req":"status","id":"q1"}"#;
    let watch = |watcher: &mut ClientConn| {
        let reply = watcher.request(status);
        assert!(reply.contains(r#""state":"queued""#), "status: {reply}");
    };
    watch(&mut watcher);

    // A line of exactly the cap is an ordinary (malformed) request.
    let mut conn = connect(&addr);
    let reply = conn.request(&"x".repeat(MAX_REQUEST_BYTES));
    assert!(
        reply.starts_with(r#"{"ok":false"#)
            && reply.contains("malformed request")
            && !reply.contains("exceeds"),
        "a line at the cap is parsed, not refused: {}",
        &reply[..reply.len().min(200)]
    );
    assert!(conn.request(status).contains(r#""state":"queued""#));

    // 1 MiB without a newline: one cap error, then end of stream.
    let flood = TcpStream::connect(&addr).expect("connect");
    flood
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut flood_writer = flood.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..16 {
            if flood_writer.write_all(&chunk).is_err() {
                break; // the daemon closed the connection
            }
        }
    });
    watch(&mut watcher);
    let mut flood = BufReader::new(flood);
    let mut reply = String::new();
    flood.read_line(&mut reply).expect("cap reply");
    assert_eq!(
        reply,
        format!(r#"{{"ok":false,"error":"request line exceeds {MAX_REQUEST_BYTES} bytes"}}"#)
            + "\n"
    );
    watch(&mut watcher);
    let mut rest = Vec::new();
    flood.read_to_end(&mut rest).expect("end of stream");
    assert!(rest.is_empty(), "nothing follows the cap error");
    sender.join().expect("sender");
    watch(&mut watcher);
}

#[test]
fn drain_returns_once_a_pass_covers_the_prior_submits() {
    let dir = workdir("socket_drain");
    fs::write(dir.join("jobs.jsonl"), "#\n").expect("write queue");
    let shared = Arc::new(shared(&dir));
    // A completed pass with no submits satisfies an immediate drain.
    shared.begin_pass();
    shared.end_pass();
    let reply = handle_request(&shared, r#"{"req":"drain"}"#);
    assert!(
        reply.contains(r#""drained":true"#),
        "immediate drain: {reply}"
    );

    // After a submit, drain blocks until a pass started *after* the
    // submit completes.
    let request = format!(r#"{{"req":"submit","spec":{}}}"#, spec("d1"));
    assert!(handle_request(&shared, &request).contains(r#""ok":true"#));
    let waiter = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || handle_request(&shared, r#"{"req":"drain"}"#))
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(!waiter.is_finished(), "drain must wait for a covering pass");
    shared.begin_pass();
    shared.end_pass();
    let reply = waiter.join().expect("drain waiter");
    assert!(
        reply.contains(r#""drained":true"#),
        "covered drain: {reply}"
    );
}

// ---------------------------------------------------------------- //
// Live daemon over TCP                                              //
// ---------------------------------------------------------------- //

struct Daemon {
    child: Child,
    stderr: BufReader<std::process::ChildStderr>,
    addr: String,
}

fn spawn_daemon(dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_flexray-serve"))
        .arg(format!("queue={}", dir.join("jobs.jsonl").display()))
        .arg(format!("journal={}", dir.join("serve.journal").display()))
        .arg(format!("reports={}", dir.join("out").display()))
        .arg("threads=1")
        .arg("jobs=2")
        .arg("socket=127.0.0.1:0")
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn flexray-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "daemon exited before announcing its socket"
        );
        if let Some(rest) = line.trim().strip_prefix("serve: listening on ") {
            break rest.to_owned();
        }
    };
    Daemon {
        child,
        stderr,
        addr,
    }
}

struct ClientConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: &str) -> ClientConn {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    ClientConn {
        reader,
        writer: stream,
    }
}

impl ClientConn {
    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_owned()
    }
}

fn wait_exit(mut child: Child, deadline: Duration) -> std::process::ExitStatus {
    let end = Instant::now() + deadline;
    loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            return status;
        }
        assert!(Instant::now() < end, "daemon did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_serves_submit_drain_status_shutdown_over_tcp() {
    let dir = workdir("socket_live");
    fs::write(dir.join("jobs.jsonl"), "# socket workload\n").expect("write queue");
    let daemon = spawn_daemon(&dir);
    let mut conn = connect(&daemon.addr);

    for id in ["s1", "s2"] {
        let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec(id)));
        assert!(
            reply.contains(r#""ok":true"#) && reply.contains(&format!(r#""id":"{id}""#)),
            "submit {id}: {reply}"
        );
    }
    let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec("s1")));
    assert!(
        reply.contains("duplicate job id 's1'"),
        "duplicate over TCP: {reply}"
    );

    let reply = conn.request(r#"{"req":"drain"}"#);
    assert!(reply.contains(r#""drained":true"#), "drain: {reply}");
    for id in ["s1", "s2"] {
        let reply = conn.request(&format!(r#"{{"req":"status","id":"{id}"}}"#));
        assert!(
            reply.contains(r#""state":"done""#),
            "status {id} after drain: {reply}"
        );
        let report = dir.join("out").join(format!("{id}.jsonl"));
        assert!(report.exists(), "report {id} missing after drain");
    }

    let reply = conn.request(r#"{"req":"shutdown"}"#);
    assert!(reply.contains(r#""shutdown":true"#), "shutdown: {reply}");
    let status = wait_exit(daemon.child, Duration::from_secs(60));
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
}

/// Median of the round trips of `n` sequential `line` requests on one
/// connection.
fn median_round_trip(conn: &mut ClientConn, line: &str, n: usize) -> Duration {
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            let (reply, took) = timed(conn, line);
            assert!(reply.contains(r#""ok":true"#), "{line}: {reply}");
            took
        })
        .collect();
    samples.sort();
    samples[n / 2]
}

#[test]
fn socket_round_trips_are_not_held_by_delayed_acks() {
    let dir = workdir("socket_latency");
    fs::write(dir.join("jobs.jsonl"), "# latency workload\n").expect("write queue");
    let daemon = spawn_daemon(&dir);
    let mut conn = connect(&daemon.addr);
    let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec("l1")));
    assert!(reply.contains(r#""ok":true"#), "submit: {reply}");
    let reply = conn.request(r#"{"req":"drain"}"#);
    assert!(reply.contains(r#""drained":true"#), "drain: {reply}");

    // A reply written in two segments with Nagle on stalls each round
    // trip for the client's delayed ACK, about 40 ms; one segment does
    // not. 20 ms leaves room for a loaded machine on either side.
    let median = median_round_trip(&mut conn, r#"{"req":"status","id":"l1"}"#, 50);
    let reply = conn.request(r#"{"req":"shutdown"}"#);
    assert!(reply.contains(r#""shutdown":true"#), "shutdown: {reply}");
    let status = wait_exit(daemon.child, Duration::from_secs(60));
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
    assert!(
        median < Duration::from_millis(20),
        "status round trip median {median:?}: replies must go out as one segment"
    );
}

#[test]
fn a_kill_mid_submit_never_tears_the_queue_file() {
    let dir = workdir("socket_kill_submit");
    fs::write(dir.join("jobs.jsonl"), "# crash workload\n").expect("write queue");
    let mut daemon = spawn_daemon(&dir);
    let mut conn = connect(&daemon.addr);

    // Fire a burst of submits and SIGKILL the daemon after the second
    // acknowledgement — later submits race the kill arbitrarily.
    let ids = ["c1", "c2", "c3", "c4", "c5"];
    for id in ids {
        conn.writer
            .write_all(format!(r#"{{"req":"submit","spec":{}}}{}"#, spec(id), "\n").as_bytes())
            .expect("send submit");
    }
    let mut acked: Vec<String> = Vec::new();
    for id in ids.iter().take(2) {
        let mut reply = String::new();
        conn.reader.read_line(&mut reply).expect("read ack");
        assert!(reply.contains(r#""ok":true"#), "ack {id}: {reply}");
        acked.push((*id).to_owned());
    }
    daemon.child.kill().expect("SIGKILL daemon");
    daemon.child.wait().expect("reap daemon");
    drop(daemon.stderr);

    // The queue must be whole: newline-terminated, every non-comment
    // line a complete, parseable spec — and every acknowledged submit
    // present. A torn (partial) line would fail the parse.
    let queue = fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue");
    assert!(queue.ends_with('\n'), "queue is torn: no final newline");
    let mut present: Vec<String> = Vec::new();
    for line in queue.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let parsed =
            parse_job(line).unwrap_or_else(|e| panic!("torn or corrupt queue line '{line}': {e}"));
        present.push(parsed.id);
    }
    for id in &acked {
        assert!(
            present.contains(id),
            "acknowledged submit {id} missing from the queue"
        );
    }

    // A restart drains whatever landed, cleanly.
    let status = Command::new(env!("CARGO_BIN_EXE_flexray-serve"))
        .arg(format!("queue={}", dir.join("jobs.jsonl").display()))
        .arg(format!("journal={}", dir.join("serve.journal").display()))
        .arg(format!("reports={}", dir.join("out").display()))
        .arg("threads=1")
        .arg("jobs=2")
        .status()
        .expect("restart daemon");
    assert!(status.success(), "post-crash drain must succeed: {status}");
}
