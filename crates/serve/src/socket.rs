//! The line-oriented JSONL TCP front-end of the serving daemon.
//!
//! One request per line, one reply per line. Requests are JSON
//! objects dispatched on their `req` field:
//!
//! * `{"req":"submit","spec":{…}}` — validate a job spec (the full
//!   `flexray-serve-job` object) and append its *canonical* line to
//!   the queue file. The append preserves the journal's
//!   append-only-or-refused fingerprint invariant: existing queue
//!   lines are never touched, the new line is written with a single
//!   `write_all` on an `O_APPEND` handle (a kill mid-`submit` leaves
//!   the queue whole or without the line, never torn).
//! * `{"req":"status","id":ID}` — the job's live view (`queued`,
//!   `running`, `done`, `failed`) from the status board, falling back
//!   to the queue index for not-yet-drained jobs. A status that
//!   repeats the connection's previous request, for a job still queued
//!   or running and unchanged since, is answered when the job's state
//!   changes or after [`STATUS_WAIT`], whichever comes first: a client
//!   polling in a loop gets news as soon as there is any, without
//!   spinning a CPU the drain needs.
//! * `{"req":"cancel","id":ID}` — request cancellation; idempotent
//!   (`already_cancelled` tells a repeat from a first cancel). The
//!   job's unclaimed units short-circuit and it ends `failed
//!   (cancelled by request)`.
//! * `{"req":"drain"}` — block until every job submitted before this
//!   request has been covered by a completed drain pass.
//! * `{"req":"shutdown"}` — request a graceful shutdown: the drain
//!   finishes journaling in-flight points, writes a `stopped` record
//!   if work remains, and the daemon exits.
//!
//! Replies are `{"ok":true,…}` or `{"ok":false,"error":"…"}` with the
//! error naming the offending token. Malformed requests never kill
//! the connection — every line gets a reply, written as one segment
//! with Nagle's algorithm off, so a round trip costs the request's
//! handling, not a delayed-ACK stall. A request line longer than
//! [`MAX_REQUEST_BYTES`] gets one error reply and the connection is
//! closed, so a client that never sends a newline cannot grow the
//! daemon's memory. At most [`MAX_CONNECTIONS`] connections are served
//! concurrently; excess connections get one `busy` error line and are
//! closed.
//!
//! `submit`, `status` and `cancel` look ids up in a queue index kept
//! under the queue lock: built by one scan on first use, then brought
//! up to date by reading only the bytes appended since the last
//! request (a line appended by hand is seen; a shrunk or rewritten
//! file is rescanned), so a request costs what is new in the queue,
//! not the whole queue.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use flexray_bench::report::{str_field, Json};

use crate::control::{JobView, ServeControl};
use crate::spec::parse_job;

/// Concurrent connection cap; the accept loop answers excess
/// connections with a single `busy` error line.
pub const MAX_CONNECTIONS: usize = 16;

/// Longest request line a connection may send, newline excluded; far
/// above any job-spec line.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Longest a repeated `status` query waits for the job's state to
/// change before answering with the unchanged state.
pub const STATUS_WAIT: Duration = Duration::from_millis(10);

/// What a connection's previous request was answered with, when it was
/// a `status` of a queued (`None`) or running job: the id and view.
type LastStatus = Option<(String, Option<JobView>)>;

/// Pass/submit bookkeeping behind the `drain` request and the poll
/// loop's wakeup.
#[derive(Debug, Default)]
struct WakeState {
    /// Total submits acknowledged.
    submits: u64,
    /// Submits visible to the pass currently running.
    covering: u64,
    /// Submits covered by the last *completed* pass.
    drained_submits: u64,
    /// Completed drain passes.
    passes: u64,
    /// Work arrived; the poll loop should wake.
    kick: bool,
}

/// The ids of the queue file's parseable job lines, scanned
/// incrementally.
#[derive(Debug, Default)]
struct QueueIndex {
    /// Ids of the parseable job lines among the complete lines scanned.
    ids: HashSet<String>,
    /// Bytes of complete (newline-terminated) lines scanned.
    scanned: u64,
}

impl QueueIndex {
    /// Brings the index up to date with the queue file and returns its
    /// final line when that lacks a newline (empty otherwise). Reads
    /// only the bytes past the last complete line scanned, plus the one
    /// byte before them, which must still be that line's newline; a
    /// shrunk or rewritten file is rescanned from the start.
    fn refresh(&mut self, path: &Path) -> Result<String, String> {
        let read_err = |e: &dyn std::fmt::Display| format!("read queue {}: {e}", path.display());
        let mut file = File::open(path).map_err(|e| read_err(&e))?;
        let len = file.metadata().map_err(|e| read_err(&e))?.len();
        let mut bytes = Vec::new();
        let resume = self.scanned > 0 && len >= self.scanned && {
            file.seek(SeekFrom::Start(self.scanned - 1))
                .map_err(|e| read_err(&e))?;
            file.read_to_end(&mut bytes).map_err(|e| read_err(&e))?;
            bytes.first() == Some(&b'\n')
        };
        if resume {
            bytes.drain(..1);
        } else {
            *self = QueueIndex::default();
            bytes.clear();
            file.seek(SeekFrom::Start(0)).map_err(|e| read_err(&e))?;
            file.read_to_end(&mut bytes).map_err(|e| read_err(&e))?;
        }
        let mut fresh = String::from_utf8(bytes).map_err(|e| read_err(&e))?;
        let complete = fresh.rfind('\n').map_or(0, |k| k + 1);
        for line in fresh[..complete].lines() {
            if let Some(id) = job_id(line) {
                self.ids.insert(id);
            }
        }
        self.scanned += complete as u64;
        Ok(fresh.split_off(complete))
    }
}

/// The id of a parseable job line; `None` for blanks, comments and
/// malformed lines.
fn job_id(line: &str) -> Option<String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return None;
    }
    parse_job(line).ok().map(|spec| spec.id)
}

/// State shared between the socket listener threads and the daemon's
/// drain loop.
#[derive(Debug)]
pub struct SocketShared {
    queue: PathBuf,
    control: Arc<ServeControl>,
    /// The queue index; its lock serialises queue-file
    /// read-check-append sequences.
    queue_lock: Mutex<QueueIndex>,
    wake: Mutex<WakeState>,
    cond: Condvar,
}

impl SocketShared {
    /// Creates the shared block for a daemon serving `queue`.
    #[must_use]
    pub fn new(queue: PathBuf, control: Arc<ServeControl>) -> SocketShared {
        SocketShared {
            queue,
            control,
            queue_lock: Mutex::new(QueueIndex::default()),
            wake: Mutex::new(WakeState::default()),
            cond: Condvar::new(),
        }
    }

    /// Marks a drain pass started: submits acknowledged so far are
    /// covered by it; the wakeup kick is consumed.
    pub fn begin_pass(&self) {
        let mut wake = self.wake.lock().expect("wake lock");
        wake.covering = wake.submits;
        wake.kick = false;
    }

    /// Marks the running drain pass completed and wakes `drain`
    /// waiters and the poll loop.
    pub fn end_pass(&self) {
        let mut wake = self.wake.lock().expect("wake lock");
        wake.passes += 1;
        wake.drained_submits = wake.covering;
        drop(wake);
        self.cond.notify_all();
    }

    /// Blocks up to `max` waiting for new work or a shutdown request;
    /// returns `true` when woken by either (rather than the timeout).
    pub fn wait_for_work(&self, max: Duration) -> bool {
        let deadline = Instant::now() + max;
        let mut wake = self.wake.lock().expect("wake lock");
        loop {
            if wake.kick || self.control.is_shutdown() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .cond
                .wait_timeout(wake, deadline - now)
                .expect("wake lock");
            wake = next;
        }
    }
}

fn reply_ok(extra: Vec<(String, Json)>) -> String {
    let mut members = vec![("ok".to_owned(), Json::Bool(true))];
    members.extend(extra);
    // Only finite counts and strings go into replies; write cannot
    // fail on them.
    Json::Obj(members).write().expect("finite reply")
}

fn reply_err(error: &str) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        ("error".to_owned(), Json::Str(error.to_owned())),
    ])
    .write()
    .expect("finite reply")
}

/// Whether the queue file holds a (parseable) job with this id.
fn queued_id(shared: &SocketShared, id: &str) -> Result<bool, String> {
    let mut index = shared.queue_lock.lock().expect("queue lock");
    let tail = index.refresh(&shared.queue)?;
    Ok(index.ids.contains(id) || job_id(&tail).is_some_and(|tail_id| tail_id == id))
}

fn submit(shared: &SocketShared, json: &Json) -> Result<String, String> {
    let spec_json = json.get("spec").ok_or("missing field 'spec'")?;
    let raw = spec_json
        .write()
        .map_err(|e| format!("unwritable spec: {e}"))?;
    let spec = parse_job(&raw).map_err(|e| format!("invalid spec: {e}"))?;
    let canonical = spec.to_line();
    {
        let mut index = shared.queue_lock.lock().expect("queue lock");
        let tail = index.refresh(&shared.queue)?;
        if index.ids.contains(&spec.id) || job_id(&tail).is_some_and(|id| id == spec.id) {
            return Err(format!("duplicate job id '{}'", spec.id));
        }
        // One write_all of one whole line on an O_APPEND handle: the
        // queue gains the complete line or nothing — never a torn
        // line. A missing final newline on the existing content (a
        // hand-edited queue) is healed by prefixing one, which leaves
        // every existing *line* — and so every journaled fingerprint —
        // unchanged. The index picks the new line up on the next
        // request, like any other append.
        let mut payload = String::new();
        if !tail.is_empty() {
            payload.push('\n');
        }
        payload.push_str(&canonical);
        payload.push('\n');
        let _appending = shared.control.lock_queue();
        let mut file = OpenOptions::new()
            .append(true)
            .open(&shared.queue)
            .map_err(|e| format!("open queue {}: {e}", shared.queue.display()))?;
        file.write_all(payload.as_bytes())
            .map_err(|e| format!("append to queue {}: {e}", shared.queue.display()))?;
    }
    {
        let mut wake = shared.wake.lock().expect("wake lock");
        wake.submits += 1;
        wake.kick = true;
    }
    shared.cond.notify_all();
    Ok(reply_ok(vec![
        ("id".to_owned(), Json::Str(spec.id)),
        ("queued".to_owned(), Json::Bool(true)),
    ]))
}

#[allow(clippy::cast_precision_loss)]
fn status(
    shared: &SocketShared,
    json: &Json,
    previous: LastStatus,
    answered: &mut LastStatus,
) -> Result<String, String> {
    let id = str_field(json, "id").map_err(|e| e.to_string())?;
    let mut view = shared.control.view(id);
    if previous.is_some_and(|(last_id, last_view)| last_id == id && last_view == view) {
        view = shared
            .control
            .wait_for_change(id, view.as_ref(), STATUS_WAIT);
    }
    let Some(view) = view else {
        if !queued_id(shared, id)? {
            return Err(format!("unknown job id '{id}'"));
        }
        *answered = Some((id.to_owned(), None));
        return Ok(reply_ok(vec![
            ("id".to_owned(), Json::Str(id.to_owned())),
            ("state".to_owned(), Json::Str("queued".to_owned())),
        ]));
    };
    if view.state == "running" {
        *answered = Some((id.to_owned(), Some(view.clone())));
    }
    let mut extra = vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("state".to_owned(), Json::Str(view.state)),
        ("kind".to_owned(), Json::Str(view.kind)),
        ("points".to_owned(), Json::Num(view.points as f64)),
        (
            "total_points".to_owned(),
            Json::Num(view.total_points as f64),
        ),
    ];
    if let Some(error) = view.error {
        extra.push(("error".to_owned(), Json::Str(error)));
    }
    Ok(reply_ok(extra))
}

fn cancel(shared: &SocketShared, json: &Json) -> Result<String, String> {
    let id = str_field(json, "id").map_err(|e| e.to_string())?;
    if shared.control.view(id).is_none() && !queued_id(shared, id)? {
        return Err(format!("unknown job id '{id}'"));
    }
    let newly = shared.control.cancel(id);
    Ok(reply_ok(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("cancelled".to_owned(), Json::Bool(true)),
        ("already_cancelled".to_owned(), Json::Bool(!newly)),
    ]))
}

#[allow(clippy::cast_precision_loss)]
fn drain(shared: &SocketShared) -> Result<String, String> {
    let submitted = shared.wake.lock().expect("wake lock").submits;
    let mut wake = shared.wake.lock().expect("wake lock");
    loop {
        if shared.control.is_shutdown() {
            return Err("daemon is shutting down".to_owned());
        }
        if wake.passes >= 1 && wake.drained_submits >= submitted {
            let passes = wake.passes;
            return Ok(reply_ok(vec![
                ("drained".to_owned(), Json::Bool(true)),
                ("passes".to_owned(), Json::Num(passes as f64)),
            ]));
        }
        let (next, _) = shared
            .cond
            .wait_timeout(wake, Duration::from_millis(200))
            .expect("wake lock");
        wake = next;
    }
}

fn shutdown(shared: &SocketShared) -> String {
    shared.control.request_shutdown();
    {
        let mut wake = shared.wake.lock().expect("wake lock");
        wake.kick = true;
    }
    shared.cond.notify_all();
    reply_ok(vec![("shutdown".to_owned(), Json::Bool(true))])
}

fn process(
    shared: &SocketShared,
    last_status: &mut LastStatus,
    line: &str,
) -> Result<String, String> {
    let previous = last_status.take();
    let json = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let Json::Obj(members) = &json else {
        return Err("request is not a JSON object".to_owned());
    };
    let req = str_field(&json, "req").map_err(|e| e.to_string())?;
    let allowed: &[&str] = match req {
        "submit" => &["req", "spec"],
        "status" | "cancel" => &["req", "id"],
        "drain" | "shutdown" => &["req"],
        other => return Err(format!("unknown request '{other}'")),
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key '{key}' for request '{req}'"));
        }
    }
    match req {
        "submit" => submit(shared, &json),
        "status" => status(shared, &json, previous, last_status),
        "cancel" => cancel(shared, &json),
        "drain" => drain(shared),
        _ => Ok(shutdown(shared)),
    }
}

/// Handles one request line and returns the reply line (no trailing
/// newline). Never panics on malformed input: every error becomes an
/// `{"ok":false,"error":…}` reply naming the offending token.
#[must_use]
pub fn handle_request(shared: &SocketShared, line: &str) -> String {
    handle_in(shared, &mut None, line)
}

/// [`handle_request`] on a connection whose previous request was
/// answered with `last_status`.
fn handle_in(shared: &SocketShared, last_status: &mut LastStatus, line: &str) -> String {
    match process(shared, last_status, line) {
        Ok(reply) => reply,
        Err(error) => reply_err(&error),
    }
}

fn serve_connection(shared: &SocketShared, stream: TcpStream) {
    // Each reply is one write of one whole line: with Nagle on, a
    // second small write would wait for the client's delayed ACK.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut last_status = None;
    let mut buf = Vec::new();
    // one byte past the cap tells an over-long line from one that ends
    // exactly at it
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    loop {
        buf.clear();
        match (&mut reader).take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_BYTES {
            let reply =
                reply_err(&format!("request line exceeds {MAX_REQUEST_BYTES} bytes")) + "\n";
            let _ = writer.write_all(reply.as_bytes());
            // FIN before the close, so the client reads the reply and
            // then end of stream
            let _ = writer.shutdown(std::net::Shutdown::Write);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let mut reply = handle_in(shared, &mut last_status, line);
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() {
            break;
        }
    }
}

/// Spawns the accept loop on its own thread: every connection gets a
/// serving thread (up to [`MAX_CONNECTIONS`] concurrently; excess
/// connections receive one `busy` error line and are closed). The
/// loop runs until the process exits.
pub fn spawn_listener(listener: TcpListener, shared: Arc<SocketShared>) {
    std::thread::spawn(move || {
        let live = Arc::new(AtomicUsize::new(0));
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                let _ = stream
                    .write_all(b"{\"ok\":false,\"error\":\"busy: connection limit reached\"}\n");
                continue;
            }
            live.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                serve_connection(&shared, stream);
                live.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_single_json_lines() {
        assert_eq!(
            reply_ok(vec![("id".to_owned(), Json::Str("g1".to_owned()))]),
            r#"{"ok":true,"id":"g1"}"#
        );
        assert_eq!(
            reply_err("unknown request 'frob'"),
            r#"{"ok":false,"error":"unknown request 'frob'"}"#
        );
    }
}
