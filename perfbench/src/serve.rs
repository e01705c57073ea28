//! The `serve-socket` workload: an in-process `flexray-serve` daemon
//! restarted on a journal it produced itself, driven over its TCP
//! control socket by two closed-loop clients.
//!
//! Each client submits a tiny job (a smoke-scale grid or fuzz spec; a
//! quarter of them repeat an earlier job's arguments under a new id),
//! then asks for that job's status until it has finished, and submits
//! the next. One `drain` and one `shutdown` end the run. Every job's
//! report is then compared with an in-process run of the same spec,
//! and a final pure-replay drain must compute nothing.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexray_bench::fuzz::run_fuzz;
use flexray_bench::grid::run_grid;
use flexray_bench::report::{GridReportHeader, Json};
use flexray_model::SplitMix64;
use flexray_serve::{
    handle_request, parse_job, read_journal, run_serve, run_serve_with, spawn_listener, JobKind,
    JobStatus, JournalState, ServeConfig, ServeControl, ServeOutcome, SocketShared,
};

use crate::batch::SETUP_REPEATS;
use crate::check::{check_fuzz_report, check_grid_report, Ledger};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Opts;

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Daemon worker threads and concurrently scheduled jobs.
const THREADS: usize = 2;
const JOBS: usize = 2;
/// Jobs in the queue the daemon drains before the measured restart.
const INITIAL_JOBS: usize = 96;
/// Longest a single job may take before the client gives up on it, and
/// longest a client waits for any one reply: a stalled daemon fails the
/// run instead of hanging it.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// What the workload measured.
pub struct ServeRun {
    /// Daemon start-to-ready samples, s.
    pub setup_s: Vec<f64>,
    /// First submit to the `drain` reply, s.
    pub run_s: f64,
    /// Jobs submitted and finished during the run.
    pub jobs: u64,
    /// Submit round trips, ms.
    pub submit_ms: Vec<f64>,
    /// Status round trips, ms.
    pub status_ms: Vec<f64>,
    /// Solves in the finished jobs' reports, and the schedulable ones.
    pub solves: u64,
    /// Schedulable solves.
    pub schedulable: u64,
    /// Every check made.
    pub ledger: Ledger,
    /// Client spans (one recorder per client, merged) and counters.
    pub tracer: Tracer,
    /// Tracing overhead on job throughput, percent (traced runs).
    pub overhead_pct: Option<f64>,
    /// `handle_request` on a queue of the same length, µs per submit.
    pub handle_us: Vec<f64>,
    /// Journal records and bytes at the end of the run.
    pub journal_records: u64,
    /// Journal size.
    pub journal_bytes: u64,
    /// `Record::to_line` per record, µs.
    pub encode_us: f64,
    /// `read_journal` plus `JournalState::replay`, s.
    pub replay_s: f64,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// A job spec line from its parts.
fn spec_line(id: &str, kind: &str, args: &[String]) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str("flexray-serve-job".into())),
        ("version".into(), Json::Num(1.0)),
        ("id".into(), Json::Str(id.into())),
        ("kind".into(), Json::Str(kind.into())),
        (
            "args".into(),
            Json::Arr(args.iter().map(|a| Json::Str(a.clone())).collect()),
        ),
    ])
    .write()
    .expect("spec lines hold only strings and a small integer")
}

/// A fresh smoke-scale job: grids and fuzz campaigns alternate.
fn fresh_args(rng: &mut SplitMix64, k: usize) -> (&'static str, Vec<String>) {
    let seed = rng.next_u64() % 1_000_000;
    if k.is_multiple_of(2) {
        (
            "grid",
            vec![
                "nodes=2,3".into(),
                "apps=1".into(),
                "mode=smoke".into(),
                "algos=bbc,obccf".into(),
                format!("seed0={seed}"),
            ],
        )
    } else {
        (
            "fuzz",
            vec![
                "nodes=2".into(),
                "apps=1".into(),
                "orders=1".into(),
                "reps=2".into(),
                "mode=smoke".into(),
                format!("seed0={seed}"),
            ],
        )
    }
}

/// The daemon: listener, shared socket state and the drain loop.
struct Daemon {
    addr: SocketAddr,
    control: Arc<ServeControl>,
    shared: Arc<SocketShared>,
}

impl Daemon {
    /// Binds the socket and runs the first drain pass — journal replay
    /// and report rewrite — as the `flexray-serve` binary does on
    /// start. Returns the daemon and that pass's outcome.
    fn start(cfg: &ServeConfig) -> Result<(Daemon, ServeOutcome), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        let control = Arc::new(ServeControl::default());
        let shared = Arc::new(SocketShared::new(cfg.queue.clone(), Arc::clone(&control)));
        spawn_listener(listener, Arc::clone(&shared));
        shared.begin_pass();
        let outcome = run_serve_with(cfg, &control).map_err(|e| e.to_string())?;
        shared.end_pass();
        Ok((
            Daemon {
                addr,
                control,
                shared,
            },
            outcome,
        ))
    }

    /// The binary's serving loop: wait for work, drain, until shutdown.
    fn serve(self, cfg: ServeConfig) -> JoinHandle<Result<(), String>> {
        std::thread::spawn(move || loop {
            while !self.shared.wait_for_work(Duration::from_millis(200)) {}
            self.shared.begin_pass();
            let outcome = run_serve_with(&cfg, &self.control).map_err(|e| e.to_string())?;
            self.shared.end_pass();
            if outcome.stopped || self.control.is_shutdown() {
                return Ok(());
            }
        })
    }
}

/// One line-oriented client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream
            .set_read_timeout(Some(JOB_TIMEOUT))
            .map_err(|e| io_err("set read timeout", e))?;
        let writer = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line, returns the parsed reply.
    fn call(&mut self, request: &str) -> Result<Json, String> {
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| io_err("send", e))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| io_err("receive", e))?;
        let json = Json::parse(reply.trim_end()).map_err(|e| io_err("reply", e))?;
        if json.get("ok") == Some(&Json::Bool(true)) {
            Ok(json)
        } else {
            Err(format!("request refused: {}", reply.trim_end()))
        }
    }
}

/// A submitted job, as the client sent it.
struct Submitted {
    id: String,
    kind: String,
    args: Vec<String>,
    /// Submit start, ns since the run's epoch (orders the submits).
    at: u64,
    request: String,
}

/// One client's closed loop until `deadline`.
struct ClientRun {
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    submitted: Vec<Submitted>,
    ledger: Ledger,
    tracer: Tracer,
}

fn client_loop(
    c: usize,
    addr: SocketAddr,
    seed: u64,
    earlier: &[(String, Vec<String>)],
    epoch: Instant,
    deadline: Instant,
    trace: bool,
) -> Result<ClientRun, String> {
    let mut rng = SplitMix64::new(seed ^ (0xc11e_u64 << 32) ^ c as u64);
    let mut client = Client::connect(addr)?;
    let mut run = ClientRun {
        submit_ms: Vec::new(),
        status_ms: Vec::new(),
        submitted: Vec::new(),
        ledger: Ledger::default(),
        tracer: Tracer::new(trace, epoch, c),
    };
    let mut pool: Vec<(String, Vec<String>)> = earlier.to_vec();
    let mut k = 0usize;
    while Instant::now() < deadline {
        let unit = (c as u64) << 32 | k as u64;
        let id = format!("c{c}-{k}");
        let (kind, args) = if rng.next_below(4) == 0 {
            pool[rng.next_below(pool.len())].clone()
        } else {
            let (kind, args) = fresh_args(&mut rng, k);
            (kind.to_owned(), args)
        };
        let line = spec_line(&id, &kind, &args);
        let parsed = run.tracer.span("serve.spec", unit, |_| parse_job(&line));
        run.ledger.record(
            parsed
                .map(|_| ())
                .map_err(|e| format!("job {id}: spec rejected: {e}")),
        );
        let request = format!("{{\"req\":\"submit\",\"spec\":{line}}}");
        let at = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t = Instant::now();
        let reply = run
            .tracer
            .span("serve.submit", unit, |_| client.call(&request));
        run.submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.ledger
            .record(reply.map(|_| ()).map_err(|e| format!("submit {id}: {e}")));
        let started = Instant::now();
        loop {
            let request = format!("{{\"req\":\"status\",\"id\":\"{id}\"}}");
            let t = Instant::now();
            let reply = run
                .tracer
                .span("serve.status", unit, |_| client.call(&request));
            run.status_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let state = match &reply {
                Ok(json) => json
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                Err(_) => String::new(),
            };
            match state.as_str() {
                "done" => {
                    run.ledger.record(Ok(()));
                    break;
                }
                "queued" | "running" if started.elapsed() < JOB_TIMEOUT => {}
                _ => {
                    run.ledger
                        .record(Err(format!("job {id}: status {reply:?}")));
                    break;
                }
            }
        }
        pool.push((kind.clone(), args.clone()));
        run.submitted.push(Submitted {
            id,
            kind,
            args,
            at,
            request,
        });
        k += 1;
    }
    Ok(run)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| io_err("create dir", e))?;
    for entry in fs::read_dir(from).map_err(|e| io_err("read dir", e))? {
        let entry = entry.map_err(|e| io_err("read dir", e))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target).map_err(|e| io_err("copy", e))?;
        }
    }
    Ok(())
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        queue: dir.join("queue.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("reports"),
        threads: THREADS,
        jobs: JOBS,
    }
}

/// Builds the initial queue and lets the daemon drain it once, so the
/// measured restart replays a journal the daemon produced itself.
fn prepare(dir: &Path, seed: u64) -> Result<Vec<(String, Vec<String>)>, String> {
    fs::create_dir_all(dir).map_err(|e| io_err("create work dir", e))?;
    let mut rng = SplitMix64::new(seed);
    let mut queue = String::new();
    let mut jobs = Vec::new();
    for k in 0..INITIAL_JOBS {
        let (kind, args) = fresh_args(&mut rng, k);
        queue.push_str(&spec_line(&format!("init-{k}"), kind, &args));
        queue.push('\n');
        jobs.push((kind.to_owned(), args));
    }
    let cfg = serve_config(dir);
    fs::write(&cfg.queue, queue).map_err(|e| io_err("write queue", e))?;
    let outcome = run_serve(&cfg).map_err(|e| e.to_string())?;
    if outcome.jobs.len() != INITIAL_JOBS
        || outcome
            .jobs
            .iter()
            .any(|j| !matches!(j.status, Some(JobStatus::Done { .. })))
    {
        return Err("the initial queue did not drain cleanly".to_owned());
    }
    Ok(jobs)
}

/// One measured phase on its own copy of the prepared directory.
struct Phase {
    setup_s: Vec<f64>,
    run_s: f64,
    clients: Vec<ClientRun>,
    ledger: Ledger,
    dir: PathBuf,
}

fn phase(
    prep: &Path,
    dir: &Path,
    earlier: &[(String, Vec<String>)],
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Phase, String> {
    copy_dir(prep, dir)?;
    let cfg = serve_config(dir);
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (d, outcome) = Daemon::start(&cfg)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ledger.record(pure_replay(&outcome, INITIAL_JOBS));
        // Earlier daemons stay idle: nothing connects to their sockets.
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr;
    let serving = daemon.serve(cfg.clone());

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(c, addr, seed, earlier, epoch, deadline, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let mut control = Client::connect(addr)?;
    let drained = control.call("{\"req\":\"drain\"}");
    let run_end = epoch.elapsed();
    ledger.record(drained.map(|_| ()).map_err(|e| format!("drain: {e}")));
    let clients = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let first_submit = clients
        .iter()
        .filter_map(|c| c.submitted.first().map(|s| s.at))
        .min()
        .unwrap_or(0);
    let run_s = run_end.as_secs_f64() - first_submit as f64 * 1e-9;
    ledger.record(
        control
            .call("{\"req\":\"shutdown\"}")
            .map(|_| ())
            .map_err(|e| format!("shutdown: {e}")),
    );
    let served = serving
        .join()
        .unwrap_or_else(|_| Err("daemon loop panicked".to_owned()));
    ledger.record(served.map_err(|e| format!("daemon: {e}")));
    Ok(Phase {
        setup_s,
        run_s,
        clients,
        ledger,
        dir: dir.to_owned(),
    })
}

/// A drain over a fully journaled queue must compute nothing.
fn pure_replay(outcome: &ServeOutcome, jobs: usize) -> Result<(), String> {
    if outcome.jobs.len() != jobs {
        return Err(format!(
            "replay saw {} jobs, expected {jobs}",
            outcome.jobs.len()
        ));
    }
    match outcome.jobs.iter().find(|j| {
        j.computed != 0 || j.evaluations != 0 || !matches!(j.status, Some(JobStatus::Done { .. }))
    }) {
        None => Ok(()),
        Some(j) => Err(format!(
            "replay of job {}: computed={} evaluations={} status={:?}",
            j.id, j.computed, j.evaluations, j.status
        )),
    }
}

/// Compares a report's text with the reference run's points.
type ReportCheck = Box<dyn Fn(&str) -> Result<(), String>>;

/// Reference report content and solve counts for one spec, from an
/// in-process run.
struct Reference {
    check: ReportCheck,
    solves: u64,
    schedulable: u64,
}

fn reference(kind: &str, args: &[String]) -> Result<Reference, String> {
    let spec = parse_job(&spec_line("reference", kind, args)).map_err(|e| e.to_string())?;
    match spec.kind {
        JobKind::Grid(cfg) => {
            let points = run_grid(&cfg).map_err(|e| e.to_string())?;
            let header = GridReportHeader::of(&cfg)
                .to_line()
                .map_err(|e| e.to_string())?;
            let (mut solves, mut schedulable) = (0, 0);
            for p in &points {
                for (_, s) in &p.algos {
                    solves += s.total as u64;
                    schedulable += s.schedulable as u64;
                }
            }
            Ok(Reference {
                check: Box::new(move |text| check_grid_report(text, &header, &points)),
                solves,
                schedulable,
            })
        }
        JobKind::Fuzz(cfg) => {
            let points = run_fuzz(&cfg, |_| {}).map_err(|e| e.to_string())?;
            let header = cfg.header_line().map_err(|e| e.to_string())?;
            let solves = points.iter().map(|p| p.apps as u64).sum();
            let schedulable = points.iter().map(|p| p.schedulable as u64).sum();
            Ok(Reference {
                check: Box::new(move |text| check_fuzz_report(text, &header, &points)),
                solves,
                schedulable,
            })
        }
    }
}

/// A finished phase's client figures, merged in client order.
struct Collected {
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    submitted: Vec<Submitted>,
    tracer: Tracer,
    solves: u64,
    schedulable: u64,
}

/// Merges a phase's clients and checks its outputs: every submitted
/// job's report against an in-process run of its spec (`refs` caches
/// the reference per spec), then a pure-replay drain of the whole queue.
fn collect(
    ph: Phase,
    trace: bool,
    refs: &mut HashMap<(String, Vec<String>), Reference>,
    ledger: &mut Ledger,
) -> Result<Collected, String> {
    ledger.absorb(ph.ledger);
    let mut out = Collected {
        submit_ms: Vec::new(),
        status_ms: Vec::new(),
        submitted: Vec::new(),
        tracer: Tracer::new(trace, Instant::now(), 0),
        solves: 0,
        schedulable: 0,
    };
    for c in ph.clients {
        out.submit_ms.extend(c.submit_ms);
        out.status_ms.extend(c.status_ms);
        out.submitted.extend(c.submitted);
        ledger.absorb(c.ledger);
        out.tracer.merge(c.tracer);
    }
    let cfg = serve_config(&ph.dir);
    for job in &out.submitted {
        let key = (job.kind.clone(), job.args.clone());
        if !refs.contains_key(&key) {
            refs.insert(key.clone(), reference(&job.kind, &job.args)?);
        }
        let r = &refs[&key];
        out.solves += r.solves;
        out.schedulable += r.schedulable;
        let path = cfg.reports.join(format!("{}.jsonl", job.id));
        ledger.record(match fs::read_to_string(&path) {
            Ok(text) => (r.check)(&text).map_err(|e| format!("job {}: {e}", job.id)),
            Err(e) => Err(format!("job {}: no report: {e}", job.id)),
        });
    }
    let replay = run_serve(&cfg).map_err(|e| e.to_string())?;
    ledger.record(pure_replay(&replay, INITIAL_JOBS + out.submitted.len()));
    Ok(out)
}

/// The workload. A traced run measures two phases of half the budget
/// each, untraced then traced, and compares their job throughput.
///
/// # Errors
///
/// Infrastructure failures (files, sockets, a daemon error).
pub fn serve_socket(opts: &Opts, work: &Path) -> Result<ServeRun, String> {
    let prep = work.join("prep");
    let earlier = prepare(&prep, opts.seed)?;
    let mut refs = HashMap::new();
    let mut ledger = Ledger::default();
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced_rate = if opts.trace {
        let plain = phase(
            &prep,
            &work.join("untraced"),
            &earlier,
            opts.seed,
            budget,
            false,
        )?;
        let run_s = plain.run_s;
        let jobs = collect(plain, false, &mut refs, &mut ledger)?
            .submitted
            .len();
        Some(jobs as f64 / run_s)
    } else {
        None
    };
    let ph = phase(
        &prep,
        &work.join("measured"),
        &earlier,
        opts.seed,
        budget,
        opts.trace,
    )?;
    let (setup_s, run_s, journal) = (ph.setup_s.clone(), ph.run_s, serve_config(&ph.dir).journal);
    let mut c = collect(ph, opts.trace, &mut refs, &mut ledger)?;
    let jobs = c.submitted.len() as u64;
    let mut run = ServeRun {
        setup_s,
        run_s,
        jobs,
        submit_ms: c.submit_ms,
        status_ms: c.status_ms,
        solves: c.solves,
        schedulable: c.schedulable,
        ledger,
        tracer: c.tracer,
        overhead_pct: untraced_rate.map(|rate| (rate / (jobs as f64 / run_s) - 1.0) * 100.0),
        handle_us: Vec::new(),
        journal_records: 0,
        journal_bytes: 0,
        encode_us: 0.0,
        replay_s: 0.0,
    };
    if opts.trace {
        layer_probes(
            &mut run,
            &prep,
            &work.join("shadow"),
            &journal,
            &mut c.submitted,
        )?;
    }
    Ok(run)
}

/// Per-layer probes after the traced phase, outside its timing: the
/// submits again through `handle_request` on a shadow queue of the same
/// length, and the final journal's encoding and replay.
fn layer_probes(
    run: &mut ServeRun,
    prep: &Path,
    shadow: &Path,
    journal: &Path,
    submitted: &mut [Submitted],
) -> Result<(), String> {
    copy_dir(prep, shadow)?;
    let shared = SocketShared::new(
        shadow.join("queue.jsonl"),
        Arc::new(ServeControl::default()),
    );
    submitted.sort_by_key(|s| s.at);
    for job in submitted.iter() {
        let t = Instant::now();
        let reply = handle_request(&shared, &job.request);
        run.handle_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !reply.starts_with("{\"ok\":true") {
            run.ledger
                .record(Err(format!("shadow submit {}: {reply}", job.id)));
        } else {
            run.ledger.record(Ok(()));
        }
    }
    let text = fs::read_to_string(journal).map_err(|e| io_err("read journal", e))?;
    let (records, _) = read_journal(&text).map_err(|e| e.to_string())?;
    run.journal_records = records.len() as u64;
    run.journal_bytes = text.len() as u64;
    let t = Instant::now();
    for r in &records {
        std::hint::black_box(r.to_line().map_err(|e| e.to_string())?);
    }
    run.encode_us = t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;
    let mut replays = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let (records, _) = read_journal(&text).map_err(|e| e.to_string())?;
        std::hint::black_box(JournalState::replay(&records).map_err(|e| e.to_string())?);
        replays.push(t.elapsed().as_secs_f64());
    }
    run.replay_s = median(&replays).unwrap_or(0.0);
    Ok(())
}
