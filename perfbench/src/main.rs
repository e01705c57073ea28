//! `flexray-perfbench` — the repository benchmark.
//!
//! ```text
//! flexray-perfbench --workload fig9|dyn-sweep|fuzz-orders|serve-socket
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload for `S` seconds from inputs generated from seed
//! `N`, checks the program's outputs, prints a human-readable summary on
//! stderr and, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the per-layer set,
//! from a run that records spans around the benchmark's calls into each
//! layer (written to `.perfbench-out/trace-<workload>-<seed>.jsonl`).
//! Exits 1 when any output check fails, 2 on a usage error.

mod batch;
mod check;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use crate::check::Ledger;
use crate::stats::{median, tail, Metrics, Tail};
use crate::trace::Tracer;

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// The workloads, in the order the notes describe them.
const WORKLOADS: [&str; 4] = ["fig9", "dyn-sweep", "fuzz-orders", "serve-socket"];

/// End-to-end metrics and their units, reported by an untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("jobs_per_s", "1/s"),
    ("call_ms.p50", "ms"),
    ("call_ms.tail", "ms"),
    ("schedulable_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, reported by a traced run.
const PER_LAYER: [(&str, &str); 44] = [
    ("gen.calls", "count"),
    ("gen.busy_s", "s"),
    ("opt.bbc.busy_s", "s"),
    ("opt.obccf.busy_s", "s"),
    ("opt.obcee.busy_s", "s"),
    ("opt.sa.busy_s", "s"),
    ("opt.bbc.evals", "count"),
    ("opt.obccf.evals", "count"),
    ("opt.obcee.evals", "count"),
    ("opt.sa.evals", "count"),
    ("opt.evals_per_s", "1/s"),
    ("opt.evaluator.sweep_s", "s"),
    ("opt.cost_dev_pct", "%"),
    ("analysis.full.us_per_call", "us"),
    ("analysis.incr.us_per_call", "us"),
    ("analysis.schedule.us_per_call", "us"),
    ("analysis.dyn_delay.calls", "count"),
    ("analysis.dyn_delay.us_per_call", "us"),
    ("analysis.fps.us_per_call", "us"),
    ("analysis.holistic.us_per_call", "us"),
    ("sim.runs", "count"),
    ("sim.busy_s", "s"),
    ("sim.share", "ratio"),
    ("sim.jobs", "count"),
    ("sim.jobs_per_s", "1/s"),
    ("sim.hyperperiods_stepped", "count"),
    ("sim.hyperperiods_skipped", "count"),
    ("bench.report.busy_s", "s"),
    ("bench.report.bytes", "bytes"),
    ("bench.call.samples", "count"),
    ("bench.call.tail_pct", "%"),
    ("serve.spec.us_per_call", "us"),
    ("serve.handle.us_per_call", "us"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.status_ms.p50", "ms"),
    ("serve.journal.records", "count"),
    ("serve.journal.bytes", "bytes"),
    ("serve.journal.encode_us", "us"),
    ("serve.journal.replay_s", "s"),
    ("util.pool.us_per_unit", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

const USAGE: &str = "usage: flexray-perfbench --workload fig9|dyn-sweep|fuzz-orders|serve-socket \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}'"));
                }
                opts.workload = value.clone();
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed '{value}'"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("invalid seconds '{value}'"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid trace flag '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    if opts.workload.is_empty() {
        return Err("missing --workload".to_owned());
    }
    Ok(opts)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `flexray_util::scoped_consume` dispatch cost at `threads`, µs per
/// unit of trivial work.
fn pool_us_per_unit(threads: usize) -> f64 {
    const UNITS: usize = 20_000;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut sum = 0usize;
        flexray_util::scoped_consume(UNITS, threads, std::hint::black_box, |_, v| sum += v);
        std::hint::black_box(sum);
        samples.push(t.elapsed().as_secs_f64() * 1e6 / UNITS as f64);
    }
    median(&samples).unwrap_or(0.0)
}

/// What every workload reports, whatever its shape.
struct Measured {
    setup_s: Vec<f64>,
    run_s: f64,
    jobs: u64,
    calls_ms: Vec<f64>,
    solves: u64,
    schedulable: u64,
    ledger: Ledger,
    tracer: Tracer,
    clients: usize,
    threads: usize,
    overhead_pct: Option<f64>,
    devs: Vec<f64>,
    report_bytes: u64,
    serve: Option<serve::ServeRun>,
}

fn per_call_us(t: &trace::SpanTotals) -> f64 {
    if t.calls == 0 {
        0.0
    } else {
        t.busy_s * 1e6 / t.calls as f64
    }
}

fn metrics(m: &Measured) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    let setup = median(&m.setup_s).ok_or("no set-up samples")?;
    let p50 = median(&m.calls_ms).ok_or("no timed calls")?;
    // The end-to-end tail needs 11 calls; a short traced run may have
    // fewer and then reports a tail percentile of 0.
    let t = match tail(&m.calls_ms) {
        Some(t) => t,
        None if m.tracer.is_on() => Tail {
            value: 0.0,
            percentile: 0.0,
        },
        None => {
            return Err(format!(
                "only {} timed calls; the tail needs at least 11",
                m.calls_ms.len()
            ))
        }
    };
    out.put("setup_s", setup, "s");
    out.put("run_s", m.run_s, "s");
    out.put("jobs_per_s", m.jobs as f64 / m.run_s, "1/s");
    out.put("call_ms.p50", p50, "ms");
    out.put("call_ms.tail", t.value, "ms");
    out.put(
        "schedulable_frac",
        if m.solves == 0 {
            0.0
        } else {
            m.schedulable as f64 / m.solves as f64
        },
        "ratio",
    );
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    if !m.tracer.is_on() {
        return Ok(out);
    }

    let totals = m.tracer.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let c = |name: &str| m.tracer.counter(name);
    out.put("gen.calls", c("gen.calls"), "count");
    out.put("gen.busy_s", c("gen.busy_s"), "s");
    let (mut evals, mut busy) = (0.0, 0.0);
    for (_, name, _) in batch::ALGO_LAYERS {
        out.put(&format!("{name}.busy_s"), span(name).busy_s, "s");
        busy += span(name).busy_s;
    }
    for (_, _, counter) in batch::ALGO_LAYERS {
        out.put(counter, c(counter), "count");
        evals += c(counter);
    }
    out.put(
        "opt.evals_per_s",
        if busy > 0.0 { evals / busy } else { 0.0 },
        "1/s",
    );
    let sweep = span("opt.evaluator.sweep");
    out.put(
        "opt.evaluator.sweep_s",
        if sweep.calls == 0 {
            0.0
        } else {
            sweep.busy_s / sweep.calls as f64
        },
        "s",
    );
    let dev = if m.devs.is_empty() {
        0.0
    } else {
        m.devs.iter().sum::<f64>() / m.devs.len() as f64
    };
    out.put("opt.cost_dev_pct", dev, "%");
    for (metric, name) in [
        ("analysis.full.us_per_call", "analysis.full"),
        ("analysis.incr.us_per_call", "analysis.incr"),
        ("analysis.schedule.us_per_call", "analysis.schedule"),
    ] {
        out.put(metric, per_call_us(&span(name)), "us");
    }
    out.put(
        "analysis.dyn_delay.calls",
        span("analysis.dyn_delay").calls as f64,
        "count",
    );
    out.put(
        "analysis.dyn_delay.us_per_call",
        per_call_us(&span("analysis.dyn_delay")),
        "us",
    );
    out.put(
        "analysis.fps.us_per_call",
        per_call_us(&span("analysis.fps")),
        "us",
    );
    out.put(
        "analysis.holistic.us_per_call",
        per_call_us(&span("analysis.holistic")),
        "us",
    );
    let sim = span("sim.run");
    out.put("sim.runs", c("sim.runs"), "count");
    out.put("sim.busy_s", sim.busy_s, "s");
    out.put("sim.share", sim.busy_s / m.run_s, "ratio");
    out.put("sim.jobs", c("sim.jobs"), "count");
    out.put(
        "sim.jobs_per_s",
        if sim.busy_s > 0.0 {
            c("sim.jobs") / sim.busy_s
        } else {
            0.0
        },
        "1/s",
    );
    out.put(
        "sim.hyperperiods_stepped",
        c("sim.hyperperiods_stepped"),
        "count",
    );
    out.put(
        "sim.hyperperiods_skipped",
        c("sim.hyperperiods_skipped"),
        "count",
    );
    out.put("bench.report.busy_s", span("bench.report").busy_s, "s");
    out.put("bench.report.bytes", m.report_bytes as f64, "bytes");
    out.put("bench.call.samples", m.calls_ms.len() as f64, "count");
    out.put("bench.call.tail_pct", t.percentile, "%");

    let spec = span("serve.spec");
    out.put("serve.spec.us_per_call", per_call_us(&spec), "us");
    let (handle_us, status_p50, journal) = match &m.serve {
        Some(s) => (
            median(&s.handle_us).unwrap_or(0.0),
            median(&s.status_ms).unwrap_or(0.0),
            (
                s.journal_records as f64,
                s.journal_bytes as f64,
                s.encode_us,
                s.replay_s,
            ),
        ),
        None => (0.0, 0.0, (0.0, 0.0, 0.0, 0.0)),
    };
    let submit_p50 = if m.serve.is_some() { p50 } else { 0.0 };
    out.put("serve.handle.us_per_call", handle_us, "us");
    out.put("serve.submit_ms.p50", submit_p50, "ms");
    out.put(
        "serve.transport_ms",
        if m.serve.is_some() {
            submit_p50 - handle_us / 1e3
        } else {
            0.0
        },
        "ms",
    );
    out.put("serve.status_ms.p50", status_p50, "ms");
    out.put("serve.journal.records", journal.0, "count");
    out.put("serve.journal.bytes", journal.1, "bytes");
    out.put("serve.journal.encode_us", journal.2, "us");
    out.put("serve.journal.replay_s", journal.3, "s");
    out.put("util.pool.us_per_unit", pool_us_per_unit(m.threads), "us");
    out.put(
        "trace.coverage",
        m.tracer.covered_s() / (m.run_s * m.clients as f64),
        "ratio",
    );
    out.put("trace.overhead_pct", m.overhead_pct.unwrap_or(0.0), "%");
    out.put("trace.spans", m.tracer.spans().len() as f64, "count");
    Ok(out)
}

fn from_batch(b: batch::BatchRun) -> Measured {
    Measured {
        setup_s: b.setup_s,
        run_s: b.run_s,
        jobs: b.acc.units,
        calls_ms: b.acc.calls_ms,
        solves: b.acc.solves,
        schedulable: b.acc.schedulable,
        ledger: b.ledger,
        tracer: b.tracer,
        clients: 1,
        threads: b.threads,
        overhead_pct: b.overhead_pct,
        devs: b.acc.devs,
        report_bytes: b.acc.report_bytes,
        serve: None,
    }
}

fn from_serve(mut s: serve::ServeRun) -> Measured {
    Measured {
        setup_s: std::mem::take(&mut s.setup_s),
        run_s: s.run_s,
        jobs: s.jobs,
        calls_ms: std::mem::take(&mut s.submit_ms),
        solves: s.solves,
        schedulable: s.schedulable,
        ledger: std::mem::take(&mut s.ledger),
        tracer: std::mem::replace(&mut s.tracer, Tracer::new(false, Instant::now(), 0)),
        clients: serve::CLIENTS,
        threads: 2,
        overhead_pct: s.overhead_pct,
        devs: Vec::new(),
        report_bytes: 0,
        serve: Some(s),
    }
}

fn run(opts: &Opts, out_dir: &Path) -> Result<Measured, String> {
    let err = |e: flexray_model::ModelError| e.to_string();
    Ok(match opts.workload.as_str() {
        "fig9" => from_batch(batch::fig9(opts).map_err(err)?),
        "dyn-sweep" => from_batch(batch::dyn_sweep(opts).map_err(err)?),
        "fuzz-orders" => from_batch(batch::fuzz_orders(opts).map_err(err)?),
        _ => {
            let work = out_dir.join(format!("work-{}", std::process::id()));
            let result = serve::serve_socket(opts, &work);
            let _ = std::fs::remove_dir_all(&work);
            from_serve(result?)
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("flexray-perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench-out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("flexray-perfbench: create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let measured = match run(&opts, &out_dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("flexray-perfbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    let all = match metrics(&measured) {
        Ok(all) => all,
        Err(e) => {
            eprintln!("flexray-perfbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let selected = match all.select(names) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flexray-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if opts.trace {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
        if let Err(e) = std::fs::write(&path, measured.tracer.to_jsonl()) {
            eprintln!("flexray-perfbench: write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let ledger = &measured.ledger;
    let tail_pct = tail(&measured.calls_ms).map_or(0.0, |t| t.percentile);
    eprintln!(
        "{} seed={} seconds={} trace={}: {} jobs, {} timed calls (tail = p{tail_pct:.2}), \
         {} checks, {} failed",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        measured.jobs,
        measured.calls_ms.len(),
        ledger.attempted,
        ledger.failed
    );
    for msg in &ledger.messages {
        eprintln!("  check failed: {msg}");
    }
    eprint!("{}", selected.render());
    let correct = ledger.failed == 0;
    println!(
        "{}",
        selected.result_line(correct, ledger.attempted.max(1), ledger.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_bench::report::{arr_field, str_field, Json};

    fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
        arr_field(json, key)
            .expect("list")
            .iter()
            .map(|m| {
                let unit = str_field(m, "unit").unwrap_or("").to_owned();
                (str_field(m, "name").expect("name").to_owned(), unit)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        assert!(all.iter().all(|n| stats::valid_metric_name(n)));
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are used once"
        );
    }

    #[test]
    fn options_parse_strictly() {
        let args =
            |list: &[&str]| -> Vec<String> { list.iter().map(|s| (*s).to_owned()).collect() };
        let opts = parse_opts(&args(&[
            "--workload",
            "fig9",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .expect("valid options");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 2.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "fig9", "--trace", "2"],
            &["--workload", "fig9", "--seconds", "0"],
            &["--workload", "fig9", "--seed"],
            &["--workload", "fig9", "--extra", "1"],
        ] {
            assert!(
                parse_opts(&args(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
