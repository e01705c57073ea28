//! Grid-driven execution-order fuzz campaign for the simulator.
//!
//! Usage: fuzz <axis>=<v1,v2,...> [<axis>=...] [key=value options]
//!
//! The grammar is the shared one of `flexray_bench::args` (also the
//! `args` of a `fuzz` serve job, minus `threads`/`out`). A malformed
//! argument exits 2 with `fuzz: <error>` naming it.
//!
//! Axes (any non-empty subset, each at most once; the grid is their
//! cartesian product, first axis slowest):
//!
//! * `nodes=2,5,10` — node count;
//! * `depth=4,8` — graph depth (chain-shaped DAGs);
//! * `gateway=0.0,0.5` — gateway-relayed traffic fraction;
//! * `busutil=0.2,0.6` — bus utilisation target.
//!
//! Options:
//!
//! * `apps=N` — applications (seeds) per grid point (default 2);
//! * `orders=s1,s2,...` — execution-order seeds fuzzed per schedulable
//!   application, on top of the canonical baseline (default `1,2,3,4`);
//! * `reps=N` — hyperperiods per simulation run (default 4);
//! * `compress=on|off` — hyperperiod compression (default `on`);
//! * `mode=fast|full|smoke` — optimiser search scale (default `full`);
//! * `threads=N` — worker threads (`0` = all cores, `1` = serial; the
//!   deterministic output is identical either way);
//! * `eval_threads=N` — warm analysis sessions of the in-run parallel
//!   `Evaluator` per worker (`0` = all cores, default `1` = serial;
//!   bit-identical results for any value);
//! * `seed0=N` — base seed (application `i` of point `p` uses
//!   `seed0 + 1000·p + i`);
//! * `out=FILE` — stream the JSON-lines report to FILE (default:
//!   stdout).
//!
//! Exits non-zero if any divergence is found: a precedence violation,
//! an observed response above its analytic WCRT, or a deadline miss,
//! under any execution order.

use flexray_bench::args::{from_env, Plan};
use flexray_bench::fuzz::{render, run_fuzz};
use std::io::Write;

fn fail(msg: &str) -> ! {
    eprintln!("fuzz: {msg}");
    std::process::exit(1);
}

fn main() {
    let parsed = from_env("fuzz");
    let Plan::Fuzz(cfg) = parsed.plan else {
        unreachable!("the fuzz grammar desugars to a fuzz plan")
    };
    let out_path = parsed.out;

    eprintln!(
        "Fuzz — {} axes, {} points, {} application(s) per point, \
         {} order seed(s) + canonical, {} hyperperiod(s), compression {}, seed0 {}",
        cfg.axes.len(),
        cfg.total_points(),
        cfg.apps_per_point,
        cfg.order_seeds.len(),
        cfg.reps,
        if cfg.compress { "on" } else { "off" },
        cfg.seed0,
    );

    let mut sink: Box<dyn Write> = match &out_path {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Box::new(std::io::BufWriter::new(file)),
            Err(e) => fail(&format!("cannot write report '{path}': {e}")),
        },
        None => Box::new(std::io::stdout().lock()),
    };
    let write_line = |sink: &mut dyn Write, line: &str| {
        if let Err(e) = writeln!(sink, "{line}").and_then(|()| sink.flush()) {
            fail(&format!("report write failed: {e}"));
        }
    };
    let render_line = |line: Result<String, flexray_model::ModelError>| match line {
        Ok(line) => line,
        Err(e) => fail(&format!("report encode failed: {e}")),
    };
    write_line(sink.as_mut(), &render_line(cfg.header_line()));

    let result = run_fuzz(&cfg, |point| {
        write_line(sink.as_mut(), &render_line(point.to_line()));
    });
    let points = match result {
        Ok(points) => points,
        Err(e) => fail(&format!("run failed: {e}")),
    };
    drop(sink);

    if out_path.is_some() {
        eprintln!("{}", render(&points));
    }

    let divergences: usize = points.iter().map(|p| p.divergences.len()).sum();
    if divergences > 0 {
        for p in &points {
            for d in &p.divergences {
                eprintln!("fuzz: DIVERGENCE: {d}");
            }
        }
        fail(&format!("{divergences} divergence(s) found"));
    }
    let runs: usize = points.iter().map(|p| p.runs).sum();
    eprintln!("fuzz: {runs} simulation run(s), no divergences");
}
