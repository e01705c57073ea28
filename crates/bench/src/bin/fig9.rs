//! Regenerates Fig. 9: evaluation of the bus optimisation algorithms.
//!
//! Usage: fig9 [nodes=n1,n2,...] [apps=N] [mode=fast|full|smoke]
//!        [threads=N] [seed0=N] [eval_threads=N]
//!
//! Defaults: nodes 2,3,4,5, 5 applications per node count, full search
//! parameters, seed0 42, one worker thread per hardware thread. The
//! paper uses 25 applications per point; pass `apps=25` for the full
//! run (slow: expect tens of minutes in release mode on one core — the
//! per-seed loop scales with the thread count). `mode=fast` shrinks the
//! search caps for a quick qualitative run; `threads=1` forces the
//! serial path, whose deterministic output is identical to any
//! parallel run.
//!
//! The grammar is the shared one of `flexray_bench::args` (also the
//! `args` of a `fig9` serve job, minus `threads`); the experiment is
//! the grid `flexray_bench::fig9::preset`. A malformed argument — a
//! mistyped `mode=fsat` included — exits 2 with `fig9: <error>` naming
//! it.

use flexray_bench::args::{from_env, Plan};
use flexray_bench::fig9::render;
use flexray_bench::grid::run_grid;
use flexray_bench::sweep::SweepAxis;

fn main() {
    let Plan::Grid(cfg) = from_env("fig9").plan else {
        unreachable!("the fig9 grammar desugars to a grid plan")
    };
    let nodes = match cfg.axes.as_slice() {
        [SweepAxis::NodeCount(nodes)] => nodes.as_slice(),
        _ => unreachable!("the fig9 preset has one node-count axis"),
    };
    println!(
        "Fig. 9 — {} applications per point, nodes {:?}, {} worker thread(s)",
        cfg.apps_per_point,
        nodes,
        cfg.worker_threads()
    );
    match run_grid(&cfg) {
        Ok(points) => println!("{}", render(&points)),
        Err(e) => {
            eprintln!("fig9 failed: {e}");
            std::process::exit(1);
        }
    }
}
