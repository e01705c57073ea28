//! Generic single-axis scenario sweeps beyond the paper envelope.
//!
//! Usage: `sweep <axis>=<v1,v2,...> [apps=N] [mode=fast|full|smoke]
//! [threads=N] [seed0=N] [algos=a,b,...] [eval_threads=N]`
//!
//! * `<axis>` — exactly one of `nodes`, `depth`, `gateway`, `busutil`
//!   or `clusters`, with comma-separated points, e.g. `nodes=2,8,12,20`,
//!   `depth=4,8,12` (chain length), `gateway=0.0,0.25,0.5`,
//!   `busutil=0.2,0.4,0.6`, `clusters=1,2,3`;
//! * `apps=N` — applications (seeds) per point (default 3);
//! * `mode=` — `fast` shrinks the search caps for a quick qualitative
//!   run and `smoke` shrinks them further for CI; `full` (the default)
//!   keeps the defaults;
//! * `threads=N` — worker threads (`0` = all cores, the default; `1` =
//!   serial; both produce bit-identical deterministic output);
//! * `seed0=N` — base seed (default 42); application `i` of point `p`
//!   uses `seed0 + 1000·p + i`;
//! * `algos=` — comma-separated subset of `bbc,obccf,obcee,sa`
//!   (default all four; deviations are reported against SA when it is
//!   in the set);
//! * `eval_threads=N` — warm analysis sessions of the in-run parallel
//!   `Evaluator` (`0` = all cores, default `1` = serial; bit-identical
//!   results for any value).
//!
//! The grammar is the shared one of `flexray_bench::args` (also the
//! `args` of a `sweep` serve job, minus `threads`); a sweep is the
//! one-axis grid `flexray_bench::sweep::preset`. A malformed argument
//! exits 2 with `sweep: <error>` naming it.

use flexray_bench::args::{from_env, Plan};
use flexray_bench::grid::{render, run_grid};

fn main() {
    let Plan::Grid(cfg) = from_env("sweep").plan else {
        unreachable!("the sweep grammar desugars to a grid plan")
    };
    let axis = &cfg.axes[0];
    println!(
        "Sweep — axis {} ({} points), {} application(s) per point, algos {:?}, \
         {} worker thread(s), {} evaluator thread(s), seed0 {}",
        axis.name(),
        axis.len(),
        cfg.apps_per_point,
        cfg.algos.iter().map(|a| a.name()).collect::<Vec<_>>(),
        cfg.worker_threads(),
        cfg.params.eval_threads,
        cfg.seed0,
    );
    let reference = cfg.reference().map(|i| cfg.algos[i].name());
    match run_grid(&cfg) {
        Ok(points) => println!("{}", render(reference, &points)),
        Err(e) => {
            eprintln!("sweep: run failed: {e}");
            std::process::exit(1);
        }
    }
}
