//! The three batch workloads: `fig9`, `dyn-sweep` and `fuzz-orders`.
//!
//! Each is one closed-loop caller working through a pool of seeded
//! applications generated during set-up until the time budget is
//! spent. Every application ends with the benchmark's own checks and
//! probes: the optimiser's configurations are re-analysed through
//! several analysis entry points, which must agree, and each probe call
//! is a span of the layer it enters.

use std::time::{Duration, Instant};

use flexray_analysis::{
    analyse, build_schedule, dyn_delay_pooled, fps_local_response, Analysis, AnalysisConfig,
    AnalysisSession, Availability, DynScratch,
};
use flexray_bench::fuzz::{FuzzAppOutcome, FuzzConfig, FuzzPoint};
use flexray_bench::grid::{GridConfig, GridPoint, PointSpec, SeedPolicy};
use flexray_bench::report::point_to_line;
use flexray_bench::sweep::{deviation_pct, search_mode, Algo, SweepAxis};
use flexray_gen::{generate, GenStats};
use flexray_model::{
    Application, MessageClass, ModelError, PhyParams, Platform, SchedPolicy, SplitMix64, System,
    Time,
};
use flexray_opt::{dyn_sweep_grid, Evaluator, OptParams, OptResult, SaParams};
use flexray_sim::{simulate_configured, ExecutionOrder, SimConfig, SimReport};

use crate::check::{check_cost, Ledger};
use crate::trace::Tracer;
use crate::Opts;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// One generated application of the pool.
pub struct Instance {
    point: usize,
    platform: Platform,
    app: Application,
    phy: PhyParams,
    stats: GenStats,
}

/// What a batch run measured.
#[derive(Default)]
pub struct Acc {
    /// Latency of every timed call, ms.
    pub calls_ms: Vec<f64>,
    /// Optimiser solves.
    pub solves: u64,
    /// Solves that returned a schedulable configuration.
    pub schedulable: u64,
    /// Eq. (5) cost deviations from SA, percent.
    pub devs: Vec<f64>,
    /// Units (applications) finished.
    pub units: u64,
    /// Report bytes written.
    pub report_bytes: u64,
    /// Correctness checks.
    pub ledger: Ledger,
}

/// A finished batch run.
pub struct BatchRun {
    /// Set-up samples, s.
    pub setup_s: Vec<f64>,
    /// Seconds from the first timed call to the last report byte.
    pub run_s: f64,
    /// Measurements of the (traced, when tracing) run.
    pub acc: Acc,
    /// Spans and counters.
    pub tracer: Tracer,
    /// Traced against untraced time over the same units, percent.
    pub overhead_pct: Option<f64>,
    /// Checks of every pass, the untraced pass of a traced run included.
    pub ledger: Ledger,
    /// Worker threads the workload's layers use.
    pub threads: usize,
}

/// Per algorithm: its span and its evaluation counter.
pub const ALGO_LAYERS: [(Algo, &str, &str); 4] = [
    (Algo::Bbc, "opt.bbc", "opt.bbc.evals"),
    (Algo::ObcCf, "opt.obccf", "opt.obccf.evals"),
    (Algo::ObcEe, "opt.obcee", "opt.obcee.evals"),
    (Algo::Sa, "opt.sa", "opt.sa.evals"),
];

fn algo_layer(algo: Algo) -> (&'static str, &'static str) {
    let &(_, span, evals) = ALGO_LAYERS
        .iter()
        .find(|(a, _, _)| *a == algo)
        .expect("every algorithm has a layer entry");
    (span, evals)
}

/// Strata of the generator's bus-utilisation draw.
const BUS_UTIL_STRATA: usize = 4;

/// Stratum `k` of `BUS_UTIL_STRATA` equal slices of the configured
/// bus-utilisation range. Drawing uniformly within a slice, slices in
/// equal shares, keeps the generator's uniform distribution; it only
/// stops a run's mix of light and heavy buses (which decides how many
/// applications are unschedulable, and so how long the optimisers
/// search) from varying with the seed.
fn bus_util_stratum((lo, hi): (f64, f64), k: usize) -> (f64, f64) {
    let width = (hi - lo) / BUS_UTIL_STRATA as f64;
    (lo + width * k as f64, lo + width * (k + 1) as f64)
}

/// Generates the instance pool: `per_point` applications for each
/// of `specs`, interleaved so every prefix covers the points
/// evenly. Application `j` of point `k` draws its bus utilisation from
/// stratum `(j + k) mod BUS_UTIL_STRATA`, so every run of that many
/// consecutive applications per point covers every stratum once.
/// Seeds come from the benchmark seed.
fn generate_pool(
    specs: &[PointSpec],
    per_point: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Vec<Instance>, ModelError> {
    let mut rng = SplitMix64::new(seed);
    let mut pool = Vec::with_capacity(per_point * specs.len());
    for j in 0..per_point {
        for (k, spec) in specs.iter().enumerate() {
            let app_seed = rng.next_u64();
            let config = flexray_gen::GeneratorConfig {
                bus_util: bus_util_stratum(spec.config.bus_util, (j + k) % BUS_UTIL_STRATA),
                ..spec.config.clone()
            };
            let t = Instant::now();
            let generated = generate(&config, app_seed)?;
            tracer.add("gen.busy_s", t.elapsed().as_secs_f64());
            tracer.add("gen.calls", 1.0);
            let stats = generated.stats(&spec.config.phy)?;
            pool.push(Instance {
                point: spec.index,
                platform: generated.platform,
                app: generated.app,
                phy: spec.config.phy,
                stats,
            });
        }
    }
    Ok(pool)
}

/// Generates the pool [`SETUP_REPEATS`] times, timing each; keeps the
/// last pool. Generator counters cover the last repetition only.
fn setup(
    specs: &[PointSpec],
    per_point: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Vec<Instance>, Vec<f64>), ModelError> {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        *tracer = Tracer::new(tracer.is_on(), Instant::now(), 0);
        let t = Instant::now();
        pool = generate_pool(specs, per_point, seed, tracer)?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok((pool, samples))
}

/// Runs `step` over steps `0, 1, …` (modulo `steps`, the pool's
/// length in steps) until the budget is spent. With tracing, the first
/// half of the budget runs untraced, then the same steps run again
/// traced: the ratio of the two times is the tracing overhead.
fn drive<S>(
    opts: &Opts,
    steps: usize,
    counters: Tracer,
    mut step: S,
) -> (f64, Acc, Tracer, Option<f64>, Ledger)
where
    S: FnMut(usize, &mut Tracer, &mut Acc),
{
    let untraced = |budget: Duration, step: &mut S| {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let mut acc = Acc::default();
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed() < budget {
            step(i % steps, &mut tracer, &mut acc);
            i += 1;
        }
        (start.elapsed().as_secs_f64(), acc, i)
    };
    if !opts.trace {
        let (run_s, mut acc, _) = untraced(Duration::from_secs_f64(opts.seconds), &mut step);
        let ledger = std::mem::take(&mut acc.ledger);
        return (run_s, acc, counters, None, ledger);
    }
    let (plain_s, mut plain, done) =
        untraced(Duration::from_secs_f64(opts.seconds / 2.0), &mut step);
    let mut tracer = Tracer::new(true, Instant::now(), 0);
    tracer.merge(counters);
    let mut acc = Acc::default();
    let start = Instant::now();
    for i in 0..done {
        step(i % steps, &mut tracer, &mut acc);
    }
    let run_s = start.elapsed().as_secs_f64();
    let mut ledger = std::mem::take(&mut plain.ledger);
    ledger.absorb(std::mem::take(&mut acc.ledger));
    (
        run_s,
        acc,
        tracer,
        Some((run_s / plain_s - 1.0) * 100.0),
        ledger,
    )
}

/// Solves one instance with `algo`.
fn solve(
    inst: &Instance,
    algo: Algo,
    params: &OptParams,
    sa: &SaParams,
    unit: u64,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> OptResult {
    let (span, evals) = algo_layer(algo);
    let r = tracer.span(span, unit, |_| {
        algo.solve(&inst.platform, &inst.app, inst.phy, params, sa)
    });
    tracer.add(evals, r.evaluations as f64);
    acc.solves += 1;
    acc.schedulable += u64::from(r.is_schedulable());
    r
}

/// Re-analyses an optimiser result one-shot (`analyse`) and through a
/// warm session (`analyse_into`); both must reproduce the reported
/// cost. Returns the system and its analysis for further probes.
#[allow(clippy::too_many_arguments)]
fn verify(
    inst: &Instance,
    r: &OptResult,
    what: &str,
    cfg: &AnalysisConfig,
    session: &mut AnalysisSession,
    unit: u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<(System, Analysis)> {
    let Ok(sys) = System::validated(inst.platform.clone(), inst.app.clone(), r.bus.clone()) else {
        // An invalid configuration is only acceptable as "nothing found".
        ledger.record(check_cost(
            what,
            r.cost,
            flexray_analysis::Cost::infeasible(),
        ));
        return None;
    };
    let analysis = match tracer.span("analysis.holistic", unit, |_| analyse(&sys, cfg)) {
        Ok(a) => a,
        Err(e) => {
            ledger.record(Err(format!("{what}: analyse failed: {e}")));
            return None;
        }
    };
    ledger.record(check_cost(what, r.cost, analysis.cost));
    match tracer.span("analysis.full", unit, |_| session.analyse_into(&sys.bus)) {
        Ok(cost) => ledger.record(check_cost(&format!("{what} (session)"), r.cost, cost)),
        Err(e) => ledger.record(Err(format!("{what}: analyse_into failed: {e}"))),
    }
    Some((sys, analysis))
}

/// Far beyond any response of the generated systems; the probes must
/// not give up before the analysis does.
fn probe_limit() -> Time {
    Time::from_us(1e8)
}

/// The static schedule and FPS probes: `build_schedule` must succeed,
/// and every FPS task's jitter-free local response must stay within the
/// holistic bound (interference only grows with jitter).
fn probe_static_and_fps(
    sys: &System,
    a: &Analysis,
    what: &str,
    unit: u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    let table = tracer.span("analysis.schedule", unit, |_| {
        build_schedule(sys, &a.responses)
    });
    ledger.record(
        table
            .map(|_| ())
            .map_err(|e| format!("{what}: build_schedule failed: {e}")),
    );
    let zero = vec![Time::ZERO; sys.app.activities().len()];
    let horizon = a.table.horizon();
    if horizon <= Time::ZERO {
        return;
    }
    for task in sys.app.tasks_with_policy(SchedPolicy::Fps) {
        if a.diverged.contains(&task) {
            continue;
        }
        let node = sys
            .app
            .activity(task)
            .as_task()
            .expect("FPS id is a task")
            .node;
        let avail = Availability::new(horizon, a.table.busy_windows(node));
        let local = tracer.span("analysis.fps", unit, |_| {
            fps_local_response(sys, &avail, task, &zero, probe_limit())
        });
        ledger.record(match local {
            Some(r) if r <= a.response(task) => Ok(()),
            other => Err(format!(
                "{what}: FPS task {task:?} local response {other:?} exceeds the holistic {}",
                a.response(task)
            )),
        });
    }
}

/// The DYN probe: every DYN message's jitter-free delay plus its
/// transmission must stay within the holistic bound.
#[allow(clippy::too_many_arguments)]
fn probe_dyn(
    sys: &System,
    a: &Analysis,
    cfg: &AnalysisConfig,
    what: &str,
    unit: u64,
    scratch: &mut DynScratch,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    let zero = vec![Time::ZERO; sys.app.activities().len()];
    for m in sys.app.messages_of_class(MessageClass::Dynamic) {
        if a.diverged.contains(&m) {
            continue;
        }
        let w = tracer.span("analysis.dyn_delay", unit, |_| {
            dyn_delay_pooled(
                sys,
                m,
                &zero,
                cfg.latest_tx,
                cfg.dyn_mode,
                probe_limit(),
                scratch,
            )
        });
        ledger.record(match w {
            Some(w) if w + sys.comm_time(m) <= a.response(m) => Ok(()),
            other => Err(format!(
                "{what}: DYN message {m:?} delay {other:?} exceeds the holistic {}",
                a.response(m)
            )),
        });
    }
}

/// Writes one application's results as a one-application grid point
/// line, the grid report's format.
fn report_grid(
    grid: &GridConfig,
    spec: &PointSpec,
    inst: &Instance,
    results: Vec<OptResult>,
    unit: u64,
    tracer: &mut Tracer,
    acc: &mut Acc,
) {
    let line = tracer.span("bench.report", unit, |_| {
        let point = GridPoint::from_apps(grid, spec, vec![(results, inst.stats.clone())]);
        point_to_line(&point)
    });
    match line {
        Ok(line) => acc.report_bytes += line.len() as u64 + 1,
        Err(e) => acc.ledger.record(Err(format!("report line: {e}"))),
    }
}

fn mode(name: &str) -> (OptParams, SaParams) {
    search_mode(name).expect("the benchmark names a defined search mode")
}

fn grid_specs(grid: &GridConfig) -> Vec<PointSpec> {
    (0..grid.total_points()).map(|p| grid.point(p)).collect()
}

/// Drives an optimiser workload in rounds of `round` consecutive pool
/// applications. The pool interleaves the node counts, so a round holds
/// the same number of applications at each. The timed call is the whole
/// round solved by every algorithm, as one `grid` run of the workload's
/// axis would be; then `check` verifies, probes and reports each
/// application.
#[allow(clippy::too_many_arguments)]
fn solve_rounds<C>(
    opts: &Opts,
    pool: &[Instance],
    round: usize,
    algos: &[Algo],
    params: &OptParams,
    sa: &SaParams,
    counters: Tracer,
    mut check: C,
) -> (f64, Acc, Tracer, Option<f64>, Ledger)
where
    C: FnMut(usize, &Instance, Vec<OptResult>, &mut Tracer, &mut Acc),
{
    debug_assert_eq!(pool.len() % round, 0, "the pool holds whole rounds");
    drive(opts, pool.len() / round, counters, |r, tracer, acc| {
        let apps = r * round..(r + 1) * round;
        let t = Instant::now();
        let solved: Vec<Vec<OptResult>> = apps
            .clone()
            .map(|i| {
                algos
                    .iter()
                    .map(|&algo| solve(&pool[i], algo, params, sa, i as u64, tracer, acc))
                    .collect()
            })
            .collect();
        acc.calls_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (i, results) in apps.zip(solved) {
            acc.units += 1;
            check(i, &pool[i], results, tracer, acc);
        }
    })
}

/// Applications per node count in one `fig9` round. A round with one
/// application per node count is cheap or dear by whether its 4- and
/// 5-node applications are schedulable, and its median moved by up to a
/// quarter between seeds; two per node count smooth that out.
const FIG9_APPS_PER_ROUND: usize = 2;

/// `fig9`: the paper's Fig. 9 envelope (2–5 nodes, the paper's
/// generator mix), all four algorithms per application, serial
/// evaluation. The search runs at `mode=smoke` scale: at `mode=fast` an
/// application costs about 0.6 s, bimodally (unschedulable ones explore
/// the whole space), so a run holds some 40 applications and its
/// figures swing by a quarter to a third between seeds.
///
/// # Errors
///
/// Generation errors.
pub fn fig9(opts: &Opts) -> Result<BatchRun, ModelError> {
    let (params, sa) = mode("smoke");
    let grid = GridConfig {
        base: flexray_gen::GeneratorConfig::paper(2),
        axes: vec![SweepAxis::NodeCount(vec![2, 3, 4, 5])],
        apps_per_point: 1,
        algos: Algo::ALL.to_vec(),
        params: params.clone(),
        sa,
        seed0: opts.seed,
        seed_policy: SeedPolicy::PointIndex,
        threads: 1,
        workload: None,
    };
    let specs = grid_specs(&grid);
    let mut counters = Tracer::new(opts.trace, Instant::now(), 0);
    let (pool, setup_s) = setup(&specs, 120, opts.seed, &mut counters)?;
    let cfg = params.analysis;
    let (run_s, acc, tracer, overhead_pct, ledger) = solve_rounds(
        opts,
        &pool,
        FIG9_APPS_PER_ROUND * specs.len(),
        &Algo::ALL,
        &params,
        &sa,
        counters,
        |i, inst, results, tracer, acc| {
            let unit = i as u64;
            let mut session = AnalysisSession::new(inst.platform.clone(), inst.app.clone(), cfg);
            let mut scratch = DynScratch::default();
            for (algo, r) in Algo::ALL.iter().zip(&results) {
                let what = format!("unit {i} {}", algo.name());
                if let Some((sys, a)) = verify(
                    inst,
                    r,
                    &what,
                    &cfg,
                    &mut session,
                    unit,
                    tracer,
                    &mut acc.ledger,
                ) {
                    probe_static_and_fps(&sys, &a, &what, unit, tracer, &mut acc.ledger);
                    probe_dyn(
                        &sys,
                        &a,
                        &cfg,
                        &what,
                        unit,
                        &mut scratch,
                        tracer,
                        &mut acc.ledger,
                    );
                }
            }
            let sa_result = &results[3];
            for r in &results[..3] {
                if let Some(d) = deviation_pct(r, sa_result) {
                    acc.devs.push(d);
                }
            }
            report_grid(&grid, &specs[inst.point], inst, results, unit, tracer, acc);
        },
    );
    Ok(BatchRun {
        setup_s,
        run_s,
        acc,
        tracer,
        overhead_pct,
        ledger,
        threads: 1,
    })
}

/// Evaluator worker sessions of the `dyn-sweep` sweep check. The solves
/// themselves run at `eval_threads=1`: the 2-session fan-out spawns
/// scoped threads for every sweep, and on a shared 2-core host its wall
/// time swung by up to 40% from one minute to the next, beyond any
/// regression bound. As one check per application it is measured
/// (`opt.evaluator.sweep_s`) without setting the pace of the run.
const DYN_EVAL_THREADS: usize = 2;
/// Applications per node count in one `dyn-sweep` round: a single
/// application's solves are a few milliseconds with a heavy tail, so a
/// round of one per node count would put the tail at p99.7 of ~4000
/// calls, where a few instances decide it.
const DYN_APPS_PER_ROUND: usize = 4;

/// `dyn-sweep`: DYN-only systems of 6–7 nodes (the generator's small
/// task sets: at paper size one full analysis takes 20–40 ms and a run
/// holds too few applications to be steady), solved by BBC and OBCEE;
/// every OBCEE configuration's DYN-length grid is swept again by the
/// evaluator fanned over two warm sessions.
///
/// # Errors
///
/// Generation errors.
pub fn dyn_sweep(opts: &Opts) -> Result<BatchRun, ModelError> {
    let (params, sa) = mode("smoke");
    let algos = [Algo::Bbc, Algo::ObcEe];
    let base = flexray_gen::GeneratorConfig {
        tt_fraction: 0.0,
        ..flexray_gen::GeneratorConfig::small(6)
    };
    let grid = GridConfig {
        base,
        axes: vec![SweepAxis::NodeCount(vec![6, 7])],
        apps_per_point: 1,
        algos: algos.to_vec(),
        params: params.clone(),
        sa,
        seed0: opts.seed,
        seed_policy: SeedPolicy::PointIndex,
        threads: 1,
        workload: None,
    };
    let specs = grid_specs(&grid);
    let mut counters = Tracer::new(opts.trace, Instant::now(), 0);
    let (pool, setup_s) = setup(&specs, 1400, opts.seed, &mut counters)?;
    let cfg = params.analysis;
    let (run_s, acc, tracer, overhead_pct, ledger) = solve_rounds(
        opts,
        &pool,
        DYN_APPS_PER_ROUND * specs.len(),
        &algos,
        &params,
        &sa,
        counters,
        |i, inst, results, tracer, acc| {
            let unit = i as u64;
            let mut session = AnalysisSession::new(inst.platform.clone(), inst.app.clone(), cfg);
            let mut scratch = DynScratch::default();
            for (algo, r) in algos.iter().zip(&results) {
                let what = format!("unit {i} {}", algo.name());
                if let Some((sys, a)) = verify(
                    inst,
                    r,
                    &what,
                    &cfg,
                    &mut session,
                    unit,
                    tracer,
                    &mut acc.ledger,
                ) {
                    probe_dyn(
                        &sys,
                        &a,
                        &cfg,
                        &what,
                        unit,
                        &mut scratch,
                        tracer,
                        &mut acc.ledger,
                    );
                }
            }
            // The OBCEE sweep again, fanned out by the evaluator and run
            // serially through one session's incremental path: both must
            // agree candidate by candidate, and at the chosen length with
            // the reported cost.
            let obcee = &results[1];
            let mut ev = Evaluator::with_threads(
                inst.platform.clone(),
                inst.app.clone(),
                cfg,
                DYN_EVAL_THREADS,
            );
            if let Some((min, max)) = ev.dyn_bounds(&obcee.bus) {
                let lengths = dyn_sweep_grid(min, max, &params);
                let costs = tracer.span("opt.evaluator.sweep", unit, |_| {
                    ev.evaluate_dyn_lengths(&obcee.bus, &lengths)
                });
                let what = format!("unit {i} OBCEE sweep");
                let mut first = true;
                for (&n, &want) in lengths.iter().zip(&costs) {
                    let mut bus = obcee.bus.clone();
                    bus.n_minislots = n;
                    if bus.validate_for(&inst.app, inst.platform.len()).is_err() {
                        acc.ledger.record(check_cost(
                            &format!("{what} (invalid length {n})"),
                            flexray_analysis::Cost::infeasible(),
                            want,
                        ));
                        continue;
                    }
                    let got = if first {
                        first = false;
                        tracer.span("analysis.full", unit, |_| session.analyse_into(&bus))
                    } else {
                        tracer.span("analysis.incr", unit, |_| session.reanalyse_dyn_length(n))
                    };
                    match got {
                        Ok(got) => {
                            acc.ledger
                                .record(check_cost(&format!("{what} at {n}"), want, got))
                        }
                        Err(e) => acc.ledger.record(Err(format!("{what} at {n}: {e}"))),
                    }
                    if n == obcee.bus.n_minislots {
                        acc.ledger.record(check_cost(
                            &format!("{what} chosen length"),
                            obcee.cost,
                            want,
                        ));
                    }
                }
            }
            report_grid(&grid, &specs[inst.point], inst, results, unit, tracer, acc);
        },
    );
    Ok(BatchRun {
        setup_s,
        run_s,
        acc,
        tracer,
        overhead_pct,
        ledger,
        threads: DYN_EVAL_THREADS,
    })
}

/// Fuzzed execution orders per schedulable instance on `fuzz-orders`.
const FUZZ_ORDERS: usize = 4;
/// Hyperperiods per simulation run on `fuzz-orders`.
const FUZZ_REPS: i64 = 400;

/// Audits one simulation run against the analysis, as the fuzz
/// campaign does: no precedence violation, no response above its
/// analytic bound, no deadline miss. Returns the divergences and the
/// tightest margin (µs).
fn audit(
    sys: &System,
    a: &Analysis,
    report: &SimReport,
    ctx: &str,
    margin: &mut Option<f64>,
) -> Vec<String> {
    let mut out: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{ctx}: precedence violation: {v}"))
        .collect();
    for id in sys.app.ids() {
        let Some(observed) = report.response(id) else {
            continue;
        };
        let bound = a.response(id);
        if observed > bound {
            out.push(format!("{ctx}: {id:?} observed {observed} > WCRT {bound}"));
        } else {
            let m = (bound - observed).as_us();
            if margin.is_none_or(|cur| m < cur) {
                *margin = Some(m);
            }
        }
        if observed > sys.app.deadline_of(id) {
            out.push(format!(
                "{ctx}: {id:?} observed {observed} misses its deadline"
            ));
        }
    }
    out
}

/// `fuzz-orders`: the order-fuzz campaign without hyperperiod
/// compression — OBCCF, then the canonical and several fuzzed
/// execution orders per schedulable instance.
///
/// # Errors
///
/// Generation errors.
pub fn fuzz_orders(opts: &Opts) -> Result<BatchRun, ModelError> {
    let (params, _) = mode("smoke");
    let mut order_rng = SplitMix64::new(opts.seed ^ 0x5eed_0f0d_e125);
    let fuzz = FuzzConfig {
        base: flexray_gen::GeneratorConfig::paper(2),
        axes: vec![SweepAxis::NodeCount(vec![2, 3])],
        apps_per_point: 1,
        order_seeds: (0..FUZZ_ORDERS).map(|_| order_rng.next_u64()).collect(),
        reps: FUZZ_REPS,
        compress: false,
        params: params.clone(),
        seed0: opts.seed,
        threads: 1,
    };
    let grid = fuzz.grid();
    let specs = grid_specs(&grid);
    let mut counters = Tracer::new(opts.trace, Instant::now(), 0);
    let (pool, setup_s) = setup(&specs, 600, opts.seed, &mut counters)?;
    let cfg = params.analysis;
    let sa = SaParams::default();
    let (run_s, acc, tracer, overhead_pct, ledger) =
        drive(opts, pool.len(), counters, |i, tracer, acc| {
            let inst = &pool[i];
            let unit = i as u64;
            acc.units += 1;
            let r = solve(inst, Algo::ObcCf, &params, &sa, unit, tracer, acc);
            let mut outcome = FuzzAppOutcome {
                schedulable: r.is_schedulable(),
                runs: 0,
                order_sensitive: 0,
                divergences: Vec::new(),
                min_margin_us: None,
                evaluations: r.evaluations,
            };
            if r.is_schedulable() {
                let what = format!("unit {i} OBCCF");
                let mut session =
                    AnalysisSession::new(inst.platform.clone(), inst.app.clone(), cfg);
                if let Some((sys, a)) = verify(
                    inst,
                    &r,
                    &what,
                    &cfg,
                    &mut session,
                    unit,
                    tracer,
                    &mut acc.ledger,
                ) {
                    probe_static_and_fps(&sys, &a, &what, unit, tracer, &mut acc.ledger);
                    let orders = std::iter::once(ExecutionOrder::Canonical).chain(
                        fuzz.order_seeds
                            .iter()
                            .map(|&seed| ExecutionOrder::Fuzzed { seed }),
                    );
                    let mut canonical: Option<SimReport> = None;
                    for order in orders {
                        let sim_cfg = SimConfig {
                            reps: fuzz.reps,
                            order,
                            compress: fuzz.compress,
                            ..SimConfig::default()
                        };
                        let t = Instant::now();
                        let run =
                            tracer.span("sim.run", unit, |_| simulate_configured(&sys, &sim_cfg));
                        acc.calls_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        let run = match run {
                            Ok(run) => run,
                            Err(e) => {
                                acc.ledger
                                    .record(Err(format!("{what}: simulation failed: {e}")));
                                continue;
                            }
                        };
                        tracer.add("sim.runs", 1.0);
                        tracer.add("sim.jobs", run.total_jobs as f64);
                        tracer.add(
                            "sim.hyperperiods_stepped",
                            run.hyperperiods_simulated as f64,
                        );
                        tracer.add("sim.hyperperiods_skipped", run.hyperperiods_skipped as f64);
                        let divergences = audit(
                            &sys,
                            &a,
                            &run,
                            &format!("{what} {order:?}"),
                            &mut outcome.min_margin_us,
                        );
                        acc.ledger.record(match divergences.first() {
                            None => Ok(()),
                            Some(d) => Err(format!("divergence: {d}")),
                        });
                        outcome.divergences.extend(divergences);
                        outcome.runs += 1;
                        match &canonical {
                            None => canonical = Some(run),
                            Some(c) => {
                                outcome.order_sensitive += usize::from(c.responses != run.responses)
                            }
                        }
                    }
                }
            }
            let line = tracer.span("bench.report", unit, |_| {
                FuzzPoint::from_apps(&specs[inst.point], vec![outcome]).to_line()
            });
            match line {
                Ok(line) => acc.report_bytes += line.len() as u64 + 1,
                Err(e) => acc.ledger.record(Err(format!("report line: {e}"))),
            }
        });
    Ok(BatchRun {
        setup_s,
        run_s,
        acc,
        tracer,
        overhead_pct,
        ledger,
        threads: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_util_strata_partition_the_range() {
        let range = (0.1, 0.7);
        let strata: Vec<(f64, f64)> = (0..BUS_UTIL_STRATA)
            .map(|k| bus_util_stratum(range, k))
            .collect();
        assert!((strata[0].0 - 0.1).abs() < 1e-12);
        assert!((strata[BUS_UTIL_STRATA - 1].1 - 0.7).abs() < 1e-12);
        for pair in strata.windows(2) {
            assert!(
                (pair[0].1 - pair[1].0).abs() < 1e-12,
                "strata are contiguous"
            );
            assert!(pair[0].0 < pair[0].1);
        }
    }
}
