//! The one `key=value` grammar of every experiment front door.
//!
//! The `grid`, `sweep`, `fig9` and `fuzz` binaries and the
//! `flexray-serve` job specs all parse their arguments with [`parse`],
//! so a job spec's `args` are a command line of the binary its `kind`
//! names. Every kind desugars to one of two execution plans
//! ([`Plan`]): `sweep` is a one-axis grid (the
//! [`sweep::preset`](crate::sweep::preset)), `fig9` the paper's
//! node-count grid (the [`fig9::preset`](crate::fig9::preset)).
//!
//! | kind    | keys |
//! |---------|------|
//! | `grid`  | `nodes` `depth` `gateway` `busutil` `clusters` (axes), `workload`, `apps`, `mode`, `eval_threads`, `seed0`, `algos` |
//! | `sweep` | the `grid` keys, with exactly one axis |
//! | `fig9`  | `nodes`, `apps`, `mode`, `eval_threads`, `seed0` |
//! | `fuzz`  | `nodes` `depth` `gateway` `busutil` (axes), `apps`, `orders`, `reps`, `compress`, `mode`, `eval_threads`, `seed0` |
//!
//! A command line ([`Front::Cli`]) also takes `threads` (all kinds),
//! `out`, `csv` and `resume` (`grid`) and `out` (`fuzz`). A job spec
//! ([`Front::Daemon`]) rejects those four keys as daemon-managed: unit
//! dispatch, report files and resume belong to the daemon.
//!
//! Defaults: `grid` and `sweep` run 3 applications per point over the
//! paper base of 5 nodes with all four algorithms; `fig9` runs nodes
//! 2–5 with 5 applications per point; `fuzz` runs 2 applications per
//! point, order seeds 1–4, 4 hyperperiods, compression on. Every kind
//! defaults to `mode=full` and `seed0=42`; `threads` is `0` (all
//! cores) on a command line and `1` in a job spec.
//!
//! The parser is strict: a token without `=`, an unknown key, a bad
//! value or an inconsistent resulting configuration is an
//! [`ModelError::InvalidConfig`] naming the offending token. Within a
//! kind's keys, order does not matter (`eval_threads` applies after
//! `mode`, which replaces the search parameters wholesale); a repeated
//! axis is a duplicate axis (except `fig9`'s `nodes`, whose last list
//! counts), any other repeated key keeps its last value.

use crate::fuzz::FuzzConfig;
use crate::grid::{GridConfig, WorkloadSource};
use crate::report::malformed;
use crate::sweep::{parse_algo_set, parse_thread_count, search_mode, SweepAxis};
use crate::workload::Workload;
use flexray_model::ModelError;
use flexray_opt::{OptParams, SaParams};

/// The execution plan a harness or job desugars to.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A factorial grid (also the plan of `sweep` and `fig9`). Boxed
    /// (like `Fuzz`) to keep the enum small: an imported workload
    /// makes a grid configuration arbitrarily large.
    Grid(Box<GridConfig>),
    /// An execution-order fuzz campaign.
    Fuzz(Box<FuzzConfig>),
}

/// Where the arguments come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// A binary's command line: `threads` defaults to `0` (all cores)
    /// and the output keys are accepted.
    Cli,
    /// A `flexray-serve` job spec: `threads` is `1` (the daemon owns
    /// unit dispatch) and the daemon-managed keys are rejected.
    Daemon,
}

/// A parsed argument list: the plan plus the command line's output
/// keys (always `None` for [`Front::Daemon`]).
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The desugared execution plan.
    pub plan: Plan,
    /// `out=FILE`: stream the JSON-lines report to FILE.
    pub out: Option<String>,
    /// `csv=FILE`: also write the CSV projection to FILE.
    pub csv: Option<String>,
    /// `resume=FILE`: recover the completed points of a partial report.
    pub resume: Option<String>,
}

impl Front {
    /// An argument error. Job-spec rejections keep the wording the
    /// daemon has always journaled them with.
    fn error(self, msg: &str) -> ModelError {
        match self {
            Front::Cli => ModelError::InvalidConfig(msg.to_owned()),
            Front::Daemon => malformed(msg),
        }
    }

    fn bad_value(self, key: &str, value: &str) -> ModelError {
        self.error(&format!("invalid value '{value}' for key '{key}'"))
    }

    /// A non-empty comma-separated value list.
    fn list<T: std::str::FromStr>(self, key: &str, value: &str) -> Result<Vec<T>, ModelError> {
        value
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<T>, _>>()
            .map_err(|_| self.error(&format!("invalid value list '{value}' for key '{key}'")))
    }

    /// A count of at least one.
    fn positive<T>(self, key: &str, value: &str) -> Result<T, ModelError>
    where
        T: std::str::FromStr + PartialOrd + From<u8>,
    {
        match value.parse::<T>() {
            Ok(n) if n >= T::from(1) => Ok(n),
            _ => Err(self.bad_value(key, value)),
        }
    }
}

/// Parses `args` in the grammar of `kind` (`grid`, `sweep`, `fig9` or
/// `fuzz`) and desugars them to a validated plan. A `workload=FILE` is
/// read and imported here.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] naming the offending token on
/// an unknown kind, a token without `=`, a key the kind (or front)
/// does not take, a bad value, an unreadable workload file, a missing
/// or extra axis, or a configuration its
/// [`GridConfig::validate`]/[`FuzzConfig::validate`] rejects.
pub fn parse<S: AsRef<str>>(kind: &str, front: Front, args: &[S]) -> Result<Parsed, ModelError> {
    let grammar = match kind {
        "grid" | "sweep" => "grid",
        "fig9" | "fuzz" => kind,
        other => {
            return Err(front.error(&format!(
                "unknown job kind '{other}' (expected grid, sweep, fig9 or fuzz)"
            )))
        }
    };
    let (gridlike, is_fuzz, cli) = (grammar == "grid", kind == "fuzz", front == Front::Cli);
    // What the arguments set; the rest comes from the kind's defaults.
    let mut axes = Vec::new();
    let (mut workload, mut apps, mut seed0, mut algos) = (None, None, None, None);
    let (mut orders, mut reps, mut compress) = (None, None, None);
    let (mut out, mut csv, mut resume) = (None, None, None);
    let (mut params, mut sa) = (OptParams::default(), SaParams::default());
    // `mode=` replaces the search parameters wholesale, so
    // `eval_threads=` is applied after the loop, in any order.
    let mut eval_threads = None;
    let mut threads = if cli { 0 } else { 1 };
    for arg in args {
        let arg = arg.as_ref();
        let (key, value) = arg
            .split_once('=')
            .ok_or_else(|| front.error(&format!("expected key=value, got '{arg}'")))?;
        // The guards are each kind's key set (see the module docs).
        match key {
            "nodes" => axes.push(SweepAxis::NodeCount(front.list(key, value)?)),
            "depth" if gridlike || is_fuzz => {
                axes.push(SweepAxis::GraphDepth(front.list(key, value)?))
            }
            "gateway" if gridlike || is_fuzz => {
                axes.push(SweepAxis::GatewayFraction(front.list(key, value)?))
            }
            "busutil" if gridlike || is_fuzz => {
                axes.push(SweepAxis::BusUtil(front.list(key, value)?))
            }
            "clusters" if gridlike => axes.push(SweepAxis::Clusters(front.list(key, value)?)),
            "workload" if gridlike => workload = Some(read_workload(front, value)?),
            "apps" => apps = Some(front.positive(key, value)?),
            "mode" => {
                (params, sa) = search_mode(value).ok_or_else(|| front.bad_value(key, value))?
            }
            "eval_threads" => eval_threads = Some(parse_thread_count(value)?),
            "seed0" => seed0 = Some(value.parse().map_err(|_| front.bad_value(key, value))?),
            "algos" if gridlike => algos = Some(parse_algo_set(value)?),
            "orders" if is_fuzz => orders = Some(front.list(key, value)?),
            "reps" if is_fuzz => reps = Some(front.positive(key, value)?),
            "compress" if is_fuzz => {
                compress = Some(match value {
                    "on" => true,
                    "off" => false,
                    _ => return Err(front.bad_value(key, value)),
                });
            }
            "threads" if cli => threads = parse_thread_count(value)?,
            "out" if cli && (kind == "grid" || is_fuzz) => out = Some(value.to_owned()),
            "csv" if cli && kind == "grid" => csv = Some(value.to_owned()),
            "resume" if cli && kind == "grid" => resume = Some(value.to_owned()),
            "threads" | "out" | "csv" | "resume" if !cli => {
                return Err(front.error(&format!(
                    "daemon-managed key '{key}' is not allowed in a job spec"
                )))
            }
            _ => return Err(front.error(&format!("unknown {grammar} key '{key}'"))),
        }
    }
    if let Some(threads) = eval_threads {
        params.eval_threads = threads;
    }
    let plan = if is_fuzz {
        if axes.is_empty() {
            return Err(front.error("a fuzz job needs at least one axis"));
        }
        let defaults = FuzzConfig::default();
        Plan::Fuzz(Box::new(FuzzConfig {
            axes,
            apps_per_point: apps.unwrap_or(defaults.apps_per_point),
            order_seeds: orders.unwrap_or(defaults.order_seeds),
            reps: reps.unwrap_or(defaults.reps),
            compress: compress.unwrap_or(defaults.compress),
            params,
            seed0: seed0.unwrap_or(defaults.seed0),
            threads,
            ..defaults
        }))
    } else {
        let mut cfg = if kind == "fig9" {
            // a repeated `nodes=` keeps its last list
            crate::fig9::preset(match axes.pop() {
                Some(SweepAxis::NodeCount(nodes)) => nodes,
                _ => crate::fig9::NODE_COUNTS.to_vec(),
            })
        } else {
            if axes.is_empty() && workload.is_none() {
                return Err(front.error("a grid job needs at least one axis"));
            }
            if kind == "sweep" {
                let [axis] = <[SweepAxis; 1]>::try_from(axes).map_err(|axes| {
                    let names: Vec<String> =
                        axes.iter().map(|a| format!("'{}'", a.name())).collect();
                    front.error(&format!(
                        "a sweep job takes exactly one axis, got {} [{}]",
                        names.len(),
                        names.join(", ")
                    ))
                })?;
                GridConfig {
                    workload,
                    ..crate::sweep::preset(axis)
                }
            } else {
                GridConfig {
                    axes,
                    workload,
                    ..GridConfig::default()
                }
            }
        };
        cfg.apps_per_point = apps.unwrap_or(cfg.apps_per_point);
        cfg.seed0 = seed0.unwrap_or(cfg.seed0);
        cfg.algos = algos.unwrap_or(cfg.algos);
        (cfg.params, cfg.sa, cfg.threads) = (params, sa, threads);
        Plan::Grid(Box::new(cfg))
    };
    match &plan {
        Plan::Grid(cfg) => cfg.validate()?,
        Plan::Fuzz(cfg) => cfg.validate()?,
    }
    Ok(Parsed {
        plan,
        out,
        csv,
        resume,
    })
}

/// Reads and imports a `workload=FILE` workgraph, named by its file
/// stem.
fn read_workload(front: Front, path: &str) -> Result<WorkloadSource, ModelError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| front.error(&format!("cannot read workload file '{path}': {e}")))?;
    let workload = Workload::import(&text)
        .map_err(|e| front.error(&format!("workload file '{path}': {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_owned(), |s| s.to_string_lossy().into_owned());
    Ok(WorkloadSource { name, workload })
}

/// Parses the process's command line in the grammar of `bin` (a
/// [`Front::Cli`] [`parse`]). On an error, prints `<bin>: <error>` and
/// exits with status 2.
#[must_use]
pub fn from_env(bin: &str) -> Parsed {
    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(|a| a.into_string())
        .collect();
    let parsed = match args {
        Ok(args) => parse(bin, Front::Cli, &args),
        Err(arg) => Err(ModelError::InvalidConfig(format!(
            "argument {arg:?} is not valid UTF-8"
        ))),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2)
    })
}
