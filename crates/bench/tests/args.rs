//! Property suite for the shared `key=value` grammar
//! ([`flexray_bench::args`]) behind the `grid`, `sweep`, `fig9` and
//! `fuzz` binaries and `flexray-serve` job specs.
//!
//! Token lists are built from the real keys by a seeded SplitMix64
//! stream: a valid list per kind and front, then at most one mutation
//! (a mangled value, a missing `=`, a key the kind does not take, an
//! unknown or non-ASCII key, an empty token, a repeated token). Over
//! every kind and both fronts the suite checks that
//!
//! * no input panics;
//! * every error names the offending key or value (quoted);
//! * every list the command line accepts that holds no command-line-
//!   only key, written as a serve spec line and parsed by `parse_job`,
//!   gives the same report header line as the command-line parse.
//!
//! A table test pins each kind's accepted key set and its defaults.

use flexray_bench::args::{parse, Front, Plan};
use flexray_bench::fig9::NODE_COUNTS;
use flexray_bench::fuzz::FuzzConfig;
use flexray_bench::grid::{GridConfig, SeedPolicy};
use flexray_bench::report::{GridReportHeader, Json};
use flexray_bench::sweep::{Algo, SweepAxis};
use flexray_bench::workload::Workload;
use flexray_gen::GeneratorConfig;
use flexray_model::SplitMix64;
use flexray_opt::{OptParams, SaParams};

const KINDS: [&str; 4] = ["grid", "sweep", "fig9", "fuzz"];
const FRONTS: [Front; 2] = [Front::Cli, Front::Daemon];

/// Every key any kind or front takes.
const ALL_KEYS: [&str; 18] = [
    "nodes",
    "depth",
    "gateway",
    "busutil",
    "clusters",
    "workload",
    "apps",
    "mode",
    "eval_threads",
    "seed0",
    "algos",
    "orders",
    "reps",
    "compress",
    "threads",
    "out",
    "csv",
    "resume",
];

/// The axes each kind takes, written out independently of the parser.
fn axis_keys(kind: &str) -> &'static [&'static str] {
    match kind {
        "grid" | "sweep" => &["nodes", "depth", "gateway", "busutil", "clusters"],
        "fig9" => &["nodes"],
        _ => &["nodes", "depth", "gateway", "busutil"],
    }
}

/// The non-axis keys each kind takes in a job spec.
fn scalar_keys(kind: &str) -> &'static [&'static str] {
    match kind {
        "grid" | "sweep" => &["apps", "mode", "eval_threads", "seed0", "algos"],
        "fig9" => &["apps", "mode", "eval_threads", "seed0"],
        _ => &[
            "apps",
            "orders",
            "reps",
            "compress",
            "mode",
            "eval_threads",
            "seed0",
        ],
    }
}

/// The keys only a command line takes.
fn cli_only_keys(kind: &str) -> &'static [&'static str] {
    match kind {
        "grid" => &["threads", "out", "csv", "resume"],
        "fuzz" => &["threads", "out"],
        _ => &["threads"],
    }
}

fn accepts(kind: &str, front: Front, key: &str) -> bool {
    axis_keys(kind).contains(&key)
        || scalar_keys(kind).contains(&key)
        || (kind == "grid" && key == "workload")
        || (kind == "sweep" && key == "workload")
        || (front == Front::Cli && cli_only_keys(kind).contains(&key))
}

/// An importable workgraph file of its own for the test `name` (tests
/// run in parallel and must not share a file).
fn workload_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("args-{name}.jsonl"));
    let generated =
        flexray_gen::generate(&GeneratorConfig::small(3), 3).expect("small scenario generates");
    std::fs::write(
        &path,
        Workload::of_generated(&generated)
            .export()
            .expect("workload exports"),
    )
    .expect("write workload file");
    path.to_string_lossy().into_owned()
}

struct Gen {
    rng: SplitMix64,
    workload: String,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.next_below(n)
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// A non-empty list of distinct items, in random order.
    fn subset(&mut self, items: &[&str]) -> Vec<String> {
        let mut pool: Vec<&str> = items.to_vec();
        let n = 1 + self.below(pool.len());
        (0..n)
            .map(|_| pool.remove(self.below(pool.len())).to_owned())
            .collect()
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A value the parser must accept for `key`.
    fn valid_value(&mut self, key: &str) -> String {
        match key {
            "nodes" => self.subset(&["2", "3", "4", "5", "8"]).join(","),
            "depth" => self.subset(&["1", "3", "5", "8"]).join(","),
            "gateway" => self.subset(&["0.0", "0.25", "0.5", "1"]).join(","),
            "busutil" => self.subset(&["0.2", "0.4", "0.6"]).join(","),
            "clusters" => self.subset(&["1", "2", "3"]).join(","),
            "apps" | "reps" => (1 + self.below(5)).to_string(),
            "mode" => self.pick(&["smoke", "fast", "full"]).to_owned(),
            "eval_threads" | "threads" => self.below(5).to_string(),
            "seed0" => self.rng.next_u64().to_string(),
            "algos" => self.subset(&["bbc", "obccf", "OBCEE", "sa"]).join(","),
            "orders" => self.subset(&["1", "2", "3", "4", "5", "6"]).join(","),
            "compress" => self.pick(&["on", "off"]).to_owned(),
            "workload" => self.workload.clone(),
            _ => "report-ü.jsonl".to_owned(), // out, csv, resume: any path
        }
    }

    /// A valid token list for `kind` through `front`.
    fn valid_list(&mut self, kind: &str, front: Front) -> Vec<(String, String)> {
        let mut keys: Vec<String> = match kind {
            "sweep" => vec![self.pick(axis_keys(kind)).to_owned()],
            "fig9" if self.chance(30) => Vec::new(),
            "grid" if self.chance(15) => vec!["workload".to_owned()],
            _ => self.subset(axis_keys(kind)),
        };
        for &key in scalar_keys(kind) {
            if self.chance(50) {
                keys.push(key.to_owned());
            }
        }
        if front == Front::Cli {
            for &key in cli_only_keys(kind) {
                if self.chance(20) {
                    keys.push(key.to_owned());
                }
            }
        }
        self.shuffle(&mut keys);
        keys.into_iter()
            .map(|key| {
                let value = self.valid_value(&key);
                (key, value)
            })
            .collect()
    }
}

fn tokens(list: &[(String, String)]) -> Vec<String> {
    list.iter().map(|(k, v)| format!("{k}={v}")).collect()
}

fn header_line(plan: &Plan) -> String {
    match plan {
        Plan::Grid(cfg) => GridReportHeader::of(cfg).to_line(),
        Plan::Fuzz(cfg) => cfg.header_line(),
    }
    .expect("header encodes")
}

fn spec_line(kind: &str, args: &[String]) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str("flexray-serve-job".into())),
        ("version".into(), Json::Num(1.0)),
        ("id".into(), Json::Str("p1".into())),
        ("kind".into(), Json::Str(kind.into())),
        (
            "args".into(),
            Json::Arr(args.iter().map(|a| Json::Str(a.clone())).collect()),
        ),
    ])
    .write()
    .expect("spec line encodes")
}

/// The ways one token of a valid list is broken.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    None,
    BadValue,
    NoEquals,
    ForeignKey,
    UnknownKey,
    EmptyToken,
    Repeat,
    /// A workload beside axes (grid and sweep only).
    WorkloadWithAxis,
}

const MUTATIONS: [Mutation; 8] = [
    Mutation::None,
    Mutation::BadValue,
    Mutation::NoEquals,
    Mutation::ForeignKey,
    Mutation::UnknownKey,
    Mutation::EmptyToken,
    Mutation::Repeat,
    Mutation::WorkloadWithAxis,
];

/// Values no key takes (paths aside).
const GARBAGE: [&str; 7] = ["x", "", "ünï©ødé", "1,x", "--", "２", "1;2"];
const UNKNOWN_KEYS: [&str; 6] = ["bogus", "nodez", "NODES", "ключ", "", " apps"];

/// Applies `mutation` to `list`; returns the token list and, for a
/// mutation that must be rejected, the quoted strings one of which the
/// error must contain.
fn mutate(
    gen: &mut Gen,
    kind: &str,
    front: Front,
    mut list: Vec<(String, String)>,
    mutation: Mutation,
) -> (Vec<String>, Option<Vec<String>>) {
    let quoted = |s: &str| format!("'{s}'");
    let at = gen.below(list.len() + 1);
    match mutation {
        Mutation::None => (tokens(&list), None),
        Mutation::BadValue => {
            let paths = ["out", "csv", "resume"];
            let Some(k) = (0..list.len()).find(|&k| !paths.contains(&list[k].0.as_str())) else {
                return (tokens(&list), None);
            };
            let value = if list[k].0 == "workload" {
                "/no/such/dir/ünï.jsonl".to_owned()
            } else {
                gen.pick(&GARBAGE).to_owned()
            };
            list[k].1.clone_from(&value);
            let key = list[k].0.clone();
            (tokens(&list), Some(vec![quoted(&key), quoted(&value)]))
        }
        Mutation::NoEquals => {
            let mut toks = tokens(&list);
            if toks.is_empty() {
                toks.push("nodes2".to_owned());
            }
            let k = gen.below(toks.len());
            toks[k] = toks[k].replacen('=', "", 1);
            let bad = quoted(&toks[k]);
            (toks, Some(vec![bad]))
        }
        Mutation::ForeignKey => {
            let foreign: Vec<&str> = ALL_KEYS
                .iter()
                .copied()
                .filter(|key| !accepts(kind, front, key))
                .collect();
            let key = gen.pick(&foreign).to_owned();
            let value = gen.valid_value(&key);
            list.insert(at, (key.clone(), value));
            (tokens(&list), Some(vec![quoted(&key)]))
        }
        Mutation::UnknownKey => {
            let key = gen.pick(&UNKNOWN_KEYS).to_owned();
            list.insert(at, (key.clone(), "1".to_owned()));
            (tokens(&list), Some(vec![quoted(&key)]))
        }
        Mutation::EmptyToken => {
            let mut toks = tokens(&list);
            toks.insert(at, String::new());
            (toks, Some(vec!["''".to_owned()]))
        }
        Mutation::WorkloadWithAxis => {
            if !matches!(kind, "grid" | "sweep") {
                return (tokens(&list), None);
            }
            let axis = gen.pick(&["nodes", "depth", "busutil"]);
            for key in ["workload", axis] {
                if !list.iter().any(|(k, _)| k == key) {
                    let value = gen.valid_value(key);
                    list.insert(gen.below(list.len() + 1), (key.to_owned(), value));
                }
            }
            let names = [
                "workload", "nodes", "depth", "gateway", "busutil", "clusters",
            ];
            (
                tokens(&list),
                Some(names.iter().map(|k| quoted(k)).collect()),
            )
        }
        Mutation::Repeat => {
            if list.is_empty() {
                return (tokens(&list), None);
            }
            let k = gen.below(list.len());
            let key = list[k].0.clone();
            let value = gen.valid_value(&key);
            list.insert(at, (key, value));
            (tokens(&list), None)
        }
    }
}

#[test]
fn mangled_token_lists_never_panic_and_errors_name_the_token() {
    let mut gen = Gen {
        rng: SplitMix64::new(0x5eed_a7b5),
        workload: workload_file("mangled"),
    };
    let mut checked = [0usize; 3]; // rejected, accepted, cross-checked with serve
    for case in 0..1200 {
        let kind = KINDS[case % KINDS.len()];
        let front = FRONTS[(case / KINDS.len()) % FRONTS.len()];
        let mutation = MUTATIONS[gen.below(MUTATIONS.len())];
        let list = gen.valid_list(kind, front);
        let (args, must_name) = mutate(&mut gen, kind, front, list, mutation);
        let context = format!("{kind} {front:?} {mutation:?} {args:?}");
        match (parse(kind, front, &args), must_name) {
            (Err(e), Some(names)) => {
                let msg = e.to_string();
                assert!(
                    names.iter().any(|n| msg.contains(n.as_str())),
                    "{context}: error does not name any of {names:?}: {msg}"
                );
                checked[0] += 1;
            }
            (Ok(_), Some(names)) => {
                panic!("{context}: accepted, expected an error naming {names:?}")
            }
            (Err(e), None) => {
                // only a repeated axis may be refused
                assert!(
                    matches!(mutation, Mutation::Repeat),
                    "{context}: valid list rejected: {e}"
                );
                let msg = e.to_string();
                assert!(
                    axis_keys(kind)
                        .iter()
                        .any(|k| msg.contains(&format!("'{k}'"))),
                    "{context}: repeat error does not name the axis: {msg}"
                );
                checked[0] += 1;
            }
            (Ok(parsed), None) => {
                checked[1] += 1;
                let cli_only = args.iter().any(|a| {
                    cli_only_keys(kind)
                        .iter()
                        .any(|k| a.split_once('=').is_some_and(|(key, _)| key == *k))
                });
                if front == Front::Cli && !cli_only {
                    let spec = flexray_serve::parse_job(&spec_line(kind, &args))
                        .unwrap_or_else(|e| panic!("{context}: serve rejects it: {e}"));
                    assert_eq!(
                        header_line(&spec.kind),
                        header_line(&parsed.plan),
                        "{context}: serve and command line desugar differently"
                    );
                    checked[2] += 1;
                }
            }
        }
    }
    // the generator must exercise every branch, not just one
    assert!(
        checked.iter().all(|&n| n >= 50),
        "too few cases per branch: {checked:?}"
    );
}

#[test]
fn arbitrary_token_soup_never_panics() {
    let mut rng = SplitMix64::new(0xdead_beef);
    let pieces = [
        "nodes",
        "apps",
        "mode",
        "=",
        ",",
        "2",
        "0",
        "-1",
        "ü",
        "x",
        "smoke",
        "on",
        "bbc",
        "",
        "18446744073709551616",
        "1e999",
        "NaN",
        "threads",
        "seed0",
        "orders",
        "1,1",
    ];
    for case in 0..2000 {
        let kind = KINDS[case % KINDS.len()];
        let front = FRONTS[(case / KINDS.len()) % FRONTS.len()];
        let args: Vec<String> = (0..rng.next_below(6))
            .map(|_| {
                (0..rng.next_below(5))
                    .map(|_| pieces[rng.next_below(pieces.len())])
                    .collect()
            })
            .collect();
        if let Ok(parsed) = parse(kind, front, &args) {
            header_line(&parsed.plan);
        }
    }
    assert!(parse("sweeps", Front::Cli, &["nodes=2"])
        .expect_err("unknown kind")
        .to_string()
        .contains("'sweeps'"));
}

/// A representative valid value per key, for the key-set table.
fn probe_value(key: &str, workload: &str) -> String {
    match key {
        "gateway" | "busutil" => "0.2".into(),
        "mode" => "smoke".into(),
        "algos" => "bbc".into(),
        "compress" => "off".into(),
        "workload" => workload.into(),
        "out" | "csv" | "resume" => "report.jsonl".into(),
        _ => "2".into(),
    }
}

#[test]
fn each_kind_takes_exactly_its_keys_and_defaults() {
    let workload = workload_file("table");
    let table: [(&str, &[&str], &[&str]); 4] = [
        (
            "grid",
            &[
                "nodes",
                "depth",
                "gateway",
                "busutil",
                "clusters",
                "workload",
                "apps",
                "mode",
                "eval_threads",
                "seed0",
                "algos",
            ],
            &["threads", "out", "csv", "resume"],
        ),
        (
            "sweep",
            &[
                "nodes",
                "depth",
                "gateway",
                "busutil",
                "clusters",
                "workload",
                "apps",
                "mode",
                "eval_threads",
                "seed0",
                "algos",
            ],
            &["threads"],
        ),
        (
            "fig9",
            &["nodes", "apps", "mode", "eval_threads", "seed0"],
            &["threads"],
        ),
        (
            "fuzz",
            &[
                "nodes",
                "depth",
                "gateway",
                "busutil",
                "apps",
                "orders",
                "reps",
                "compress",
                "mode",
                "eval_threads",
                "seed0",
            ],
            &["threads", "out"],
        ),
    ];
    for (kind, spec_keys, cli_keys) in table {
        for front in FRONTS {
            for key in ALL_KEYS.iter().chain(&["bogus"]) {
                // one axis the probed key does not duplicate
                let base = if *key == "depth" {
                    "nodes=2"
                } else {
                    "depth=3"
                };
                let mut args = vec![format!("{key}={}", probe_value(key, &workload))];
                if kind != "fig9"
                    && !["nodes", "depth", "gateway", "busutil", "clusters"].contains(key)
                {
                    args.push(base.to_owned());
                }
                let refused = match parse(kind, front, &args) {
                    Ok(_) => false,
                    Err(e) => {
                        let msg = e.to_string();
                        msg.contains(&format!(
                            "unknown {} key '{key}'",
                            if kind == "sweep" { "grid" } else { kind }
                        )) || msg.contains(&format!("daemon-managed key '{key}'"))
                    }
                };
                let expected =
                    spec_keys.contains(key) || (front == Front::Cli && cli_keys.contains(key));
                assert_eq!(!refused, expected, "{kind} {front:?} key {key}: {args:?}");
            }
        }
    }

    // No-argument defaults (one axis where the kind needs one).
    let grid_default = |axis: SweepAxis, threads: usize| GridConfig {
        base: GeneratorConfig::paper(5),
        axes: vec![axis],
        workload: None,
        apps_per_point: 3,
        algos: Algo::ALL.to_vec(),
        params: OptParams::default(),
        sa: SaParams::default(),
        seed0: 42,
        seed_policy: SeedPolicy::PointIndex,
        threads,
    };
    for (front, threads) in [(Front::Cli, 0), (Front::Daemon, 1)] {
        for kind in ["grid", "sweep"] {
            let Plan::Grid(cfg) = parse(kind, front, &["nodes=2,3"]).expect("parses").plan else {
                panic!("{kind} is a grid plan")
            };
            let want = grid_default(SweepAxis::NodeCount(vec![2, 3]), threads);
            assert_eq!(
                format!("{cfg:?}"),
                format!("{want:?}"),
                "{kind} {front:?} defaults"
            );
        }

        let no_args: [&str; 0] = [];
        let Plan::Grid(cfg) = parse("fig9", front, &no_args).expect("parses").plan else {
            panic!("fig9 is a grid plan")
        };
        let want = GridConfig {
            base: GeneratorConfig::paper(2),
            apps_per_point: 5,
            seed_policy: SeedPolicy::PointOffsets(vec![2000, 3000, 4000, 5000]),
            ..grid_default(SweepAxis::NodeCount(NODE_COUNTS.to_vec()), threads)
        };
        assert_eq!(
            format!("{cfg:?}"),
            format!("{want:?}"),
            "fig9 {front:?} defaults"
        );

        let Plan::Fuzz(cfg) = parse("fuzz", front, &["busutil=0.2"]).expect("parses").plan else {
            panic!("fuzz is a fuzz plan")
        };
        let want = FuzzConfig {
            base: GeneratorConfig::small(3),
            axes: vec![SweepAxis::BusUtil(vec![0.2])],
            apps_per_point: 2,
            order_seeds: vec![1, 2, 3, 4],
            reps: 4,
            compress: true,
            params: OptParams::default(),
            seed0: 42,
            threads,
        };
        assert_eq!(
            format!("{cfg:?}"),
            format!("{want:?}"),
            "fuzz {front:?} defaults"
        );
    }

    // Without an axis only fig9 parses; `eval_threads` survives a later
    // `mode=` in every kind.
    for kind in ["grid", "sweep", "fuzz"] {
        let err = parse(kind, Front::Cli, &["apps=1"]).expect_err("an axis is required");
        assert!(err.to_string().contains("axis"), "{kind}: {err}");
    }
    for kind in KINDS {
        let plan = parse(
            kind,
            Front::Cli,
            &["eval_threads=3", "nodes=2", "mode=smoke"],
        )
        .expect("parses")
        .plan;
        let eval_threads = match plan {
            Plan::Grid(cfg) => cfg.params.eval_threads,
            Plan::Fuzz(cfg) => cfg.params.eval_threads,
        };
        assert_eq!(eval_threads, 3, "{kind}");
    }
}
