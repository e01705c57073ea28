//! Differential and property suite locking down the factorial grid
//! engine:
//!
//! * cartesian-product completeness and deterministic enumeration;
//! * resume(partial ∪ rest) == full run, for every split point;
//! * the single-axis sweep and fig9 grid presets against byte-level
//!   reference reimplementations of their pre-grid loops (bit-identical
//!   deterministic output);
//! * JSON-lines report round-trips, torn-tail recovery;
//! * a golden-file test pinning the JSONL/CSV schema — bumping
//!   [`GRID_SCHEMA_VERSION`] breaks it on purpose.

use flexray_bench::grid::{run_grid, run_grid_resumed, GridConfig, GridPoint, SeedPolicy};
use flexray_bench::report::{from_jsonl, to_csv, to_jsonl, GridReportHeader, GRID_SCHEMA_VERSION};
use flexray_bench::sweep::{aggregate_algos, Algo, AlgoStats, SweepAxis};
use flexray_gen::{generate, AggregatedGenStats, GeneratorConfig};
use flexray_model::{PhyParams, UtilSummary};
use flexray_opt::{OptParams, OptResult, SaParams};

/// Smoke-scale search parameters shared by every differential run —
/// the same preset table the binaries use.
fn smoke_params() -> OptParams {
    flexray_bench::sweep::search_mode("smoke")
        .expect("known mode")
        .0
}

fn smoke_sa() -> SaParams {
    flexray_bench::sweep::search_mode("smoke")
        .expect("known mode")
        .1
}

fn smoke_grid(axes: Vec<SweepAxis>) -> GridConfig {
    GridConfig {
        base: GeneratorConfig::small(3),
        axes,
        apps_per_point: 2,
        algos: vec![Algo::Bbc, Algo::Sa],
        params: smoke_params(),
        sa: smoke_sa(),
        seed0: 7,
        seed_policy: SeedPolicy::PointIndex,
        threads: 1,
        workload: None,
    }
}

// ---------------------------------------------------------------------
// Enumeration properties
// ---------------------------------------------------------------------

#[test]
fn cartesian_product_is_complete_and_deterministically_ordered() {
    let cfg = smoke_grid(vec![
        SweepAxis::NodeCount(vec![2, 3, 4]),
        SweepAxis::GatewayFraction(vec![0.0, 0.5]),
        SweepAxis::BusUtil(vec![0.2, 0.4]),
    ]);
    assert_eq!(cfg.total_points(), 12);

    // the enumeration is exactly the nested loop, first axis slowest
    let mut expected = Vec::new();
    for n in [2usize, 3, 4] {
        for g in [0.0f64, 0.5] {
            for u in [0.2f64, 0.4] {
                expected.push(format!("nodes={n},gateway={g:.2},busutil={u:.2}"));
            }
        }
    }
    let labels: Vec<String> = (0..12).map(|p| cfg.point(p).label).collect();
    assert_eq!(labels, expected);

    // completeness: every combination appears exactly once
    let mut sorted = labels.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 12, "a combination is missing or duplicated");

    // the derived configs carry the coordinates
    for p in 0..12 {
        let spec = cfg.point(p);
        assert_eq!(spec.index, p);
        assert_eq!(spec.coords.len(), 3);
        let n: usize = spec.coords[0].1.parse().expect("nodes value");
        assert_eq!(spec.config.n_nodes, n);
        spec.config.validate().expect("derived config validates");
    }
}

// ---------------------------------------------------------------------
// Resume properties
// ---------------------------------------------------------------------

#[test]
fn resume_of_any_partial_prefix_equals_the_full_run() {
    let cfg = smoke_grid(vec![
        SweepAxis::NodeCount(vec![2, 3]),
        SweepAxis::BusUtil(vec![0.2, 0.4]),
    ]);
    let full = run_grid(&cfg).expect("full run");
    assert_eq!(full.len(), 4);

    for split in 0..=full.len() {
        let done: Vec<GridPoint> = full[..split].to_vec();
        let mut streamed = Vec::new();
        let resumed =
            run_grid_resumed(&cfg, done, |p| streamed.push(p.index)).expect("resumed run");
        assert_eq!(
            streamed,
            (0..full.len()).collect::<Vec<_>>(),
            "split {split}: sink must see every point in order"
        );
        assert_eq!(resumed.len(), full.len());
        for (a, b) in full.iter().zip(&resumed) {
            assert!(
                a.deterministic_eq(b),
                "split {split}: {a:?} vs {b:?} diverged"
            );
        }
    }
}

#[test]
fn resume_of_a_non_prefix_subset_also_completes() {
    let cfg = smoke_grid(vec![SweepAxis::NodeCount(vec![2, 3, 4])]);
    let full = run_grid(&cfg).expect("full run");
    // recover only the middle point: the engine must fill both gaps
    let done = vec![full[1].clone()];
    let mut streamed = Vec::new();
    let resumed = run_grid_resumed(&cfg, done, |p| streamed.push(p.index)).expect("resumed run");
    assert_eq!(streamed, vec![0, 1, 2]);
    for (a, b) in full.iter().zip(&resumed) {
        assert!(a.deterministic_eq(b));
    }
}

// ---------------------------------------------------------------------
// Degenerate grids vs the single-axis harnesses
// ---------------------------------------------------------------------

/// The sweep preset at smoke scale on a small base.
fn sweep_cfg(axis: SweepAxis) -> GridConfig {
    GridConfig {
        base: GeneratorConfig::small(3),
        apps_per_point: 2,
        algos: vec![Algo::Bbc, Algo::Sa],
        params: smoke_params(),
        sa: smoke_sa(),
        seed0: 7,
        threads: 1,
        ..flexray_bench::sweep::preset(axis)
    }
}

#[test]
fn degenerate_grid_equals_single_axis_sweep_bit_for_bit() {
    for axis in [
        SweepAxis::NodeCount(vec![2, 3]),
        SweepAxis::GraphDepth(vec![3, 5]),
        SweepAxis::GatewayFraction(vec![0.0, 0.6]),
        SweepAxis::BusUtil(vec![0.2, 0.4]),
        SweepAxis::Clusters(vec![1, 2]),
    ] {
        let preset = flexray_bench::sweep::preset(axis.clone());
        let hand_built = GridConfig {
            base: GeneratorConfig::paper(5),
            axes: vec![axis],
            workload: None,
            apps_per_point: 3,
            algos: Algo::ALL.to_vec(),
            params: OptParams::default(),
            sa: SaParams::default(),
            seed0: 42,
            seed_policy: SeedPolicy::PointIndex,
            threads: 0,
        };
        assert_eq!(
            GridReportHeader::of(&preset).to_line().expect("header"),
            GridReportHeader::of(&hand_built).to_line().expect("header"),
            "the sweep preset is the one-axis grid over paper(5)"
        );
        assert_eq!(preset.threads, hand_built.threads);
    }
}

// ---------------------------------------------------------------------
// Differential: grid presets vs their pre-grid reference loops
// ---------------------------------------------------------------------

/// Deterministic equality of a grid run and a reference run given as
/// `(label, per-algorithm stats)` per point.
fn assert_matches_reference(
    engine: &[GridPoint],
    reference: &[(String, Vec<(String, AlgoStats)>)],
    context: &str,
) {
    assert_eq!(engine.len(), reference.len(), "{context}");
    for (e, (label, algos)) in engine.iter().zip(reference) {
        let as_grid = GridPoint {
            label: label.clone(),
            algos: algos.clone(),
            ..e.clone()
        };
        assert!(
            e.deterministic_eq(&as_grid),
            "{context}: {e:?} vs {as_grid:?} diverged"
        );
    }
}

/// The single-axis sweep exactly as implemented before the grid
/// refactor: a serial per-point loop over per-seed applications of the
/// preset's one axis.
fn reference_sweep(cfg: &GridConfig) -> Vec<(String, Vec<(String, AlgoStats)>)> {
    let [axis] = cfg.axes.as_slice() else {
        panic!("a sweep preset has exactly one axis")
    };
    let names: Vec<&str> = cfg.algos.iter().map(|a| a.name()).collect();
    let mut out = Vec::new();
    for p in 0..axis.len() {
        let (label, gen_cfg) = axis.configure(&cfg.base, p);
        gen_cfg.validate().expect("derived config");
        let per_app: Vec<Vec<OptResult>> = (0..cfg.apps_per_point)
            .map(|i| {
                let seed = cfg.seed0 + 1000 * p as u64 + i as u64;
                let generated = generate(&gen_cfg, seed).expect("generator");
                cfg.algos
                    .iter()
                    .map(|a| {
                        a.solve(
                            &generated.platform,
                            &generated.app,
                            gen_cfg.phy,
                            &cfg.params,
                            &cfg.sa,
                        )
                    })
                    .collect()
            })
            .collect();
        out.push((label, aggregate_algos(&names, &per_app, cfg.reference())));
    }
    out
}

/// Fig9 exactly as implemented before the grid refactor: paper
/// configuration per node count of the preset's axis, seeds
/// `seed0 + 1000·n + i`.
fn reference_fig9(cfg: &GridConfig) -> Vec<(String, Vec<(String, AlgoStats)>)> {
    let [SweepAxis::NodeCount(node_counts)] = cfg.axes.as_slice() else {
        panic!("the fig9 preset has one node-count axis")
    };
    let phy = PhyParams::bmw_like();
    let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
    let sa_idx = Algo::ALL.iter().position(|&a| a == Algo::Sa);
    let mut out = Vec::new();
    for &n in node_counts {
        let gen_cfg = GeneratorConfig::paper(n);
        let per_app: Vec<Vec<OptResult>> = (0..cfg.apps_per_point)
            .map(|i| {
                let seed = cfg.seed0 + 1000 * n as u64 + i as u64;
                let generated = generate(&gen_cfg, seed).expect("generator");
                Algo::ALL
                    .iter()
                    .map(|a| {
                        a.solve(
                            &generated.platform,
                            &generated.app,
                            phy,
                            &cfg.params,
                            &cfg.sa,
                        )
                    })
                    .collect()
            })
            .collect();
        out.push((
            format!("nodes={n}"),
            aggregate_algos(&names, &per_app, sa_idx),
        ));
    }
    out
}

#[test]
fn refactored_sweep_matches_the_pre_grid_reference_implementation() {
    for axis in [
        SweepAxis::NodeCount(vec![2, 3]),
        SweepAxis::GatewayFraction(vec![0.0, 0.6]),
    ] {
        // the reference runs serially; the engine must match at any
        // worker count
        for threads in [1usize, 4] {
            let cfg = GridConfig {
                threads,
                ..sweep_cfg(axis.clone())
            };
            let engine = run_grid(&cfg).expect("engine sweep");
            assert_matches_reference(
                &engine,
                &reference_sweep(&cfg),
                &format!("threads {threads}"),
            );
        }
    }
}

#[test]
fn refactored_fig9_matches_the_pre_grid_reference_implementation() {
    for threads in [1usize, 4] {
        let cfg = GridConfig {
            apps_per_point: 2,
            params: smoke_params(),
            sa: SaParams {
                iterations: 30,
                ..SaParams::default()
            },
            seed0: 7,
            threads,
            ..flexray_bench::fig9::preset(vec![2, 3])
        };
        let engine = run_grid(&cfg).expect("engine fig9");
        assert_matches_reference(
            &engine,
            &reference_fig9(&cfg),
            &format!("threads {threads}"),
        );
    }

    let err = flexray_bench::args::parse("fig9", flexray_bench::args::Front::Cli, &["nodes="])
        .expect_err("an empty node-count list is rejected");
    assert!(
        err.to_string().contains("'nodes'"),
        "the error names the key: {err}"
    );
}

// ---------------------------------------------------------------------
// Report round-trips
// ---------------------------------------------------------------------

/// Full equality including the wall-clock fields (the codec must not
/// lose precision; `deterministic_eq` deliberately skips times).
fn fully_eq(a: &GridPoint, b: &GridPoint) -> bool {
    a.deterministic_eq(b)
        && a.algos
            .iter()
            .zip(&b.algos)
            .all(|(x, y)| x.1.avg_time_s.to_bits() == y.1.avg_time_s.to_bits())
}

#[test]
fn jsonl_report_round_trips_exactly() {
    let cfg = smoke_grid(vec![
        SweepAxis::NodeCount(vec![2, 3]),
        SweepAxis::GatewayFraction(vec![0.0, 1.0]),
    ]);
    let points = run_grid(&cfg).expect("grid");
    let header = GridReportHeader::of(&cfg);
    let text = to_jsonl(&header, &points).expect("finite report");
    let (back_header, back_points) = from_jsonl(&text).expect("parses");
    assert_eq!(back_header, header);
    assert_eq!(back_points.len(), points.len());
    for (a, b) in points.iter().zip(&back_points) {
        assert!(fully_eq(a, b), "{a:?} vs {b:?} diverged through the codec");
    }
    // a second write is byte-identical (stable float rendering)
    assert_eq!(
        to_jsonl(&back_header, &back_points).expect("finite report"),
        text
    );
}

#[test]
fn torn_tail_is_recovered_and_mid_file_corruption_is_rejected() {
    let cfg = smoke_grid(vec![SweepAxis::NodeCount(vec![2, 3])]);
    let points = run_grid(&cfg).expect("grid");
    let header = GridReportHeader::of(&cfg);
    let text = to_jsonl(&header, &points).expect("finite report");

    // kill mid-write: drop the trailing half of the last line
    let torn = &text[..text.len() - 40];
    let (_, recovered) = from_jsonl(torn).expect("torn tail is recoverable");
    assert_eq!(recovered.len(), points.len() - 1);
    assert!(fully_eq(&recovered[0], &points[0]));

    // corruption before the tail is an error, not silent loss
    let corrupted = text.replacen("\"label\"", "\"labe", 1);
    assert!(from_jsonl(&corrupted).is_err());

    // resuming from the recovered prefix completes to the full result
    let resumed = run_grid_resumed(&cfg, recovered, |_| {}).expect("resume");
    for (a, b) in points.iter().zip(&resumed) {
        assert!(a.deterministic_eq(b));
    }
}

#[test]
fn header_mismatch_guards_resume() {
    let cfg = smoke_grid(vec![SweepAxis::NodeCount(vec![2, 3])]);
    let header = GridReportHeader::of(&cfg);
    let other = GridConfig {
        seed0: 8,
        ..cfg.clone()
    };
    assert_ne!(
        GridReportHeader::of(&other),
        header,
        "seed is fingerprinted"
    );
    let other = GridConfig {
        apps_per_point: 3,
        ..cfg.clone()
    };
    assert_ne!(GridReportHeader::of(&other), header);
    let other = GridConfig {
        params: OptParams::default(),
        ..cfg.clone()
    };
    assert_ne!(GridReportHeader::of(&other), header, "params fingerprinted");
    // a different base workload must not be able to adopt the report,
    // even when every axis point list is identical
    let other = GridConfig {
        base: GeneratorConfig::paper(3),
        ..cfg.clone()
    };
    assert_ne!(
        GridReportHeader::of(&other),
        header,
        "base generator config is fingerprinted"
    );
    // the worker-thread count does not affect the output and is not
    // part of the fingerprint
    let other = GridConfig { threads: 9, ..cfg };
    assert_eq!(GridReportHeader::of(&other), header);
}

#[test]
fn header_seeds_beyond_f64_precision_round_trip_exactly() {
    let cfg = GridConfig {
        seed0: (1u64 << 53) + 1, // not representable as f64
        ..smoke_grid(vec![SweepAxis::NodeCount(vec![2])])
    };
    let header = GridReportHeader::of(&cfg);
    let back = GridReportHeader::parse(&header.to_line().expect("finite header")).expect("parses");
    assert_eq!(back.seed0, (1u64 << 53) + 1);
    assert_eq!(back, header, "resume must accept the identical grid");
}

// ---------------------------------------------------------------------
// Golden-file schema test
// ---------------------------------------------------------------------

/// A fixed, hand-written report: two points, exact binary fractions
/// everywhere so the rendering is stable across platforms.
fn golden_fixture() -> (GridReportHeader, Vec<GridPoint>) {
    let header = GridReportHeader {
        version: GRID_SCHEMA_VERSION,
        axes: vec![
            ("nodes".into(), vec!["2".into(), "3".into()]),
            ("busutil".into(), vec!["0.25".into()]),
        ],
        apps_per_point: 2,
        algos: vec!["BBC".into(), "SA".into()],
        seed0: 42,
        params: "fixture".into(),
        total_points: 2,
    };
    let algo = |sched: usize, dev: f64, time: f64, evals: f64| AlgoStats {
        schedulable: sched,
        total: 2,
        avg_deviation_pct: dev,
        avg_time_s: time,
        avg_evaluations: evals,
    };
    let point = |index: usize, nodes: &str, tasks: f64| GridPoint {
        index,
        label: format!("nodes={nodes},busutil=0.25"),
        coords: vec![
            ("nodes".into(), nodes.into()),
            ("busutil".into(), "0.25".into()),
        ],
        algos: vec![
            ("BBC".into(), algo(1, 1.5, 0.125, 26.0)),
            ("SA".into(), algo(2, 0.0, 0.5, 31.0)),
        ],
        gen: AggregatedGenStats {
            apps: 2,
            avg_tasks: tasks,
            avg_relay_tasks: 0.5,
            avg_st_messages: 4.0,
            avg_dyn_messages: 6.5,
            avg_graphs: 4.0,
            node_util: UtilSummary {
                min: 0.25,
                mean: 0.375,
                max: 0.5,
            },
            avg_bus_util: 0.1875,
            depth_histogram: vec![0, 0, 1, 3],
        },
    };
    (header, vec![point(0, "2", 20.0), point(1, "3", 30.0)])
}

#[test]
fn report_schema_matches_the_golden_files() {
    assert_eq!(
        GRID_SCHEMA_VERSION, 1,
        "schema version changed: regenerate tests/golden/grid_report.{{jsonl,csv}} \
         and update this assertion together with the version bump"
    );
    let (header, points) = golden_fixture();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        std::fs::create_dir_all(dir).expect("golden dir");
        std::fs::write(
            format!("{dir}/grid_report.jsonl"),
            to_jsonl(&header, &points).expect("finite report"),
        )
        .expect("write jsonl golden");
        std::fs::write(format!("{dir}/grid_report.csv"), to_csv(&header, &points))
            .expect("write csv golden");
        return;
    }
    assert_eq!(
        to_jsonl(&header, &points).expect("finite report"),
        include_str!("golden/grid_report.jsonl"),
        "JSONL schema drifted: bump GRID_SCHEMA_VERSION and regenerate the golden file"
    );
    assert_eq!(
        to_csv(&header, &points),
        include_str!("golden/grid_report.csv"),
        "CSV schema drifted: bump GRID_SCHEMA_VERSION and regenerate the golden file"
    );
}

// ---------------------------------------------------------------------
// Multi-cluster axis and imported-workload grids
// ---------------------------------------------------------------------

#[test]
fn clusters_axis_derives_multi_cluster_points_with_a_gateway_fallback() {
    let cfg = smoke_grid(vec![SweepAxis::Clusters(vec![1, 2])]);
    cfg.validate().expect("grid validates");
    assert_eq!(cfg.total_points(), 2);

    let single = cfg.point(0);
    assert_eq!(single.label, "clusters=1");
    assert_eq!(single.config.clusters, 1);
    assert_eq!(
        single.config.gateways, cfg.base.gateways,
        "a single-cluster point must not grow a gateway"
    );

    let dual = cfg.point(1);
    assert_eq!(dual.label, "clusters=2");
    assert_eq!(dual.config.clusters, 2);
    assert_eq!(
        dual.config.gateways,
        vec![cfg.base.n_nodes - 1],
        "without configured gateways the last node bridges the clusters"
    );

    let points = run_grid(&cfg).expect("grid runs");
    assert_eq!(points.len(), 2);
    for p in &points {
        assert_eq!(p.gen.apps, cfg.apps_per_point);
        assert_eq!(p.algos.len(), cfg.algos.len());
    }
}

#[test]
fn clusters_one_point_is_bit_identical_to_the_plain_base_run() {
    // The clusters axis must be RNG-neutral at clusters=1: the same
    // seeds on the same base configuration must reproduce a grid that
    // never heard of the axis.
    let with_axis = smoke_grid(vec![SweepAxis::Clusters(vec![1])]);
    let plain = smoke_grid(vec![SweepAxis::NodeCount(vec![with_axis.base.n_nodes])]);
    let a = run_grid(&with_axis).expect("clusters=1 run");
    let b = run_grid(&plain).expect("plain run");
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].gen, b[0].gen, "generator output drifted");
    for ((name_a, stats_a), (name_b, stats_b)) in a[0].algos.iter().zip(&b[0].algos) {
        assert_eq!(name_a, name_b);
        assert_eq!(stats_a.schedulable, stats_b.schedulable);
        assert_eq!(stats_a.total, stats_b.total);
        assert_eq!(stats_a.avg_deviation_pct, stats_b.avg_deviation_pct);
        assert_eq!(stats_a.avg_evaluations, stats_b.avg_evaluations);
    }
}

#[test]
fn workload_grid_runs_the_imported_scenario_and_pins_its_fingerprint() {
    use flexray_bench::grid::WorkloadSource;
    use flexray_bench::workload::Workload;

    let gen_cfg = GeneratorConfig::clustered(5, 2);
    let generated = generate(&gen_cfg, 3).expect("clustered scenario");
    let original = Workload::of_generated(&generated);
    let workload = Workload::import(&original.export().expect("export")).expect("import");
    assert_eq!(
        workload.stats(&gen_cfg.phy).expect("stats"),
        original.stats(&gen_cfg.phy).expect("stats"),
        "round-tripped workload statistics must be bit-identical"
    );

    let cfg = GridConfig {
        axes: Vec::new(),
        workload: Some(WorkloadSource {
            name: "hand".into(),
            workload: workload.clone(),
        }),
        apps_per_point: 1,
        algos: vec![Algo::Bbc],
        ..smoke_grid(Vec::new())
    };
    cfg.validate().expect("workload grid validates");
    assert_eq!(cfg.total_points(), 1);

    let header = GridReportHeader::of(&cfg);
    assert!(
        header
            .params
            .contains(&format!("workload=hand:{}", workload.fingerprint())),
        "header must pin the workload fingerprint: {}",
        header.params
    );

    let points = run_grid(&cfg).expect("workload grid runs");
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].label, "base");
    assert_eq!(points[0].gen.apps, 1);
    let stats = workload.stats(&gen_cfg.phy).expect("stats");
    assert!(
        (points[0].gen.avg_bus_util - stats.bus_util).abs() < 1e-12,
        "the point must report the imported workload's own statistics"
    );

    // two runs of the same imported workload are bit-identical
    let again = run_grid(&cfg).expect("second run");
    assert!(points[0].deterministic_eq(&again[0]));
}

#[test]
fn workload_grids_reject_configured_axes() {
    use flexray_bench::grid::WorkloadSource;
    use flexray_bench::workload::Workload;

    let generated = generate(&GeneratorConfig::small(3), 1).expect("scenario");
    let cfg = GridConfig {
        workload: Some(WorkloadSource {
            name: "w".into(),
            workload: Workload::of_generated(&generated),
        }),
        ..smoke_grid(vec![SweepAxis::NodeCount(vec![2, 3])])
    };
    let err = cfg
        .validate()
        .expect_err("axes with a workload must be rejected");
    assert!(
        err.to_string().contains("axes"),
        "error must explain the conflict: {err}"
    );
}
