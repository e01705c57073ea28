//! Property-based tests on the core invariants of the reproduction.
//!
//! The headline property is the soundness cross-check between the two
//! independent implementations of FlexRay semantics: for any random
//! small system, the worst-case response times of `flexray-analysis`
//! must bound the response times observed by `flexray-sim`.

use flexray::analysis::build_schedule;
use flexray::*;
use proptest::prelude::*;

/// A random chain application over 2 nodes: `n` stages alternating
/// nodes, policy and message class chosen per graph, sizes/wcets drawn
/// small.
fn chain_system(
    tt: bool,
    wcets_us: Vec<u32>,
    size_granules: u32,
    period_us: u32,
    pad_minislots: u32,
) -> Option<System> {
    let mut app = Application::new();
    let period = Time::from_us(f64::from(period_us));
    let g = app.add_graph("g", period, period);
    let policy = if tt {
        SchedPolicy::Scs
    } else {
        SchedPolicy::Fps
    };
    let class = if tt {
        MessageClass::Static
    } else {
        MessageClass::Dynamic
    };
    let mut prev: Option<flexray::model::ActivityId> = None;
    let mut msgs = Vec::new();
    for (i, &w) in wcets_us.iter().enumerate() {
        let node = NodeId::new(i % 2);
        let t = app.add_task(
            g,
            &format!("t{i}"),
            node,
            Time::from_us(f64::from(w.max(1))),
            policy,
            10 + u32::try_from(i).expect("small"),
        );
        if let Some(p) = prev {
            let m = app.add_message(
                g,
                &format!("m{i}"),
                2 * size_granules.max(1),
                class,
                u32::try_from(i).expect("small"),
            );
            app.connect(p, m, t).ok()?;
            msgs.push(m);
        }
        prev = Some(t);
    }
    let phy = PhyParams {
        gd_bit: Time::from_ns(50),
        gd_macrotick: Time::MICROSECOND,
        gd_minislot: Time::MICROSECOND,
        frame_overhead_bytes: 0,
    };
    let mut bus = BusConfig::new(phy);
    if tt {
        bus.static_slot_len = Time::from_us(f64::from(size_granules.max(1)));
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
    } else {
        for (i, &m) in msgs.iter().enumerate() {
            bus.frame_ids
                .insert(m, FrameId::new(u16::try_from(i + 1).expect("small")));
        }
        bus.n_minislots = bus.min_minislots(&app) + pad_minislots;
    }
    System::validated(Platform::with_nodes(2), app, bus).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The analysis bounds the simulator on random chains.
    #[test]
    fn analysis_bounds_simulation(
        tt in any::<bool>(),
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        period in prop::sample::select(vec![500u32, 1000, 2000]),
        pad in 0u32..30,
    ) {
        let Some(sys) = chain_system(tt, wcets, size, period, pad) else {
            // invalid combination (e.g. frame larger than slot): skip
            return Ok(());
        };
        let analysis = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        let report = simulate_default(&sys).expect("simulation");
        for id in sys.app.ids() {
            if let Some(observed) = report.response(id) {
                prop_assert!(
                    observed <= analysis.response(id),
                    "'{}': observed {} > WCRT {}",
                    sys.app.activity(id).name,
                    observed,
                    analysis.response(id)
                );
            }
        }
    }

    /// Eq. (5): the cost sign characterises schedulability.
    #[test]
    fn cost_sign_matches_deadline_satisfaction(
        tt in any::<bool>(),
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        pad in 0u32..30,
    ) {
        let Some(sys) = chain_system(tt, wcets, size, 1000, pad) else {
            return Ok(());
        };
        let analysis = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        let any_miss = sys
            .app
            .ids()
            .any(|id| analysis.response(id) > sys.app.deadline_of(id));
        prop_assert_eq!(analysis.cost.f1 > 0.0, any_miss);
    }

    /// The static schedule table respects precedence and periods.
    #[test]
    fn schedule_table_respects_precedence(
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
    ) {
        let Some(sys) = chain_system(true, wcets, size, 2000, 0) else {
            return Ok(());
        };
        let bounds: Vec<Time> = sys.app.ids().map(|id| sys.duration_of(id)).collect();
        let table = build_schedule(&sys, &bounds).expect("schedule");
        for (from, to) in sys.app.edges() {
            let f_from = table.finish_of(*from, 0);
            let f_to = table.finish_of(*to, 0);
            if let (Some(a), Some(b)) = (f_from, f_to) {
                prop_assert!(a <= b, "edge violated: {a} > {b}");
            }
        }
        // SCS tasks never overlap on a node
        for node in sys.platform.nodes() {
            let windows = table.busy_windows(node);
            for pair in windows.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0);
            }
        }
    }

    /// Time arithmetic invariants used throughout the analysis.
    #[test]
    fn time_div_ceil_floor_consistent(a in 0i64..1_000_000, b in 1i64..10_000) {
        let t = Time::from_ns(a);
        let u = Time::from_ns(b);
        let ceil = t.div_ceil(u);
        let floor = t.div_floor(u);
        prop_assert!(ceil >= floor);
        prop_assert!(ceil - floor <= 1);
        prop_assert!(u * ceil >= t);
        prop_assert!(u * floor <= t);
        prop_assert_eq!(t.round_up_to(u), u * ceil);
    }

    /// LCM divides evenly and bounds both operands.
    #[test]
    fn time_lcm_properties(a in 1i64..100_000, b in 1i64..100_000) {
        let ta = Time::from_ns(a);
        let tb = Time::from_ns(b);
        let l = ta.lcm(tb).expect("small values cannot overflow");
        prop_assert!((l % ta).is_zero());
        prop_assert!((l % tb).is_zero());
        prop_assert!(l >= ta && l >= tb);
    }

    /// Batch evaluation is element-wise identical to sequential
    /// evaluation — on one shared session-backed evaluator AND against a
    /// cold evaluator per candidate (no state leaks between candidates).
    #[test]
    fn evaluate_batch_matches_sequential(
        tt in any::<bool>(),
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        pads in prop::collection::vec(0u32..40, 2..6),
    ) {
        let Some(sys) = chain_system(tt, wcets, size, 1000, 0) else {
            return Ok(());
        };
        let candidates: Vec<BusConfig> = pads
            .iter()
            .map(|&pad| {
                let mut bus = sys.bus.clone();
                if bus.frame_ids.is_empty() {
                    // TT-only chain: vary the slot length instead.
                    bus.static_slot_len += Time::from_us(f64::from(pad));
                } else {
                    bus.n_minislots = bus.min_minislots(&sys.app) + pad;
                }
                bus
            })
            .collect();
        let mut batch_ev = flexray::opt::Evaluator::new(
            sys.platform.clone(), sys.app.clone(), AnalysisConfig::default());
        let batch = batch_ev.evaluate_batch(&candidates);
        let mut seq_ev = flexray::opt::Evaluator::new(
            sys.platform.clone(), sys.app.clone(), AnalysisConfig::default());
        for (i, bus) in candidates.iter().enumerate() {
            let (seq_cost, _) = seq_ev.evaluate(bus);
            prop_assert_eq!(batch[i], seq_cost, "candidate {} diverged (shared)", i);
            let mut cold = flexray::opt::Evaluator::new(
                sys.platform.clone(), sys.app.clone(), AnalysisConfig::default());
            let (cold_cost, _) = cold.evaluate(bus);
            prop_assert_eq!(batch[i], cold_cost, "candidate {} diverged (cold)", i);
        }
        prop_assert_eq!(batch_ev.evaluations(), seq_ev.evaluations());
    }

    /// The multi-session parallel evaluator is bit-identical to the
    /// serial one: same per-candidate costs in input order and the same
    /// evaluation count, for every thread count.
    #[test]
    fn parallel_batch_matches_serial_for_any_thread_count(
        tt in any::<bool>(),
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        pads in prop::collection::vec(0u32..40, 2..6),
    ) {
        let Some(sys) = chain_system(tt, wcets, size, 1000, 0) else {
            return Ok(());
        };
        let candidates: Vec<BusConfig> = pads
            .iter()
            .map(|&pad| {
                let mut bus = sys.bus.clone();
                if bus.frame_ids.is_empty() {
                    bus.static_slot_len += Time::from_us(f64::from(pad));
                } else {
                    bus.n_minislots = bus.min_minislots(&sys.app) + pad;
                }
                bus
            })
            .collect();
        let mut serial = flexray::opt::Evaluator::new(
            sys.platform.clone(), sys.app.clone(), AnalysisConfig::default());
        let expected = serial.evaluate_batch(&candidates);
        for threads in [1usize, 2, 4] {
            let mut par = flexray::opt::Evaluator::with_threads(
                sys.platform.clone(), sys.app.clone(), AnalysisConfig::default(), threads);
            let got = par.evaluate_batch(&candidates);
            prop_assert_eq!(&got, &expected, "threads={} diverged", threads);
            prop_assert_eq!(par.evaluations(), serial.evaluations(),
                "threads={} evaluation count diverged", threads);
        }
    }

    /// The chunked parallel DYN-length sweep is bit-identical to the
    /// serial incremental sweep, for every thread count — including
    /// lengths below the template's minimum (infeasible candidates).
    #[test]
    fn parallel_dyn_sweep_matches_serial_for_any_thread_count(
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        pads in prop::collection::vec(0u32..60, 3..9),
    ) {
        // event-triggered chain so the DYN segment is populated
        let Some(sys) = chain_system(false, wcets, size, 1000, 0) else {
            return Ok(());
        };
        let min = sys.bus.min_minislots(&sys.app);
        let lengths: Vec<u32> = pads.iter().map(|&p| min.saturating_sub(2) + p).collect();
        let mut serial = flexray::opt::Evaluator::new(
            sys.platform.clone(), sys.app.clone(), AnalysisConfig::default());
        let expected = serial.evaluate_dyn_lengths(&sys.bus, &lengths);
        for threads in [1usize, 2, 4] {
            let mut par = flexray::opt::Evaluator::with_threads(
                sys.platform.clone(), sys.app.clone(), AnalysisConfig::default(), threads);
            let got = par.evaluate_dyn_lengths(&sys.bus, &lengths);
            prop_assert_eq!(&got, &expected, "threads={} diverged", threads);
            prop_assert_eq!(par.evaluations(), serial.evaluations(),
                "threads={} evaluation count diverged", threads);
        }
    }

    /// Frame padding keeps the 2-byte granularity and monotonicity.
    #[test]
    fn frame_duration_monotone(bytes_a in 0u32..250, bytes_b in 0u32..250) {
        let phy = PhyParams::bmw_like();
        let (lo, hi) = if bytes_a <= bytes_b {
            (bytes_a, bytes_b)
        } else {
            (bytes_b, bytes_a)
        };
        prop_assert!(phy.frame_duration(lo) <= phy.frame_duration(hi));
        // padded payload is even and >= input
        let p = PhyParams::padded_payload(lo);
        prop_assert_eq!(p % 2, 0);
        prop_assert!(p >= lo);
    }
}

/// A random v2 generator configuration: node counts up to 20, all four
/// graph shapes, optional heterogeneous per-graph sizes/period pools and
/// gateway traffic. The physical layer has zero frame overhead so bus
/// demand is proportional to payload and the utilisation-scaling
/// contract is exact (modulo payload granularity and the 2–254-byte
/// clamp).
#[allow(clippy::too_many_arguments)]
fn v2_config(
    n_nodes: usize,
    tasks_per_node: usize,
    graph_size: usize,
    shape_sel: usize,
    gw_sel: usize,
    hetero: bool,
    node_util: (f64, f64),
    bus_util: (f64, f64),
) -> flexray::gen::GeneratorConfig {
    use flexray::gen::{GeneratorConfig, GraphShape};
    let shape = match shape_sel {
        0 => GraphShape::Random,
        1 => GraphShape::Chain,
        2 => GraphShape::FanOut,
        3 => GraphShape::Layered { depth: 2 },
        _ => GraphShape::Layered { depth: 3 },
    };
    let gateway_fraction = [0.0, 0.5, 1.0][gw_sel % 3];
    let gateways = if gw_sel == 2 && n_nodes >= 4 {
        vec![0, n_nodes - 1]
    } else {
        vec![n_nodes - 1]
    };
    GeneratorConfig {
        n_nodes,
        tasks_per_node,
        graph_size,
        graph_sizes: hetero.then(|| vec![graph_size, 2]),
        shape,
        tt_fraction: 0.5,
        node_util,
        bus_util,
        period_pools_us: hetero.then(|| vec![vec![10_000.0], vec![20_000.0, 40_000.0]]),
        gateway_fraction,
        gateways,
        phy: PhyParams {
            gd_bit: Time::from_ns(50),
            gd_macrotick: Time::MICROSECOND,
            gd_minislot: Time::MICROSECOND,
            frame_overhead_bytes: 0,
        },
        ..GeneratorConfig::paper(n_nodes)
    }
}

/// Total bus demand of all messages under `phy`, as a utilisation.
fn bus_demand(app: &Application, phy: &PhyParams) -> f64 {
    let h = app.hyperperiod().expect("hyperperiod");
    let mut demand = 0.0;
    for id in app.ids() {
        if let Some(m) = app.activity(id).as_message() {
            let c = phy.frame_duration(m.size_bytes);
            let inst = h / app.period_of(id);
            demand += c.as_ns() as f64 * inst as f64;
        }
    }
    demand / h.as_ns() as f64
}

proptest! {
    // Generation is cheap (no analysis): a moderate case count still
    // covers shapes × gateway modes × heterogeneity broadly.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generator v2 invariants over the whole configuration envelope:
    /// determinism in `(cfg, seed)`, acyclic DAGs, balanced task
    /// mapping with no task dropped, cross-node dependencies always
    /// carried by exactly one message per hop, relays on gateway nodes
    /// only, and utilisations inside the configured ranges.
    #[test]
    fn generator_v2_invariants(
        n_nodes in 2usize..21,
        tasks_per_node in 2usize..8,
        graph_size in 2usize..9,
        shape_sel in 0usize..5,
        gw_sel in 0usize..3,
        hetero in any::<bool>(),
        node_util in prop::sample::select(vec![(0.2, 0.4), (0.3, 0.6)]),
        bus_util in prop::sample::select(vec![(0.1, 0.3), (0.2, 0.5)]),
        seed in 0u64..100_000,
    ) {
        use flexray::gen::generate;
        use flexray::model::ActivityId;

        let cfg = v2_config(
            n_nodes, tasks_per_node, graph_size, shape_sel, gw_sel, hetero,
            node_util, bus_util,
        );
        prop_assert!(cfg.validate().is_ok(), "config invalid: {cfg:?}");

        // deterministic in (cfg, seed)
        let a = generate(&cfg, seed).expect("generate");
        let b = generate(&cfg, seed).expect("generate");
        prop_assert_eq!(&a.app, &b.app, "non-deterministic for seed {}", seed);
        let app = a.app;

        // acyclic and structurally valid
        prop_assert!(app.topological_order().is_ok());
        prop_assert!(app.validate().is_ok());

        // every configured task is emitted and balanced over the nodes;
        // gateway relays (named "_gw") come on top, on gateway nodes only
        let is_relay = |id: ActivityId| app.activity(id).name.contains("_gw");
        let plain_tasks = app
            .ids()
            .filter(|&id| app.activity(id).as_task().is_some() && !is_relay(id))
            .count();
        prop_assert_eq!(plain_tasks, cfg.total_tasks(), "tasks dropped or invented");
        for n in 0..n_nodes {
            let node = NodeId::new(n);
            let on_node = app
                .ids()
                .filter(|&id| {
                    app.activity(id).as_task().map(|t| t.node) == Some(node) && !is_relay(id)
                })
                .count();
            prop_assert_eq!(on_node, tasks_per_node, "node {} unbalanced", n);
        }
        for id in app.ids() {
            if let Some(t) = app.activity(id).as_task() {
                if is_relay(id) {
                    prop_assert!(
                        cfg.gateways.contains(&t.node.index()),
                        "relay '{}' on non-gateway node {}",
                        app.activity(id).name,
                        t.node
                    );
                }
            }
        }

        // every cross-node dependency is carried by exactly one message
        // per hop: task→task edges never cross nodes, and each message
        // links exactly one sender task to exactly one receiver task on
        // a different node
        for (from, to) in app.edges() {
            if let (Some(tf), Some(tt)) = (
                app.activity(*from).as_task(),
                app.activity(*to).as_task(),
            ) {
                prop_assert_eq!(
                    tf.node, tt.node,
                    "cross-node edge {}->{} without a message",
                    app.activity(*from).name, app.activity(*to).name
                );
            }
        }
        for id in app.ids() {
            if app.activity(id).as_message().is_some() {
                prop_assert_eq!(app.preds(id).len(), 1);
                prop_assert_eq!(app.succs(id).len(), 1);
                let sender = app.sender_of(id).expect("sender");
                prop_assert!(!app.receivers_of(id).contains(&sender));
            }
        }

        // per-node utilisation lands inside the configured range
        for (node, u) in app.node_utilisation() {
            prop_assert!(
                (node_util.0 - 0.01..=node_util.1 + 0.01).contains(&u),
                "node {} utilisation {} outside {:?}",
                node, u, node_util
            );
        }

        // bus utilisation lands inside the configured range whenever the
        // 2–254-byte payload clamp permits; outside it, every payload is
        // saturated at the binding bound. `tol` covers the 2-byte
        // payload granularity per message.
        let sizes: Vec<u32> = app
            .ids()
            .filter_map(|id| app.activity(id).as_message().map(|m| m.size_bytes))
            .collect();
        if !sizes.is_empty() {
            let per_granule = (cfg.phy.frame_duration(4) - cfg.phy.frame_duration(2))
                .as_ns() as f64;
            let h = app.hyperperiod().expect("hyperperiod");
            let tol: f64 = app
                .ids()
                .filter(|&id| app.activity(id).as_message().is_some())
                .map(|id| per_granule * (h / app.period_of(id)) as f64)
                .sum::<f64>()
                / h.as_ns() as f64;
            let demand = bus_demand(&app, &cfg.phy);
            if demand > bus_util.1 + 1e-9 {
                prop_assert!(
                    sizes.contains(&2),
                    "demand {} above {:?} without the 2-byte floor binding",
                    demand, bus_util
                );
            } else if demand < bus_util.0 - tol - 1e-9 {
                prop_assert!(
                    sizes.contains(&254),
                    "demand {} below {:?} without the 254-byte cap binding (tol {})",
                    demand, bus_util, tol
                );
            }
        }

        // chain-shaped graphs without relays are exactly as deep as they
        // are long (the v2 "deeper graphs" axis)
        if cfg.shape == flexray::gen::GraphShape::Chain && cfg.gateway_fraction == 0.0 {
            for (gi, graph) in app.graphs().iter().enumerate() {
                let tasks = graph
                    .members
                    .iter()
                    .filter(|&&id| app.activity(id).as_task().is_some())
                    .count();
                let depth = app
                    .task_depth(flexray::model::GraphId::new(gi))
                    .expect("acyclic");
                prop_assert_eq!(depth, tasks, "graph {} not a chain", gi);
            }
        }
    }
}

proptest! {
    // Full analyses per case: keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The incremental, pooled DYN fixed point is bit-identical to the
    /// fresh per-call path: a session-backed DYN-length sweep over
    /// generator-random systems equals a from-scratch `analyse` per
    /// candidate, under both latest-transmission policies.
    #[test]
    fn pooled_dyn_sweep_matches_fresh_analysis(
        n_nodes in 2usize..5,
        seed in 0u64..1000,
        pads in prop::collection::vec(0u32..60, 2..6),
        per_node in any::<bool>(),
    ) {
        use flexray::analysis::LatestTxPolicy;
        use flexray::gen::{generate, GeneratorConfig};
        use flexray::opt::bbc_skeleton;
        let cfg = GeneratorConfig {
            tt_fraction: 0.0,
            ..GeneratorConfig::paper(n_nodes)
        };
        let generated = generate(&cfg, seed).expect("generate");
        let template = bbc_skeleton(&generated.platform, &generated.app, PhyParams::bmw_like());
        let acfg = AnalysisConfig {
            latest_tx: if per_node {
                LatestTxPolicy::PerNode
            } else {
                LatestTxPolicy::PerMessage
            },
            ..AnalysisConfig::default()
        };
        let min = template.min_minislots(&generated.app).max(1);
        let mut session = AnalysisSession::new(
            generated.platform.clone(),
            generated.app.clone(),
            acfg,
        );
        let mut seeded = false;
        for &pad in &pads {
            let mut bus = template.clone();
            bus.n_minislots = min + pad;
            if bus.validate_for(&generated.app, generated.platform.len()).is_err() {
                continue;
            }
            // session path: seed once, then the incremental sweep entry
            let cost = if seeded {
                session.reanalyse_dyn_length(min + pad).expect("reanalyse")
            } else {
                seeded = true;
                session.analyse_into(&bus).expect("analyse_into")
            };
            let sys = System {
                platform: generated.platform.clone(),
                app: generated.app.clone(),
                bus,
            };
            let fresh = analyse(&sys, &acfg).expect("fresh analyse");
            prop_assert_eq!(cost, fresh.cost, "pad {}", pad);
            prop_assert_eq!(session.responses(), &fresh.responses[..], "pad {}", pad);
            prop_assert_eq!(session.diverged(), &fresh.diverged[..], "pad {}", pad);
        }
    }

    /// `dyn_delay_pooled` over one long-lived scratch equals the
    /// fresh-scratch `dyn_delay` on every message of generator-random
    /// systems, across modes, policies and jitter.
    #[test]
    fn pooled_dyn_delay_matches_fresh(
        n_nodes in 2usize..5,
        seed in 0u64..1000,
        pad in 0u32..40,
        exact in any::<bool>(),
        per_node in any::<bool>(),
        jitter_step in 0u32..500,
    ) {
        use flexray::analysis::{
            dyn_delay, dyn_delay_pooled, DynAnalysisMode, DynScratch, LatestTxPolicy,
        };
        use flexray::gen::{generate, GeneratorConfig};
        use flexray::opt::bbc_skeleton;
        let cfg = GeneratorConfig {
            tt_fraction: 0.0,
            ..GeneratorConfig::paper(n_nodes)
        };
        let generated = generate(&cfg, seed).expect("generate");
        let mut bus = bbc_skeleton(&generated.platform, &generated.app, PhyParams::bmw_like());
        bus.n_minislots = bus.min_minislots(&generated.app).max(1) + pad;
        if bus.validate_for(&generated.app, generated.platform.len()).is_err() {
            return Ok(());
        }
        let sys = System {
            platform: generated.platform.clone(),
            app: generated.app.clone(),
            bus,
        };
        let mode = if exact { DynAnalysisMode::Exact } else { DynAnalysisMode::Greedy };
        let policy = if per_node { LatestTxPolicy::PerNode } else { LatestTxPolicy::PerMessage };
        let jitter: Vec<Time> = (0..sys.app.activities().len())
            .map(|i| Time::from_us(f64::from((i as u32 * 37 + jitter_step) % 900)))
            .collect();
        let limit = Time::from_us(1e8);
        let mut scratch = DynScratch::default();
        for m in sys.app.messages_of_class(MessageClass::Dynamic) {
            let fresh = dyn_delay(&sys, m, &jitter, policy, mode, limit);
            let pooled = dyn_delay_pooled(&sys, m, &jitter, policy, mode, limit, &mut scratch);
            prop_assert_eq!(fresh, pooled, "message {}", sys.app.activity(m).name);
        }
    }
}

proptest! {
    // Each case runs several full simulations: keep the case count
    // moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed execution orders are deterministic in
    /// `(system, order seed)`: repeating a run reproduces the report
    /// bit-for-bit, and compression does not change it either.
    #[test]
    fn fuzzed_simulation_is_deterministic(
        tt in any::<bool>(),
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        pad in 0u32..30,
        order_seed in 0u64..u64::MAX,
    ) {
        let Some(sys) = chain_system(tt, wcets, size, 1000, pad) else {
            return Ok(());
        };
        let cfg = |compress: bool| SimConfig {
            reps: 4,
            order: ExecutionOrder::Fuzzed { seed: order_seed },
            compress,
            ..SimConfig::default()
        };
        let a = simulate_configured(&sys, &cfg(false)).expect("simulation");
        let b = simulate_configured(&sys, &cfg(false)).expect("simulation");
        prop_assert_eq!(&a.responses, &b.responses);
        prop_assert_eq!(&a.violations, &b.violations);
        prop_assert_eq!(a.completed_jobs, b.completed_jobs);
        let c = simulate_configured(&sys, &cfg(true)).expect("simulation");
        prop_assert_eq!(&a.responses, &c.responses);
        prop_assert_eq!(&a.violations, &c.violations);
        prop_assert_eq!(a.completed_jobs, c.completed_jobs);
        prop_assert_eq!(
            c.hyperperiods_simulated + c.hyperperiods_skipped,
            a.hyperperiods_simulated
        );
    }

    /// The analysis bounds the simulator under *any* execution order of
    /// simultaneous events, not just the canonical one, and fuzzed runs
    /// of violation-free systems stay violation-free.
    #[test]
    fn analysis_bounds_fuzzed_simulation(
        tt in any::<bool>(),
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        pad in 0u32..30,
    ) {
        let Some(sys) = chain_system(tt, wcets, size, 1000, pad) else {
            return Ok(());
        };
        let analysis = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        for order_seed in [1u64, 2, 3] {
            let report = simulate_configured(
                &sys,
                &SimConfig {
                    order: ExecutionOrder::Fuzzed { seed: order_seed },
                    ..SimConfig::default()
                },
            )
            .expect("simulation");
            prop_assert!(
                report.violations.is_empty(),
                "order seed {}: {:?}",
                order_seed,
                report.violations
            );
            for id in sys.app.ids() {
                if let Some(observed) = report.response(id) {
                    prop_assert!(
                        observed <= analysis.response(id),
                        "order seed {}: '{}': observed {} > WCRT {}",
                        order_seed,
                        sys.app.activity(id).name,
                        observed,
                        analysis.response(id)
                    );
                }
            }
        }
    }

    /// Hyperperiod compression is exact: the compressed run reports the
    /// same worst-case latencies, violations and job counts as the
    /// uncompressed one over the same horizon.
    #[test]
    fn compression_preserves_the_report(
        tt in any::<bool>(),
        wcets in prop::collection::vec(1u32..40, 2..5),
        size in 1u32..8,
        pad in 0u32..30,
        fuzz_seed in 0u64..4,
    ) {
        let Some(sys) = chain_system(tt, wcets, size, 1000, pad) else {
            return Ok(());
        };
        // seed 0 doubles as "canonical order"
        let order = if fuzz_seed == 0 {
            ExecutionOrder::Canonical
        } else {
            ExecutionOrder::Fuzzed { seed: fuzz_seed }
        };
        let run = |compress: bool| {
            simulate_configured(
                &sys,
                &SimConfig {
                    reps: 8,
                    order,
                    compress,
                    ..SimConfig::default()
                },
            )
            .expect("simulation")
        };
        let slow = run(false);
        let fast = run(true);
        prop_assert_eq!(&slow.responses, &fast.responses);
        prop_assert_eq!(&slow.violations, &fast.violations);
        prop_assert_eq!(slow.completed_jobs, fast.completed_jobs);
        prop_assert_eq!(slow.total_jobs, fast.total_jobs);
        prop_assert_eq!(slow.hyperperiods_simulated, 8);
        prop_assert_eq!(slow.hyperperiods_skipped, 0);
        prop_assert_eq!(
            fast.hyperperiods_simulated + fast.hyperperiods_skipped,
            8
        );
    }
}

proptest! {
    // fig9 runs all four optimisers per application: keep the case count
    // low and the configuration tiny.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The parallel fig9 per-seed loop reproduces the serial run exactly
    /// on every deterministic output, for arbitrary base seeds.
    #[test]
    fn fig9_parallel_equals_serial(seed0 in 0u64..10_000) {
        use flexray_bench::grid::{run_grid, GridConfig};
        let serial_cfg = GridConfig {
            apps_per_point: 3,
            params: OptParams {
                max_extra_slots: 2,
                max_slot_len_steps: 3,
                max_dyn_candidates: 24,
                dyn_step: 32,
                ..OptParams::default()
            },
            sa: SaParams { iterations: 25, ..SaParams::default() },
            seed0,
            threads: 1,
            ..flexray_bench::fig9::preset(vec![2])
        };
        let parallel_cfg = GridConfig { threads: 3, ..serial_cfg.clone() };
        let serial = run_grid(&serial_cfg).expect("serial run");
        let parallel = run_grid(&parallel_cfg).expect("parallel run");
        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert!(
                s.deterministic_eq(p),
                "seed0 {}: serial {:?} vs parallel {:?}",
                seed0, s, p
            );
        }
    }
}
