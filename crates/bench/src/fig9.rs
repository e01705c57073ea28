//! Fig. 9 — evaluation of the bus optimisation algorithms.
//!
//! Synthetic systems of 2–7 nodes (sets of applications per node count)
//! are optimised with BBC, OBCCF, OBCEE and SA. The left chart of Fig. 9
//! reports the average percentage deviation of the cost function from
//! the SA reference; the right chart reports run times.
//!
//! Expected shape (the paper's claims): BBC runs in near-zero time but
//! stops finding schedulable configurations as systems grow; OBCCF and
//! OBCEE stay within a few percent of SA; OBCCF is much faster than
//! OBCEE.
//!
//! # The preset
//!
//! Fig. 9 is a degenerate grid: [`preset`] is the one-axis node-count
//! [`GridConfig`] over the paper configuration, run by
//! [`run_grid`](crate::grid::run_grid) and rendered by [`render`]. Its
//! [`SeedPolicy::PointOffsets`] keeps fig9's historical seed schedule:
//! application `i` of node count `n` uses `seed0 + 1000·n + i`, seeded
//! by *node count* rather than point index. The `fig9` binary and
//! `fig9` serve jobs reach it through the shared argument grammar
//! ([`crate::args`]).
//!
//! # Parallelism
//!
//! The applications of one point are embarrassingly parallel: every
//! `(point, seed)` pair is one unit on the grid engine's work-stealing
//! pool, and results merge by index — so every deterministic output
//! (costs, chosen configurations, schedulability counts, deviations,
//! evaluation counts) is bit-identical to a serial run
//! (`threads = 1`). Only the measured wall-clock times differ, as they
//! do between any two runs.

use crate::grid::{GridConfig, GridPoint, SeedPolicy};
use crate::sweep::{Algo, SweepAxis};
use flexray_gen::GeneratorConfig;
use flexray_opt::{OptParams, SaParams};

/// The node counts fig9 plots by default (the paper generates sets
/// for 2–7 and plots 2–5).
pub const NODE_COUNTS: [usize; 4] = [2, 3, 4, 5];

/// The Fig. 9 experiment over `node_counts`: the paper configuration
/// per node count, 5 applications per point (the paper uses 25), all
/// four algorithms with SA as the deviation reference, full search
/// parameters, `seed0 = 42`, all cores.
#[must_use]
pub fn preset(node_counts: Vec<usize>) -> GridConfig {
    GridConfig {
        // paper(n) differs from any other paper(k) only in the node
        // count, so the node-count axis over a paper base reproduces it
        base: GeneratorConfig::paper(2),
        seed_policy: SeedPolicy::PointOffsets(
            node_counts
                .iter()
                .map(|&n| 1000u64.wrapping_mul(n as u64))
                .collect(),
        ),
        axes: vec![SweepAxis::NodeCount(node_counts)],
        workload: None,
        apps_per_point: 5,
        algos: Algo::ALL.to_vec(),
        params: OptParams::default(),
        sa: SaParams::default(),
        seed0: 42,
        threads: 0,
    }
}

/// Renders the two Fig. 9 panels of a [`preset`] run as text tables.
#[must_use]
pub fn render(points: &[GridPoint]) -> String {
    let mut rows_left = Vec::new();
    let mut rows_right = Vec::new();
    for p in points {
        let nodes = p.coords.first().map_or("-", |(_, n)| n.as_str());
        for (name, s) in &p.algos {
            rows_left.push(vec![
                nodes.to_owned(),
                name.clone(),
                format!("{}/{}", s.schedulable, s.total),
                format!("{:+.2}", s.avg_deviation_pct),
            ]);
            rows_right.push(vec![
                nodes.to_owned(),
                name.clone(),
                format!("{:.3}", s.avg_time_s),
                format!("{:.0}", s.avg_evaluations),
            ]);
        }
    }
    format!(
        "Fig. 9 (left): schedulability degree (% deviation vs SA)\n{}\n\
         Fig. 9 (right): run times\n{}",
        crate::render_table(
            &["nodes", "algorithm", "schedulable", "avg %dev vs SA"],
            &rows_left
        ),
        crate::render_table(
            &["nodes", "algorithm", "avg time (s)", "avg analyses"],
            &rows_right
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run_grid;

    fn fast_cfg(node_counts: Vec<usize>) -> GridConfig {
        let (params, sa) = crate::sweep::search_mode("smoke").expect("known mode");
        GridConfig {
            apps_per_point: 1,
            params,
            sa,
            seed0: 7,
            threads: 1,
            ..preset(node_counts)
        }
    }

    #[test]
    fn tiny_experiment_runs_end_to_end() {
        let points = run_grid(&fast_cfg(vec![2])).expect("experiment runs");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].algos.len(), 4);
        let text = render(&points);
        assert!(text.contains("OBCCF"));
        assert!(text.contains("BBC"));
    }

    #[test]
    fn parallel_equals_serial() {
        let serial_cfg = GridConfig {
            apps_per_point: 4,
            ..fast_cfg(vec![2, 3])
        };
        let parallel_cfg = GridConfig {
            threads: 4,
            ..serial_cfg.clone()
        };
        let serial = run_grid(&serial_cfg).expect("serial run");
        let parallel = run_grid(&parallel_cfg).expect("parallel run");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert!(
                s.deterministic_eq(p),
                "serial {s:?} vs parallel {p:?} diverged"
            );
        }
    }

    #[test]
    fn worker_threads_resolution() {
        let mut cfg = fast_cfg(vec![2]);
        cfg.threads = 3;
        assert_eq!(cfg.worker_threads(), 3);
        cfg.threads = 0;
        assert!(cfg.worker_threads() >= 1);
    }
}
