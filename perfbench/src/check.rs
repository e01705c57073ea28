//! Correctness checks the benchmark applies to the program's outputs.
//! Every mismatch is counted as a failed operation and fails the run.

use flexray_analysis::Cost;
use flexray_bench::fuzz::FuzzPoint;
use flexray_bench::grid::GridPoint;
use flexray_bench::report::point_from_line;

/// Failed-operation bookkeeping: how many operations were attempted,
/// how many failed, and the first few failure messages.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages, for the error report.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Counts one attempted operation and records its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Adds another ledger's counts.
    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// The cost an optimiser reported must be the cost a fresh analysis of
/// its configuration gives.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_cost(what: &str, reported: Cost, reanalysed: Cost) -> Result<(), String> {
    if reported == reanalysed {
        Ok(())
    } else {
        Err(format!(
            "{what}: reported cost {reported:?} but re-analysis gives {reanalysed:?}"
        ))
    }
}

/// A grid report (header line, then one point per line) must carry
/// `header` and points equal to `reference` on every deterministic
/// field (wall-clock times excluded).
///
/// # Errors
///
/// Names the first line that differs.
pub fn check_grid_report(text: &str, header: &str, reference: &[GridPoint]) -> Result<(), String> {
    let mut lines = text.lines();
    if lines.next() != Some(header) {
        return Err("grid report header differs from the reference header".to_owned());
    }
    let points: Vec<&str> = lines.collect();
    if points.len() != reference.len() {
        return Err(format!(
            "grid report has {} points, reference has {}",
            points.len(),
            reference.len()
        ));
    }
    for (i, (line, want)) in points.iter().zip(reference).enumerate() {
        let got = point_from_line(line).map_err(|e| format!("grid report point {i}: {e}"))?;
        if !got.deterministic_eq(want) {
            return Err(format!("grid report point {i} differs from the reference"));
        }
    }
    Ok(())
}

/// A fuzz report must be byte-identical to `header` plus the
/// reference points' lines.
///
/// # Errors
///
/// Names the first line that differs.
pub fn check_fuzz_report(text: &str, header: &str, reference: &[FuzzPoint]) -> Result<(), String> {
    let mut lines = text.lines();
    if lines.next() != Some(header) {
        return Err("fuzz report header differs from the reference header".to_owned());
    }
    let got: Vec<&str> = lines.collect();
    if got.len() != reference.len() {
        return Err(format!(
            "fuzz report has {} points, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (line, want)) in got.iter().zip(reference).enumerate() {
        let want = want.to_line().map_err(|e| e.to_string())?;
        if *line != want {
            return Err(format!("fuzz report point {i} differs from the reference"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_bench::fuzz::{run_fuzz, FuzzConfig};
    use flexray_bench::grid::{run_grid, GridConfig};
    use flexray_bench::report::{point_to_line, GridReportHeader};
    use flexray_bench::sweep::{search_mode, Algo, SweepAxis};

    fn smoke_grid() -> GridConfig {
        let (params, sa) = search_mode("smoke").expect("smoke mode");
        GridConfig {
            axes: vec![SweepAxis::NodeCount(vec![2])],
            apps_per_point: 2,
            algos: vec![Algo::Bbc, Algo::ObcCf],
            params,
            sa,
            threads: 1,
            ..GridConfig::default()
        }
    }

    fn grid_report(cfg: &GridConfig, points: &[GridPoint]) -> String {
        let mut text = GridReportHeader::of(cfg).to_line().expect("header");
        for p in points {
            text.push('\n');
            text.push_str(&point_to_line(p).expect("point"));
        }
        text
    }

    #[test]
    fn cost_check_rejects_any_difference() {
        let c = Cost { f1: 0.0, f2: -12.5 };
        assert!(check_cost("x", c, c).is_ok());
        assert!(check_cost("x", Cost::infeasible(), Cost::infeasible()).is_ok());
        let err = check_cost(
            "app 3 BBC",
            c,
            Cost {
                f1: 0.0,
                f2: -12.25,
            },
        )
        .unwrap_err();
        assert!(err.starts_with("app 3 BBC"), "{err}");
    }

    #[test]
    fn grid_check_accepts_the_reference_and_rejects_a_perturbed_report() {
        let cfg = smoke_grid();
        let points = run_grid(&cfg).expect("grid runs");
        let header = GridReportHeader::of(&cfg).to_line().expect("header");
        let good = grid_report(&cfg, &points);
        assert_eq!(check_grid_report(&good, &header, &points), Ok(()));

        let mut perturbed = points.clone();
        perturbed[0].algos[1].1.schedulable ^= 1;
        let bad = grid_report(&cfg, &perturbed);
        let err = check_grid_report(&bad, &header, &points).unwrap_err();
        assert!(err.contains("point 0"), "{err}");

        let truncated: String = good.lines().take(1).collect();
        assert!(check_grid_report(&truncated, &header, &points).is_err());
        assert!(check_grid_report(&good, "{}", &points).is_err());
    }

    #[test]
    fn fuzz_check_accepts_the_reference_and_rejects_a_perturbed_report() {
        let (params, _) = search_mode("smoke").expect("smoke mode");
        let cfg = FuzzConfig {
            axes: vec![SweepAxis::NodeCount(vec![2])],
            apps_per_point: 1,
            order_seeds: vec![1],
            reps: 2,
            params,
            threads: 1,
            ..FuzzConfig::default()
        };
        let points = run_fuzz(&cfg, |_| {}).expect("fuzz runs");
        let header = cfg.header_line().expect("header");
        let line = points[0].to_line().expect("line");
        let good = format!("{header}\n{line}\n");
        assert_eq!(check_fuzz_report(&good, &header, &points), Ok(()));

        let mut perturbed = points[0].clone();
        perturbed.runs += 1;
        let bad = format!("{header}\n{}\n", perturbed.to_line().expect("line"));
        assert!(check_fuzz_report(&bad, &header, &points)
            .unwrap_err()
            .contains("point 0"));
    }

    #[test]
    fn ledger_counts_attempts_and_failures() {
        let mut l = Ledger::default();
        l.record(Ok(()));
        l.record(Err("boom".into()));
        let mut other = Ledger::default();
        other.record(Err("bang".into()));
        l.absorb(other);
        assert_eq!((l.attempted, l.failed), (3, 2));
        assert_eq!(l.messages, vec!["boom".to_owned(), "bang".to_owned()]);
    }
}
