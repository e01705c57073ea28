//! Sample statistics and the result line the benchmark prints.

use std::fmt::Write as _;

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing distribution: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic reported.
    pub value: f64,
    /// Its percentile rank in `[0, 100]`.
    pub percentile: f64,
}

/// The highest order statistic with at least [`TAIL_BEYOND`] samples
/// above it: `x[n - 11]` of the ascending samples, at percentile rank
/// `100 · (n - 11) / (n - 1)`. The rank moves smoothly with `n` instead
/// of jumping between fixed rungs (p90, p99), so runs whose sample
/// counts differ slightly report comparable tails. `None` below
/// `TAIL_BEYOND + 1` samples, where no such percentile exists.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted[k],
        percentile: 100.0 * k as f64 / (n - 1) as f64,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name, or a non-finite value —
    /// both are bugs in the benchmark, not in the measured program.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name '{name}'");
        assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric '{name}' recorded twice"
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Keeps only the named metrics, in the given order.
    ///
    /// # Errors
    ///
    /// Names the first metric of `names` that was never recorded or was
    /// recorded with another unit.
    pub fn select(&self, names: &[(&str, &str)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &(name, want) in names {
            let (_, value, unit) = self
                .entries
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if *unit != want {
                return Err(format!("metric '{name}' is in {unit}, not {want}"));
            }
            out.entries.push((name.to_owned(), *value, unit));
        }
        Ok(out)
    }

    /// Human-readable lines, one metric each.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<34} {value:>14.6} {unit}");
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, every value printed with all its digits.
    #[must_use]
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Names and units are restricted to characters JSON needs
            // no escape for; `{:?}` of a finite f64 keeps every digit
            // and always carries a decimal point or exponent.
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "no percentile has ten samples beyond it");

        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(t.value, 0.0, "only the minimum has ten samples beyond it");
        assert_eq!(t.percentile, 0.0);

        // 0..=100 shuffled: x[90] = 90 has exactly ten samples (91..=100)
        // beyond it, at rank 90 of 100.
        let mut hundred_one: Vec<f64> = (0..=100).map(f64::from).collect();
        hundred_one.reverse();
        let t = tail(&hundred_one).expect("tail exists");
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let beyond = hundred_one.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_counts_ties_as_samples() {
        let mut samples = vec![5.0; 20];
        samples.extend([9.0; 3]);
        let t = tail(&samples).expect("tail exists");
        assert_eq!(t.value, 5.0, "x[12] of 23 samples is still in the 5.0 run");
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for good in [
            "setup_s",
            "call_ms.p50",
            "opt.obccf.busy_s",
            "a",
            "9-lives",
            "x_y.z-1",
        ] {
            assert!(valid_metric_name(good), "{good} should be valid");
        }
        let too_long = "m".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "-lead",
            "has space",
            "slash/no",
            "ü",
            &too_long,
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be rejected");
        }
        assert!(valid_metric_name(&"m".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_an_invalid_name() {
        Metrics::default().put("bad name", 1.0, "s");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn metrics_reject_a_repeated_name() {
        let mut m = Metrics::default();
        m.put("run_s", 1.0, "s");
        m.put("run_s", 2.0, "s");
    }

    #[test]
    fn result_line_is_one_json_object_with_full_digits() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.2034567891, "ms");
        m.put("count", 3.0, "count");
        assert_eq!(
            m.result_line(true, 7, 0),
            "{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.2034567891,\"unit\":\"ms\"},\
             \"count\":{\"value\":3.0,\"unit\":\"count\"}}}"
        );
        assert!(m.select(&[("count", "count")]).is_ok());
        assert_eq!(
            m.select(&[("missing", "s")]).unwrap_err(),
            "metric 'missing' was not measured"
        );
        assert!(m.select(&[("count", "s")]).is_err(), "units must match");
    }
}
