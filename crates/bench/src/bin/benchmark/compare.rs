//! `--compare A.json B.json`: the before/after judgement.
//!
//! Reads two result sets written by the suite and decides, per workload
//! and end-to-end metric, whether B is no worse than A by more than the
//! metric's bound. A is the base of every ratio. A metric whose
//! run-to-run spread exceeds its bound is `unresolved`, never `ok`.

use midway_bench::Json;

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub base: f64,
    pub other: f64,
    /// `other / base`.
    pub ratio: f64,
    /// The wider of the two sides' interquartile spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges one metric on one workload from each side's per-run values.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Row {
    let (base, other) = (median(a), median(b));
    let worse_by = match metric.better {
        "lower" => (other - base) / base.abs(),
        _ => (base - other) / base.abs(),
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        base,
        other,
        ratio: other / base,
        spread,
        verdict,
    }
}

struct Side {
    json: Json,
    path: String,
}

impl Side {
    fn load(path: &str) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if json.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path} is a smoke result set (or not a result set): never comparable"
            ));
        }
        Ok(Side {
            json,
            path: path.to_string(),
        })
    }

    fn runs(&self, workload: &str) -> &[Json] {
        self.json
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("runs"))
            .map(Json::items)
            .unwrap_or_default()
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs(workload)
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// `(failed, attempted)` operations over every run of every workload.
    fn failures(&self) -> (u64, u64) {
        let Some(Json::Obj(workloads)) = self.json.get("workloads") else {
            return (0, 0);
        };
        let mut total = (0, 0);
        for (_, w) in workloads {
            for run in w.get("runs").map(Json::items).unwrap_or_default() {
                total.0 += run.get("ops_failed").and_then(Json::as_u64).unwrap_or(0);
                total.1 += run.get("ops").and_then(Json::as_u64).unwrap_or(0);
            }
        }
        total
    }
}

/// Prints the verdict table; `Ok(true)` when B holds against A.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (Side::load(path_a)?, Side::load(path_b)?);
    let Some(Json::Obj(workloads)) = a.json.get("workloads") else {
        return Err(format!("{path_a} has no workloads"));
    };
    println!("base A = {}, B = {}", a.path, b.path);
    println!(
        "{:<14} {:<12} {:>3} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "n", "median A", "median B", "B/A", "bound", "spread"
    );
    let mut holds = true;
    for (workload, _) in workloads {
        for metric in &END_TO_END {
            let (va, vb) = (
                a.values(workload, metric.name),
                b.values(workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {:<12} missing on one side", metric.name);
                holds = false;
                continue;
            }
            let row = judge(metric, &va, &vb);
            holds &= row.verdict != Verdict::Regressed;
            println!(
                "{workload:<14} {:<12} {:>3} {:>12.4} {:>12.4} {:>8.4} {:>6.0}% {:>7.1}%  {}",
                metric.name,
                va.len().min(vb.len()),
                row.base,
                row.other,
                row.ratio,
                metric.bound * 100.0,
                row.spread * 100.0,
                row.verdict.label()
            );
        }
    }
    let ((fa, na), (fb, nb)) = (a.failures(), b.failures());
    println!("failed operations: A {fa}/{na}, B {fb}/{nb}");
    // Cross-multiplied shares: B may not fail a larger share than A.
    if u128::from(fb) * u128::from(na) > u128::from(fa) * u128::from(nb) {
        println!("B fails a higher share of operations than A");
        holds = false;
    }
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, wobble: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + wobble * (f64::from(i) - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn verdict_table_on_hand_made_inputs() {
        let m = &EndToEnd {
            name: "host_s",
            unit: "s",
            better: "lower",
            bound: 0.10,
        };
        let base = around(1.0, 0.01);

        let same = judge(m, &base, &around(1.0, 0.01));
        assert_eq!(same.verdict, Verdict::Ok);
        assert!((same.ratio - 1.0).abs() < 1e-9);

        assert_eq!(judge(m, &base, &around(1.08, 0.01)).verdict, Verdict::Ok);
        assert_eq!(
            judge(m, &base, &around(1.12, 0.01)).verdict,
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(judge(m, &base, &around(0.5, 0.01)).verdict, Verdict::Ok);
        // Spread wider than the bound on either side: no verdict either way.
        assert_eq!(
            judge(m, &base, &around(1.0, 0.2)).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(m, &around(1.0, 0.2), &around(1.5, 0.01)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let m = EndToEnd {
            name: "throughput",
            unit: "1/s",
            better: "higher",
            bound: 0.10,
        };
        assert_eq!(judge(&m, &[100.0], &[95.0]).verdict, Verdict::Ok);
        assert_eq!(judge(&m, &[100.0], &[85.0]).verdict, Verdict::Regressed);
        assert_eq!(judge(&m, &[100.0], &[150.0]).verdict, Verdict::Ok);
    }
}
