//! `compare <setA> <setB>`: judge two sets of result records (the JSON lines
//! `run --record` appends), per workload × end-to-end metric.
//!
//! A set is several runs of one commit. For each side the median and the
//! quartiles are printed; *spread* is the quartile distance as a share of
//! the median, taken as Python's `statistics.quantiles(n=4)` takes it. The
//! verdict follows the rule the benchmark's bounds exist for:
//!
//! * `unresolved` — a side's spread is wider than the bound, so the medians
//!   cannot tell a regression of that size from noise (unless every run of B
//!   beats every run of A, which is `better` whatever the spread);
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B's median is better by more than either side's quartile distance;
//! * `within` — anything else.
//!
//! Per-layer metrics marked *exact* in the tables must be identical in every
//! traced record of a seeded single-threaded workload, across both sets and
//! all runs of one seed; they are listed only when they differ.

use std::collections::BTreeMap;
use std::path::Path;

use crate::kit::{median, quartiles, Json};
use crate::spec::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

/// workload → end-to-end metric → one value per run.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
/// (workload, seed) → exact per-layer metric → one value per traced run.
type Exact = BTreeMap<(String, String), BTreeMap<String, Vec<f64>>>;

fn load(path: &Path, values: &mut Values, exact: &mut Exact) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{}:{}", path.display(), i + 1);
        let rec = Json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let field = |k: &str| rec.get(k).ok_or(format!("{at}: no \"{k}\""));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_str().unwrap_or_default().to_string();
        if field("smoke")? == &Json::Bool(true) {
            return Err(format!("{at}: smoke records are not measurements"));
        }
        // End-to-end figures come from untraced runs only (a traced run also
        // holds spans and probe fixtures in memory); exact counters from
        // traced ones, the only records that carry them.
        let traced = field("trace")? == &Json::Bool(true);
        let Json::Obj(metrics) = field("metrics")? else {
            return Err(format!("{at}: \"metrics\" is not an object"));
        };
        for (name, m) in metrics {
            let Some(v) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let per_metric = if END_TO_END.iter().any(|e| e.name == name) {
                if traced {
                    continue;
                }
                values.entry(workload.clone()).or_default()
            } else if PER_LAYER.iter().any(|l| l.name == name && l.exact) {
                exact.entry((workload.clone(), seed.clone())).or_default()
            } else {
                continue;
            };
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(())
}

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(xs: &[f64]) -> Side {
        let (q1, q3) = if xs.len() >= 2 {
            quartiles(xs)
        } else {
            (xs[0], xs[0])
        };
        Side {
            median: median(xs),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

pub fn verdict(a: &[f64], b: &[f64], m: &EndToEnd) -> &'static str {
    let (better, bound) = (m.better, m.bound);
    let (sa, sb) = (Side::of(a), Side::of(b));
    // Positive = B is worse, as a share of A's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (sb.median - sa.median) / sa.median;
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        "better"
    } else if m.spread_gated && (sa.spread() > bound || sb.spread() > bound) {
        "unresolved"
    } else if worsening > bound {
        "worse"
    } else if -worsening * sa.median > (sa.q3 - sa.q1).max(sb.q3 - sb.q1) {
        "better"
    } else {
        "within"
    }
}

/// Print the comparison; `Ok(true)` when nothing is `worse`, `unresolved` or
/// differing — the A/A criterion.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (mut a, mut b, mut exact) = (Values::new(), Values::new(), Exact::new());
    load(a_path, &mut a, &mut exact)?;
    load(b_path, &mut b, &mut exact)?;
    let mut clean = true;
    println!(
        "{:<18} {:<12} {:>13} {:>24} {:>13} {:>24} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "bound"
    );
    for w in &WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for e in &END_TO_END {
            let (Some(xa), Some(xb)) = (ma.get(e.name), mb.get(e.name)) else {
                continue;
            };
            let (sa, sb) = (Side::of(xa), Side::of(xb));
            let v = verdict(xa, xb, e);
            clean &= matches!(v, "within" | "better");
            println!(
                "{:<18} {:<12} {:>13.4} [{:>10.4}, {:>10.4}] {:>13.4} [{:>10.4}, {:>10.4}] {:>6.2}  {v} (n={}/{}, spread {:.1}%/{:.1}%)",
                w.name, e.name, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, e.bound,
                xa.len(), xb.len(), 100.0 * sa.spread(), 100.0 * sb.spread(),
            );
        }
    }
    for ((workload, seed), metrics) in &exact {
        if !WORKLOADS.iter().any(|w| w.name == workload && w.exact) {
            continue;
        }
        for (name, xs) in metrics {
            if xs.iter().any(|x| x != &xs[0]) {
                clean = false;
                println!("{workload:<18} {name} differs between runs of seed {seed}: {xs:?}");
            }
        }
    }
    println!(
        "exact per-layer metrics: {} (workload, seed) groups checked",
        exact.len()
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, spread_gated: bool) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "us",
            better,
            bound: 0.05,
            spread_gated,
            what: "",
        }
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = metric(Better::Lower, true);
        let v = |b: &[f64]| verdict(&a, b, &lower);
        assert_eq!(v(&[100.2, 100.9, 99.1, 100.4, 99.6]), "within");
        assert_eq!(v(&[110.0, 111.0, 109.0, 110.5, 109.5]), "worse");
        assert_eq!(v(&[90.0, 91.0, 89.0, 90.5, 89.5]), "better");
        // Spread wider than the bound hides a regression of that size…
        let wide = [90.0, 120.0, 100.0, 110.0, 95.0];
        assert_eq!(v(&wide), "unresolved");
        // …unless every run of B beats every run of A…
        assert_eq!(v(&[50.0, 80.0, 60.0, 70.0, 55.0]), "better");
        // …or the metric is judged on its median only.
        assert_eq!(verdict(&a, &wide, &metric(Better::Lower, false)), "within");
        // Higher is better: the same numbers flip.
        let higher = metric(Better::Higher, true);
        let up = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(verdict(&a, &up, &higher), "better");
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0, 90.5, 89.5], &higher),
            "worse"
        );
    }
}
