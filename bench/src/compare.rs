//! `suite` runs every workload several times, one process per run, and
//! writes the set of results; `compare` judges two such sets against the
//! per-metric bounds of `BENCHMARK.json`.

use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::{json, Map, Value};

use crate::json::{compact, parse, pretty, ValueExt};
use crate::stats::{quartiles, spread};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// The parts of `BENCHMARK.json` the tools read.
pub struct BenchFile {
    pub workloads: Vec<String>,
    /// Each end-to-end metric with its bound.
    pub end_to_end: Vec<(Declared, f64)>,
    pub per_layer: Vec<Declared>,
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

impl BenchFile {
    pub fn load(path: &Path) -> Result<BenchFile, String> {
        let root = load(path)?;
        let list = |key: &str| root.get(key).map(Value::items).ok_or(format!("{key} missing"));
        let text = |item: &Value, key: &str| {
            let field = item.get(key).and_then(Value::as_str);
            field.map(str::to_string).ok_or(format!("an entry of {path:?} has no {key}"))
        };
        let declared = |item: &Value| -> Result<Declared, String> {
            Ok(Declared {
                name: text(item, "name")?,
                unit: text(item, "unit")?,
                better: text(item, "better")?,
            })
        };
        let bounded = |item: &Value| -> Result<(Declared, f64), String> {
            let bound = item.get("bound").and_then(Value::as_f64);
            Ok((declared(item)?, bound.ok_or("an end_to_end entry has no bound")?))
        };
        Ok(BenchFile {
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?.iter().map(bounded).collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?.iter().map(declared).collect::<Result<_, _>>()?,
        })
    }
}

/// Run this executable once as `run …` and parse its result line; what the
/// run says on stderr goes to this process's stderr.
fn run_once(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result =
        parse(line).map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if !output.status.success() {
        eprintln!("{workload} seed {seed} exited with {}: {line}", output.status);
    }
    Ok(result)
}

/// Runs per workload in a set, as the acceptance driver makes them; run `i`
/// takes seed `i` (1-based).
const RUNS: u64 = 10;

/// A set of results: every workload [`RUNS`] times, each run its own process
/// and its own seed, for `run_seconds` each, then one traced run per
/// workload for the per-layer numbers. Workloads alternate within a round,
/// so slow drift of the machine lands on all of them alike.
pub fn suite(workloads: &[String], out: &Path) -> Result<(), String> {
    let seconds = crate::DEFAULT_SECONDS;
    let seeds: Vec<u64> = (1..=RUNS).collect();
    let mut results: Vec<Vec<Value>> = vec![Vec::new(); workloads.len()];
    for &seed in &seeds {
        for (w, name) in workloads.iter().enumerate() {
            let result = run_once(name, seed, seconds, false)?;
            eprintln!("{name} seed {seed}: {}", compact(&result));
            results[w].push(result);
        }
    }
    let mut by_workload = Map::new();
    for (name, runs) in workloads.iter().zip(&results) {
        let mut end_to_end = Map::new();
        for (metric, first) in runs[0].get("metrics").map(Value::entries).unwrap_or_default() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .collect();
            let mut entry = Map::new();
            entry.insert("unit".into(), first.get("unit").cloned().unwrap_or(Value::Null));
            if let Some([q1, q2, q3]) = quartiles(&values) {
                entry.insert("median".into(), json!(q2));
                entry.insert("q1".into(), json!(q1));
                entry.insert("q3".into(), json!(q3));
                entry.insert("spread".into(), json!(spread(&values)));
            }
            entry.insert("samples".into(), json!(values.len()));
            entry.insert("values".into(), json!(values));
            end_to_end.insert(metric.clone(), Value::Object(entry));
        }
        let outcomes: Vec<Value> = runs
            .iter()
            .zip(&seeds)
            .map(|(run, &seed)| {
                let field = |key: &str| run.get(key).cloned().unwrap_or(Value::Null);
                json!({
                    "seed": seed,
                    "correct": field("correct"),
                    "attempted": field("attempted"),
                    "failed": field("failed"),
                })
            })
            .collect();
        let mut entry = Map::new();
        entry.insert("runs".into(), Value::Array(outcomes));
        entry.insert("end_to_end".into(), Value::Object(end_to_end));
        let traced = run_once(name, 1, seconds, true)?;
        let mut per_layer = Map::new();
        for (metric, v) in traced.get("metrics").map(Value::entries).unwrap_or_default() {
            per_layer.insert(metric.clone(), v.get("value").cloned().unwrap_or(Value::Null));
        }
        entry.insert("per_layer".into(), Value::Object(per_layer));
        by_workload.insert(name.clone(), Value::Object(entry));
    }
    let root = json!({
        "seconds": seconds,
        "seeds": seeds,
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "workloads": by_workload,
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, pretty(&root) + "\n").map_err(|e| format!("write {}: {e}", out.display()))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judge `new` against `base`. `worse_by` is the share of the base median
/// by which the new median is worse (negative when it is better). A spread
/// wider than the bound cannot show "same": the metric is unresolved unless
/// the change is beyond both the bound and the spread.
pub fn verdict(base: f64, new: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if base == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better { (base - new) / base } else { (new - base) / base };
    let limit = bound.max(spread);
    if worse_by > limit {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by < -limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per (workload, metric): base, new, ratio, spread, verdict.
/// Returns whether any row is `worse`.
pub fn compare(bench: &BenchFile, base: &Path, new: &Path) -> Result<bool, String> {
    let (base, new) = (load(base)?, load(new)?);
    let mut any_worse = false;
    println!(
        "{:<18} {:<20} {:>12} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "spread", "bound"
    );
    for workload in &bench.workloads {
        for (Declared { name: metric, better, .. }, bound) in &bench.end_to_end {
            let stat = |set: &Value, key: &str| -> Option<f64> {
                set.get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get(key)?
                    .as_f64()
            };
            let (Some(b), Some(n)) = (stat(&base, "median"), stat(&new, "median")) else {
                println!("{workload:<18} {metric:<20} missing from one of the sets");
                continue;
            };
            let spread =
                stat(&base, "spread").unwrap_or(0.0).max(stat(&new, "spread").unwrap_or(0.0));
            let v = verdict(b, n, better == "higher", *bound, spread);
            any_worse |= v == Verdict::Worse;
            println!(
                "{workload:<18} {metric:<20} {b:>12.4} {n:>12.4} {:>7.3} {spread:>7.3} {bound:>6.3}  {}",
                n / b,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_never_calls_a_noisy_metric_same() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(100.0, 104.0, false, 0.10, 0.03), Verdict::Same);
        assert_eq!(verdict(100.0, 115.0, false, 0.10, 0.03), Verdict::Worse);
        assert_eq!(verdict(100.0, 80.0, false, 0.10, 0.03), Verdict::Better);
        // Spread wider than the bound: unresolved, unless beyond the spread.
        assert_eq!(verdict(100.0, 104.0, false, 0.10, 0.20), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 115.0, false, 0.10, 0.20), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 130.0, false, 0.10, 0.20), Verdict::Worse);
        // Higher is better.
        assert_eq!(verdict(0.90, 0.80, true, 0.01, 0.0), Verdict::Worse);
        assert_eq!(verdict(0.90, 0.90, true, 0.01, 0.0), Verdict::Same);
        assert_eq!(verdict(1000.0, 1200.0, true, 0.07, 0.02), Verdict::Better);
    }
}
