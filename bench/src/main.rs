//! The repository's benchmark: wire-to-top-k serving and ROI training, with
//! per-layer stage replay. See `bench/README.md`.
//!
//! ```text
//! zoomer-perfbench run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! zoomer-perfbench smoke [--check BENCHMARK.json]
//! zoomer-perfbench suite --out <file>
//! zoomer-perfbench compare <base.json> <new.json>
//! ```

// The repository's clippy.toml bans `expect`/`unwrap` for the serving hot
// path and applies to every package under the root; this one is a
// measuring tool whose tests use them like any other test code.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod check;
mod compare;
mod gen;
mod json;
mod loadgen;
mod metrics;
mod probe;
mod scale;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

use compare::{BenchFile, Declared};
use metrics::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use scale::Scale;

/// What one run measured and whether it may be trusted.
pub struct RunOutcome {
    pub metrics: Metrics,
    /// Rows (or training steps) attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks and reasons the run is invalid; empty = correct.
    pub problems: Vec<String>,
}

/// How long one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 16.0;

/// Where a traced run writes its spans, relative to the directory the
/// benchmark is run from (the root of the checkout).
const OUT_DIR: &str = "bench/out";

/// The contract the tools check names and read bounds from, relative to the
/// same directory.
const BENCH_FILE: &str = "BENCHMARK.json";

fn workload_names() -> Vec<String> {
    serve::WORKLOADS.iter().map(|w| w.name).chain([train::NAME]).map(str::to_string).collect()
}

fn run_workload(
    name: &str,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunOutcome, String> {
    let out_dir = Path::new(OUT_DIR);
    if name == train::NAME {
        return match trace {
            true => train::run_traced(scale, seed, seconds, out_dir),
            false => train::run(scale, seed, seconds),
        };
    }
    let spec = serve::WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        format!("unknown workload {name}; known: {}", workload_names().join(", "))
    })?;
    match trace {
        true => serve::run_traced(spec, scale, seed, seconds, out_dir),
        false => serve::run(spec, scale, seed, seconds),
    }
}

/// `--key value` pairs after the subcommand; `--trace` may stand alone.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags { pairs: Vec::new(), positional: Vec::new() };
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                flags.positional.push(args[i].clone());
                i += 1;
                continue;
            };
            if !known.contains(&key) {
                return Err(format!("unknown option --{key}"));
            }
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    flags.pairs.push((key.to_string(), value.clone()));
                    i += 2;
                }
                None if key == "trace" => {
                    flags.pairs.push((key.to_string(), "1".to_string()));
                    i += 1;
                }
                None => return Err(format!("--{key} needs a value")),
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--trace takes 0 or 1, not {other:?}")),
        }
    }
}

/// Print the result line; a run with problems prints it too (`correct` is
/// false) and fails the process.
fn report(name: &str, trace: bool, outcome: &RunOutcome) -> bool {
    for problem in &outcome.problems {
        eprintln!("{name}: FAILED: {problem}");
    }
    let table = if trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            outcome.metrics.to_json(table)
        )
    );
    correct
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let name = flags.get("workload").ok_or("run needs --workload")?;
    let seed: u64 = flags.number("seed", 1)?;
    let seconds: f64 = flags.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    let trace = flags.trace()?;
    let outcome = run_workload(name, &Scale::full(), seed, seconds, trace)?;
    Ok(report(name, trace, &outcome))
}

/// Every workload on the tiny graph with 1 s of measurement, untraced and
/// traced. With `--check`, also fail when what is printed and what
/// `BENCHMARK.json` declares differ in either direction.
fn cmd_smoke(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["check"])?;
    let scale = Scale::smoke();
    let mut ok = true;
    for name in workload_names() {
        for trace in [false, true] {
            let outcome = run_workload(&name, &scale, 1, 1.0, trace)?;
            eprintln!("smoke: {name} trace={}", u8::from(trace));
            ok &= report(&name, trace, &outcome);
        }
    }
    if let Some(path) = flags.get("check") {
        ok &= names_agree(&BenchFile::load(Path::new(path))?, path);
    }
    Ok(ok)
}

/// Whether the workloads and metrics this program prints and the ones
/// `BENCHMARK.json` declares are the same sets — names, units and directions
/// — and every name is well-formed.
fn names_agree(bench: &BenchFile, path: &str) -> bool {
    let printed = |table: &[MetricDef]| -> BTreeSet<Declared> {
        table
            .iter()
            .map(|d| Declared {
                name: d.name.to_string(),
                unit: d.unit.to_string(),
                better: d.better.to_string(),
            })
            .collect()
    };
    let workload =
        |name: &String| Declared { name: name.clone(), unit: String::new(), better: String::new() };
    let sets: [(&str, BTreeSet<Declared>, BTreeSet<Declared>); 3] = [
        (
            "workload",
            workload_names().iter().map(workload).collect(),
            bench.workloads.iter().map(workload).collect(),
        ),
        (
            "end_to_end metric",
            printed(END_TO_END),
            bench.end_to_end.iter().map(|(declared, _)| declared.clone()).collect(),
        ),
        ("per_layer metric", printed(PER_LAYER), bench.per_layer.iter().cloned().collect()),
    ];
    let mut ok = true;
    for (what, printed, declared) in &sets {
        for d in printed.symmetric_difference(declared) {
            let side = match printed.contains(d) {
                true => "printed but not in",
                false => "missing from the output but in",
            };
            eprintln!("check: {what} {} [{} {}] is {side} {path}", d.name, d.unit, d.better);
            ok = false;
        }
        for Declared { name, .. } in printed.union(declared) {
            let well_formed = !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !well_formed {
                eprintln!("check: {what} name {name:?} breaks [A-Za-z0-9_.-]+");
                ok = false;
            }
        }
    }
    eprintln!("check: names, units and directions {}", if ok { "agree" } else { "DISAGREE" });
    ok
}

fn cmd_suite(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["out"])?;
    compare::suite(&workload_names(), Path::new(flags.get("out").ok_or("suite needs --out")?))?;
    Ok(true)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    let [base, new] = flags.positional.as_slice() else {
        return Err("compare needs two result files".to_string());
    };
    let bench = BenchFile::load(Path::new(BENCH_FILE))?;
    Ok(!compare::compare(&bench, Path::new(base), Path::new(new))?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err("usage: zoomer-perfbench run|smoke|suite|compare … (see bench/README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("zoomer-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
