//! MTBase benchmark: one command, four workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path mtbench/Cargo.toml -- \
//!     --workload mth-olap --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (closed loop, one process, at most two client threads):
//! `mth-olap`, `mth-adhoc`, `mth-scan`, `tenant-txn` — see [`metrics`] for
//! why each exists and which metrics it reports (`tenant-txn` fails its
//! read-your-writes check on the current program and is left out of
//! `BENCHMARK.json`). The program is driven only through its public API:
//! `MtBase` / `Connection`, `mth::{gen, loader, queries, validate}`,
//! `mtsql::parse_statement` and the plain TPC-H baseline engine. Every metric is printed by name with its unit; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). Any failed correctness or engagement
//! check makes the command exit with status 1.
//!
//! A shared host runs in phases up to a quarter slower (and at times half
//! again as slow) that last from seconds to minutes, so end-to-end figures
//! are built from each statement's fast runs at many points in time of a
//! run: on `mth-adhoc` each of its 440 plan keys' fastest run over hundreds
//! of cycles; on `mth-olap` and `mth-scan` each cell's lower decile across
//! its blocks of back-to-back repetitions. `tenant-txn` reports medians
//! over the whole run.

mod adhoc;
mod cells;
mod metrics;
mod stats;
mod sys;
mod txn;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run produces.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end, per-layer, and workload-specific
    /// names that the end-to-end metrics stand for).
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, passed, detail)` of every correctness and engagement check.
    pub checks: Vec<(String, bool, String)>,
    /// Run facts recorded with the result.
    pub info: Vec<(String, String)>,
    /// Findings printed with the result: layer times derived by subtraction
    /// that came out negative, and program gaps a workload observed.
    pub flags: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Record a derived layer time, flagging it when noise made it negative.
    pub fn set_derived(&mut self, name: &str, d: stats::Derived) {
        if d.negative {
            self.flags.push(format!(
                "{name} = {} is negative: the medians it is derived from are within timer noise",
                d.value
            ));
        }
        self.set(name, d.value);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// The first few of `errors` and their count, for a check's detail.
pub fn summarize(errors: &[String]) -> String {
    const SHOWN: usize = 5;
    let mut s = errors[..errors.len().min(SHOWN)].join("; ");
    if errors.len() > SHOWN {
        s.push_str(&format!("; ... {} errors in all", errors.len()));
    }
    s
}

/// A seeded generator for one stream (operation order, mix, backoff) of a
/// run's seed.
pub fn seeded(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(f64::from(metrics::RUN_SECONDS)),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("--benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--list-metrics") => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mtbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                metrics::WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };

    let mut out = Outcome::default();
    out.info("workload", &args.workload);
    out.info("seed", args.seed);
    out.info("seconds", args.seconds);
    out.info("trace", u8::from(args.trace));
    out.info("nproc", sys::nproc());
    out.info("build_profile", sys::build_profile());
    out.info("git_commit", sys::git_commit());
    if let Ok(v) = std::env::var("MT_THREADS") {
        out.info("MT_THREADS", v);
    }
    match args.workload.as_str() {
        metrics::OLAP => cells::run(&cells::OLAP, &args, &mut out),
        metrics::SCAN => cells::run(&cells::SCAN, &args, &mut out),
        metrics::ADHOC => adhoc::run(&args, &mut out),
        metrics::TXN => txn::run(&args, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    out.set("peak_rss_mb", sys::peak_rss_mb());
    if out.attempted > 0 && !out.values.contains_key("error_rate") {
        out.set("error_rate", out.failed as f64 / out.attempted as f64);
    }
    report(&args, &out)
}

/// Print the human-readable report and the JSON result line.
fn report(args: &Args, out: &Outcome) -> ExitCode {
    for (k, v) in &out.info {
        println!("info {k} = {v}");
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "check {name}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    for flag in &out.flags {
        println!("flag {flag}");
    }
    for m in &metrics::END_TO_END {
        if let Some(v) = out.values.get(m.name) {
            let alias = m
                .names
                .iter()
                .find(|(w, _)| *w == args.workload)
                .map(|(_, n)| format!("  (this workload's {n})"))
                .unwrap_or_default();
            println!("metric {} = {v} {}{alias}", m.name, m.unit);
        }
    }
    let layers = metrics::per_layer();
    for m in &layers {
        if let Some(v) = out.values.get(&m.name) {
            println!("metric {} = {v} {}", m.name, m.unit);
        }
    }

    // With --trace 0 the JSON carries every end-to-end metric; with
    // --trace 1 every per-layer metric of BENCHMARK.json, 0 where the layer
    // is not exercised by this workload (the human-readable lines above
    // omit those), plus any other per-layer metric this workload measured.
    let entries: Vec<(String, &str, f64)> = if args.trace {
        let listed = metrics::benchmark_layers();
        layers
            .iter()
            .filter(|m| out.values.contains_key(&m.name) || listed.iter().any(|l| l.name == m.name))
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit,
                    out.values.get(&m.name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| {
                let v = out.values.get(m.name).copied().unwrap_or_else(|| {
                    panic!(
                        "workload {} did not produce end-to-end metric {}",
                        args.workload, m.name
                    )
                });
                (m.name.to_string(), m.unit, v)
            })
            .collect()
    };
    let metrics_json: Vec<String> = entries
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
