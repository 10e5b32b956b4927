//! The metric registry: every workload, end-to-end metric and per-layer
//! metric the benchmark reports, with its unit, direction, the workloads it
//! is measured on and — for a per-layer metric — the end-to-end metric and
//! workload it should move. `BENCHMARK.json` is rendered from this table
//! (`--benchmark-json`), and a test keeps the two identical.
//!
//! `tenant-txn` runs from the same command but is left out of
//! `BENCHMARK.json`, together with the metrics measured only on it: its
//! `read_your_writes` check fails on the current program (see `NOTES`).

use std::fmt::Write as _;

pub const OLAP: &str = "mth-olap";
pub const ADHOC: &str = "mth-adhoc";
pub const SCAN: &str = "mth-scan";
pub const TXN: &str = "tenant-txn";

/// Seconds one run measures: `run_seconds` in BENCHMARK.json and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 30;

/// Workload names with the one-sentence reason each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        OLAP,
        "The paper's cross-tenant report: all 22 MT-H queries at o2 and o4 over all 10 tenants; engine-bound, every plan served from the plan cache",
    ),
    (
        ADHOC,
        "Ten tenants each query their own data; 440 plan keys overflow the 128-plan cache, so every statement pays the full front end while pruning skips 9 of 10 buckets",
    ),
    (
        SCAN,
        "Q1, Q6, Q12, Q14, Q22 over 100 Zipf tenants at scale 8 with 2 scan workers: the only workload that engages the morsel pool and many skewed buckets",
    ),
    (
        TXN,
        "Two writers on disjoint tenants run inserts, read-modify-writes and rollbacks with own-tenant reads on a durable store: the only commit-path and recovery workload",
    ),
];

/// Workloads the command runs but `BENCHMARK.json` leaves out, because a
/// correctness check fails on them on the current program.
pub const NOT_IN_BENCHMARK: [&str; 1] = [TXN];

/// Notes printed below the tables of `METRICS.md`.
const NOTES: &str = "\
- End-to-end figures come from each statement's fast runs at many points in time of a \
run, which filters out the host's slow phases: on `mth-adhoc` each of the 440 plan \
keys' fastest run over the run's cycles (a slow phase can outlast a run, so whole-cycle \
figures are not used); on `mth-olap` and `mth-scan` each cell's lower decile across \
its blocks of back-to-back repetitions, where `mth-olap` follows every heavy cell \
(Q19, Q21) with one block of each light cell so that light cells are timed at many \
points; `tenant-txn` reports medians over the whole run.
- `mth-olap`, `mth-adhoc` and `mth-scan` fix their data to seed 13 (the cost of the \
generated data differs by up to a tenth or more between seeds); the run seed sets \
their order.
- `tenant-txn` is not in `BENCHMARK.json`, and neither are the metrics measured only \
on it. Its `read_your_writes` check fails on the current program, so its runs exit 1: \
about 1% of the Ledger reads that follow a transaction return an earlier committed \
state instead of the reader's own latest acknowledged commit (`txn.stale_read_frac`). \
A published transaction stays invisible while the other writer's open transaction \
holds the committed-epoch floor below it. Put the workload and its metrics back once \
the check passes.
- `tenant-txn` mix: 40% INSERT+UPDATE, 40% INSERT+DELETE, 10% insert-only, 10% \
INSERT+ROLLBACK. Read-modify-write is the shape whose lock conflicts the workload \
exists to show, so it is the bulk; insert-only and rolled-back transactions get an \
equal small share so their paths run; UPDATE and DELETE split the rest evenly. The \
shares were set from that reasoning, not from `error_rate`. \
`lock.victim_frac.<kind>` gives the deadlock victims per attempt of each kind.
- `mtrewrite.overhead_vs_tpch.*` times both sides on the same basis: parse the SQL \
text, then run a plan made before timing. The MT side's plan comes from the plan \
cache (`Connection::execute`, the untraced cell medians); the baseline's is made once \
by `Engine::plan_query` on `MthDeployment::baseline`, and run once untimed before \
its timed runs.
- `mth-adhoc`'s pruning check requires every query that scans tenant-specific tables \
to prune at least 0.9 of its buckets, except Q13: the orders side of its LEFT OUTER \
JOIN has the ttid predicate in the ON clause, which is not pushed into the \
null-supplying side, so all ten orders buckets are scanned. Q13's share is \
`mtengine.partitions_pruned_frac.q13`.
";

/// Whether a per-layer metric is in `BENCHMARK.json`: it is measured on a
/// workload that is.
fn in_benchmark(m: &Layer) -> bool {
    !NOT_IN_BENCHMARK.contains(&m.workloads)
}

/// The per-layer metrics of `BENCHMARK.json`.
pub fn benchmark_layers() -> Vec<Layer> {
    per_layer().into_iter().filter(in_benchmark).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric. It is reported on every workload; `names` lists
/// the workload-specific name it stands for where there is one.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub names: &'static [(&'static str, &'static str)],
}

/// Every workload reports every end-to-end metric:
///
/// * `latency_ms` — the typical operation: on `mth-olap` and `mth-scan` the
///   geometric mean of the per-cell figures (every query weighs the same),
///   on `mth-adhoc` the median over the plan keys of each key's fastest
///   run, on `tenant-txn` the median BEGIN→COMMIT transaction, retries
///   included;
/// * `sweep_s` — the sum of the per-class figures: one full report on
///   `mth-olap` and `mth-scan`, one pass over all 440 plan keys on
///   `mth-adhoc`, one operation of each kind on `tenant-txn`;
/// * `ops_per_s` — cells per second over one report on `mth-olap` and
///   `mth-scan`, statements per second over one pass (the client's check
///   of each result included) on `mth-adhoc`, acknowledged commits per
///   second on `tenant-txn`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        names: &[],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // mth-adhoc's peak is about 12 MiB, and allocator slack moves it
        // by up to a tenth from run to run.
        bound: 0.25,
        names: &[],
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        names: &[
            (OLAP, "query_geomean_ms"),
            (SCAN, "query_geomean_ms"),
            (ADHOC, "stmt_p50_ms"),
            (TXN, "txn_p50_ms"),
        ],
    },
    EndToEnd {
        name: "sweep_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        names: &[(OLAP, "sweep_s"), (SCAN, "sweep_s")],
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        names: &[(ADHOC, "stmts_per_s"), (TXN, "commits_per_s")],
    },
];

/// A per-layer metric: measured on `workloads`, expected to move `moves`.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub workloads: &'static str,
    pub moves: &'static str,
}

/// Queries of the `mth-scan` workload (Q19's cross product is left out so
/// its cost stays linear in scale).
pub const SCAN_QUERIES: [usize; 5] = [1, 6, 12, 14, 22];

/// Name of the per-cell median latency metric.
pub fn cell_metric(prefix: &str, query: usize, level: &str) -> String {
    format!("{prefix}.q{query:02}.{level}.p50_ms")
}

pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut add = |name: &str, unit, better, workloads, moves| {
        v.push(Layer {
            name: name.to_string(),
            unit,
            better,
            workloads,
            moves,
        })
    };
    const ALL: &str = "all";
    const CELLS: &str = "mth-olap, mth-scan, mth-adhoc";
    const ENGINE_MOVES: &str = "sweep_s and latency_ms on mth-olap and mth-scan";
    add("setup.gen_s", "s", Lower, ALL, "setup_s on all workloads");
    add("setup.load_s", "s", Lower, ALL, "setup_s on all workloads");
    add(
        "mtsql.parse_us",
        "us",
        Lower,
        CELLS,
        "latency_ms on mth-adhoc",
    );
    add(
        "mtrewrite.rewrite_us",
        "us",
        Lower,
        ADHOC,
        "latency_ms on mth-adhoc",
    );
    add(
        "mtrewrite.overhead_vs_tpch.o2",
        "ratio",
        Lower,
        OLAP,
        "latency_ms on mth-olap",
    );
    add(
        "mtrewrite.overhead_vs_tpch.o4",
        "ratio",
        Lower,
        OLAP,
        "latency_ms on mth-olap",
    );
    add(
        "mtbase.plan_cache.hit_ratio",
        "ratio",
        Higher,
        CELLS,
        "latency_ms and ops_per_s on mth-adhoc",
    );
    add(
        "mtengine.plan_us",
        "us",
        Lower,
        ADHOC,
        "latency_ms on mth-adhoc",
    );
    add(
        "mtengine.exec_us",
        "us",
        Lower,
        ADHOC,
        "latency_ms on mth-adhoc",
    );
    add("mtengine.rows_scanned", "rows", Lower, CELLS, ENGINE_MOVES);
    add(
        "mtengine.rows_scanned_per_result_row",
        "ratio",
        Lower,
        CELLS,
        ENGINE_MOVES,
    );
    add(
        "mtengine.partitions_pruned_frac",
        "ratio",
        Higher,
        CELLS,
        "sweep_s and latency_ms on mth-olap and mth-scan; latency_ms on mth-adhoc",
    );
    add(
        "mtengine.partitions_pruned_frac.q13",
        "ratio",
        Higher,
        ADHOC,
        "latency_ms on mth-adhoc",
    );
    add(
        "mtengine.rows_vectorized_frac",
        "ratio",
        Higher,
        CELLS,
        ENGINE_MOVES,
    );
    add(
        "mtengine.late_materialized_frac",
        "ratio",
        Lower,
        CELLS,
        ENGINE_MOVES,
    );
    add(
        "mtengine.dict_kernel_rows",
        "rows",
        Higher,
        CELLS,
        ENGINE_MOVES,
    );
    add(
        "mtengine.subqueries_unnested",
        "count",
        Higher,
        CELLS,
        ENGINE_MOVES,
    );
    add("mtengine.udf_calls", "count", Lower, CELLS, ENGINE_MOVES);
    add(
        "mtengine.udf_cache_hit_ratio",
        "ratio",
        Higher,
        CELLS,
        ENGINE_MOVES,
    );
    add(
        "mtengine.morsels_dispatched",
        "count",
        Higher,
        SCAN,
        "sweep_s and latency_ms on mth-scan",
    );
    add(
        "mtengine.morsel_workers",
        "count",
        Higher,
        SCAN,
        "sweep_s and latency_ms on mth-scan",
    );
    add(
        "mtengine.partial_agg_merges",
        "count",
        Higher,
        SCAN,
        "sweep_s and latency_ms on mth-scan",
    );
    add(
        "mtengine.scan_rows_per_ms",
        "rows/ms",
        Higher,
        SCAN,
        "sweep_s and latency_ms on mth-scan",
    );
    for q in 1..=mth::queries::QUERY_COUNT {
        for level in ["o2", "o4"] {
            add(
                &cell_metric("olap", q, level),
                "ms",
                Lower,
                OLAP,
                "sweep_s and latency_ms on mth-olap",
            );
        }
    }
    for q in SCAN_QUERIES {
        for level in ["o2", "o4"] {
            add(
                &cell_metric("scan", q, level),
                "ms",
                Lower,
                SCAN,
                "sweep_s and latency_ms on mth-scan",
            );
        }
    }
    add(
        "stmt_p99_ms",
        "ms",
        Lower,
        ADHOC,
        "tail of latency_ms's distribution on mth-adhoc",
    );
    add(
        "mtbase.dml_us.p50",
        "us",
        Lower,
        TXN,
        "latency_ms on tenant-txn",
    );
    add(
        "mtbase.dml_us.p99",
        "us",
        Lower,
        TXN,
        "txn_p99_ms on tenant-txn",
    );
    add(
        "mtengine.commit_us.p50",
        "us",
        Lower,
        TXN,
        "latency_ms and ops_per_s on tenant-txn",
    );
    add(
        "mtengine.commit_us.p99",
        "us",
        Lower,
        TXN,
        "txn_p99_ms on tenant-txn",
    );
    add(
        "wal.fsyncs_per_commit",
        "ratio",
        Lower,
        TXN,
        "ops_per_s on tenant-txn",
    );
    add(
        "wal.bytes_per_commit",
        "bytes",
        Lower,
        TXN,
        "ops_per_s and recovery_s on tenant-txn",
    );
    add(
        "wal.bytes_per_user_byte",
        "ratio",
        Lower,
        TXN,
        "ops_per_s and recovery_s on tenant-txn",
    );
    add(
        "lock.deadlock_victims",
        "count",
        Lower,
        TXN,
        "error_rate and txn_p99_ms on tenant-txn",
    );
    for kind in ["insert", "rmw_update", "rmw_delete", "rollback"] {
        add(
            &format!("lock.victim_frac.{kind}"),
            "ratio",
            Lower,
            TXN,
            "error_rate and txn_p99_ms on tenant-txn",
        );
    }
    add(
        "lock.timeouts",
        "count",
        Lower,
        TXN,
        "error_rate and txn_p99_ms on tenant-txn",
    );
    add(
        "txn.rollbacks",
        "count",
        Lower,
        TXN,
        "error_rate and txn_p99_ms on tenant-txn",
    );
    add(
        "txn.stale_read_frac",
        "ratio",
        Lower,
        TXN,
        "none: Ledger reads that missed the reader's own acknowledged commit (0 when correct)",
    );
    add(
        "error_rate",
        "ratio",
        Lower,
        ALL,
        "ops_per_s and latency_ms on tenant-txn",
    );
    add(
        "txn_p99_ms",
        "ms",
        Lower,
        TXN,
        "tail of latency_ms's distribution on tenant-txn",
    );
    add("read_p50_ms", "ms", Lower, TXN, "sweep_s on tenant-txn");
    add(
        "read_p99_ms",
        "ms",
        Lower,
        TXN,
        "tail of the reads in sweep_s on tenant-txn",
    );
    add(
        "recovery_s",
        "s",
        Lower,
        TXN,
        "restart time after tenant-txn",
    );
    add(
        "recovery.wal_bytes",
        "bytes",
        Lower,
        TXN,
        "recovery_s on tenant-txn",
    );
    add(
        "recovery.replay_mb_per_s",
        "MB/s",
        Higher,
        TXN,
        "recovery_s on tenant-txn",
    );
    add(
        "trace.overhead_frac",
        "ratio",
        Lower,
        ALL,
        "none: the cost of the traced run itself",
    );
    v
}

/// `BENCHMARK.json`, rendered from the registry.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"mtbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"mtbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .filter(|(name, _)| !NOT_IN_BENCHMARK.contains(name))
        .collect();
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = benchmark_layers();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The registry as Markdown tables: every workload's reason, every
/// metric's unit, direction and workloads, and the end-to-end metric each
/// per-layer metric should move (`--list-metrics`, kept as `METRICS.md`).
pub fn describe() -> String {
    let mut s = String::from(
        "# MTBase benchmark metrics\n\n\
         Generated by `cargo run --release --manifest-path mtbench/Cargo.toml -- --list-metrics`\n\
         from `src/metrics.rs`; a test keeps the two identical.\n\n\
         ## Workloads\n\n| name | in BENCHMARK.json | why |\n|---|---|---|\n",
    );
    for (name, why) in WORKLOADS {
        let listed = if NOT_IN_BENCHMARK.contains(&name) {
            "no"
        } else {
            "yes"
        };
        let _ = writeln!(s, "| `{name}` | {listed} | {why} |");
    }
    s.push_str(
        "\n## End-to-end metrics (every workload)\n\n\
         | name | unit | better | bound | stands for |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let names: Vec<String> = m
            .names
            .iter()
            .map(|(w, n)| format!("`{n}` on `{w}`"))
            .collect();
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            names.join(", ")
        );
    }
    s.push_str(
        "\n## Per-layer metrics (traced runs; 0 where a workload does not exercise the layer)\n\n\
         | name | unit | better | measured on | should move |\n|---|---|---|---|---|\n",
    );
    for m in per_layer() {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.workloads,
            m.moves
        );
    }
    s.push_str("\n## Notes\n\n");
    s.push_str(NOTES);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path mtbench/Cargo.toml -- --benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn metrics_md_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md");
        let on_disk = std::fs::read_to_string(path).expect("mtbench/METRICS.md");
        assert_eq!(
            on_disk,
            describe(),
            "regenerate with `cargo run --release --manifest-path mtbench/Cargo.toml -- --list-metrics > mtbench/METRICS.md`"
        );
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            total,
            "metric and workload names must be unique"
        );
        assert!(benchmark_layers().len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200, "{why}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "no end-to-end metric has a larger bound than setup_s"
        );
    }
}
