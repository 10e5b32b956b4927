//! `mth-olap` and `mth-scan`: one session of client 1 over all tenants runs
//! a fixed set of MT-H query × optimization-level cells. Each cell gets one
//! untimed warm-up, then timed sweeps over every cell in a seeded order
//! until the run's time is used up; UDF caches are reset before every timed
//! statement, as `mth::measure` does.

use std::time::Instant;

use mtbase::{Connection, EngineConfig, OptLevel, ResultSet};
use mtengine::stats::StatsSnapshot;
use mth::gen::{self, GeneratedData};
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries, validate, MthDeployment};

use crate::metrics::{cell_metric, SCAN_QUERIES};
use crate::stats::{geomean, lower_decile, median};
use crate::{secs, summarize, Args, Outcome};

/// Set-ups per run: at least `MIN_SETUP_REPS`, more until `SETUP_BUDGET_S`
/// is spent (small set-ups take milliseconds, and one sample is mostly
/// allocator warm-up), at most `MAX_SETUP_REPS`. `setup_s` is their median.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 1.0;

/// The two optimization levels every workload compares: o2 converts through
/// UDF calls, o4 inlines the conversions.
pub const LEVELS: [(OptLevel, &str); 2] = [(OptLevel::O2, "o2"), (OptLevel::O4, "o4")];

/// A cell repeats per sweep about this long (by its warm-up latency), at
/// least once and at most `MAX_CELL_REPS` times.
const CELL_TARGET_MS: f64 = 10.0;
/// Sweeps a run makes at least, so that every cell has samples from more
/// than one point in time.
const MIN_SWEEPS: usize = 2;
/// A cell whose warm-up takes at least this long is heavy: each sweep
/// follows every heavy cell with a pass over the light cells, so that light
/// cells are timed at many points of a run.
const HEAVY_MS: f64 = 100.0;
const MAX_CELL_REPS: usize = 50;

/// Timed runs of each plain TPC-H query (traced runs only), for the
/// MT-over-TPC-H overhead ratio: as many as its o4 cell runs per sweep, and
/// at least this many.
const MIN_BASELINE_REPS: usize = 3;

pub struct Spec {
    prefix: &'static str,
    scale: f64,
    tenants: i64,
    distribution: TenantDistribution,
    parallel_scan: usize,
    queries: &'static [usize],
    /// Data seed; the run seed sets only the sweep order.
    data_seed: u64,
    /// Whether the morsel pool must engage (lineitem above the pool
    /// threshold) or must stay idle.
    morsels: bool,
}

const ALL_QUERIES: [usize; 22] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];

pub const OLAP: Spec = Spec {
    prefix: "olap",
    scale: 1.0,
    tenants: 10,
    distribution: TenantDistribution::Uniform,
    parallel_scan: 1,
    queries: &ALL_QUERIES,
    // At scale 1 there are 10 suppliers for 25 nations, so the data seed
    // decides whether Q20's and Q21's nations have suppliers at all: Q21
    // takes about 10 ms on an empty candidate set and 700 ms on a real one.
    // Runs with different seeds would measure different workloads, so the
    // data is fixed to seed 13, the first of seeds 1-60 with the fewest
    // empty results (Q2, Q9, Q17, Q22), and the run seed sets the order.
    data_seed: 13,
    morsels: false,
};

pub const SCAN: Spec = Spec {
    prefix: "scan",
    scale: 8.0,
    tenants: 100,
    distribution: TenantDistribution::Zipf,
    // Two scan workers: the core count of the machine the benchmark was
    // defined on (recorded as `nproc` with every result).
    parallel_scan: 2,
    queries: &SCAN_QUERIES,
    // Fixed, as on `mth-olap`, so that every run measures the same work:
    // the skewed tenant sizes, and with them a sweep's cost, follow the
    // data seed.
    data_seed: 13,
    morsels: true,
};

/// Generate and load several times, recording the medians as `setup_s`,
/// `setup.gen_s` and `setup.load_s`; returns the last load. The previous
/// load is dropped before the next one starts.
pub fn timed_setup<T>(
    config: &MthConfig,
    out: &mut Outcome,
    mut load: impl FnMut(&GeneratedData) -> T,
) -> T {
    let (mut gen_s, mut load_s, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    for rep in 0..MAX_SETUP_REPS {
        if rep >= MIN_SETUP_REPS && secs(start) >= SETUP_BUDGET_S {
            break;
        }
        drop(last.take());
        let t0 = Instant::now();
        let data = gen::generate(config);
        let g = secs(t0);
        let t1 = Instant::now();
        last = Some(load(&data));
        let l = secs(t1);
        gen_s.push(g);
        load_s.push(l);
        total.push(g + l);
    }
    out.info("setup_reps", total.len());
    out.set("setup_s", median(&total).expect("MIN_SETUP_REPS > 0"));
    out.set("setup.gen_s", median(&gen_s).expect("MIN_SETUP_REPS > 0"));
    out.set("setup.load_s", median(&load_s).expect("MIN_SETUP_REPS > 0"));
    last.expect("MIN_SETUP_REPS > 0")
}

/// `SET SCOPE` over tenants `1..=tenants`.
pub fn scope_all(tenants: i64) -> String {
    let ids: Vec<String> = (1..=tenants).map(|t| t.to_string()).collect();
    format!("SET SCOPE = \"IN ({})\"", ids.join(", "))
}

/// One timed statement: its result, latency and engine-counter delta, plus
/// the parse span when traced.
pub struct Exec {
    pub rs: ResultSet,
    pub ms: f64,
    pub parse_ms: f64,
    pub stats: StatsSnapshot,
}

/// Run `sql` on `conn`, resetting UDF caches first. Untraced, the call is
/// `Connection::execute`; traced, the benchmark times
/// `mtsql::parse_statement` and `Connection::execute_statement` as two
/// spans (their sum is the statement latency).
pub fn execute(
    server: &mtbase::MtBase,
    conn: &mut Connection,
    sql: &str,
    traced: bool,
) -> mtbase::Result<Exec> {
    server.reset_stats();
    let t0 = Instant::now();
    let (rs, parse_ms) = if traced {
        let stmt = mtsql::parse_statement(sql)?;
        let parse_ms = secs(t0) * 1e3;
        (conn.execute_statement(&stmt)?, parse_ms)
    } else {
        (conn.execute(sql)?, 0.0)
    };
    let ms = secs(t0) * 1e3;
    Ok(Exec {
        rs,
        ms,
        parse_ms,
        stats: conn.last_query_stats(),
    })
}

/// Engine counters summed over one sweep of statements.
#[derive(Default)]
pub struct Counters {
    sum: StatsSnapshot,
    result_rows: u64,
    exec_ms: f64,
    udf_calls_o2: u64,
    udf_hits_o2: u64,
    hits: u64,
    misses: u64,
}

impl Counters {
    /// Count one statement of the sweep.
    pub fn add(&mut self, e: &Exec, level: OptLevel) {
        let (s, d) = (&mut self.sum, &e.stats);
        s.rows_scanned += d.rows_scanned;
        s.partitions_scanned += d.partitions_scanned;
        s.partitions_pruned += d.partitions_pruned;
        s.rows_vectorized += d.rows_vectorized;
        s.late_materialized += d.late_materialized;
        s.dict_kernel_rows += d.dict_kernel_rows;
        s.subqueries_unnested += d.subqueries_unnested;
        s.morsels_dispatched += d.morsels_dispatched;
        s.morsel_workers += d.morsel_workers;
        s.partial_agg_merges += d.partial_agg_merges;
        s.udf_calls += d.udf_calls;
        s.udf_cache_hits += d.udf_cache_hits;
        if level == OptLevel::O2 {
            self.udf_calls_o2 += d.udf_calls;
            self.udf_hits_o2 += d.udf_cache_hits;
        }
        self.result_rows += e.rs.rows.len() as u64;
        self.exec_ms += e.ms;
    }

    /// Count one statement's plan-cache outcome (every timed statement).
    pub fn add_cache(&mut self, d: &StatsSnapshot) {
        self.hits += d.prepared_cache_hits;
        self.misses += d.prepared_cache_misses;
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    pub fn pruned_frac(&self) -> f64 {
        let s = &self.sum;
        ratio(
            s.partitions_pruned,
            s.partitions_pruned + s.partitions_scanned,
        )
    }

    pub fn morsels(&self) -> u64 {
        self.sum.morsels_dispatched
    }

    pub fn publish(&self, out: &mut Outcome) {
        let s = &self.sum;
        out.set("mtbase.plan_cache.hit_ratio", self.hit_ratio());
        out.set("mtengine.rows_scanned", s.rows_scanned as f64);
        out.set(
            "mtengine.rows_scanned_per_result_row",
            s.rows_scanned as f64 / self.result_rows.max(1) as f64,
        );
        out.set("mtengine.partitions_pruned_frac", self.pruned_frac());
        out.set(
            "mtengine.rows_vectorized_frac",
            ratio(s.rows_vectorized, s.rows_scanned),
        );
        out.set(
            "mtengine.late_materialized_frac",
            ratio(s.late_materialized, s.rows_scanned),
        );
        out.set("mtengine.dict_kernel_rows", s.dict_kernel_rows as f64);
        out.set("mtengine.subqueries_unnested", s.subqueries_unnested as f64);
        out.set("mtengine.udf_calls", self.udf_calls_o2 as f64);
        out.set(
            "mtengine.udf_cache_hit_ratio",
            ratio(self.udf_hits_o2, self.udf_calls_o2 + self.udf_hits_o2),
        );
        out.set("mtengine.morsels_dispatched", s.morsels_dispatched as f64);
        out.set("mtengine.morsel_workers", s.morsel_workers as f64);
        out.set("mtengine.partial_agg_merges", s.partial_agg_merges as f64);
        out.set(
            "mtengine.scan_rows_per_ms",
            s.rows_scanned as f64 / self.exec_ms.max(1e-9),
        );
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Medians of per-class latency samples, in class order; `None` when a
/// class has no sample.
pub fn class_medians(samples: &[Vec<f64>]) -> Option<Vec<f64>> {
    samples.iter().map(|s| median(s)).collect()
}

/// Sum of the per-class medians in seconds: one operation of every class.
pub fn sweep_s(medians: &[f64]) -> f64 {
    medians.iter().sum::<f64>() / 1e3
}

pub fn run(spec: &Spec, args: &Args, out: &mut Outcome) {
    let config = MthConfig {
        scale: spec.scale,
        tenants: spec.tenants,
        distribution: spec.distribution,
        seed: spec.data_seed,
    };
    let engine = EngineConfig {
        parallel_scan: spec.parallel_scan,
        ..EngineConfig::postgres_like()
    };
    out.info("scale", spec.scale);
    out.info("tenants", spec.tenants);
    out.info("distribution", format!("{:?}", spec.distribution));
    out.info("data_seed", config.seed);
    out.info("parallel_scan", spec.parallel_scan);
    out.info("clients", 1);
    let dep: MthDeployment = timed_setup(&config, out, |data| {
        loader::load_from_data(config, engine, data)
    });
    let server = &dep.server;

    let mut conns: Vec<Connection> = LEVELS
        .iter()
        .map(|(level, _)| {
            let mut c = server.connect(1);
            c.set_opt_level(*level);
            c.execute(&scope_all(spec.tenants)).expect("SET SCOPE");
            c
        })
        .collect();
    // Cells are (query, level index); the sweep order is seeded.
    let cells: Vec<(usize, usize)> = spec
        .queries
        .iter()
        .flat_map(|&q| (0..LEVELS.len()).map(move |l| (q, l)))
        .collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    crate::shuffle(&mut crate::seeded(args.seed, 1), &mut order);

    // Warm-up: one untimed run per cell, kept as the reference result. Its
    // latency sets how often the cell repeats per sweep.
    let mut reference: Vec<Option<ResultSet>> = vec![None; cells.len()];
    let mut reps: Vec<usize> = vec![1; cells.len()];
    let mut heavy: Vec<bool> = vec![false; cells.len()];
    for &c in &order {
        let (q, l) = cells[c];
        out.attempted += 1;
        match execute(server, &mut conns[l], &queries::query(q), false) {
            Ok(e) => {
                reps[c] = ((CELL_TARGET_MS / e.ms).round() as usize).clamp(1, MAX_CELL_REPS);
                heavy[c] = e.ms >= HEAVY_MS;
                reference[c] = Some(e.rs);
            }
            Err(e) => {
                out.failed += 1;
                out.check(
                    &format!("q{q:02}.{}.runs", LEVELS[l].1),
                    false,
                    e.to_string(),
                );
            }
        }
    }
    let cell_of = |q: usize, l: usize| cells.iter().position(|&c| c == (q, l)).expect("cell");

    // MT-H equals plain TPC-H on the validatable queries, at o2 and o4.
    for (l, (_, name)) in LEVELS.iter().enumerate() {
        let mut checked = Vec::new();
        let mut failures = Vec::new();
        for &q in spec
            .queries
            .iter()
            .filter(|q| validate::VALIDATABLE.contains(q))
        {
            let Some(mt) = &reference[cell_of(q, l)] else {
                continue;
            };
            match validate::run_baseline_query(&dep, q) {
                Ok(base) => match validate::compare_result_sets(mt, &base) {
                    Ok(()) => checked.push(q),
                    Err(e) => failures.push(format!("Q{q}: {e}")),
                },
                Err(e) => failures.push(format!("Q{q} baseline: {e}")),
            }
        }
        out.check(
            &format!("validate.{name}"),
            failures.is_empty(),
            if failures.is_empty() {
                format!("MT-H equals TPC-H on Q{checked:?}")
            } else {
                summarize(&failures)
            },
        );
    }
    // o2 and o4 agree on every query.
    let mut disagree = Vec::new();
    for &q in spec.queries {
        if let (Some(a), Some(b)) = (&reference[cell_of(q, 0)], &reference[cell_of(q, 1)]) {
            if let Err(e) = validate::compare_result_sets(a, b) {
                disagree.push(format!("Q{q}: {e}"));
            }
        }
    }
    out.check(
        "o2_equals_o4",
        disagree.is_empty(),
        if disagree.is_empty() {
            format!("{} queries agree", spec.queries.len())
        } else {
            summarize(&disagree)
        },
    );

    // Timed sweeps of blocks: a block runs one cell `reps` times, so fast
    // cells get enough samples for a steady median while slow ones run
    // once. A sweep runs each heavy cell in the seeded order, each followed
    // by one block of every light cell (with no heavy cell, one block of
    // every cell). Traced runs pair every untraced execution with a traced
    // one, alternating which goes first, so the tracing overhead is
    // measured on the same cells at the same time.
    let light: Vec<usize> = order.iter().copied().filter(|&c| !heavy[c]).collect();
    let mut schedule: Vec<usize> = Vec::new();
    for &c in order.iter().filter(|&&c| heavy[c]) {
        schedule.push(c);
        schedule.extend(&light);
    }
    if schedule.is_empty() {
        schedule = light;
    }
    // Untraced samples and block medians per cell, traced samples per cell.
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut counted = vec![false; cells.len()];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut parse_ms: Vec<f64> = Vec::new();
    let mut counters = Counters::default();
    let mut mismatches: Vec<String> = Vec::new();
    let start = Instant::now();
    let mut sweep = 0usize;
    while sweep < MIN_SWEEPS || secs(start) < args.seconds {
        for (pos, &c) in schedule.iter().enumerate() {
            let (q, l) = cells[c];
            let sql = queries::query(q);
            if reps[c] > 1 {
                // An untimed run first: a cell's block of repetitions is
                // timed once the previous cell's memory and caches are gone.
                out.attempted += 1;
                match execute(server, &mut conns[l], &sql, false) {
                    Ok(e) if reference[c].as_ref() != Some(&e.rs) => mismatches.push(format!(
                        "Q{q} {} differs from its warm-up result",
                        LEVELS[l].1
                    )),
                    Ok(_) => {}
                    Err(err) => {
                        out.failed += 1;
                        mismatches.push(format!("Q{q} {}: {err}", LEVELS[l].1));
                    }
                }
            }
            let mut block = Vec::new();
            for rep in 0..reps[c] {
                let modes: &[bool] = match (args.trace, (sweep + pos + rep) % 2) {
                    (false, _) => &[false],
                    (true, 0) => &[false, true],
                    (true, _) => &[true, false],
                };
                for &mode in modes {
                    out.attempted += 1;
                    let e = match execute(server, &mut conns[l], &sql, mode) {
                        Ok(e) => e,
                        Err(err) => {
                            out.failed += 1;
                            mismatches.push(format!("Q{q} {}: {err}", LEVELS[l].1));
                            continue;
                        }
                    };
                    if reference[c].as_ref() != Some(&e.rs) {
                        mismatches.push(format!(
                            "Q{q} {} differs from its warm-up result",
                            LEVELS[l].1
                        ));
                    }
                    counters.add_cache(&e.stats);
                    if !counted[c] {
                        counted[c] = true;
                        counters.add(&e, LEVELS[l].0);
                    }
                    if mode {
                        traced[c].push(e.ms);
                        parse_ms.push(e.parse_ms);
                    } else {
                        block.push(e.ms);
                    }
                }
            }
            blocks[c].extend(median(&block));
            untraced[c].extend(block);
        }
        sweep += 1;
    }
    out.info("sweeps", sweep);
    out.check(
        "repeatable",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{sweep} sweeps repeat the warm-up results")
        } else {
            summarize(&mismatches)
        },
    );

    // Engagement: the plan cache serves every cell; the morsel pool engages
    // exactly on the workload whose lineitem is above the pool threshold.
    out.check(
        "engagement.plan_cache_hit_ratio",
        counters.hit_ratio() == 1.0,
        format!("hit ratio {} (expected 1)", counters.hit_ratio()),
    );
    out.check(
        "engagement.morsels",
        (counters.morsels() > 0) == spec.morsels,
        format!(
            "{} morsels per sweep (expected {})",
            counters.morsels(),
            if spec.morsels { "> 0" } else { "0" }
        ),
    );
    counters.publish(out);

    // End-to-end figures from each cell's fast decile across its block
    // medians, which filters out the host's slow phases: their geometric
    // mean (every query weighs the same), their sum (one full report), and
    // one client's cells per second over that report.
    let fast: Option<Vec<f64>> = blocks.iter().map(|b| lower_decile(b)).collect();
    let fast = fast.unwrap_or_default();
    let report_s = sweep_s(&fast);
    out.set("latency_ms", geomean(&fast).unwrap_or(0.0));
    out.set("sweep_s", report_s);
    out.set("ops_per_s", cells.len() as f64 / report_s.max(1e-9));
    let per_cell = if args.trace { &traced } else { &untraced };
    for (c, &(q, l)) in cells.iter().enumerate() {
        let name = cell_metric(spec.prefix, q, LEVELS[l].1);
        out.set(&name, median(&per_cell[c]).unwrap_or(0.0));
    }
    if args.trace {
        out.set("mtsql.parse_us", median(&parse_ms).unwrap_or(0.0) * 1e3);
        let overheads: Vec<f64> = (0..cells.len())
            .filter_map(|c| Some(median(&traced[c])? / median(&untraced[c])?))
            .collect();
        out.set(
            "trace.overhead_frac",
            geomean(&overheads).unwrap_or(1.0) - 1.0,
        );

        // MT-H over plain TPC-H, per level: the paper's headline ratio.
        // Both sides are timed on the same basis: parse the SQL text, then
        // run a plan made before timing. The MT side's plan comes from the
        // plan cache (`Connection::execute`); the baseline's is made by
        // `Engine::plan_query` once, before an untimed warm-up run.
        let mut baseline_ms: Vec<Vec<f64>> = vec![Vec::new(); spec.queries.len()];
        for (i, &q) in spec.queries.iter().enumerate() {
            let sql = queries::query(q);
            let run = |plan: &mtengine::plan::Plan| -> Result<ResultSet, String> {
                mtsql::parse_statement(&sql).map_err(|e| e.to_string())?;
                dep.baseline
                    .execute_plan(plan, &[])
                    .map_err(|e| e.to_string())
            };
            let plan = match mtsql::parse_statement(&sql) {
                Ok(mtsql::ast::Statement::Select(query)) => {
                    dep.baseline.plan_query(&query).map_err(|e| e.to_string())
                }
                Ok(_) => Err("not a SELECT".to_string()),
                Err(e) => Err(e.to_string()),
            }
            .and_then(|plan| run(&plan).map(|_| plan));
            let plan = match plan {
                Ok(plan) => plan,
                Err(e) => {
                    out.check("baseline.runs", false, format!("Q{q}: {e}"));
                    continue;
                }
            };
            for _ in 0..reps[cell_of(q, 1)].max(MIN_BASELINE_REPS) {
                dep.baseline.reset_stats();
                let t0 = Instant::now();
                match run(&plan) {
                    Ok(_) => baseline_ms[i].push(secs(t0) * 1e3),
                    Err(e) => out.check("baseline.runs", false, format!("Q{q}: {e}")),
                }
            }
        }
        for (l, (_, name)) in LEVELS.iter().enumerate() {
            let ratios: Vec<f64> = spec
                .queries
                .iter()
                .enumerate()
                .filter_map(|(i, &q)| {
                    Some(median(&untraced[cell_of(q, l)])? / median(&baseline_ms[i])?)
                })
                .collect();
            out.set(
                &format!("mtrewrite.overhead_vs_tpch.{name}"),
                geomean(&ratios).unwrap_or(0.0),
            );
        }
    }
    out.check(
        "no_failed_operations",
        out.failed == 0,
        format!("{} of {} statements failed", out.failed, out.attempted),
    );
}
