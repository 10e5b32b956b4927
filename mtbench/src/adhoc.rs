//! `mth-adhoc`: ten tenants each query only their own data (default scope
//! `D = {C}`). One client thread cycles a seeded order of 22 queries × 10
//! tenants × {o2, o4} = 440 plan keys. The order repeats unchanged, so a key
//! recurs only after 439 others — more than the 128-plan cache holds — and
//! every statement runs the full front end: parse, D → D′ resolution,
//! rewrite, plan and verify.
//!
//! The data is fixed (see [`DATA_SEED`]); the run seed sets the order. The
//! end-to-end figures are built from each key's fastest run over the
//! run's hundreds of cycles, so a slow phase of the shared host, which can
//! last longer than a run, leaves them alone as long as every key meets a
//! quiet moment once.

use std::time::Instant;

use mtbase::{Connection, EngineConfig, ResultSet};
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries, validate};

use crate::cells::{execute, ratio, timed_setup, Counters, LEVELS};
use crate::stats::{derive, median, percentile};
use crate::{secs, summarize, Args, Outcome};

const SCALE: f64 = 0.1;
const TENANTS: i64 = 10;
/// At this scale the generated data sets the statements' total cost: it
/// differs by about 12% between seeds 23 and 25. Runs with different seeds
/// would measure different work, so the data is fixed to the seed
/// `mth-olap` uses and the run seed sets the order.
const DATA_SEED: u64 = 13;
/// Lowest pruned share of partition buckets per query: a tenant-specific
/// scan under scope `{C}` reads one of the ten buckets.
const MIN_PRUNED_FRAC: f64 = 0.9;
/// The query exempt from the pruning check; see the check.
const UNPRUNED_QUERY: usize = 13;

pub fn run(args: &Args, out: &mut Outcome) {
    let config = MthConfig {
        scale: SCALE,
        tenants: TENANTS,
        distribution: TenantDistribution::Uniform,
        seed: DATA_SEED,
    };
    out.info("scale", SCALE);
    out.info("tenants", TENANTS);
    out.info("data_seed", DATA_SEED);
    out.info("clients", 1);
    let dep = timed_setup(&config, out, |data| {
        loader::load_from_data(config, EngineConfig::postgres_like(), data)
    });
    let server = &dep.server;

    // One connection per (tenant, level); each keeps the default scope {C}.
    let mut conns: Vec<Connection> = (1..=TENANTS)
        .flat_map(|t| LEVELS.iter().map(move |(level, _)| (t, *level)))
        .map(|(t, level)| {
            let mut c = server.connect(t);
            c.set_opt_level(level);
            c
        })
        .collect();
    let conn_of = |t: i64, l: usize| (t as usize - 1) * LEVELS.len() + l;
    // Keys are (query, tenant, level index); classes are (query, level).
    let queries_n = queries::QUERY_COUNT;
    let keys: Vec<(usize, i64, usize)> = (1..=queries_n)
        .flat_map(|q| (1..=TENANTS).flat_map(move |t| (0..LEVELS.len()).map(move |l| (q, t, l))))
        .collect();
    let class_of = |q: usize, l: usize| (q - 1) * LEVELS.len() + l;
    let mut order: Vec<usize> = (0..keys.len()).collect();
    crate::shuffle(&mut crate::seeded(args.seed, 2), &mut order);
    let sqls: Vec<String> = (1..=queries_n).map(queries::query).collect();

    // Warm-up cycle, kept as the reference results.
    let mut reference: Vec<Option<ResultSet>> = vec![None; keys.len()];
    let mut errors: Vec<String> = Vec::new();
    for &k in &order {
        let (q, t, l) = keys[k];
        out.attempted += 1;
        match execute(server, &mut conns[conn_of(t, l)], &sqls[q - 1], false) {
            Ok(e) => reference[k] = Some(e.rs),
            Err(e) => {
                out.failed += 1;
                errors.push(format!("Q{q} tenant {t} {}: {e}", LEVELS[l].1));
            }
        }
    }
    let key_of = |q: usize, t: i64, l: usize| {
        ((q - 1) * TENANTS as usize + (t as usize - 1)) * LEVELS.len() + l
    };
    let mut disagree = Vec::new();
    for q in 1..=queries_n {
        for t in 1..=TENANTS {
            if let (Some(a), Some(b)) = (&reference[key_of(q, t, 0)], &reference[key_of(q, t, 1)]) {
                if let Err(e) = validate::compare_result_sets(a, b) {
                    disagree.push(format!("Q{q} tenant {t}: {e}"));
                }
            }
        }
    }
    out.check(
        "o2_equals_o4",
        disagree.is_empty(),
        if disagree.is_empty() {
            format!(
                "{} (query, tenant) pairs agree",
                queries_n * TENANTS as usize
            )
        } else {
            summarize(&disagree)
        },
    );

    // Timed cycles. Traced runs alternate untraced and traced cycles (never
    // back-to-back runs of one key, which would hit the plan cache). A
    // traced statement is timed as two spans — `mtsql::parse_statement` and
    // a cold `Connection::execute_statement` — and then probed, outside its
    // latency, with a warm re-execution and `Connection::rewrite_only`.
    let n_classes = queries_n * LEVELS.len();
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); n_classes];
    let mut traced_ms: Vec<f64> = Vec::new();
    let (mut parse_us, mut cold_us, mut warm_us, mut rewrite_only_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counters = Counters::default();
    // (pruned, scanned) partition buckets per query over the first cycle.
    let mut buckets: Vec<(u64, u64)> = vec![(0, 0); queries_n];
    // Fastest untraced latency of every key, and its fastest slot: the
    // statement plus the client's check of its result.
    let mut best_ms = vec![f64::INFINITY; keys.len()];
    let mut best_slot_ms = vec![f64::INFINITY; keys.len()];
    let start = Instant::now();
    let mut cycle = 0usize;
    let mut done = false;
    while !done {
        let traced = args.trace && cycle % 2 == 1;
        for &k in &order {
            // Stop on time, but not before each mode has run a full cycle.
            if secs(start) >= args.seconds && cycle >= if args.trace { 2 } else { 1 } {
                done = true;
                break;
            }
            let (q, t, l) = keys[k];
            let conn = &mut conns[conn_of(t, l)];
            let slot = Instant::now();
            out.attempted += 1;
            let e = match execute(server, conn, &sqls[q - 1], traced) {
                Ok(e) => e,
                Err(err) => {
                    out.failed += 1;
                    errors.push(format!("Q{q} tenant {t} {}: {err}", LEVELS[l].1));
                    continue;
                }
            };
            if reference[k].as_ref() != Some(&e.rs) {
                errors.push(format!(
                    "Q{q} tenant {t} {} differs from its warm-up result",
                    LEVELS[l].1
                ));
            }
            counters.add_cache(&e.stats);
            if cycle == 0 {
                counters.add(&e, LEVELS[l].0);
                buckets[q - 1].0 += e.stats.partitions_pruned;
                buckets[q - 1].1 += e.stats.partitions_scanned;
            }
            if !traced {
                untraced[class_of(q, l)].push(e.ms);
                best_ms[k] = best_ms[k].min(e.ms);
                best_slot_ms[k] = best_slot_ms[k].min(secs(slot) * 1e3);
                continue;
            }
            traced_ms.push(e.ms);
            parse_us.push(e.parse_ms * 1e3);
            cold_us.push((e.ms - e.parse_ms) * 1e3);
            let stmt = mtsql::parse_statement(&sqls[q - 1]).expect("parsed before");
            server.reset_stats();
            let t0 = Instant::now();
            let warm = conn.execute_statement(&stmt);
            warm_us.push(secs(t0) * 1e6);
            let t1 = Instant::now();
            let rewritten = conn.rewrite_only(&sqls[q - 1]);
            rewrite_only_us.push(secs(t1) * 1e6);
            match (warm, rewritten) {
                (Err(err), _) | (_, Err(err)) => {
                    errors.push(format!("Q{q} tenant {t} probe: {err}"))
                }
                (Ok(rs), Ok(_)) if reference[k].as_ref() != Some(&rs) => {
                    errors.push(format!("Q{q} tenant {t} warm re-execution differs"))
                }
                _ => {}
            }
        }
        if !done {
            cycle += 1;
        }
    }
    out.info("cycles", cycle);
    out.check(
        "repeatable",
        errors.is_empty(),
        if errors.is_empty() {
            "every statement repeats its warm-up result".to_string()
        } else {
            summarize(&errors)
        },
    );
    out.check(
        "engagement.plan_cache_hit_ratio",
        counters.hit_ratio() == 0.0,
        format!(
            "hit ratio {} (expected 0: 440 keys overflow the cache)",
            counters.hit_ratio()
        ),
    );
    // Every query that scans tenant-specific tables prunes 9 of 10 buckets,
    // except Q13: the orders side of its LEFT OUTER JOIN carries the ttid
    // predicate in the ON clause, which is not pushed into the
    // null-supplying side, so all ten orders buckets are scanned. Q13's
    // share is its own metric until that gap is closed.
    let frac = |(pruned, scanned): (u64, u64)| ratio(pruned, pruned + scanned);
    let unpruned: Vec<String> = (1..=queries_n)
        .filter(|&q| q != UNPRUNED_QUERY && buckets[q - 1] != (0, 0))
        .filter(|&q| frac(buckets[q - 1]) < MIN_PRUNED_FRAC)
        .map(|q| format!("Q{q} prunes {}", frac(buckets[q - 1])))
        .collect();
    out.check(
        "engagement.partitions_pruned_frac",
        unpruned.is_empty(),
        if unpruned.is_empty() {
            format!("every query but Q{UNPRUNED_QUERY} prunes >= {MIN_PRUNED_FRAC} of its buckets")
        } else {
            summarize(&unpruned)
        },
    );
    out.set(
        "mtengine.partitions_pruned_frac.q13",
        frac(buckets[UNPRUNED_QUERY - 1]),
    );
    counters.publish(out);

    // End-to-end figures from each key's fastest run: the median key, one
    // pass over all keys, and statements per second over that pass with the
    // client's own work included.
    out.set("latency_ms", median(&best_ms).unwrap_or(0.0));
    out.set("sweep_s", best_ms.iter().sum::<f64>() / 1e3);
    out.set(
        "ops_per_s",
        keys.len() as f64 / (best_slot_ms.iter().sum::<f64>() / 1e3),
    );
    let pooled: Vec<f64> = untraced.iter().flatten().copied().collect();
    out.set("stmt_p99_ms", percentile(&pooled, 0.99).unwrap_or(0.0));
    if args.trace {
        let parse = median(&parse_us).unwrap_or(0.0);
        let rewrite = derive(median(&rewrite_only_us).unwrap_or(0.0), &[parse]);
        let warm = median(&warm_us).unwrap_or(0.0);
        out.set("mtsql.parse_us", parse);
        out.set_derived("mtrewrite.rewrite_us", rewrite);
        out.set_derived(
            "mtengine.plan_us",
            derive(median(&cold_us).unwrap_or(0.0), &[warm, rewrite.value]),
        );
        out.set("mtengine.exec_us", warm);
        let overhead = median(&traced_ms).unwrap_or(0.0) / median(&pooled).unwrap_or(1.0) - 1.0;
        out.set("trace.overhead_frac", overhead);
    }
    out.check(
        "no_failed_operations",
        out.failed == 0,
        format!("{} of {} statements failed", out.failed, out.attempted),
    );
}
