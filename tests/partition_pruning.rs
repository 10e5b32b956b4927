//! End-to-end checks of the tenant-partitioned storage layer: scans of a
//! scoped MT-H deployment must touch only the selected tenants' partition
//! buckets, and pruning must never change query results.

use mtbase::EngineConfig;
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries, MthDeployment};
use mtrewrite::OptLevel;

const TENANTS: i64 = 10;

fn deployment(pruning: bool) -> MthDeployment {
    let config = MthConfig {
        scale: 0.1,
        tenants: TENANTS,
        distribution: TenantDistribution::Uniform,
        seed: 42,
    };
    let engine = if pruning {
        EngineConfig::postgres_like()
    } else {
        EngineConfig::postgres_like().without_partition_pruning()
    };
    loader::load(config, engine)
}

fn run_scoped(
    dep: &MthDeployment,
    scope: &str,
    query: usize,
    level: OptLevel,
) -> (mtengine::ResultSet, mtengine::stats::StatsSnapshot) {
    let mut conn = dep.server.connect(1);
    conn.set_opt_level(level);
    conn.execute(scope).expect("scope statement");
    let rs = conn
        .query(&queries::query(query))
        .unwrap_or_else(|e| panic!("Q{query} at {level:?}: {e}"));
    (rs, conn.last_query_stats())
}

#[test]
fn own_tenant_scope_scans_a_fraction_of_the_rows() {
    let pruned = deployment(true);
    let full = deployment(false);
    // Scope {1} of 10 uniform tenants must scan about a tenth of the rows
    // the full scan visits, on every conversion-heavy query.
    for query in queries::CONVERSION_HEAVY {
        let (_, stats_pruned) = run_scoped(&pruned, "SET SCOPE = \"IN (1)\"", query, OptLevel::O4);
        let (_, stats_full) = run_scoped(&full, "SET SCOPE = \"IN (1)\"", query, OptLevel::O4);
        assert!(
            stats_pruned.rows_scanned * 5 <= stats_full.rows_scanned,
            "Q{query}: pruned scan visited {} rows, full scan {} — expected ≥5× reduction",
            stats_pruned.rows_scanned,
            stats_full.rows_scanned
        );
    }
    // Q6 touches only lineitem, the largest tenant-specific table, so the
    // per-tenant bucketing shows up directly in the bucket accounting.
    let (_, stats_pruned) = run_scoped(&pruned, "SET SCOPE = \"IN (1)\"", 6, OptLevel::O4);
    let (_, stats_full) = run_scoped(&full, "SET SCOPE = \"IN (1)\"", 6, OptLevel::O4);
    assert!(
        stats_pruned.partitions_pruned >= (TENANTS - 1) as u64,
        "expected at least {} pruned buckets, saw {}",
        TENANTS - 1,
        stats_pruned.partitions_pruned
    );
    assert_eq!(stats_full.partitions_pruned, 0);
}

#[test]
fn pruning_never_changes_results() {
    let pruned = deployment(true);
    let full = deployment(false);
    for scope in ["SET SCOPE = \"IN (1)\"", "SET SCOPE = \"IN (1, 4, 7)\""] {
        for query in queries::CONVERSION_HEAVY {
            for level in [OptLevel::O4, OptLevel::InlineOnly, OptLevel::Canonical] {
                let (rs_pruned, _) = run_scoped(&pruned, scope, query, level);
                let (rs_full, _) = run_scoped(&full, scope, query, level);
                assert_eq!(
                    rs_pruned, rs_full,
                    "Q{query} at {level:?} with `{scope}` differs with pruning on/off"
                );
            }
        }
    }
}

#[test]
fn scoped_scan_reports_partition_accounting() {
    let dep = deployment(true);
    let (_, stats) = run_scoped(&dep, "SET SCOPE = \"IN (2)\"", 6, OptLevel::O4);
    // One lineitem bucket visited, nine skipped (plus whatever the Tenant
    // meta table contributes — it is global and therefore unpartitioned).
    assert!(stats.partitions_scanned >= 1);
    assert!(stats.partitions_pruned >= 9);
    assert!(stats.rows_scanned > 0);
}

#[test]
fn foreign_and_own_scans_see_the_same_bucket_sizes() {
    // Scoping to a single foreign tenant must scan a similar row count as the
    // own-tenant scope (uniform distribution), not the whole table.
    let dep = deployment(true);
    let (_, own) = run_scoped(&dep, "SET SCOPE = \"IN (1)\"", 6, OptLevel::O4);
    let (_, foreign) = run_scoped(&dep, "SET SCOPE = \"IN (2)\"", 6, OptLevel::O4);
    let ratio = own.rows_scanned.max(foreign.rows_scanned) as f64
        / own.rows_scanned.min(foreign.rows_scanned).max(1) as f64;
    assert!(
        ratio < 2.0,
        "own scope scanned {} rows, foreign {} — buckets should be comparable",
        own.rows_scanned,
        foreign.rows_scanned
    );
}

/// Q13's preserved `customer` side takes its WHERE D-filter into the scan:
/// under an own-tenant scope both tables of the LEFT JOIN prune nine of ten
/// buckets, and the result matches the unpruned deployment.
#[test]
fn left_join_preserved_side_prunes_partitions() {
    let pruned = deployment(true);
    let full = deployment(false);
    for level in [OptLevel::O2, OptLevel::O4] {
        let (rs, stats) = run_scoped(&pruned, "SET SCOPE = \"IN (1)\"", 13, level);
        let (rs_full, _) = run_scoped(&full, "SET SCOPE = \"IN (1)\"", 13, level);
        assert_eq!(rs, rs_full, "Q13 at {level:?} differs with pruning on/off");
        assert!(
            stats.partitions_pruned >= 2 * (TENANTS - 1) as u64,
            "Q13 at {level:?}: customer and orders must each prune {} buckets, saw {} pruned",
            TENANTS - 1,
            stats.partitions_pruned
        );
    }
}

/// A WHERE conjunct on the null-extended (right) side of a LEFT JOIN stays
/// above the join: `o_orderkey IS NULL` keeps exactly the customers without
/// a matching order — the anti-join `NOT EXISTS` answer — while the
/// left-side conjunct is free to filter the preserved scan.
#[test]
fn left_join_right_side_is_null_keeps_null_extended_rows() {
    let dep = deployment(true);
    let mut conn = dep.server.connect(1);
    conn.execute("SET SCOPE = \"IN (1)\"")
        .expect("scope statement");
    let left_join = conn
        .query(
            "SELECT c_custkey FROM customer LEFT OUTER JOIN orders \
             ON c_custkey = o_custkey AND o_orderdate < DATE '1992-09-01' \
             WHERE o_orderkey IS NULL AND c_acctbal > 0 ORDER BY c_custkey",
        )
        .expect("left join");
    let anti = conn
        .query(
            "SELECT c_custkey FROM customer \
             WHERE NOT EXISTS (SELECT 1 FROM orders \
                               WHERE o_custkey = c_custkey AND o_orderdate < DATE '1992-09-01') \
             AND c_acctbal > 0 ORDER BY c_custkey",
        )
        .expect("not exists");
    let all = conn
        .query("SELECT c_custkey FROM customer WHERE c_acctbal > 0")
        .expect("customers");
    assert!(
        !anti.rows.is_empty() && anti.rows.len() < all.rows.len(),
        "fixture needs customers with and without an early order"
    );
    assert_eq!(left_join, anti);
}
