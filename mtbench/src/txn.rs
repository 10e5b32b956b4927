//! `tenant-txn`: a durable deployment (group commit on) where two client
//! threads, each owning a disjoint set of tenants, run a seeded mix of
//! transactions against a tenant-specific table with a `CONVERTIBLE`
//! column, each followed by an own-tenant read. The run is a fixed number
//! of transactions, and deletes trim every tenant to a window of recent
//! rows, so the WAL's length and the recovery time depend on the operation
//! count and not on speed. After the run the deployment is dropped and
//! re-opened from its WAL.
//!
//! An INSERT takes its tenant's bucket lock and a following UPDATE/DELETE
//! asks for the whole-table lock, so two read-modify-write transactions can
//! deadlock. Victims are rolled back by the server, counted per transaction
//! kind, and retried; the retries count in the transaction's latency.
//!
//! Every Ledger read is checked against the reader's own commits: it must
//! return the state of the reader's latest acknowledged commit
//! (read-your-writes). On the current program about 1% of them return an
//! earlier committed state instead — a committed transaction stays invisible
//! while the other writer's open transaction holds the committed-epoch
//! floor below it — so the `read_your_writes` check fails and the workload
//! is left out of `BENCHMARK.json` until the engine is fixed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtbase::{Connection, EngineConfig, MtBase, ResultSet, Value};
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries};
use mtsql::ast::Statement;
use rand::rngs::StdRng;
use rand::Rng;

use crate::cells::{ratio, timed_setup};
use crate::stats::{median, percentile};
use crate::{secs, summarize, Args, Outcome};

const SCALE: f64 = 0.1;
const TENANTS: i64 = 10;
const THREADS: usize = 2;
/// Transactions per second of `--seconds`: the run's fixed transaction
/// count is this times the run length.
const TXNS_PER_SECOND: f64 = 2500.0;
/// Rows each tenant keeps: an RMW delete removes every older row.
const WINDOW: i64 = 8;
/// Attempts before a transaction counts as failed.
const MAX_ATTEMPTS: usize = 100;
/// First backoff window after an aborted attempt; it doubles per retry.
const BACKOFF_US: usize = 25;
/// Re-opens of the WAL after the run; `recovery_s` is their median.
const RECOVERY_REPS: usize = 3;

const LEDGER_DDL: &str = "CREATE TABLE Ledger SPECIFIC (
    L_id INTEGER NOT NULL SPECIFIC,
    L_amount DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
    L_note VARCHAR(32) NOT NULL COMPARABLE)";
const LEDGER_READ: &str = "SELECT COUNT(*), SUM(L_amount) FROM Ledger";
const LEDGER_ROWS: &str = "SELECT L_id, L_amount, L_note FROM Ledger";

/// Transaction kinds (latency classes 0–3); reads are classes 4 and 5.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    RmwUpdate,
    RmwDelete,
    Rollback,
}

const CLASSES: [&str; 6] = [
    "insert",
    "rmw_update",
    "rmw_delete",
    "rollback",
    "read_q6",
    "read_ledger",
];

impl Kind {
    /// The seeded mix: 80% read-modify-write (40% INSERT+UPDATE, 40%
    /// INSERT+DELETE), 10% insert-only, 10% rolled back. Read-modify-write
    /// is the shape whose lock conflicts the workload exists to show, so it
    /// is the bulk of the mix; insert-only and rolled-back transactions get
    /// an equal small share each so that their paths run too; UPDATE and
    /// DELETE split the rest evenly, and the deletes keep the table at a
    /// steady size.
    fn pick(rng: &mut StdRng) -> Kind {
        match rng.gen_range(0..100) {
            0..=9 => Kind::Insert,
            10..=49 => Kind::RmwUpdate,
            50..=89 => Kind::RmwDelete,
            _ => Kind::Rollback,
        }
    }

    fn class(self) -> usize {
        self as usize
    }
}

/// How a failed attempt failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Failure {
    Deadlock,
    LockTimeout,
    Other,
}

/// The typed lock errors reach clients as engine errors; the lock manager's
/// messages tell the kinds apart.
fn classify(e: &mtbase::MtError) -> Failure {
    let msg = e.to_string();
    if msg.contains("deadlock detected") {
        Failure::Deadlock
    } else if msg.contains("lock wait on table") {
        Failure::LockTimeout
    } else {
        Failure::Other
    }
}

/// One tenant's committed Ledger rows: id → (amount, note).
type Model = BTreeMap<i64, (i64, String)>;

#[derive(Default)]
struct ThreadResult {
    /// Latencies in ms per latency class.
    classes: Vec<Vec<f64>>,
    /// Latencies in ms of committed transactions, by mode.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    dml_us: Vec<f64>,
    commit_us: Vec<f64>,
    attempts: u64,
    deadlocks: u64,
    /// Attempts and deadlock victims per transaction kind.
    kind_attempts: [u64; 4],
    kind_deadlocks: [u64; 4],
    timeouts: u64,
    other_aborts: u64,
    commits: u64,
    ops: u64,
    failed_ops: u64,
    user_bytes: u64,
    models: BTreeMap<i64, Model>,
    /// Own-tenant Ledger reads, and those that returned an earlier
    /// committed state instead of the latest acknowledged one.
    ledger_reads: u64,
    stale_reads: u64,
    errors: Vec<String>,
}

/// Run one transaction's statements; on a retriable abort the server has
/// already rolled the transaction back.
fn attempt(
    conn: &mut Connection,
    stmts: &[String],
    end: &str,
    traced: bool,
    r: &mut ThreadResult,
) -> Result<(), (Failure, String)> {
    let fail = |e: mtbase::MtError| (classify(&e), e.to_string());
    conn.execute("BEGIN").map_err(fail)?;
    for s in stmts {
        let t0 = Instant::now();
        let res = conn.execute(s);
        if traced {
            r.dml_us.push(secs(t0) * 1e6);
        }
        res.map_err(fail)?;
    }
    let t0 = Instant::now();
    conn.execute(end).map_err(fail)?;
    if traced && end == "COMMIT" {
        r.commit_us.push(secs(t0) * 1e6);
    }
    Ok(())
}

fn writer(server: Arc<MtBase>, thread: usize, txns: usize, seed: u64, trace: bool) -> ThreadResult {
    let mut r = ThreadResult {
        classes: vec![Vec::new(); CLASSES.len()],
        ..ThreadResult::default()
    };
    let tenants: Vec<i64> = (1..=TENANTS)
        .filter(|t| (*t as usize - 1) % THREADS == thread)
        .collect();
    let mut conns: Vec<Connection> = tenants.iter().map(|&t| server.connect(t)).collect();
    let mut next_id: Vec<i64> = vec![0; tenants.len()];
    let mut q6: Vec<Option<ResultSet>> = vec![None; tenants.len()];
    // Every committed (COUNT, SUM) state of each tenant's Ledger share, in
    // commit order; the last one is what a read must return.
    let mut states: Vec<Vec<(Option<i64>, Option<f64>)>> =
        vec![vec![(Some(0), None)]; tenants.len()];
    for &t in &tenants {
        r.models.insert(t, Model::new());
    }
    let q6_sql = queries::query(6);
    let mut rng = crate::seeded(seed, 100 + thread as u64);
    let mut backoff = crate::seeded(seed, 200 + thread as u64);
    for n in 0..txns {
        let i = rng.gen_range(0..tenants.len());
        let t = tenants[i];
        let kind = Kind::pick(&mut rng);
        let amount = rng.gen_range(1..=1000i64);
        let id = next_id[i] + 1;
        let note = format!("t{t}-n{n}");
        let mut stmts = vec![format!(
            "INSERT INTO Ledger VALUES ({id}, {amount}, '{note}')"
        )];
        match kind {
            Kind::RmwUpdate => stmts.push(format!(
                "UPDATE Ledger SET L_amount = L_amount + 1 WHERE L_id = {}",
                id - 1
            )),
            Kind::RmwDelete => {
                stmts.push(format!("DELETE FROM Ledger WHERE L_id <= {}", id - WINDOW))
            }
            Kind::Insert | Kind::Rollback => {}
        }
        let end = if kind == Kind::Rollback {
            "ROLLBACK"
        } else {
            "COMMIT"
        };
        let traced = trace && n % 2 == 1;

        r.ops += 1;
        let t0 = Instant::now();
        let mut done = false;
        for retry in 0..MAX_ATTEMPTS {
            if retry > 0 {
                // Randomized exponential backoff, as a client retrying a
                // deadlock victim would; the wait counts in the latency.
                let cap_us = BACKOFF_US << retry.min(6);
                std::thread::sleep(Duration::from_micros(backoff.gen_range(0..cap_us) as u64));
            }
            r.attempts += 1;
            r.kind_attempts[kind.class()] += 1;
            match attempt(&mut conns[i], &stmts, end, traced, &mut r) {
                Ok(()) => {
                    done = true;
                    break;
                }
                Err((f, msg)) => match f {
                    Failure::Deadlock => {
                        r.deadlocks += 1;
                        r.kind_deadlocks[kind.class()] += 1;
                    }
                    Failure::LockTimeout => r.timeouts += 1,
                    Failure::Other => {
                        r.other_aborts += 1;
                        r.errors.push(format!("tenant {t} txn {n}: {msg}"));
                        if conns[i].in_transaction() {
                            let _ = conns[i].execute("ROLLBACK");
                        }
                        break;
                    }
                },
            }
        }
        let ms = secs(t0) * 1e3;
        if !done {
            r.failed_ops += 1;
            continue;
        }
        r.classes[kind.class()].push(ms);
        if kind != Kind::Rollback {
            r.commits += 1;
            if traced {
                r.traced.push(ms);
            } else {
                r.untraced.push(ms);
            }
            let model = r.models.get_mut(&t).expect("own tenant");
            model.insert(id, (amount, note.clone()));
            r.user_bytes += 16 + note.len() as u64;
            next_id[i] = id;
            match kind {
                Kind::RmwUpdate => {
                    if let Some(row) = model.get_mut(&(id - 1)) {
                        row.0 += 1;
                        r.user_bytes += 8;
                    }
                }
                Kind::RmwDelete => model.retain(|&k, _| k > id - WINDOW),
                Kind::Insert | Kind::Rollback => {}
            }
            let sum: i64 = model.values().map(|(a, _)| a).sum();
            states[i].push((
                Some(model.len() as i64),
                (!model.is_empty()).then_some(sum as f64),
            ));
        }

        // The own-tenant read that follows every transaction.
        r.ops += 1;
        let ledger = rng.gen_bool(0.5);
        let t0 = Instant::now();
        let res = conns[i].query(if ledger { LEDGER_READ } else { &q6_sql });
        let ms = secs(t0) * 1e3;
        match res {
            Err(e) => {
                r.failed_ops += 1;
                r.errors.push(format!("tenant {t} read: {e}"));
            }
            Ok(rs) => {
                r.classes[if ledger { 5 } else { 4 }].push(ms);
                if ledger {
                    let got = rs
                        .rows
                        .first()
                        .map_or((None, None), |row| (row[0].as_i64(), row[1].as_f64()));
                    let history = &states[i];
                    r.ledger_reads += 1;
                    if history.last() != Some(&got) {
                        if history.contains(&got) {
                            r.stale_reads += 1;
                        } else {
                            r.errors.push(format!(
                                "tenant {t}: Ledger read {got:?} is no committed state (latest {:?})",
                                history.last()
                            ));
                        }
                    }
                } else if let Some(first) = &q6[i] {
                    if *first != rs {
                        r.errors
                            .push(format!("tenant {t}: Q6 changed under writes"));
                    }
                } else {
                    q6[i] = Some(rs);
                }
            }
        }
    }
    r
}

fn merge(into: &mut ThreadResult, r: ThreadResult) {
    for (c, s) in into.classes.iter_mut().zip(r.classes) {
        c.extend(s);
    }
    into.untraced.extend(r.untraced);
    into.traced.extend(r.traced);
    into.dml_us.extend(r.dml_us);
    into.commit_us.extend(r.commit_us);
    into.attempts += r.attempts;
    into.deadlocks += r.deadlocks;
    for k in 0..4 {
        into.kind_attempts[k] += r.kind_attempts[k];
        into.kind_deadlocks[k] += r.kind_deadlocks[k];
    }
    into.timeouts += r.timeouts;
    into.other_aborts += r.other_aborts;
    into.commits += r.commits;
    into.ops += r.ops;
    into.failed_ops += r.failed_ops;
    into.user_bytes += r.user_bytes;
    into.models.extend(r.models);
    into.ledger_reads += r.ledger_reads;
    into.stale_reads += r.stale_reads;
    into.errors.extend(r.errors);
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Rows of each tenant's Ledger share, read through that tenant's own
/// connection, in the model's shape.
fn ledger_contents(server: &Arc<MtBase>) -> Result<BTreeMap<i64, Model>, String> {
    let mut all = BTreeMap::new();
    for t in 1..=TENANTS {
        let rs = server
            .connect(t)
            .query(LEDGER_ROWS)
            .map_err(|e| e.to_string())?;
        let mut model = Model::new();
        for row in rs.rows {
            let id = row[0].as_i64().ok_or("non-integer L_id")?;
            let amount = row[1].as_f64().ok_or("non-numeric L_amount")? as i64;
            let note = match &row[2] {
                Value::Str(s) => s.to_string(),
                other => other.to_string(),
            };
            model.insert(id, (amount, note));
        }
        all.insert(t, model);
    }
    Ok(all)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let config = MthConfig {
        scale: SCALE,
        tenants: TENANTS,
        distribution: TenantDistribution::Uniform,
        seed: args.seed,
    };
    let engine = EngineConfig::postgres_like();
    let wal_dir = PathBuf::from(".mtbench_wal");
    std::fs::create_dir_all(&wal_dir).expect("create the WAL directory in the working directory");
    let path = wal_dir.join(format!("txn-{}.wal", std::process::id()));
    let txns = ((args.seconds * TXNS_PER_SECOND) as usize).max(THREADS * 10);
    out.info("scale", SCALE);
    out.info("tenants", TENANTS);
    out.info("clients", THREADS);
    out.info("transactions", txns);
    out.info("wal_filesystem", crate::sys::filesystem_of(&wal_dir));
    out.info(
        "flush_policy",
        format!(
            "group_commit={}, one sync_data per flush",
            engine.group_commit
        ),
    );

    let dep = timed_setup(&config, out, |data| {
        // The previous set-up's deployment is dropped: start a fresh log.
        let _ = std::fs::remove_file(&path);
        loader::load_durable_from_data(config, engine, data, &path).expect("durable MT-H load")
    });
    let ddl = match mtsql::parse_statement(LEDGER_DDL).expect("Ledger DDL parses") {
        Statement::CreateTable(ct) => ct,
        _ => unreachable!("Ledger DDL is a CREATE TABLE"),
    };
    dep.server.create_table(&ddl).expect("create Ledger");

    // The run: only `MtBase::stats()` deltas taken around the whole run are
    // read — per-statement deltas are engine-global and wrong under
    // concurrent sessions.
    let wal_before = file_len(&path);
    let before = dep.server.stats();
    let start = Instant::now();
    let per_thread = txns / THREADS;
    let results: Vec<ThreadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let server = Arc::clone(&dep.server);
                s.spawn(move || writer(server, i, per_thread, args.seed, args.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    let elapsed = secs(start);
    let delta = dep.server.stats().delta_from(&before);
    let wal_after = file_len(&path);
    let mut r = ThreadResult {
        classes: vec![Vec::new(); CLASSES.len()],
        ..ThreadResult::default()
    };
    for t in results {
        merge(&mut r, t);
    }
    out.attempted += r.ops;
    out.failed += r.failed_ops;

    out.check(
        "reads_and_writes",
        r.errors.is_empty(),
        if r.errors.is_empty() {
            format!(
                "{} transactions; every own-tenant read returned a committed state",
                per_thread * THREADS
            )
        } else {
            summarize(&r.errors)
        },
    );
    // Read-your-writes: a read after an acknowledged commit sees it.
    out.check(
        "read_your_writes",
        r.stale_reads == 0,
        format!(
            "{} of {} Ledger reads missed the reader's own latest acknowledged commit",
            r.stale_reads, r.ledger_reads
        ),
    );
    out.check(
        "wal_commits_equal_acknowledged",
        delta.wal_commits == r.commits,
        format!(
            "{} WAL commits for {} acknowledged commits",
            delta.wal_commits, r.commits
        ),
    );

    // End-to-end: the median committed transaction's BEGIN→COMMIT latency
    // (retries included), the sum of the six class medians, and
    // acknowledged commits per second.
    out.set("latency_ms", median(&r.untraced).unwrap_or(0.0));
    out.set(
        "sweep_s",
        crate::cells::class_medians(&r.classes).map_or(0.0, |m| crate::cells::sweep_s(&m)),
    );
    out.set("ops_per_s", r.commits as f64 / elapsed);
    for (name, c) in CLASSES.iter().zip(&r.classes) {
        out.info(&format!("{name}_p50_ms"), median(c).unwrap_or(0.0));
    }
    let committed = r.classes[..3].concat();
    out.set("txn_p99_ms", percentile(&committed, 0.99).unwrap_or(0.0));
    let reads = r.classes[4..].concat();
    out.set("read_p50_ms", median(&reads).unwrap_or(0.0));
    out.set("read_p99_ms", percentile(&reads, 0.99).unwrap_or(0.0));
    let aborted = r.deadlocks + r.timeouts + r.other_aborts;
    out.set("error_rate", ratio(aborted, r.attempts));
    out.info("attempts", r.attempts);

    out.set("lock.deadlock_victims", r.deadlocks as f64);
    for (k, name) in CLASSES[..4].iter().enumerate() {
        out.set(
            &format!("lock.victim_frac.{name}"),
            ratio(r.kind_deadlocks[k], r.kind_attempts[k]),
        );
    }
    out.set("txn.stale_read_frac", ratio(r.stale_reads, r.ledger_reads));
    out.set("lock.timeouts", r.timeouts as f64);
    out.set("txn.rollbacks", delta.txn_rollbacks as f64);
    out.set(
        "wal.fsyncs_per_commit",
        ratio(delta.wal_fsyncs, delta.wal_commits),
    );
    let growth = wal_after.saturating_sub(wal_before);
    out.set("wal.bytes_per_commit", ratio(growth, delta.wal_commits));
    out.set("wal.bytes_per_user_byte", ratio(growth, r.user_bytes));
    if args.trace {
        out.set("mtbase.dml_us.p50", median(&r.dml_us).unwrap_or(0.0));
        out.set(
            "mtbase.dml_us.p99",
            percentile(&r.dml_us, 0.99).unwrap_or(0.0),
        );
        out.set(
            "mtengine.commit_us.p50",
            median(&r.commit_us).unwrap_or(0.0),
        );
        out.set(
            "mtengine.commit_us.p99",
            percentile(&r.commit_us, 0.99).unwrap_or(0.0),
        );
        let overhead = median(&r.traced).unwrap_or(0.0) / median(&r.untraced).unwrap_or(1.0) - 1.0;
        out.set("trace.overhead_frac", overhead);
    }

    // Recovery: drop the deployment and re-open it from the WAL.
    drop(dep);
    let wal_bytes = file_len(&path);
    let mut recovery = Vec::new();
    let mut recovered = None;
    for _ in 0..RECOVERY_REPS {
        drop(recovered.take());
        let t0 = Instant::now();
        match loader::reopen_durable(engine, &path) {
            Ok(server) => {
                recovery.push(secs(t0));
                recovered = Some(server);
            }
            Err(e) => {
                out.check("recovery", false, e.to_string());
                break;
            }
        }
    }
    if let Some(server) = recovered {
        let recovery_s = median(&recovery).expect("at least one reopen");
        out.set("recovery_s", recovery_s);
        out.set("recovery.wal_bytes", wal_bytes as f64);
        out.set(
            "recovery.replay_mb_per_s",
            wal_bytes as f64 / 1e6 / recovery_s.max(1e-9),
        );
        match ledger_contents(&server) {
            Ok(found) => {
                let rows: usize = found.values().map(Model::len).sum();
                let expected: usize = r.models.values().map(Model::len).sum();
                out.check(
                    "recovered_equals_acknowledged",
                    found == r.models,
                    format!("{rows} rows recovered, {expected} acknowledged"),
                );
            }
            Err(e) => out.check("recovered_equals_acknowledged", false, e),
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&wal_dir);

    out.check(
        "no_failed_operations",
        out.failed == 0,
        format!("{} of {} operations failed", out.failed, out.attempted),
    );
}
