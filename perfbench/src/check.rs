//! Work outside the timed rounds: set-up, the read and recovery probes, the
//! correctness gate, and the traced replay of the recorded epochs.

use crate::gen::Batch;
use crate::load::{Query, Reader, Tally, Timeline};
use crate::trace::{self_time_ns, Recorder, Span, Tag};
use gpivot_algebra::Plan;
use gpivot_core::{SourceDeltas, ViewManager};
use gpivot_exec::Executor;
use gpivot_serve::{RecoveryReport, ServeConfig, ViewService};
use gpivot_sql::{parse_query, GpivotService, SqlOutcome};
use gpivot_storage::Catalog;
use std::path::Path;
use std::time::{Duration, Instant};

/// The three paper views under the names the benchmark registers them as.
pub type Views = Vec<(&'static str, Plan)>;

pub fn paper_views() -> Views {
    vec![
        ("view1", gpivot_tpch::view1()),
        (
            "view2",
            gpivot_tpch::view2(gpivot_tpch::views::VIEW2_THRESHOLD),
        ),
        ("view3", gpivot_tpch::view3()),
    ]
}

fn parser(sql: &str) -> Result<Plan, String> {
    parse_query(sql).map_err(|e| e.to_string())
}

/// Open the service (durably in `dir`, else in memory) over a copy of
/// `base`, register the three views, and wrap it for SQL. Returns the
/// service, its SQL facade, and the seconds it took — the copy of `base`
/// is made before the clock starts.
pub fn setup(
    base: &Catalog,
    dir: Option<&Path>,
    views: &Views,
    rec: &Recorder,
) -> Result<(ViewService, GpivotService, f64), String> {
    let catalog = base.clone();
    let plans: Vec<Plan> = views.iter().map(|(_, p)| p.clone()).collect();
    let cfg = ServeConfig::default();
    let start = Instant::now();
    let svc = match dir {
        Some(dir) => {
            ViewService::open(dir, catalog, cfg, &parser)
                .map_err(|e| format!("open {}: {e}", dir.display()))?
                .0
        }
        None => ViewService::new(catalog, cfg),
    };
    for ((name, _), plan) in views.iter().zip(plans) {
        rec.span(
            &format!("serve.register_view.{name}"),
            Tag::default(),
            || svc.register_view(*name, plan),
        )
        .map_err(|e| format!("register {name}: {e}"))?;
    }
    let sql = GpivotService::from_service(svc.clone());
    Ok((svc, sql, start.elapsed().as_secs_f64()))
}

/// The SQL reads: the views' own dialect text, σ/π queries over them that
/// the rewriter answers from the views, and base-table queries it cannot —
/// equal thirds, each third cycling through parameter values.
pub fn queries(views: &Views) -> Vec<Query> {
    let text = |i: usize| views[i].1.to_sql_dialect();
    let year =
        |y: i64, col: &str| gpivot_algebra::encode_pivot_col(&[gpivot_storage::Value::Int(y)], col);
    let p1 = gpivot_tpch::views::price_col(1);
    let mut exact = Vec::new();
    let mut subsumed = Vec::new();
    let mut miss = Vec::new();
    for k in 0..8i64 {
        let (name, _) = views[(k % 3) as usize];
        exact.push(Query {
            sql: text((k % 3) as usize),
            expect: Some(name),
        });
        let nation = (k * 7) % 25;
        let price = 20_000 + k * 10_000;
        let total = 100_000 + k * 40_000;
        subsumed.push(match k % 3 {
            0 => Query {
                sql: format!(
                    "SELECT l_orderkey, c_custkey, \"{p1}\" AS p1 FROM (\n{}\n) sub \
                     WHERE c_nationkey = {nation}",
                    text(0)
                ),
                expect: Some("view1"),
            },
            1 => Query {
                sql: format!(
                    "SELECT o_orderkey, o_totalprice, \"{p1}\" AS p1 FROM (\n{}\n) sub \
                     WHERE o_totalprice > {total}.0",
                    text(1)
                ),
                expect: Some("view2"),
            },
            _ => Query {
                sql: format!(
                    "SELECT c_custkey, \"{}\" AS s, \"{}\" AS n FROM (\n{}\n) sub \
                     WHERE c_nationkey = {nation}",
                    year(1994 + k % 5, "sum_price"),
                    year(1994 + k % 5, "cnt"),
                    text(2)
                ),
                expect: Some("view3"),
            },
        });
        miss.push(Query {
            sql: match k % 3 {
                0 => format!(
                    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > {total}.0"
                ),
                1 => format!("SELECT c_custkey, c_name FROM customer WHERE c_nationkey = {nation}"),
                _ => format!(
                    "SELECT l_orderkey, l_extendedprice FROM lineitem \
                     WHERE l_extendedprice > {price}.0 AND l_quantity = {}",
                    1 + k * 6
                ),
            },
            expect: None,
        });
    }
    exact.into_iter().chain(subsumed).chain(miss).collect()
}

/// `n` steps of `reader` against a quiescent service; returns their wall
/// time. The reads collect in `reader`.
#[allow(clippy::too_many_arguments)]
pub fn read_probe(
    reader: &mut Reader,
    n: usize,
    svc: &ViewService,
    sql: &GpivotService,
    queries: &[Query],
    views: &[&'static str],
    rec: &Recorder,
    tally: &Tally,
) -> Duration {
    let start = Instant::now();
    for _ in 0..n {
        reader.step(svc, sql, queries, views, rec, tally);
    }
    start.elapsed()
}

/// Each query's answer through `execute_sql` must be bag-equal to running
/// it directly on the base tables (checked once per query on a quiescent
/// service).
pub fn check_reads(sql: &GpivotService, queries: &[Query], tally: &Tally) {
    for q in queries {
        let answered = match sql.execute_sql(&q.sql) {
            Ok(SqlOutcome::Rows { table, .. }) => table,
            other => {
                tally.fail(format!("read check: {other:?}"));
                continue;
            }
        };
        let direct = parse_query(&q.sql)
            .map_err(|e| e.to_string())
            .and_then(|plan| {
                let snap = sql.service().snapshot();
                let m = snap.manager();
                m.executor()
                    .run(&plan, m.catalog())
                    .map_err(|e| e.to_string())
            });
        match direct {
            Ok(direct) => tally.check(answered.bag_eq(&direct), || {
                format!("read answer differs from base-table execution: {}", q.sql)
            }),
            Err(e) => tally.fail(format!("read check baseline: {e}")),
        }
    }
}

/// Apply batches, in order, to a plain catalog.
pub fn apply_all<'a>(
    mirror: &mut Catalog,
    batches: impl IntoIterator<Item = &'a Batch>,
    tally: &Tally,
) {
    for b in batches {
        for (table, delta) in &b.calls {
            if let Err(e) = mirror.apply_delta(table, delta) {
                tally.fail(format!("mirror apply of batch {} to {table}: {e}", b.id));
            }
        }
    }
}

/// The correctness gate: `verify_all()`, every base table bag-equal to the
/// mirror, and every view bag-equal to `Executor::run` of its definition on
/// the mirror.
pub fn gate(svc: &ViewService, mirror: &Catalog, views: &Views, tally: &Tally) {
    match svc.verify_all() {
        Ok(ok) => tally.check(ok, || {
            "verify_all found a view that differs from recomputation".into()
        }),
        Err(e) => tally.fail(format!("verify_all: {e}")),
    }
    let snap = svc.snapshot();
    let live = snap.manager().catalog();
    for table in mirror.table_names() {
        let same =
            matches!((live.table(table), mirror.table(table)), (Ok(a), Ok(b)) if a.bag_eq(b));
        tally.check(same, || {
            format!("base table {table} differs from the mirror")
        });
    }
    let exec = Executor::new();
    for (name, plan) in views {
        match (exec.run(plan, mirror), snap.query_view(name)) {
            (Ok(expected), Ok(got)) => tally.check(got.bag_eq(&expected), || {
                format!("{name} differs from its definition run on the mirror")
            }),
            (a, b) => tally.fail(format!("oracle for {name}: {:?} / {:?}", a.err(), b.err())),
        }
    }
}

/// What the recovery probe measured.
#[derive(Default)]
pub struct Recovery {
    pub open_secs: Vec<f64>,
    pub report: RecoveryReport,
}

/// Make `dir` the recovery probe's directory: a durable service over a
/// copy of `base` with the three views, checkpointed, then the seed-fixed
/// log tail (`tail`, committed in `tail_epochs` epochs) appended and the
/// service dropped without a checkpoint, so every open of `dir` replays
/// exactly that tail. Returns the state a recovery must reach.
pub fn prepare_recovery(
    base: &Catalog,
    dir: &Path,
    tail: &[Batch],
    tail_epochs: usize,
    views: &Views,
    rec: &Recorder,
    tally: &Tally,
) -> Result<Catalog, String> {
    let (svc, _, _) = setup(base, Some(dir), views, rec)?;
    rec.span("storage.checkpoint", Tag::default(), || svc.checkpoint())
        .map_err(|e| format!("checkpoint: {e}"))?;
    let per_epoch = tail.len().div_ceil(tail_epochs.max(1)).max(1);
    for chunk in tail.chunks(per_epoch) {
        for b in chunk {
            for (table, delta) in &b.calls {
                let res = svc.ingest_with(table, delta.clone(), Default::default());
                tally.check(res.is_ok(), || format!("tail ingest: {res:?}"));
            }
        }
        let res = svc.refresh_epoch();
        tally.check(res.is_ok(), || format!("tail epoch: {res:?}"));
    }
    let mut expected = base.clone();
    apply_all(&mut expected, tail, tally);
    Ok(expected)
}

/// Time `reps` opens of the prepared `dir`, one open service at a time.
pub fn time_opens(
    dir: &Path,
    reps: usize,
    out: &mut Recovery,
    tally: &Tally,
) -> Result<(), String> {
    for _ in 0..reps {
        let start = Instant::now();
        let opened = ViewService::open(dir, Catalog::new(), ServeConfig::default(), &parser);
        out.open_secs.push(start.elapsed().as_secs_f64());
        let (_svc, report) = opened.map_err(|e| format!("recovery open: {e}"))?;
        tally.ok();
        out.report = report;
    }
    Ok(())
}

/// Open `dir` once more (untimed) and gate the recovered state.
pub fn gate_recovery(
    dir: &Path,
    expected: &Catalog,
    views: &Views,
    tally: &Tally,
) -> Result<(), String> {
    let (svc, _) = ViewService::open(dir, Catalog::new(), ServeConfig::default(), &parser)
        .map_err(|e| format!("recovery open: {e}"))?;
    gate(&svc, expected, views, tally);
    Ok(())
}

/// What the replay measured, per replayed epoch.
#[derive(Default)]
pub struct Replay {
    pub epochs: usize,
    /// `serve.self_ms` samples: the live `refresh_epoch` time minus the
    /// replayed critical path.
    pub self_ms: Vec<f64>,
}

/// Replay the committed epochs on a mirror `ViewManager` through the
/// layers' own public calls — `maintain_view` per view, `stage_commit`,
/// `apply_staged`, and (every `exec_every` epochs) `Executor::run` of each
/// definition — each in a span parented to the live epoch's span. Stops
/// after `budget`; the exec runs double as an oracle for the mirror views.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    base: &Catalog,
    views: &Views,
    tl: &Timeline,
    batches: &[Batch],
    workers: usize,
    exec_every: usize,
    budget: Duration,
    rec: &Recorder,
    tally: &Tally,
) -> Replay {
    let mut mgr = ViewManager::new(base.clone());
    for (name, plan) in views {
        rec.span("analyze.analyze", Tag::default(), || {
            gpivot_analyze::analyze(plan, mgr.catalog())
        });
        let res = rec.span(&format!("core.register.{name}"), Tag::default(), || {
            mgr.register_view(*name, plan.clone())
        });
        tally.check(res.is_ok(), || format!("mirror register {name}: {res:?}"));
    }

    // Rebuild each epoch's drained batch from the ingest calls it took.
    let by_id: std::collections::HashMap<u64, &Batch> = batches.iter().map(|b| (b.id, b)).collect();
    let mut per_epoch: Vec<SourceDeltas> = vec![SourceDeltas::new(); tl.epochs.len()];
    let mut epoch = 0usize;
    let mut left = tl.epochs.first().map_or(0, |e| e.summary.batches_drained);
    'calls: for s in &tl.sent {
        for (table, delta) in &by_id[&s.batch].calls {
            while left == 0 {
                epoch += 1;
                if epoch >= tl.epochs.len() {
                    break 'calls;
                }
                left = tl.epochs[epoch].summary.batches_drained;
            }
            per_epoch[epoch].add_delta(*table, delta.clone());
            left -= 1;
        }
    }

    let exec = Executor::new();
    let mut out = Replay::default();
    let start = Instant::now();
    for (k, (live, deltas)) in tl.epochs.iter().zip(&per_epoch).enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let tag = Tag {
            parent: live.span,
            epoch: Some(live.summary.epoch),
            batch: None,
        };
        let mut maintain_ns = Vec::with_capacity(views.len());
        for (name, _) in views {
            let t = Instant::now();
            let res = mgr.maintain_view(name, deltas);
            let end = Instant::now();
            rec.record(&format!("core.maintain.{name}"), t, end, tag);
            maintain_ns.push((end - t).as_nanos() as u64);
            tally.check(res.is_ok(), || format!("replay maintain {name}: {res:?}"));
        }
        let t = Instant::now();
        let staged = mgr.stage_commit(deltas);
        let stage_end = Instant::now();
        rec.record("storage.stage", t, stage_end, tag);
        let staged = match staged {
            Ok(s) => s,
            Err(e) => {
                tally.fail(format!("replay stage_commit: {e}"));
                break;
            }
        };
        tally.ok();
        mgr.apply_staged(staged);
        let commit_end = Instant::now();
        rec.record("storage.commit", stage_end, commit_end, tag);
        out.epochs += 1;

        if k % exec_every.max(1) == 0 {
            for (name, plan) in views {
                let res = rec.span(&format!("exec.run.{name}"), tag, || {
                    exec.run(plan, mgr.catalog())
                });
                let same = match (res, mgr.query_view(name)) {
                    (Ok(fresh), Ok(kept)) => fresh.bag_eq(&kept),
                    _ => false,
                };
                tally.check(same, || {
                    format!("replayed {name} differs from recompute at epoch {k}")
                });
            }
        }

        // serve.self_ms: lay the replayed work out the way the live epoch
        // runs it — views round-robin over the refresh workers, then stage,
        // then commit — and take what it does not cover of the live epoch.
        if live.span.is_some() {
            let refresh_ns = (live.end - live.start).as_nanos() as u64;
            let mut children = Vec::new();
            let mut buckets = vec![0u64; workers.max(1)];
            for (i, ns) in maintain_ns.iter().enumerate() {
                let b = i % buckets.len();
                children.push(interval(buckets[b], buckets[b] + ns));
                buckets[b] += ns;
            }
            let crit = buckets.iter().copied().max().unwrap_or(0);
            let stage_ns = (stage_end - t).as_nanos() as u64;
            let commit_ns = (commit_end - stage_end).as_nanos() as u64;
            children.push(interval(crit, crit + stage_ns));
            children.push(interval(crit + stage_ns, crit + stage_ns + commit_ns));
            let refs: Vec<&Span> = children.iter().collect();
            let self_ns = self_time_ns(&interval(0, refresh_ns), &refs);
            out.self_ms.push(self_ns as f64 / 1e6);
        }
    }
    out
}

fn interval(start_ns: u64, end_ns: u64) -> Span {
    Span {
        id: 0,
        parent: None,
        name: String::new(),
        start_ns,
        end_ns,
        epoch: None,
        batch: None,
    }
}
