//! The timed phases: the load loops of the workloads, and the reader of
//! the read probe.
//!
//! Every loop drives the service only through its public API and records
//! plain timestamps (always) plus spans (when the recorder is on). A loop
//! returns a [`Timeline`]; metrics are computed from it afterwards, so
//! nothing but `Instant::now()` and a `Vec::push` runs beside the calls
//! being measured.

use crate::gen::{Batch, Rng};
use crate::trace::{Recorder, Tag};
use gpivot_serve::{EpochSummary, IngestOptions, MetricsSnapshot, ViewService};
use gpivot_sql::{parse_query, GpivotService, SqlOutcome};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Attempted and failed operations, shared by every thread of a run.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Tally {
    pub fn ok(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self, what: impl Into<String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut errors = self.errors.lock().unwrap_or_else(|p| p.into_inner());
        if errors.len() < 20 {
            errors.push(what.into());
        }
    }

    /// Count one check: `ok` or a failure described by `what`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn errors(&self) -> Vec<String> {
        self.errors
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// One schedule batch as the producer sent it.
#[derive(Debug, Clone)]
pub struct Sent {
    pub batch: u64,
    /// When it was due (open loops) or when the loop began sending it
    /// (closed loops): latencies start here.
    pub due: Instant,
    /// When the sender was free to send it: `max(due, end of its previous
    /// operation)`. `sent - free` is how late the generator itself ran.
    pub free: Instant,
    pub sent: Instant,
    /// Ingest calls the batch made, in order.
    pub calls: usize,
}

/// One committed epoch.
#[derive(Debug, Clone)]
pub struct Epoch {
    pub start: Instant,
    pub end: Instant,
    pub summary: EpochSummary,
    /// Its `serve.refresh_epoch` span, when traced.
    pub span: Option<u64>,
}

/// One SQL read.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    pub start: Instant,
    pub end: Instant,
    pub hit: bool,
}

/// Everything a timed round (or, concatenated, the whole run) observed.
#[derive(Debug, Default)]
pub struct Timeline {
    pub sent: Vec<Sent>,
    pub epochs: Vec<Epoch>,
    /// Wall time of the load loop (closed loops: the sum of iterations).
    pub loop_wall: Duration,
    /// Metrics scraped at the start and end of the round.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Timeline {
    /// The timelines of consecutive rounds as one. Every round drains the
    /// queue before it ends, so batches still map to epochs in order; the
    /// metrics scrapes span from the first round's start to the last one's
    /// end.
    pub fn concat(rounds: &[Timeline]) -> Timeline {
        let mut out = Timeline::default();
        for tl in rounds {
            out.sent.extend(tl.sent.iter().cloned());
            out.epochs.extend(tl.epochs.iter().cloned());
            out.loop_wall += tl.loop_wall;
        }
        if let (Some(first), Some(last)) = (rounds.first(), rounds.last()) {
            out.before = first.before.clone();
            out.after = last.after.clone();
        }
        out
    }

    /// For each sent batch (same order as `sent`), the epoch that made it
    /// visible. Batches map to epochs through `EpochSummary::batches_drained`,
    /// which counts ingest calls in ingest order; a batch is visible once
    /// the epoch holding its last call commits.
    pub fn visible_epochs(&self) -> Vec<Option<usize>> {
        let mut out = Vec::with_capacity(self.sent.len());
        let mut epoch = 0usize;
        let mut drained_before = 0u64; // calls drained by epochs < `epoch`
        let mut calls_so_far = 0u64;
        for s in &self.sent {
            calls_so_far += s.calls as u64;
            while epoch < self.epochs.len()
                && drained_before + self.epochs[epoch].summary.batches_drained < calls_so_far
            {
                drained_before += self.epochs[epoch].summary.batches_drained;
                epoch += 1;
            }
            out.push((epoch < self.epochs.len()).then_some(epoch));
        }
        out
    }
}

/// Ingest every call of `batch`, each in a `serve.ingest` span.
fn send(
    svc: &ViewService,
    batch: Batch,
    options: IngestOptions,
    rec: &Recorder,
    tally: &Tally,
) -> usize {
    let calls = batch.calls.len();
    for (table, delta) in batch.calls {
        let res = rec.span("serve.ingest", Tag::batch(batch.id), || {
            svc.ingest_with(table, delta, options)
        });
        match res {
            Ok(()) => tally.ok(),
            Err(e) => tally.fail(format!("ingest into {table}: {e}")),
        }
    }
    calls
}

/// One `refresh_epoch` call in a `serve.refresh_epoch` span; `None` for an
/// empty epoch or a failure (counted).
fn refresh(svc: &ViewService, rec: &Recorder, tally: &Tally) -> Option<Epoch> {
    let start = Instant::now();
    let res = svc.refresh_epoch();
    let end = Instant::now();
    match res {
        Ok(summary) if summary.batches_drained > 0 => {
            tally.ok();
            let span = rec.record("serve.refresh_epoch", start, end, Tag::epoch(summary.epoch));
            Some(Epoch {
                start,
                end,
                summary,
                span,
            })
        }
        Ok(_) => None,
        Err(e) => {
            tally.fail(format!("refresh_epoch: {e}"));
            None
        }
    }
}

fn scrape(svc: &ViewService, rec: &Recorder) -> MetricsSnapshot {
    rec.span("serve.metrics", Tag::default(), || svc.metrics())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Seconds between the monitoring scrapes every workload makes.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
/// How long the refresher may keep draining once the producer is done.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// `trickle`: one open-loop producer sends each batch at its due time; one
/// refresher runs `refresh_epoch` back to back (and `checkpoint` on a fixed
/// cadence) until the producer is done and the queue is empty.
pub fn trickle(
    svc: &ViewService,
    batches: Vec<Batch>,
    t0: Instant,
    checkpoint_every: Duration,
    rec: &Recorder,
    tally: &Tally,
) -> Timeline {
    let done = AtomicBool::new(false);
    let before = scrape(svc, rec);
    let (sent, (epochs, end)) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut sent = Vec::with_capacity(batches.len());
            let mut free_at = t0;
            for batch in batches {
                let due = t0 + batch.due;
                sleep_until(due);
                let start = Instant::now();
                let id = batch.id;
                let calls = send(svc, batch, IngestOptions::blocking(), rec, tally);
                sent.push(Sent {
                    batch: id,
                    due,
                    free: due.max(free_at),
                    sent: start,
                    calls,
                });
                free_at = Instant::now();
            }
            done.store(true, Ordering::SeqCst);
            sent
        });
        let refresher = s.spawn(|| {
            let mut epochs = Vec::new();
            let mut next_checkpoint = t0 + checkpoint_every;
            let mut next_scrape = t0 + SCRAPE_EVERY;
            let mut drain_deadline = None;
            loop {
                let finished = done.load(Ordering::SeqCst);
                if finished {
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
                    if Instant::now() > deadline {
                        tally.fail("the queue did not drain after the producer finished");
                        break;
                    }
                }
                match refresh(svc, rec, tally) {
                    Some(e) => epochs.push(e),
                    None if finished && svc.pending_rows() == 0 => break,
                    // Nothing pending: back off briefly instead of spinning
                    // on the queue lock the producer needs.
                    None => std::thread::sleep(Duration::from_micros(200)),
                }
                let now = Instant::now();
                if now >= next_checkpoint {
                    next_checkpoint += checkpoint_every;
                    let res = rec.span("storage.checkpoint", Tag::default(), || svc.checkpoint());
                    match res {
                        Ok(_) => tally.ok(),
                        Err(e) => tally.fail(format!("checkpoint: {e}")),
                    }
                }
                if now >= next_scrape {
                    next_scrape += SCRAPE_EVERY;
                    scrape(svc, rec);
                }
            }
            (epochs, Instant::now())
        });
        (
            producer.join().expect("producer thread"),
            refresher.join().expect("refresher thread"),
        )
    });
    Timeline {
        sent,
        epochs,
        loop_wall: end - t0,
        before,
        after: scrape(svc, rec),
    }
}

/// `bulk`: a single-thread closed loop — ingest one large batch, then
/// `refresh_epoch`, then the next — until `seconds` pass or the schedule
/// runs out. Each batch is copied for sending outside the timed iteration.
pub fn bulk(
    svc: &ViewService,
    schedule: &[Batch],
    t0: Instant,
    seconds: Duration,
    rec: &Recorder,
    tally: &Tally,
) -> Timeline {
    let before = scrape(svc, rec);
    let mut tl = Timeline::default();
    let mut next_scrape = t0 + SCRAPE_EVERY;
    for batch in schedule {
        if t0.elapsed() >= seconds {
            break;
        }
        let batch = batch.clone();
        let start = Instant::now();
        let id = batch.id;
        // A single-threaded producer must not block on backpressure it
        // would have to relieve itself.
        let calls = send(svc, batch, IngestOptions::non_blocking(), rec, tally);
        tl.sent.push(Sent {
            batch: id,
            due: start,
            free: start,
            sent: start,
            calls,
        });
        if let Some(e) = refresh(svc, rec, tally) {
            tl.epochs.push(e);
        }
        tl.loop_wall += start.elapsed();
        if Instant::now() >= next_scrape {
            next_scrape += SCRAPE_EVERY;
            scrape(svc, rec);
        }
    }
    // Anything a failed epoch left behind still has to commit.
    while svc.pending_rows() > 0 {
        match refresh(svc, rec, tally) {
            Some(e) => tl.epochs.push(e),
            None => break,
        }
    }
    tl.before = before;
    tl.after = scrape(svc, rec);
    tl
}

/// A read the probe sends, with the view the rewriter should answer it
/// from (`None` = a deliberate rewrite miss).
#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    pub expect: Option<&'static str>,
}

/// Which query comes next: 10% the views' own dialect text, 80% σ/π
/// queries the views subsume, 10% base-table misses.
pub fn pick(queries: &[Query], rng: &mut Rng) -> usize {
    // `queries` is laid out as [exact…, subsumed…, miss…] in equal thirds.
    let third = queries.len() / 3;
    let u = rng.below(10);
    let band = match u {
        0 => 0,
        9 => 2,
        _ => 1,
    };
    band * third + rng.below(third)
}

/// One SQL read through `execute_sql`. When traced, the read is a
/// `bench.read` span whose children are `sql.parse` (a separate
/// `parse_query` call) and `sql.execute.hit` / `sql.execute.miss`.
pub fn read(sql: &GpivotService, q: &Query, rec: &Recorder, tally: &Tally) -> Option<Read> {
    let start = Instant::now();
    let traced = rec.active_at(start);
    let parent = traced.then(|| rec.reserve());
    if traced {
        let res = rec.span("sql.parse", Tag::under(parent), || parse_query(&q.sql));
        if let Err(e) = res {
            tally.fail(format!("parse_query: {e}"));
        }
    }
    let exec_start = Instant::now();
    let res = sql.execute_sql(&q.sql);
    let end = Instant::now();
    let out = match res {
        Ok(SqlOutcome::Rows { used_view, .. }) => {
            let hit = used_view.is_some();
            tally.check(used_view.as_deref() == q.expect, || {
                format!(
                    "read answered from {used_view:?}, expected {:?}: {}",
                    q.expect, q.sql
                )
            });
            let name = if hit {
                "sql.execute.hit"
            } else {
                "sql.execute.miss"
            };
            rec.record(name, exec_start, end, Tag::under(parent));
            Some(Read { start, end, hit })
        }
        Ok(other) => {
            tally.fail(format!("read returned {other:?}"));
            None
        }
        Err(e) => {
            tally.fail(format!("execute_sql: {e}"));
            None
        }
    };
    if let Some(id) = parent {
        rec.record_as(id, "bench.read", start, end, Tag::default());
    }
    out
}

/// A closed-loop reader: SQL reads in the [`pick`] mix, and after every
/// tenth read a direct `snapshot().query_view` of a random view (timed as
/// `serve.snapshot_read`, not counted as a SQL read).
pub struct Reader {
    rng: Rng,
    i: u64,
    pub reads: Vec<Read>,
}

impl Reader {
    pub fn new(seed: u64) -> Self {
        Reader {
            rng: Rng::new(seed ^ 0x5eed_f00d),
            i: 0,
            reads: Vec::new(),
        }
    }

    pub fn step(
        &mut self,
        svc: &ViewService,
        sql: &GpivotService,
        queries: &[Query],
        views: &[&'static str],
        rec: &Recorder,
        tally: &Tally,
    ) {
        let q = &queries[pick(queries, &mut self.rng)];
        if let Some(r) = read(sql, q, rec, tally) {
            self.reads.push(r);
        }
        if self.i % 10 == 9 {
            let view = views[self.rng.below(views.len())];
            let res = rec.span("serve.snapshot_read", Tag::default(), || {
                svc.snapshot().query_view(view)
            });
            match res {
                Ok(_) => tally.ok(),
                Err(e) => tally.fail(format!("snapshot read of {view}: {e}")),
            }
        }
        self.i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(drained: u64, at: Instant) -> Epoch {
        Epoch {
            start: at,
            end: at,
            summary: EpochSummary {
                batches_drained: drained,
                ..EpochSummary::default()
            },
            span: None,
        }
    }

    fn sent(batch: u64, calls: usize, at: Instant) -> Sent {
        Sent {
            batch,
            due: at,
            free: at,
            sent: at,
            calls,
        }
    }

    #[test]
    fn batches_map_to_the_epoch_holding_their_last_call() {
        let t = Instant::now();
        let tl = Timeline {
            // Batch 1's two calls straddle epochs 0 and 1.
            sent: vec![sent(0, 1, t), sent(1, 2, t), sent(2, 1, t), sent(3, 1, t)],
            epochs: vec![epoch(2, t), epoch(2, t)],
            ..Timeline::default()
        };
        assert_eq!(tl.visible_epochs(), vec![Some(0), Some(1), Some(1), None]);
    }
}
