//! `perfbench` — the benchmark of record for this repository.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload trickle|bulk --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the three paper views (view1 `pivot-update`, view2
//! `select-pivot-update`, view3 `group-pivot-update`) through the public
//! serve API from one process, checks every output against an oracle, and
//! prints one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from spans the benchmark records around its calls
//! into each layer. See `perfbench/README.md`.

mod check;
mod gen;
mod load;
mod trace;

use check::{paper_views, Views};
use gen::{Batch, Mix};
use load::{Tally, Timeline};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{json_num, json_str, median, ms, quantile, Recorder, Span};

/// Environment variables that would change what the program runs;
/// `ServeConfig::default()` reads the first two.
const PINNED_ENV: [&str; 3] = [
    "GPIVOT_EXEC_THREADS",
    "GPIVOT_EXEC_COLUMNAR",
    "GPIVOT_SHARDS",
];

/// A run is invalid when the generator's p99 lateness exceeds this.
const GEN_LAG_BOUND_MS: f64 = 50.0;
/// The timed phase runs in rounds of about this length. Between rounds the
/// service is quiescent and the short measurements run — one set-up, a few
/// recovery opens, a share of the read probe — so that each metric samples
/// the host across the whole run rather than in one burst.
const ROUND: Duration = Duration::from_secs(5);
/// Traced runs trace alternate slices of this length during the rounds;
/// the untraced slices in between give the overhead baseline.
const TRACE_SLICE: Duration = Duration::from_millis(500);
/// Wall-time budget for the traced replay.
const REPLAY_BUDGET: Duration = Duration::from_secs(4);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Trickle,
    Bulk,
}

/// How a workload's batches are sent.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Open loop: one batch due every interval.
    Open(Duration),
    /// Closed loop: the schedule holds `seconds × batches_per_s` batches,
    /// sent back to back.
    Closed { batches_per_s: f64 },
}

/// Everything that defines a workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    scale: f64,
    durable: bool,
    mix: Mix,
    pace: Pace,
    /// Recovery opens after each round (`recover_s` is their median).
    opens_per_round: usize,
    /// Batches (and epochs) of the log tail the recovery probe replays.
    tail_batches: usize,
    tail_epochs: usize,
    /// Reader steps of the read probe, spread over the rounds.
    read_probe: usize,
    /// `checkpoint` cadence of durable workloads.
    checkpoint_every: Duration,
    /// Replay runs `Executor::run` of every view on every n-th epoch.
    exec_every: usize,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "trickle" => Some(Workload::Trickle),
            "bulk" => Some(Workload::Bulk),
            _ => None,
        }
    }

    fn spec(self) -> Spec {
        match self {
            // Tiny Δ on a large durable base: the fixed per-epoch work
            // (queue, WAL append + fsync, staging, view2's recompute) rules.
            Workload::Trickle => Spec {
                name: "trickle",
                scale: 1.0,
                durable: true,
                mix: Mix {
                    deletes: 4.0,
                    updates: 4.0,
                    cancel_pairs: 1.0,
                    order_updates: 0.01,
                    customer_updates: 0.004,
                    lag: 50,
                    zipf: None,
                },
                pace: Pace::Open(Duration::from_millis(20)),
                opens_per_round: 2,
                tail_batches: 20,
                tail_epochs: 4,
                read_probe: 1_200,
                checkpoint_every: Duration::from_millis(2_500),
                exec_every: 20,
            },
            // Large skewed Δ in memory: Δ-proportional propagate/apply and
            // the exec kernels rule; no WAL, staging a small share.
            Workload::Bulk => Spec {
                name: "bulk",
                scale: 1.0,
                durable: false,
                mix: Mix {
                    deletes: 700.0,
                    updates: 700.0,
                    cancel_pairs: 0.0,
                    order_updates: 60.0,
                    customer_updates: 6.0,
                    lag: 2,
                    zipf: Some(1.1),
                },
                pace: Pace::Closed { batches_per_s: 6.0 },
                opens_per_round: 2,
                tail_batches: 1,
                tail_epochs: 1,
                read_probe: 1_200,
                checkpoint_every: Duration::ZERO,
                exec_every: 4,
            },
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload trickle|bulk --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: Workload::parse(get("workload")?)
            .ok_or_else(|| format!("unknown workload {:?}", kv["workload"]))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set; the benchmark measures the \
             program's defaults (unset {})",
            PINNED_ENV.join(", ")
        );
        return ExitCode::from(2);
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!(
        "work-{}-{}",
        args.workload.spec().name,
        std::process::id()
    ));
    let result = run(&args, &out_dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(r) => {
            println!("# {}", r.context);
            println!("{}", r.json);
            for e in &r.errors {
                eprintln!("perfbench: FAILED: {e}");
            }
            if !r.valid {
                eprintln!(
                    "perfbench: run invalid: the generator ran {:.1} ms late at p99 \
                     (bound {GEN_LAG_BOUND_MS} ms)",
                    r.gen_lag_p99
                );
                return ExitCode::from(3);
            }
            if r.failed > 0 {
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A finished run.
struct Outcome {
    context: String,
    json: String,
    errors: Vec<String>,
    failed: u64,
    valid: bool,
    gen_lag_p99: f64,
}

/// Wall time of each part of a run, for the stderr log.
struct Phases {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    fn new() -> Self {
        Phases {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        self.done.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    fn report(&self) -> String {
        let parts: Vec<String> = self
            .done
            .iter()
            .map(|(n, s)| format!("{n} {s:.1}"))
            .collect();
        parts.join(", ")
    }
}

/// Metrics by name, with units, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Quantile of `samples`; 0 (with a warning) when there are none.
    fn q(&mut self, name: impl Into<String>, samples: &[f64], q: f64, unit: &'static str) {
        let name = name.into();
        let v = quantile(samples, q).unwrap_or_else(|| {
            eprintln!("perfbench: no samples for {name}; reporting 0");
            0.0
        });
        self.put(name, v, unit);
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push('}');
        out
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args, out_dir: &Path, work: &Path) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let seconds = Duration::from_secs_f64(args.seconds);
    let rounds = ((args.seconds / ROUND.as_secs_f64()).round() as usize).max(1);
    let origin = Instant::now();
    let rec = Recorder::new(origin);
    let tally = Tally::default();
    let views = paper_views();
    let view_names: Vec<&'static str> = views.iter().map(|(n, _)| *n).collect();
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;

    // Inputs: all of them, before any clock starts.
    let mut phases = Phases::new();
    let (base, mut source) = gen::generate(spec.scale, args.seed, spec.mix);
    let schedule: Vec<Batch> = match spec.pace {
        Pace::Open(every) => {
            let n = (seconds.as_secs_f64() / every.as_secs_f64()).ceil() as usize;
            source.schedule(n, Duration::ZERO, every)
        }
        Pace::Closed { batches_per_s } => {
            let n = (seconds.as_secs_f64() * batches_per_s).ceil() as usize;
            source.schedule(n, Duration::ZERO, Duration::ZERO)
        }
    };
    let digest = gen::digest(&schedule);
    let schedule_rows: u64 = schedule.iter().map(Batch::rows).sum();
    let queries = check::queries(&views);
    eprintln!(
        "perfbench: {} seed {} scale {}: lineitem {} rows, {} batches ({} row changes) \
         in {rounds} rounds, schedule digest {digest}",
        spec.name,
        args.seed,
        spec.scale,
        base.table("lineitem").map_or(0, |t| t.len()),
        schedule.len(),
        schedule_rows
    );

    phases.mark("inputs");
    // The recovery probe's directory: the base plus the schedule's first
    // batches as a log tail. Made before the measured service exists, so
    // the two are never in memory together.
    rec.set_active(args.trace);
    let recovery_dir = work.join("recover");
    let tail = &schedule[..spec.tail_batches.min(schedule.len())];
    let recovered_state = check::prepare_recovery(
        &base,
        &recovery_dir,
        tail,
        spec.tail_epochs,
        &views,
        &rec,
        &tally,
    )?;

    phases.mark("recovery_prep");
    // The measured service; its set-up is the first `setup_s` sample.
    let setup_dir = |name: &str| spec.durable.then(|| work.join(name));
    let (svc, sql, secs) = check::setup(&base, setup_dir("service").as_deref(), &views, &rec)?;
    let mut setup_s = vec![secs];

    phases.mark("setup");
    let mut reader = load::Reader::new(args.seed);
    let mut read_rounds = Vec::with_capacity(rounds);
    let mut probe_wall = Duration::ZERO;
    let mut recovery = check::Recovery::default();
    let mut round_tls: Vec<Timeline> = Vec::with_capacity(rounds);
    let mut peak_rss = 0.0;
    // Headline latencies of traced runs, split by whether their start fell
    // in a traced slice.
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut next = 0usize; // the first schedule batch not yet sent
    for round in 0..rounds {
        // A timed round.
        let t0 = Instant::now() + Duration::from_millis(20);
        if args.trace {
            rec.set_sliced(t0, TRACE_SLICE);
        }
        let tl = match spec.pace {
            Pace::Open(_) => {
                let end = (round + 1) * schedule.len() / rounds;
                let offset = schedule.get(next).map_or(Duration::ZERO, |b| b.due);
                let part: Vec<Batch> = schedule[next..end]
                    .iter()
                    .map(|b| {
                        let mut b = b.clone();
                        b.due -= offset;
                        b
                    })
                    .collect();
                next = end;
                load::trickle(&svc, part, t0, spec.checkpoint_every, &rec, &tally)
            }
            Pace::Closed { .. } => {
                let tl = load::bulk(
                    &svc,
                    &schedule[next..],
                    t0,
                    seconds / rounds as u32,
                    &rec,
                    &tally,
                );
                next += tl.sent.len();
                tl
            }
        };
        if args.trace {
            for (s, v) in tl.sent.iter().zip(visible_ms(&tl)) {
                if let Some(v) = v {
                    if rec.active_at(s.due) {
                        traced.push(v);
                    } else {
                        untraced.push(v);
                    }
                }
            }
        }
        rec.set_active(args.trace);
        if round == 0 {
            // The high-water mark of set-up plus a round of load, before
            // any of the measurements below adds a second service.
            peak_rss = peak_rss_mb();
        }
        round_tls.push(tl);

        // The short measurements, on a quiescent service.
        let name = format!("setup-{round}");
        let (extra, _, secs) = check::setup(&base, setup_dir(&name).as_deref(), &views, &rec)?;
        setup_s.push(secs);
        drop(extra);
        let _ = std::fs::remove_dir_all(work.join(&name));
        check::time_opens(&recovery_dir, spec.opens_per_round, &mut recovery, &tally)?;
        let steps = (round + 1) * spec.read_probe / rounds - round * spec.read_probe / rounds;
        let before = reader.reads.len();
        probe_wall += check::read_probe(
            &mut reader,
            steps,
            &svc,
            &sql,
            &queries,
            &view_names,
            &rec,
            &tally,
        );
        read_rounds.push(
            reader.reads[before..]
                .iter()
                .map(|r| ms(r.end - r.start))
                .collect::<Vec<f64>>(),
        );
    }
    let overhead = match (median(&traced), median(&untraced)) {
        (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
        _ => 0.0,
    };
    let tl = Timeline::concat(&round_tls);
    let reads = reader.reads;

    phases.mark("rounds");
    // Correctness gate against the mirror of everything sent.
    let mut mirror = base.clone();
    check::apply_all(
        &mut mirror,
        tl.sent.iter().map(|s| &schedule[s.batch as usize]),
        &tally,
    );
    check::gate(&svc, &mirror, &views, &tally);
    drop(mirror);
    // One query of each kind (three views × exact/subsumed, three misses).
    let third = queries.len() / 3;
    let checked: Vec<_> = (0..3)
        .flat_map(|band| &queries[band * third..band * third + 3])
        .cloned()
        .collect();
    check::check_reads(&sql, &checked, &tally);
    drop(sql);
    drop(svc);
    check::gate_recovery(&recovery_dir, &recovered_state, &views, &tally)?;

    phases.mark("gate");
    let replay = if args.trace {
        check::replay(
            &base,
            &views,
            &tl,
            &schedule,
            gpivot_serve::ServeConfig::default().workers(),
            spec.exec_every,
            REPLAY_BUDGET,
            &rec,
            &tally,
        )
    } else {
        check::Replay::default()
    };

    phases.mark("replay");
    eprintln!("perfbench: phase seconds: {}", phases.report());

    // Metrics.
    let gen_lag: Vec<f64> = tl.sent.iter().map(|s| ms(s.sent - s.free)).collect();
    let gen_lag_p99 = quantile(&gen_lag, 0.99).unwrap_or(0.0);
    let mut m = Metrics::default();
    if args.trace {
        per_layer(
            &mut m,
            &tl,
            &reads,
            &rec.spans(),
            &replay,
            &recovery,
            &views,
            gen_lag_p99,
            overhead,
        );
    } else {
        end_to_end(
            &mut m,
            &round_tls,
            &read_rounds,
            &setup_s,
            reads.len() as f64 / probe_wall.as_secs_f64(),
            &recovery,
            peak_rss,
            &tally,
        );
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let context = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"scale\": {}, \"durable\": {}, \"config\": {}, \"schedule_digest\": {}, \
         \"rounds\": {rounds}, \"batches_sent\": {}, \"epochs\": {}, \"reads\": {}, \
         \"replayed_epochs\": {}, \"gen_lag_p99_ms\": {}, \"valid\": {}}}",
        json_str(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        spec.scale,
        spec.durable,
        json_str(&format!("{:?}", gpivot_serve::ServeConfig::default())),
        json_str(&digest),
        tl.sent.len(),
        tl.epochs.len(),
        reads.len(),
        replay.epochs,
        json_num(gen_lag_p99),
        gen_lag_p99 <= GEN_LAG_BOUND_MS,
    );
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed() == 0,
        tally.attempted().max(1),
        tally.failed(),
        m.json()
    );

    // Keep a record of the run, and the spans of a traced one.
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(out_dir);
    let _ = std::fs::write(
        out_dir.join(format!("{stem}.json")),
        format!("{{\"context\": {context}, \"result\": {json}}}\n"),
    );
    if args.trace {
        let path: PathBuf = out_dir.join(format!("{stem}-spans.jsonl"));
        match rec.dump(&path) {
            Ok(n) => eprintln!("perfbench: {n} spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    Ok(Outcome {
        context,
        json,
        errors: tally.errors(),
        failed: tally.failed(),
        valid: gen_lag_p99 <= GEN_LAG_BOUND_MS,
        gen_lag_p99,
    })
}

/// Ingest-to-visible latency per sent batch (ms from its due time to the
/// end of the epoch that committed it); `None` if no epoch did.
fn visible_ms(tl: &Timeline) -> Vec<Option<f64>> {
    tl.visible_epochs()
        .iter()
        .zip(&tl.sent)
        .map(|(e, s)| e.map(|e| ms(tl.epochs[e].end.saturating_duration_since(s.due))))
        .collect()
}

/// Quantile `q` of a run's samples, robust to a burst of host noise: the
/// median over rounds of each round's quantile (rounds without samples
/// are skipped).
fn per_round(rounds: &[Vec<f64>], q: f64) -> f64 {
    let qs: Vec<f64> = rounds.iter().filter_map(|r| quantile(r, q)).collect();
    median(&qs).unwrap_or(0.0)
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    m: &mut Metrics,
    rounds: &[Timeline],
    read_rounds: &[Vec<f64>],
    setup_s: &[f64],
    reads_per_s: f64,
    recovery: &check::Recovery,
    peak_rss: f64,
    tally: &Tally,
) {
    let visible: Vec<Vec<f64>> = rounds
        .iter()
        .map(|tl| visible_ms(tl).into_iter().flatten().collect())
        .collect();
    let rows: u64 = rounds
        .iter()
        .flat_map(|tl| &tl.epochs)
        .map(|e| e.summary.batch_rows)
        .sum();
    let wall: Duration = rounds.iter().map(|tl| tl.loop_wall).sum();
    m.q("setup_s", setup_s, 0.5, "s");
    m.put("visible_p50_ms", per_round(&visible, 0.5), "ms");
    m.put("visible_p99_ms", per_round(&visible, 0.99), "ms");
    m.put(
        "epoch_rows_per_s",
        rows as f64 / wall.as_secs_f64(),
        "rows/s",
    );
    m.put("read_p50_ms", per_round(read_rounds, 0.5), "ms");
    // p95, not p99: a round's 200 probe reads leave two beyond their p99,
    // so a scheduler stall or two of a shared host would set it.
    m.put("read_p95_ms", per_round(read_rounds, 0.95), "ms");
    m.put("reads_per_s", reads_per_s, "1/s");
    m.q("recover_s", &recovery.open_secs, 0.5, "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    let attempted = tally.attempted().max(1);
    m.put(
        "ok_ratio",
        (attempted - tally.failed()) as f64 / attempted as f64,
        "ratio",
    );
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    tl: &Timeline,
    reads: &[load::Read],
    spans: &[Span],
    replay: &check::Replay,
    recovery: &check::Recovery,
    views: &Views,
    gen_lag_p99: f64,
    overhead: f64,
) {
    let durations = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms() * scale)
            .collect()
    };
    let delta = |f: fn(&gpivot_serve::MetricsSnapshot) -> u64| {
        f(&tl.after).saturating_sub(f(&tl.before)) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // serve
    m.q(
        "serve.ingest_us.p50",
        &durations("serve.ingest", 1e3),
        0.5,
        "us",
    );
    let visible_epochs = tl.visible_epochs();
    let queue_wait: Vec<f64> = tl
        .sent
        .iter()
        .zip(&visible_epochs)
        .filter_map(|(s, e)| e.map(|e| ms(tl.epochs[e].start.saturating_duration_since(s.due))))
        .collect();
    m.q("serve.queue_wait_ms.p50", &queue_wait, 0.5, "ms");
    m.q("serve.queue_wait_ms.p99", &queue_wait, 0.99, "ms");
    let per_epoch: Vec<f64> = tl
        .epochs
        .iter()
        .map(|e| e.summary.batches_drained as f64)
        .collect();
    m.q("serve.batches_per_epoch.p50", &per_epoch, 0.5, "count");
    m.put(
        "serve.coalescing_ratio",
        ratio(
            delta(|s| s.rows_drained_coalesced),
            delta(|s| s.rows_drained_raw),
        ),
        "ratio",
    );
    m.q("serve.self_ms.p50", &replay.self_ms, 0.5, "ms");
    let refresh = durations("serve.refresh_epoch", 1.0);
    m.q("serve.refresh_ms.p50", &refresh, 0.5, "ms");
    m.q("serve.refresh_ms.p99", &refresh, 0.99, "ms");
    m.put(
        "serve.backpressure_waits",
        delta(|s| s.ingest_waits),
        "count",
    );
    m.q(
        "serve.snapshot_read_ms.p50",
        &durations("serve.snapshot_read", 1.0),
        0.5,
        "ms",
    );

    // core
    for (name, _) in views {
        m.q(
            format!("core.maintain_ms.{name}.p50"),
            &durations(&format!("core.maintain.{name}"), 1.0),
            0.5,
            "ms",
        );
    }
    let (propagated, delta_rows) = tl.epochs.iter().fold((0u64, 0u64), |(p, d), e| {
        (p + e.summary.rows_propagated, d + e.summary.delta_rows)
    });
    m.put(
        "core.rows_propagated_per_delta_row",
        ratio(propagated as f64, delta_rows as f64),
        "ratio",
    );
    for (name, _) in views {
        m.q(
            format!("core.register_ms.{name}"),
            &durations(&format!("core.register.{name}"), 1.0),
            0.5,
            "ms",
        );
    }

    // storage
    m.q(
        "storage.stage_ms.p50",
        &durations("storage.stage", 1.0),
        0.5,
        "ms",
    );
    m.q(
        "storage.commit_ms.p50",
        &durations("storage.commit", 1.0),
        0.5,
        "ms",
    );
    m.put(
        "storage.wal_bytes_per_row",
        ratio(delta(|s| s.wal_bytes), delta(|s| s.rows_ingested)),
        "bytes/row",
    );
    m.put(
        "storage.wal_fsyncs_per_epoch",
        ratio(delta(|s| s.wal_fsyncs), delta(|s| s.epochs)),
        "count",
    );
    m.q(
        "storage.checkpoint_ms.p50",
        &durations("storage.checkpoint", 1.0),
        0.5,
        "ms",
    );
    m.put(
        "storage.replayed_records",
        recovery.report.replayed_records as f64,
        "count",
    );

    // exec
    for (name, _) in views {
        m.q(
            format!("exec.run_ms.{name}.p50"),
            &durations(&format!("exec.run.{name}"), 1.0),
            0.5,
            "ms",
        );
    }

    // sql
    m.q("sql.parse_us.p50", &durations("sql.parse", 1e3), 0.5, "us");
    m.q(
        "sql.execute_ms.hit.p50",
        &durations("sql.execute.hit", 1.0),
        0.5,
        "ms",
    );
    m.q(
        "sql.execute_ms.miss.p50",
        &durations("sql.execute.miss", 1.0),
        0.5,
        "ms",
    );
    let hits = reads.iter().filter(|r| r.hit).count();
    m.put(
        "sql.rewrite_hit_ratio",
        ratio(hits as f64, reads.len() as f64),
        "ratio",
    );

    // analyze
    m.put(
        "analyze.analyze_ms",
        durations("analyze.analyze", 1.0).iter().sum(),
        "ms",
    );

    // harness health
    m.put("bench.gen_lag_ms.p99", gen_lag_p99, "ms");
    m.put("bench.trace_overhead_ratio", overhead, "ratio");
}
