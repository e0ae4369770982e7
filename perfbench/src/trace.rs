//! In-memory span recording, sample statistics, and a minimal JSON writer.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions — nothing inside the program is instrumented.
//! A span carries its name, start and end (nanoseconds since the run's
//! origin), its parent span, and the epoch and batch it belongs to. The
//! recorder keeps them in memory and [`Recorder::dump`] writes them out when
//! the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub epoch: Option<u64>,
    pub batch: Option<u64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span store shared by the load threads. Recording is off, on, or on in
/// alternate time slices (so one run yields traced and untraced operations
/// side by side); when off, [`Recorder::span`] costs two atomic loads.
pub struct Recorder {
    origin: Instant,
    active: AtomicBool,
    /// Slice length in ns; 0 = not sliced. Slices count from `slice_from`.
    slice_ns: AtomicU64,
    slice_from_ns: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Which epoch or batch a span belongs to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tag {
    pub parent: Option<u64>,
    pub epoch: Option<u64>,
    pub batch: Option<u64>,
}

impl Tag {
    pub fn epoch(epoch: u64) -> Self {
        Tag {
            epoch: Some(epoch),
            ..Tag::default()
        }
    }

    pub fn batch(batch: u64) -> Self {
        Tag {
            batch: Some(batch),
            ..Tag::default()
        }
    }

    pub fn under(parent: Option<u64>) -> Self {
        Tag {
            parent,
            ..Tag::default()
        }
    }
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            active: AtomicBool::new(false),
            slice_ns: AtomicU64::new(0),
            slice_from_ns: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record everything (`true`) or nothing (`false`).
    pub fn set_active(&self, on: bool) {
        self.slice_ns.store(0, Ordering::SeqCst);
        self.active.store(on, Ordering::SeqCst);
    }

    /// Record only operations that start in the odd slices of length
    /// `slice` counted from `from`.
    pub fn set_sliced(&self, from: Instant, slice: Duration) {
        self.slice_from_ns.store(self.ns(from), Ordering::SeqCst);
        self.slice_ns
            .store(slice.as_nanos().max(1) as u64, Ordering::SeqCst);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Whether an operation starting at `t` is traced.
    pub fn active_at(&self, t: Instant) -> bool {
        if !self.active.load(Ordering::Relaxed) {
            return false;
        }
        let slice = self.slice_ns.load(Ordering::Relaxed);
        if slice == 0 {
            return true;
        }
        let since = self
            .ns(t)
            .saturating_sub(self.slice_from_ns.load(Ordering::Relaxed));
        (since / slice) % 2 == 1
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserve a span id before its interval is known (parents are
    /// recorded after their children).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record `[start, end]` under a reserved `id`, if recording is on.
    pub fn record_as(&self, id: u64, name: &str, start: Instant, end: Instant, tag: Tag) {
        if !self.active_at(start) {
            return;
        }
        let span = Span {
            id,
            parent: tag.parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            epoch: tag.epoch,
            batch: tag.batch,
        };
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(span);
    }

    /// Record `[start, end]` under a fresh id, if recording is on.
    pub fn record(&self, name: &str, start: Instant, end: Instant, tag: Tag) -> Option<u64> {
        if !self.active_at(start) {
            return None;
        }
        let id = self.reserve();
        self.record_as(id, name, start, end, tag);
        Some(id)
    }

    /// Run `f` inside a span (when recording is on).
    pub fn span<R>(&self, name: &str, tag: Tag, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        if !self.active_at(start) {
            return f();
        }
        let r = f();
        self.record(name, start, Instant::now(), tag);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut out = String::new();
        for s in &spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"epoch\":{},\"batch\":{}}}",
                s.id,
                opt(s.parent),
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                opt(s.epoch),
                opt(s.batch),
            );
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children counted once).
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Quantile `q` in `[0, 1]` by linear interpolation between order
/// statistics; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become null.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
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

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let p = span(0, 100);
        let (a, b, c) = (span(10, 30), span(20, 40), span(90, 120));
        assert_eq!(self_time_ns(&p, &[&a, &b, &c]), 100 - 30 - 10);
        assert_eq!(self_time_ns(&p, &[]), 100);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
