//! Measurement plumbing shared by every workload: sample statistics, the
//! in-memory span tracer, the result record and host facts.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// FNV-1a-64 digest of a byte string (the same function the repo uses to
/// fingerprint weights and checksum traces).
pub fn digest(bytes: &[u8]) -> u64 {
    avfi_trace::fingerprint(bytes)
}

/// Digest of a value's JSON serialization.
pub fn json_digest<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    digest(
        serde_json::to_string(value)
            .expect("value serializes")
            .as_bytes(),
    )
}

/// `f` over every item on `threads` threads at once, results in item
/// order; the references (each a single-worker engine's result) are
/// computed this way before a window, on every core.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // The counter only hands out indices; results travel through `join`.
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("reference thread") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// A bag of samples with the order statistics the record reports.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.sum() / self.0.len() as f64
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples(iter.into_iter().collect())
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// CPU time this thread has used, seconds. Unlike wall time it does not
/// advance while the host runs something else instead.
pub fn thread_cpu_secs() -> f64 {
    cpu_clock(3) // CLOCK_THREAD_CPUTIME_ID
}

/// CPU time all of this process's threads have used, seconds.
pub fn process_cpu_secs() -> f64 {
    cpu_clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU clock {clock}");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Resets this process's peak resident set size to its current size, so
/// the next [`peak_rss_mb`] covers only what follows (set-up's cache
/// eviction buffer and the reference computation are not the workload's).
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("[perfbench] cannot reset the peak RSS: {e}");
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One timed interval. `group` ties the spans of one mission, batch or
/// plan together; `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: u64,
}

/// In-memory span recorder. Spans nest through an explicit stack; the
/// tracer is written out only after measuring ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }
}

impl Tracer {
    /// A tracer whose time zero is `origin` (for spans recorded after the
    /// fact from timestamps taken earlier).
    pub fn starting_at(origin: Instant) -> Tracer {
        Tracer {
            origin,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new group (mission, batch or plan) for the spans that
    /// follow.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            group: self.group,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an interval measured elsewhere (e.g. on a client thread);
    /// returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        group: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            group,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: count, total and self time (duration minus the
    /// time covered by direct children), in nanoseconds.
    pub fn table(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push((span.end_ns - span.start_ns) as f64);
        }
        s
    }

    /// Mean duration of spans named `name`, microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.durations(name).mean() / 1e3
    }

    /// Writes the first `limit` spans, one CSV line each
    /// (`id,name,parent,group,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,parent,group,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{},{parent},{},{},{}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One metric's value and unit, as the record prints it.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Named metrics, each with its unit; serializes as
/// `{"name": {"value": v, "unit": "u"}, ...}`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let unit = unit.to_string();
        self.0.insert(name.into(), Metric { value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, f64)> {
        self.0.iter().map(|(n, m)| (n, m.value))
    }
}

/// `nproc`: the worker and client-thread count of every workload.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from, when it is a git checkout;
/// read from `.git` directly so nothing outside the checkout is touched.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
            return id.trim().to_string();
        }
        let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
        if let Some(line) = packed.lines().find(|l| l.ends_with(r)) {
            return line.split(' ').next().unwrap_or("").to_string();
        }
    } else if !head.is_empty() {
        return head.to_string();
    }
    "unknown (not a git checkout)".to_string()
}

/// The host and provenance block of every record.
#[derive(Debug, Serialize)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub profile: String,
    pub commit: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Host {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Host {
        Host {
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            commit: commit(),
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
        }
    }
}
