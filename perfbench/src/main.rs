//! AVFI campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <expert_adaptive|ilcnn_input_faults|daemon_mixed_plans> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every timed operation's results are
//! checked byte-identical to a reference computed outside the timed
//! window. End-to-end times are brought to a nominal host speed with a
//! fixed kernel timed between operations (`speed.rs`). Standard output
//! ends with one full record line (host block, host speed, end-to-end
//! metrics at the nominal speed and in wall-clock time, per-layer metrics,
//! all with units, operation counts) and then one summary line
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics are the
//! end-to-end set with `--trace 0` and the per-layer set with `--trace 1`.
//! See `perfbench/README.md`.

mod daemon;
mod missions;
mod probes;
mod solo;
mod speed;
mod util;

use serde::Serialize;
use speed::HostSpeed;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use util::{secs, Host, Metric, Metrics, Samples, Tracer};

/// `avfi_trace::fingerprint` of the IL agent weights the benchmark pins.
const PINNED_WEIGHTS: u64 = 0xbce7_ca73_767d_07d2;

/// Set-up is timed in this many phases, [`SETUP_PAUSE_S`] apart because
/// the host's noise drifts over seconds. A set-up of microseconds is timed
/// in batches of back-to-back repetitions, the batch doubled until it
/// takes [`SETUP_BATCH_S`], so the clock's own cost and resolution do not
/// count; each phase times batches until [`SETUP_PHASE_S`] is spent (at
/// least 3 and at most [`SETUP_MAX_BATCHES`]) and keeps its fastest batch
/// per repetition, since noise only adds time to so short an operation;
/// the median of the phase minima is reported.
const SETUP_PHASES: usize = 8;
const SETUP_PAUSE_S: f64 = 0.3;
const SETUP_PHASE_S: f64 = 0.002;
const SETUP_BATCH_S: f64 = 20e-6;
const SETUP_MAX_BATCHES: usize = 2000;
const SETUP_MAX_BATCH: usize = 1024;

/// Untimed operations before every window, checked like the timed ones:
/// they fill caches and let the host bring every worker's CPU up to speed
/// (right after the single-thread reference, the first seconds on all
/// workers run measurably slower).
pub const WARM_UP_S: f64 = 2.0;

/// Spans written per trace file at most.
const MAX_SPAN_LINES: usize = 200_000;

/// What every workload gets: its inputs' seed, the measuring window, the
/// worker count and the pinned IL weights.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    pub weights: Arc<Vec<u8>>,
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Times the workload's set-up; returns its time and the set-up of the
    /// last repetition, which the workload then uses. Every other
    /// repetition's result goes to `discard`, untimed.
    pub fn setup<T>(&self, mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (f64, T) {
        let mut last = None;
        let mut timed_batch = |n: usize, last: &mut Option<T>| {
            if let Some(prev) = last.take() {
                discard(prev);
            }
            let mut made = Vec::with_capacity(n);
            let t = Instant::now();
            for _ in 0..n {
                made.push(make());
            }
            let elapsed = secs(t);
            *last = made.pop();
            for m in made {
                discard(m);
            }
            elapsed
        };
        let mut batch = 1;
        while batch < SETUP_MAX_BATCH && timed_batch(batch, &mut last) < SETUP_BATCH_S {
            batch *= 2;
        }
        let mut phases = Samples::default();
        for phase in 0..SETUP_PHASES {
            if phase > 0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_PAUSE_S));
            }
            let mut times = Samples::default();
            while times.len() < 3
                || (times.sum() < SETUP_PHASE_S && times.len() < SETUP_MAX_BATCHES)
            {
                times.push(timed_batch(batch, &mut last));
            }
            phases.push(times.quantile(0.0) / batch as f64);
        }
        (phases.median(), last.expect("at least one set-up"))
    }

    /// Wall budget of the traced run's single-thread mission replay.
    pub fn replay_seconds(&self) -> f64 {
        (self.seconds / 2.0).max(1.0)
    }
}

/// A workload's counts and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics at the nominal host speed, the same in
    /// wall-clock time, and the host speed over the window that measured
    /// them.
    pub e2e: Metrics,
    pub raw: Metrics,
    pub speed: HostSpeed,
    pub layers: Metrics,
    notes: BTreeMap<String, f64>,
    pub spans: Vec<(&'static str, Tracer)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.insert(key.to_string(), value);
    }

    /// Set-up time and peak memory, beside the window's metrics; set-up
    /// time is brought to the nominal host speed with the window's index.
    pub fn setup_and_memory(&mut self, setup_s: f64, peak_rss_mb: f64) {
        self.raw.set("setup_s", setup_s, "s");
        self.e2e.set("setup_s", setup_s / self.speed.index(), "s");
        for m in [&mut self.raw, &mut self.e2e] {
            m.set("peak_rss_mb", peak_rss_mb, "MB");
        }
    }

    /// Tracing overhead: how much worse each end-to-end number of the
    /// traced window is than the untraced window's, both at the nominal
    /// host speed, in percent (throughputs are better higher, everything
    /// else lower).
    pub fn overhead(&mut self, traced: &Metrics) {
        for (name, value) in traced.iter() {
            if let Some(base) = self.e2e.get(name) {
                let worse = if name.ends_with("_per_s") {
                    base - value
                } else {
                    value - base
                };
                self.layers.set(
                    format!("trace.overhead_pct.{name}"),
                    worse / base * 100.0,
                    "%",
                );
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2018,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let run: fn(&Ctx) -> Outcome = match args.workload.as_str() {
        "expert_adaptive" => solo::expert_adaptive,
        "ilcnn_input_faults" => solo::ilcnn_input_faults,
        "daemon_mixed_plans" => daemon::daemon_mixed_plans,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    // The IL agent is loaded (or trained once into the cache) before any
    // clock starts, and must be the pinned one.
    let weights = avfi_bench::experiments::trained_weights();
    let fingerprint = avfi_trace::fingerprint(&weights);
    if fingerprint != PINNED_WEIGHTS {
        eprintln!(
            "perfbench: weights drift: IL agent fingerprint {fingerprint:#018x}, pinned {PINNED_WEIGHTS:#018x}; \
             the numbers would not be comparable, so nothing is measured"
        );
        std::process::exit(3);
    }

    let root = PathBuf::from("target").join("perfbench");
    let work_dir = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).expect("work directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: util::nproc(),
        weights,
        work_dir,
    };
    speed::prepare(ctx.workers);
    let out = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);

    for (label, tracer) in &out.spans {
        let path = root.join(format!("spans-{}-{label}.csv", args.workload));
        if let Err(e) = tracer.write_csv(&path, MAX_SPAN_LINES) {
            eprintln!("[perfbench] could not write {}: {e}", path.display());
        }
        eprintln!("[perfbench] spans ({label}): name, count, total ms, self ms");
        for (name, s) in tracer.table() {
            eprintln!(
                "  {name:<48} {:>8} {:>12.3} {:>12.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }

    let record = Record {
        host: Host::new(&args.workload, args.seed, args.seconds, args.trace),
        host_speed: SpeedRecord {
            index: out.speed.index(),
            nominal_s: speed::NOMINAL_S,
            samples: out.speed.samples(),
            spread: out.speed.spread(),
        },
        e2e: out.e2e.0.clone(),
        e2e_wall_clock: out.raw.0.clone(),
        layers: out.layers.0.clone(),
        ops_attempted: out.attempted,
        ops_failed: out.failed,
        failed_op_ratio: Ratio {
            value: out.failed as f64 / out.attempted.max(1) as f64,
            unit: "failed/attempted".to_string(),
            failed: out.failed,
            attempted: out.attempted,
        },
        counts: out.notes,
    };
    println!("{}", to_json(&record));
    let summary = Summary {
        correct: out.failed == 0,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics: if args.trace { out.layers } else { out.e2e }.0,
    };
    println!("{}", to_json(&summary));
}

/// The full record line.
#[derive(Serialize)]
struct Record {
    host: Host,
    host_speed: SpeedRecord,
    /// At the nominal host speed; these are the summary's metrics.
    e2e: BTreeMap<String, Metric>,
    /// As the wall clock read them.
    e2e_wall_clock: BTreeMap<String, Metric>,
    layers: BTreeMap<String, Metric>,
    ops_attempted: u64,
    ops_failed: u64,
    failed_op_ratio: Ratio,
    /// Sample counts behind the percentiles and other counters.
    counts: BTreeMap<String, f64>,
}

/// The host speed index of the measured window: the median time of the
/// benchmark's fixed kernel over its nominal time, the number of timings
/// and their spread, (Q3 − Q1) / median.
#[derive(Serialize)]
struct SpeedRecord {
    index: f64,
    nominal_s: f64,
    samples: usize,
    spread: f64,
}

/// A ratio with its base.
#[derive(Serialize)]
struct Ratio {
    value: f64,
    unit: String,
    failed: u64,
    attempted: u64,
}

/// The summary line: the end-to-end metrics untraced, the per-layer
/// metrics traced.
#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("record serializes")
}
