//! Layer probes every traced run takes besides its own workload: the
//! flight recorder and trace codec, plan wire encoding, journal appends
//! and recovery, the daemon (for the solo workloads) and the adaptive
//! planner (for the workloads that do not search).

use crate::daemon::{service_probe, shape_plan};
use crate::missions::Mission;
use crate::solo::frames_of;
use crate::util::{json_digest, secs, thread_cpu_secs, Metrics, Samples};
use crate::{Ctx, Outcome};
use avfi_bench::experiments::{adaptive_space, Scale};
use avfi_core::adaptive::{AdaptiveConfig, AdaptivePlanner, Observation};
use avfi_core::campaign::{run_single, run_single_traced, TraceSpec};
use avfi_core::WorkPlan;
use avfi_net::codec::{decode_value, encode_value};
use avfi_net::proto::ServiceRequest;
use avfi_sim::recorder::Recorder;
use avfi_store::{recover_file, Journal, JournalRecord};
use avfi_trace::TraceLevel;
use bytes::BytesMut;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each single-call probe.
const REPS: usize = 5;

/// Timed `run_single` / `run_single_traced` pairs: at least this many, and
/// until this budget is spent.
const RECORDER_MIN_PAIRS: usize = 8;
const RECORDER_BUDGET_S: f64 = 2.0;

/// Every probe a traced run takes after its workload; `planner` adds the
/// adaptive planner probe.
pub fn common(ctx: &Ctx, out: &mut Outcome, job: &Mission, planner: bool) {
    let mut counts = Vec::new();
    let checks = [
        trace_layers(job, &mut out.layers, &mut counts),
        net_layers(ctx, &mut out.layers),
        append_layers(ctx, job, &mut out.layers),
    ];
    for (key, value) in counts {
        out.note(key, value);
    }
    out.attempted += checks.len() as u64;
    out.failed += checks.iter().filter(|ok| !**ok).count() as u64;
    if out.layers.get("server.connect_ms").is_none() {
        service_probe(ctx, out);
    }
    if planner {
        planner_layers(ctx, &mut out.layers);
    }
}

/// What tracing adds to a run (`run_single_traced` at black-box level minus
/// `run_single` on the same job, per frame, into `counts` with its standard
/// error) and the `.avtr` codec on the job's summary trace. Both runs must
/// reproduce the engine's result.
fn trace_layers(job: &Mission, l: &mut Metrics, counts: &mut Vec<(&str, f64)>) -> bool {
    let spec = |level| TraceSpec {
        level,
        study: "perfbench".to_string(),
        blackbox_frames: 64,
        weights_fingerprint: None,
    };
    let blackbox = spec(TraceLevel::Blackbox);
    let mut recorder = Recorder::ring(64);
    // What tracing adds to a whole run: the two calls timed in pairs, in
    // alternating order, by this thread's CPU clock, for a fixed budget.
    // It is a fraction of a percent of a run, below what the host's noise
    // lets a few seconds resolve, so it goes to `counts` with its standard
    // error; the per-layer metric is the replay's direct recorder probe.
    let mut extra = Samples::default();
    let expected = json_digest(&job.expected);
    let mut ok = true;
    let (t, si, ri) = (&job.template, job.scenario_index, job.run_index);
    let budget = Instant::now();
    while extra.len() < RECORDER_MIN_PAIRS || secs(budget) < RECORDER_BUDGET_S {
        let mut time = |traced: bool| {
            let start = thread_cpu_secs();
            let result = if traced {
                run_single_traced(t, si, ri, &job.fault, &job.agent, &blackbox, &mut recorder).0
            } else {
                run_single(t, si, ri, &job.fault, &job.agent)
            };
            ok &= json_digest(&result) == expected;
            thread_cpu_secs() - start
        };
        let first_traced = extra.len() % 2 == 1;
        let a = time(first_traced);
        let b = time(!first_traced);
        extra.push(if first_traced { a - b } else { b - a });
    }
    let per_frame = 1e6 / frames_of(&job.expected).max(1.0);
    // Standard error of the median, from the pairs' interquartile range.
    let se = (extra.quantile(0.75) - extra.quantile(0.25)) / 1.349 * 1.2533
        / (extra.len() as f64).sqrt();
    counts.push(("trace.run_extra_pairs", extra.len() as f64));
    counts.push(("trace.run_extra_us_per_frame", extra.median() * per_frame));
    counts.push(("trace.run_extra_se_us_per_frame", se * per_frame));

    let summary = spec(TraceLevel::Summary);
    let (_, trace) = run_single_traced(t, si, ri, &job.fault, &job.agent, &summary, &mut recorder);
    let trace = trace.expect("summary level always yields a trace");
    let mut encode = Samples::default();
    let mut bytes = Vec::new();
    for _ in 0..REPS * 4 {
        let start = Instant::now();
        bytes = avfi_trace::encode(&trace);
        encode.push(start.elapsed().as_secs_f64());
    }
    ok &= avfi_trace::decode(&bytes)
        .map(|d| avfi_trace::encode(&d) == bytes)
        .unwrap_or(false);
    l.set("trace.encode_us", encode.median() * 1e6, "us");
    l.set("trace.bytes", bytes.len() as f64, "bytes");
    if !ok {
        eprintln!("[perfbench] trace probe: result or codec round trip differs");
    }
    ok
}

/// Plan size on the wire for an expert and an IL-CNN plan, and the
/// IL-CNN plan's encode (serde_json + `encode_value`) and decode
/// (`decode_value` + serde_json) times. The decoded plan must serialize
/// back to the same bytes.
fn net_layers(ctx: &Ctx, l: &mut Metrics) -> bool {
    let mut ok = true;
    for (key, shape) in [("expert", 0), ("neural", 3)] {
        let plan = shape_plan(ctx.seed, shape, &ctx.weights);
        let json = serde_json::to_string(&plan).expect("plan serializes");
        l.set(format!("net.plan_bytes.{key}"), json.len() as f64, "bytes");
        if key != "neural" {
            continue;
        }
        let (mut enc, mut dec) = (Samples::default(), Samples::default());
        for _ in 0..REPS {
            let start = Instant::now();
            let request = ServiceRequest::SubmitPlan {
                plan_json: serde_json::to_string(&plan).expect("plan serializes"),
                trace_level: "off".to_string(),
            };
            let mut buf = BytesMut::new();
            encode_value(&request, &mut buf).expect("plan frame encodes");
            enc.push(start.elapsed().as_secs_f64());

            let start = Instant::now();
            let decoded = match decode_value::<ServiceRequest>(&mut buf) {
                Ok(Some(ServiceRequest::SubmitPlan { plan_json, .. })) => {
                    serde_json::from_str::<WorkPlan>(&plan_json).ok()
                }
                _ => None,
            };
            dec.push(start.elapsed().as_secs_f64());
            ok &= decoded.is_some_and(|p| serde_json::to_string(&p).ok().as_ref() == Some(&json));
        }
        l.set(
            format!("net.plan_encode_ms.{key}"),
            enc.median() * 1e3,
            "ms",
        );
        l.set(
            format!("net.plan_decode_ms.{key}"),
            dec.median() * 1e3,
            "ms",
        );
    }
    if !ok {
        eprintln!("[perfbench] net probe: decoded plan differs");
    }
    ok
}

/// `Journal::append` of the eight daemon shapes' `PlanSubmitted` records
/// and of a `RunCompleted` record, into a scratch journal; the journal
/// must recover every record.
fn append_layers(ctx: &Ctx, job: &Mission, l: &mut Metrics) -> bool {
    let path = ctx.work_dir.join("append-probe").join("plan-1.avj");
    let mut journal = Journal::create(&path).expect("scratch journal");
    let mut records = Vec::new();
    let (mut submitted, mut completed) = (Samples::default(), Samples::default());
    for shape in 0..crate::daemon::SHAPES {
        let plan = shape_plan(ctx.seed, shape, &ctx.weights);
        let record = JournalRecord::PlanSubmitted {
            plan_json: serde_json::to_string(&plan).expect("plan serializes"),
            trace_level: "off".to_string(),
        };
        let start = Instant::now();
        journal.append(&record).expect("journal append");
        submitted.push(start.elapsed().as_secs_f64());
        records.push(record);
    }
    let result_json = serde_json::to_string(&job.expected).expect("result serializes");
    for i in 0..REPS * 4 {
        let record = JournalRecord::RunCompleted {
            flat_index: i as u64,
            result_json: result_json.clone(),
        };
        let start = Instant::now();
        journal.append(&record).expect("journal append");
        completed.push(start.elapsed().as_secs_f64());
        records.push(record);
    }
    l.set(
        "store.append_us.plan_submitted",
        submitted.mean() * 1e6,
        "us",
    );
    l.set(
        "store.append_us.run_completed",
        completed.median() * 1e6,
        "us",
    );
    let ok = recover_file(&path).is_ok_and(|(r, _)| r == records);
    if !ok {
        eprintln!("[perfbench] journal probe: recovered records differ");
    }
    ok
}

/// Journal bytes per served plan and `recover_file` time over a daemon
/// spool.
pub fn store_spool(l: &mut Metrics, spool: &Path, plans: usize) {
    let mut journals = Vec::new();
    collect_journals(spool, &mut journals);
    let bytes: u64 = journals
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    l.set(
        "store.bytes_per_plan",
        bytes as f64 / plans.max(1) as f64,
        "bytes",
    );
    let mut recover = Samples::default();
    for path in journals.iter().take(32) {
        let start = Instant::now();
        let _ = recover_file(path);
        recover.push(start.elapsed().as_secs_f64());
    }
    l.set("store.recover_ms", recover.mean() * 1e3, "ms");
}

fn collect_journals(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_journals(&p, out);
        } else if p.extension().is_some_and(|e| e == avfi_store::JOURNAL_EXT) {
            out.push(p);
        }
    }
}

/// `AdaptivePlanner::{propose, observe}` over the paper-scale lattice,
/// with a fixed synthetic failure pattern in place of the engine.
fn planner_layers(ctx: &Ctx, l: &mut Metrics) {
    let space = adaptive_space(Scale::full());
    let mut planner = AdaptivePlanner::new(
        &space,
        AdaptiveConfig {
            budget: 240,
            batch: 12,
            seed: ctx.seed,
        },
    );
    let (mut propose, mut observe) = (Samples::default(), Samples::default());
    while !planner.finished() {
        let start = Instant::now();
        let proposals = planner.propose();
        propose.push(start.elapsed().as_secs_f64());
        let observations: Vec<Observation> = proposals
            .iter()
            .map(|p| {
                let failed = (p.arm * 7 + p.run_index) % 5 == 0;
                Observation {
                    failed,
                    class: failed.then(|| "timeout / none / none".to_string()),
                }
            })
            .collect();
        let start = Instant::now();
        planner.observe(&proposals, &observations);
        observe.push(start.elapsed().as_secs_f64());
    }
    l.set("core.adaptive.propose_ms", propose.mean() * 1e3, "ms");
    l.set("core.adaptive.observe_ms", observe.mean() * 1e3, "ms");
}
