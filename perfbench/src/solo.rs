//! The two solo-engine workloads: `expert_adaptive` (guided search through
//! `Engine::evaluate_jobs`) and `ilcnn_input_faults` (the Figure 2/3 study
//! through `Engine::execute`).

use crate::missions::{plan_missions, Mission, Replay};
use crate::probes;
use crate::speed::HostSpeed;
use crate::util::{
    json_digest, par_map, peak_rss_mb, process_cpu_secs, reset_peak_rss, secs, Metrics, Samples,
    Tracer,
};
use crate::{Ctx, Outcome, WARM_UP_S};
use avfi_bench::experiments::{adaptive_space, evaluation_suite, input_fault_specs, Scale};
use avfi_core::adaptive::{
    AdaptiveConfig, AdaptivePlanner, AdaptiveSpace, AdaptiveTrajectory, Observation, Proposal,
};
use avfi_core::campaign::{AgentSpec, CampaignConfig, MissionOutcome, RunResult, TraceSpec};
use avfi_core::engine::{EvalJob, ProgressEvent, ProgressSink};
use avfi_core::triage::failure_class;
use avfi_core::{run_adaptive, Engine, StudyResult, WorkPlan};
use avfi_sim::rng::split_seed;
use avfi_sim::scenario::Scenario;
use avfi_trace::{RunTrace, TraceLevel};
use std::sync::Mutex;
use std::time::Instant;

/// Frames per simulated second.
const FPS: f64 = 15.0;

/// Simulated frames of a run.
pub fn frames_of(r: &RunResult) -> f64 {
    (r.duration * FPS).round()
}

// ---------------------------------------------------------------- adaptive

/// Budget and batch of the paper-scale adaptive search, and the budget of
/// the short search that warms every window up.
const ADAPTIVE_BUDGET: usize = 240;
const ADAPTIVE_WARM_BUDGET: usize = 24;
const ADAPTIVE_BATCH: usize = 12;

/// Host speed kernel timings before and after every search.
const ADAPTIVE_PAUSE_REPS: usize = 24;

/// The default seed's searches: the [`outcome_digest`] and simulated
/// frames of the full search, and the digest of the warm-up search.
const ADAPTIVE_PINNED_SEED: u64 = 2018;
const ADAPTIVE_PINNED: Option<(u64, f64, u64)> =
    Some((0xc73a_e27f_6df7_b158, 261_243.0, 0xeb78_ddc5_b422_94f7));

fn adaptive_config(seed: u64, budget: usize) -> AdaptiveConfig {
    AdaptiveConfig {
        budget,
        batch: ADAPTIVE_BATCH,
        seed,
    }
}

/// Digest of everything a search returns: its trajectory and its failure
/// traces, keyed by global pull index.
fn outcome_digest(trajectory: &AdaptiveTrajectory, traces: &[(usize, RunTrace)]) -> u64 {
    json_digest(&(json_digest(trajectory), json_digest(traces)))
}

/// One batch's outcome: its jobs and results, the digest of its results
/// and trajectory record, the instants before `propose`, between the
/// calls, and after `observe`, and the CPU seconds the process spent in
/// `evaluate_jobs` (its workers' busy time: the calling thread only waits).
struct BatchOut {
    jobs: Vec<EvalJob>,
    results: Vec<RunResult>,
    digest: u64,
    times: [Instant; 4],
    evaluate_cpu: f64,
}

/// `run_adaptive` unrolled one batch at a time: `core::adaptive::drive`
/// with the calls of its `EngineOracle`, which keeps the failure traces
/// the same way, so a finished search has the same [`outcome_digest`] as
/// `run_adaptive`. Used where the batches themselves are needed: the
/// workers = 1 reference (its results give the frame count and the
/// replayed missions) and the traced run's per-batch spans.
struct AdaptiveSearch {
    planner: AdaptivePlanner,
    scenarios: Vec<Scenario>,
    spec: TraceSpec,
    traces: Vec<(usize, RunTrace)>,
    evaluated: usize,
}

impl AdaptiveSearch {
    fn new(space: &AdaptiveSpace, seed: u64, budget: usize) -> AdaptiveSearch {
        AdaptiveSearch {
            planner: AdaptivePlanner::new(space, adaptive_config(seed, budget)),
            scenarios: space.scenarios.clone(),
            spec: TraceSpec {
                level: TraceLevel::Blackbox,
                study: "adaptive".to_string(),
                blackbox_frames: 64,
                weights_fingerprint: None,
            },
            traces: Vec::new(),
            evaluated: 0,
        }
    }

    /// Proposes, evaluates and observes one batch; `None` once the budget
    /// is spent.
    fn step(&mut self, engine: &Engine) -> Option<BatchOut> {
        if self.planner.finished() {
            return None;
        }
        let t0 = Instant::now();
        let proposals: Vec<Proposal> = self.planner.propose();
        let t1 = Instant::now();
        if proposals.is_empty() {
            return None;
        }
        let jobs: Vec<EvalJob> = proposals
            .iter()
            .map(|p| EvalJob {
                scenario: self.scenarios[p.scenario_index].clone(),
                scenario_index: p.scenario_index,
                run_index: p.run_index,
                fault: p.fault.clone(),
            })
            .collect();
        let cpu = process_cpu_secs();
        let evaluated = engine.evaluate_jobs(&jobs, &AgentSpec::Expert, &self.spec);
        let evaluate_cpu = process_cpu_secs() - cpu;
        let t2 = Instant::now();
        let mut results = Vec::with_capacity(evaluated.len());
        let mut observations = Vec::with_capacity(evaluated.len());
        for (offset, (result, trace)) in evaluated.into_iter().enumerate() {
            let failed = !result.outcome.is_success() || !result.violations.is_empty();
            let class = trace
                .as_ref()
                .and_then(failure_class)
                .map(|c| c.to_string());
            if let Some(trace) = trace {
                self.traces.push((self.evaluated + offset, trace));
            }
            results.push(result);
            observations.push(Observation { failed, class });
        }
        self.evaluated += proposals.len();
        self.planner.observe(&proposals, &observations);
        let t3 = Instant::now();
        let record = self
            .planner
            .trajectory()
            .batches
            .pop()
            .expect("batch recorded");
        let digest = json_digest(&(json_digest(&results), json_digest(&record)));
        Some(BatchOut {
            jobs,
            results,
            digest,
            times: [t0, t1, t2, t3],
            evaluate_cpu,
        })
    }

    fn outcome_digest(&self) -> u64 {
        outcome_digest(&self.planner.trajectory(), &self.traces)
    }
}

/// Reference search at workers = 1: per-batch digests, jobs and results,
/// the whole search's [`outcome_digest`] and its simulated frames.
struct AdaptiveReference {
    batches: Vec<u64>,
    digest: u64,
    frames: f64,
    missions: Vec<Vec<Mission>>,
}

fn adaptive_reference(space: &AdaptiveSpace, seed: u64, budget: usize) -> AdaptiveReference {
    let engine = Engine::new().workers(1);
    let mut search = AdaptiveSearch::new(space, seed, budget);
    let mut batches = Vec::new();
    let mut missions = Vec::new();
    let mut frames = 0.0;
    while let Some(b) = search.step(&engine) {
        batches.push(b.digest);
        frames += b.results.iter().map(frames_of).sum::<f64>();
        missions.push(
            b.jobs
                .into_iter()
                .zip(b.results)
                .map(|(job, expected)| Mission {
                    template: job.scenario,
                    scenario_index: job.scenario_index,
                    run_index: job.run_index,
                    fault: job.fault,
                    agent: AgentSpec::Expert,
                    expected,
                })
                .collect(),
        );
    }
    AdaptiveReference {
        batches,
        digest: search.outcome_digest(),
        frames,
        missions,
    }
}

/// Timed whole `run_adaptive` calls, each checked by its
/// [`outcome_digest`] against the reference; a search that differs counts
/// all its runs as failed.
#[derive(Default)]
struct SearchWindow {
    wall: Samples,
    missions: f64,
    frames: f64,
    attempted: u64,
    failed: u64,
    speed: HostSpeed,
}

/// Whole searches of `budget` runs while the median search still fits in
/// `seconds` (always at least one). Operations are runs; `frames` is the
/// simulated frames of one search, from the reference.
fn search_window(
    ctx: &Ctx,
    seconds: f64,
    budget: usize,
    space: &AdaptiveSpace,
    engine: &Engine,
    (expected, frames): (u64, f64),
) -> SearchWindow {
    let mut w = SearchWindow::default();
    while keep_going(&w.wall, seconds) {
        w.speed.pause(ctx.workers, ADAPTIVE_PAUSE_REPS);
        let t = Instant::now();
        let outcome = run_adaptive(
            engine,
            space,
            adaptive_config(ctx.seed, budget),
            &AgentSpec::Expert,
            "adaptive",
        );
        w.wall.push(secs(t));
        let pulls: usize = outcome
            .trajectory
            .batches
            .iter()
            .map(|b| b.pulls.len())
            .sum();
        w.missions += pulls as f64;
        w.frames += frames;
        w.attempted += pulls as u64;
        if outcome_digest(&outcome.trajectory, &outcome.traces) != expected {
            eprintln!("[perfbench] run_adaptive (budget {budget}) differs from the reference");
            w.failed += pulls as u64;
        }
    }
    w.speed.pause(ctx.workers, ADAPTIVE_PAUSE_REPS);
    w
}

/// The traced window: whole searches unrolled per batch, each batch a span
/// with its three calls as children and checked against the reference
/// batch of the same ordinal, each finished search checked like a
/// `run_adaptive` call.
struct UnrolledWindow {
    search: SearchWindow,
    batch_wall: Samples,
    propose: Samples,
    observe: Samples,
    /// Per batch, worker-seconds `evaluate_jobs` left idle: its wall times
    /// the workers, minus its CPU time.
    idle: Samples,
    /// Total `evaluate_jobs` wall times the workers, and total CPU time.
    capacity: f64,
    busy: f64,
}

fn unrolled_window(
    ctx: &Ctx,
    seconds: f64,
    space: &AdaptiveSpace,
    engine: &Engine,
    reference: &AdaptiveReference,
    tracer: &mut Tracer,
) -> UnrolledWindow {
    let mut w = UnrolledWindow {
        search: SearchWindow::default(),
        batch_wall: Samples::default(),
        propose: Samples::default(),
        observe: Samples::default(),
        idle: Samples::default(),
        capacity: 0.0,
        busy: 0.0,
    };
    while keep_going(&w.search.wall, seconds) {
        w.search.speed.pause(ctx.workers, ADAPTIVE_PAUSE_REPS);
        let mut search = AdaptiveSearch::new(space, ctx.seed, ADAPTIVE_BUDGET);
        let mut search_wall = 0.0;
        let mut ordinal = 0usize;
        let (mut runs, mut bad) = (0u64, 0u64);
        while let Some(b) = search.step(engine) {
            let [t0, t1, t2, t3] = b.times;
            let between = |a: Instant, b: Instant| (b - a).as_secs_f64();
            search_wall += between(t0, t3);
            w.batch_wall.push(between(t0, t3));
            w.propose.push(between(t0, t1));
            w.observe.push(between(t2, t3));
            let capacity = between(t1, t2) * ctx.workers as f64;
            w.idle.push(capacity - b.evaluate_cpu);
            w.capacity += capacity;
            w.busy += b.evaluate_cpu;
            let g = w.batch_wall.len() as u64;
            let batch = tracer.record("adaptive.batch", t0, t3, g, None);
            tracer.record("AdaptivePlanner::propose", t0, t1, g, Some(batch));
            tracer.record("Engine::evaluate_jobs", t1, t2, g, Some(batch));
            tracer.record("AdaptivePlanner::observe", t2, t3, g, Some(batch));
            w.search.missions += b.results.len() as f64;
            w.search.frames += b.results.iter().map(frames_of).sum::<f64>();
            runs += b.results.len() as u64;
            if reference.batches.get(ordinal) != Some(&b.digest) {
                eprintln!("[perfbench] adaptive batch {ordinal} differs from the reference");
                bad += b.results.len() as u64;
            }
            ordinal += 1;
        }
        if search.outcome_digest() != reference.digest {
            eprintln!("[perfbench] unrolled search differs from the reference");
            bad = runs;
        }
        w.search.attempted += runs;
        w.search.failed += bad;
        w.search.wall.push(search_wall);
    }
    w.search.speed.pause(ctx.workers, ADAPTIVE_PAUSE_REPS);
    w
}

/// A plan of this workload is one whole search (what a user submits);
/// its batches are reported as `core.adaptive.batch_wall_ms`. `walls` are
/// the searches' times, in wall-clock seconds or at the nominal host speed.
fn adaptive_e2e(w: &SearchWindow, walls: &Samples, e2e: &mut Metrics) {
    let wall = walls.sum();
    e2e.set("missions_per_s", w.missions / wall, "missions/s");
    e2e.set("frames_per_s", w.frames / wall, "frames/s");
    e2e.set("plans_per_s", walls.len() as f64 / wall, "plans/s");
    e2e.set("plan_latency_p50_ms", walls.median() * 1e3, "ms");
    e2e.set("plan_latency_p90_ms", walls.quantile(0.9) * 1e3, "ms");
}

pub fn expert_adaptive(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, (space, engine)) = ctx.setup(
        || {
            (
                adaptive_space(Scale::full()),
                Engine::new().workers(ctx.workers),
            )
        },
        drop,
    );

    // References: pinned for the default seed, else workers = 1 searches,
    // the full one and the warm-up one side by side. A traced run always
    // computes the full one, for its per-batch digests and the replayed
    // missions, and checks it against the pins.
    let pinned = ADAPTIVE_PINNED.filter(|_| ctx.seed == ADAPTIVE_PINNED_SEED);
    let t = Instant::now();
    let (reference, warm_digest) = std::thread::scope(|s| {
        let full = (pinned.is_none() || ctx.trace)
            .then(|| s.spawn(|| adaptive_reference(&space, ctx.seed, ADAPTIVE_BUDGET)));
        let warm = match pinned {
            Some((_, _, warm)) => warm,
            None => adaptive_reference(&space, ctx.seed, ADAPTIVE_WARM_BUDGET).digest,
        };
        (full.map(|h| h.join().expect("reference thread")), warm)
    });
    if let Some(r) = &reference {
        eprintln!(
            "[perfbench] workers=1 reference searches: {:.1} s; digests {:#x} ({} frames), warm-up {warm_digest:#x}",
            secs(t),
            r.digest,
            r.frames
        );
    }
    let expected = match (pinned, &reference) {
        (Some((digest, frames, _)), Some(r)) if (r.digest, r.frames) != (digest, frames) => {
            eprintln!("[perfbench] workers=1 reference differs from the pinned digest");
            out.failed += 1;
            (r.digest, r.frames)
        }
        (Some((digest, frames, _)), _) => (digest, frames),
        (None, Some(r)) => (r.digest, r.frames),
        (None, None) => unreachable!("a reference exists whenever nothing is pinned"),
    };

    let warm = search_window(
        ctx,
        WARM_UP_S,
        ADAPTIVE_WARM_BUDGET,
        &space,
        &engine,
        (warm_digest, 0.0),
    );
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    reset_peak_rss();
    let w = search_window(ctx, ctx.seconds, ADAPTIVE_BUDGET, &space, &engine, expected);
    let peak_rss = peak_rss_mb();
    out.attempted += w.attempted;
    out.failed += w.failed;
    adaptive_e2e(&w, &w.wall, &mut out.raw);
    adaptive_e2e(&w, &w.speed.nominal(&w.wall), &mut out.e2e);
    out.speed = w.speed.clone();
    out.setup_and_memory(setup_s, peak_rss);
    out.note("latency_samples", w.wall.len() as f64);
    if !ctx.trace {
        return out;
    }

    // Traced: the same window unrolled per batch with spans, then the
    // single-thread replay of the reference's missions.
    let reference = reference.expect("traced runs compute the reference");
    let mut tracer = Tracer::default();
    let traced = unrolled_window(ctx, ctx.seconds, &space, &engine, &reference, &mut tracer);
    out.attempted += traced.search.attempted;
    out.failed += traced.search.failed;
    let mut traced_e2e = Metrics::default();
    let search = &traced.search;
    adaptive_e2e(search, &search.speed.nominal(&search.wall), &mut traced_e2e);
    out.overhead(&traced_e2e);
    out.note("batches", traced.batch_wall.len() as f64);

    let l = &mut out.layers;
    l.set(
        "core.adaptive.propose_ms",
        traced.propose.mean() * 1e3,
        "ms",
    );
    l.set(
        "core.adaptive.observe_ms",
        traced.observe.mean() * 1e3,
        "ms",
    );
    l.set(
        "core.adaptive.batch_wall_ms",
        traced.batch_wall.mean() * 1e3,
        "ms",
    );
    l.set(
        "core.engine.worker_busy_frac",
        traced.busy / traced.capacity,
        "ratio",
    );
    l.set(
        "core.adaptive.barrier_idle_frac",
        1.0 - traced.busy / traced.capacity,
        "ratio",
    );
    l.set("core.engine.tail_idle_s", traced.idle.mean(), "s");

    let mut replay = Replay::new(ctx.weights.clone());
    let budget = Instant::now();
    let mut replayed_batches = 0usize;
    for (k, batch) in reference.missions.iter().enumerate() {
        if k > 0 && secs(budget) > ctx.replay_seconds() {
            break;
        }
        for (i, m) in batch.iter().enumerate() {
            out.attempted += 1;
            if !replay.run(m, (k * ADAPTIVE_BATCH + i) as u64) {
                out.failed += 1;
            }
        }
        replayed_batches += 1;
    }
    replay.metrics(&mut out.layers);
    engine_run_walls(&replay, &mut out.layers);
    out.note("replayed_batches", replayed_batches as f64);
    out.note("replayed_missions", replay.missions as f64);
    probes::common(ctx, &mut out, &reference.missions[0][0], false);
    out.spans.push(("batches", tracer));
    out.spans.push(("replay", replay.tracer));
    out
}

/// Run wall percentiles from the single-thread replay (probes excluded).
pub fn engine_run_walls(replay: &Replay, l: &mut Metrics) {
    let mut walls = Samples::default();
    for s in &replay.mission_secs {
        walls.push(s * 1e3);
    }
    l.set("core.engine.run_wall_ms_p50", walls.median(), "ms");
    l.set("core.engine.run_wall_ms_p90", walls.quantile(0.9), "ms");
}

// ------------------------------------------------------------------- ilcnn

/// The study is cut into this many `Engine::execute` plans, run in turn:
/// each is every Figure 2/3 injector over `evaluation_suite(Scale::full())`
/// (the study's own towns and 150 s mission budget) with the scenario
/// seeds re-derived from the benchmark's seed, one run each. Rotating plans
/// averages over `ILCNN_PLANS` × 4 towns, so one seed's towns weigh less in
/// its numbers, and the host speed pauses between plans follow the host
/// through the round.
const ILCNN_PLANS: usize = 8;

/// Host speed kernel timings before every plan and after the last.
const ILCNN_PAUSE_REPS: usize = 6;

const ILCNN_PINNED_SEED: u64 = 2018;
const ILCNN_PINNED: Option<[u64; ILCNN_PLANS]> = Some([
    0x40a7_accc_7335_a0b0,
    0xbd7a_08e9_c3e4_fa5d,
    0xa8bd_9db7_3b33_466f,
    0xc0b6_b4f6_5ed7_3b5a,
    0xd307_09be_d095_5f93,
    0x94ac_135a_b996_5d31,
    0x186a_31f2_c48a_cf1d,
    0x5297_7f59_ed4f_e97a,
]);

/// Scenario suite `k` for `seed`: the evaluation suite with seed-derived
/// layouts.
fn seeded_suite(seed: u64, k: usize) -> Vec<Scenario> {
    let suite = evaluation_suite(Scale::full());
    let n = suite.len();
    suite
        .into_iter()
        .enumerate()
        .map(|(i, mut scenario)| {
            scenario.seed = split_seed(seed, (0x11C0 + k * n + i) as u64);
            scenario
        })
        .collect()
}

fn ilcnn_plans(ctx: &Ctx) -> Vec<WorkPlan> {
    let agent = AgentSpec::Neural {
        weights: ctx.weights.clone(),
    };
    (0..ILCNN_PLANS)
        .map(|k| {
            let scenarios = seeded_suite(ctx.seed, k);
            let campaigns = input_fault_specs()
                .into_iter()
                .map(|fault| {
                    CampaignConfig::builder(scenarios.clone())
                        .runs_per_scenario(1)
                        .fault(fault)
                        .agent(agent.clone())
                        .build()
                })
                .collect();
            WorkPlan::new().with_study("input-faults", campaigns)
        })
        .collect()
}

/// Collects engine progress with receive timestamps.
#[derive(Default)]
struct TimedSink {
    events: Mutex<Vec<(Instant, ProgressEvent)>>,
}

impl ProgressSink for TimedSink {
    fn event(&self, event: &ProgressEvent) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("sink lock")
            .push((now, event.clone()));
    }
}

struct IlcnnWindow {
    plan_wall: Samples,
    missions: f64,
    frames: f64,
    attempted: u64,
    failed: u64,
    busy: Samples,
    tail_idle: Samples,
    idle_frac: Samples,
    run_wall_ms: Samples,
    /// Timed-out runs and all runs, per injector in `input_fault_specs()`
    /// order.
    timeouts: Vec<(u64, u64)>,
    speed: HostSpeed,
}

/// Plans in turn until the window is spent, in whole rounds of `round`
/// plans: a window of whole rounds over every plan weighs each plan the
/// same whatever the program's speed. Traced, each plan streams
/// timestamped progress and becomes a span with one child per run.
fn ilcnn_window(
    ctx: &Ctx,
    seconds: f64,
    round: usize,
    engine: &Engine,
    plans: &[WorkPlan],
    reference: &[u64],
    mut tracer: Option<&mut Tracer>,
) -> IlcnnWindow {
    let mut w = IlcnnWindow {
        plan_wall: Samples::default(),
        missions: 0.0,
        frames: 0.0,
        attempted: 0,
        failed: 0,
        busy: Samples::default(),
        tail_idle: Samples::default(),
        idle_frac: Samples::default(),
        run_wall_ms: Samples::default(),
        timeouts: vec![(0, 0); input_fault_specs().len()],
        speed: HostSpeed::default(),
    };
    let mut rounds = Samples::default();
    let mut round_wall = 0.0;
    let mut k = 0;
    while k % round != 0 || keep_going(&rounds, seconds) {
        w.speed.pause(ctx.workers, ILCNN_PAUSE_REPS);
        let plan = &plans[k % plans.len()];
        let sink = TimedSink::default();
        let t0 = Instant::now();
        let results = if tracer.is_some() {
            engine.execute_with(plan, &sink)
        } else {
            engine.execute(plan)
        };
        let t1 = Instant::now();
        let wall = (t1 - t0).as_secs_f64();
        w.plan_wall.push(wall);
        round_wall += wall;
        let runs: Vec<&RunResult> = results
            .iter()
            .flat_map(|s| &s.campaigns)
            .flat_map(|c| c.runs())
            .collect();
        w.missions += runs.len() as f64;
        w.frames += runs.iter().map(|r| frames_of(r)).sum::<f64>();
        w.attempted += runs.len() as u64;
        for study in &results {
            for (c, campaign) in study.campaigns.iter().enumerate() {
                for r in campaign.runs() {
                    w.timeouts[c].0 += u64::from(r.outcome == MissionOutcome::Timeout);
                    w.timeouts[c].1 += 1;
                }
            }
        }
        if json_digest(&results) != reference[k % plans.len()] {
            eprintln!(
                "[perfbench] ilcnn plan {} results differ from the reference",
                k % plans.len()
            );
            w.failed += runs.len() as u64;
        }
        if let Some(tr) = tracer.as_deref_mut() {
            let span = tr.record("engine.execute", t0, t1, k as u64, None);
            let mut last = vec![t0; ctx.workers];
            for (at, e) in sink.events.into_inner().expect("sink lock") {
                match e {
                    ProgressEvent::RunCompleted { worker, .. } => {
                        tr.record("engine.run", last[worker], at, k as u64, Some(span));
                        w.run_wall_ms.push((at - last[worker]).as_secs_f64() * 1e3);
                        last[worker] = at;
                    }
                    ProgressEvent::Finished { utilization, .. } => {
                        w.busy.push(
                            utilization.iter().sum::<f64>() / utilization.len().max(1) as f64,
                        );
                    }
                    _ => {}
                }
            }
            let idle: f64 = last.iter().map(|l| (t1 - *l).as_secs_f64()).sum();
            w.tail_idle.push(idle);
            w.idle_frac.push(idle / (wall * ctx.workers as f64));
        }
        k += 1;
        if k % round == 0 {
            rounds.push(round_wall);
            round_wall = 0.0;
        }
    }
    w.speed.pause(ctx.workers, ILCNN_PAUSE_REPS);
    w
}

/// A plan of this workload is one whole round: the study over all
/// [`ILCNN_PLANS`] × 4 towns, what a user runs for Figures 2 and 3 (its
/// `Engine::execute` calls are reported in `counts` and, traced, as
/// `core.adaptive.batch_wall_ms`). `walls` are the `Engine::execute`
/// times of a window of whole rounds, in wall-clock seconds or at the
/// nominal host speed.
fn ilcnn_e2e(w: &IlcnnWindow, walls: &Samples, e2e: &mut Metrics) {
    let wall = walls.sum();
    let executes: Vec<f64> = walls.iter().collect();
    let rounds: Samples = executes
        .chunks(ILCNN_PLANS)
        .map(|round| round.iter().sum())
        .collect();
    e2e.set("missions_per_s", w.missions / wall, "missions/s");
    e2e.set("frames_per_s", w.frames / wall, "frames/s");
    e2e.set("plans_per_s", rounds.len() as f64 / wall, "plans/s");
    e2e.set("plan_latency_p50_ms", rounds.median() * 1e3, "ms");
    e2e.set("plan_latency_p90_ms", rounds.quantile(0.9) * 1e3, "ms");
}

pub fn ilcnn_input_faults(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, (plans, engine)) = ctx.setup(
        || (ilcnn_plans(ctx), Engine::new().workers(ctx.workers)),
        drop,
    );
    let pinned = ILCNN_PINNED.filter(|_| ctx.seed == ILCNN_PINNED_SEED);
    let reference: Option<Vec<Vec<StudyResult>>> = (pinned.is_none() || ctx.trace).then(|| {
        let t = Instant::now();
        let r: Vec<Vec<StudyResult>> =
            par_map(&plans, ctx.workers, |p| Engine::new().workers(1).execute(p));
        eprintln!("[perfbench] workers=1 reference plans: {:.1} s", secs(t));
        r
    });
    let computed: Option<Vec<u64>> = reference
        .as_ref()
        .map(|r| r.iter().map(json_digest).collect());
    if let Some(c) = &computed {
        eprintln!("[perfbench] reference digests: {c:#x?}");
    }
    let digests = match (pinned, &computed) {
        (Some(p), Some(c)) if p.as_slice() != c.as_slice() => {
            eprintln!("[perfbench] workers=1 reference differs from the pinned digests");
            out.failed += 1;
            c.clone()
        }
        (Some(p), _) => p.to_vec(),
        (None, Some(c)) => c.clone(),
        (None, None) => unreachable!("a reference exists whenever nothing is pinned"),
    };

    let warm = ilcnn_window(ctx, WARM_UP_S, 1, &engine, &plans, &digests, None);
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    reset_peak_rss();
    let w = ilcnn_window(
        ctx,
        ctx.seconds,
        plans.len(),
        &engine,
        &plans,
        &digests,
        None,
    );
    let peak_rss = peak_rss_mb();
    out.attempted += w.attempted;
    out.failed += w.failed;
    let executes = w.speed.nominal(&w.plan_wall);
    ilcnn_e2e(&w, &w.plan_wall, &mut out.raw);
    ilcnn_e2e(&w, &executes, &mut out.e2e);
    out.note("execute_samples", executes.len() as f64);
    out.note("execute_ms_p50", executes.median() * 1e3);
    out.note("execute_ms_p90", executes.quantile(0.9) * 1e3);
    out.speed = w.speed.clone();
    out.setup_and_memory(setup_s, peak_rss);
    out.note("latency_samples", (w.plan_wall.len() / ILCNN_PLANS) as f64);
    for (fault, (timeouts, runs)) in input_fault_specs().iter().zip(&w.timeouts) {
        out.note(
            &format!("timeout_share.{}", fault.label()),
            *timeouts as f64 / (*runs).max(1) as f64,
        );
    }
    if !ctx.trace {
        return out;
    }

    let reference = reference.expect("traced runs compute the reference");
    let mut tracer = Tracer::default();
    let traced = ilcnn_window(
        ctx,
        ctx.seconds,
        plans.len(),
        &engine,
        &plans,
        &digests,
        Some(&mut tracer),
    );
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    let mut traced_e2e = Metrics::default();
    let walls = traced.speed.nominal(&traced.plan_wall);
    ilcnn_e2e(&traced, &walls, &mut traced_e2e);
    out.overhead(&traced_e2e);

    let l = &mut out.layers;
    l.set("core.engine.worker_busy_frac", traced.busy.mean(), "ratio");
    l.set("core.engine.tail_idle_s", traced.tail_idle.mean(), "s");
    l.set(
        "core.engine.run_wall_ms_p50",
        traced.run_wall_ms.median(),
        "ms",
    );
    l.set(
        "core.engine.run_wall_ms_p90",
        traced.run_wall_ms.quantile(0.9),
        "ms",
    );
    l.set(
        "core.adaptive.batch_wall_ms",
        traced.plan_wall.mean() * 1e3,
        "ms",
    );
    l.set(
        "core.adaptive.barrier_idle_frac",
        traced.idle_frac.mean(),
        "ratio",
    );
    out.note("engine_run_samples", traced.run_wall_ms.len() as f64);

    // Replay round-robin over the injectors so every camera model is
    // covered before the replay budget runs out.
    let missions: Vec<Mission> = plans
        .iter()
        .zip(&reference)
        .flat_map(|(p, r)| plan_missions(p, r))
        .collect();
    let injectors = input_fault_specs().len();
    let per_injector = missions.len() / (injectors * ILCNN_PLANS);
    let order: Vec<&Mission> = (0..missions.len() / injectors)
        .map(|i| (i / per_injector) * injectors * per_injector + i % per_injector)
        .flat_map(|base| (0..injectors).map(move |c| base + c * per_injector))
        .map(|i| &missions[i])
        .collect();
    let mut replay = Replay::new(ctx.weights.clone());
    let budget = Instant::now();
    for (k, m) in order.iter().enumerate() {
        if k >= injectors && secs(budget) > ctx.replay_seconds() {
            break;
        }
        out.attempted += 1;
        if !replay.run(m, k as u64) {
            out.failed += 1;
        }
    }
    replay.metrics(&mut out.layers);
    out.note("replayed_missions", replay.missions as f64);
    probes::common(ctx, &mut out, order[0], true);
    out.spans.push(("engine", tracer));
    out.spans.push(("replay", replay.tracer));
    out
}

/// Whether a window whose operations took `walls` so far should start
/// another: always the first, then only while the median operation still
/// fits in `seconds`, so a window of long operations does not overrun by
/// a whole one.
pub fn keep_going(walls: &Samples, seconds: f64) -> bool {
    walls.len() == 0 || walls.sum() + walls.median() <= seconds
}
