//! `daemon_mixed_plans`: an in-process `CampaignServer` with journaling on,
//! driven by `nproc` closed-loop TCP clients cycling through eight small
//! plan shapes, each on eight town layouts, every fetched payload
//! byte-compared with a solo golden.

use crate::missions::{plan_missions, Mission, Replay};
use crate::probes;
use crate::solo::{engine_run_walls, frames_of};
use crate::speed::HostSpeed;
use crate::util::{digest, par_map, peak_rss_mb, reset_peak_rss, secs, Metrics, Samples, Tracer};
use crate::{Ctx, Outcome, WARM_UP_S};
use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::{Engine, ProgressEvent, StudyResult, WorkPlan};
use avfi_net::proto::PlanPhase;
use avfi_net::NetError;
use avfi_server::{CampaignServer, ServiceClient};
use avfi_sim::rng::split_seed;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::TraceLevel;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Number of distinct plan shapes the clients cycle through.
pub const SHAPES: usize = 8;

/// Town layouts per shape: the mix averages over this many, so one
/// seed's layouts weigh less in its numbers.
const LAYOUTS: usize = 8;

/// Distinct plans: plan `k` is shape `k % SHAPES` on layout `k / SHAPES`.
const PLANS: usize = SHAPES * LAYOUTS;

/// Plan `k` of the mix, of shape `k % SHAPES`: two 2×2-grid towns, one run
/// each, 15 s budget; even shapes inject nothing, odd shapes delay the
/// output; every fourth shape drives the IL-CNN (its plan carries the
/// weight blob).
pub fn shape_plan(seed: u64, k: usize, weights: &Arc<Vec<u8>>) -> WorkPlan {
    let shape = k % SHAPES;
    let scenario = |i: u64| {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(split_seed(seed, 0xDA00 + 2 * k as u64 + i))
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(15.0)
            .min_route_length(50.0)
            .build()
    };
    let fault = if shape.is_multiple_of(2) {
        FaultSpec::None
    } else {
        FaultSpec::Timing(TimingFault::OutputDelay { frames: 2 + shape })
    };
    let agent = if shape % 4 == 3 {
        AgentSpec::Neural {
            weights: weights.clone(),
        }
    } else {
        AgentSpec::Expert
    };
    let campaign = CampaignConfig::builder(vec![scenario(0), scenario(1)])
        .runs_per_scenario(1)
        .fault(fault)
        .agent(agent)
        .build();
    WorkPlan::new().with_study("mixed", vec![campaign])
}

/// Digests of the default seed's first eight solo goldens (one per shape,
/// on the first layout).
const PINNED_SEED: u64 = 2018;
const PINNED: Option<[u64; SHAPES]> = Some([
    0x79ee_64cd_ccb3_6fd9,
    0x4866_d8a5_a6b7_f772,
    0x4a00_31a0_625b_0a47,
    0x95df_83fd_32fc_3db3,
    0x5c83_2121_cabd_0385,
    0x0040_e1f3_9c40_c94c,
    0x0a45_51c4_eb42_8581,
    0x3348_666f_cd4d_e0f1,
]);

/// Timestamps of one served plan, taken on its client thread.
struct PlanTiming {
    /// Index of the plan in [`Shapes::plans`].
    plan: usize,
    start: Instant,
    submitted: Instant,
    first_run: Option<Instant>,
    terminal: Instant,
    fetched: Instant,
    results_bytes: usize,
    ok: bool,
}

/// The daemon keeps every plan until shutdown, so its footprint grows
/// with plans served; peak RSS is read when this many plans of the window
/// have completed (or at its end), which keeps it independent of speed.
const RSS_AT_PLANS: u64 = 256;

struct DaemonWindow {
    plans: Vec<PlanTiming>,
    /// The slice each plan ran in.
    plan_slice: Vec<usize>,
    peak_rss_mb: f64,
    connect: Samples,
    /// Seconds of each slice, pauses left out.
    slices: Samples,
    errors: u64,
    speed: HostSpeed,
}

/// A running daemon: its address and accept thread.
pub struct Daemon {
    pub addr: String,
    thread: std::thread::JoinHandle<Result<(), NetError>>,
}

impl Daemon {
    pub fn start(workers: usize, spool: &Path) -> Daemon {
        let server = CampaignServer::bind("127.0.0.1:0", workers)
            .expect("bind loopback")
            .with_spool(Some(spool.to_path_buf()), false)
            .expect("spool directory");
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, thread }
    }

    /// Shuts the daemon down and waits for its accept loop to end.
    pub fn stop(self) {
        let stopped = ServiceClient::connect(&self.addr).and_then(|mut c| c.shutdown_server());
        if let Err(e) = stopped {
            eprintln!("[perfbench] daemon shutdown: {e}");
        }
        if let Ok(Err(e)) = self.thread.join() {
            eprintln!("[perfbench] daemon run: {e}");
        }
    }
}

/// Serves one plan: submit → wait (or watch) → fetch, checked against
/// its golden digest.
fn serve_one(
    client: &mut ServiceClient,
    plan: &WorkPlan,
    k: usize,
    golden: u64,
    watch: bool,
) -> Result<PlanTiming, NetError> {
    let start = Instant::now();
    let (id, _) = client.submit(plan, TraceLevel::Off)?;
    let submitted = Instant::now();
    let mut first_run = None;
    let phase = if watch {
        client.watch(id, 0, |_, e| {
            if first_run.is_none() && matches!(e, ProgressEvent::RunCompleted { .. }) {
                first_run = Some(Instant::now());
            }
        })?
    } else {
        client.wait_terminal(id)?
    };
    let terminal = Instant::now();
    let json = client.results_json(id)?;
    let fetched = Instant::now();
    let ok = phase == PlanPhase::Completed && digest(json.as_bytes()) == golden;
    if !ok {
        eprintln!("[perfbench] plan {k} ended {phase:?} or differs from its golden");
    }
    Ok(PlanTiming {
        plan: k,
        start,
        submitted,
        first_run,
        terminal,
        fetched,
        results_bytes: json.len(),
        ok,
    })
}

/// The window is cut into slices of about this many seconds with a host
/// speed pause between them; each slice ends when every client's plan in
/// flight has been fetched.
const SLICE_S: f64 = 2.0;

/// Host speed kernel timings before every slice and after the last.
const PAUSE_REPS: usize = 5;

/// `clients` closed-loop clients for `seconds` of slices; plans are drawn
/// from one shared counter so the shape mix is the same whatever the
/// interleaving.
fn daemon_window(
    addr: &str,
    shapes: &Shapes,
    seconds: f64,
    clients: usize,
    watch: bool,
) -> DaemonWindow {
    let next = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let rss = OnceLock::new();
    reset_peak_rss();
    let slices = (seconds / SLICE_S).round().max(1.0) as usize;
    let slice_s = seconds / slices as f64;
    let mut w = DaemonWindow {
        plans: Vec::new(),
        plan_slice: Vec::new(),
        peak_rss_mb: f64::NAN,
        connect: Samples::default(),
        slices: Samples::default(),
        errors: 0,
        speed: HostSpeed::default(),
    };
    for slice in 0..slices {
        w.speed.pause(clients, PAUSE_REPS);
        let started = Instant::now();
        let per_client: Vec<(Vec<PlanTiming>, f64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (next, done, rss) = (&next, &done, &rss);
                    scope.spawn(move || {
                        let mut served = Vec::new();
                        let mut errors = 0u64;
                        let t = Instant::now();
                        let mut client = match ServiceClient::connect(addr) {
                            Ok(c) => c,
                            Err(e) => {
                                eprintln!("[perfbench] connect: {e}");
                                return (served, f64::NAN, 1);
                            }
                        };
                        let connect_s = secs(t);
                        while secs(started) < slice_s {
                            let k = (next.fetch_add(1, Ordering::Relaxed) as usize) % PLANS;
                            let (plan, golden) = (&shapes.plans[k], shapes.goldens[k]);
                            match serve_one(&mut client, plan, k, golden, watch) {
                                Ok(p) => {
                                    served.push(p);
                                    if done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_PLANS {
                                        let _ = rss.set(peak_rss_mb());
                                    }
                                }
                                Err(e) => {
                                    eprintln!("[perfbench] protocol error: {e}");
                                    errors += 1;
                                    match ServiceClient::connect(addr) {
                                        Ok(c) => client = c,
                                        Err(_) => break,
                                    }
                                }
                            }
                        }
                        (served, connect_s, errors)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        w.slices.push(secs(started));
        for (served, connect_s, errors) in per_client {
            w.plan_slice.extend(served.iter().map(|_| slice));
            w.plans.extend(served);
            w.connect.push(connect_s);
            w.errors += errors;
        }
    }
    w.speed.pause(clients, PAUSE_REPS);
    w.peak_rss_mb = rss.get().copied().unwrap_or_else(peak_rss_mb);
    w
}

/// The window's metrics, in wall-clock time or, `nominal`, at the nominal
/// host speed: each slice and its plans' latencies divided by the index
/// over that slice.
fn daemon_e2e(w: &DaemonWindow, shapes: &Shapes, nominal: bool, e2e: &mut Metrics) {
    let index = |slice: usize| if nominal { w.speed.around(slice) } else { 1.0 };
    let n = w.plans.len() as f64;
    let wall: f64 = w.slices.iter().enumerate().map(|(k, s)| s / index(k)).sum();
    let latency: Samples = w
        .plans
        .iter()
        .zip(&w.plan_slice)
        .map(|(p, &k)| (p.fetched - p.start).as_secs_f64() * 1e3 / index(k))
        .collect();
    let missions: f64 = w
        .plans
        .iter()
        .map(|p| shapes.plans[p.plan].total_runs() as f64)
        .sum();
    let frames: f64 = w.plans.iter().map(|p| shapes.frames[p.plan]).sum();
    e2e.set("missions_per_s", missions / wall, "missions/s");
    e2e.set("frames_per_s", frames / wall, "frames/s");
    e2e.set("plans_per_s", n / wall, "plans/s");
    e2e.set("plan_latency_p50_ms", latency.median(), "ms");
    e2e.set("plan_latency_p90_ms", latency.quantile(0.9), "ms");
}

/// The shapes' plans, their solo results (workers = 1) and golden
/// digests; for the default seed the digests must also equal the pinned
/// ones.
pub struct Shapes {
    pub plans: Vec<WorkPlan>,
    pub goldens: Vec<u64>,
    pub results: Vec<Vec<StudyResult>>,
    /// Simulated frames of each plan.
    pub frames: Vec<f64>,
}

impl Shapes {
    /// Builds the shapes for `ctx.seed`; the second value counts golden
    /// digests that differ from the pinned ones.
    pub fn new(ctx: &Ctx) -> (Shapes, u64) {
        let plans: Vec<WorkPlan> = (0..PLANS)
            .map(|k| shape_plan(ctx.seed, k, &ctx.weights))
            .collect();
        let results: Vec<Vec<StudyResult>> =
            par_map(&plans, ctx.workers, |p| Engine::new().workers(1).execute(p));
        let goldens: Vec<u64> = results
            .iter()
            .map(|r| {
                digest(
                    serde_json::to_string(r)
                        .expect("results serialize")
                        .as_bytes(),
                )
            })
            .collect();
        let frames = results
            .iter()
            .map(|r| {
                r.iter()
                    .flat_map(|s| &s.campaigns)
                    .flat_map(|c| c.runs())
                    .map(frames_of)
                    .sum()
            })
            .collect();
        eprintln!("[perfbench] golden digests: {goldens:#x?}");
        let drift = match PINNED.filter(|_| ctx.seed == PINNED_SEED) {
            Some(p) if p.as_slice() != &goldens[..SHAPES] => {
                eprintln!("[perfbench] solo goldens differ from the pinned digests");
                1
            }
            _ => 0,
        };
        (
            Shapes {
                plans,
                goldens,
                results,
                frames,
            },
            drift,
        )
    }
}

/// Server-side per-layer metrics from a watched window, client-side:
/// submit, queue wait (submit reply → first `RunCompleted`), execute
/// (first `RunCompleted` → terminal) and fetch, each a child span of its
/// plan.
fn server_layers(w: &DaemonWindow, l: &mut Metrics) -> Tracer {
    let origin = w
        .plans
        .iter()
        .map(|p| p.start)
        .min()
        .unwrap_or_else(Instant::now);
    let mut tracer = Tracer::starting_at(origin);
    for (i, p) in w.plans.iter().enumerate() {
        let g = i as u64;
        let first = p.first_run.unwrap_or(p.terminal);
        let plan = tracer.record("plan", p.start, p.fetched, g, None);
        tracer.record("server.submit", p.start, p.submitted, g, Some(plan));
        tracer.record("server.queue_wait", p.submitted, first, g, Some(plan));
        tracer.record("server.execute", first, p.terminal, g, Some(plan));
        tracer.record("server.fetch", p.terminal, p.fetched, g, Some(plan));
    }
    let ms = |name: &str, q: f64| tracer.durations(name).quantile(q) / 1e6;
    l.set("server.connect_ms", w.connect.mean() * 1e3, "ms");
    l.set("server.submit_ms_p50", ms("server.submit", 0.5), "ms");
    l.set("server.submit_ms_p90", ms("server.submit", 0.9), "ms");
    l.set(
        "server.queue_wait_ms_p50",
        ms("server.queue_wait", 0.5),
        "ms",
    );
    l.set(
        "server.queue_wait_ms_p90",
        ms("server.queue_wait", 0.9),
        "ms",
    );
    l.set("server.execute_ms_p50", ms("server.execute", 0.5), "ms");
    l.set("server.fetch_ms_p50", ms("server.fetch", 0.5), "ms");
    let bytes: f64 = w.plans.iter().map(|p| p.results_bytes as f64).sum();
    l.set(
        "server.results_bytes",
        bytes / w.plans.len().max(1) as f64,
        "bytes",
    );
    tracer
}

fn window_failures(w: &DaemonWindow) -> (u64, u64) {
    let attempted = w.plans.len() as u64 + w.errors;
    (
        attempted,
        w.errors + w.plans.iter().filter(|p| !p.ok).count() as u64,
    )
}

/// Seconds of the service probe the solo workloads run in traced mode.
const SERVICE_PROBE_S: f64 = 1.0;

/// The daemon layers for a solo workload: one watched client for a
/// second against a fresh journaling daemon, then the spool's journals.
pub fn service_probe(ctx: &Ctx, out: &mut Outcome) {
    let (shapes, drift) = Shapes::new(ctx);
    let spool = ctx.work_dir.join("probe-spool");
    let daemon = Daemon::start(ctx.workers, &spool);
    let w = daemon_window(&daemon.addr, &shapes, SERVICE_PROBE_S, 1, true);
    daemon.stop();
    let (attempted, failed) = window_failures(&w);
    out.attempted += attempted;
    out.failed += failed + drift;
    server_layers(&w, &mut out.layers);
    probes::store_spool(&mut out.layers, &spool, w.plans.len());
}

pub fn daemon_mixed_plans(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let (shapes, drift) = Shapes::new(ctx);
    eprintln!("[perfbench] solo goldens: {:.2} s", secs(t));
    out.failed += drift;

    // Set-up: bind, open the spool, start the accept loop; repeated, and
    // every daemon but the last is stopped again. The repetitions share one
    // spool directory (a restart on an existing, empty spool), which keeps
    // file-system metadata noise out of the measurement.
    let spool_root = ctx.work_dir.join("spool");
    let (setup_s, daemon) = ctx.setup(|| Daemon::start(ctx.workers, &spool_root), Daemon::stop);
    let warm = daemon_window(&daemon.addr, &shapes, WARM_UP_S, ctx.workers, false);
    let (attempted, failed) = window_failures(&warm);
    out.attempted += attempted;
    out.failed += failed;
    let w = daemon_window(&daemon.addr, &shapes, ctx.seconds, ctx.workers, false);
    let (attempted, failed) = window_failures(&w);
    out.attempted += attempted;
    out.failed += failed;
    daemon_e2e(&w, &shapes, false, &mut out.raw);
    daemon_e2e(&w, &shapes, true, &mut out.e2e);
    out.speed = w.speed.clone();
    out.setup_and_memory(setup_s, w.peak_rss_mb);
    out.note("plans", w.plans.len() as f64);
    out.note("latency_samples", w.plans.len() as f64);
    if !ctx.trace {
        daemon.stop();
        return out;
    }

    let traced = daemon_window(&daemon.addr, &shapes, ctx.seconds, ctx.workers, true);
    let (attempted, failed) = window_failures(&traced);
    out.attempted += attempted;
    out.failed += failed;
    let mut traced_e2e = Metrics::default();
    daemon_e2e(&traced, &shapes, true, &mut traced_e2e);
    out.overhead(&traced_e2e);
    let tracer = server_layers(&traced, &mut out.layers);
    out.layers.set(
        "core.adaptive.batch_wall_ms",
        tracer.durations("plan").mean() / 1e6,
        "ms",
    );
    daemon.stop();
    probes::store_spool(
        &mut out.layers,
        &spool_root,
        warm.plans.len() + w.plans.len() + traced.plans.len(),
    );

    // Replay every plan's missions, round after round, until the replay
    // budget is spent.
    let missions: Vec<Vec<Mission>> = shapes
        .plans
        .iter()
        .zip(&shapes.results)
        .map(|(p, r)| plan_missions(p, r))
        .collect();
    let mut replay = Replay::new(ctx.weights.clone());
    let mut plan_secs = vec![Samples::default(); PLANS];
    let budget = Instant::now();
    let mut round = 0u64;
    while round == 0 || secs(budget) < ctx.replay_seconds() {
        for (s, ms) in missions.iter().enumerate() {
            let before = replay.mission_secs.len();
            for m in ms {
                out.attempted += 1;
                if !replay.run(m, round * PLANS as u64 + s as u64) {
                    out.failed += 1;
                }
            }
            plan_secs[s].push(replay.mission_secs[before..].iter().sum());
        }
        round += 1;
    }
    replay.metrics(&mut out.layers);
    engine_run_walls(&replay, &mut out.layers);
    // Busy worker-seconds of the traced window, estimated from each
    // plan's single-thread mission time.
    let busy: f64 = traced.plans.iter().map(|p| plan_secs[p.plan].mean()).sum();
    let capacity = traced.slices.sum() * ctx.workers as f64;
    let l = &mut out.layers;
    l.set("core.engine.worker_busy_frac", busy / capacity, "ratio");
    l.set(
        "core.adaptive.barrier_idle_frac",
        1.0 - busy / capacity,
        "ratio",
    );
    l.set(
        "core.engine.tail_idle_s",
        (capacity - busy) / traced.plans.len().max(1) as f64,
        "s",
    );
    out.note("replayed_missions", replay.missions as f64);
    probes::common(ctx, &mut out, &missions[0][0], true);
    out.spans.push(("daemon", tracer));
    out.spans.push(("replay", replay.tracer));
    out
}
