//! Fault-injection campaigns: seeded batches of missions run in parallel.
//!
//! A campaign fixes an agent, a fault plan, and a set of scenarios, then
//! runs `runs_per_scenario` missions per scenario with derived seeds. Each
//! run is fully self-contained and deterministic, so campaigns parallelize
//! over worker threads without affecting results.

use crate::engine::{Engine, ProgressSink, WorkPlan};
use crate::fault::FaultSpec;
use crate::harness::AvDriver;
use avfi_agent::controller::Driver;
use avfi_agent::IlNetwork;
use avfi_sim::recorder::Recorder;
use avfi_sim::rng::split_seed;
use avfi_sim::scenario::Scenario;
use avfi_sim::violation::Violation;
use avfi_sim::world::{MissionStatus, World};
use avfi_trace::{RunTrace, TraceEvent, TraceHeader, TraceLevel, TraceSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which agent a campaign drives.
///
/// Serializable so campaign plans can cross the `avfi-server` wire: the
/// neural variant ships its full weight blob, which is exactly what
/// "rebuilt per run from serialized weights" needs on the receiving side.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AgentSpec {
    /// The rule-based oracle autopilot.
    Expert,
    /// The imitation-learning CNN, rebuilt per run from serialized
    /// weights (so parallel runs and per-run ML faults never share state).
    Neural {
        /// Trained weights, shared read-only across runs.
        weights: Arc<Vec<u8>>,
    },
}

impl AgentSpec {
    /// Builds the neural spec from a trained network.
    pub fn neural(net: &mut IlNetwork) -> AgentSpec {
        AgentSpec::Neural {
            weights: Arc::new(net.to_weights()),
        }
    }

    /// Agent name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AgentSpec::Expert => "expert",
            AgentSpec::Neural { .. } => "il-cnn",
        }
    }
}

/// Mission outcome of one run (serializable mirror of
/// [`MissionStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MissionOutcome {
    /// Goal reached.
    Success {
        /// Completion time, seconds.
        time: f64,
    },
    /// Time budget exhausted.
    Timeout,
    /// Vehicle immobile (crashed/pinned).
    Stuck,
}

impl MissionOutcome {
    /// `true` on success.
    pub fn is_success(self) -> bool {
        matches!(self, MissionOutcome::Success { .. })
    }

    /// Outcome name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            MissionOutcome::Success { .. } => "success",
            MissionOutcome::Timeout => "timeout",
            MissionOutcome::Stuck => "stuck",
        }
    }
}

impl From<MissionStatus> for MissionOutcome {
    fn from(s: MissionStatus) -> Self {
        match s {
            MissionStatus::Success { time } => MissionOutcome::Success { time },
            MissionStatus::Stuck => MissionOutcome::Stuck,
            // A run stopped while Running is accounted as a timeout.
            MissionStatus::Timeout | MissionStatus::Running => MissionOutcome::Timeout,
        }
    }
}

/// Result of one fault-injected mission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Fault label (e.g. `"Gaussian"`, `"delay 30f"`).
    pub fault: String,
    /// Agent name.
    pub agent: String,
    /// Index of the scenario within the campaign.
    pub scenario_index: usize,
    /// Index of the run within the scenario.
    pub run_index: usize,
    /// Derived seed the run used.
    pub seed: u64,
    /// Mission outcome.
    pub outcome: MissionOutcome,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// Distance driven, kilometers.
    pub distance_km: f64,
    /// All violations recorded by the traffic monitor.
    pub violations: Vec<Violation>,
    /// Simulation time of the first injection, if any.
    pub injection_time: Option<f64>,
}

/// Configuration of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Scenario templates; each gets `runs_per_scenario` derived-seed runs.
    pub scenarios: Vec<Scenario>,
    /// Missions per scenario.
    pub runs_per_scenario: usize,
    /// The fault plan applied to every run.
    pub fault: FaultSpec,
    /// The agent under test.
    pub agent: AgentSpec,
    /// Worker threads (0 = one per available core).
    pub parallelism: usize,
}

impl CampaignConfig {
    /// Starts a builder over scenario templates.
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` is empty.
    pub fn builder(scenarios: Vec<Scenario>) -> CampaignConfigBuilder {
        assert!(
            !scenarios.is_empty(),
            "campaign needs at least one scenario"
        );
        CampaignConfigBuilder {
            config: CampaignConfig {
                scenarios,
                runs_per_scenario: 5,
                fault: FaultSpec::None,
                agent: AgentSpec::Expert,
                parallelism: 0,
            },
        }
    }

    /// Total number of runs.
    pub fn total_runs(&self) -> usize {
        self.scenarios.len() * self.runs_per_scenario
    }
}

/// Builder for [`CampaignConfig`].
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    config: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Sets the missions per scenario.
    pub fn runs_per_scenario(mut self, n: usize) -> Self {
        self.config.runs_per_scenario = n;
        self
    }

    /// Sets the fault plan.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.config.fault = fault;
        self
    }

    /// Sets the agent.
    pub fn agent(mut self, agent: AgentSpec) -> Self {
        self.config.agent = agent;
        self
    }

    /// Sets the worker-thread count (0 = auto).
    pub fn parallelism(mut self, n: usize) -> Self {
        self.config.parallelism = n;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CampaignConfig {
        self.config
    }
}

/// Results of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Fault label.
    pub fault: String,
    /// Agent name.
    pub agent: String,
    /// All run results, in (scenario, run) order.
    runs: Vec<RunResult>,
}

impl CampaignResult {
    /// Assembles a result from runs already in (scenario, run) order (used
    /// by the execution engine's deterministic reassembly).
    pub(crate) fn from_runs(fault: String, agent: String, runs: Vec<RunResult>) -> Self {
        CampaignResult { fault, agent, runs }
    }

    /// All runs.
    pub fn runs(&self) -> &[RunResult] {
        &self.runs
    }

    /// Total kilometers driven across runs.
    pub fn total_km(&self) -> f64 {
        self.runs.iter().map(|r| r.distance_km).sum()
    }

    /// Total violations across runs.
    pub fn total_violations(&self) -> usize {
        self.runs.iter().map(|r| r.violations.len()).sum()
    }
}

/// A runnable campaign.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Executes every run (parallel over worker threads) and collects the
    /// results. Results are identical regardless of thread count.
    ///
    /// This is a single-campaign plan handed to the
    /// [`Engine`](crate::engine::Engine); studies that run several
    /// campaigns should build a [`WorkPlan`](crate::engine::WorkPlan)
    /// instead so the queues merge and no cores idle between campaigns.
    pub fn run(&self) -> CampaignResult {
        self.run_with(&crate::engine::NullSink)
    }

    /// Like [`Campaign::run`], streaming progress events into `sink`.
    pub fn run_with(&self, sink: &dyn ProgressSink) -> CampaignResult {
        let plan = WorkPlan::single("campaign", self.config.clone());
        Engine::new()
            .workers(self.config.parallelism)
            .execute_with(&plan, sink)
            .pop()
            .expect("plan has one study")
            .campaigns
            .pop()
            .expect("study has one campaign")
    }
}

/// What the flight recorder should capture for a traced run.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Detail level (`Off` callers should use [`run_single`] instead).
    pub level: TraceLevel,
    /// Study name recorded in trace headers.
    pub study: String,
    /// Black-box ring capacity, frames.
    pub blackbox_frames: usize,
    /// Fingerprint of the neural agent's weights, when neural.
    pub weights_fingerprint: Option<u64>,
}

impl TraceSpec {
    /// The capture buffer runs under this spec record into: a ring of
    /// `blackbox_frames` at `Blackbox`, an idle linear recorder otherwise.
    /// Workers build one and reuse it across runs.
    pub fn recorder(&self) -> Recorder {
        if self.level == TraceLevel::Blackbox {
            Recorder::ring(self.blackbox_frames)
        } else {
            Recorder::new(false)
        }
    }
}

/// Executes one fault-injected mission with the flight recorder on.
///
/// The [`RunResult`] is bit-identical to what [`run_single`] produces —
/// recording only observes the run. The second return is the trace to
/// persist: at `Summary` level every run yields one (events only); at
/// `Blackbox` level only *failed* runs do (with the ring's frame window),
/// so campaign-scale disk stays proportional to failures.
///
/// `recorder` is the caller's reusable capture buffer (one per worker):
/// it is reset, used, and handed back with its allocation intact.
pub fn run_single_traced(
    template: &Scenario,
    scenario_index: usize,
    run_index: usize,
    fault: &FaultSpec,
    agent: &AgentSpec,
    trace: &TraceSpec,
    recorder: &mut Recorder,
) -> (RunResult, Option<RunTrace>) {
    run_mission(
        template,
        scenario_index,
        run_index,
        fault,
        agent,
        Some((trace, recorder)),
    )
}

/// Executes one fault-injected mission.
pub fn run_single(
    template: &Scenario,
    scenario_index: usize,
    run_index: usize,
    fault: &FaultSpec,
    agent: &AgentSpec,
) -> RunResult {
    run_mission(template, scenario_index, run_index, fault, agent, None).0
}

/// The mission loop behind [`run_single`] and [`run_single_traced`].
/// Without a trace request it logs no events and builds no trace.
pub(crate) fn run_mission(
    template: &Scenario,
    scenario_index: usize,
    run_index: usize,
    fault: &FaultSpec,
    agent: &AgentSpec,
    mut trace: Option<(&TraceSpec, &mut Recorder)>,
) -> (RunResult, Option<RunTrace>) {
    // Derive a per-run scenario: same town/config, new mission/traffic
    // seed. The stream index mixes in `scenario_index` so two scenarios
    // that happen to share a template seed still get distinct traffic
    // (mixing only `run_index` would replay identical runs across them).
    let mut scenario = template.clone();
    scenario.seed = split_seed(
        template.seed,
        ((scenario_index as u64) << 32) | (run_index as u64 + 1),
    );
    let mut world = World::from_scenario(&scenario);
    let mut driver = match agent {
        AgentSpec::Expert => AvDriver::expert(fault.clone(), scenario.seed),
        AgentSpec::Neural { weights } => {
            let net = IlNetwork::from_weights(weights).expect("valid campaign weights");
            AvDriver::neural(net, fault.clone(), scenario.seed)
        }
    };
    let blackbox = matches!(&trace, Some((spec, _)) if spec.level == TraceLevel::Blackbox);
    if let Some((_, recorder)) = &mut trace {
        driver.enable_event_log();
        if blackbox {
            recorder.reset();
            world.install_recorder(std::mem::take(recorder));
        }
    }
    // Render the camera only for an agent that reads it; the harness
    // skips the pixel work of camera faults for the same agents.
    world.set_camera_demand(driver.reads_camera());
    let mut obs = world.observe();
    loop {
        let control = driver.drive_frame(&obs, &world);
        if world.step(control).is_terminal() {
            break;
        }
        world.observe_into(&mut obs);
    }

    let result = RunResult {
        fault: fault.label(),
        agent: driver.agent_name().to_string(),
        scenario_index,
        run_index,
        seed: scenario.seed,
        outcome: world.mission().into(),
        duration: world.time(),
        distance_km: world.odometer() / 1000.0,
        violations: world.monitor().events().to_vec(),
        injection_time: driver.injection_time(),
    };
    let Some((spec, recorder)) = trace else {
        return (result, None);
    };
    if blackbox {
        *recorder = world.take_recorder();
    }

    let (mut events, dropped_events) = driver.take_events();
    events.extend(result.violations.iter().map(|v| TraceEvent::Violation {
        frame: v.frame,
        time: v.time,
        kind: v.kind,
        x: v.position.x,
        y: v.position.y,
        odometer: v.odometer,
    }));
    // Stable by frame: harness events keep their order, violations land
    // after same-frame injections (cause before effect).
    events.sort_by_key(TraceEvent::frame);

    let run_trace = RunTrace {
        header: TraceHeader {
            study: spec.study.clone(),
            fault: result.fault.clone(),
            agent: result.agent.clone(),
            scenario_index,
            run_index,
            seed: scenario.seed,
            scenario: template.clone(),
            fault_spec_json: serde_json::to_string(fault).expect("fault spec serializes"),
            weights_fingerprint: spec.weights_fingerprint,
            level: spec.level,
            blackbox_frames: if blackbox { spec.blackbox_frames } else { 0 },
        },
        summary: TraceSummary {
            success: result.outcome.is_success(),
            outcome: result.outcome.name().to_string(),
            duration: result.duration,
            distance_km: result.distance_km,
            violations: result.violations.len(),
            injection_time: result.injection_time,
        },
        events,
        frames: if blackbox {
            recorder.chronological().copied().collect()
        } else {
            Vec::new()
        },
        dropped_frames: if blackbox { recorder.dropped() } else { 0 },
        dropped_events,
    };
    // Black-box semantics: the ring is flushed to disk only when the run
    // failed; summary traces are cheap enough to keep for every run.
    let emit = match spec.level {
        TraceLevel::Off => false,
        TraceLevel::Summary => true,
        TraceLevel::Blackbox => run_trace.is_failure(),
    };
    (result, emit.then_some(run_trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::timing::TimingFault;
    use avfi_sim::scenario::TownSpec;

    fn quick_scenario(seed: u64) -> Scenario {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(20.0)
            .min_route_length(60.0)
            .build()
    }

    #[test]
    fn expert_campaign_runs_and_is_deterministic() {
        let config = CampaignConfig::builder(vec![quick_scenario(1)])
            .runs_per_scenario(3)
            .parallelism(2)
            .build();
        let a = Campaign::new(config.clone()).run();
        let b = Campaign::new(config).run();
        assert_eq!(a.runs().len(), 3);
        for (x, y) in a.runs().iter().zip(b.runs()) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.distance_km, y.distance_km);
            assert_eq!(x.violations.len(), y.violations.len());
            assert_eq!(x.outcome.is_success(), y.outcome.is_success());
        }
    }

    #[test]
    fn parallelism_does_not_change_results() {
        let mk = |threads| {
            Campaign::new(
                CampaignConfig::builder(vec![quick_scenario(2)])
                    .runs_per_scenario(4)
                    .parallelism(threads)
                    .build(),
            )
            .run()
        };
        let serial = mk(1);
        let parallel = mk(4);
        for (x, y) in serial.runs().iter().zip(parallel.runs()) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.duration, y.duration);
            assert_eq!(x.distance_km, y.distance_km);
        }
    }

    #[test]
    fn runs_get_distinct_seeds() {
        let config = CampaignConfig::builder(vec![quick_scenario(3)])
            .runs_per_scenario(4)
            .build();
        let result = Campaign::new(config).run();
        let seeds: std::collections::HashSet<u64> = result.runs().iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn same_template_seed_scenarios_diverge() {
        // Two scenarios with identical template seeds must not replay the
        // same mission: the per-run seed derivation mixes in the scenario
        // index, so their trajectories (and per-run seeds) differ.
        let config = CampaignConfig::builder(vec![quick_scenario(5), quick_scenario(5)])
            .runs_per_scenario(2)
            .parallelism(1)
            .build();
        let result = Campaign::new(config).run();
        assert_eq!(result.runs().len(), 4);
        let seeds: std::collections::HashSet<u64> = result.runs().iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4, "per-run seeds collided across scenarios");
        let a = &result.runs()[0]; // scenario 0, run 0
        let b = &result.runs()[2]; // scenario 1, run 0
        assert_ne!(a.seed, b.seed);
        assert_ne!(
            (a.duration, a.distance_km),
            (b.duration, b.distance_km),
            "same-seed scenarios replayed an identical trajectory"
        );
    }

    #[test]
    fn fault_label_propagates() {
        let config = CampaignConfig::builder(vec![quick_scenario(4)])
            .runs_per_scenario(1)
            .fault(FaultSpec::Timing(TimingFault::OutputDelay { frames: 10 }))
            .build();
        let result = Campaign::new(config).run();
        assert_eq!(result.fault, "delay 10f");
        assert_eq!(result.runs()[0].fault, "delay 10f");
        assert_eq!(result.runs()[0].injection_time, Some(0.0));
    }
}
