//! Single-thread mission replay with per-layer spans.
//!
//! Each replayed mission goes through the same public calls
//! `avfi_core::campaign::run_single` composes (`World::from_scenario`,
//! `IlNetwork::from_weights`, `AvDriver::{expert,neural}`,
//! `World::observe_into`, `AvDriver::drive_frame`, `World::step`), each
//! timed as its own span, and its `RunResult` must equal the engine's.
//! Sub-layer probes (camera render, LIDAR scan, monitor check, the five
//! camera fault models, tensor conversion, NN forward per layer, expert
//! decision) run after a frame on copies, outside the frame's spans, so no
//! RNG stream of the mission moves; the flight-recorder probe pushes the
//! mission's trajectory samples into a black-box ring after the mission.

use crate::util::{json_digest, Metrics, Tracer};
use avfi_agent::features::{image_to_tensor, normalize_speed, NET_HEIGHT, NET_WIDTH};
use avfi_agent::ilnet::FEATURE_DIM;
use avfi_agent::{ExpertDriver, IlNetwork};
use avfi_core::campaign::{AgentSpec, RunResult};
use avfi_core::fault::input::{ImageFault, ImageFaultLayout};
use avfi_core::fault::FaultSpec;
use avfi_core::{AvDriver, StudyResult, WorkPlan};
use avfi_nn::layers::{Conv2d, Dense, Flatten, Relu};
use avfi_nn::serialize::load_weights;
use avfi_nn::{Layer, ParamSlice, Tensor};
use avfi_sim::map::route::Command;
use avfi_sim::physics::CollisionShape;
use avfi_sim::recorder::{Recorder, TrajectorySample};
use avfi_sim::rng::split_seed;
use avfi_sim::sensors::Lidar;
use avfi_sim::violation::EgoSnapshot;
use avfi_sim::world::World;
use avfi_sim::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ring size of the black-box flight recorder the engine installs.
const BLACKBOX_FRAMES: usize = 64;

/// Probe every this many frames (the Gaussian model alone costs several
/// frames' worth of work, so probing every frame would dominate a replay).
const PROBE_EVERY: u64 = 4;

/// Span names of the five paper camera models' probes, in
/// `ImageFault::paper_suite()` order; the suffix names the metric.
const FAULT_SPANS: [&str; 5] = [
    "probe.core.fault.image_apply.gaussian",
    "probe.core.fault.image_apply.salt_pepper",
    "probe.core.fault.image_apply.solid_occlusion",
    "probe.core.fault.image_apply.transparent_occlusion",
    "probe.core.fault.image_apply.water_drop",
];

/// One mission with the result the engine produced for it.
#[derive(Debug, Clone)]
pub struct Mission {
    pub template: Scenario,
    pub scenario_index: usize,
    pub run_index: usize,
    pub fault: FaultSpec,
    pub agent: AgentSpec,
    pub expected: RunResult,
}

/// The missions of `plan` in flat-plan order, paired with the engine's
/// results for it.
pub fn plan_missions(plan: &WorkPlan, results: &[StudyResult]) -> Vec<Mission> {
    let mut out = Vec::new();
    for (study, result) in plan.studies().iter().zip(results) {
        for (cfg, campaign) in study.campaigns.iter().zip(&result.campaigns) {
            let mut runs = campaign.runs().iter();
            for (si, template) in cfg.scenarios.iter().enumerate() {
                for ri in 0..cfg.runs_per_scenario {
                    out.push(Mission {
                        template: template.clone(),
                        scenario_index: si,
                        run_index: ri,
                        fault: cfg.fault.clone(),
                        agent: cfg.agent.clone(),
                        expected: runs.next().expect("one result per run").clone(),
                    });
                }
            }
        }
    }
    out
}

/// The IL-CNN rebuilt from the public `avfi_nn` layers (the architecture
/// in `avfi_agent::ilnet`'s docs, parameters in `IlNetwork::params`
/// order), so each layer's forward can be timed on its own. Its output is
/// checked bit-identical to `IlNetwork::forward`.
struct NnTwin {
    conv1: Conv2d,
    conv2: Conv2d,
    dense: Dense,
    heads: Vec<(Dense, Dense)>,
}

impl NnTwin {
    fn from_weights(weights: &[u8]) -> NnTwin {
        let mut rng = StdRng::seed_from_u64(0);
        let mut twin = NnTwin {
            conv1: Conv2d::new(1, 8, 5, 2, 2, &mut rng),
            conv2: Conv2d::new(8, 16, 3, 2, 1, &mut rng),
            dense: Dense::new(
                16 * (NET_HEIGHT / 4) * (NET_WIDTH / 4),
                FEATURE_DIM,
                &mut rng,
            ),
            heads: (0..Command::ALL.len())
                .map(|_| {
                    (
                        Dense::new(FEATURE_DIM + 1, 32, &mut rng),
                        Dense::new(32, 3, &mut rng),
                    )
                })
                .collect(),
        };
        let NnTwin {
            conv1,
            conv2,
            dense,
            heads,
        } = &mut twin;
        let mut params: Vec<ParamSlice<'_>> = Vec::new();
        params.extend(conv1.params());
        params.extend(conv2.params());
        params.extend(dense.params());
        for (a, b) in heads.iter_mut() {
            params.extend(a.params());
            params.extend(b.params());
        }
        load_weights(weights, &mut params).expect("twin network loads the pinned weights");
        twin
    }
}

/// Replays missions and accumulates their spans and counters.
pub struct Replay {
    pub tracer: Tracer,
    weights: std::sync::Arc<Vec<u8>>,
    twin: NnTwin,
    twin_net: IlNetwork,
    probe_rng: StdRng,
    pub missions: u64,
    pub frames: u64,
    pub injected_frames: u64,
    /// Wall time of each mission's own calls (probes excluded), seconds.
    pub mission_secs: Vec<f64>,
}

impl Replay {
    pub fn new(weights: std::sync::Arc<Vec<u8>>) -> Replay {
        Replay {
            tracer: Tracer::default(),
            twin: NnTwin::from_weights(&weights),
            twin_net: IlNetwork::from_weights(&weights).expect("pinned weights parse"),
            weights,
            probe_rng: StdRng::seed_from_u64(0x9E37_79B9),
            missions: 0,
            frames: 0,
            injected_frames: 0,
            mission_secs: Vec::new(),
        }
    }

    /// Replays one mission as span group `group`; returns whether its
    /// result equals the engine's and every probe's copy agreed with what
    /// the mission itself computed.
    pub fn run(&mut self, m: &Mission, group: u64) -> bool {
        self.tracer.set_group(group);
        let first_span = self.tracer.spans().len();
        let mut scenario = m.template.clone();
        scenario.seed = split_seed(
            m.template.seed,
            ((m.scenario_index as u64) << 32) | (m.run_index as u64 + 1),
        );
        let tr = &mut self.tracer;
        let mut world = tr.time("sim.world_build", || World::from_scenario(&scenario));
        // Parsed for every mission: the neural agent drives with it, and
        // for the expert it is the per-run parse cost a neural plan would
        // pay on the same scenario.
        let weights = &self.weights;
        let net = tr.time("agent.weights_parse", || {
            IlNetwork::from_weights(weights).expect("pinned weights parse")
        });
        let mut driver = tr.time("core.harness.driver_build", || match &m.agent {
            AgentSpec::Expert => AvDriver::expert(m.fault.clone(), scenario.seed),
            AgentSpec::Neural { .. } => AvDriver::neural(net, m.fault.clone(), scenario.seed),
        });
        let mut obs = tr.time("sim.observe", || world.observe());
        let lidar = Lidar::new(scenario.lidar);
        let expert = ExpertDriver::new();
        let layouts: Vec<ImageFaultLayout> = ImageFault::paper_suite()
            .iter()
            .map(|f| {
                ImageFaultLayout::sample(
                    f,
                    obs.sensors.image.width(),
                    obs.sensors.image.height(),
                    &mut self.probe_rng,
                )
            })
            .collect();
        let mut scratch = obs.sensors.image.clone();
        let mut samples = Vec::new();
        let mut frames = 0u64;
        let mut probes_agree = true;
        loop {
            let tr = &mut self.tracer;
            let (time, frame_no) = (world.time(), world.frame());
            let frame = tr.enter("frame");
            let control = tr.time("core.harness.drive_frame", || {
                driver.drive_frame(&obs, &world)
            });
            let status = tr.time("sim.step", || world.step(control));
            tr.exit(frame);
            // The sample a black-box world records in its step.
            let ego = world.ego();
            samples.push(TrajectorySample {
                time,
                frame: frame_no,
                position: ego.pose.position,
                heading: ego.pose.heading,
                speed: ego.speed,
                control,
            });
            frames += 1;
            if driver.injection_time().is_some() {
                self.injected_frames += 1;
            }
            if status.is_terminal() {
                break;
            }
            self.tracer
                .time("sim.observe", || world.observe_into(&mut obs));
            if frames % PROBE_EVERY == 1 {
                probes_agree &=
                    self.probe(&mut world, &obs, &lidar, &expert, &layouts, &mut scratch);
            }
        }
        // The flight recorder's per-frame work, on the mission's own
        // samples: pushes into a black-box ring, timed as one block.
        let mut ring = Recorder::ring(BLACKBOX_FRAMES);
        self.tracer.time("probe.trace.recorder_push", || {
            for sample in samples {
                ring.push(sample);
            }
        });
        let result = RunResult {
            fault: m.fault.label(),
            agent: driver.agent_name().to_string(),
            scenario_index: m.scenario_index,
            run_index: m.run_index,
            seed: scenario.seed,
            outcome: world.mission().into(),
            duration: world.time(),
            distance_km: world.odometer() / 1000.0,
            violations: world.monitor().events().to_vec(),
            injection_time: driver.injection_time(),
        };
        // Mission wall: its own top-level spans, probes excluded, and the
        // weights parse only when the agent is the network that needs it.
        let neural = matches!(m.agent, AgentSpec::Neural { .. });
        let own_ns: u64 = self.tracer.spans()[first_span..]
            .iter()
            .filter(|s| s.parent.is_none() && !s.name.starts_with("probe."))
            .filter(|s| neural || s.name != "agent.weights_parse")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.mission_secs.push(own_ns as f64 / 1e9);
        self.missions += 1;
        self.frames += frames;
        let same = json_digest(&result) == json_digest(&m.expected);
        if !same {
            eprintln!(
                "[perfbench] replay mismatch: {} s{} r{}",
                m.fault.label(),
                m.scenario_index,
                m.run_index
            );
        }
        same && probes_agree
    }

    /// Sub-layer probes on copies of this frame's state; returns whether
    /// the copies agree with the frame (rendered image, LIDAR scan, twin
    /// logits).
    fn probe(
        &mut self,
        world: &mut World,
        obs: &avfi_sim::world::WorldObservation,
        lidar: &Lidar,
        expert: &ExpertDriver,
        layouts: &[ImageFaultLayout],
        scratch: &mut avfi_sim::sensors::Image,
    ) -> bool {
        let tr = &mut self.tracer;
        let image = tr.time("probe.sim.camera_render", || world.render_camera());
        let mut bad = image != obs.sensors.image;

        let ego = world.ego().pose;
        let mut shapes = world.actor_shapes();
        let reach = lidar.config().max_range + 10.0;
        shapes.extend(
            world
                .map()
                .buildings()
                .iter()
                .filter(|b| b.distance_to(ego.position) < reach)
                .map(|b| CollisionShape::Fixed(*b)),
        );
        let scan = tr.time("probe.sim.lidar_scan", || lidar.scan(ego, shapes.iter()));
        bad |= scan.ranges != obs.sensors.lidar.ranges;

        let mut monitor = world.monitor().clone();
        let snapshot = EgoSnapshot {
            position: ego.position,
            heading: ego.heading,
            speed: world.ego().speed,
            odometer: world.odometer(),
            time: world.time(),
            frame: world.frame(),
        };
        let map = world.map();
        tr.time("probe.sim.monitor_check", || monitor.check(map, &snapshot));

        for ((model, layout), name) in ImageFault::paper_suite()
            .iter()
            .zip(layouts)
            .zip(FAULT_SPANS)
        {
            scratch.copy_from(&obs.sensors.image);
            let rng = &mut self.probe_rng;
            tr.time(name, || model.apply(scratch, layout, rng));
        }

        let tensor = tr.time("probe.agent.image_to_tensor", || {
            image_to_tensor(&obs.sensors.image)
        });
        let speed = normalize_speed(obs.sensors.speed);
        let net = &mut self.twin_net;
        let out = tr.time("probe.nn.forward", || {
            net.forward(&tensor, speed, obs.command, false)
        });
        let twin = &mut self.twin;
        let x = tr.time("probe.nn.conv1", || {
            Relu::new().forward(&twin.conv1.forward(&tensor, false), false)
        });
        let x = tr.time("probe.nn.conv2", || {
            Relu::new().forward(&twin.conv2.forward(&x, false), false)
        });
        let features = tr.time("probe.nn.dense", || {
            let flat = Flatten::new().forward(&x, false);
            Relu::new().forward(&twin.dense.forward(&flat, false), false)
        });
        let (h1, h2) = &mut twin.heads[obs.command.index()];
        let logits = tr.time("probe.nn.head", || {
            let mut head_in = features.data().to_vec();
            head_in.push(speed);
            let n = head_in.len();
            let h = Relu::new().forward(
                &h1.forward(&Tensor::from_vec(head_in, vec![n]), false),
                false,
            );
            h2.forward(&h, false)
        });
        bad |= logits.data() != out.data();

        tr.time("probe.agent.expert_decide", || expert.control_for(world));
        if bad {
            eprintln!("[perfbench] probe copy disagrees with the mission's own frame");
        }
        !bad
    }

    /// The replay's per-layer metrics.
    pub fn metrics(&self, m: &mut Metrics) {
        let t = &self.tracer;
        m.set(
            "sim.camera_render_us",
            t.mean_us("probe.sim.camera_render"),
            "us",
        );
        m.set("sim.observe_us", t.mean_us("sim.observe"), "us");
        m.set("sim.lidar_scan_us", t.mean_us("probe.sim.lidar_scan"), "us");
        m.set("sim.step_us", t.mean_us("sim.step"), "us");
        m.set(
            "sim.monitor_check_us",
            t.mean_us("probe.sim.monitor_check"),
            "us",
        );
        m.set(
            "sim.world_build_ms",
            t.mean_us("sim.world_build") / 1e3,
            "ms",
        );
        m.set(
            "agent.weights_parse_ms",
            t.mean_us("agent.weights_parse") / 1e3,
            "ms",
        );
        m.set(
            "core.harness.drive_frame_us",
            t.mean_us("core.harness.drive_frame"),
            "us",
        );
        for span in FAULT_SPANS {
            let key = span.trim_start_matches("probe.core.fault.image_apply.");
            m.set(
                format!("core.fault.image_apply_us.{key}"),
                t.mean_us(span),
                "us",
            );
        }
        m.set(
            "core.fault.injected_frame_share",
            self.injected_frames as f64 / self.frames.max(1) as f64,
            "ratio",
        );
        m.set(
            "agent.image_to_tensor_us",
            t.mean_us("probe.agent.image_to_tensor"),
            "us",
        );
        m.set("nn.forward_us", t.mean_us("probe.nn.forward"), "us");
        m.set("nn.conv1_us", t.mean_us("probe.nn.conv1"), "us");
        m.set("nn.conv2_us", t.mean_us("probe.nn.conv2"), "us");
        m.set("nn.dense_us", t.mean_us("probe.nn.dense"), "us");
        m.set("nn.head_us", t.mean_us("probe.nn.head"), "us");
        let push_ns = t.durations("probe.trace.recorder_push").sum();
        m.set(
            "trace.recorder_us_per_frame",
            push_ns / self.frames.max(1) as f64 / 1e3,
            "us",
        );
        m.set(
            "agent.expert_decide_us",
            t.mean_us("probe.agent.expert_decide"),
            "us",
        );
    }
}
