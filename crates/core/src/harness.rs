//! The fault-injection harness: wraps a driving agent and applies the
//! configured faults to its inputs (sensor payloads), its model (IL-CNN
//! parameters/neurons), and its outputs (commands, timing).
//!
//! This is the "Fault Injector" box of Figure 1: Input FI sits between the
//! server's sensor stream and the ADA, NN FI inside the ADA, Output FI and
//! Timing FI between the ADA and actuation.
//!
//! Camera faults do pixel work only for an agent that reads the camera
//! ([`Driver::reads_camera`]). For one that does not (the expert), an
//! active camera model still samples its [`ImageFaultLayout`] from the
//! observation's image size, marks the injection and logs the event, but
//! instead of copying and corrupting the image it advances the shared
//! fault RNG by exactly the words the corruption would have drawn
//! ([`ImageFault::rng_words`](crate::fault::input::ImageFault::rng_words)).
//! Every later draw — GPS and LIDAR noise, Bernoulli triggers, timing
//! channels — therefore sees the same stream, and results, traces and
//! journals stay byte-identical to corrupting pixels nobody reads. The
//! campaign runner pairs this with [`World::set_camera_demand`], so an
//! expert mission does not render the camera either.

use crate::fault::input::ImageFaultLayout;
use crate::fault::timing::TimingChannel;
use crate::fault::FaultSpec;
use avfi_agent::controller::{Driver, DriverInput};
use avfi_agent::{ExpertDriver, IlNetwork, NeuralDriver};
use avfi_sim::physics::VehicleControl;
use avfi_sim::rng::stream_rng;
use avfi_sim::sensors::{Image, LidarScan};
use avfi_sim::world::{World, WorldObservation};
use avfi_sim::FRAME_DT;
use avfi_trace::{FaultChannel, TraceEvent};
use rand::rngs::StdRng;

/// Per-run cap on logged fault events; intermittent triggers flapping
/// every frame would otherwise grow the log with the run length.
const MAX_TRACE_EVENTS: usize = 4096;

/// Onset-debounced log of the harness's fault activity for the flight
/// recorder: one [`TraceEvent::TriggerFired`] when the plan first becomes
/// active, one [`TraceEvent::Injection`] per channel per contiguous
/// active episode.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<TraceEvent>,
    dropped: u64,
    trigger_fired: bool,
    /// Whether each channel (in [`FaultChannel::ALL`] order) was active
    /// on the previous frame — the debounce state.
    prev: [bool; FaultChannel::ALL.len()],
}

impl EventLog {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < MAX_TRACE_EVENTS {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Folds one frame's channel-activity flags into the log, emitting
    /// events only on rising edges.
    fn frame_end(&mut self, frame: u64, active: [bool; FaultChannel::ALL.len()]) {
        if !self.trigger_fired && active.iter().any(|&a| a) {
            self.trigger_fired = true;
            self.push(TraceEvent::TriggerFired { frame });
        }
        for (i, &now) in active.iter().enumerate() {
            if now && !self.prev[i] {
                self.push(TraceEvent::Injection {
                    frame,
                    channel: FaultChannel::ALL[i],
                });
            }
            self.prev[i] = now;
        }
    }
}

enum Inner {
    Expert(ExpertDriver),
    Neural(NeuralDriver),
}

impl Inner {
    fn reads_camera(&self) -> bool {
        match self {
            Inner::Expert(e) => e.reads_camera(),
            Inner::Neural(n) => n.reads_camera(),
        }
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inner::Expert(_) => f.write_str("Expert"),
            Inner::Neural(_) => f.write_str("Neural"),
        }
    }
}

/// A driving agent wrapped by the AVFI fault injector.
#[derive(Debug)]
pub struct AvDriver {
    inner: Inner,
    spec: FaultSpec,
    rng: StdRng,
    timing: Option<TimingChannel>,
    image_layout: Option<ImageFaultLayout>,
    injected_at_frame: Option<u64>,
    /// Reused buffer for the fault-injected camera image, so the hot path
    /// never clones the observation (allocation-free after the first
    /// injected frame).
    scratch_image: Option<Image>,
    /// Reused buffer for the fault-injected LIDAR sweep.
    scratch_lidar: Option<LidarScan>,
    /// Flight-recorder event log; `None` (the default) keeps the hot
    /// path free of any tracing work.
    event_log: Option<EventLog>,
}

impl AvDriver {
    /// Wraps the rule-based expert (oracle baseline).
    pub fn expert(spec: FaultSpec, seed: u64) -> Self {
        Self::build(Inner::Expert(ExpertDriver::new()), spec, seed)
    }

    /// Wraps the neural agent, applying any configured ML fault to the
    /// network at construction time (a corrupted model is corrupted from
    /// the start).
    pub fn neural(mut net: IlNetwork, spec: FaultSpec, seed: u64) -> Self {
        let mut rng = stream_rng(seed, 0xFA);
        let mut injected_at_frame = None;
        if let FaultSpec::Ml(f) = &spec {
            f.apply(&mut net, &mut rng);
            injected_at_frame = Some(0);
        }
        let mut d = Self::build(Inner::Neural(NeuralDriver::new(net)), spec, seed);
        d.injected_at_frame = injected_at_frame.or(d.injected_at_frame);
        d
    }

    fn build(inner: Inner, spec: FaultSpec, seed: u64) -> Self {
        let timing = match &spec {
            FaultSpec::Timing(f) => Some(TimingChannel::new(f.clone())),
            _ => None,
        };
        AvDriver {
            inner,
            spec,
            rng: stream_rng(seed, 0xFB),
            timing,
            image_layout: None,
            // Timing faults are marked lazily, the first time the channel
            // actually perturbs the command stream — a no-op channel (e.g.
            // a zero-frame delay) must not report an injection time.
            injected_at_frame: None,
            scratch_image: None,
            scratch_lidar: None,
            event_log: None,
        }
    }

    /// Turns on flight-recorder event logging. An ML fault is applied at
    /// construction, so its trigger/injection pair is backfilled at frame
    /// 0 here (the per-frame path never sees it activate).
    pub fn enable_event_log(&mut self) {
        let mut log = EventLog::default();
        if matches!(self.spec, FaultSpec::Ml(_)) {
            log.trigger_fired = true;
            log.prev[FaultChannel::Ml as usize] = true;
            log.push(TraceEvent::TriggerFired { frame: 0 });
            log.push(TraceEvent::Injection {
                frame: 0,
                channel: FaultChannel::Ml,
            });
        }
        self.event_log = Some(log);
    }

    /// Takes the logged fault events (in frame order) and the count of
    /// events dropped past the cap. Logging stops until re-enabled.
    pub fn take_events(&mut self) -> (Vec<TraceEvent>, u64) {
        match self.event_log.take() {
            Some(log) => (log.events, log.dropped),
            None => (Vec::new(), 0),
        }
    }

    /// Agent name for reports.
    pub fn agent_name(&self) -> &'static str {
        match &self.inner {
            Inner::Expert(_) => "expert",
            Inner::Neural(_) => "il-cnn",
        }
    }

    /// The fault plan.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Simulation time of the first actual injection, if any happened —
    /// the t₀ of the Time-to-Traffic-Violation metric.
    pub fn injection_time(&self) -> Option<f64> {
        self.injected_at_frame.map(|f| f as f64 * FRAME_DT)
    }

    /// Computes the control for one frame, with fault injection.
    pub fn drive_frame(&mut self, obs: &WorldObservation, world: &World) -> VehicleControl {
        let frame = obs.sensors.frame;
        // Destructure so the match arms below can hold `spec` borrowed
        // while mutating the RNG and scratch buffers (disjoint fields) —
        // this is what lets the hot path drop the per-frame spec clone.
        let AvDriver {
            inner,
            spec,
            rng,
            timing,
            image_layout,
            injected_at_frame,
            scratch_image,
            scratch_lidar,
            event_log,
        } = self;
        fn mark(slot: &mut Option<u64>, frame: u64) {
            if slot.is_none() {
                *slot = Some(frame);
            }
        }
        // Per-channel activity this frame, observed inside the match arms
        // below (each trigger gate is evaluated exactly once — re-checking
        // here would consume extra RNG draws and change the run).
        let mut active = [false; FaultChannel::ALL.len()];
        let reads_camera = inner.reads_camera();

        // --- Input FI and sensor-path Hardware FI: corrupt the sensor
        // channels the agent sees. Only the channels a fault touches are
        // copied (into reused scratch buffers); scalar-only faults copy
        // nothing.
        let mut input = DriverInput::clean(obs, world);
        match &*spec {
            FaultSpec::Input(f) if f.trigger.is_active(frame, rng) => {
                mark(injected_at_frame, frame);
                active[FaultChannel::Image as usize] = f.model.is_some();
                active[FaultChannel::Gps as usize] = f.gps.is_some();
                active[FaultChannel::Speed as usize] = f.speed.is_some();
                active[FaultChannel::Lidar as usize] = f.lidar.is_some();
                // Scalar-only plans (no camera model) skip the image copy
                // entirely — the agent sees the world's own buffer. So does
                // an agent that never reads the camera; it only gets the
                // RNG draws the corruption would make (see the module docs).
                if let Some(model) = &f.model {
                    let (w, h) = (obs.sensors.image.width(), obs.sensors.image.height());
                    let layout = image_layout
                        .get_or_insert_with(|| ImageFaultLayout::sample(model, w, h, rng));
                    if reads_camera {
                        let img = match scratch_image {
                            Some(img) => {
                                img.copy_from(&obs.sensors.image);
                                img
                            }
                            None => scratch_image.insert(obs.sensors.image.clone()),
                        };
                        model.apply(img, layout, rng);
                        input.image = img;
                    } else {
                        model.skip(w, h, rng);
                    }
                }
                if let Some(g) = &f.gps {
                    let p = &mut input.gps.position;
                    p.x += g.bias_x + avfi_sim::rng::normal(rng, 0.0, g.sigma);
                    p.y += g.bias_y + avfi_sim::rng::normal(rng, 0.0, g.sigma);
                }
                if let Some(s) = &f.speed {
                    input.speed = match s {
                        crate::fault::input::SpeedFault::Scale(k) => input.speed * k,
                        crate::fault::input::SpeedFault::StuckAt(v) => *v,
                    };
                }
                if let Some(l) = &f.lidar {
                    let scan = match scratch_lidar {
                        Some(scan) => {
                            scan.ranges.clone_from(&obs.sensors.lidar.ranges);
                            scan.fov_deg = obs.sensors.lidar.fov_deg;
                            scan.max_range = obs.sensors.lidar.max_range;
                            scan
                        }
                        None => scratch_lidar.insert(obs.sensors.lidar.clone()),
                    };
                    l.apply(&mut scan.ranges, scan.max_range, rng);
                    input.lidar = scan;
                }
            }
            FaultSpec::Hardware(f) if !f.target.is_control() && f.trigger.is_active(frame, rng) => {
                mark(injected_at_frame, frame);
                active[FaultChannel::SensorHardware as usize] = true;
                let mut speed = input.speed;
                let mut gx = input.gps.position.x;
                let mut gy = input.gps.position.y;
                f.corrupt_sensors(&mut speed, &mut gx, &mut gy);
                input.speed = if speed.is_finite() { speed } else { 0.0 };
                input.gps.position.x = gx;
                input.gps.position.y = gy;
            }
            _ => {}
        }

        // --- The ADA computes its decision.
        let mut control = match inner {
            Inner::Expert(e) => e.drive(&input),
            Inner::Neural(n) => n.drive(&input),
        };

        // --- Output FI: command-path hardware faults.
        if let FaultSpec::Hardware(f) = &*spec {
            if f.target.is_control() && f.trigger.is_active(frame, rng) {
                mark(injected_at_frame, frame);
                active[FaultChannel::ControlHardware as usize] = true;
                control = f.corrupt_control(control);
            }
        }

        // --- Timing FI: the actuation sees a delayed/dropped/reordered
        // command stream. Injection is only recorded when the channel
        // actually changes the command — a transparent channel (zero-frame
        // delay) never perturbs the run.
        if let Some(ch) = timing {
            let requested = control;
            control = ch.transfer(control, rng);
            if control != requested {
                mark(injected_at_frame, frame);
                active[FaultChannel::Timing as usize] = true;
            }
        }

        if let Some(log) = event_log {
            log.frame_end(frame, active);
        }

        control
    }
}

impl Driver for AvDriver {
    fn drive(&mut self, input: &DriverInput<'_>) -> VehicleControl {
        self.drive_frame(input.obs, input.world)
    }

    fn name(&self) -> &'static str {
        self.agent_name()
    }

    fn reads_camera(&self) -> bool {
        self.inner.reads_camera()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
    use crate::fault::input::{ImageFault, InputFault};
    use crate::fault::timing::TimingFault;
    use crate::trigger::Trigger;
    use avfi_sim::scenario::{Scenario, TownSpec};

    fn world() -> World {
        let s = Scenario::builder(TownSpec::grid(2, 2))
            .seed(9)
            .npc_vehicles(0)
            .pedestrians(0)
            .build();
        World::from_scenario(&s)
    }

    #[test]
    fn clean_expert_matches_unwrapped() {
        let mut w = world();
        let obs = w.observe();
        let mut wrapped = AvDriver::expert(FaultSpec::None, 1);
        let direct = ExpertDriver::new().control_for(&w);
        assert_eq!(wrapped.drive_frame(&obs, &w), direct);
        assert!(wrapped.injection_time().is_none());
    }

    #[test]
    fn stuck_brake_immobilizes() {
        let mut w = world();
        let spec = FaultSpec::Hardware(HardwareFault::always(
            HardwareTarget::ControlBrake,
            BitFaultModel::StuckAt { value: 1.0 },
        ));
        let mut drv = AvDriver::expert(spec, 2);
        for _ in 0..45 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            assert_eq!(c.brake, 1.0);
            w.step(c);
        }
        assert_eq!(w.ego().speed, 0.0);
        assert_eq!(drv.injection_time(), Some(0.0));
    }

    #[test]
    fn output_delay_shifts_behavior() {
        // With a 15-frame delay, the first second of actuation is coasting
        // even though the expert asks for throttle.
        let mut w = world();
        let spec = FaultSpec::Timing(TimingFault::OutputDelay { frames: 15 });
        let mut drv = AvDriver::expert(spec, 3);
        for i in 0..15 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            assert_eq!(c, VehicleControl::coast(), "frame {i} leaked early");
            w.step(c);
        }
        let obs = w.observe();
        let c = drv.drive_frame(&obs, &w);
        assert!(c.throttle > 0.0, "delayed throttle should arrive now");
    }

    #[test]
    fn input_fault_marks_injection_at_trigger() {
        let mut w = world();
        let spec = FaultSpec::Input(InputFault {
            trigger: Trigger::From { frame: 10 },
            ..InputFault::always(ImageFault::gaussian(0.2))
        });
        let mut drv = AvDriver::expert(spec, 4);
        for _ in 0..10 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            w.step(c);
            assert!(drv.injection_time().is_none());
        }
        let obs = w.observe();
        let _ = drv.drive_frame(&obs, &w);
        let t = drv.injection_time().expect("injection recorded");
        assert!((t - 10.0 * FRAME_DT).abs() < 1e-9);
    }

    #[test]
    fn neural_with_input_fault_sees_corrupted_image() {
        // The same world frame must produce different controls with and
        // without heavy image noise (untrained net is still input
        // sensitive).
        let mut w = world();
        let obs = w.observe();
        let net1 = IlNetwork::new(11);
        let net2 = IlNetwork::from_weights(&{
            let mut n = IlNetwork::new(11);
            n.to_weights()
        })
        .unwrap();
        let mut clean = AvDriver::neural(net1, FaultSpec::None, 5);
        let mut noisy = AvDriver::neural(
            net2,
            FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.5))),
            5,
        );
        let a = clean.drive_frame(&obs, &w);
        let b = noisy.drive_frame(&obs, &w);
        assert_ne!(a, b);
    }

    #[test]
    fn scalar_only_input_fault_skips_image_copy() {
        // A GPS-only plan (camera model `None`) must never allocate or
        // fill the scratch image/LIDAR buffers — the scalar path is
        // copy-free, the same skip hardware faults get.
        use crate::fault::input::GpsFault;
        let mut w = world();
        let spec = FaultSpec::Input(InputFault::scalar_only().with_gps(GpsFault {
            bias_x: 25.0,
            bias_y: -10.0,
            sigma: 0.0,
        }));
        let mut drv = AvDriver::expert(spec, 7);
        for _ in 0..8 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            w.step(c);
        }
        assert!(
            drv.scratch_image.is_none(),
            "gps-only fault must not copy the camera image"
        );
        assert!(drv.scratch_lidar.is_none());
        assert_eq!(drv.injection_time(), Some(0.0));
    }

    #[test]
    fn expert_under_camera_fault_skips_image_copy() {
        // The expert never reads the camera, so a Gaussian plan must not
        // allocate or fill the scratch image — only advance the RNG and
        // mark the injection, exactly as the pixel path would.
        let mut w = world();
        let spec = FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.2)));
        let mut drv = AvDriver::expert(spec, 7);
        assert!(!drv.reads_camera());
        for _ in 0..8 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            w.step(c);
        }
        assert!(
            drv.scratch_image.is_none(),
            "expert must not copy the camera image"
        );
        assert_eq!(drv.injection_time(), Some(0.0));
        let neural = AvDriver::neural(IlNetwork::new(11), FaultSpec::None, 7);
        assert!(neural.reads_camera());
    }

    #[test]
    fn scalar_only_fault_leaves_image_untouched() {
        // With a no-op scalar plan the neural agent must see the world's
        // own (unmodified) camera buffer: its control matches the clean
        // driver bit for bit. Under the old mandatory-model API every
        // input fault corrupted the image.
        use crate::fault::input::GpsFault;
        let mut w = world();
        let obs = w.observe();
        let mk = || {
            let mut n = IlNetwork::new(11);
            IlNetwork::from_weights(&n.to_weights()).unwrap()
        };
        let mut clean = AvDriver::neural(mk(), FaultSpec::None, 5);
        let noop = FaultSpec::Input(InputFault::scalar_only().with_gps(GpsFault {
            bias_x: 0.0,
            bias_y: 0.0,
            sigma: 0.0,
        }));
        let mut scalar = AvDriver::neural(mk(), noop, 5);
        assert_eq!(clean.drive_frame(&obs, &w), scalar.drive_frame(&obs, &w));
        assert!(scalar.scratch_image.is_none());
    }

    #[test]
    fn ml_fault_applied_at_construction() {
        let mut base = IlNetwork::new(12);
        let weights = base.to_weights();
        let spec = FaultSpec::Ml(crate::fault::ml::MlFault::WeightNoise {
            sigma: 0.8,
            fraction: 1.0,
            selector: crate::localizer::ParamSelector::All,
        });
        let mut w = world();
        let obs = w.observe();
        let mut clean = AvDriver::neural(
            IlNetwork::from_weights(&weights).unwrap(),
            FaultSpec::None,
            6,
        );
        let mut faulty = AvDriver::neural(IlNetwork::from_weights(&weights).unwrap(), spec, 6);
        assert_eq!(faulty.injection_time(), Some(0.0));
        let a = clean.drive_frame(&obs, &w);
        let b = faulty.drive_frame(&obs, &w);
        assert_ne!(a, b);
    }
}
