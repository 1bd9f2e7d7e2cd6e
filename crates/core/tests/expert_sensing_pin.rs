//! Pins the expert's outputs under every camera fault model.
//!
//! The expert drives from ground truth and never reads the camera, so an
//! active image fault changes nothing it does — but the fault still draws
//! from the harness's shared RNG, marks the injection time and logs
//! injection events. These digests were computed with the camera rendered
//! and corrupted on every frame; they must hold for any implementation
//! that skips the pixel work, which is what makes such a skip exact.
//!
//! Covered: each paper camera model at onsets 0 and 150, and each again
//! in a camera + GPS + LIDAR plan on an intermittent trigger (the trigger
//! draws from the same RNG after the layout, image, GPS and LIDAR draws,
//! so any drift in the draw count moves its injection episodes). Every case runs
//! through `run_single` and through `run_single_traced` at `Blackbox` and
//! `Summary` levels, on two signalized scenarios with NPCs and
//! pedestrians (the second with event-driven traffic, horizon 4).

use avfi_core::campaign::{run_single, run_single_traced, AgentSpec, TraceSpec};
use avfi_core::fault::input::{GpsFault, ImageFault, InputFault, LidarFault};
use avfi_core::fault::FaultSpec;
use avfi_core::trigger::Trigger;
use avfi_sim::fnv::{fnv1a64, fnv1a64_extend};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::FRAME_DT;
use avfi_trace::TraceLevel;

fn scenarios() -> Vec<Scenario> {
    let town = TownSpec::grid(3, 3);
    assert!(town.signalized);
    let base = |seed: u64| {
        Scenario::builder(town.clone())
            .seed(seed)
            .npc_vehicles(6)
            .pedestrians(4)
            .time_budget(20.0)
            .min_route_length(100.0)
    };
    vec![base(2018).build(), base(2019).decision_horizon(4).build()]
}

/// The fault cases, labelled for the digest table.
fn cases() -> Vec<(String, FaultSpec)> {
    let mut out = Vec::new();
    for model in ImageFault::paper_suite() {
        for onset in [0u64, 150] {
            out.push((
                format!("{}@{onset}", model.label()),
                FaultSpec::Input(InputFault::from_frame(model, onset)),
            ));
        }
    }
    for model in ImageFault::paper_suite() {
        let fault = InputFault {
            trigger: Trigger::Bernoulli { p: 0.5 },
            ..InputFault::always(model)
                .with_gps(GpsFault {
                    bias_x: 0.5,
                    bias_y: -0.5,
                    sigma: 0.3,
                })
                .with_lidar(LidarFault::RangeNoise { sigma: 0.2 })
        };
        out.push((
            format!("{}+gps+lidar@bernoulli", model.label()),
            FaultSpec::Input(fault),
        ));
    }
    out
}

/// FNV-1a over the serialized result and, per trace level, the encoded
/// trace (or a marker when the run emitted none), for both scenarios.
fn digest(fault: &FaultSpec) -> u64 {
    let mut h = fnv1a64(b"expert-sensing-pin");
    for (si, scenario) in scenarios().iter().enumerate() {
        let result = run_single(scenario, si, 0, fault, &AgentSpec::Expert);
        // Every run outlives the later onset, so both onsets inject.
        assert!(
            result.duration > 150.0 * FRAME_DT,
            "run ended before frame 150"
        );
        h = fnv1a64_extend(h, serde_json::to_string(&result).unwrap().as_bytes());
        for level in [TraceLevel::Blackbox, TraceLevel::Summary] {
            let spec = TraceSpec {
                level,
                study: "pin".into(),
                blackbox_frames: 60,
                weights_fingerprint: None,
            };
            let mut recorder = spec.recorder();
            let (traced, trace) = run_single_traced(
                scenario,
                si,
                0,
                fault,
                &AgentSpec::Expert,
                &spec,
                &mut recorder,
            );
            h = fnv1a64_extend(h, serde_json::to_string(&traced).unwrap().as_bytes());
            h = match trace {
                Some(t) => fnv1a64_extend(h, &avfi_trace::encode(&t)),
                None => fnv1a64_extend(h, b"no-trace"),
            };
        }
    }
    h
}

/// Digests computed with the camera rendered and the fault applied to
/// its pixels on every frame.
const PINNED: &[(&str, u64)] = &[
    ("Gaussian@0", 0x9085d517164574a7),
    ("Gaussian@150", 0x93e2f45fcd4eae8d),
    ("S&P@0", 0x1130118d628e0b18),
    ("S&P@150", 0x0e1701a6700879f1),
    ("SolidOcc@0", 0x93f2c82703d81d12),
    ("SolidOcc@150", 0x049cd8d325f9e87a),
    ("TranspOcc@0", 0xc2580c19a6131f0e),
    ("TranspOcc@150", 0xfc7a1a5690d0b44a),
    ("WaterDrop@0", 0x72315d35c42458ed),
    ("WaterDrop@150", 0x3607dfaa110cf151),
    ("Gaussian+gps+lidar@bernoulli", 0xb23e8faeb2729ce3),
    ("S&P+gps+lidar@bernoulli", 0x86d373ea1ea584ab),
    ("SolidOcc+gps+lidar@bernoulli", 0x8772eb33bdc1e0a6),
    ("TranspOcc+gps+lidar@bernoulli", 0x19f64a774c5c7cd2),
    ("WaterDrop+gps+lidar@bernoulli", 0x3911a070fd1b60e5),
];

#[test]
fn expert_outputs_under_camera_faults_are_pinned() {
    let actual: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(name, fault)| {
            let d = digest(&fault);
            (name, d)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = PINNED.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(actual, expected, "digest table now reads:\n{table}");
}
