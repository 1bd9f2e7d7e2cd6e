//! Camera demand off is invisible to everything but the image: two worlds
//! of the same scenario — event-driven traffic with NPCs, pedestrians
//! and signals — driven by the expert under a camera + GPS + LIDAR fault,
//! one rendering every frame and one never rendering, see the same
//! observation (image aside) and follow bit-identical trajectories for a
//! whole mission.

use avfi_core::fault::input::{GpsFault, ImageFault, InputFault, LidarFault};
use avfi_core::fault::FaultSpec;
use avfi_core::trigger::Trigger;
use avfi_core::AvDriver;
use avfi_sim::recorder::Recorder;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::sensors::Image;
use avfi_sim::world::{World, WorldObservation};

fn scenario() -> Scenario {
    Scenario::builder(TownSpec::grid(3, 3))
        .seed(41)
        .npc_vehicles(8)
        .pedestrians(6)
        .decision_horizon(4)
        .time_budget(30.0)
        .build()
}

fn fault() -> FaultSpec {
    FaultSpec::Input(InputFault {
        trigger: Trigger::Bernoulli { p: 0.5 },
        ..InputFault::always(ImageFault::gaussian(0.08))
            .with_gps(GpsFault {
                bias_x: 0.5,
                bias_y: 0.0,
                sigma: 0.3,
            })
            .with_lidar(LidarFault::BeamDropout { p: 0.1 })
    })
}

/// Everything in the observation except the camera image, printed with
/// `{:?}` (shortest round-trip floats, so equal text is equal bits).
fn without_image(obs: &WorldObservation) -> String {
    let mut o = obs.clone();
    o.sensors.image = Image::new(1, 1);
    format!("{o:?}")
}

#[test]
fn camera_demand_changes_only_the_image() {
    let s = scenario();
    let mut on = World::from_scenario(&s);
    let mut off = World::from_scenario(&s);
    off.set_camera_demand(false);
    on.install_recorder(Recorder::new(true));
    off.install_recorder(Recorder::new(true));
    let mut drv_on = AvDriver::expert(fault(), s.seed);
    let mut drv_off = AvDriver::expert(fault(), s.seed);

    let mut obs_on = on.observe();
    let mut obs_off = off.observe();
    let blank = obs_off.sensors.image.clone();
    let mut frames = 0;
    loop {
        assert_eq!(
            without_image(&obs_on),
            without_image(&obs_off),
            "frame {frames}"
        );
        assert_eq!(obs_off.sensors.image, blank, "an unread image was rendered");
        let c_on = drv_on.drive_frame(&obs_on, &on);
        let c_off = drv_off.drive_frame(&obs_off, &off);
        assert_eq!(format!("{c_on:?}"), format!("{c_off:?}"), "frame {frames}");
        let done_on = on.step(c_on).is_terminal();
        let done_off = off.step(c_off).is_terminal();
        assert_eq!(done_on, done_off);
        assert_eq!(format!("{:?}", on.ego()), format!("{:?}", off.ego()));
        frames += 1;
        if done_on {
            break;
        }
        on.observe_into(&mut obs_on);
        off.observe_into(&mut obs_off);
    }
    assert!(frames > 150, "mission ended after {frames} frames");
    assert_ne!(obs_on.sensors.image, blank, "rendering is on by default");
    assert_eq!(
        format!("{:?}", on.take_recorder()),
        format!("{:?}", off.take_recorder())
    );
    assert_eq!(
        format!("{:?}", on.monitor().events()),
        format!("{:?}", off.monitor().events())
    );
    assert_eq!(drv_on.injection_time(), drv_off.injection_time());
}
