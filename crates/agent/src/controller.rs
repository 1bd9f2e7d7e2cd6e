//! The driver abstraction shared by the expert, the neural agent, and the
//! fault-injecting wrappers in `avfi-core`.

use crate::features::{image_to_tensor_into, normalize_speed, NET_HEIGHT, NET_WIDTH};
use crate::ilnet::IlNetwork;
use avfi_nn::Tensor;
use avfi_sim::physics::VehicleControl;
use avfi_sim::sensors::{GpsFix, Image, LidarScan};
use avfi_sim::world::{World, WorldObservation};

/// Everything a driver may look at for one frame.
///
/// The sensor channels a fault injector may corrupt are broken out as
/// standalone fields (`image`, `lidar`, `gps`, `speed`) so the injector can
/// override a single channel without cloning the whole observation; drivers
/// must read those fields, never the corresponding members of `obs`. The
/// *neural* driver must only read the sensor fields plus `obs.command`. The
/// *expert* additionally reads ground truth through `world` (it stands in
/// for a perfect-perception oracle). Keeping both in one struct lets the
/// campaign runner treat all drivers uniformly.
#[derive(Debug)]
pub struct DriverInput<'a> {
    /// The observation from the server. Sensor channels duplicated in the
    /// fields below may be stale here — read the fields instead.
    pub obs: &'a WorldObservation,
    /// Ground-truth world access (oracle drivers only).
    pub world: &'a World,
    /// Effective (possibly fault-injected) camera image.
    pub image: &'a Image,
    /// Effective LIDAR sweep.
    pub lidar: &'a LidarScan,
    /// Effective GPS fix.
    pub gps: GpsFix,
    /// Effective speedometer reading, m/s.
    pub speed: f64,
}

impl<'a> DriverInput<'a> {
    /// An uncorrupted frame: every effective sensor field mirrors `obs`.
    pub fn clean(obs: &'a WorldObservation, world: &'a World) -> Self {
        DriverInput {
            obs,
            world,
            image: &obs.sensors.image,
            lidar: &obs.sensors.lidar,
            gps: obs.sensors.gps,
            speed: obs.sensors.speed,
        }
    }
}

/// A closed-loop driving policy.
pub trait Driver {
    /// Computes the actuation command for one frame.
    fn drive(&mut self, input: &DriverInput<'_>) -> VehicleControl;

    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Whether [`Driver::drive`] ever reads [`DriverInput::image`]. A
    /// driver that answers `false` is promising that the camera image
    /// cannot change its output, so the world may skip rendering it and
    /// a fault injector may skip corrupting it.
    fn reads_camera(&self) -> bool;
}

/// The neural (conditional imitation) driver: camera + speed + command in,
/// control out. Reads only the observation.
#[derive(Debug)]
pub struct NeuralDriver {
    net: IlNetwork,
    /// Reused network input, refilled from the camera every frame.
    input: Tensor,
}

impl NeuralDriver {
    /// Wraps a (trained) network.
    pub fn new(net: IlNetwork) -> Self {
        NeuralDriver {
            net,
            input: Tensor::zeros(vec![1, NET_HEIGHT, NET_WIDTH]),
        }
    }

    /// The underlying network (for ML fault injection).
    pub fn network_mut(&mut self) -> &mut IlNetwork {
        &mut self.net
    }

    /// The underlying network.
    pub fn network(&self) -> &IlNetwork {
        &self.net
    }
}

impl Driver for NeuralDriver {
    fn drive(&mut self, input: &DriverInput<'_>) -> VehicleControl {
        image_to_tensor_into(input.image, &mut self.input);
        let speed = normalize_speed(input.speed);
        self.net.predict(&self.input, speed, input.obs.command)
    }

    fn name(&self) -> &'static str {
        "il-cnn"
    }

    fn reads_camera(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::scenario::{Scenario, TownSpec};

    #[test]
    fn neural_driver_produces_sane_controls_untrained() {
        let scenario = Scenario::builder(TownSpec::grid(2, 2))
            .seed(3)
            .npc_vehicles(0)
            .pedestrians(0)
            .build();
        let mut world = World::from_scenario(&scenario);
        let obs = world.observe();
        let mut driver = NeuralDriver::new(IlNetwork::new(7));
        let c = driver.drive(&DriverInput::clean(&obs, &world));
        assert!(c.steer.abs() <= 1.0);
        assert!((0.0..=1.0).contains(&c.throttle));
        assert!((0.0..=1.0).contains(&c.brake));
        assert_eq!(driver.name(), "il-cnn");
    }
}
