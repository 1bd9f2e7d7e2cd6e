//! Data faults: corruption of sensor payloads in flight.
//!
//! "AVFI injects data faults by manipulating sensor measurements (such as
//! camera images, LIDAR, and GPS) or world measurements (such as car speed
//! \[…\]) taken by the AV system. \[…\] AVFI intercepts the RGB camera
//! sensor data from the server, modifies the image according to a
//! sensor-specific fault model, and then forwards it to the IL-CNN."
//!
//! The five camera fault models are exactly the x-axis of the paper's
//! Figures 2 and 3: Gaussian, S&P (salt & pepper), SolidOcc, TranspOcc,
//! WaterDrop.

use crate::trigger::Trigger;
use avfi_sim::rng::normal;
use avfi_sim::sensors::Image;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt};
use serde::{Deserialize, Serialize};

/// Camera image fault models (Fig. 2/3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ImageFault {
    /// Additive white Gaussian noise per channel.
    Gaussian {
        /// Noise standard deviation (channels are in `[0, 1]`).
        sigma: f64,
    },
    /// Salt-and-pepper impulse noise.
    SaltPepper {
        /// Probability that a pixel is replaced by black or white.
        p: f64,
    },
    /// Opaque occlusion patch (a sticker on the lens); the position is
    /// sampled once per run and then stays put.
    SolidOcclusion {
        /// Patch side as a fraction of the image's smaller dimension.
        frac: f64,
    },
    /// Semi-transparent occlusion patch (dirt film).
    TransparentOcclusion {
        /// Patch side as a fraction of the image's smaller dimension.
        frac: f64,
        /// Blend opacity of the gray film, `0..1`.
        alpha: f64,
    },
    /// Water droplets on the lens: circular blobs that replace detail with
    /// the blob-center color (refraction-ish) and brighten slightly.
    WaterDrop {
        /// Number of droplets.
        drops: usize,
        /// Droplet radius as a fraction of image width.
        radius_frac: f64,
    },
}

impl ImageFault {
    /// Gaussian noise with the calibrated default σ.
    pub fn gaussian(sigma: f64) -> Self {
        ImageFault::Gaussian { sigma }
    }

    /// Salt & pepper with pixel-corruption probability `p`.
    pub fn salt_pepper(p: f64) -> Self {
        ImageFault::SaltPepper { p }
    }

    /// Solid occlusion covering `frac` of the smaller image dimension.
    pub fn solid_occlusion(frac: f64) -> Self {
        ImageFault::SolidOcclusion { frac }
    }

    /// Transparent occlusion.
    pub fn transparent_occlusion(frac: f64, alpha: f64) -> Self {
        ImageFault::TransparentOcclusion { frac, alpha }
    }

    /// Water droplets.
    pub fn water_drop(drops: usize, radius_frac: f64) -> Self {
        ImageFault::WaterDrop { drops, radius_frac }
    }

    /// The five models with the calibrated severities used by the Figure
    /// 2/3 reproduction.
    pub fn paper_suite() -> [ImageFault; 5] {
        [
            ImageFault::gaussian(0.08),
            ImageFault::salt_pepper(0.02),
            ImageFault::solid_occlusion(0.30),
            ImageFault::transparent_occlusion(0.6, 0.5),
            ImageFault::water_drop(4, 0.08),
        ]
    }

    /// Axis label (paper spelling).
    pub fn label(&self) -> &'static str {
        match self {
            ImageFault::Gaussian { .. } => "Gaussian",
            ImageFault::SaltPepper { .. } => "S&P",
            ImageFault::SolidOcclusion { .. } => "SolidOcc",
            ImageFault::TransparentOcclusion { .. } => "TranspOcc",
            ImageFault::WaterDrop { .. } => "WaterDrop",
        }
    }

    /// Applies the fault to an image. `layout` carries the per-run random
    /// geometry (occlusion position, droplet layout); per-frame noise draws
    /// from `rng` — exactly [`ImageFault::rng_words`] words of it.
    pub fn apply(&self, image: &mut Image, layout: &ImageFaultLayout, rng: &mut StdRng) {
        let (w, h) = (image.width(), image.height());
        match *self {
            ImageFault::Gaussian { sigma } => {
                for v in image.data_mut() {
                    *v += normal(rng, 0.0, sigma) as f32;
                }
                image.saturate();
            }
            ImageFault::SaltPepper { p } => {
                for y in 0..h {
                    for x in 0..w {
                        let r: f64 = rng.random_range(0.0..1.0);
                        if r < p {
                            let c = if r < p * 0.5 { 0.0 } else { 1.0 };
                            image.set_pixel(x, y, [c, c, c]);
                        }
                    }
                }
            }
            ImageFault::SolidOcclusion { .. } => {
                let (x0, y0, x1, y1) = layout.rect;
                image.fill_rect(x0, y0, x1, y1, [0.02, 0.02, 0.02]);
            }
            ImageFault::TransparentOcclusion { alpha, .. } => {
                let (x0, y0, x1, y1) = layout.rect;
                image.blend_rect(x0, y0, x1, y1, [0.45, 0.45, 0.45], alpha as f32);
            }
            ImageFault::WaterDrop { .. } => {
                for &(cx, cy, r) in &layout.drops {
                    let center = image.pixel((cx as usize).min(w - 1), (cy as usize).min(h - 1));
                    let bright = [
                        (center[0] + 0.15).min(1.0),
                        (center[1] + 0.15).min(1.0),
                        (center[2] + 0.18).min(1.0),
                    ];
                    let (x_lo, x_hi) = ((cx - r).max(0.0) as usize, ((cx + r) as usize).min(w - 1));
                    let (y_lo, y_hi) = ((cy - r).max(0.0) as usize, ((cy + r) as usize).min(h - 1));
                    for y in y_lo..=y_hi {
                        for x in x_lo..=x_hi {
                            let dx = x as f64 - cx;
                            let dy = y as f64 - cy;
                            if dx * dx + dy * dy <= r * r {
                                image.blend_pixel(x, y, bright, 0.85);
                            }
                        }
                    }
                }
            }
        }
    }

    /// How many `next_u64` words [`ImageFault::apply`] draws from its RNG
    /// on a `width × height` image. Every uniform the vendored `StdRng`
    /// (xoshiro256**) samples costs exactly one word, so the count never
    /// depends on pixel values: Gaussian noise is two uniforms (one
    /// Box–Muller normal) per channel, salt & pepper one uniform per
    /// pixel, and the occlusion and droplet models draw nothing per
    /// frame (their geometry is the [`ImageFaultLayout`], sampled once).
    pub fn rng_words(&self, width: usize, height: usize) -> u64 {
        let pixels = (width * height) as u64;
        match self {
            ImageFault::Gaussian { .. } => 2 * 3 * pixels,
            ImageFault::SaltPepper { .. } => pixels,
            ImageFault::SolidOcclusion { .. }
            | ImageFault::TransparentOcclusion { .. }
            | ImageFault::WaterDrop { .. } => 0,
        }
    }

    /// Leaves `rng` exactly where [`ImageFault::apply`] on a `width ×
    /// height` image would, without touching any pixels: for a consumer
    /// that never reads the corrupted image, this is the whole
    /// observable effect of applying the fault.
    pub fn skip(&self, width: usize, height: usize, rng: &mut StdRng) {
        for _ in 0..self.rng_words(width, height) {
            rng.next_u64();
        }
    }
}

/// Per-run random geometry for image faults, sampled once when the fault
/// first activates (occlusions and droplets stick to the lens).
#[derive(Debug, Clone, Default)]
pub struct ImageFaultLayout {
    rect: (i64, i64, i64, i64),
    drops: Vec<(f64, f64, f64)>,
}

impl ImageFaultLayout {
    /// Samples the layout for a fault model and image size.
    pub fn sample(fault: &ImageFault, width: usize, height: usize, rng: &mut StdRng) -> Self {
        let mut layout = ImageFaultLayout::default();
        match *fault {
            ImageFault::SolidOcclusion { frac } | ImageFault::TransparentOcclusion { frac, .. } => {
                let side = (frac * width.min(height) as f64).round() as i64;
                let max_x = (width as i64 - side).max(0);
                let max_y = (height as i64 - side).max(0);
                let x0 = if max_x > 0 {
                    rng.random_range(0..=max_x)
                } else {
                    0
                };
                let y0 = if max_y > 0 {
                    rng.random_range(0..=max_y)
                } else {
                    0
                };
                layout.rect = (x0, y0, x0 + side, y0 + side);
            }
            ImageFault::WaterDrop { drops, radius_frac } => {
                let r = radius_frac * width as f64;
                layout.drops = (0..drops)
                    .map(|_| {
                        (
                            rng.random_range(0.0..width as f64),
                            rng.random_range(0.0..height as f64),
                            r * rng.random_range(0.6..1.3),
                        )
                    })
                    .collect();
            }
            _ => {}
        }
        layout
    }
}

/// GPS fault: constant bias plus extra noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsFault {
    /// Easting bias, meters.
    pub bias_x: f64,
    /// Northing bias, meters.
    pub bias_y: f64,
    /// Extra per-axis noise σ, meters.
    pub sigma: f64,
}

/// Speedometer fault applied to the reported speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedFault {
    /// Multiply the reading.
    Scale(f64),
    /// Freeze the reading at a value.
    StuckAt(f64),
}

/// LIDAR fault models (the paper names LIDAR among the sensor
/// measurements AVFI manipulates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LidarFault {
    /// Each beam independently lost (reports max range) with probability
    /// `p` per frame.
    BeamDropout {
        /// Per-beam dropout probability.
        p: f64,
    },
    /// Additive Gaussian range noise.
    RangeNoise {
        /// Range noise σ, meters.
        sigma: f64,
    },
    /// Ghost returns: random beams report spurious close obstacles.
    Ghost {
        /// Number of ghosted beams per frame.
        count: usize,
        /// Reported ghost range, meters.
        range: f64,
    },
}

impl LidarFault {
    /// Applies the fault to a scan in place.
    pub fn apply(&self, ranges: &mut [f64], max_range: f64, rng: &mut StdRng) {
        match *self {
            LidarFault::BeamDropout { p } => {
                for r in ranges.iter_mut() {
                    if rng.random_range(0.0..1.0) < p {
                        *r = max_range;
                    }
                }
            }
            LidarFault::RangeNoise { sigma } => {
                for r in ranges.iter_mut() {
                    *r = (*r + normal(rng, 0.0, sigma)).clamp(0.0, max_range);
                }
            }
            LidarFault::Ghost { count, range } => {
                if ranges.is_empty() {
                    return;
                }
                for _ in 0..count {
                    let i = rng.random_range(0..ranges.len());
                    ranges[i] = range.clamp(0.0, max_range);
                }
            }
        }
    }
}

/// A complete data-fault plan: optional camera model, optional
/// GPS/speed/LIDAR faults, and the trigger window.
///
/// The camera model is optional so scalar-only plans (GPS bias, stuck
/// speedometer, LIDAR dropout) never touch — and therefore never copy —
/// the camera image on the injection hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputFault {
    /// Camera fault model, if the plan corrupts the image.
    pub model: Option<ImageFault>,
    /// Optional GPS corruption.
    pub gps: Option<GpsFault>,
    /// Optional speedometer corruption.
    pub speed: Option<SpeedFault>,
    /// Optional LIDAR corruption.
    pub lidar: Option<LidarFault>,
    /// When the fault is active.
    pub trigger: Trigger,
}

impl InputFault {
    /// A camera fault active for the entire run.
    pub fn always(model: ImageFault) -> Self {
        InputFault {
            model: Some(model),
            gps: None,
            speed: None,
            lidar: None,
            trigger: Trigger::Always,
        }
    }

    /// A camera fault active from a frame onward.
    pub fn from_frame(model: ImageFault, frame: u64) -> Self {
        InputFault {
            model: Some(model),
            gps: None,
            speed: None,
            lidar: None,
            trigger: Trigger::From { frame },
        }
    }

    /// An always-active plan with no camera model; compose scalar channels
    /// with [`InputFault::with_gps`], [`InputFault::with_speed`], and
    /// [`InputFault::with_lidar`].
    pub fn scalar_only() -> Self {
        InputFault {
            model: None,
            gps: None,
            speed: None,
            lidar: None,
            trigger: Trigger::Always,
        }
    }

    /// Label for tables and plots: the camera model's paper axis label,
    /// or the corrupted scalar channels joined with `+`.
    pub fn label(&self) -> String {
        match &self.model {
            Some(model) => model.label().to_string(),
            None => {
                let mut parts: Vec<&str> = Vec::new();
                if self.gps.is_some() {
                    parts.push("gps");
                }
                if self.speed.is_some() {
                    parts.push("speed");
                }
                if self.lidar.is_some() {
                    parts.push("lidar");
                }
                if parts.is_empty() {
                    "NoInject".to_string()
                } else {
                    parts.join("+")
                }
            }
        }
    }

    /// Adds a GPS fault to the plan.
    pub fn with_gps(mut self, gps: GpsFault) -> Self {
        self.gps = Some(gps);
        self
    }

    /// Adds a speedometer fault to the plan.
    pub fn with_speed(mut self, speed: SpeedFault) -> Self {
        self.speed = Some(speed);
        self
    }

    /// Adds a LIDAR fault to the plan.
    pub fn with_lidar(mut self, lidar: LidarFault) -> Self {
        self.lidar = Some(lidar);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::rng::stream_rng;

    fn test_image() -> Image {
        let mut img = Image::filled(64, 48, [0.5, 0.5, 0.5]);
        // A bright stripe so structure is measurable.
        img.fill_rect(30, 0, 34, 48, [1.0, 1.0, 1.0]);
        img
    }

    #[test]
    fn gaussian_perturbs_but_preserves_mean() {
        let mut img = test_image();
        let before = img.mean_luma();
        let fault = ImageFault::gaussian(0.1);
        let layout = ImageFaultLayout::default();
        fault.apply(&mut img, &layout, &mut stream_rng(1, 0));
        let after = img.mean_luma();
        assert!(
            (after - before).abs() < 0.03,
            "mean moved {before} -> {after}"
        );
        assert_ne!(img, test_image());
    }

    #[test]
    fn salt_pepper_rate() {
        let mut img = Image::filled(100, 100, [0.5, 0.5, 0.5]);
        let fault = ImageFault::salt_pepper(0.1);
        fault.apply(
            &mut img,
            &ImageFaultLayout::default(),
            &mut stream_rng(2, 0),
        );
        let corrupted = (0..100 * 100)
            .filter(|i| {
                let p = img.pixel(i % 100, i / 100);
                p[0] == 0.0 || p[0] == 1.0
            })
            .count();
        let rate = corrupted as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn solid_occlusion_blacks_out_patch() {
        let mut img = test_image();
        let fault = ImageFault::solid_occlusion(0.5);
        let mut rng = stream_rng(3, 0);
        let layout = ImageFaultLayout::sample(&fault, img.width(), img.height(), &mut rng);
        fault.apply(&mut img, &layout, &mut rng);
        let dark = img.data().chunks_exact(3).filter(|p| p[0] < 0.05).count();
        // Patch is 24x24 of 64x48 = 576 of 3072 pixels.
        assert!(dark >= 570, "dark pixels = {dark}");
    }

    #[test]
    fn transparent_occlusion_partial() {
        let mut img = Image::filled(64, 48, [1.0, 1.0, 1.0]);
        let fault = ImageFault::transparent_occlusion(0.5, 0.5);
        let mut rng = stream_rng(4, 0);
        let layout = ImageFaultLayout::sample(&fault, 64, 48, &mut rng);
        fault.apply(&mut img, &layout, &mut rng);
        // Blended pixels are between film gray and white.
        let blended = img
            .data()
            .chunks_exact(3)
            .filter(|p| p[0] > 0.6 && p[0] < 0.9)
            .count();
        assert!(blended > 400, "blended={blended}");
    }

    #[test]
    fn water_drops_change_local_regions_only() {
        let mut img = test_image();
        let fault = ImageFault::water_drop(4, 0.08);
        let mut rng = stream_rng(5, 0);
        let layout = ImageFaultLayout::sample(&fault, 64, 48, &mut rng);
        fault.apply(&mut img, &layout, &mut rng);
        let clean = test_image();
        let changed = img
            .data()
            .iter()
            .zip(clean.data())
            .filter(|(a, b)| (*a - *b).abs() > 1e-6)
            .count()
            / 3;
        let total = 64 * 48;
        assert!(changed > 30, "changed={changed}");
        assert!(changed < total / 2, "changed={changed} (should be local)");
    }

    #[test]
    fn layout_is_stable_across_frames() {
        let fault = ImageFault::solid_occlusion(0.3);
        let mut rng = stream_rng(6, 0);
        let layout = ImageFaultLayout::sample(&fault, 64, 48, &mut rng);
        let mut a = test_image();
        let mut b = test_image();
        fault.apply(&mut a, &layout, &mut rng);
        fault.apply(&mut b, &layout, &mut rng);
        assert_eq!(a, b, "occlusion must not move between frames");
    }

    #[test]
    fn apply_draws_exactly_rng_words() {
        // The count must not depend on the image size, the pixel values
        // or the severity; `skip` must land on the same RNG state.
        let models = ImageFault::paper_suite().into_iter().chain([
            ImageFault::gaussian(0.0),
            ImageFault::salt_pepper(0.0),
            ImageFault::salt_pepper(1.0),
        ]);
        for model in models {
            for (w, h) in [(1, 1), (7, 5), (64, 48)] {
                let mut pixels = stream_rng(10, (w * h) as u64);
                let mut img = Image::new(w, h);
                for v in img.data_mut() {
                    *v = pixels.random_range(0.0..1.0);
                }
                let mut rng = stream_rng(11, 0);
                let layout = ImageFaultLayout::sample(&model, w, h, &mut rng);
                let mut counted = rng.clone();
                let mut skipped = rng.clone();
                model.apply(&mut img, &layout, &mut rng);
                for _ in 0..model.rng_words(w, h) {
                    counted.next_u64();
                }
                model.skip(w, h, &mut skipped);
                assert_eq!(rng, counted, "{model:?} on {w}x{h}");
                assert_eq!(rng, skipped, "{model:?} on {w}x{h}");
            }
        }
    }

    #[test]
    fn lidar_dropout_rate() {
        let mut ranges = vec![10.0; 1000];
        LidarFault::BeamDropout { p: 0.3 }.apply(&mut ranges, 50.0, &mut stream_rng(7, 0));
        let dropped = ranges.iter().filter(|r| **r == 50.0).count();
        assert!(
            (dropped as f64 / 1000.0 - 0.3).abs() < 0.05,
            "dropped={dropped}"
        );
    }

    #[test]
    fn lidar_noise_stays_in_range() {
        let mut ranges = vec![1.0, 25.0, 49.0];
        LidarFault::RangeNoise { sigma: 10.0 }.apply(&mut ranges, 50.0, &mut stream_rng(8, 0));
        for r in &ranges {
            assert!((0.0..=50.0).contains(r));
        }
    }

    #[test]
    fn lidar_ghosts_insert_close_returns() {
        let mut ranges = vec![50.0; 36];
        LidarFault::Ghost {
            count: 5,
            range: 3.0,
        }
        .apply(&mut ranges, 50.0, &mut stream_rng(9, 0));
        let ghosts = ranges.iter().filter(|r| **r == 3.0).count();
        assert!((1..=5).contains(&ghosts), "ghosts={ghosts}");
    }

    #[test]
    fn builder_style_composition() {
        let f = InputFault::always(ImageFault::gaussian(0.1))
            .with_gps(GpsFault {
                bias_x: 5.0,
                bias_y: 0.0,
                sigma: 1.0,
            })
            .with_speed(SpeedFault::StuckAt(0.0))
            .with_lidar(LidarFault::BeamDropout { p: 0.1 });
        assert!(f.gps.is_some());
        assert!(f.speed.is_some());
        assert!(f.lidar.is_some());
    }

    #[test]
    fn scalar_only_labels_name_the_channels() {
        let f = InputFault::scalar_only()
            .with_gps(GpsFault {
                bias_x: 1.0,
                bias_y: 0.0,
                sigma: 0.5,
            })
            .with_speed(SpeedFault::StuckAt(0.0));
        assert!(f.model.is_none());
        assert_eq!(f.label(), "gps+speed");
        assert_eq!(InputFault::scalar_only().label(), "NoInject");
        assert_eq!(
            InputFault::always(ImageFault::gaussian(0.1)).label(),
            "Gaussian"
        );
    }

    #[test]
    fn paper_suite_has_five_unique_labels() {
        let suite = ImageFault::paper_suite();
        let labels: std::collections::HashSet<_> = suite.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
