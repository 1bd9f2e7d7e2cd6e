//! Camera preprocessing for the imitation network.

use avfi_nn::Tensor;
use avfi_sim::sensors::Image;

/// Width of the network input image, pixels.
pub const NET_WIDTH: usize = 32;
/// Height of the network input image, pixels.
pub const NET_HEIGHT: usize = 24;

/// Normalization divisor for the speed scalar appended at the head input.
pub const SPEED_SCALE: f64 = 10.0;

/// Converts a camera image into the network input tensor
/// `[1, NET_HEIGHT, NET_WIDTH]`: grayscale, nearest-neighbor downsample,
/// zero-centered (`luma − 0.5`).
pub fn image_to_tensor(image: &Image) -> Tensor {
    let mut tensor = Tensor::zeros(vec![1, NET_HEIGHT, NET_WIDTH]);
    image_to_tensor_into(image, &mut tensor);
    tensor
}

/// [`image_to_tensor`] into a caller-owned `[1, NET_HEIGHT, NET_WIDTH]`
/// tensor, without allocating. Each element is the Rec. 601 luma of the
/// nearest-neighbor source pixel (the sampling of [`Image::resized`],
/// the weights of [`Image::to_grayscale`]) minus 0.5, in that f32
/// operation order.
///
/// # Panics
///
/// Panics if `out` does not have the network input shape.
pub fn image_to_tensor_into(image: &Image, out: &mut Tensor) {
    assert_eq!(
        out.shape(),
        [1, NET_HEIGHT, NET_WIDTH],
        "input tensor shape"
    );
    let (w, h) = (image.width(), image.height());
    for (y, row) in out.data_mut().chunks_exact_mut(NET_WIDTH).enumerate() {
        let sy = y * h / NET_HEIGHT;
        for (x, v) in row.iter_mut().enumerate() {
            let p = image.pixel(x * w / NET_WIDTH, sy);
            let luma = 0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2];
            *v = luma - 0.5;
        }
    }
}

/// Normalizes a speed (m/s) for the head input.
pub fn normalize_speed(speed: f64) -> f32 {
    (speed / SPEED_SCALE) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_shape_and_centering() {
        let img = Image::filled(64, 48, [1.0, 1.0, 1.0]);
        let t = image_to_tensor(&img);
        assert_eq!(t.shape(), &[1, NET_HEIGHT, NET_WIDTH]);
        // White → luma 1.0 → centered 0.5.
        assert!(t.data().iter().all(|v| (*v - 0.5).abs() < 1e-4));
    }

    #[test]
    fn no_resize_needed_case() {
        let img = Image::filled(NET_WIDTH, NET_HEIGHT, [0.0, 0.0, 0.0]);
        let t = image_to_tensor(&img);
        assert!(t.data().iter().all(|v| (*v + 0.5).abs() < 1e-6));
    }

    #[test]
    fn in_place_conversion_matches_resize_then_grayscale() {
        // The allocating pipeline this conversion replaced, bit for bit,
        // on a non-uniform image at the camera size and at the net size.
        for (w, h) in [(64, 48), (NET_WIDTH, NET_HEIGHT), (50, 37)] {
            let mut img = Image::new(w, h);
            for (i, v) in img.data_mut().iter_mut().enumerate() {
                *v = ((i * 7919) % 1009) as f32 / 1009.0;
            }
            let small = img.resized(NET_WIDTH, NET_HEIGHT);
            let expected: Vec<f32> = small.to_grayscale().iter().map(|v| v - 0.5).collect();
            let mut out = Tensor::zeros(vec![1, NET_HEIGHT, NET_WIDTH]);
            image_to_tensor_into(&img, &mut out);
            let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out.data()), bits(&expected), "{w}x{h}");
            assert_eq!(image_to_tensor(&img), out);
        }
    }

    #[test]
    fn speed_normalization() {
        assert_eq!(normalize_speed(5.0), 0.5);
        assert_eq!(normalize_speed(0.0), 0.0);
    }
}
