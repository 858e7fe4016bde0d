//! Image augmentation for `NCHW` batches.

use medsplit_tensor::ops::check_nchw;
use medsplit_tensor::{Result, Tensor};
use rand::Rng;

/// Horizontally flips each image with probability `p`.
///
/// # Errors
///
/// Returns a rank error for non-`NCHW` input.
pub fn random_horizontal_flip(batch: &Tensor, p: f32, rng: &mut impl Rng) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(batch, "random_horizontal_flip")?;
    let mut out = batch.clone();
    let data = out.as_mut_slice();
    for i in 0..n {
        if rng.gen::<f32>() >= p {
            continue;
        }
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            for y in 0..h {
                let row = base + y * w;
                data[row..row + w].reverse();
            }
        }
    }
    Ok(out)
}

/// Pads each image by `pad` zeros on all sides and crops a random
/// `H×W` window back out (the standard CIFAR augmentation).
///
/// # Errors
///
/// Returns a rank error for non-`NCHW` input.
pub fn random_crop(batch: &Tensor, pad: usize, rng: &mut impl Rng) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(batch, "random_crop")?;
    if pad == 0 {
        return Ok(batch.clone());
    }
    let src = batch.as_slice();
    let mut out = Tensor::zeros(batch.shape().clone());
    let dst = out.as_mut_slice();
    for i in 0..n {
        // Offset of the crop window inside the padded image.
        let oy = rng.gen_range(0..=2 * pad) as isize - pad as isize;
        let ox = rng.gen_range(0..=2 * pad) as isize - pad as isize;
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            for y in 0..h {
                let sy = y as isize + oy;
                if sy < 0 || sy >= h as isize {
                    continue; // stays zero
                }
                for x in 0..w {
                    let sx = x as isize + ox;
                    if sx < 0 || sx >= w as isize {
                        continue;
                    }
                    dst[base + y * w + x] = src[base + sy as usize * w + sx as usize];
                }
            }
        }
    }
    Ok(out)
}

/// Adds i.i.d. uniform noise in `[-sigma, sigma]` to every pixel.
///
/// # Errors
///
/// Never fails for finite inputs; returns tensor errors otherwise.
pub fn add_noise(batch: &Tensor, sigma: f32, rng: &mut impl Rng) -> Result<Tensor> {
    let mut out = batch.clone();
    for v in out.as_mut_slice() {
        *v += sigma * (rng.gen::<f32>() * 2.0 - 1.0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_tensor::init::rng_from_seed;

    #[test]
    fn flip_probability_one_reverses_rows() {
        let mut rng = rng_from_seed(0);
        let batch = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let flipped = random_horizontal_flip(&batch, 1.0, &mut rng).unwrap();
        assert_eq!(flipped.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
        // Flip twice = identity.
        let twice = random_horizontal_flip(&flipped, 1.0, &mut rng).unwrap();
        assert_eq!(twice, batch);
    }

    #[test]
    fn flip_probability_zero_is_identity() {
        let mut rng = rng_from_seed(1);
        let batch = Tensor::arange(8).reshape([2, 1, 2, 2]).unwrap();
        assert_eq!(random_horizontal_flip(&batch, 0.0, &mut rng).unwrap(), batch);
    }

    #[test]
    fn crop_zero_pad_is_identity() {
        let mut rng = rng_from_seed(2);
        let batch = Tensor::arange(16).reshape([1, 1, 4, 4]).unwrap();
        assert_eq!(random_crop(&batch, 0, &mut rng).unwrap(), batch);
    }

    #[test]
    fn crop_preserves_shape_and_values_subset() {
        let mut rng = rng_from_seed(3);
        let batch = Tensor::ones([2, 3, 8, 8]);
        let cropped = random_crop(&batch, 2, &mut rng).unwrap();
        assert_eq!(cropped.shape(), batch.shape());
        // Values are either original (1.0) or zero padding.
        assert!(cropped.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        // Most of the image survives.
        assert!(cropped.sum() > 0.5 * batch.sum());
    }

    #[test]
    fn noise_is_bounded() {
        let mut rng = rng_from_seed(4);
        let batch = Tensor::zeros([1, 1, 4, 4]);
        let noisy = add_noise(&batch, 0.1, &mut rng).unwrap();
        assert!(noisy.as_slice().iter().all(|&v| v.abs() <= 0.1));
        assert!(noisy.norm() > 0.0);
    }

    #[test]
    fn rank_validation() {
        let mut rng = rng_from_seed(5);
        assert!(random_horizontal_flip(&Tensor::ones([2, 2]), 1.0, &mut rng).is_err());
        assert!(random_crop(&Tensor::ones([2, 2]), 1, &mut rng).is_err());
    }
}
