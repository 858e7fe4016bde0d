//! Random tensor constructors and neural-network weight initialisers.
//!
//! Every constructor takes an explicit `&mut impl Rng` so that every
//! experiment in the workspace is reproducible from a single seed — the
//! split-learning protocol requires all platforms to start from *identical*
//! `L1` weights, which we get by seeding each platform's initialiser with
//! the same value.

use rand::Rng;
use rand::SeedableRng;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// The deterministic RNG used throughout the workspace.
pub type StdRng = rand::rngs::StdRng;

/// Creates the workspace-standard RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples one standard normal value via Box–Muller.
fn sample_normal(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    }
}

impl Tensor {
    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen::<f32>() * (hi - lo) + lo).collect();
        Tensor::from_vec(data, shape).expect("generated data matches shape")
    }

    /// Normal samples with the given mean and standard deviation.
    pub fn rand_normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| sample_normal(rng) * std + mean).collect();
        Tensor::from_vec(data, shape).expect("generated data matches shape")
    }
}

/// Fan-in/fan-out of a parameter tensor.
///
/// For matrices `[out, in]` this is `(in, out)`; for `OIHW` convolution
/// filters the kernel area multiplies both fans, matching the PyTorch
/// convention.
fn fan_in_out(shape: &Shape) -> (usize, usize) {
    let d = shape.dims();
    match d.len() {
        0 => (1, 1),
        1 => (d[0], d[0]),
        2 => (d[1], d[0]),
        _ => {
            let receptive: usize = d[2..].iter().product();
            (d[1] * receptive, d[0] * receptive)
        }
    }
}

/// Kaiming/He normal initialisation for ReLU networks:
/// `N(0, sqrt(2 / fan_in))`.
pub fn kaiming_normal(shape: impl Into<Shape>, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let (fan_in, _) = fan_in_out(&shape);
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::rand_normal(shape, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut r1 = rng_from_seed(7);
        let mut r2 = rng_from_seed(7);
        let a = Tensor::rand_uniform([4, 4], -1.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform([4, 4], -1.0, 1.0, &mut r2);
        assert_eq!(a, b);
        let c = Tensor::rand_uniform([4, 4], -1.0, 1.0, &mut r1);
        assert_ne!(a, c, "consecutive draws must differ");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = rng_from_seed(1);
        let t = Tensor::rand_uniform([1000], 2.0, 3.0, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (2.0..3.0).contains(&v)));
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng_from_seed(2);
        let t = Tensor::rand_normal([20000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn fan_computation() {
        assert_eq!(fan_in_out(&Shape::from([10, 5])), (5, 10));
        assert_eq!(fan_in_out(&Shape::from([8, 3, 3, 3])), (27, 72));
        assert_eq!(fan_in_out(&Shape::from([4])), (4, 4));
        assert_eq!(fan_in_out(&Shape::scalar()), (1, 1));
    }

    #[test]
    fn kaiming_std() {
        let mut rng = rng_from_seed(4);
        let t = kaiming_normal([100, 200], &mut rng);
        let std = (t.norm_sq() / t.numel() as f32).sqrt();
        let expected = (2.0f32 / 200.0).sqrt();
        assert!((std - expected).abs() < expected * 0.2, "std {std} vs {expected}");
    }
}
