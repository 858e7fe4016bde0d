//! Synthetic dataset generators.
//!
//! CIFAR-10/100 binaries are not available offline, so the evaluation runs
//! on seeded synthetic substitutes: RGB images at the `lite` models' input
//! size (3×16×16) with a controllable class structure. Each class has a
//! smooth random prototype image, and each sample is its class prototype
//! plus low-frequency instance deformation and pixel noise. The task is
//! learnable but not trivial, harder with 100 classes than with 10 — which
//! is all the *shape* of the paper's Fig. 4 depends on.

use medsplit_tensor::{init::rng_from_seed, Result, Tensor};
use rand::Rng;

use crate::dataset::InMemoryDataset;

/// Image channels (RGB).
const CHANNELS: usize = 3;
/// Image height and width: the `lite` models' input.
const HW: usize = 16;
/// Amplitude of the uniform per-pixel noise added to each sample, chosen
/// so a lite model needs a few hundred minibatch updates to converge —
/// enough rounds for the accuracy-vs-bytes curves of Fig. 4 to separate.
const NOISE: f32 = 1.0;
/// Largest per-sample circular translation (pixels) of the class
/// prototype. Shift jitter forces models to learn translation-tolerant
/// features, giving realistic (slow) convergence.
const MAX_SHIFT: usize = 4;

/// Generator for CIFAR-like synthetic image classification data.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticImages {
    /// Number of classes (10 for the CIFAR-10 stand-in, 100 for
    /// CIFAR-100).
    pub num_classes: usize,
    /// RNG seed; the same seed always produces the same dataset.
    pub seed: u64,
}

impl SyntheticImages {
    /// 3×16×16 images matching the `lite` model input, used by the
    /// trained (as opposed to analytic) experiments.
    pub fn lite(num_classes: usize, seed: u64) -> Self {
        SyntheticImages { num_classes, seed }
    }

    /// Smooth random field: sum of a few random 2-D cosine waves, giving
    /// CIFAR-like low-frequency structure.
    fn prototype(rng: &mut impl Rng) -> Vec<f32> {
        let (c, hw) = (CHANNELS, HW);
        let mut img = vec![0.0f32; c * hw * hw];
        for ch in 0..c {
            for _ in 0..4 {
                let fx = rng.gen_range(0.5..3.0) * std::f32::consts::PI / hw as f32;
                let fy = rng.gen_range(0.5..3.0) * std::f32::consts::PI / hw as f32;
                let phase_x: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                let phase_y: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                let amp: f32 = rng.gen_range(0.3..0.8);
                for y in 0..hw {
                    for x in 0..hw {
                        img[ch * hw * hw + y * hw + x] +=
                            amp * (fx * x as f32 + phase_x).cos() * (fy * y as f32 + phase_y).cos();
                    }
                }
            }
        }
        img
    }

    /// Generates `n` samples with approximately equal class frequencies
    /// (labels cycle through the classes).
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction errors (none occur for valid
    /// configurations).
    pub fn generate(&self, n: usize) -> Result<InMemoryDataset> {
        let mut rng = rng_from_seed(self.seed);
        let protos: Vec<Vec<f32>> = (0..self.num_classes).map(|_| Self::prototype(&mut rng)).collect();
        let (c, hw) = (CHANNELS, HW);
        let sample_len = c * hw * hw;
        let mut data = Vec::with_capacity(n * sample_len);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.num_classes;
            labels.push(class);
            let proto = &protos[class];
            // Instance-level jitter: global intensity, circular spatial
            // shift, and pixel noise.
            let gain: f32 = 1.0 + 0.15 * (rng.gen::<f32>() - 0.5);
            let (dy, dx) = (rng.gen_range(0..=2 * MAX_SHIFT), rng.gen_range(0..=2 * MAX_SHIFT));
            for ch in 0..c {
                for y in 0..hw {
                    let sy = (y + dy) % hw;
                    for x in 0..hw {
                        let sx = (x + dx) % hw;
                        let p = proto[ch * hw * hw + sy * hw + sx];
                        let eps: f32 = rng.gen::<f32>() * 2.0 - 1.0;
                        data.push(gain * p + NOISE * eps);
                    }
                }
            }
        }
        let features = Tensor::from_vec(data, [n, c, hw, hw])?;
        InMemoryDataset::new(features, labels, self.num_classes)
    }

    /// Generates a disjoint train/test pair (`n_train` and `n_test`
    /// samples) sharing the same class prototypes.
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction errors.
    pub fn generate_split(
        &self,
        n_train: usize,
        n_test: usize,
    ) -> Result<(InMemoryDataset, InMemoryDataset)> {
        let all = self.generate(n_train + n_test)?;
        // The first `n_train` rows train and the next `n_test` test. Labels
        // cycle `i % num_classes`, so both splits see every class
        // (`split_shares_prototypes` checks it).
        let train_idx: Vec<usize> = (0..n_train).collect();
        let test_idx: Vec<usize> = (n_train..n_train + n_test).collect();
        Ok((all.subset(&train_idx)?, all.subset(&test_idx)?))
    }
}

/// Generator for linearly-separable-ish tabular data (two-moons style
/// Gaussian blobs), used by the MLP ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTabular {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Class-centre separation relative to noise.
    pub separation: f32,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticTabular {
    /// A default generator with moderate class overlap.
    pub fn new(num_classes: usize, dim: usize, seed: u64) -> Self {
        SyntheticTabular {
            num_classes,
            dim,
            separation: 2.0,
            seed,
        }
    }

    /// Generates `n` samples (labels cycle through classes).
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction errors.
    pub fn generate(&self, n: usize) -> Result<InMemoryDataset> {
        let mut rng = rng_from_seed(self.seed);
        let centres: Vec<Vec<f32>> = (0..self.num_classes)
            .map(|_| {
                (0..self.dim)
                    .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * self.separation)
                    .collect()
            })
            .collect();
        let mut data = Vec::with_capacity(n * self.dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.num_classes;
            labels.push(class);
            for &centre in &centres[class] {
                let eps: f32 = rng.gen::<f32>() * 2.0 - 1.0;
                data.push(centre + eps);
            }
        }
        let features = Tensor::from_vec(data, [n, self.dim])?;
        InMemoryDataset::new(features, labels, self.num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_lite_models() {
        let ds = SyntheticImages::lite(10, 0).generate(20).unwrap();
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.sample_dims(), &[3, 16, 16]);
        assert_eq!(ds.num_classes(), 10);
        assert_eq!(ds.features().numel() / ds.len(), 3 * 16 * 16);
    }

    #[test]
    fn labels_cycle_through_classes() {
        let ds = SyntheticImages::lite(4, 1).generate(8).unwrap();
        assert_eq!(ds.labels(), &[0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(ds.class_histogram(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticImages::lite(3, 7).generate(6).unwrap();
        let b = SyntheticImages::lite(3, 7).generate(6).unwrap();
        assert_eq!(a, b);
        let c = SyntheticImages::lite(3, 8).generate(6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn same_class_samples_are_similar_but_not_identical() {
        let ds = SyntheticImages::lite(2, 3).generate(8).unwrap();
        let (f, l) = ds.batch(&[0, 2, 1]).unwrap();
        assert_eq!(l, vec![0, 0, 1]);
        let a = f.slice0(0, 1).unwrap();
        let b = f.slice0(1, 1).unwrap();
        let c = f.slice0(2, 1).unwrap();
        let same = a.try_sub(&b).unwrap().norm();
        let diff = a.try_sub(&c).unwrap().norm();
        assert!(same > 0.0, "same-class duplicates");
        assert!(diff > same, "classes not separated: same {same} diff {diff}");
    }

    #[test]
    fn split_shares_prototypes() {
        let gen = SyntheticImages::lite(5, 4);
        let (train, test) = gen.generate_split(20, 10).unwrap();
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(train.num_classes(), 5);
        // Both sides contain every class.
        assert!(train.class_histogram().iter().all(|&c| c > 0));
        assert!(test.class_histogram().iter().all(|&c| c > 0));
    }

    #[test]
    fn tabular_generator_separates_classes() {
        let ds = SyntheticTabular::new(3, 8, 5).generate(30).unwrap();
        assert_eq!(ds.len(), 30);
        assert_eq!(ds.sample_dims(), &[8]);
        assert_eq!(ds.class_histogram(), vec![10, 10, 10]);
    }

    #[test]
    fn cifar100_like_has_100_classes() {
        let gen = SyntheticImages::lite(100, 0);
        assert_eq!(gen.num_classes, 100);
        let ds = gen.generate(200).unwrap();
        assert_eq!(ds.class_histogram(), vec![2; 100]);
    }
}
