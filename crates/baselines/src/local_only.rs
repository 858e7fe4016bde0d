//! Local-only training: each platform trains alone on its own shard.
//!
//! This is the status quo the paper's introduction criticises — "each
//! medical platform conducts computations with its own local data, leading
//! to overfitting" — made measurable. No bytes ever cross the network.

use medsplit_core::{check_fresh, Result, RoundDriver, SplitConfig, TrainingHistory};
use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::NetStats;

use crate::common::{platform_learners, test_accuracy, Learner};

/// Local-only training as a [`RoundDriver`].
struct LocalOnly<'a> {
    test: &'a InMemoryDataset,
    platforms: Vec<Learner>,
    /// Accounting of a network nothing crosses.
    stats: NetStats,
    /// Every platform's accuracy at the latest evaluation.
    per_platform: Vec<f32>,
}

/// Trains one independent model per platform and reports the mean test
/// accuracy across them. Returns `(history, per-platform accuracies)`.
///
/// One "round" is one local step on every platform, so the x-axis is
/// comparable with the federated methods. Reads `rounds`, `eval_every`,
/// `lr`, `momentum`, `seed` and `minibatch` from `config`,
/// which must validate; with no network there is no clock to charge, so
/// `compute` is not read, nor are the split-specific fields.
///
/// # Errors
///
/// Returns configuration errors for an invalid config or unusable shards
/// and propagates tensor errors.
pub fn train_local_only(
    arch: &Architecture,
    config: &SplitConfig,
    shards: &[InMemoryDataset],
    test: &InMemoryDataset,
) -> Result<(TrainingHistory, Vec<f32>)> {
    let stats = NetStats::new();
    check_fresh(config, &stats)?;
    let platforms = platform_learners(arch, config, shards.to_vec(), |i| {
        config.seed.wrapping_add(i as u64)
    })?;
    let mut driver = LocalOnly {
        test,
        platforms,
        stats,
        per_platform: Vec::new(),
    };
    let history = driver.run(config)?;
    Ok((history, driver.per_platform))
}

impl RoundDriver for LocalOnly<'_> {
    fn method(&self) -> &'static str {
        "local_only"
    }

    fn full_round(&self) -> usize {
        self.platforms.len()
    }

    fn set_lr(&mut self, lr: f32) {
        for p in &mut self.platforms {
            p.set_lr(lr);
        }
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn round(&mut self, _round: u64) -> Result<(f32, usize)> {
        let losses = self
            .platforms
            .iter_mut()
            .map(Learner::step)
            .collect::<Result<Vec<f32>>>()?;
        Ok((losses.iter().sum::<f32>() / losses.len() as f32, losses.len()))
    }

    fn evaluate(&mut self) -> Result<f32> {
        self.per_platform = self
            .platforms
            .iter_mut()
            .map(|p| test_accuracy(&mut p.model, self.test))
            .collect::<Result<_>>()?;
        Ok(self.per_platform.iter().sum::<f32>() / self.per_platform.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::{config, setup};
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::MlpConfig;

    #[test]
    fn local_training_learns_but_sends_nothing() {
        let (arch, shards, test) = setup();
        let (history, per_platform) = train_local_only(&arch, &config(50, 0.1), &shards, &test).unwrap();
        assert!(
            history.final_accuracy > 0.5,
            "accuracy {}",
            history.final_accuracy
        );
        assert_eq!(history.stats.total_bytes, 0);
        assert_eq!(per_platform.len(), 3);
        assert_eq!(history.records.len(), 50);
        assert!(history.records.iter().all(|r| r.cumulative_bytes == 0));
    }

    #[test]
    fn non_iid_local_models_are_worse_than_iid() {
        // The motivation experiment: under label skew, isolated models
        // generalise worse.
        let arch = Architecture::Mlp(MlpConfig {
            input_dim: 6,
            hidden: vec![12],
            num_classes: 3,
        });
        let all = SyntheticTabular::new(3, 6, 3).generate(240).unwrap();
        let train = all.subset(&(0..200).collect::<Vec<_>>()).unwrap();
        let test = all.subset(&(200..240).collect::<Vec<_>>()).unwrap();
        let config = config(60, 0.1);

        let iid = partition(&train, 4, &Partition::Iid, 0).unwrap();
        let (h_iid, _) = train_local_only(&arch, &config, &iid, &test).unwrap();
        let skewed = partition(&train, 4, &Partition::Dirichlet { alpha: 0.05 }, 0).unwrap();
        let (h_skew, _) = train_local_only(&arch, &config, &skewed, &test).unwrap();
        assert!(
            h_iid.final_accuracy > h_skew.final_accuracy,
            "iid {} should beat skewed {}",
            h_iid.final_accuracy,
            h_skew.final_accuracy
        );
    }

    #[test]
    fn empty_shards_rejected() {
        let (arch, _, test) = setup();
        let config = SplitConfig {
            minibatch: MinibatchPolicy::Fixed(16),
            ..Default::default()
        };
        assert!(train_local_only(&arch, &config, &[], &test).is_err());
    }
}
