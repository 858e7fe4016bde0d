//! Shared configuration and helpers for the baseline trainers.

use medsplit_core::{ComputeModel, SplitError};
use medsplit_data::{InMemoryDataset, MinibatchPolicy};
use medsplit_nn::{Layer, LrSchedule, Mode, Sequential};

/// Configuration shared by all baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Learning rate schedule.
    pub lr: LrSchedule,
    /// SGD momentum for local optimisers (0 disables).
    pub momentum: f32,
    /// Number of rounds (FedAvg rounds / sync-SGD steps / local epochs).
    pub rounds: usize,
    /// Evaluate every `eval_every` rounds (0 = only at the end).
    pub eval_every: usize,
    /// Seed for model initialisation and samplers.
    pub seed: u64,
    /// Per-platform minibatch policy.
    pub minibatch: MinibatchPolicy,
    /// Compute-time model for the simulated clock.
    pub compute: ComputeModel,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            lr: LrSchedule::Constant(0.05),
            momentum: 0.9,
            rounds: 100,
            eval_every: 10,
            seed: 42,
            minibatch: MinibatchPolicy::Fixed(16),
            compute: ComputeModel::off(),
        }
    }
}

impl BaselineConfig {
    /// Whether round `round` (0-based) is an evaluation round.
    pub fn eval_due(&self, round: usize) -> bool {
        self.eval_every > 0 && (round + 1).is_multiple_of(self.eval_every)
    }
}

/// Evaluates a full model on a test set in inference mode.
///
/// # Errors
///
/// Propagates tensor errors.
pub fn evaluate_model(model: &mut Sequential, test: &InMemoryDataset) -> Result<f32, SplitError> {
    medsplit_core::evaluate_batched(test, |features| Ok(model.forward(features, Mode::Eval)?))
}

/// Validates that the shard list is usable.
pub(crate) fn check_shards(shards: &[InMemoryDataset]) -> Result<(), SplitError> {
    if shards.is_empty() {
        return Err(SplitError::Config(
            "at least one platform shard is required".into(),
        ));
    }
    if shards.iter().any(InMemoryDataset::is_empty) {
        return Err(SplitError::Config("platform shards must be non-empty".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_data::SyntheticTabular;
    use medsplit_nn::MlpConfig;

    #[test]
    fn eval_due_schedule() {
        let mut c = BaselineConfig {
            eval_every: 3,
            ..Default::default()
        };
        assert!(!c.eval_due(0));
        assert!(c.eval_due(2));
        assert!(c.eval_due(5));
        c.eval_every = 0;
        assert!(!c.eval_due(2));
    }

    #[test]
    fn evaluate_model_on_fresh_network_is_chance_level() {
        let test = SyntheticTabular::new(4, 6, 0).generate(80).unwrap();
        let mut model = MlpConfig::small(6, 4).build(0);
        let acc = evaluate_model(&mut model, &test).unwrap();
        assert!((0.0..=0.7).contains(&acc), "untrained accuracy {acc}");
    }

    #[test]
    fn check_shards_validation() {
        assert!(check_shards(&[]).is_err());
        let ds = SyntheticTabular::new(2, 3, 0).generate(4).unwrap();
        assert!(check_shards(&[ds]).is_ok());
    }
}
