//! What the baselines share: one model learning from one shard.

use medsplit_core::{batch_sizes, evaluate_batched, Result, SplitConfig};
use medsplit_data::{BatchSampler, InMemoryDataset};
use medsplit_nn::{softmax_cross_entropy, Architecture, Layer, Mode, Optimizer, Sequential};

/// A model, the shard it learns from, its minibatch sampler and its
/// optimiser: a baseline platform, or the server of centralised training.
pub(crate) struct Learner {
    pub(crate) model: Sequential,
    data: InMemoryDataset,
    sampler: BatchSampler,
    optimizer: Box<dyn Optimizer>,
}

impl Learner {
    /// A learner drawing `batch`-sample minibatches with `sampler_seed`,
    /// under the optimiser the split platforms build from `config`.
    pub(crate) fn new(
        model: Sequential,
        data: InMemoryDataset,
        batch: usize,
        sampler_seed: u64,
        config: &SplitConfig,
    ) -> Self {
        Learner {
            model,
            sampler: BatchSampler::new(data.len(), batch, sampler_seed),
            data,
            optimizer: config.optimizer.build(config.momentum),
        }
    }

    /// The minibatch size.
    pub(crate) fn batch_size(&self) -> usize {
        self.sampler.batch_size()
    }

    /// Sets the optimiser's learning rate.
    pub(crate) fn set_lr(&mut self, lr: f32) {
        self.optimizer.set_learning_rate(lr);
    }

    /// Forward and backward on the next minibatch, leaving the gradients
    /// in the model. Returns the loss.
    pub(crate) fn gradient(&mut self) -> Result<f32> {
        let (features, labels) = self.sampler.next_from(&self.data);
        let logits = self.model.forward(&features, Mode::Train)?;
        let out = softmax_cross_entropy(&logits, &labels)?;
        self.model.backward_params(&out.grad)?;
        Ok(out.loss)
    }

    /// One optimiser step on the next minibatch. Returns the loss.
    pub(crate) fn step(&mut self) -> Result<f32> {
        let loss = self.gradient()?;
        self.optimizer.step_and_zero(&mut self.model);
        Ok(loss)
    }
}

/// One learner per shard, platform `i` starting from
/// `arch.build(model_seed(i))` and sampling with `config.seed ^ (i + 1)`.
///
/// # Errors
///
/// Returns configuration errors for an empty shard list or an empty
/// shard.
pub(crate) fn platform_learners(
    arch: &Architecture,
    config: &SplitConfig,
    shards: Vec<InMemoryDataset>,
    model_seed: impl Fn(usize) -> u64,
) -> Result<Vec<Learner>> {
    let batches = batch_sizes(config, &shards)?;
    Ok(shards
        .into_iter()
        .zip(batches)
        .enumerate()
        .map(|(i, (data, batch))| {
            let model = arch.build(model_seed(i));
            Learner::new(model, data, batch, config.seed ^ (i as u64 + 1), config)
        })
        .collect())
}

/// Test accuracy of a whole model in inference mode.
pub(crate) fn test_accuracy(model: &mut Sequential, test: &InMemoryDataset) -> Result<f32> {
    evaluate_batched(test, |features| Ok(model.forward(features, Mode::Eval)?))
}

/// The small problem the baselines' unit tests share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::{LrSchedule, MlpConfig};
    use medsplit_simnet::{Envelope, MemoryTransport, NodeId, StarTopology, Transport};

    use crate::{train_centralized, train_fedavg, train_local_only, train_sync_sgd};

    /// A 6-12-3 MLP, three IID shards of 40 rows and 30 test rows.
    pub(crate) fn setup() -> (Architecture, Vec<InMemoryDataset>, InMemoryDataset) {
        let arch = Architecture::Mlp(MlpConfig {
            input_dim: 6,
            hidden: vec![12],
            num_classes: 3,
        });
        let all = SyntheticTabular::new(3, 6, 0).generate(150).unwrap();
        let train = all.subset(&(0..120).collect::<Vec<_>>()).unwrap();
        let test = all.subset(&(120..150).collect::<Vec<_>>()).unwrap();
        let shards = partition(&train, 3, &Partition::Iid, 1).unwrap();
        (arch, shards, test)
    }

    /// `rounds` rounds at a constant `lr` on 16-row minibatches, evaluated
    /// only at the end.
    pub(crate) fn config(rounds: usize, lr: f32) -> SplitConfig {
        SplitConfig {
            rounds,
            eval_every: 0,
            lr: LrSchedule::Constant(lr),
            minibatch: MinibatchPolicy::Fixed(16),
            ..SplitConfig::default()
        }
    }

    /// A fresh three-platform star.
    pub(crate) fn star() -> MemoryTransport {
        MemoryTransport::new(StarTopology::new(3))
    }

    #[test]
    fn evaluate_model_on_fresh_network_is_chance_level() {
        let test = SyntheticTabular::new(4, 6, 0).generate(80).unwrap();
        let mut model = MlpConfig::small(6, 4).build(0);
        let acc = test_accuracy(&mut model, &test).unwrap();
        assert!((0.0..=0.7).contains(&acc), "untrained accuracy {acc}");
    }

    /// Runs every baseline on `config`, each over its own transport that
    /// first carries one message if `used` (which leaves out local-only
    /// training: it has no transport), and checks each fails naming `what`.
    fn assert_all_rejected(config: &SplitConfig, used: bool, what: &str) {
        let (arch, shards, test) = setup();
        let fresh = || {
            let t = star();
            if used {
                t.send(Envelope::control(NodeId::Platform(0), NodeId::Server, 0))
                    .unwrap();
            }
            t
        };
        let mut results = vec![
            train_sync_sgd(&arch, config, Default::default(), shards.clone(), &test, &fresh()),
            train_fedavg(&arch, config, Default::default(), shards.clone(), &test, &fresh()),
            train_centralized(&arch, config, &shards, &test, &fresh()),
        ];
        if !used {
            results.push(train_local_only(&arch, config, &shards, &test).map(|(h, _)| h));
        }
        for err in results.into_iter().map(|r| r.err().map(|e| e.to_string())) {
            assert!(err.as_deref().is_some_and(|e| e.contains(what)), "{err:?}");
        }
    }

    #[test]
    fn every_baseline_rejects_zero_rounds() {
        assert_all_rejected(&config(0, 0.1), false, "rounds");
    }

    #[test]
    fn every_baseline_rejects_momentum_one() {
        let config = SplitConfig {
            momentum: 1.0,
            ..config(2, 0.1)
        };
        assert_all_rejected(&config, false, "momentum");
    }

    #[test]
    fn every_baseline_rejects_a_used_transport() {
        assert_all_rejected(&config(2, 0.1), true, "already been used");
    }
}
