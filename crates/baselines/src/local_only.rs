//! Local-only training: each platform trains alone on its own shard.
//!
//! This is the status quo the paper's introduction criticises — "each
//! medical platform conducts computations with its own local data, leading
//! to overfitting" — made measurable. No bytes ever cross the network.

use medsplit_core::{Result, RoundRecord, TrainingHistory};
use medsplit_data::{BatchSampler, InMemoryDataset};
use medsplit_nn::{softmax_cross_entropy, Architecture, Layer, Mode, Optimizer, Sequential, Sgd};

use crate::common::{check_shards, evaluate_model, BaselineConfig};

/// Trains one independent model per platform and reports the mean test
/// accuracy across them. Returns `(history, per-platform accuracies)`.
///
/// One "round" is one local step on every platform, so the x-axis is
/// comparable with the federated methods.
///
/// # Errors
///
/// Returns configuration errors for empty shard lists and propagates
/// tensor errors.
pub fn train_local_only(
    arch: &Architecture,
    config: &BaselineConfig,
    shards: &[InMemoryDataset],
    test: &InMemoryDataset,
) -> Result<(TrainingHistory, Vec<f32>)> {
    check_shards(shards)?;
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    let batches = config.minibatch.sizes(&sizes);
    let mut models: Vec<Sequential> = (0..shards.len())
        .map(|i| arch.build(config.seed.wrapping_add(i as u64)))
        .collect();
    let mut samplers: Vec<BatchSampler> = shards
        .iter()
        .zip(&batches)
        .enumerate()
        .map(|(i, (shard, &b))| BatchSampler::new(shard.len(), b, config.seed ^ (i as u64 + 1)))
        .collect();
    let mut optims: Vec<Sgd> = (0..shards.len())
        .map(|_| Sgd::new(0.01).with_momentum(config.momentum))
        .collect();

    let mut records = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let round_start = std::time::Instant::now();
        let lr = config.lr.lr_at(round);
        let mut losses = Vec::with_capacity(shards.len());
        for ((model, sampler), (opt, shard)) in models
            .iter_mut()
            .zip(&mut samplers)
            .zip(optims.iter_mut().zip(shards))
        {
            opt.set_learning_rate(lr);
            let (features, labels) = sampler.next_from(shard);
            let logits = model.forward(&features, Mode::Train)?;
            let out = softmax_cross_entropy(&logits, &labels)?;
            model.backward_params(&out.grad)?;
            opt.step_and_zero(model);
            losses.push(out.loss);
        }
        let accuracy = if config.eval_due(round) {
            let mut total = 0.0;
            for model in &mut models {
                total += evaluate_model(model, test)?;
            }
            Some(total / models.len() as f32)
        } else {
            None
        };
        records.push(RoundRecord {
            round,
            lr,
            mean_loss: losses.iter().sum::<f32>() / losses.len() as f32,
            cumulative_bytes: 0,
            simulated_time_s: 0.0,
            wall_time_s: round_start.elapsed().as_secs_f64(),
            participants: losses.len(),
            degraded: false,
            accuracy,
        });
    }

    let mut per_platform = Vec::with_capacity(models.len());
    for model in &mut models {
        per_platform.push(evaluate_model(model, test)?);
    }
    let final_accuracy = per_platform.iter().sum::<f32>() / per_platform.len() as f32;
    if let Some(last) = records.last_mut() {
        last.accuracy = Some(final_accuracy);
    }
    let history = TrainingHistory {
        method: "local_only".into(),
        records,
        final_accuracy,
        stats: medsplit_simnet::NetStats::new().snapshot(),
    };
    Ok((history, per_platform))
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_data::{partition, Partition, SyntheticTabular};
    use medsplit_nn::{LrSchedule, MlpConfig};

    fn setup() -> (Architecture, Vec<InMemoryDataset>, InMemoryDataset) {
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

    #[test]
    fn local_training_learns_but_sends_nothing() {
        let (arch, shards, test) = setup();
        let config = BaselineConfig {
            rounds: 50,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            ..Default::default()
        };
        let (history, per_platform) = train_local_only(&arch, &config, &shards, &test).unwrap();
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
        let config = BaselineConfig {
            rounds: 60,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            ..Default::default()
        };

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
        let config = BaselineConfig::default();
        assert!(train_local_only(&arch, &config, &[], &test).is_err());
    }
}
