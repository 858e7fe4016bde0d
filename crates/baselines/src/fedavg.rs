//! FedAvg (McMahan et al., AISTATS 2017) — the related-work baseline the
//! paper calls "the de facto standard for privacy-preserving deep
//! learning".
//!
//! Per round, every platform downloads the full global model, trains
//! `local_steps` minibatch steps on its shard, and uploads its weights;
//! the server averages the uploads weighted by shard size. Bandwidth is
//! therefore `2 × model size × platforms` per round — the cost the paper's
//! §II criticises.

use medsplit_core::messages::{decode_tensor, tensor_envelope};
use medsplit_core::{Result, RoundRecord, SplitError, TrainingHistory};
use medsplit_data::{BatchSampler, InMemoryDataset};
use medsplit_nn::vectorize::{load_snapshot_vector, snapshot_vector, state_count};
use medsplit_nn::{softmax_cross_entropy, Architecture, Layer, Mode, Optimizer, Sequential, Sgd};
use medsplit_simnet::{MessageKind, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::common::{check_shards, evaluate_model, BaselineConfig};

/// FedAvg-specific options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedAvgOptions {
    /// Local SGD steps per platform per round (`E` in the paper's terms,
    /// in steps rather than epochs).
    pub local_steps: usize,
}

impl Default for FedAvgOptions {
    fn default() -> Self {
        FedAvgOptions { local_steps: 5 }
    }
}

struct FedAvgPlatform {
    model: Sequential,
    data: InMemoryDataset,
    sampler: BatchSampler,
    optimizer: Sgd,
}

/// Runs FedAvg and returns the training history.
///
/// # Errors
///
/// Returns configuration errors for unusable shards and propagates tensor
/// and transport errors.
pub fn train_fedavg<T: Transport>(
    arch: &Architecture,
    config: &BaselineConfig,
    options: FedAvgOptions,
    shards: Vec<InMemoryDataset>,
    test: &InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    check_shards(&shards)?;
    if options.local_steps == 0 {
        return Err(SplitError::Config(
            "FedAvg requires at least one local step".into(),
        ));
    }
    let k = shards.len();
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    let batches = config.minibatch.sizes(&sizes);
    let total_size: f32 = sizes.iter().sum::<usize>() as f32;
    let weights: Vec<f32> = sizes.iter().map(|&n| n as f32 / total_size).collect();

    let mut global = arch.build(config.seed);
    let param_count = global.param_count();
    let snapshot_len = param_count + state_count(&mut global);
    let mut platforms: Vec<FedAvgPlatform> = shards
        .into_iter()
        .zip(&batches)
        .enumerate()
        .map(|(i, (data, &batch))| FedAvgPlatform {
            model: arch.build(config.seed), // overwritten by the first download
            sampler: BatchSampler::new(data.len(), batch, config.seed ^ (i as u64 + 1)),
            data,
            optimizer: Sgd::new(0.01).with_momentum(config.momentum),
        })
        .collect();

    let mut records = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let round_start = std::time::Instant::now();
        let lr = config.lr.lr_at(round);
        let global_params = snapshot_vector(&mut global);
        // Download phase.
        for i in 0..k {
            transport.send(tensor_envelope(
                NodeId::Server,
                NodeId::Platform(i),
                round as u64,
                MessageKind::ModelDown,
                &global_params,
            ))?;
        }
        // Local training phase.
        let mut losses = Vec::with_capacity(k);
        for (i, p) in platforms.iter_mut().enumerate() {
            let env = transport
                .try_recv(NodeId::Platform(i))
                .ok_or_else(|| SplitError::Protocol(format!("platform {i} missed its model download")))?;
            let params = decode_tensor(&env, MessageKind::ModelDown)?;
            load_snapshot_vector(&mut p.model, &params)?;
            p.optimizer.set_learning_rate(lr);
            let mut loss_sum = 0.0;
            for _ in 0..options.local_steps {
                let (features, labels) = p.sampler.next_from(&p.data);
                let logits = p.model.forward(&features, Mode::Train)?;
                let out = softmax_cross_entropy(&logits, &labels)?;
                p.model.backward_params(&out.grad)?;
                p.optimizer.step_and_zero(&mut p.model);
                loss_sum += out.loss;
            }
            losses.push(loss_sum / options.local_steps as f32);
            transport.stats().advance_clock(
                NodeId::Platform(i),
                config.compute.seconds(
                    config.compute.platform_s_per_msample,
                    p.sampler.batch_size() * options.local_steps,
                    param_count,
                ),
            );
            // Upload phase.
            let updated = snapshot_vector(&mut p.model);
            transport.send(tensor_envelope(
                NodeId::Platform(i),
                NodeId::Server,
                round as u64,
                MessageKind::ModelUp,
                &updated,
            ))?;
        }
        // Aggregation: weighted average of uploads.
        let mut averaged = Tensor::zeros([snapshot_len]);
        for _ in 0..k {
            let env = transport
                .try_recv(NodeId::Server)
                .ok_or_else(|| SplitError::Protocol("server missed a model upload".into()))?;
            let pid = env
                .src
                .platform_index()
                .ok_or_else(|| SplitError::Protocol("model upload from non-platform".into()))?;
            let params = decode_tensor(&env, MessageKind::ModelUp)?;
            averaged.axpy(weights[pid], &params)?;
        }
        load_snapshot_vector(&mut global, &averaged)?;

        let accuracy = if config.eval_due(round) {
            Some(evaluate_model(&mut global, test)?)
        } else {
            None
        };
        let snap = transport.stats().snapshot();
        records.push(RoundRecord {
            round,
            lr,
            mean_loss: losses.iter().sum::<f32>() / losses.len() as f32,
            cumulative_bytes: snap.total_bytes,
            simulated_time_s: snap.makespan_s,
            wall_time_s: round_start.elapsed().as_secs_f64(),
            participants: losses.len(),
            degraded: false,
            accuracy,
        });
    }
    let final_accuracy = evaluate_model(&mut global, test)?;
    if let Some(last) = records.last_mut() {
        last.accuracy = Some(final_accuracy);
    }
    Ok(TrainingHistory {
        method: "fedavg".into(),
        records,
        final_accuracy,
        stats: transport.stats().snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_data::{partition, Partition, SyntheticTabular};
    use medsplit_nn::{LrSchedule, MlpConfig};
    use medsplit_simnet::{MemoryTransport, StarTopology};

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
    fn fedavg_learns() {
        let (arch, shards, test) = setup();
        let transport = MemoryTransport::new(StarTopology::new(3));
        let config = BaselineConfig {
            rounds: 20,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            ..Default::default()
        };
        let history = train_fedavg(
            &arch,
            &config,
            FedAvgOptions::default(),
            shards,
            &test,
            &transport,
        )
        .unwrap();
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn bandwidth_is_two_models_per_platform_per_round() {
        let (arch, shards, test) = setup();
        let transport = MemoryTransport::new(StarTopology::new(3));
        let rounds = 4;
        let config = BaselineConfig {
            rounds,
            eval_every: 0,
            ..Default::default()
        };
        let history = train_fedavg(
            &arch,
            &config,
            FedAvgOptions { local_steps: 2 },
            shards,
            &test,
            &transport,
        )
        .unwrap();
        let params = arch.param_count();
        let expected = rounds as u64 * medsplit_core::comm::fedavg_round_bytes(3, params);
        assert_eq!(history.stats.total_bytes, expected);
        assert_eq!(history.stats.bytes_of(MessageKind::ModelDown), expected / 2);
        assert_eq!(history.stats.bytes_of(MessageKind::ModelUp), expected / 2);
        // No raw data, no activations.
        assert_eq!(history.stats.bytes_of(MessageKind::RawData), 0);
        assert_eq!(history.stats.bytes_of(MessageKind::Activations), 0);
    }

    #[test]
    fn zero_local_steps_rejected() {
        let (arch, shards, test) = setup();
        let transport = MemoryTransport::new(StarTopology::new(3));
        let config = BaselineConfig::default();
        assert!(train_fedavg(
            &arch,
            &config,
            FedAvgOptions { local_steps: 0 },
            shards,
            &test,
            &transport
        )
        .is_err());
    }

    #[test]
    fn weighted_aggregation_respects_shard_sizes() {
        // One platform with most data should dominate the average; verify
        // by checking FedAvg still learns under heavy imbalance.
        let arch = Architecture::Mlp(MlpConfig {
            input_dim: 6,
            hidden: vec![12],
            num_classes: 3,
        });
        let all = SyntheticTabular::new(3, 6, 2).generate(220).unwrap();
        let train = all.subset(&(0..200).collect::<Vec<_>>()).unwrap();
        let test = all.subset(&(200..220).collect::<Vec<_>>()).unwrap();
        let shards = partition(&train, 4, &Partition::PowerLaw { alpha: 2.0 }, 0).unwrap();
        let transport = MemoryTransport::new(StarTopology::new(4));
        let config = BaselineConfig {
            rounds: 20,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            ..Default::default()
        };
        let history = train_fedavg(
            &arch,
            &config,
            FedAvgOptions::default(),
            shards,
            &test,
            &transport,
        )
        .unwrap();
        assert!(
            history.final_accuracy > 0.5,
            "accuracy {}",
            history.final_accuracy
        );
    }
}
