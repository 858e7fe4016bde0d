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
use medsplit_core::{
    check_fresh, ComputeModel, Result, RoundDriver, SplitConfig, SplitError, TrainingHistory,
};
use medsplit_data::InMemoryDataset;
use medsplit_nn::vectorize::{load_snapshot_vector, snapshot_vector};
use medsplit_nn::{Architecture, Layer, Sequential};
use medsplit_simnet::{MessageKind, NetStats, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::common::{platform_learners, test_accuracy, Learner};

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

/// FedAvg as a [`RoundDriver`].
struct FedAvg<'a, T: Transport> {
    compute: ComputeModel,
    transport: &'a T,
    test: &'a InMemoryDataset,
    /// The server's averaged model.
    global: Sequential,
    platforms: Vec<Learner>,
    /// Each platform's share of the pooled data.
    weights: Vec<f32>,
    local_steps: usize,
    param_count: usize,
}

/// Runs FedAvg and returns the training history.
///
/// Reads `rounds`, `eval_every`, `lr`, `momentum`, `optimizer`, `seed`,
/// `minibatch` and `compute` from `config`, which must validate; the
/// split-specific fields are not read.
///
/// # Errors
///
/// Returns configuration errors for an invalid config, a used transport,
/// unusable shards or zero local steps, and propagates tensor and
/// transport errors.
pub fn train_fedavg<T: Transport>(
    arch: &Architecture,
    config: &SplitConfig,
    options: FedAvgOptions,
    shards: Vec<InMemoryDataset>,
    test: &InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    check_fresh(config, transport.stats())?;
    if options.local_steps == 0 {
        return Err(SplitError::Config(
            "FedAvg requires at least one local step".into(),
        ));
    }
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    let total_size: f32 = sizes.iter().sum::<usize>() as f32;
    // Each platform's model is overwritten by its first download.
    let platforms = platform_learners(arch, config, shards, |_| config.seed)?;
    let mut global = arch.build(config.seed);
    FedAvg {
        compute: config.compute,
        transport,
        test,
        param_count: global.param_count(),
        global,
        platforms,
        weights: sizes.iter().map(|&n| n as f32 / total_size).collect(),
        local_steps: options.local_steps,
    }
    .run(config)
}

impl<T: Transport> RoundDriver for FedAvg<'_, T> {
    fn method(&self) -> &'static str {
        "fedavg"
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
        self.transport.stats()
    }

    fn round(&mut self, round: u64) -> Result<(f32, usize)> {
        let (transport, compute) = (self.transport, self.compute);
        let k = self.platforms.len();
        let global_params = snapshot_vector(&mut self.global);
        // Download phase.
        for i in 0..k {
            transport.send(tensor_envelope(
                NodeId::Server,
                NodeId::Platform(i),
                round,
                MessageKind::ModelDown,
                &global_params,
            ))?;
        }
        // Local training phase.
        let mut losses = Vec::with_capacity(k);
        for (i, p) in self.platforms.iter_mut().enumerate() {
            let env = transport
                .try_recv(NodeId::Platform(i))
                .ok_or_else(|| SplitError::Protocol(format!("platform {i} missed its model download")))?;
            load_snapshot_vector(&mut p.model, &decode_tensor(&env, MessageKind::ModelDown)?)?;
            let mut loss_sum = 0.0;
            for _ in 0..self.local_steps {
                loss_sum += p.step()?;
            }
            losses.push(loss_sum / self.local_steps as f32);
            transport.stats().advance_clock(
                NodeId::Platform(i),
                compute.seconds(
                    compute.platform_s_per_msample,
                    p.batch_size() * self.local_steps,
                    self.param_count,
                ),
            );
            // Upload phase.
            transport.send(tensor_envelope(
                NodeId::Platform(i),
                NodeId::Server,
                round,
                MessageKind::ModelUp,
                &snapshot_vector(&mut p.model),
            ))?;
        }
        // Aggregation: weighted average of uploads.
        let mut averaged = Tensor::zeros([global_params.numel()]);
        for _ in 0..k {
            let env = transport
                .try_recv(NodeId::Server)
                .ok_or_else(|| SplitError::Protocol("server missed a model upload".into()))?;
            let pid = env
                .src
                .platform_index()
                .ok_or_else(|| SplitError::Protocol("model upload from non-platform".into()))?;
            averaged.axpy(self.weights[pid], &decode_tensor(&env, MessageKind::ModelUp)?)?;
        }
        load_snapshot_vector(&mut self.global, &averaged)?;
        Ok((losses.iter().sum::<f32>() / losses.len() as f32, losses.len()))
    }

    fn evaluate(&mut self) -> Result<f32> {
        test_accuracy(&mut self.global, self.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::{config, setup, star};
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::MlpConfig;
    use medsplit_simnet::{MemoryTransport, StarTopology};

    #[test]
    fn fedavg_learns() {
        let (arch, shards, test) = setup();
        let history = train_fedavg(
            &arch,
            &config(20, 0.1),
            FedAvgOptions::default(),
            shards,
            &test,
            &star(),
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
        let rounds = 4;
        let options = FedAvgOptions { local_steps: 2 };
        let history = train_fedavg(&arch, &config(rounds, 0.05), options, shards, &test, &star()).unwrap();
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
        let config = SplitConfig {
            minibatch: MinibatchPolicy::Fixed(16),
            ..Default::default()
        };
        let options = FedAvgOptions { local_steps: 0 };
        assert!(train_fedavg(&arch, &config, options, shards, &test, &star()).is_err());
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
        let history = train_fedavg(
            &arch,
            &config(20, 0.1),
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
