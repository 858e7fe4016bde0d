//! Centralised training: the privacy-violating upper bound.
//!
//! All platforms upload their raw patient data to the server once (the
//! transfer the law forbids — counted as [`MessageKind::RawData`]
//! traffic), and the server trains a single model on the union.

use medsplit_core::{
    check_fresh, ComputeModel, Result, RoundDriver, SplitConfig, SplitError, TrainingHistory,
};
use medsplit_data::InMemoryDataset;
use medsplit_nn::{Architecture, Layer};
use medsplit_simnet::{Envelope, MessageKind, NetStats, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::common::{test_accuracy, Learner};

/// Centralised training as a [`RoundDriver`]: the server is the one
/// participant.
struct Centralized<'a, T: Transport> {
    compute: ComputeModel,
    transport: &'a T,
    test: &'a InMemoryDataset,
    server: Learner,
    param_count: usize,
}

/// Trains one model on the pooled data, after shipping every shard's raw
/// features (and labels) to the server over the transport.
///
/// Reads `rounds`, `eval_every`, `lr`, `momentum`, `optimizer`, `seed`,
/// `minibatch` (the pooled batch is the sum of the per-platform batches)
/// and `compute` from `config`, which must validate; the split-specific
/// fields are not read.
///
/// # Errors
///
/// Returns configuration errors for an invalid config, a used transport
/// or unusable shards, and propagates tensor and transport errors.
pub fn train_centralized<T: Transport>(
    arch: &Architecture,
    config: &SplitConfig,
    shards: &[InMemoryDataset],
    test: &InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    check_fresh(config, transport.stats())?;
    let global_batch: usize = medsplit_core::batch_sizes(config, shards)?.iter().sum();
    // Raw-data upload: features plus one float per label, per platform.
    for (i, shard) in shards.iter().enumerate() {
        let labels: Vec<f32> = shard.labels().iter().map(|&l| l as f32).collect();
        let n = labels.len();
        let label_tensor = Tensor::from_vec(labels, [n]).map_err(SplitError::from)?;
        transport.send(Envelope::new(
            NodeId::Platform(i),
            NodeId::Server,
            0,
            MessageKind::RawData,
            shard.features().to_bytes(),
        ))?;
        transport.send(Envelope::new(
            NodeId::Platform(i),
            NodeId::Server,
            0,
            MessageKind::RawData,
            label_tensor.to_bytes(),
        ))?;
        // Server consumes the upload (advances its clock past the transfer).
        let _ = transport.try_recv(NodeId::Server);
        let _ = transport.try_recv(NodeId::Server);
    }

    // Pool the shards.
    let features = Tensor::concat0(&shards.iter().map(|s| s.features().clone()).collect::<Vec<_>>())
        .map_err(SplitError::from)?;
    let labels: Vec<usize> = shards.iter().flat_map(|s| s.labels().iter().copied()).collect();
    let pooled = InMemoryDataset::new(features, labels, shards[0].num_classes()).map_err(SplitError::from)?;

    let mut model = arch.build(config.seed);
    Centralized {
        compute: config.compute,
        transport,
        test,
        param_count: model.param_count(),
        server: Learner::new(model, pooled, global_batch, config.seed, config),
    }
    .run(config)
}

impl<T: Transport> RoundDriver for Centralized<'_, T> {
    fn method(&self) -> &'static str {
        "centralized"
    }

    fn full_round(&self) -> usize {
        1
    }

    fn set_lr(&mut self, lr: f32) {
        self.server.set_lr(lr);
    }

    fn stats(&self) -> &NetStats {
        self.transport.stats()
    }

    fn round(&mut self, _round: u64) -> Result<(f32, usize)> {
        let loss = self.server.step()?;
        let compute = self.compute;
        self.transport.stats().advance_clock(
            NodeId::Server,
            compute.seconds(
                compute.server_s_per_msample,
                self.server.batch_size(),
                self.param_count,
            ),
        );
        Ok((loss, 1))
    }

    fn evaluate(&mut self) -> Result<f32> {
        test_accuracy(&mut self.server.model, self.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::{config, setup, star};

    #[test]
    fn centralized_learns_and_uploads_raw_data() {
        let (arch, shards, test) = setup();
        let history = train_centralized(&arch, &config(50, 0.1), &shards, &test, &star()).unwrap();
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
        let raw = history.stats.bytes_of(MessageKind::RawData);
        assert!(raw > 0, "raw data upload must be counted");
        // Raw upload dominates: it is the entire traffic here.
        assert_eq!(history.stats.total_bytes, raw);
        // The upload is one-time: bytes are flat across rounds.
        assert_eq!(
            history.records[0].cumulative_bytes,
            history.records.last().unwrap().cumulative_bytes
        );
    }

    #[test]
    fn raw_bytes_match_dataset_size() {
        let (arch, shards, test) = setup();
        let history = train_centralized(&arch, &config(1, 0.05), &shards, &test, &star()).unwrap();
        let expected: u64 = shards
            .iter()
            .map(|s| {
                let feat =
                    medsplit_tensor::serialized_len(s.features().shape()) + medsplit_simnet::HEADER_BYTES;
                let lab = medsplit_tensor::serialized_len(&medsplit_tensor::Shape::from([s.len()]))
                    + medsplit_simnet::HEADER_BYTES;
                (feat + lab) as u64
            })
            .sum();
        assert_eq!(history.stats.bytes_of(MessageKind::RawData), expected);
    }
}
