//! Centralised training: the privacy-violating upper bound.
//!
//! All platforms upload their raw patient data to the server once (the
//! transfer the law forbids — counted as [`MessageKind::RawData`]
//! traffic), and the server trains a single model on the union.

use medsplit_core::{Result, RoundRecord, SplitError, TrainingHistory};
use medsplit_data::{BatchSampler, InMemoryDataset};
use medsplit_nn::{softmax_cross_entropy, Architecture, Layer, Mode, Optimizer, Sgd};
use medsplit_simnet::{Envelope, MessageKind, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::common::{check_shards, evaluate_model, BaselineConfig};

/// Trains one model on the pooled data, after shipping every shard's raw
/// features (and labels) to the server over the transport.
///
/// # Errors
///
/// Returns configuration errors for unusable shards and propagates tensor
/// and transport errors.
pub fn train_centralized<T: Transport>(
    arch: &Architecture,
    config: &BaselineConfig,
    shards: &[InMemoryDataset],
    test: &InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    check_shards(shards)?;
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

    let global_batch: usize = {
        let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
        config.minibatch.sizes(&sizes).iter().sum()
    };
    let mut model = arch.build(config.seed);
    let mut sampler = BatchSampler::new(pooled.len(), global_batch.min(pooled.len()), config.seed);
    let mut opt = Sgd::new(0.01).with_momentum(config.momentum);

    let mut records = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let round_start = std::time::Instant::now();
        let lr = config.lr.lr_at(round);
        opt.set_learning_rate(lr);
        let (batch, batch_labels) = sampler.next_from(&pooled);
        let logits = model.forward(&batch, Mode::Train)?;
        let out = softmax_cross_entropy(&logits, &batch_labels)?;
        model.backward_params(&out.grad)?;
        opt.step_and_zero(&mut model);
        transport.stats().advance_clock(
            NodeId::Server,
            config.compute.seconds(
                config.compute.server_s_per_msample,
                batch_labels.len(),
                model.param_count(),
            ),
        );
        let accuracy = if config.eval_due(round) {
            Some(evaluate_model(&mut model, test)?)
        } else {
            None
        };
        let snap = transport.stats().snapshot();
        records.push(RoundRecord {
            round,
            lr,
            mean_loss: out.loss,
            cumulative_bytes: snap.total_bytes,
            simulated_time_s: snap.makespan_s,
            wall_time_s: round_start.elapsed().as_secs_f64(),
            participants: 1,
            degraded: false,
            accuracy,
        });
    }
    let final_accuracy = evaluate_model(&mut model, test)?;
    if let Some(last) = records.last_mut() {
        last.accuracy = Some(final_accuracy);
    }
    Ok(TrainingHistory {
        method: "centralized".into(),
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
    fn centralized_learns_and_uploads_raw_data() {
        let (arch, shards, test) = setup();
        let transport = MemoryTransport::new(StarTopology::new(3));
        let config = BaselineConfig {
            rounds: 50,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            ..Default::default()
        };
        let history = train_centralized(&arch, &config, &shards, &test, &transport).unwrap();
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
        let transport = MemoryTransport::new(StarTopology::new(3));
        let config = BaselineConfig {
            rounds: 1,
            eval_every: 0,
            ..Default::default()
        };
        let history = train_centralized(&arch, &config, &shards, &test, &transport).unwrap();
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
