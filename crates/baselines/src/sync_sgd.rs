//! Large-scale synchronous SGD (Chen et al., 2016) — the paper's Fig. 4
//! comparator, including the backup-worker mechanism.
//!
//! Every step, each platform downloads the current model, computes one
//! minibatch gradient, and pushes the full gradient vector; the server
//! averages the first `k - backup_workers` gradients to arrive (late or
//! lost gradients are discarded, which is what makes the scheme robust to
//! stragglers) and applies one SGD update. Bandwidth per step is
//! `2 × model size × platforms` — far more than the split protocol moves.

use medsplit_core::messages::{decode_tensor, tensor_envelope};
use medsplit_core::{Result, RoundRecord, SplitError, TrainingHistory};
use medsplit_data::{BatchSampler, InMemoryDataset};
use medsplit_nn::vectorize::{
    apply_flat_update, gradient_vector, load_snapshot_vector, set_state_vector, snapshot_vector, state_count,
    state_vector,
};
use medsplit_nn::{softmax_cross_entropy, Architecture, Layer, Mode, Sequential};
use medsplit_simnet::{MessageKind, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::common::{check_shards, evaluate_model, BaselineConfig};

/// Synchronous-SGD-specific options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncSgdOptions {
    /// Number of backup workers `b`: the server proceeds once `k - b`
    /// gradients have arrived. 0 reproduces fully-synchronous SGD.
    pub backup_workers: usize,
}

struct Worker {
    model: Sequential,
    data: InMemoryDataset,
    sampler: BatchSampler,
}

/// Runs large-scale synchronous SGD and returns the training history.
///
/// Works over any transport; run it over a
/// [`ChaosTransport`](medsplit_simnet::ChaosTransport) whose plan crashes
/// or straggles platforms to exercise the backup-worker path. A platform
/// whose download does not arrive sits the step out and is not counted
/// as a participant.
///
/// # Errors
///
/// Returns configuration errors (e.g. more backup workers than platforms)
/// and [`SplitError::Protocol`] if fewer than `k - b` gradients arrive in
/// a step.
pub fn train_sync_sgd<T: Transport>(
    arch: &Architecture,
    config: &BaselineConfig,
    options: SyncSgdOptions,
    shards: Vec<InMemoryDataset>,
    test: &InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    check_shards(&shards)?;
    let k = shards.len();
    if options.backup_workers >= k {
        return Err(SplitError::Config(format!(
            "{} backup workers leave no required gradients among {k} platforms",
            options.backup_workers
        )));
    }
    let needed = k - options.backup_workers;
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    let batches = config.minibatch.sizes(&sizes);

    let mut global = arch.build(config.seed);
    let param_count = global.param_count();
    let state_len = state_count(&mut global);
    let mut workers: Vec<Worker> = shards
        .into_iter()
        .zip(&batches)
        .enumerate()
        .map(|(i, (data, &batch))| Worker {
            model: arch.build(config.seed),
            sampler: BatchSampler::new(data.len(), batch, config.seed ^ (i as u64 + 1)),
            data,
        })
        .collect();

    let mut records = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let round_start = std::time::Instant::now();
        let lr = config.lr.lr_at(round);
        let global_params = snapshot_vector(&mut global);
        // Model download to every platform.
        for i in 0..k {
            transport.send(tensor_envelope(
                NodeId::Server,
                NodeId::Platform(i),
                round as u64,
                MessageKind::ModelDown,
                &global_params,
            ))?;
        }
        // Each platform computes and pushes one gradient.
        let mut losses = Vec::with_capacity(k);
        for (i, w) in workers.iter_mut().enumerate() {
            // A crashed platform's download was dropped by the fault
            // layer; it simply skips the step.
            let Some(env) = transport.try_recv(NodeId::Platform(i)) else {
                continue;
            };
            let params = decode_tensor(&env, MessageKind::ModelDown)?;
            load_snapshot_vector(&mut w.model, &params)?;
            let (features, labels) = w.sampler.next_from(&w.data);
            let logits = w.model.forward(&features, Mode::Train)?;
            let out = softmax_cross_entropy(&logits, &labels)?;
            w.model.backward_params(&out.grad)?;
            losses.push(out.loss);
            // The push carries the gradient plus the worker's updated
            // batch-norm statistics (the parameter server keeps them in
            // sync, as a real deployment's assign ops would).
            let grad = gradient_vector(&mut w.model);
            w.model.zero_grads();
            let push = Tensor::concat0(&[grad, state_vector(&mut w.model)])?;
            transport.stats().advance_clock(
                NodeId::Platform(i),
                config
                    .compute
                    .seconds(config.compute.platform_s_per_msample, labels.len(), param_count),
            );
            transport.send(tensor_envelope(
                NodeId::Platform(i),
                NodeId::Server,
                round as u64,
                MessageKind::GradPush,
                &push,
            ))?;
        }
        // Server: average the first `needed` arrivals, discard the rest.
        let mut averaged = Tensor::zeros([param_count + state_len]);
        let mut received = 0usize;
        while received < needed {
            let Some(env) = transport.try_recv(NodeId::Server) else {
                return Err(SplitError::Protocol(format!(
                    "step {round}: only {received} of {needed} required gradients arrived"
                )));
            };
            let grad = decode_tensor(&env, MessageKind::GradPush)?;
            averaged.axpy(1.0 / needed as f32, &grad)?;
            received += 1;
        }
        // Late gradients (beyond `needed`) are dropped, per Chen et al.
        while transport.try_recv(NodeId::Server).is_some() {}
        let grad_part = averaged.slice0(0, param_count)?;
        apply_flat_update(&mut global, &grad_part, lr)?;
        if state_len > 0 {
            set_state_vector(&mut global, &averaged.slice0(param_count, state_len)?)?;
        }

        let accuracy = if config.eval_due(round) {
            Some(evaluate_model(&mut global, test)?)
        } else {
            None
        };
        let snap = transport.stats().snapshot();
        records.push(RoundRecord {
            round,
            lr,
            mean_loss: losses.iter().sum::<f32>() / losses.len().max(1) as f32,
            cumulative_bytes: snap.total_bytes,
            simulated_time_s: snap.makespan_s,
            wall_time_s: round_start.elapsed().as_secs_f64(),
            participants: losses.len(),
            degraded: losses.len() < k,
            accuracy,
        });
    }
    let final_accuracy = evaluate_model(&mut global, test)?;
    if let Some(last) = records.last_mut() {
        last.accuracy = Some(final_accuracy);
    }
    Ok(TrainingHistory {
        method: "sync_sgd".into(),
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
    use medsplit_simnet::{ChaosTransport, FaultPlan, MemoryTransport, StarTopology};

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

    /// A 3-platform star on which `dead` is crashed from the start.
    fn with_dead_platform(dead: usize) -> ChaosTransport<MemoryTransport> {
        let plan = FaultPlan::new(0).crash(NodeId::Platform(dead), 0);
        let transport = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan);
        transport.begin_round(0);
        transport
    }

    #[test]
    fn sync_sgd_learns() {
        let (arch, shards, test) = setup();
        let transport = MemoryTransport::new(StarTopology::new(3));
        let config = BaselineConfig {
            rounds: 40,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            ..Default::default()
        };
        let history = train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions::default(),
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
    fn bandwidth_matches_analytic_formula() {
        let (arch, shards, test) = setup();
        let transport = MemoryTransport::new(StarTopology::new(3));
        let rounds = 3;
        let config = BaselineConfig {
            rounds,
            eval_every: 0,
            ..Default::default()
        };
        let history = train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions::default(),
            shards,
            &test,
            &transport,
        )
        .unwrap();
        let expected = rounds as u64 * medsplit_core::comm::sync_sgd_round_bytes(3, arch.param_count());
        assert_eq!(history.stats.total_bytes, expected);
    }

    #[test]
    fn backup_workers_tolerate_a_dead_platform() {
        let (arch, shards, test) = setup();
        let transport = with_dead_platform(2);
        let config = BaselineConfig {
            rounds: 30,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            ..Default::default()
        };
        let history = train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions { backup_workers: 1 },
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
    fn without_backups_a_dead_platform_stalls_training() {
        let (arch, shards, test) = setup();
        let transport = with_dead_platform(0);
        let config = BaselineConfig {
            rounds: 5,
            eval_every: 0,
            ..Default::default()
        };
        let err = train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions::default(),
            shards,
            &test,
            &transport,
        )
        .unwrap_err();
        assert!(matches!(err, SplitError::Protocol(_)));
    }

    #[test]
    fn too_many_backups_rejected() {
        let (arch, shards, test) = setup();
        let transport = MemoryTransport::new(StarTopology::new(3));
        let config = BaselineConfig::default();
        assert!(train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions { backup_workers: 3 },
            shards,
            &test,
            &transport
        )
        .is_err());
    }
}
