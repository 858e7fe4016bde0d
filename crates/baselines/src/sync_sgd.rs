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
use medsplit_core::{
    check_fresh, ComputeModel, Result, RoundDriver, SplitConfig, SplitError, TrainingHistory,
};
use medsplit_data::InMemoryDataset;
use medsplit_nn::vectorize::{
    apply_flat_update, gradient_vector, load_snapshot_vector, set_state_vector, snapshot_vector, state_vector,
};
use medsplit_nn::{Architecture, Layer, Sequential};
use medsplit_simnet::{MessageKind, NetStats, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::common::{platform_learners, test_accuracy, Learner};

/// Synchronous-SGD-specific options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncSgdOptions {
    /// Number of backup workers `b`: the server proceeds once `k - b`
    /// gradients have arrived. 0 reproduces fully-synchronous SGD.
    pub backup_workers: usize,
}

/// Synchronous SGD as a [`RoundDriver`]: one step per round.
struct SyncSgd<'a, T: Transport> {
    compute: ComputeModel,
    transport: &'a T,
    test: &'a InMemoryDataset,
    /// The parameter server's model.
    global: Sequential,
    /// The platforms; their optimisers stay unused.
    workers: Vec<Learner>,
    /// Gradients the server waits for per step.
    needed: usize,
    param_count: usize,
    lr: f32,
}

/// Runs large-scale synchronous SGD and returns the training history.
///
/// Reads `rounds` (steps), `eval_every`, `lr`, `seed`, `minibatch` and
/// `compute` from `config`, which must validate. The server applies plain
/// SGD, so `momentum` and `optimizer` are not read; nor are the
/// split-specific fields.
///
/// Works over any transport. Crashes take effect only as far as the
/// caller has applied them: this driver never calls
/// [`ChaosTransport::begin_round`](medsplit_simnet::ChaosTransport::begin_round),
/// so a platform crashed by `begin_round(0)` before the call stays down
/// for the whole run, and later crash or recover events of the plan never
/// fire. Stragglers and other link faults apply throughout. A platform
/// whose download does not arrive sits the step out and is not counted as
/// a participant.
///
/// # Errors
///
/// Returns configuration errors (an invalid config, a used transport,
/// unusable shards, more backup workers than platforms) and
/// [`SplitError::Protocol`] if fewer than `k - b` gradients arrive in a
/// step.
pub fn train_sync_sgd<T: Transport>(
    arch: &Architecture,
    config: &SplitConfig,
    options: SyncSgdOptions,
    shards: Vec<InMemoryDataset>,
    test: &InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    check_fresh(config, transport.stats())?;
    let workers = platform_learners(arch, config, shards, |_| config.seed)?;
    let k = workers.len();
    if options.backup_workers >= k {
        return Err(SplitError::Config(format!(
            "{} backup workers leave no required gradients among {k} platforms",
            options.backup_workers
        )));
    }
    let mut global = arch.build(config.seed);
    SyncSgd {
        compute: config.compute,
        transport,
        test,
        param_count: global.param_count(),
        global,
        workers,
        needed: k - options.backup_workers,
        lr: 0.0,
    }
    .run(config)
}

impl<T: Transport> RoundDriver for SyncSgd<'_, T> {
    fn method(&self) -> &'static str {
        "sync_sgd"
    }

    fn full_round(&self) -> usize {
        self.workers.len()
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn stats(&self) -> &NetStats {
        self.transport.stats()
    }

    fn round(&mut self, round: u64) -> Result<(f32, usize)> {
        let (transport, compute) = (self.transport, self.compute);
        let global_params = snapshot_vector(&mut self.global);
        // Model download to every platform.
        for i in 0..self.workers.len() {
            transport.send(tensor_envelope(
                NodeId::Server,
                NodeId::Platform(i),
                round,
                MessageKind::ModelDown,
                &global_params,
            ))?;
        }
        // Each platform computes and pushes one gradient.
        let mut losses = Vec::with_capacity(self.workers.len());
        for (i, w) in self.workers.iter_mut().enumerate() {
            // A crashed platform's download was dropped by the fault
            // layer; it simply skips the step.
            let Some(env) = transport.try_recv(NodeId::Platform(i)) else {
                continue;
            };
            load_snapshot_vector(&mut w.model, &decode_tensor(&env, MessageKind::ModelDown)?)?;
            losses.push(w.gradient()?);
            // The push carries the gradient plus the worker's updated
            // batch-norm statistics (the parameter server keeps them in
            // sync, as a real deployment's assign ops would).
            let grad = gradient_vector(&mut w.model);
            w.model.zero_grads();
            let push = Tensor::concat0(&[grad, state_vector(&mut w.model)])?;
            transport.stats().advance_clock(
                NodeId::Platform(i),
                compute.seconds(compute.platform_s_per_msample, w.batch_size(), self.param_count),
            );
            transport.send(tensor_envelope(
                NodeId::Platform(i),
                NodeId::Server,
                round,
                MessageKind::GradPush,
                &push,
            ))?;
        }
        // Server: average the first `needed` arrivals, discard the rest.
        let needed = self.needed;
        let mut averaged = Tensor::zeros([global_params.numel()]);
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
        let (params, state_len) = (self.param_count, global_params.numel() - self.param_count);
        apply_flat_update(&mut self.global, &averaged.slice0(0, params)?, self.lr)?;
        if state_len > 0 {
            set_state_vector(&mut self.global, &averaged.slice0(params, state_len)?)?;
        }
        let mean_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
        Ok((mean_loss, losses.len()))
    }

    fn evaluate(&mut self) -> Result<f32> {
        test_accuracy(&mut self.global, self.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::{config, setup, star};
    use medsplit_data::MinibatchPolicy;
    use medsplit_simnet::{ChaosTransport, FaultPlan, MemoryTransport};

    /// A 3-platform star on which `dead` is crashed from the start.
    fn with_dead_platform(dead: usize) -> ChaosTransport<MemoryTransport> {
        let plan = FaultPlan::new(0).crash(NodeId::Platform(dead), 0);
        let transport = ChaosTransport::new(star(), plan);
        transport.begin_round(0);
        transport
    }

    #[test]
    fn sync_sgd_learns() {
        let (arch, shards, test) = setup();
        let history = train_sync_sgd(
            &arch,
            &config(40, 0.1),
            SyncSgdOptions::default(),
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
    fn bandwidth_matches_analytic_formula() {
        let (arch, shards, test) = setup();
        let rounds = 3;
        let history = train_sync_sgd(
            &arch,
            &config(rounds, 0.05),
            SyncSgdOptions::default(),
            shards,
            &test,
            &star(),
        )
        .unwrap();
        let expected = rounds as u64 * medsplit_core::comm::sync_sgd_round_bytes(3, arch.param_count());
        assert_eq!(history.stats.total_bytes, expected);
    }

    #[test]
    fn backup_workers_tolerate_a_dead_platform() {
        let (arch, shards, test) = setup();
        let transport = with_dead_platform(2);
        let options = SyncSgdOptions { backup_workers: 1 };
        let history = train_sync_sgd(&arch, &config(30, 0.1), options, shards, &test, &transport).unwrap();
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
        let err = train_sync_sgd(
            &arch,
            &config(5, 0.05),
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
        let config = SplitConfig {
            minibatch: MinibatchPolicy::Fixed(16),
            ..Default::default()
        };
        let options = SyncSgdOptions { backup_workers: 3 };
        assert!(train_sync_sgd(&arch, &config, options, shards, &test, &star()).is_err());
    }
}
