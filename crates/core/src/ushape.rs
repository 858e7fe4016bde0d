//! The U-shaped split variant (Vepakomma et al., the paper's reference
//! \[1\]): the platform keeps **both** the first layers (`head`) and the
//! final layers (`tail`, including the classifier). The server holds only
//! the middle section and never sees raw data, labels, *or logits* — it
//! cannot even observe the model's predictions for a patient.
//!
//! One round is still four messages per platform:
//!
//! ```text
//! platform k                               server
//! ----------                               ------
//! head fwd on minibatch s_k
//!   -- 1. Activations ----------------->
//!                                          middle fwd (aggregated)
//!   <-- 2. Features ------------------–
//! tail fwd, local loss, tail backward + update
//!   -- 3. FeatureGrads ----------------->
//!                                          middle backward + update
//!   <-- 4. CutGrads -------------------–
//! head backward + update
//! ```
//!
//! This is a placement of the label-holding layers, not another
//! protocol: a [`Platform`] that keeps a tail, a server built with
//! [`SplitServer::new_u_shaped`], and the one round engine of
//! [`crate::resilient`] over any transport, faults included.

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::Transport;

use crate::config::{ComputeModel, OptimizerKind, SplitConfig};
use crate::error::{Result, SplitError};
use crate::history::TrainingHistory;
use crate::platform::Platform;
use crate::resilient::Engine;
use crate::round::Actors;
use crate::server::SplitServer;
use crate::split::resolve_split;
use crate::trainer::{batch_sizes, check_fresh};

/// The U-shaped trainer: like [`crate::SplitTrainer`] with the
/// classifier head kept platform-side. `tail_layers` final layers stay
/// on each platform.
pub struct UShapeTrainer<'t, T: Transport>(Engine<'t, T>);

impl<'t, T: Transport> UShapeTrainer<'t, T> {
    /// Builds the U-shaped trainer.
    ///
    /// The head cut comes from `config.split`; `tail_layers` is the
    /// number of final layers kept on the platform (≥ 1 for a meaningful
    /// U; 0 degenerates to the standard split with relabelled messages).
    /// Both sides train with SGD, each platform noises its activations
    /// with `config.activation_noise` as the standard split does, and
    /// the compute model does not apply.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for an invalid config or a used
    /// transport, a quorum larger than the platform count, or if the
    /// cuts overlap or shards are unusable.
    pub fn new(
        arch: &Architecture,
        mut config: SplitConfig,
        tail_layers: usize,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        transport: &'t T,
    ) -> Result<Self> {
        check_fresh(&config, transport.stats())?;
        let batches = batch_sizes(&config, &shards)?;
        let head_split = resolve_split(arch, config.split)?;
        let total_layers = arch.build(0).len();
        if head_split + tail_layers >= total_layers {
            return Err(SplitError::Config(format!(
                "head ({head_split}) + tail ({tail_layers}) leave no middle layers (model has {total_layers})"
            )));
        }
        let tail_split = total_layers - tail_layers;
        // The engine charges compute; this variant never has, and its
        // clocks are pinned.
        config.compute = ComputeModel::off();

        // Every replica is built from the same seed and cut in the same
        // two places; each side keeps its own part.
        let parts = || {
            let mut head = arch.build(config.seed);
            let tail = head.split_off(tail_split);
            let middle = head.split_off(head_split);
            (head, middle, tail)
        };
        let platforms = shards
            .into_iter()
            .zip(&batches)
            .enumerate()
            .map(|(id, (data, &batch))| {
                let (head, _, tail) = parts();
                let mut p = Platform::new(id, head, data, batch, config.momentum, config.seed);
                p.set_codec(config.codec);
                if config.activation_noise > 0.0 {
                    p.set_activation_noise(config.activation_noise);
                }
                p.set_tail(tail, OptimizerKind::Sgd.build(config.momentum));
                p
            })
            .collect();
        let mut server = SplitServer::new_u_shaped(parts().1, config.momentum);
        server.set_codec(config.codec);
        let actors = Actors {
            method: "split_ushape",
            config,
            platforms,
            server,
            test,
            // Only the compute model reads these, and it is off.
            client_params: 0,
            server_params: 0,
        };
        Engine::new(actors, transport, None).map(UShapeTrainer)
    }

    /// Mean accuracy of each platform's composed model (head + middle +
    /// tail) on the test set.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn evaluate(&mut self) -> Result<f32> {
        self.0.evaluate()
    }

    /// Runs the configured number of rounds.
    ///
    /// # Errors
    ///
    /// Propagates protocol, tensor and transport errors.
    pub fn run(&mut self) -> Result<TrainingHistory> {
        self.0.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::fixtures::replay_key;
    use crate::SplitTrainer;
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::{LrSchedule, MlpConfig};
    use medsplit_simnet::{
        ChaosTransport, Envelope, FaultPlan, MemoryTransport, MessageKind, NodeId, StarTopology,
    };

    fn arch() -> Architecture {
        Architecture::Mlp(MlpConfig {
            input_dim: 8,
            hidden: vec![16, 12],
            num_classes: 3,
        })
    }

    fn data() -> (Vec<InMemoryDataset>, InMemoryDataset) {
        let all = SyntheticTabular::new(3, 8, 0).generate(120).unwrap();
        let train = all.subset(&(0..90).collect::<Vec<_>>()).unwrap();
        let test = all.subset(&(90..120).collect::<Vec<_>>()).unwrap();
        (partition(&train, 2, &Partition::Iid, 1).unwrap(), test)
    }

    fn config(rounds: usize) -> SplitConfig {
        SplitConfig {
            rounds,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            minibatch: MinibatchPolicy::Fixed(8),
            ..SplitConfig::default()
        }
    }

    #[test]
    fn ushape_learns() {
        let (shards, test) = data();
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = UShapeTrainer::new(&arch(), config(60), 1, shards, test, &transport).unwrap();
        let before = trainer.evaluate().unwrap();
        let history = trainer.run().unwrap();
        assert!(
            history.final_accuracy > before + 0.2,
            "{before} -> {}",
            history.final_accuracy
        );
    }

    #[test]
    fn no_logits_ever_reach_the_server() {
        let (shards, test) = data();
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = UShapeTrainer::new(&arch(), config(5), 1, shards, test, &transport).unwrap();
        let history = trainer.run().unwrap();
        // Message mix: activations/features/feature-grads/cut-grads only.
        assert_eq!(history.stats.bytes_of(MessageKind::Logits), 0);
        assert_eq!(history.stats.bytes_of(MessageKind::LogitGrads), 0);
        assert!(history.stats.bytes_of(MessageKind::Features) > 0);
        assert!(history.stats.bytes_of(MessageKind::FeatureGrads) > 0);
        assert!(history.stats.bytes_of(MessageKind::Activations) > 0);
        assert!(history.stats.bytes_of(MessageKind::CutGrads) > 0);
        assert_eq!(history.stats.messages, 2 * 4 * 5);
    }

    #[test]
    fn degenerate_tail_matches_standard_split_learning_curve() {
        // tail_layers = 0 is the standard protocol with re-tagged
        // messages: identical losses round by round.
        let (shards, test) = data();
        let t1 = MemoryTransport::new(StarTopology::new(2));
        let mut u = UShapeTrainer::new(&arch(), config(8), 0, shards.clone(), test.clone(), &t1).unwrap();
        let hu = u.run().unwrap();

        let t2 = MemoryTransport::new(StarTopology::new(2));
        let mut s = SplitTrainer::new(&arch(), config(8), shards, test, &t2).unwrap();
        let hs = s.run().unwrap();

        for (a, b) in hu.records.iter().zip(&hs.records) {
            assert!(
                (a.mean_loss - b.mean_loss).abs() < 1e-6,
                "round {}: {} vs {}",
                a.round,
                a.mean_loss,
                b.mean_loss
            );
        }
        assert!((hu.final_accuracy - hs.final_accuracy).abs() < 1e-6);
        assert_eq!(
            hu.stats.total_bytes, hs.stats.total_bytes,
            "same tensor sizes, same bytes"
        );
    }

    #[test]
    fn overlapping_cuts_rejected() {
        let (shards, test) = data();
        let transport = MemoryTransport::new(StarTopology::new(2));
        // MLP has 5 layers; head split (default 2) + tail 3 >= 5.
        assert!(matches!(
            UShapeTrainer::new(&arch(), config(1), 3, shards.clone(), test.clone(), &transport),
            Err(SplitError::Config(_))
        ));
        assert!(matches!(
            UShapeTrainer::new(&arch(), config(1), 99, shards, test, &transport),
            Err(SplitError::Config(_))
        ));
    }

    #[test]
    fn used_transport_and_invalid_config_rejected() {
        let (shards, test) = data();
        let transport = MemoryTransport::new(StarTopology::new(2));
        assert!(matches!(
            UShapeTrainer::new(&arch(), config(0), 1, shards.clone(), test.clone(), &transport),
            Err(SplitError::Config(_))
        ));
        transport
            .send(Envelope::control(NodeId::Platform(0), NodeId::Server, 0))
            .unwrap();
        assert!(matches!(
            UShapeTrainer::new(&arch(), config(1), 1, shards, test, &transport),
            Err(SplitError::Config(_))
        ));
    }

    #[test]
    fn activation_noise_changes_the_run_and_replays() {
        let run = |sigma: f32| {
            let (shards, test) = data();
            let transport = MemoryTransport::new(StarTopology::new(2));
            let cfg = SplitConfig {
                activation_noise: sigma,
                ..config(10)
            };
            let mut trainer = UShapeTrainer::new(&arch(), cfg, 1, shards, test, &transport).unwrap();
            let history = trainer.run().unwrap();
            (
                replay_key(&history),
                history.final_accuracy.to_bits(),
                history.stats,
            )
        };
        let quiet = run(0.0);
        let noised = run(0.5);
        assert_ne!(noised.0, quiet.0, "noise must change the losses");
        assert_eq!(noised.2, quiet.2, "noise does not change the traffic");
        assert_eq!(run(0.5), noised, "a noised run replays bit for bit");
    }

    #[test]
    fn ten_percent_loss_retries_learns_and_replays() {
        let run = || {
            let (shards, test) = data();
            let plan = FaultPlan::new(3).with_drop(0.1);
            let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(2)), plan);
            let mut trainer = UShapeTrainer::new(&arch(), config(60), 1, shards, test, &chaos).unwrap();
            let before = trainer.evaluate().unwrap();
            let history = trainer.run().unwrap();
            (before, history, trainer.0.report.base)
        };
        let (before, h1, r1) = run();
        let (_, h2, r2) = run();
        assert!(r1.retries > 0, "10% loss must trigger retries");
        assert!(
            h1.final_accuracy > before + 0.2,
            "{before} -> {}",
            h1.final_accuracy
        );
        assert_eq!(r1, r2);
        assert_eq!(replay_key(&h1), replay_key(&h2));
        assert_eq!(h1.stats, h2.stats);
        assert_eq!(h1.final_accuracy.to_bits(), h2.final_accuracy.to_bits());
    }
}
