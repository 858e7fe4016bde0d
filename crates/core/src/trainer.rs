//! The split-learning trainer over a plain star, and what every trainer
//! shares to build its actors.
//!
//! [`SplitTrainer`] drives the platform and server actors through the
//! paper's four-message round over a [`Transport`], so every tensor the
//! protocol exchanges is serialised, sent, counted and deserialised
//! exactly as it would be across a WAN. Its round body is the engine of
//! [`crate::resilient`], the only one: over a plain transport the
//! engine's fault view is an empty plan, so every platform takes part in
//! every round and every message is delivered on its first attempt;
//! over a [`ChaosTransport`](medsplit_simnet::ChaosTransport) the same
//! trainer retries, verifies and degrades as the plan requires.

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{NetStats, Transport};

use crate::config::SplitConfig;
use crate::error::{Result, SplitError};
use crate::history::TrainingHistory;
use crate::platform::Platform;
use crate::resilient::Engine;
use crate::round::{Actors, RoundDriver};
use crate::server::SplitServer;
use crate::split::build_split;

/// Orchestrates split-learning training across platform shards.
pub struct SplitTrainer<'t, T: Transport>(Engine<'t, T>);

/// Checks the shard list and returns every platform's minibatch size
/// under the configured policy.
///
/// # Errors
///
/// Returns [`SplitError::Config`] for an empty shard list or an empty
/// shard.
pub fn batch_sizes(config: &SplitConfig, shards: &[InMemoryDataset]) -> Result<Vec<usize>> {
    if shards.is_empty() {
        return Err(SplitError::Config(
            "at least one platform shard is required".into(),
        ));
    }
    if shards.iter().any(InMemoryDataset::is_empty) {
        return Err(SplitError::Config("platform shards must be non-empty".into()));
    }
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    Ok(config.minibatch.sizes(&sizes))
}

/// Builds the protocol actors from a configuration: identical `L1`
/// replicas paired with their shards, and the server suffix. Returns
/// `(platforms, server, client_params, server_params)`.
pub(crate) fn build_actors(
    arch: &Architecture,
    config: &SplitConfig,
    shards: Vec<InMemoryDataset>,
) -> Result<(Vec<Platform>, SplitServer, usize, usize)> {
    let batches = batch_sizes(config, &shards)?;
    let split = build_split(arch, config.split, config.seed, shards.len())?;
    let platforms: Vec<Platform> = split
        .clients
        .into_iter()
        .zip(shards)
        .zip(&batches)
        .enumerate()
        .map(|(id, ((model, data), &batch))| {
            let mut p = Platform::new(id, model, data, batch, config.momentum, config.seed);
            p.set_codec(config.codec);
            if config.activation_noise > 0.0 {
                p.set_activation_noise(config.activation_noise);
            }
            if config.optimizer != crate::config::OptimizerKind::Sgd {
                p.set_optimizer(config.optimizer.build(config.momentum));
            }
            p
        })
        .collect();
    let mut server = SplitServer::new(split.server, config.momentum);
    server.set_codec(config.codec);
    if config.optimizer != crate::config::OptimizerKind::Sgd {
        server.set_optimizer(config.optimizer.build(config.momentum));
    }
    Ok((platforms, server, split.client_params, split.server_params))
}

/// Validates `config` and refuses a transport that has already carried
/// traffic: what every driver checks before it builds its actors.
///
/// # Errors
///
/// Returns [`SplitError::Config`] naming the first invalid field, or
/// saying the transport was used.
pub fn check_fresh(config: &SplitConfig, stats: &NetStats) -> Result<()> {
    config.validate().map_err(SplitError::Config)?;
    if stats.snapshot().messages > 0 {
        return Err(SplitError::Config(
            "transport has already been used; accounting would be polluted".into(),
        ));
    }
    Ok(())
}

/// Runs [`check_fresh`] and builds the actors of a run recorded as
/// `method`.
pub(crate) fn fresh_actors(
    method: &'static str,
    arch: &Architecture,
    config: SplitConfig,
    shards: Vec<InMemoryDataset>,
    test: InMemoryDataset,
    stats: &NetStats,
) -> Result<Actors> {
    check_fresh(&config, stats)?;
    let (platforms, server, client_params, server_params) = build_actors(arch, &config, shards)?;
    Ok(Actors {
        method,
        config,
        platforms,
        server,
        test,
        client_params,
        server_params,
    })
}

impl<'t, T: Transport> SplitTrainer<'t, T> {
    /// Builds the trainer: identical `L1` replicas for each shard, the
    /// server suffix, and per-platform minibatch sizes from the
    /// configured policy.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for invalid split points, shard
    /// counts, empty shards, or a quorum larger than the platform count.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        transport: &'t T,
    ) -> Result<Self> {
        let actors = fresh_actors("split", arch, config, shards, test, transport.stats())?;
        Engine::new(actors, transport, None).map(Self)
    }

    /// The platform actors (for inspection and privacy probes).
    pub fn platforms_mut(&mut self) -> &mut [Platform] {
        &mut self.0.actors.platforms
    }

    /// The server actor.
    pub fn server_mut(&mut self) -> &mut SplitServer {
        &mut self.0.actors.server
    }

    /// Evaluates the deployed model of every live platform (its own `L1`
    /// composed with the shared server layers) on the test set and
    /// returns the mean accuracy.
    ///
    /// Evaluation happens out-of-band (no protocol traffic): it measures
    /// model quality, not communication.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn evaluate(&mut self) -> Result<f32> {
        self.0.evaluate()
    }

    /// Runs the configured number of rounds and returns the history.
    ///
    /// # Errors
    ///
    /// Propagates protocol, tensor and transport errors.
    pub fn run(&mut self) -> Result<TrainingHistory> {
        self.0.run()
    }
}

impl<T: Transport> RoundDriver for SplitTrainer<'_, T> {
    fn method(&self) -> &'static str {
        self.0.method()
    }

    fn full_round(&self) -> usize {
        self.0.full_round()
    }

    fn set_lr(&mut self, lr: f32) {
        self.0.set_lr(lr);
    }

    fn stats(&self) -> &NetStats {
        self.0.stats()
    }

    fn round(&mut self, round: u64) -> Result<(f32, usize)> {
        self.0.round(round)
    }

    fn evaluate(&mut self) -> Result<f32> {
        self.0.evaluate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L1Sync;
    use crate::round::fixtures::{arch, config};
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_simnet::{Envelope, MemoryTransport, MessageKind, NodeId, StarTopology};
    use medsplit_tensor::Tensor;

    fn setup(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
        let gen = SyntheticTabular::new(3, 8, 0);
        let train = gen.generate(120).unwrap();
        let test = SyntheticTabular::new(3, 8, 0)
            .generate(150)
            .unwrap()
            .subset(&(120..150).collect::<Vec<_>>())
            .unwrap();
        let shards = partition(&train, platforms, &Partition::Iid, 1).unwrap();
        (shards, test)
    }

    #[test]
    fn training_improves_accuracy() {
        let (shards, test) = setup(3);
        let transport = MemoryTransport::new(StarTopology::new(3));
        let mut trainer = SplitTrainer::new(&arch(), config(60), shards, test, &transport).unwrap();
        let before = trainer.evaluate().unwrap();
        let history = trainer.run().unwrap();
        assert!(
            history.final_accuracy > before + 0.2,
            "accuracy {before} -> {}",
            history.final_accuracy
        );
        assert_eq!(history.records.len(), 60);
        assert!(history.stats.total_bytes > 0);
    }

    #[test]
    fn four_message_kinds_and_counts() {
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = SplitTrainer::new(&arch(), config(5), shards, test, &transport).unwrap();
        let history = trainer.run().unwrap();
        // 4 messages per platform per round, nothing else.
        assert_eq!(history.stats.messages, 4 * 2 * 5);
        for kind in [
            MessageKind::Activations,
            MessageKind::Logits,
            MessageKind::LogitGrads,
            MessageKind::CutGrads,
        ] {
            assert!(history.stats.bytes_of(kind) > 0, "{kind} missing");
        }
        assert_eq!(history.stats.bytes_of(MessageKind::ModelDown), 0);
        assert_eq!(history.stats.bytes_of(MessageKind::L1Sync), 0);
    }

    #[test]
    fn raw_data_never_crosses_the_wire() {
        // Privacy invariant: total uplink bytes per round per platform must
        // be activations+gradients, whose per-sample size is the L1 output,
        // not the input; and no message kind carries labels.
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = SplitTrainer::new(&arch(), config(1), shards, test, &transport).unwrap();
        let history = trainer.run().unwrap();
        let act_bytes = history.stats.bytes_of(MessageKind::Activations);
        // 2 platforms × batch 10 × 16 activation floats (+ header/shape).
        let payload = medsplit_tensor::serialized_len(&medsplit_tensor::Shape::from([10usize, 16]));
        assert_eq!(act_bytes, 2 * (payload + medsplit_simnet::HEADER_BYTES) as u64);
    }

    #[test]
    fn periodic_average_sync_traffic_counted() {
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(4);
        cfg.l1_sync = L1Sync::PeriodicAverage { every: 2 };
        let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
        let history = trainer.run().unwrap();
        assert!(history.stats.bytes_of(MessageKind::L1Sync) > 0);
        // After the last sync (round 3) both platforms have identical L1.
        let p0 = trainer.platforms_mut()[0].l1_parameters();
        let p1 = trainer.platforms_mut()[1].l1_parameters();
        assert_eq!(p0, p1);
    }

    #[test]
    fn cyclic_share_rotates_parameters() {
        // One round, then the sync: platform p must hold bit-for-bit what
        // its ring predecessor holds in the same run without the sync.
        let k = 3;
        let after_one_round = |l1_sync: L1Sync| {
            let (shards, test) = setup(k);
            let transport = MemoryTransport::new(StarTopology::new(k));
            let mut cfg = config(1);
            cfg.l1_sync = l1_sync;
            let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
            let history = trainer.run().unwrap();
            let l1: Vec<Tensor> = trainer
                .platforms_mut()
                .iter_mut()
                .map(Platform::l1_parameters)
                .collect();
            (l1, history.stats.bytes_of(MessageKind::L1Sync))
        };
        let (unsynced, no_sync_bytes) = after_one_round(L1Sync::CommonInit);
        let (rotated, sync_bytes) = after_one_round(L1Sync::CyclicShare { every: 1 });
        assert_eq!(no_sync_bytes, 0);
        assert!(sync_bytes > 0);
        assert_ne!(
            unsynced[0], unsynced[1],
            "platforms must have diverged to tell them apart"
        );
        for p in 0..k {
            assert_eq!(rotated[p], unsynced[(p + k - 1) % k], "platform {p}");
        }
    }

    #[test]
    fn config_validation() {
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        assert!(matches!(
            SplitTrainer::new(&arch(), config(1), vec![], test.clone(), &transport),
            Err(SplitError::Config(_))
        ));
        // Dirty transport rejected.
        transport
            .send(Envelope::control(NodeId::Platform(0), NodeId::Server, 0))
            .unwrap();
        assert!(matches!(
            SplitTrainer::new(&arch(), config(1), shards, test, &transport),
            Err(SplitError::Config(_))
        ));
    }

    #[test]
    fn adam_optimizer_also_learns() {
        use crate::config::OptimizerKind;
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(50);
        cfg.optimizer = OptimizerKind::Adam;
        cfg.lr = medsplit_nn::LrSchedule::Constant(0.01);
        let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
        let history = trainer.run().unwrap();
        assert!(
            history.final_accuracy > 0.6,
            "Adam accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn f16_codec_halves_tensor_traffic_and_still_learns() {
        use crate::config::WireCodec;
        let (shards, test) = setup(2);
        let run = |codec: WireCodec| {
            let transport = MemoryTransport::new(StarTopology::new(2));
            let mut cfg = config(40);
            cfg.codec = codec;
            let mut trainer =
                SplitTrainer::new(&arch(), cfg, shards.clone(), test.clone(), &transport).unwrap();
            trainer.run().unwrap()
        };
        let exact = run(WireCodec::F32);
        let half = run(WireCodec::F16);
        // Payload bytes halve; headers (64 + shape) stay, so the total is a
        // bit more than half.
        assert!(half.stats.total_bytes < exact.stats.total_bytes * 3 / 5);
        assert!(half.stats.total_bytes > exact.stats.total_bytes * 2 / 5);
        // Accuracy is essentially unaffected by f16 rounding.
        assert!(
            half.final_accuracy > exact.final_accuracy - 0.1,
            "f16 {} vs f32 {}",
            half.final_accuracy,
            exact.final_accuracy
        );
    }

    #[test]
    fn int8_codec_quarters_tensor_traffic_and_still_learns() {
        use crate::config::WireCodec;
        let (shards, test) = setup(2);
        let run = |codec: WireCodec| {
            let transport = MemoryTransport::new(StarTopology::new(2));
            let mut cfg = config(40);
            cfg.codec = codec;
            let mut trainer =
                SplitTrainer::new(&arch(), cfg, shards.clone(), test.clone(), &transport).unwrap();
            trainer.run().unwrap()
        };
        let exact = run(WireCodec::F32);
        let quant = run(WireCodec::Int8);
        // Payload bytes quarter; headers (64 + shape + scale) stay, so the
        // total lands between the asymptotic 1/4 and the f16 ratio.
        assert!(
            quant.stats.total_bytes < exact.stats.total_bytes / 2,
            "int8 {} vs f32 {}",
            quant.stats.total_bytes,
            exact.stats.total_bytes
        );
        assert!(quant.stats.total_bytes > exact.stats.total_bytes / 5);
        // Per-tensor-scale quantisation keeps the model training.
        assert!(
            quant.final_accuracy > exact.final_accuracy - 0.15,
            "int8 {} vs f32 {}",
            quant.final_accuracy,
            exact.final_accuracy
        );
    }

    #[test]
    fn int8_codec_runs_are_bit_identical_on_replay() {
        use crate::config::WireCodec;
        let run = || {
            let (shards, test) = setup(2);
            let transport = MemoryTransport::new(StarTopology::new(2));
            let mut cfg = config(10);
            cfg.codec = WireCodec::Int8;
            let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
            trainer.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn proportional_minibatch_sizes_applied() {
        let gen = SyntheticTabular::new(3, 8, 0);
        let train = gen.generate(200).unwrap();
        let shards = partition(&train, 2, &Partition::PowerLaw { alpha: 2.0 }, 0).unwrap();
        let test = gen.generate(30).unwrap();
        let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(1);
        cfg.minibatch = MinibatchPolicy::Proportional { global: 40 };
        let expected = cfg.minibatch.sizes(&sizes);
        let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
        let actual: Vec<usize> = trainer.platforms_mut().iter().map(|p| p.batch_size()).collect();
        assert_eq!(actual, expected);
        assert!(
            actual[0] > actual[1],
            "larger shard gets larger minibatch: {actual:?}"
        );
    }
}
