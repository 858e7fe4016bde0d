//! The deterministic (single-threaded) split-learning trainer.
//!
//! Drives the platform and server actors through the paper's four-message
//! round over a [`Transport`], so every tensor the protocol exchanges is
//! serialised, sent, counted and deserialised exactly as it would be
//! across a WAN. Delivery here is plain: every message sent is the next
//! message received, with no checksum verification, retry or checkpoint
//! (see [`crate::resilient`] for the round that has them). See
//! [`crate::threaded`] for the thread-per-node variant running the
//! identical actors.

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{Envelope, MessageKind, NetStats, NodeId, Transport};
use medsplit_tensor::Tensor;

use crate::config::{L1Sync, Scheduling, SplitConfig};
use crate::error::{Result, SplitError};
use crate::history::TrainingHistory;
use crate::messages::{decode_tensor, tensor_envelope};
use crate::platform::Platform;
use crate::round::{Actors, RoundDriver};
use crate::server::SplitServer;
use crate::split::build_split;

/// Orchestrates split-learning training across platform shards.
pub struct SplitTrainer<'t, T: Transport> {
    actors: Actors,
    transport: &'t T,
}

/// Receives the next queued message for `node`, failing loudly if the
/// protocol left the queue empty.
fn expect_msg<T: Transport>(transport: &T, node: NodeId) -> Result<Envelope> {
    transport
        .try_recv(node)
        .ok_or_else(|| SplitError::Protocol(format!("no message queued for {node}")))
}

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
    let total_batch: usize = batches.iter().sum();
    let platforms: Vec<Platform> = split
        .clients
        .into_iter()
        .zip(shards)
        .zip(&batches)
        .enumerate()
        .map(|(id, ((model, data), &batch))| {
            let mut p = Platform::new(id, model, data, batch, config.momentum, config.seed);
            // Under aggregate scheduling the server takes one step on the
            // union batch, so each platform re-weights its locally
            // normalised gradient by its batch share.
            if config.scheduling == Scheduling::Aggregate {
                p.set_grad_scale(batch as f32 / total_batch as f32);
            }
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
    /// counts, or empty shards.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        transport: &'t T,
    ) -> Result<Self> {
        let actors = fresh_actors("split", arch, config, shards, test, transport.stats())?;
        Ok(Self::over(actors, transport))
    }

    /// The plain round over actors built elsewhere.
    pub(crate) fn over(actors: Actors, transport: &'t T) -> Self {
        SplitTrainer { actors, transport }
    }

    /// The platform actors (for inspection and privacy probes).
    pub fn platforms_mut(&mut self) -> &mut [Platform] {
        &mut self.actors.platforms
    }

    /// The server actor.
    pub fn server_mut(&mut self) -> &mut SplitServer {
        &mut self.actors.server
    }

    /// Evaluates the deployed model of every platform (its own `L1`
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
        self.actors.evaluate(|_| true)
    }

    /// Runs the configured number of rounds and returns the history.
    ///
    /// # Errors
    ///
    /// Propagates protocol, tensor and transport errors.
    pub fn run(&mut self) -> Result<TrainingHistory> {
        let config = self.actors.config.clone();
        RoundDriver::run(self, &config)
    }

    /// One four-message protocol round; returns the mean platform loss.
    fn run_round(&mut self, round: u64) -> Result<f32> {
        let Actors {
            config,
            platforms,
            server,
            ..
        } = &mut self.actors;
        let k = platforms.len();
        let mut losses = Vec::with_capacity(k);
        match config.scheduling {
            Scheduling::Aggregate => {
                // Step 1: every platform forwards L1 and transmits
                // activations.
                for p in platforms.iter_mut() {
                    let env = p.start_round(round)?;
                    self.transport.send(env)?;
                }
                // Step 2: server concatenates all platform batches, one forward.
                let acts: Vec<Envelope> = (0..k)
                    .map(|_| expect_msg(self.transport, NodeId::Server))
                    .collect::<Result<_>>()?;
                for env in server.aggregate_forward(&acts)? {
                    self.transport.send(env)?;
                }
                // Step 3: platforms compute local losses, transmit gradients.
                for p in platforms.iter_mut() {
                    let env = expect_msg(self.transport, p.node())?;
                    let (grads, loss) = p.handle_logits(&env)?;
                    losses.push(loss);
                    self.transport.send(grads)?;
                }
                // Step 4: server backward + update, cut gradients back.
                let grads: Vec<Envelope> = (0..k)
                    .map(|_| expect_msg(self.transport, NodeId::Server))
                    .collect::<Result<_>>()?;
                for env in server.aggregate_backward(&grads)? {
                    self.transport.send(env)?;
                }
                // Step 5: platforms backpropagate L1.
                for p in platforms.iter_mut() {
                    let env = expect_msg(self.transport, p.node())?;
                    p.handle_cut_grads(&env)?;
                }
            }
            Scheduling::RoundRobin => {
                // The server exchanges with one platform at a time, in
                // platform order; each platform transmits its activations
                // when its turn starts.
                for p in platforms.iter_mut() {
                    let env = p.start_round(round)?;
                    self.transport.send(env)?;
                    let acts = expect_msg(self.transport, NodeId::Server)?;
                    let logits = server.platform_forward(&acts)?;
                    self.transport.send(logits)?;
                    let env = expect_msg(self.transport, p.node())?;
                    let (grads, loss) = p.handle_logits(&env)?;
                    losses.push(loss);
                    self.transport.send(grads)?;
                    let genv = expect_msg(self.transport, NodeId::Server)?;
                    let cut = server.platform_backward(&genv)?;
                    self.transport.send(cut)?;
                    let cenv = expect_msg(self.transport, p.node())?;
                    p.handle_cut_grads(&cenv)?;
                }
            }
        }
        Ok(losses.iter().sum::<f32>() / losses.len().max(1) as f32)
    }
}

/// Closes a round every platform took part in, however its messages
/// moved: charges the round's compute, then runs the `L1` sync if it is
/// due.
pub(crate) fn close_round<T: Transport>(actors: &mut Actors, transport: &T, round: u64) -> Result<()> {
    actors.charge_compute(transport.stats(), 0..actors.platforms.len());
    if actors.config.sync_due(round as usize) {
        sync_l1(actors, transport, round)?;
    }
    Ok(())
}

/// Runs the configured `L1` synchronisation (extension strategies).
fn sync_l1<T: Transport>(actors: &mut Actors, transport: &T, round: u64) -> Result<()> {
    let platforms = &mut actors.platforms;
    let k = platforms.len();
    // Platforms upload their L1 parameters via the server.
    for p in platforms.iter_mut() {
        let params = p.l1_parameters();
        transport.send(tensor_envelope(
            p.node(),
            NodeId::Server,
            round,
            MessageKind::L1Sync,
            &params,
        ))?;
    }
    let mut uploads: Vec<(usize, Tensor)> = Vec::with_capacity(k);
    for _ in 0..k {
        let env = expect_msg(transport, NodeId::Server)?;
        let pid = crate::messages::sender_platform(&env)?;
        uploads.push((pid, decode_tensor(&env, MessageKind::L1Sync)?));
    }
    uploads.sort_by_key(|(pid, _)| *pid);
    let outgoing: Vec<(usize, Tensor)> = match actors.config.l1_sync {
        L1Sync::CommonInit => return Ok(()),
        L1Sync::PeriodicAverage { .. } => {
            // Weighted by shard size, as FedAvg does.
            let weights: Vec<f32> = platforms.iter().map(|p| p.shard_size() as f32).collect();
            let total: f32 = weights.iter().sum();
            let mut avg = Tensor::zeros(uploads[0].1.shape().clone());
            for ((_, t), w) in uploads.iter().zip(&weights) {
                avg.axpy(w / total, t)?;
            }
            (0..k).map(|pid| (pid, avg.clone())).collect()
        }
        L1Sync::CyclicShare { .. } => {
            // Platform p adopts the parameters of its ring predecessor.
            (0..k)
                .map(|pid| (pid, uploads[(pid + k - 1) % k].1.clone()))
                .collect()
        }
    };
    for (pid, params) in &outgoing {
        transport.send(tensor_envelope(
            NodeId::Server,
            NodeId::Platform(*pid),
            round,
            MessageKind::L1Sync,
            params,
        ))?;
    }
    for p in platforms.iter_mut() {
        let env = expect_msg(transport, p.node())?;
        let params = decode_tensor(&env, MessageKind::L1Sync)?;
        p.set_l1_parameters(&params)?;
    }
    Ok(())
}

impl<T: Transport> RoundDriver for SplitTrainer<'_, T> {
    fn method(&self) -> &'static str {
        self.actors.method
    }

    fn full_round(&self) -> usize {
        self.actors.platforms.len()
    }

    fn set_lr(&mut self, lr: f32) {
        self.actors.set_lr(lr);
    }

    fn stats(&self) -> &NetStats {
        self.transport.stats()
    }

    fn round(&mut self, round: u64) -> Result<(f32, usize)> {
        let mean_loss = self.run_round(round)?;
        close_round(&mut self.actors, self.transport, round)?;
        Ok((mean_loss, self.actors.platforms.len()))
    }

    fn evaluate(&mut self) -> Result<f32> {
        SplitTrainer::evaluate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::fixtures::{self, arch};
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_simnet::{MemoryTransport, StarTopology};

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

    fn config(rounds: usize, scheduling: Scheduling) -> SplitConfig {
        SplitConfig {
            scheduling,
            ..fixtures::config(rounds)
        }
    }

    #[test]
    fn training_improves_accuracy() {
        let (shards, test) = setup(3);
        let transport = MemoryTransport::new(StarTopology::new(3));
        let mut trainer = SplitTrainer::new(
            &arch(),
            config(60, Scheduling::Aggregate),
            shards,
            test,
            &transport,
        )
        .unwrap();
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
    fn round_robin_also_learns() {
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = SplitTrainer::new(
            &arch(),
            config(60, Scheduling::RoundRobin),
            shards,
            test,
            &transport,
        )
        .unwrap();
        let history = trainer.run().unwrap();
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn four_message_kinds_and_counts() {
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = SplitTrainer::new(
            &arch(),
            config(5, Scheduling::Aggregate),
            shards,
            test,
            &transport,
        )
        .unwrap();
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
        let mut trainer = SplitTrainer::new(
            &arch(),
            config(1, Scheduling::Aggregate),
            shards,
            test,
            &transport,
        )
        .unwrap();
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
        let mut cfg = config(4, Scheduling::Aggregate);
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
            let mut cfg = config(1, Scheduling::Aggregate);
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
            SplitTrainer::new(
                &arch(),
                config(1, Scheduling::Aggregate),
                vec![],
                test.clone(),
                &transport
            ),
            Err(SplitError::Config(_))
        ));
        // Dirty transport rejected.
        transport
            .send(Envelope::control(NodeId::Platform(0), NodeId::Server, 0))
            .unwrap();
        assert!(matches!(
            SplitTrainer::new(
                &arch(),
                config(1, Scheduling::Aggregate),
                shards,
                test,
                &transport
            ),
            Err(SplitError::Config(_))
        ));
    }

    #[test]
    fn adam_optimizer_also_learns() {
        use crate::config::OptimizerKind;
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(50, Scheduling::Aggregate);
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
            let mut cfg = config(40, Scheduling::Aggregate);
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
            let mut cfg = config(40, Scheduling::Aggregate);
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
            let mut cfg = config(10, Scheduling::Aggregate);
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
        let mut cfg = config(1, Scheduling::Aggregate);
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
