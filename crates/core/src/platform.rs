//! The platform-side actor: owns local data, labels and the first hidden
//! layer `L1` — and, in the U-shaped variant, the final layers too.

use medsplit_data::{BatchSampler, InMemoryDataset};
use medsplit_nn::vectorize::{parameter_vector, set_parameter_vector};
use medsplit_nn::{softmax_cross_entropy, Layer, Mode, Optimizer, Sequential};
use medsplit_simnet::{Envelope, MessageKind, NodeId};
use medsplit_tensor::init::{rng_from_seed, StdRng};
use medsplit_tensor::Tensor;

use crate::config::WireCodec;
use crate::error::{Result, SplitError};
#[cfg(test)]
use crate::messages::tensor_envelope;
use crate::messages::{decode_tensor, tensor_envelope_codec};

/// One medical platform (hospital): its private shard, the `L1` replica,
/// and a local optimiser for `L1`.
///
/// Raw features and labels never leave this struct — the only outbound
/// tensors are `L1` activations (message 1) and loss gradients w.r.t. the
/// logits (message 3), exactly as in the paper's Fig. 2/3.
///
/// A platform given a tail also keeps the network's final layers
/// (Vepakomma et al., the paper's reference \[1\]): message 2 then carries
/// the server's output features instead of logits and message 3 the
/// gradients w.r.t. those features, so the server never sees logits.
pub struct Platform {
    id: usize,
    model: Sequential,
    data: InMemoryDataset,
    sampler: BatchSampler,
    optimizer: Box<dyn Optimizer>,
    batch_size: usize,
    grad_scale: f32,
    codec: WireCodec,
    noise_std: f32,
    noise_rng: StdRng,
    pending_labels: Option<Vec<usize>>,
    samples_seen: u64,
    tail: Option<Tail>,
}

/// The platform-side final layers of the U-shaped variant.
struct Tail {
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
}

impl Platform {
    /// Creates a platform actor.
    ///
    /// `model` is the `L1` prefix (already split off the full network);
    /// `batch_size` is this platform's `s_k` from the minibatch policy.
    ///
    /// # Panics
    ///
    /// Panics if the shard is empty or `batch_size == 0` (via
    /// [`BatchSampler::new`]).
    pub fn new(
        id: usize,
        model: Sequential,
        data: InMemoryDataset,
        batch_size: usize,
        momentum: f32,
        seed: u64,
    ) -> Self {
        let sampler = BatchSampler::new(
            data.len(),
            batch_size,
            seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let optimizer = crate::config::OptimizerKind::Sgd.build(momentum);
        Platform {
            id,
            model,
            data,
            sampler,
            optimizer,
            batch_size,
            grad_scale: 1.0,
            codec: WireCodec::F32,
            noise_std: 0.0,
            noise_rng: rng_from_seed(seed.rotate_left(17) ^ id as u64),
            pending_labels: None,
            samples_seen: 0,
            tail: None,
        }
    }

    /// Keeps the network's final layers on this platform (U-shaped
    /// variant). An empty `model` only re-tags messages 2 and 3.
    pub(crate) fn set_tail(&mut self, model: Sequential, optimizer: Box<dyn Optimizer>) {
        self.tail = Some(Tail { model, optimizer });
    }

    /// Enables Gaussian noising of every transmitted activation tensor
    /// (a lightweight privacy-enhancement defence; 0 disables).
    pub fn set_activation_noise(&mut self, std: f32) {
        self.noise_std = std;
    }

    /// Adds the configured activation noise to an outbound representation.
    fn noised(&mut self, acts: Tensor) -> Tensor {
        if self.noise_std == 0.0 {
            return acts;
        }
        let noise = Tensor::rand_normal(acts.shape().clone(), 0.0, self.noise_std, &mut self.noise_rng);
        acts.try_add(&noise).expect("noise shape matches activations")
    }

    /// Sets the factor the logit gradients are scaled by before
    /// transmission.
    ///
    /// The server concatenates the participating platforms' batches
    /// into one update, so each platform's locally-normalised
    /// cross-entropy gradient (divided by its own `s_k`) must be
    /// re-weighted by `s_k / Σ s` to make the concatenation equal the
    /// gradient of the mean loss over the union batch.
    pub fn set_grad_scale(&mut self, scale: f32) {
        self.grad_scale = scale;
    }

    /// Sets the wire codec used for outbound protocol tensors.
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = codec;
    }

    /// Replaces the local optimiser (resets any momentum/Adam state).
    pub fn set_optimizer(&mut self, optimizer: Box<dyn Optimizer>) {
        self.optimizer = optimizer;
    }

    /// This platform's node id.
    pub fn node(&self) -> NodeId {
        NodeId::Platform(self.id)
    }

    /// Platform index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Size of the local shard (`n_k`).
    pub fn shard_size(&self) -> usize {
        self.data.len()
    }

    /// This platform's minibatch size (`s_k`).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Total samples consumed so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Sets the learning rate for the local optimisers.
    pub fn set_lr(&mut self, lr: f32) {
        self.optimizer.set_learning_rate(lr);
        if let Some(tail) = &mut self.tail {
            tail.optimizer.set_learning_rate(lr);
        }
    }

    /// Mutable access to the local `L1` model (used for evaluation and by
    /// the privacy probes).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// **Protocol step 1** — samples a minibatch, runs `L1` forward, and
    /// returns the activations message for the server. Labels are retained
    /// locally for step 3.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the forward pass.
    pub fn start_round(&mut self, round: u64) -> Result<Envelope> {
        let _span = medsplit_telemetry::span_round("l1_forward", round);
        let (features, labels) = self.sampler.next_from(&self.data);
        self.samples_seen += labels.len() as u64;
        let acts = self.model.forward(&features, Mode::Train)?;
        let acts = self.noised(acts);
        self.pending_labels = Some(labels);
        Ok(tensor_envelope_codec(
            self.node(),
            NodeId::Server,
            round,
            MessageKind::Activations,
            &acts,
            self.codec,
        ))
    }

    /// **Protocol step 3** — receives the logits (message 2), computes the
    /// local loss against the retained labels, and returns the
    /// logit-gradient message plus the scalar loss.
    ///
    /// With a tail, message 2 carries [`MessageKind::Features`]: the tail
    /// turns them into logits, is trained on the loss right here, and the
    /// reply is the [`MessageKind::FeatureGrads`] message.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if no round is in flight or the logits
    /// batch does not match the retained labels.
    pub fn handle_logits(&mut self, env: &Envelope) -> Result<(Envelope, f32)> {
        let _span = medsplit_telemetry::span_round("loss_grad", env.round);
        let (received_kind, reply_kind) = match self.tail {
            Some(_) => (MessageKind::Features, MessageKind::FeatureGrads),
            None => (MessageKind::Logits, MessageKind::LogitGrads),
        };
        let received = decode_tensor(env, received_kind)?;
        let labels = self.pending_labels.as_ref().ok_or_else(|| {
            SplitError::Protocol(format!(
                "platform {} got {received_kind} with no round in flight",
                self.id
            ))
        })?;
        let logits = match &mut self.tail {
            Some(tail) => tail.model.forward(&received, Mode::Train)?,
            None => received,
        };
        let out = softmax_cross_entropy(&logits, labels)?;
        let mut grad = if self.grad_scale == 1.0 {
            out.grad
        } else {
            out.grad.scale(self.grad_scale)
        };
        if let Some(tail) = &mut self.tail {
            grad = tail.model.backward(&grad)?;
            tail.optimizer.step_and_zero(&mut tail.model);
        }
        Ok((
            tensor_envelope_codec(
                self.node(),
                NodeId::Server,
                env.round,
                reply_kind,
                &grad,
                self.codec,
            ),
            out.loss,
        ))
    }

    /// **Protocol step 5 (final)** — receives the gradients at the cut
    /// (message 4), backpropagates them through `L1` and applies the local
    /// optimiser step.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if no round is in flight.
    pub fn handle_cut_grads(&mut self, env: &Envelope) -> Result<()> {
        let _span = medsplit_telemetry::span_round("l1_backward", env.round);
        let grads = decode_tensor(env, MessageKind::CutGrads)?;
        if self.pending_labels.take().is_none() {
            return Err(SplitError::Protocol(format!(
                "platform {} got cut grads with no round in flight",
                self.id
            )));
        }
        // `L1` sits on the raw data: nothing upstream wants its input
        // gradient.
        self.model.backward_params(&grads)?;
        self.optimizer.step_and_zero(&mut self.model);
        Ok(())
    }

    /// Flattened `L1` parameters (for the sync extensions).
    pub fn l1_parameters(&mut self) -> Tensor {
        parameter_vector(&mut self.model)
    }

    /// Serialises the local `L1` (parameters + batch-norm state) into a
    /// checkpoint blob.
    pub fn checkpoint(&mut self) -> bytes::Bytes {
        medsplit_nn::vectorize::snapshot_vector(&mut self.model).to_bytes()
    }

    /// Restores a checkpoint produced by [`checkpoint`](Self::checkpoint).
    ///
    /// # Errors
    ///
    /// Returns tensor errors for corrupt blobs or mismatched
    /// architectures.
    pub fn restore(&mut self, blob: &bytes::Bytes) -> Result<()> {
        let snapshot = Tensor::from_bytes(blob.clone())?;
        medsplit_nn::vectorize::load_snapshot_vector(&mut self.model, &snapshot)?;
        Ok(())
    }

    /// Overwrites the `L1` parameters (for the sync extensions).
    ///
    /// # Errors
    ///
    /// Propagates a length mismatch.
    pub fn set_l1_parameters(&mut self, params: &Tensor) -> Result<()> {
        set_parameter_vector(&mut self.model, params)?;
        Ok(())
    }

    /// Runs the local `L1` in inference mode (used to compose the deployed
    /// model during evaluation and by the serving path).
    ///
    /// The forward runs in [`Mode::Eval`] and the model's recorded mode is
    /// restored afterwards, so serving a request mid-training leaves the
    /// training state (cached activations, running statistics, mode
    /// bookkeeping) untouched.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn infer_l1(&mut self, features: &Tensor) -> Result<Tensor> {
        let prior = self.model.mode();
        let result = self.model.forward(features, Mode::Eval);
        self.model.set_mode(prior);
        let acts = result?;
        // The deployed system also transmits activations at inference
        // time, so the privacy noise applies there too.
        Ok(self.noised(acts))
    }

    /// Turns the server's inference output into logits: through the tail
    /// in inference mode if this platform keeps one, unchanged otherwise.
    pub(crate) fn infer_tail(&mut self, server_out: Tensor) -> Result<Tensor> {
        match &mut self.tail {
            Some(tail) => Ok(tail.model.forward(&server_out, Mode::Eval)?),
            None => Ok(server_out),
        }
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("id", &self.id)
            .field("shard", &self.data.len())
            .field("batch", &self.batch_size)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_data::SyntheticTabular;
    use medsplit_nn::{Activation, Dense};
    use medsplit_tensor::init::rng_from_seed;

    fn l1(seed: u64) -> Sequential {
        let mut rng = rng_from_seed(seed);
        let mut s = Sequential::new("l1");
        s.push(Dense::new(4, 6, &mut rng));
        s.push(Activation::relu());
        s
    }

    fn platform(seed: u64) -> Platform {
        let data = SyntheticTabular::new(3, 4, seed).generate(20).unwrap();
        Platform::new(0, l1(seed), data, 5, 0.0, seed)
    }

    #[test]
    fn start_round_produces_activations() {
        let mut p = platform(0);
        let env = p.start_round(0).unwrap();
        assert_eq!(env.kind, MessageKind::Activations);
        assert_eq!(env.src, NodeId::Platform(0));
        let acts = decode_tensor(&env, MessageKind::Activations).unwrap();
        assert_eq!(acts.dims(), &[5, 6]);
        assert_eq!(p.samples_seen(), 5);
    }

    #[test]
    fn full_round_updates_l1() {
        let mut p = platform(1);
        let before = p.l1_parameters();
        let _acts = p.start_round(0).unwrap();
        // Server stand-in: pretend logits = zeros [5, 3].
        let logits_env = tensor_envelope(
            NodeId::Server,
            p.node(),
            0,
            MessageKind::Logits,
            &Tensor::zeros([5, 3]),
        );
        let (grads_env, loss) = p.handle_logits(&logits_env).unwrap();
        assert!(loss > 0.0);
        assert_eq!(grads_env.kind, MessageKind::LogitGrads);
        // Cut grads matching L1 output shape.
        let cut_env = tensor_envelope(
            NodeId::Server,
            p.node(),
            0,
            MessageKind::CutGrads,
            &Tensor::ones([5, 6]),
        );
        p.set_lr(0.1);
        p.handle_cut_grads(&cut_env).unwrap();
        let after = p.l1_parameters();
        assert_ne!(before, after, "L1 parameters must change");
    }

    #[test]
    fn protocol_order_enforced() {
        let mut p = platform(2);
        let logits_env = tensor_envelope(
            NodeId::Server,
            p.node(),
            0,
            MessageKind::Logits,
            &Tensor::zeros([5, 3]),
        );
        assert!(matches!(
            p.handle_logits(&logits_env),
            Err(SplitError::Protocol(_))
        ));
        let cut_env = tensor_envelope(
            NodeId::Server,
            p.node(),
            0,
            MessageKind::CutGrads,
            &Tensor::ones([5, 6]),
        );
        assert!(matches!(
            p.handle_cut_grads(&cut_env),
            Err(SplitError::Protocol(_))
        ));
    }

    #[test]
    fn l1_parameter_roundtrip() {
        let mut p = platform(3);
        let v = p.l1_parameters();
        let doubled = v.scale(2.0);
        p.set_l1_parameters(&doubled).unwrap();
        assert_eq!(p.l1_parameters(), doubled);
        assert!(p.set_l1_parameters(&Tensor::ones([3])).is_err());
    }

    #[test]
    fn identical_seeds_give_identical_l1() {
        let mut a = platform(7);
        let mut b = {
            let data = SyntheticTabular::new(3, 4, 99).generate(20).unwrap();
            Platform::new(1, l1(7), data, 5, 0.0, 99)
        };
        assert_eq!(
            a.l1_parameters(),
            b.l1_parameters(),
            "paper postulate: same initial L1 weights"
        );
    }

    #[test]
    fn infer_does_not_disturb_training_cache() {
        let mut p = platform(8);
        let _ = p.start_round(0).unwrap();
        // An eval-mode inference in between must not clobber the cached batch.
        let _ = p.infer_l1(&Tensor::zeros([2, 4])).unwrap();
        let logits_env = tensor_envelope(
            NodeId::Server,
            p.node(),
            0,
            MessageKind::Logits,
            &Tensor::zeros([5, 3]),
        );
        assert!(p.handle_logits(&logits_env).is_ok());
        // The full round must still complete: backward consumes the cache
        // from start_round, not from the interleaved inference.
        let cut_env = tensor_envelope(
            NodeId::Server,
            p.node(),
            0,
            MessageKind::CutGrads,
            &Tensor::ones([5, 6]),
        );
        assert!(p.handle_cut_grads(&cut_env).is_ok());
    }

    /// An `L1` with every mode-sensitive layer the library has.
    fn stochastic_l1(seed: u64) -> Sequential {
        let mut rng = rng_from_seed(seed);
        let mut s = Sequential::new("l1");
        s.push(Dense::new(4, 6, &mut rng));
        s.push(medsplit_nn::BatchNorm::new(6));
        s.push(medsplit_nn::Dropout::new(0.5, seed));
        s.push(Activation::relu());
        s
    }

    #[test]
    fn inference_is_deterministic_and_restores_mode() {
        let data = SyntheticTabular::new(3, 4, 9).generate(20).unwrap();
        let mut p = Platform::new(0, stochastic_l1(9), data, 5, 0.0, 9);
        // Put the model firmly into training state first.
        let _ = p.start_round(0).unwrap();
        assert_eq!(p.model_mut().mode(), Mode::Train);
        let mut state_before = Vec::new();
        p.model_mut().visit_state(&mut |t| state_before.push(t.clone()));

        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.25).collect(), [2, 4]).unwrap();
        let a = p.infer_l1(&x).unwrap();
        let b = p.infer_l1(&x).unwrap();
        let c = p.infer_l1(&x).unwrap();
        // Eval mode: dropout off, running stats used — bit-identical runs.
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(b.as_slice(), c.as_slice());

        // The recorded mode is restored and no state was touched.
        assert_eq!(p.model_mut().mode(), Mode::Train);
        let mut state_after = Vec::new();
        p.model_mut().visit_state(&mut |t| state_after.push(t.clone()));
        assert_eq!(state_before.len(), state_after.len());
        for (before, after) in state_before.iter().zip(&state_after) {
            assert_eq!(before.as_slice(), after.as_slice(), "running stats changed");
        }
    }
}
