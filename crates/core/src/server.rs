//! The server-side actor: owns the hidden layers `L2..Lk` and the output
//! layer, and trains them on activations from *all* platforms.

use medsplit_nn::{Layer, Mode, Optimizer, Sequential};
use medsplit_simnet::{Envelope, MessageKind, NodeId};
use medsplit_tensor::Tensor;

use crate::config::WireCodec;
use crate::error::{Result, SplitError};
use crate::messages::{decode_batch, sender_platform};
#[cfg(test)]
use crate::messages::{decode_tensor, tensor_envelope};

/// The central server: layers `L2..Lk`, an optimiser for them, and the
/// per-round bookkeeping needed to route logits and cut gradients back to
/// the right platform.
pub struct SplitServer {
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
    /// Batch layout of the in-flight aggregated round:
    /// `(platform, batch_size)` in concatenation order.
    layout: Vec<(usize, usize)>,
    codec: WireCodec,
    /// Kind of the server's forward output (Logits for the standard
    /// protocol; Features for the U-shaped variant).
    fwd_out_kind: MessageKind,
    /// Kind expected for the platforms' backward input (LogitGrads /
    /// FeatureGrads).
    bwd_in_kind: MessageKind,
}

impl SplitServer {
    /// Creates the server actor from the `L2..Lk` suffix of the network.
    pub fn new(model: Sequential, momentum: f32) -> Self {
        SplitServer {
            model,
            optimizer: crate::config::OptimizerKind::Sgd.build(momentum),
            layout: Vec::new(),
            codec: WireCodec::F32,
            fwd_out_kind: MessageKind::Logits,
            bwd_in_kind: MessageKind::LogitGrads,
        }
    }

    /// Creates a server for the U-shaped variant: its forward output is a
    /// feature map (the platform holds the classifier head), so the
    /// messages are tagged [`MessageKind::Features`] /
    /// [`MessageKind::FeatureGrads`].
    pub fn new_u_shaped(model: Sequential, momentum: f32) -> Self {
        let mut s = Self::new(model, momentum);
        s.fwd_out_kind = MessageKind::Features;
        s.bwd_in_kind = MessageKind::FeatureGrads;
        s
    }

    /// Sets the learning rate for the server-side optimiser.
    pub fn set_lr(&mut self, lr: f32) {
        self.optimizer.set_learning_rate(lr);
    }

    /// Sets the wire codec used for outbound protocol tensors.
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = codec;
    }

    /// Replaces the server-side optimiser (resets its state).
    pub fn set_optimizer(&mut self, optimizer: Box<dyn Optimizer>) {
        self.optimizer = optimizer;
    }

    /// Mutable access to the server model (evaluation, checkpointing).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Number of trainable parameters on the server side.
    pub fn param_count(&mut self) -> usize {
        self.model.param_count()
    }

    /// Runs the server layers in inference mode (used to compose the
    /// deployed model during evaluation and by the serving path).
    ///
    /// The forward runs in [`Mode::Eval`] and the model's recorded mode is
    /// restored afterwards, so inference interleaved with training leaves
    /// no trace: no dropout, no running-statistics updates, no cached
    /// backward state, and the mode bookkeeping a caller may rely on is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn infer(&mut self, activations: &Tensor) -> Result<Tensor> {
        let prior = self.model.mode();
        let result = self.model.forward(activations, Mode::Eval);
        self.model.set_mode(prior);
        Ok(result?)
    }

    /// Serialises the server model (parameters + batch-norm state) into a
    /// checkpoint blob, so a crashed server can resume without retraining.
    pub fn checkpoint(&mut self) -> bytes::Bytes {
        medsplit_nn::vectorize::snapshot_vector(&mut self.model).to_bytes()
    }

    /// FNV-1a digest of the server model's full snapshot (parameters +
    /// batch-norm state). Fleet replicas use it to verify that a restored
    /// weight version is bit-identical to the bank's copy without moving
    /// the snapshot again.
    pub fn weights_digest(&mut self) -> u64 {
        medsplit_nn::vectorize::parameter_digest(&mut self.model)
    }

    /// Restores a checkpoint produced by [`checkpoint`](Self::checkpoint).
    ///
    /// Optimiser momentum is not part of the checkpoint: after a restore,
    /// training resumes with fresh momentum buffers (the standard
    /// trade-off for parameter-only checkpoints).
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

    /// **Aggregate forward**: concatenates all platforms' activation
    /// batches (sorted by platform id), runs one forward pass, and returns
    /// per-platform logits messages.
    ///
    /// # Errors
    ///
    /// Returns protocol errors for duplicate/foreign senders or decode
    /// failures.
    pub fn aggregate_forward(&mut self, acts: &[Envelope]) -> Result<Vec<Envelope>> {
        if acts.is_empty() {
            return Err(SplitError::Protocol("aggregate round with no activations".into()));
        }
        let round = acts[0].round;
        let _span = medsplit_telemetry::span_round("server_fwd_bwd", round);
        let mut senders: Vec<(usize, &Envelope)> = Vec::with_capacity(acts.len());
        for env in acts {
            let pid = sender_platform(env)?;
            if senders.iter().any(|(p, _)| *p == pid) {
                return Err(SplitError::Protocol(format!(
                    "duplicate activations from platform {pid}"
                )));
            }
            senders.push((pid, env));
        }
        senders.sort_by_key(|(pid, _)| *pid);
        let (batch, rows) = decode_batch(senders.iter().map(|(_, env)| *env), MessageKind::Activations)?;
        self.layout = senders.iter().map(|(pid, _)| *pid).zip(rows).collect();
        let logits = self.model.forward(&batch, Mode::Train)?;
        self.replies(round, self.fwd_out_kind, &logits)
    }

    /// One reply per platform of the in-flight layout, each encoded
    /// straight from its row range of `batch`.
    fn replies(&self, round: u64, kind: MessageKind, batch: &Tensor) -> Result<Vec<Envelope>> {
        let mut offset = 0;
        self.layout
            .iter()
            .map(|&(pid, n)| {
                let payload = batch.encode_rows(offset..offset + n, self.codec)?;
                offset += n;
                Ok(Envelope::new(
                    NodeId::Server,
                    NodeId::Platform(pid),
                    round,
                    kind,
                    payload,
                ))
            })
            .collect()
    }

    /// **Aggregate backward**: concatenates the platforms' logit
    /// gradients (in the layout order of the forward), backpropagates
    /// once, applies the optimiser step, and returns per-platform
    /// cut-gradient messages.
    ///
    /// # Errors
    ///
    /// Returns protocol errors if the senders or batch sizes do not match
    /// the in-flight layout.
    pub fn aggregate_backward(&mut self, grads: &[Envelope]) -> Result<Vec<Envelope>> {
        let _span = match grads.first() {
            Some(g) => medsplit_telemetry::span_round("server_fwd_bwd", g.round),
            None => medsplit_telemetry::span("server_fwd_bwd"),
        };
        if self.layout.is_empty() {
            return Err(SplitError::Protocol(
                "aggregate backward with no forward in flight".into(),
            ));
        }
        if grads.len() != self.layout.len() {
            return Err(SplitError::Protocol(format!(
                "expected {} gradient messages, got {}",
                self.layout.len(),
                grads.len()
            )));
        }
        let round = grads[0].round;
        let mut by_slot: Vec<Option<&Envelope>> = vec![None; self.layout.len()];
        for env in grads {
            let pid = sender_platform(env)?;
            let slot = self.layout.iter().position(|(p, _)| *p == pid).ok_or_else(|| {
                SplitError::Protocol(format!("gradients from platform {pid} not in this round"))
            })?;
            if by_slot[slot].replace(env).is_some() {
                return Err(SplitError::Protocol(format!(
                    "duplicate gradients from platform {pid}"
                )));
            }
        }
        // As many distinct slots as the layout has: every slot is filled.
        let (grad, rows) = decode_batch(by_slot.iter().flatten().copied(), self.bwd_in_kind)?;
        for (&(pid, expected), got) in self.layout.iter().zip(rows) {
            if got != expected {
                return Err(SplitError::Protocol(format!(
                    "platform {pid} sent a gradient batch of {got} rows, expected {expected}"
                )));
            }
        }
        let cut = self.model.backward(&grad)?;
        self.optimizer.step_and_zero(&mut self.model);
        let out = self.replies(round, MessageKind::CutGrads, &cut)?;
        self.layout.clear();
        Ok(out)
    }
}

impl std::fmt::Debug for SplitServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitServer")
            .field("model", &self.model.describe())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_nn::Dense;
    use medsplit_tensor::init::rng_from_seed;

    fn server(seed: u64) -> SplitServer {
        let mut rng = rng_from_seed(seed);
        let mut s = Sequential::new("server");
        s.push(Dense::new(6, 3, &mut rng));
        SplitServer::new(s, 0.0)
    }

    fn acts_env(pid: usize, rows: usize, round: u64) -> Envelope {
        tensor_envelope(
            NodeId::Platform(pid),
            NodeId::Server,
            round,
            MessageKind::Activations,
            &Tensor::ones([rows, 6]),
        )
    }

    fn grads_env(pid: usize, rows: usize, round: u64) -> Envelope {
        tensor_envelope(
            NodeId::Platform(pid),
            NodeId::Server,
            round,
            MessageKind::LogitGrads,
            &Tensor::full([rows, 3], 0.1),
        )
    }

    #[test]
    fn aggregate_roundtrip_slices_per_platform() {
        let mut s = server(0);
        let logits = s
            .aggregate_forward(&[acts_env(1, 2, 0), acts_env(0, 3, 0)])
            .unwrap();
        // Sorted by platform id regardless of arrival order.
        assert_eq!(logits[0].dst, NodeId::Platform(0));
        assert_eq!(
            decode_tensor(&logits[0], MessageKind::Logits).unwrap().dims(),
            &[3, 3]
        );
        assert_eq!(
            decode_tensor(&logits[1], MessageKind::Logits).unwrap().dims(),
            &[2, 3]
        );

        let cuts = s
            .aggregate_backward(&[grads_env(0, 3, 0), grads_env(1, 2, 0)])
            .unwrap();
        assert_eq!(
            decode_tensor(&cuts[0], MessageKind::CutGrads).unwrap().dims(),
            &[3, 6]
        );
        assert_eq!(
            decode_tensor(&cuts[1], MessageKind::CutGrads).unwrap().dims(),
            &[2, 6]
        );
    }

    #[test]
    fn aggregate_protocol_violations() {
        let mut s = server(1);
        assert!(s.aggregate_forward(&[]).is_err());
        assert!(s.aggregate_backward(&[grads_env(0, 2, 0)]).is_err());
        let _ = s.aggregate_forward(&[acts_env(0, 2, 0)]).unwrap();
        // Wrong platform.
        assert!(s.aggregate_backward(&[grads_env(1, 2, 0)]).is_err());
        // Wrong batch size.
        assert!(s.aggregate_backward(&[grads_env(0, 5, 0)]).is_err());
        // Duplicate activations.
        let mut s2 = server(2);
        assert!(s2
            .aggregate_forward(&[acts_env(0, 2, 0), acts_env(0, 2, 0)])
            .is_err());
    }

    /// Replies are encoded straight from row ranges of the batch output:
    /// byte for byte what slicing the rows out and encoding them gives,
    /// per-slice int8 scale included.
    #[test]
    fn aggregate_replies_equal_sliced_then_encoded_rows() {
        let acts = [acts_env(0, 3, 0), acts_env(2, 1, 0), acts_env(1, 2, 0)];
        let exact: Vec<Tensor> = server(9)
            .aggregate_forward(&acts)
            .unwrap()
            .iter()
            .map(|e| decode_tensor(e, MessageKind::Logits).unwrap())
            .collect();
        for codec in [WireCodec::F32, WireCodec::F16, WireCodec::Int8] {
            let mut s = server(9);
            s.set_codec(codec);
            let replies = s.aggregate_forward(&acts).unwrap();
            assert_eq!(replies.len(), 3);
            for (reply, rows) in replies.iter().zip(&exact) {
                assert_eq!(reply.payload, rows.encode(codec), "{codec:?}");
                assert!(reply.verify_checksum());
            }
        }
    }

    #[test]
    fn aggregate_rejects_malformed_batches_without_panicking() {
        let scalar = tensor_envelope(
            NodeId::Platform(0),
            NodeId::Server,
            0,
            MessageKind::Activations,
            &Tensor::scalar(1.0),
        );
        assert!(server(1).aggregate_forward(&[scalar]).is_err());
        let narrow = tensor_envelope(
            NodeId::Platform(1),
            NodeId::Server,
            0,
            MessageKind::Activations,
            &Tensor::ones([2, 5]),
        );
        assert!(server(1).aggregate_forward(&[acts_env(0, 2, 0), narrow]).is_err());
        let mut torn = acts_env(0, 2, 0);
        torn.payload = torn.payload.slice(..20);
        assert!(server(1).aggregate_forward(&[torn]).is_err());
        assert!(server(1).aggregate_forward(&[grads_env(0, 2, 0)]).is_err());
    }

    #[test]
    fn aggregate_updates_parameters() {
        let mut s = server(3);
        let before = medsplit_nn::vectorize::parameter_vector(s.model_mut());
        let _ = s.aggregate_forward(&[acts_env(0, 4, 0)]).unwrap();
        s.set_lr(0.5);
        let _ = s.aggregate_backward(&[grads_env(0, 4, 0)]).unwrap();
        let after = medsplit_nn::vectorize::parameter_vector(s.model_mut());
        assert_ne!(before, after);
    }

    #[test]
    fn infer_is_deterministic_and_restores_mode() {
        let mut rng = rng_from_seed(5);
        let mut m = Sequential::new("server");
        m.push(Dense::new(6, 8, &mut rng));
        m.push(medsplit_nn::BatchNorm::new(8));
        m.push(medsplit_nn::Dropout::new(0.3, 5));
        m.push(Dense::new(8, 3, &mut rng));
        let mut s = SplitServer::new(m, 0.0);

        // Mid-training inference: a forward is in flight.
        let _ = s.aggregate_forward(&[acts_env(0, 2, 0)]).unwrap();
        assert_eq!(s.model_mut().mode(), Mode::Train);
        let x = Tensor::full([4, 6], 0.5);
        let a = s.infer(&x).unwrap();
        let b = s.infer(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "eval inference must be deterministic");
        assert_eq!(s.model_mut().mode(), Mode::Train, "mode must be restored");
        // The in-flight exchange still completes against the training cache.
        assert!(s.aggregate_backward(&[grads_env(0, 2, 0)]).is_ok());
    }

    #[test]
    fn weights_digest_matches_checkpoint_identity() {
        let mut a = server(6);
        let mut b = server(7);
        assert_ne!(a.weights_digest(), b.weights_digest());
        let blob = a.checkpoint();
        b.restore(&blob).unwrap();
        assert_eq!(a.weights_digest(), b.weights_digest());
    }
}
