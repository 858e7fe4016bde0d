//! End-to-end label leakage: what an honest-but-curious server can read
//! from the live protocol traffic — and how the U-shaped variant stops it.

use std::sync::Mutex;
use std::time::Duration;

use medsplit::core::{SplitConfig, SplitTrainer, UShapeTrainer};
use medsplit::data::{InMemoryDataset, MinibatchPolicy, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::privacy::label_recovery_rate;
use medsplit::simnet::{Envelope, MemoryTransport, MessageKind, NetError, NodeId, StarTopology, Transport};
use medsplit::tensor::Tensor;

/// A transport decorator that records every payload of one message kind —
/// the "curious server" tapping its own inbox.
struct RecordingTransport {
    inner: MemoryTransport,
    kind: MessageKind,
    captured: Mutex<Vec<Tensor>>,
}

impl RecordingTransport {
    fn new(inner: MemoryTransport, kind: MessageKind) -> Self {
        RecordingTransport {
            inner,
            kind,
            captured: Mutex::new(Vec::new()),
        }
    }

    fn captured(&self) -> Vec<Tensor> {
        self.captured.lock().unwrap().clone()
    }
}

impl Transport for RecordingTransport {
    fn send(&self, env: Envelope) -> Result<(), NetError> {
        if env.kind == self.kind {
            if let Ok(t) = Tensor::from_bytes(env.payload.clone()) {
                self.captured.lock().unwrap().push(t);
            }
        }
        self.inner.send(env)
    }
    fn try_recv(&self, node: NodeId) -> Option<Envelope> {
        self.inner.try_recv(node)
    }
    fn recv_timeout(&self, node: NodeId, timeout: Duration) -> Result<Envelope, NetError> {
        self.inner.recv_timeout(node, timeout)
    }
    fn stats(&self) -> &medsplit::simnet::NetStats {
        self.inner.stats()
    }
    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// A single-class shard: every sample has the same known label, so row
/// order inside the platform's private minibatch does not matter.
fn single_class_shard(class: usize, n: usize) -> InMemoryDataset {
    let ds = SyntheticTabular::new(3, 6, 7).generate(3 * n).unwrap();
    let idx: Vec<usize> = (0..ds.len()).filter(|&i| ds.labels()[i] == class).collect();
    ds.subset(&idx[..n]).unwrap()
}

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 6,
        hidden: vec![12, 8],
        num_classes: 3,
    })
}

fn config(rounds: usize) -> SplitConfig {
    SplitConfig {
        rounds,
        eval_every: 0,
        lr: LrSchedule::Constant(0.05),
        minibatch: MinibatchPolicy::Fixed(6),
        ..SplitConfig::default()
    }
}

#[test]
fn standard_protocol_leaks_labels_to_the_server() {
    // Two hospitals whose patients all share one diagnosis each.
    let shards = vec![single_class_shard(0, 12), single_class_shard(2, 12)];
    let test = SyntheticTabular::new(3, 6, 8).generate(30).unwrap();
    let transport = RecordingTransport::new(
        MemoryTransport::new(StarTopology::new(2)),
        MessageKind::LogitGrads,
    );
    let mut trainer = SplitTrainer::new(&arch(), config(3), shards, test, &transport).unwrap();
    let _ = trainer.run().unwrap();

    let captured = transport.captured();
    assert_eq!(
        captured.len(),
        2 * 3,
        "one gradient message per platform per round"
    );
    // The curious server recovers every label from the gradients alone:
    // batches alternate platform 0 (class 0) and platform 1 (class 2).
    for (i, grads) in captured.iter().enumerate() {
        let class = if i % 2 == 0 { 0 } else { 2 };
        let truth = vec![class; grads.dims()[0]];
        let rate = label_recovery_rate(grads, &truth).unwrap();
        assert_eq!(rate, 1.0, "message {i}: expected full label recovery, got {rate}");
    }
}

#[test]
fn u_shaped_variant_defeats_the_label_attack() {
    let shards = vec![single_class_shard(0, 12), single_class_shard(2, 12)];
    let test = SyntheticTabular::new(3, 6, 8).generate(30).unwrap();
    let transport = RecordingTransport::new(
        MemoryTransport::new(StarTopology::new(2)),
        MessageKind::FeatureGrads,
    );
    let mut trainer = UShapeTrainer::new(&arch(), config(3), 1, shards, test, &transport).unwrap();
    let _ = trainer.run().unwrap();

    let captured = transport.captured();
    assert_eq!(captured.len(), 2 * 3);
    // Feature gradients live in an 8-wide hidden space, not the 3-class
    // logit space: the argmin attack has nothing to grab onto. (Width
    // mismatch alone already defeats the column-reading attack; we also
    // verify that treating the first 3 columns as "logit" columns does not
    // recover the labels.)
    let mut hits = 0usize;
    let mut total = 0usize;
    for (i, grads) in captured.iter().enumerate() {
        assert_eq!(grads.dims()[1], 8, "feature grads live in hidden space");
        let class = if i % 2 == 0 { 0 } else { 2 };
        let cols3: Vec<f32> = grads
            .as_slice()
            .chunks(8)
            .flat_map(|row| row[..3].to_vec())
            .collect();
        let fake_logit_grads = Tensor::from_vec(cols3, [grads.dims()[0], 3]).unwrap();
        let truth = vec![class; grads.dims()[0]];
        hits += (label_recovery_rate(&fake_logit_grads, &truth).unwrap() * truth.len() as f32) as usize;
        total += truth.len();
    }
    let rate = hits as f32 / total as f32;
    assert!(
        rate < 0.8,
        "U-shaped gradients should not trivially reveal labels (rate {rate})"
    );
}

#[test]
fn recording_transport_is_transparent() {
    // The tap must not change what the protocol sees or counts.
    let shards = vec![single_class_shard(0, 12), single_class_shard(2, 12)];
    let test = SyntheticTabular::new(3, 6, 8).generate(30).unwrap();

    let plain = MemoryTransport::new(StarTopology::new(2));
    let mut t1 = SplitTrainer::new(&arch(), config(3), shards.clone(), test.clone(), &plain).unwrap();
    let h1 = t1.run().unwrap();

    let tapped = RecordingTransport::new(
        MemoryTransport::new(StarTopology::new(2)),
        MessageKind::Activations,
    );
    let mut t2 = SplitTrainer::new(&arch(), config(3), shards, test, &tapped).unwrap();
    let h2 = t2.run().unwrap();

    assert_eq!(h1.stats.total_bytes, h2.stats.total_bytes);
    assert!((h1.final_accuracy - h2.final_accuracy).abs() < 1e-6);
    assert_eq!(tapped.captured().len(), 6);
}
