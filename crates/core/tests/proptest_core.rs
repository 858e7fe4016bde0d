//! Property-based tests for the split-protocol building blocks.

use medsplit_core::messages::{decode_tensor, tensor_envelope, tensor_envelope_codec};
use medsplit_core::{build_split, comm, resolve_split, SplitPoint, WireCodec};
use medsplit_nn::vectorize::parameter_vector;
use medsplit_nn::{Architecture, Layer, MlpConfig, Mode};
use medsplit_simnet::{MessageKind, NodeId};
use medsplit_tensor::{init::rng_from_seed, Tensor};
use proptest::prelude::*;

fn arb_mlp() -> impl Strategy<Value = Architecture> {
    (1usize..10, 1usize..10, 2usize..6).prop_map(|(h1, h2, classes)| {
        Architecture::Mlp(MlpConfig {
            input_dim: 4,
            hidden: vec![h1, h2],
            num_classes: classes,
        })
    })
}

proptest! {
    /// For every valid cut, the client replicas are identical and
    /// client+server parameters partition the full model.
    #[test]
    fn split_partitions_parameters(arch in arb_mlp(), at_sel in 0usize..5, platforms in 1usize..5, seed in 0u64..300) {
        let layers = arch.build(0).len();
        let at = 1 + at_sel % (layers - 1);
        let mut sm = build_split(&arch, SplitPoint::At(at), seed, platforms).unwrap();
        prop_assert_eq!(sm.clients.len(), platforms);
        prop_assert_eq!(sm.client_params + sm.server_params, arch.param_count());
        let v0 = parameter_vector(&mut sm.clients[0]);
        for c in &mut sm.clients[1..] {
            prop_assert_eq!(parameter_vector(c), v0.clone());
        }
        // Function preserved through the cut.
        let mut full = arch.build(seed);
        let mut rng = rng_from_seed(seed);
        let x = Tensor::rand_uniform([2, 4], -1.0, 1.0, &mut rng);
        let direct = full.forward(&x, Mode::Eval).unwrap();
        let mid = sm.clients[0].forward(&x, Mode::Eval).unwrap();
        let composed = sm.server.forward(&mid, Mode::Eval).unwrap();
        prop_assert!(direct.allclose(&composed, 1e-5));
    }

    /// Invalid cuts are rejected, valid ones resolved.
    #[test]
    fn cut_resolution(arch in arb_mlp(), at in 0usize..20) {
        let layers = arch.build(0).len();
        let res = resolve_split(&arch, SplitPoint::At(at));
        if at == 0 || at >= layers {
            prop_assert!(res.is_err());
        } else {
            prop_assert_eq!(res.unwrap(), at);
        }
        prop_assert_eq!(resolve_split(&arch, SplitPoint::Default).unwrap(), arch.default_split());
    }

    /// Envelope round trips are identity for f32 and bounded-error for f16.
    #[test]
    fn envelope_codec_roundtrip(rows in 1usize..6, cols in 1usize..6, seed in 0u64..300) {
        let mut rng = rng_from_seed(seed);
        let t = Tensor::rand_uniform([rows, cols], -10.0, 10.0, &mut rng);
        let exact = tensor_envelope(NodeId::Platform(0), NodeId::Server, 1, MessageKind::Activations, &t);
        prop_assert_eq!(decode_tensor(&exact, MessageKind::Activations).unwrap(), t.clone());

        let half = tensor_envelope_codec(NodeId::Platform(0), NodeId::Server, 1, MessageKind::Activations, &t, WireCodec::F16);
        prop_assert!(half.payload.len() < exact.payload.len());
        let back = decode_tensor(&half, MessageKind::Activations).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-6, "{} vs {}", a, b);
        }
    }

    /// Analytic split cost is additive over platforms and linear in batch.
    #[test]
    fn split_cost_additive(batches in prop::collection::vec(1usize..64, 1..6), act in 1usize..512, classes in 2usize..100) {
        let total = comm::split_round_bytes(&batches, &[act], classes);
        let sum: u64 = batches.iter().map(|&b| comm::split_round_bytes(&[b], &[act], classes)).sum();
        prop_assert_eq!(total, sum);
        // Strictly increasing in activation width.
        prop_assert!(comm::split_round_bytes(&batches, &[act + 1], classes) > total);
    }

    /// Model-exchange costs are linear in the platform count.
    #[test]
    fn model_exchange_cost_linear(platforms in 1usize..20, params in 1usize..2_000_000) {
        let one = comm::fedavg_round_bytes(1, params);
        prop_assert_eq!(comm::fedavg_round_bytes(platforms, params), one * platforms as u64);
        prop_assert_eq!(comm::sync_sgd_round_bytes(platforms, params), comm::fedavg_round_bytes(platforms, params));
    }

    /// `relay::unbatch` on arbitrary and on mutated-valid batch payloads:
    /// inner envelopes that fit inside the batch, or a typed error.
    #[test]
    fn unbatch_survives_hostile_batches(
        lens in prop::collection::vec(0usize..80, 0..4),
        noise in prop::collection::vec(0u8..=255, 0..120),
        at in 0usize..400,
        with in 0u8..=255,
        cut in 0usize..60,
    ) {
        use medsplit_core::relay;
        use medsplit_simnet::{Envelope, MessageKind, NodeId, FRAME_HEADER_LEN};
        let inner: Vec<Envelope> = lens.iter().enumerate().map(|(i, &n)| {
            Envelope::new(NodeId::Platform(i), NodeId::Server, 2, MessageKind::Activations, bytes::Bytes::from(vec![i as u8; n]))
        }).collect();
        let clean = relay::batch_upstream(0, 2, &inner);
        prop_assert_eq!(relay::unbatch(&clean).unwrap().len(), inner.len());
        let mut mutated = clean.payload.to_vec();
        if !mutated.is_empty() {
            let at = at % mutated.len();
            mutated[at] = with;
            mutated.truncate(mutated.len() - cut.min(mutated.len()));
        }
        for payload in [mutated, noise] {
            let total = payload.len();
            let batch = Envelope::new(NodeId::Relay(0), NodeId::Server, 2, MessageKind::RelayBatch, bytes::Bytes::from(payload));
            prop_assert!(batch.logical_size() >= medsplit_simnet::HEADER_BYTES);
            if let Ok(envs) = relay::unbatch(&batch) {
                let framed: usize = envs.iter().map(|e| FRAME_HEADER_LEN + e.payload.len()).sum();
                prop_assert_eq!(framed, total);
            }
        }
    }
}
