//! Analytic per-round communication costs (Table 1).
//!
//! These are *exact* wire-byte formulas for the three protocol families,
//! computed from real tensor shapes via [`medsplit_tensor::serialized_len`]
//! plus the per-message framing of [`medsplit_simnet::HEADER_BYTES`] — the
//! same sizes the live transport would count, without running training.
//! This is how the full-size VGG-16/ResNet-18 numbers are produced on a
//! CPU budget.

use medsplit_simnet::HEADER_BYTES;
use medsplit_tensor::{serialized_len, Shape};

/// Wire bytes for one message carrying a tensor of `shape`.
fn message_bytes(shape: &Shape) -> u64 {
    (serialized_len(shape) + HEADER_BYTES) as u64
}

/// Wire bytes for one message carrying a flat vector of `numel` floats
/// (model parameters / gradients).
pub fn flat_message_bytes(numel: usize) -> u64 {
    message_bytes(&Shape::from([numel]))
}

/// Per-round wire bytes of the split-learning protocol.
///
/// Each platform `k` with minibatch `s_k` exchanges four messages per
/// round: activations up (`[s_k, act_dims]`), logits down
/// (`[s_k, classes]`), logit gradients up (same as logits), cut gradients
/// down (same as activations).
pub fn split_round_bytes(batch_sizes: &[usize], act_dims: &[usize], classes: usize) -> u64 {
    batch_sizes
        .iter()
        .map(|&s| {
            let mut act_shape = vec![s];
            act_shape.extend_from_slice(act_dims);
            let act = message_bytes(&Shape::from(act_shape.as_slice()));
            let logits = message_bytes(&Shape::from([s, classes]));
            2 * act + 2 * logits
        })
        .sum()
}

/// Per-round wire bytes of FedAvg: every platform downloads the full model
/// and uploads its updated weights (2 × model per platform per round).
pub fn fedavg_round_bytes(platforms: usize, param_count: usize) -> u64 {
    platforms as u64 * 2 * flat_message_bytes(param_count)
}

/// Per-round (per-step) wire bytes of large-scale synchronous SGD: every
/// platform downloads the model and uploads a full gradient vector.
pub fn sync_sgd_round_bytes(platforms: usize, param_count: usize) -> u64 {
    platforms as u64 * 2 * flat_message_bytes(param_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_bytes_formula() {
        // [10, 16] f32: 8 header + 16 dims + 640 data + 64 framing.
        assert_eq!(message_bytes(&Shape::from([10, 16])), 8 + 16 + 640 + 64);
        assert_eq!(flat_message_bytes(100), (8 + 8 + 400 + 64) as u64);
    }

    #[test]
    fn split_cost_scales_with_batch_and_activation() {
        let small = split_round_bytes(&[8], &[16], 10);
        let bigger_batch = split_round_bytes(&[16], &[16], 10);
        let bigger_act = split_round_bytes(&[8], &[64], 10);
        assert!(bigger_batch > small);
        assert!(bigger_act > small);
        // Cost is per-platform additive.
        let two = split_round_bytes(&[8, 8], &[16], 10);
        assert_eq!(two, 2 * small);
    }

    #[test]
    fn split_is_independent_of_model_depth() {
        // The defining property: split cost depends only on the cut
        // activation and the logits, never on the parameter count.
        let a = split_round_bytes(&[32], &[64, 32, 32], 10);
        assert_eq!(a, split_round_bytes(&[32], &[64, 32, 32], 10));
        // No parameter count appears in the signature at all.
    }

    #[test]
    fn model_exchange_baselines_scale_with_params() {
        let small = fedavg_round_bytes(4, 1_000_000);
        let big = fedavg_round_bytes(4, 15_000_000);
        assert!(big > 14 * small / 2, "model-size scaling broken");
        assert_eq!(
            fedavg_round_bytes(4, 1_000_000),
            sync_sgd_round_bytes(4, 1_000_000)
        );
    }

    #[test]
    fn full_scale_ratio_matches_paper_shape() {
        // VGG-16-scale: ~15M params vs 64×32×32 activations at batch 128.
        let params = 15_000_000;
        let split = split_round_bytes(&[32, 32, 32, 32], &[64, 32, 32], 10);
        let sgd = sync_sgd_round_bytes(4, params);
        // Per *step*, sync-SGD moves model+grads (~120 MB/platform);
        // split moves activations (~33 MB/platform at s=32).
        assert!(
            sgd > split,
            "sync-SGD must be costlier per step: {sgd} vs {split}"
        );
        assert!(sgd as f64 / split as f64 > 3.0);
    }
}
