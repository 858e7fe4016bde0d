//! Flattening model parameters and gradients to single vectors.
//!
//! The federated baselines exchange whole models (FedAvg) or whole
//! gradients (synchronous SGD) over the network. Both are serialised as a
//! single flat tensor produced here; because
//! [`crate::Layer::visit_params`] produces a stable order
//! for a fixed architecture, `parameter_vector` ∘ `set_parameter_vector`
//! is the identity and two replicas of the same architecture can exchange
//! vectors safely.

use medsplit_tensor::{fnv1a, Result, Tensor, TensorError, FNV_OFFSET};

use crate::layer::Layer;

/// Concatenates every parameter value into one rank-1 tensor.
pub fn parameter_vector(layer: &mut dyn Layer) -> Tensor {
    let mut data = Vec::new();
    layer.visit_params(&mut |p| data.extend_from_slice(p.value.as_slice()));
    let n = data.len();
    Tensor::from_vec(data, [n]).expect("flat data matches its own length")
}

/// Concatenates every parameter gradient into one rank-1 tensor.
pub fn gradient_vector(layer: &mut dyn Layer) -> Tensor {
    let mut data = Vec::new();
    layer.visit_params(&mut |p| data.extend_from_slice(p.grad.as_slice()));
    let n = data.len();
    Tensor::from_vec(data, [n]).expect("flat data matches its own length")
}

/// Writes a flat vector back into the model's parameter values, in
/// visitation order.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if the vector length differs
/// from the model's parameter count.
pub fn set_parameter_vector(layer: &mut dyn Layer, vector: &Tensor) -> Result<()> {
    let expected = layer.param_count();
    if vector.numel() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: vector.numel(),
        });
    }
    let data = vector.as_slice();
    let mut offset = 0;
    layer.visit_params(&mut |p| {
        let n = p.numel();
        p.value.as_mut_slice().copy_from_slice(&data[offset..offset + n]);
        p.bump_version();
        offset += n;
    });
    Ok(())
}

/// Number of non-trainable state scalars (batch-norm running statistics).
fn state_count(layer: &mut dyn Layer) -> usize {
    let mut n = 0;
    layer.visit_state(&mut |t| n += t.numel());
    n
}

/// Concatenates every parameter value *and* every non-trainable state
/// tensor into one rank-1 tensor: the full model snapshot that
/// model-exchange protocols (FedAvg, sync-SGD) put on the wire.
pub fn snapshot_vector(layer: &mut dyn Layer) -> Tensor {
    let mut data = Vec::new();
    layer.visit_params(&mut |p| data.extend_from_slice(p.value.as_slice()));
    layer.visit_state(&mut |t| data.extend_from_slice(t.as_slice()));
    let n = data.len();
    Tensor::from_vec(data, [n]).expect("flat data matches its own length")
}

/// Writes a snapshot produced by [`snapshot_vector`] back into the model
/// (parameters first, then state, in visitation order).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on a length mismatch.
pub fn load_snapshot_vector(layer: &mut dyn Layer, vector: &Tensor) -> Result<()> {
    let expected = layer.param_count() + state_count(layer);
    if vector.numel() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: vector.numel(),
        });
    }
    let data = vector.as_slice();
    let mut offset = 0;
    layer.visit_params(&mut |p| {
        let n = p.numel();
        p.value.as_mut_slice().copy_from_slice(&data[offset..offset + n]);
        p.bump_version();
        offset += n;
    });
    layer.visit_state(&mut |t| {
        let n = t.numel();
        t.as_mut_slice().copy_from_slice(&data[offset..offset + n]);
        offset += n;
    });
    Ok(())
}

/// Concatenates the non-trainable state tensors into one rank-1 tensor.
pub fn state_vector(layer: &mut dyn Layer) -> Tensor {
    let mut data = Vec::new();
    layer.visit_state(&mut |t| data.extend_from_slice(t.as_slice()));
    let n = data.len();
    Tensor::from_vec(data, [n]).expect("flat data matches its own length")
}

/// Writes a flat vector back into the non-trainable state tensors.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on a length mismatch.
pub fn set_state_vector(layer: &mut dyn Layer, vector: &Tensor) -> Result<()> {
    let expected = state_count(layer);
    if vector.numel() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: vector.numel(),
        });
    }
    let data = vector.as_slice();
    let mut offset = 0;
    layer.visit_state(&mut |t| {
        let n = t.numel();
        t.as_mut_slice().copy_from_slice(&data[offset..offset + n]);
        offset += n;
    });
    Ok(())
}

/// FNV-1a digest over the bit patterns of every parameter *and* state
/// scalar, in visitation order. Two models agree on this digest iff their
/// snapshots are bit-identical, so fleet replicas can verify a restored
/// weight version (or a handed-off session's pinned model) without
/// shipping the whole vector again.
pub fn parameter_digest(layer: &mut dyn Layer) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut fold = |values: &[f32]| {
        for v in values {
            hash = fnv1a(hash, &v.to_bits().to_le_bytes());
        }
    };
    layer.visit_params(&mut |p| fold(p.value.as_slice()));
    layer.visit_state(&mut |t| fold(t.as_slice()));
    hash
}

/// Applies a flat update `value -= lr * update` across all parameters, in
/// visitation order — used by the synchronous-SGD server.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on a length mismatch.
pub fn apply_flat_update(layer: &mut dyn Layer, update: &Tensor, lr: f32) -> Result<()> {
    let expected = layer.param_count();
    if update.numel() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: update.numel(),
        });
    }
    let data = update.as_slice();
    let mut offset = 0;
    layer.visit_params(&mut |p| {
        let n = p.numel();
        for (v, &u) in p.value.as_mut_slice().iter_mut().zip(&data[offset..offset + n]) {
            *v -= lr * u;
        }
        p.bump_version();
        offset += n;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::Activation;
    use crate::layers::dense::Dense;
    use crate::sequential::Sequential;
    use medsplit_tensor::init::rng_from_seed;

    fn model(seed: u64) -> Sequential {
        let mut rng = rng_from_seed(seed);
        let mut s = Sequential::new("m");
        s.push(Dense::new(3, 5, &mut rng));
        s.push(Activation::relu());
        s.push(Dense::new(5, 2, &mut rng));
        s
    }

    #[test]
    fn roundtrip_is_identity() {
        let mut m = model(0);
        let v = parameter_vector(&mut m);
        assert_eq!(v.numel(), m.param_count());
        let mut m2 = model(99); // different values, same architecture
        set_parameter_vector(&mut m2, &v).unwrap();
        let v2 = parameter_vector(&mut m2);
        assert_eq!(v, v2);
    }

    #[test]
    fn set_rejects_wrong_length() {
        let mut m = model(1);
        assert!(set_parameter_vector(&mut m, &Tensor::ones([3])).is_err());
        assert!(apply_flat_update(&mut m, &Tensor::ones([3]), 0.1).is_err());
    }

    #[test]
    fn transferring_parameters_transfers_function() {
        use crate::layer::{Layer, Mode};
        let mut a = model(2);
        let mut b = model(3);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9], [1, 3]).unwrap();
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb_before = b.forward(&x, Mode::Eval).unwrap();
        assert!(!ya.allclose(&yb_before, 1e-6));
        let v = parameter_vector(&mut a);
        set_parameter_vector(&mut b, &v).unwrap();
        let yb_after = b.forward(&x, Mode::Eval).unwrap();
        assert!(ya.allclose(&yb_after, 1e-6));
    }

    #[test]
    fn gradient_vector_matches_grads() {
        use crate::layer::{Layer, Mode};
        let mut m = model(4);
        let x = Tensor::ones([2, 3]);
        let y = m.forward(&x, Mode::Train).unwrap();
        m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let g = gradient_vector(&mut m);
        assert_eq!(g.numel(), m.param_count());
        assert!(g.norm_sq() > 0.0);
        m.zero_grads();
        assert_eq!(gradient_vector(&mut m).norm_sq(), 0.0);
    }

    #[test]
    fn snapshot_includes_batchnorm_state() {
        use crate::layer::{Layer, Mode};
        use crate::layers::batchnorm::BatchNorm;
        let mk = || {
            let mut rng = rng_from_seed(6);
            let mut s = Sequential::new("bn");
            s.push(Dense::new(3, 4, &mut rng));
            s.push(BatchNorm::new(4));
            s
        };
        let mut m = mk();
        assert_eq!(state_count(&mut m), 8); // running mean + var
                                            // Train a step so running stats move away from their defaults.
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), [4, 3]).unwrap();
        let _ = m.forward(&x, Mode::Train).unwrap();
        let snap = snapshot_vector(&mut m);
        assert_eq!(snap.numel(), m.param_count() + 8);

        let mut fresh = mk();
        load_snapshot_vector(&mut fresh, &snap).unwrap();
        // Eval outputs now match exactly (running stats transferred).
        let ya = m.forward(&x, Mode::Eval).unwrap();
        let yb = fresh.forward(&x, Mode::Eval).unwrap();
        assert!(ya.allclose(&yb, 1e-6));
        assert!(load_snapshot_vector(&mut fresh, &Tensor::ones([3])).is_err());
    }

    #[test]
    fn state_vector_roundtrip() {
        use crate::layers::batchnorm::BatchNorm;
        let mut s = Sequential::new("bn");
        s.push(BatchNorm::new(2));
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]).unwrap();
        set_state_vector(&mut s, &v).unwrap();
        assert_eq!(state_vector(&mut s), v);
        assert!(set_state_vector(&mut s, &Tensor::ones([5])).is_err());
        // A state-less model has an empty state vector.
        let mut m = model(9);
        assert_eq!(state_count(&mut m), 0);
        assert_eq!(state_vector(&mut m).numel(), 0);
    }

    #[test]
    fn parameter_digest_tracks_snapshot_identity() {
        let mut a = model(7);
        let mut b = model(7);
        assert_eq!(parameter_digest(&mut a), parameter_digest(&mut b));
        let mut c = model(8);
        assert_ne!(parameter_digest(&mut a), parameter_digest(&mut c));
        // Loading a's snapshot into c makes the digests agree again.
        let snap = snapshot_vector(&mut a);
        load_snapshot_vector(&mut c, &snap).unwrap();
        assert_eq!(parameter_digest(&mut a), parameter_digest(&mut c));
    }

    #[test]
    fn flat_update_is_sgd_step() {
        let mut m = model(5);
        let before = parameter_vector(&mut m);
        let update = Tensor::ones([before.numel()]);
        apply_flat_update(&mut m, &update, 0.1).unwrap();
        let after = parameter_vector(&mut m);
        let diff = before.try_sub(&after).unwrap();
        assert!(diff.allclose(&Tensor::full([before.numel()], 0.1), 1e-6));
    }
}
