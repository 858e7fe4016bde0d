//! Classification metrics.

use medsplit_tensor::{Result, Tensor, TensorError};

/// Fraction of rows whose argmax matches the label.
///
/// # Errors
///
/// Returns shape errors for non-matrix logits or a length mismatch.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let preds = logits.argmax_rows()?;
    if preds.len() != labels.len() {
        return Err(TensorError::LengthMismatch {
            expected: preds.len(),
            actual: labels.len(),
        });
    }
    if preds.is_empty() {
        return Ok(0.0);
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    Ok(correct as f32 / labels.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        let logits = Tensor::from_vec(vec![2.0, 1.0, 0.0, 5.0, 1.0, 1.0], [3, 2]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 0]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[1, 0, 1]).unwrap(), 0.0);
        assert_eq!(accuracy(&logits, &[0, 0, 1]).unwrap(), 1.0 / 3.0);
        assert!(accuracy(&logits, &[0, 0]).is_err());
    }

    #[test]
    fn empty_accuracy_is_zero() {
        let logits = Tensor::zeros([0, 3]);
        assert_eq!(accuracy(&logits, &[]).unwrap(), 0.0);
    }
}
