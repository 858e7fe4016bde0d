//! The dense, row-major, `f32` tensor type.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::shape::Shape;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container used throughout the medsplit
/// workspace: network parameters, activations, gradients and wire payloads
/// are all `Tensor`s. Data is always contiguous in row-major order, which
/// keeps serialisation (and therefore the byte accounting the evaluation
/// depends on) trivial and exact.
///
/// ```
/// use medsplit_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// assert_eq!(t.get(&[1, 0])?, 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok::<(), medsplit_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ----- constructors ---------------------------------------------------

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not match
    /// the element count implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// The 2-D identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Evenly spaced values `[0, 1, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        Tensor {
            shape: Shape::from([n]),
            data: (0..n).map(|i| i as f32).collect(),
        }
    }

    // ----- accessors ------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice; shorthand for `self.shape().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index/rank errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index/rank errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor with {} elements", self.numel());
        self.data[0]
    }

    // ----- shape manipulation ---------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: Shape::from([self.numel()]),
            data: self.data.clone(),
        }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns rank/index errors for invalid inputs.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "row",
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        if i >= r {
            return Err(TensorError::IndexOutOfBounds { index: i, dim: r });
        }
        Ok(Tensor {
            shape: Shape::from([c]),
            data: self.data[i * c..(i + 1) * c].to_vec(),
        })
    }

    /// Stacks rank-`k` tensors along a new leading axis, producing a
    /// rank-`k+1` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inputs disagree in shape
    /// or the input list is empty.
    pub fn stack(tensors: &[Tensor]) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::Corrupt("stack of zero tensors".into()))?;
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.numel() * tensors.len());
        for t in tensors {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: t.shape.clone(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&t.data);
        }
        Ok(Tensor {
            shape: Shape::from(dims),
            data,
        })
    }

    /// Concatenates tensors (owned or borrowed) along axis 0. Inputs must
    /// agree on all trailing dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on disagreement or an empty
    /// input list.
    pub fn concat0<T: std::borrow::Borrow<Tensor>>(tensors: &[T]) -> Result<Tensor> {
        let first: &Tensor = tensors
            .first()
            .ok_or_else(|| TensorError::Corrupt("concat of zero tensors".into()))?
            .borrow();
        let tail = &first.dims()[1..];
        let mut rows = 0;
        let mut data = Vec::new();
        for t in tensors {
            let t: &Tensor = t.borrow();
            if t.rank() != first.rank() || &t.dims()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: t.shape.clone(),
                    op: "concat0",
                });
            }
            rows += t.dims()[0];
            data.extend_from_slice(&t.data);
        }
        let mut dims = vec![rows];
        dims.extend_from_slice(tail);
        Ok(Tensor {
            shape: Shape::from(dims),
            data,
        })
    }

    /// Slices `count` entries along axis 0 starting at `start`, copying.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range exceeds the
    /// leading dimension.
    pub fn slice0(&self, start: usize, count: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "slice0",
            });
        }
        let n0 = self.dims()[0];
        if start + count > n0 {
            return Err(TensorError::IndexOutOfBounds {
                index: start + count,
                dim: n0,
            });
        }
        let inner: usize = self.dims()[1..].iter().product();
        let mut dims = vec![count];
        dims.extend_from_slice(&self.dims()[1..]);
        Ok(Tensor {
            shape: Shape::from(dims),
            data: self.data[start * inner..(start + count) * inner].to_vec(),
        })
    }

    /// Selects the rows (entries along axis 0) at `indices`, copying.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for any invalid index.
    pub fn index_select0(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "index_select0",
            });
        }
        let n0 = self.dims()[0];
        let inner: usize = self.dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * inner);
        for &i in indices {
            if i >= n0 {
                return Err(TensorError::IndexOutOfBounds { index: i, dim: n0 });
            }
            data.extend_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.dims()[1..]);
        Ok(Tensor {
            shape: Shape::from(dims),
            data,
        })
    }

    // ----- functional helpers ----------------------------------------------

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ (no
    /// broadcasting; use the arithmetic ops for that).
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "zip_map",
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, .., {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1],
                self.numel()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: Shape::from([0]),
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones([3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full([2], 7.0).as_slice(), &[7.0, 7.0]);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(i.get(&[0, 1]).unwrap(), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], [2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], [2, 3]).is_ok());
    }

    #[test]
    fn get_set() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.as_slice()[5], 5.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::arange(6).reshape([2, 3]).unwrap();
        assert_eq!(t.dims(), &[2, 3]);
        let back = t.reshape([6]).unwrap();
        assert_eq!(back.as_slice(), Tensor::arange(6).as_slice());
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(Tensor::arange(3).transpose().is_err());
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::ones([2, 2]);
        let b = Tensor::zeros([2, 2]);
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.dims(), &[2, 2, 2]);
        let c = Tensor::concat0(&[a, b]).unwrap();
        assert_eq!(c.dims(), &[4, 2]);
        assert_eq!(c.as_slice()[..4], [1.0; 4]);
        assert_eq!(c.as_slice()[4..], [0.0; 4]);
    }

    #[test]
    fn stack_rejects_mismatch() {
        let a = Tensor::ones([2]);
        let b = Tensor::ones([3]);
        assert!(Tensor::stack(&[a.clone(), b.clone()]).is_err());
        assert!(Tensor::concat0(&[a.reshape([1, 2]).unwrap(), b.reshape([1, 3]).unwrap()]).is_err());
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn slice0_and_select() {
        let t = Tensor::arange(12).reshape([4, 3]).unwrap();
        let s = t.slice0(1, 2).unwrap();
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.as_slice(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let sel = t.index_select0(&[3, 0]).unwrap();
        assert_eq!(sel.as_slice(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
        assert!(t.slice0(3, 2).is_err());
        assert!(t.index_select0(&[4]).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let t = Tensor::arange(3);
        assert_eq!(t.map(|x| x * 2.0).as_slice(), &[0.0, 2.0, 4.0]);
        let u = Tensor::ones([3]);
        assert_eq!(t.zip_map(&u, |a, b| a + b).unwrap().as_slice(), &[1.0, 2.0, 3.0]);
        assert!(t.zip_map(&Tensor::ones([4]), |a, _| a).is_err());
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::arange(6).reshape([2, 3]).unwrap();
        assert_eq!(t.row(1).unwrap().as_slice(), &[3.0, 4.0, 5.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", Tensor::zeros([2])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros([100])).is_empty());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
