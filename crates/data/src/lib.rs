//! # medsplit-data
//!
//! Datasets for the medsplit evaluation: seeded synthetic substitutes for
//! CIFAR-10/100 (same tensor shapes, controllable difficulty — see
//! DESIGN.md §5 for why this substitution preserves the paper's measured
//! quantities), partitioning across geo-distributed platforms (IID,
//! Dirichlet non-IID, power-law imbalance), and minibatch sampling
//! including the paper's proportional-minibatch imbalance mitigation.
//!
//! ```
//! use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticImages};
//!
//! let dataset = SyntheticImages::lite(10, 42).generate(120)?;
//! let shards = partition(&dataset, 4, &Partition::PowerLaw { alpha: 1.0 }, 7)?;
//! let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
//! let batches = MinibatchPolicy::Proportional { global: 32 }.sizes(&sizes);
//! assert_eq!(batches.len(), 4);
//! # Ok::<(), medsplit_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

mod dataset;
mod partition;
mod sampler;
mod synth;

pub use dataset::InMemoryDataset;
pub use partition::{partition, Partition};
pub use sampler::{BatchSampler, MinibatchPolicy};
pub use synth::{SyntheticImages, SyntheticTabular};
