//! # medsplit-core
//!
//! The paper's contribution: privacy-preserving split learning for
//! geo-distributed medical platforms (Jeon et al., DSN 2019).
//!
//! A deep network is cut after its first hidden layer: each platform keeps
//! `L1` and its raw patient data; the single central server keeps
//! `L2..Lk`. One training round is the paper's four-message exchange per
//! platform:
//!
//! 1. platform → server: `L1` activations on a minibatch
//!    ([`MessageKind::Activations`](medsplit_simnet::MessageKind)),
//! 2. server → platform: output logits,
//! 3. platform → server: loss gradients w.r.t. the logits (the platform
//!    owns the labels and the loss),
//! 4. server → platform: gradients at the cut, which the platform
//!    backpropagates through `L1`.
//!
//! Key types: [`SplitConfig`] (cut point, scheduling, `L1` sync strategy,
//! the proportional-minibatch imbalance mitigation), [`Platform`] and
//! [`SplitServer`] (the actors), [`comm`] (analytic byte costs for the
//! full-size models) and [`TrainingHistory`] (the accuracy-vs-bytes
//! curves of Fig. 4).
//!
//! Drivers. All of them share one training loop, [`RoundDriver::run`],
//! and one evaluation and differ in how a round's messages are
//! delivered, which the caller picks by what it constructs:
//!
//! - [`SplitTrainer`] — plain delivery over any transport; both
//!   schedulings and every `L1` sync. [`UShapeTrainer`] runs the same
//!   round with platforms that also keep the classifier tail.
//! - [`ResilientTrainer`] — fault-tolerant delivery over a
//!   [`ChaosTransport`](medsplit_simnet::ChaosTransport): quorum rounds,
//!   retries, checksum verification, crash–rejoin from checkpoints.
//!   [`HierResilientTrainer`] is the same engine with a relay tier
//!   between platforms and server.
//! - [`threaded::train_threaded`] — [`SplitTrainer`]'s aggregate round
//!   with one OS thread per node; its history equals the sequential
//!   run's bit for bit.
//!
//! The comparators of `medsplit-baselines` (sync SGD, FedAvg, local-only,
//! centralised) are [`RoundDriver`]s too: same [`SplitConfig`], same
//! [`check_fresh`], same loop.
//!
//! ```
//! use medsplit_core::{SplitConfig, SplitTrainer};
//! use medsplit_data::{partition, Partition, SyntheticTabular};
//! use medsplit_nn::{Architecture, MlpConfig};
//! use medsplit_simnet::{MemoryTransport, StarTopology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::Mlp(MlpConfig::small(8, 3));
//! let train = SyntheticTabular::new(3, 8, 0).generate(90)?;
//! let test = SyntheticTabular::new(3, 8, 1).generate(30)?;
//! let shards = partition(&train, 3, &Partition::Iid, 0)?;
//! let transport = MemoryTransport::new(StarTopology::new(3));
//! let config = SplitConfig { rounds: 5, eval_every: 5, ..SplitConfig::default() };
//! let mut trainer = SplitTrainer::new(&arch, config, shards, test, &transport)?;
//! let history = trainer.run()?;
//! assert_eq!(history.records.len(), 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod comm;
mod config;
mod error;
mod hier;
mod history;
pub mod messages;
mod platform;
pub mod relay;
mod resilient;
mod round;
mod server;
mod split;
pub mod threaded;
mod trainer;
mod ushape;

pub use config::{
    Backoff, ComputeModel, HierPolicy, L1Sync, OptimizerKind, RoundPolicy, Scheduling, SplitConfig,
    SplitPoint, WireCodec,
};
pub use error::{Result, SplitError};
pub use hier::{HierReport, HierResilientTrainer};
pub use history::{RoundRecord, TrainingHistory};
pub use platform::Platform;
pub use resilient::{ResilienceReport, ResilientTrainer};
pub use round::{evaluate_batched, RoundDriver};
pub use server::SplitServer;
pub use split::{build_split, resolve_split, SplitModel};
pub use trainer::{batch_sizes, check_fresh, SplitTrainer};
pub use ushape::UShapeTrainer;
