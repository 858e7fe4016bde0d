//! # medsplit-baselines
//!
//! The comparison landscape of the evaluation, all implemented over the
//! same [`medsplit_simnet`] substrate as the split protocol so byte counts
//! are directly comparable:
//!
//! - [`train_sync_sgd`] — **Large-scale synchronous SGD** (Chen et al.,
//!   2016), the comparator of the paper's Fig. 4, with backup workers;
//! - [`train_fedavg`] — **FedAvg** (McMahan et al., 2017), the
//!   related-work "de facto standard" whose bandwidth cost the paper
//!   criticises;
//! - [`train_local_only`] — each platform alone (the overfitting
//!   motivation);
//! - [`train_centralized`] — pooled raw data at the server (the
//!   privacy-violating upper bound; its one-time raw-data upload is
//!   counted as [`MessageKind::RawData`](medsplit_simnet::MessageKind)
//!   traffic).
//!
//! Each is a thin constructor of a
//! [`RoundDriver`](medsplit_core::RoundDriver): they take the split
//! protocol's [`SplitConfig`](medsplit_core::SplitConfig), validate it
//! and the transport as every split driver does, and run core's one round
//! loop, so their histories are recorded exactly as the split drivers'
//! are. Each says which configuration fields it reads.

#![warn(missing_docs)]

mod centralized;
mod common;
mod fedavg;
mod local_only;
mod sync_sgd;

pub use centralized::train_centralized;
pub use fedavg::{train_fedavg, FedAvgOptions};
pub use local_only::train_local_only;
pub use sync_sgd::{train_sync_sgd, SyncSgdOptions};
