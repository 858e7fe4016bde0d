//! # medsplit-privacy
//!
//! Quantifying the paper's privacy claim. The paper argues qualitatively
//! that sharing `L1` activations instead of raw data preserves patient
//! privacy; this crate makes the claim measurable:
//!
//! - [`distance_correlation`] — the statistical dependence between raw
//!   inputs and the transmitted ("smashed") activations,
//! - [`reconstruction_attack`] — an honest-but-curious server fitting a
//!   ridge regression from activations back to inputs,
//! - [`assess_l1_leakage`] / [`LeakageReport`] — both probes packaged
//!   into one assessment of a platform's `L1`,
//! - [`recover_labels_from_gradients`] — the label-leakage attack on the
//!   protocol's logit-gradient message (message 3): for softmax
//!   cross-entropy the negative entry per row *is* the label, so the
//!   standard protocol reveals every training diagnosis to the server;
//!   the U-shaped variant defeats this.
//!
//! The lab's `fig5` and `fig7` points (`experiments/fig5.lab.toml`,
//! `fig7.lab.toml`) gate dCor and the ridge attack's R² per cut and per
//! activation-noise level: deeper cuts cost more platform compute but
//! leak less.

#![warn(missing_docs)]

mod dcor;
mod label_leak;
mod reconstruction;
mod report;

pub use dcor::{distance_correlation, flatten_samples};
pub use label_leak::{label_recovery_rate, recover_labels_from_gradients};
pub use reconstruction::{reconstruction_attack, ReconstructionReport};
pub use report::{assess_l1_leakage, LeakageReport};
