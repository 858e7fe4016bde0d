//! Configuration of a split-learning run.

use medsplit_data::MinibatchPolicy;
use medsplit_nn::LrSchedule;

/// Where the network is cut between platform and server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPoint {
    /// The architecture's default cut: after the first hidden-layer block,
    /// as the paper prescribes (`L1` on the platform).
    Default,
    /// An explicit layer index (used by the split-point sweep, Fig. 5).
    At(usize),
}

/// How (and whether) the platforms' `L1` replicas are kept in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Sync {
    /// The paper's default: identical initial weights, never re-synced
    /// (each platform's `L1` evolves on its own gradients).
    CommonInit,
    /// Every `every` rounds the server averages all platforms' `L1`
    /// parameters and redistributes them (FedAvg applied to `L1` only).
    PeriodicAverage {
        /// Synchronisation period in rounds.
        every: usize,
    },
    /// Every `every` rounds each platform adopts the `L1` parameters of
    /// its ring predecessor (cyclic parameter sharing, cf. the authors'
    /// ICAIIC'19 reference \[3\]).
    CyclicShare {
        /// Sharing period in rounds.
        every: usize,
    },
}

/// Which optimiser the platforms and the server use for their halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerKind {
    /// SGD; the `momentum` field of [`SplitConfig`] applies.
    #[default]
    Sgd,
    /// Adam with standard defaults (β₁ = 0.9, β₂ = 0.999).
    Adam,
}

impl OptimizerKind {
    /// Builds a boxed optimiser of this kind.
    pub fn build(&self, momentum: f32) -> Box<dyn medsplit_nn::Optimizer> {
        match self {
            OptimizerKind::Sgd => Box::new(medsplit_nn::Sgd::new(0.01).with_momentum(momentum)),
            OptimizerKind::Adam => Box::new(medsplit_nn::Adam::new(0.001)),
        }
    }
}

/// Numeric encoding used for the four protocol tensors on the wire: the
/// tensor crate's [`Encoding`](medsplit_tensor::Encoding) under the name
/// the protocol uses for it. `F16` and `Int8` are ablations of the
/// paper's bandwidth goal (Fig. 4); parameter synchronisation (`L1Sync`)
/// always stays exact.
pub use medsplit_tensor::Encoding as WireCodec;

/// Simple compute-time model: how long forward+backward on one sample
/// takes on each side, used by the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Seconds per (sample × million parameters) on a platform.
    pub platform_s_per_msample: f64,
    /// Seconds per (sample × million parameters) on the server.
    pub server_s_per_msample: f64,
}

impl ComputeModel {
    /// Hospitals on commodity hardware, server with accelerators
    /// (10× faster per parameter-sample).
    pub fn hospital_default() -> Self {
        ComputeModel {
            platform_s_per_msample: 2e-3,
            server_s_per_msample: 2e-4,
        }
    }

    /// Disables compute-time accounting (communication-only clock).
    pub fn off() -> Self {
        ComputeModel {
            platform_s_per_msample: 0.0,
            server_s_per_msample: 0.0,
        }
    }

    /// Compute seconds for `samples` through `params` parameters.
    pub fn seconds(&self, per_msample: f64, samples: usize, params: usize) -> f64 {
        per_msample * samples as f64 * (params as f64 / 1e6)
    }
}

/// Exponential backoff schedule for within-round retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry, in simulated seconds.
    pub base_s: f64,
    /// Multiplier applied per attempt.
    pub factor: f64,
    /// Ceiling on the delay of any single retry.
    pub max_s: f64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base_s: 0.5,
            factor: 2.0,
            max_s: 8.0,
        }
    }
}

impl Backoff {
    /// Delay of the 0-based `attempt`-th retry, before jitter.
    pub fn delay_s(&self, attempt: u32) -> f64 {
        (self.base_s * self.factor.powi(attempt as i32)).min(self.max_s)
    }
}

/// Fault-tolerance policy for one training round: how long to wait, how
/// many platforms are enough, and how hard to retry before giving up on
/// a platform for the round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPolicy {
    /// Per-round deadline on the simulated clock: a platform whose clock
    /// has fallen more than this far behind the round start is skipped
    /// for the round (it rejoins at the next boundary).
    pub deadline_s: f64,
    /// Minimum number of participating platforms for the round's update
    /// to be applied. Below quorum the round is recorded as degraded and
    /// no update happens.
    pub min_platforms: usize,
    /// Retries per platform per protocol step before skipping it.
    pub max_retries: u32,
    /// Backoff between retries.
    pub backoff: Backoff,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            deadline_s: 60.0,
            min_platforms: 1,
            max_retries: 3,
            backoff: Backoff::default(),
        }
    }
}

/// Policy knobs specific to hierarchical (relay-routed) rounds, layered
/// on top of [`RoundPolicy`] by the hierarchical trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierPolicy {
    /// Minimum surviving platforms a region must contribute for its
    /// activations to enter the round's aggregate. A region that
    /// delivers fewer (but more than zero) is dropped whole, so a
    /// partially-partitioned region degrades the round instead of
    /// contributing a biased sliver of its data.
    pub region_quorum: usize,
    /// Simulated seconds a platform pays when it re-homes away from its
    /// home relay (failure detection plus reconnection handshake),
    /// charged against the round deadline.
    pub failover_penalty_s: f64,
}

impl Default for HierPolicy {
    fn default() -> Self {
        HierPolicy {
            region_quorum: 1,
            failover_penalty_s: 0.5,
        }
    }
}

impl HierPolicy {
    /// Checks the policy against the shape of a hierarchy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self, per_region: usize) -> std::result::Result<(), String> {
        if self.region_quorum == 0 {
            return Err("hier_policy.region_quorum must be at least 1".into());
        }
        if self.region_quorum > per_region {
            return Err(format!(
                "hier_policy.region_quorum of {} exceeds the {} platforms per region",
                self.region_quorum, per_region
            ));
        }
        if !(self.failover_penalty_s >= 0.0 && self.failover_penalty_s.is_finite()) {
            return Err(format!(
                "hier_policy.failover_penalty_s must be finite and non-negative, got {}",
                self.failover_penalty_s
            ));
        }
        Ok(())
    }
}

/// Full configuration of a split-learning training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitConfig {
    /// Where to cut the network.
    pub split: SplitPoint,
    /// Per-platform minibatch policy (the paper's imbalance mitigation).
    pub minibatch: MinibatchPolicy,
    /// `L1` synchronisation strategy.
    pub l1_sync: L1Sync,
    /// Learning rate schedule (applied to both sides).
    pub lr: LrSchedule,
    /// SGD momentum (0 disables). Sync SGD's server update ignores it.
    pub momentum: f32,
    /// Number of training rounds.
    pub rounds: usize,
    /// Evaluate every `eval_every` rounds (0 = only at the end).
    pub eval_every: usize,
    /// Seed for model initialisation and samplers. All platforms derive
    /// their identical `L1` initialisation from this seed.
    pub seed: u64,
    /// Compute-time model for the simulated clock.
    pub compute: ComputeModel,
    /// Wire encoding for the protocol tensors.
    pub codec: WireCodec,
    /// Optimiser family used by both sides. Sync SGD's server update
    /// ignores it.
    pub optimizer: OptimizerKind,
    /// Standard deviation of Gaussian noise each platform adds to its
    /// transmitted activations (0 disables). A lightweight
    /// privacy-enhancement knob: the server — and any eavesdropper — only
    /// ever sees the noised representation, at a measurable accuracy
    /// cost (Fig. 7).
    pub activation_noise: f32,
    /// Fault-tolerance policy of every split round (deadline, quorum,
    /// retries). Over a plain transport nothing is late or lost, so only
    /// the quorum can bind.
    pub round_policy: RoundPolicy,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            split: SplitPoint::Default,
            minibatch: MinibatchPolicy::Proportional { global: 64 },
            l1_sync: L1Sync::CommonInit,
            lr: LrSchedule::Constant(0.05),
            momentum: 0.9,
            rounds: 100,
            eval_every: 10,
            seed: 42,
            compute: ComputeModel::off(),
            codec: WireCodec::F32,
            optimizer: OptimizerKind::Sgd,
            activation_noise: 0.0,
            round_policy: RoundPolicy::default(),
        }
    }
}

impl SplitConfig {
    /// Checks the configuration for values that would make a run
    /// meaningless rather than merely fail later with a confusing
    /// protocol error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.rounds == 0 {
            return Err("rounds must be at least 1".into());
        }
        if !(self.momentum >= 0.0 && self.momentum < 1.0) {
            return Err(format!("momentum must be in [0, 1), got {}", self.momentum));
        }
        if !(self.activation_noise >= 0.0 && self.activation_noise.is_finite()) {
            return Err(format!(
                "activation_noise must be finite and non-negative, got {}",
                self.activation_noise
            ));
        }
        let p = &self.round_policy;
        if !(p.deadline_s > 0.0 && p.deadline_s.is_finite()) {
            return Err(format!(
                "round_policy.deadline_s must be finite and positive, got {}",
                p.deadline_s
            ));
        }
        if p.min_platforms == 0 {
            return Err("round_policy.min_platforms must be at least 1".into());
        }
        let b = &p.backoff;
        if !(b.base_s > 0.0 && b.factor >= 1.0 && b.max_s >= b.base_s) {
            return Err(format!(
                "round_policy.backoff must satisfy base_s > 0, factor >= 1, max_s >= base_s, \
                 got base_s={}, factor={}, max_s={}",
                b.base_s, b.factor, b.max_s
            ));
        }
        Ok(())
    }

    /// Whether `L1` synchronisation fires after the given 0-based round.
    pub fn sync_due(&self, round: usize) -> bool {
        match self.l1_sync {
            L1Sync::CommonInit => false,
            L1Sync::PeriodicAverage { every } | L1Sync::CyclicShare { every } => {
                every > 0 && (round + 1).is_multiple_of(every)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SplitConfig::default();
        assert_eq!(c.split, SplitPoint::Default);
        assert_eq!(c.l1_sync, L1Sync::CommonInit);
        assert!(matches!(c.minibatch, MinibatchPolicy::Proportional { .. }));
    }

    #[test]
    fn sync_due_schedule() {
        let mut c = SplitConfig::default();
        assert!(!c.sync_due(0));
        c.l1_sync = L1Sync::PeriodicAverage { every: 5 };
        assert!(!c.sync_due(0));
        assert!(c.sync_due(4));
        assert!(c.sync_due(9));
        assert!(!c.sync_due(5));
        c.l1_sync = L1Sync::CyclicShare { every: 0 };
        assert!(!c.sync_due(0));
    }

    #[test]
    fn optimizer_kind_builds() {
        let mut sgd = OptimizerKind::Sgd.build(0.9);
        sgd.set_learning_rate(0.1);
        assert_eq!(sgd.learning_rate(), 0.1);
        let adam = OptimizerKind::Adam.build(0.0);
        assert!(adam.learning_rate() > 0.0);
        assert_eq!(OptimizerKind::default(), OptimizerKind::Sgd);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = Backoff::default();
        assert_eq!(b.delay_s(0), 0.5);
        assert_eq!(b.delay_s(1), 1.0);
        assert_eq!(b.delay_s(2), 2.0);
        assert_eq!(b.delay_s(10), 8.0, "capped at max_s");
    }

    #[test]
    fn validate_catches_bad_fields() {
        assert!(SplitConfig::default().validate().is_ok());
        let c = SplitConfig {
            rounds: 0,
            ..SplitConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("rounds"));
        let c = SplitConfig {
            momentum: 1.5,
            ..SplitConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("momentum"));
        let mut c = SplitConfig::default();
        c.round_policy.min_platforms = 0;
        assert!(c.validate().unwrap_err().contains("min_platforms"));
        let mut c = SplitConfig::default();
        c.round_policy.deadline_s = 0.0;
        assert!(c.validate().unwrap_err().contains("deadline_s"));
        let mut c = SplitConfig::default();
        c.round_policy.backoff.factor = 0.5;
        assert!(c.validate().unwrap_err().contains("backoff"));
    }

    #[test]
    fn hier_policy_validates_against_region_shape() {
        assert!(HierPolicy::default().validate(2).is_ok());
        let p = HierPolicy {
            region_quorum: 0,
            ..HierPolicy::default()
        };
        assert!(p.validate(2).unwrap_err().contains("region_quorum"));
        let p = HierPolicy {
            region_quorum: 3,
            ..HierPolicy::default()
        };
        assert!(p.validate(2).unwrap_err().contains("exceeds"));
        let p = HierPolicy {
            failover_penalty_s: f64::NAN,
            ..HierPolicy::default()
        };
        assert!(p.validate(2).unwrap_err().contains("failover_penalty_s"));
    }

    #[test]
    fn compute_model_seconds() {
        let m = ComputeModel::hospital_default();
        // 32 samples through 1M params on a platform: 32 * 2ms = 64 ms.
        let s = m.seconds(m.platform_s_per_msample, 32, 1_000_000);
        assert!((s - 0.064).abs() < 1e-9);
        let off = ComputeModel::off();
        assert_eq!(off.seconds(off.platform_s_per_msample, 100, 1_000_000), 0.0);
    }
}
