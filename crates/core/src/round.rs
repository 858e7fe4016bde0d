//! What every driver shares: the training loop around a round, batched
//! evaluation, and for the split drivers the actors of one run and the
//! compute charge on the simulated clock.
//!
//! A driver supplies the body of one round — plain delivery in
//! [`crate::trainer`], the same exchange on one thread per node in
//! [`crate::threaded`], fault-tolerant delivery in [`crate::resilient`],
//! and each comparator method of `medsplit-baselines` — and
//! [`RoundDriver::run`] does the rest: learning-rate schedule, evaluation
//! cadence, one [`RoundRecord`] per round, the final-accuracy backfill and
//! the `round` telemetry span.

use medsplit_data::InMemoryDataset;
use medsplit_nn::accuracy;
use medsplit_simnet::{NetStats, NodeId};
use medsplit_tensor::Tensor;

use crate::config::SplitConfig;
use crate::error::Result;
use crate::history::{RoundRecord, TrainingHistory};
use crate::platform::Platform;
use crate::server::SplitServer;

/// Accuracy of one model on `test`, computed in batches of 64 samples in
/// dataset order. `logits_of` maps a feature batch to its logits.
///
/// # Errors
///
/// Propagates dataset and tensor errors, and whatever `logits_of` returns.
pub fn evaluate_batched(
    test: &InMemoryDataset,
    mut logits_of: impl FnMut(&Tensor) -> Result<Tensor>,
) -> Result<f32> {
    const EVAL_BATCH: usize = 64;
    let n = test.len();
    let mut correct_weighted = 0.0;
    let mut start = 0;
    while start < n {
        let count = EVAL_BATCH.min(n - start);
        let idx: Vec<usize> = (start..start + count).collect();
        let (features, labels) = test.batch(&idx)?;
        let logits = logits_of(&features)?;
        correct_weighted += accuracy(&logits, &labels)? * count as f32;
        start += count;
    }
    Ok(correct_weighted / n.max(1) as f32)
}

/// The protocol actors of one run and what the loop needs to know about
/// them.
pub(crate) struct Actors {
    /// The method name recorded in the history.
    pub(crate) method: &'static str,
    pub(crate) config: SplitConfig,
    pub(crate) platforms: Vec<Platform>,
    pub(crate) server: SplitServer,
    pub(crate) test: InMemoryDataset,
    /// Trainable parameters on one platform and on the server, for the
    /// compute model.
    pub(crate) client_params: usize,
    pub(crate) server_params: usize,
}

impl Actors {
    /// Mean test accuracy over the deployed models (platform layers
    /// composed with the shared server layers) of the platforms `live`
    /// accepts. Runs out-of-band: it measures model quality, not
    /// communication.
    pub(crate) fn evaluate(&mut self, live: impl Fn(NodeId) -> bool) -> Result<f32> {
        let _span = medsplit_telemetry::span("evaluate");
        let server = &mut self.server;
        let mut total = 0.0;
        let mut counted = 0usize;
        for platform in &mut self.platforms {
            if !live(platform.node()) {
                continue;
            }
            total += evaluate_batched(&self.test, |features| {
                let acts = platform.infer_l1(features)?;
                platform.infer_tail(server.infer(&acts)?)
            })?;
            counted += 1;
        }
        Ok(total / counted.max(1) as f32)
    }

    /// Sets every platform's and the server's learning rate.
    pub(crate) fn set_lr(&mut self, lr: f32) {
        for p in &mut self.platforms {
            p.set_lr(lr);
        }
        self.server.set_lr(lr);
    }

    /// Advances the simulated clocks of the participating platforms and
    /// of the server by one round's local computation.
    pub(crate) fn charge_compute(&self, stats: &NetStats, participants: impl IntoIterator<Item = usize>) {
        let compute = self.config.compute;
        let mut total_batch = 0usize;
        for pid in participants {
            let p = &self.platforms[pid];
            let s = compute.seconds(compute.platform_s_per_msample, p.batch_size(), self.client_params);
            stats.advance_clock(p.node(), s);
            total_batch += p.batch_size();
        }
        let s = compute.seconds(compute.server_s_per_msample, total_batch, self.server_params);
        stats.advance_clock(NodeId::Server, s);
    }
}

/// A training method as the shared loop sees it: a method name, the body
/// of one round, an evaluation and the transport's accounting.
/// [`RoundDriver::run`] is the one training loop of every method.
pub trait RoundDriver {
    /// The method name recorded in the history.
    fn method(&self) -> &'static str;

    /// How many participants make a full round; a round with fewer is
    /// recorded as degraded.
    fn full_round(&self) -> usize;

    /// Applies the round's learning rate.
    fn set_lr(&mut self, lr: f32);

    /// The transport's accounting.
    fn stats(&self) -> &NetStats;

    /// Carries out one round and returns `(mean_loss, participants)`.
    fn round(&mut self, round: u64) -> Result<(f32, usize)>;

    /// Test accuracy of the method's current model(s).
    fn evaluate(&mut self) -> Result<f32>;

    /// Runs `config.rounds` rounds under `config.lr`, evaluating every
    /// `config.eval_every` rounds and after the last round if that one did
    /// not, and returns the history. Reads no other field of `config`.
    ///
    /// # Errors
    ///
    /// Propagates the first error of [`round`](Self::round) or
    /// [`evaluate`](Self::evaluate).
    fn run(&mut self, config: &SplitConfig) -> Result<TrainingHistory> {
        let (rounds, eval_every) = (config.rounds, config.eval_every);
        let full = self.full_round();
        let mut records = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let mut round_span = medsplit_telemetry::span_round("round", round as u64);
            let round_start = std::time::Instant::now();
            let lr = config.lr.lr_at(round);
            self.set_lr(lr);

            let (mean_loss, participants) = self.round(round as u64)?;

            let eval_due = eval_every > 0 && (round + 1) % eval_every == 0;
            let accuracy = if eval_due { Some(self.evaluate()?) } else { None };
            let snap = self.stats().snapshot();
            round_span.set_sim_s(snap.makespan_s);
            records.push(RoundRecord {
                round,
                lr,
                mean_loss,
                cumulative_bytes: snap.total_bytes,
                simulated_time_s: snap.makespan_s,
                wall_time_s: round_start.elapsed().as_secs_f64(),
                participants,
                degraded: participants < full,
                accuracy,
            });
        }
        let final_accuracy = match records.last().and_then(|r| r.accuracy) {
            Some(a) => a,
            None => {
                let a = self.evaluate()?;
                if let Some(last) = records.last_mut() {
                    last.accuracy = Some(a);
                }
                a
            }
        };
        Ok(TrainingHistory {
            method: self.method().into(),
            records,
            final_accuracy,
            stats: self.stats().snapshot(),
        })
    }
}

/// The small problem the drivers' unit tests share.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::{Architecture, LrSchedule, MlpConfig};

    pub(crate) fn arch() -> Architecture {
        Architecture::Mlp(MlpConfig {
            input_dim: 8,
            hidden: vec![16],
            num_classes: 3,
        })
    }

    pub(crate) fn setup(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
        let train = SyntheticTabular::new(3, 8, 0).generate(160).unwrap();
        let test = SyntheticTabular::new(3, 8, 1).generate(40).unwrap();
        let shards = partition(&train, platforms, &Partition::Iid, 1).unwrap();
        (shards, test)
    }

    /// `rounds` rounds with a single evaluation at the end.
    pub(crate) fn config(rounds: usize) -> SplitConfig {
        SplitConfig {
            rounds,
            eval_every: rounds,
            lr: LrSchedule::Constant(0.1),
            minibatch: MinibatchPolicy::Fixed(10),
            ..SplitConfig::default()
        }
    }

    /// Everything in a history that must replay bit-identically, i.e. all
    /// of it except host wall time.
    pub(crate) fn replay_key(h: &TrainingHistory) -> Vec<(u32, u64, u64, usize, bool, Option<u32>)> {
        h.records
            .iter()
            .map(|r| {
                (
                    r.mean_loss.to_bits(),
                    r.cumulative_bytes,
                    r.simulated_time_s.to_bits(),
                    r.participants,
                    r.degraded,
                    r.accuracy.map(f32::to_bits),
                )
            })
            .collect()
    }
}
