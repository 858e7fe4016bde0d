//! What every driver shares: the training loop around a round, batched
//! evaluation, and for the split drivers the actors of one run and the
//! compute charge on the simulated clock.
//!
//! A driver supplies the body of one round — the split round engine of
//! [`crate::resilient`], which every split trainer constructs, and each
//! comparator method of `medsplit-baselines` — and [`RoundDriver::run`]
//! does the rest: learning-rate schedule, evaluation cadence, one
//! [`RoundRecord`] per round, the final-accuracy backfill and the
//! `round` telemetry span. [`platform_phase`] runs one protocol phase's
//! platform steps side by side on the kernel pool.

use medsplit_data::InMemoryDataset;
use medsplit_nn::accuracy;
use medsplit_simnet::{NetStats, NodeId};
use medsplit_tensor::{pool, Tensor};

use crate::config::SplitConfig;
use crate::error::{Result, SplitError};
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

/// One task of [`platform_phase`]: the platform and its input before the
/// step runs, the step's result after.
enum Step<'p, I, R> {
    Ready(&'p mut Platform, I),
    Running,
    Done(Result<R>),
}

/// Runs `step` once for each `(pid, input)` in `work`, one kernel-pool
/// task per step ([`pool::parallel_chunks_mut`]), and returns the
/// results in the order of `work`: ascending platform id, which `work`
/// must list without repeats. Kernels inside a step run inline on the
/// task's thread (the pool's nesting rule), so the platforms, not their
/// kernels, run side by side; at one pool thread this is the plain loop
/// over `work` in order. A step touches only its own platform, so the
/// results do not depend on the thread count.
///
/// Steps must not touch the transport, the accounting or the chaos RNG:
/// callers receive before and send after, on their own thread, in pid
/// order. Spans a step enters on a pool worker keep the caller's
/// current span as their parent.
///
/// # Errors
///
/// Returns [`SplitError::Protocol`] when `work` is not strictly
/// ascending or names a pid past `platforms`; otherwise the first error
/// in `work` order. Every step runs before errors are looked at, so
/// platforms after a failed one may already have taken their step.
pub(crate) fn platform_phase<I: Send, R: Send>(
    platforms: &mut [Platform],
    work: Vec<(usize, I)>,
    step: impl Fn(&mut Platform, I) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let ascending = work.windows(2).all(|w| w[0].0 < w[1].0);
    if !ascending || work.last().is_some_and(|&(pid, _)| pid >= platforms.len()) {
        let pids: Vec<usize> = work.iter().map(|&(pid, _)| pid).collect();
        return Err(SplitError::Protocol(format!(
            "platform phase over pids {pids:?} of {} platforms",
            platforms.len()
        )));
    }
    let mut work = work.into_iter().peekable();
    let mut tasks: Vec<Step<'_, I, R>> = platforms
        .iter_mut()
        .enumerate()
        .filter_map(|(pid, p)| work.next_if(|&(w, _)| w == pid).map(|(_, i)| Step::Ready(p, i)))
        .collect();
    let parent = medsplit_telemetry::SpanParent::capture();
    pool::parallel_chunks_mut(&mut tasks, 1, |_, task| {
        let _parent = parent.adopt();
        if let Step::Ready(p, input) = std::mem::replace(&mut task[0], Step::Running) {
            task[0] = Step::Done(step(p, input));
        }
    });
    tasks
        .into_iter()
        .map(|task| match task {
            Step::Done(r) => r,
            Step::Ready(..) | Step::Running => unreachable!("parallel_chunks_mut returned before a step ran"),
        })
        .collect()
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::trainer::build_actors;

    /// Serialises the tests that change the process-wide pool size.
    static POOL_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `body` at `threads` pool threads, then goes back to one.
    fn at_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
        let _guard = POOL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pool::set_num_threads(threads);
        let out = body();
        pool::set_num_threads(1);
        out
    }

    fn platforms(k: usize) -> Vec<Platform> {
        let (shards, _) = fixtures::setup(k);
        build_actors(&fixtures::arch(), &fixtures::config(1), shards)
            .unwrap()
            .0
    }

    fn all(k: usize) -> Vec<(usize, ())> {
        (0..k).map(|pid| (pid, ())).collect()
    }

    #[test]
    fn results_follow_work_order_when_the_first_step_finishes_last() {
        let mut ps = platforms(2);
        // The pool may be busy with another test's kernel, which runs a
        // range inline; retry until the two steps really overlapped.
        let overlapped = at_threads(2, || {
            (0..20).any(|_| {
                let second_done = AtomicBool::new(false);
                let finished = Mutex::new(Vec::new());
                let out = platform_phase(&mut ps, all(2), |p, ()| {
                    if p.id() == 0 {
                        let deadline = Instant::now() + Duration::from_secs(2);
                        while !second_done.load(Ordering::Acquire) && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                    } else {
                        second_done.store(true, Ordering::Release);
                    }
                    finished.lock().unwrap().push(p.id());
                    Ok(p.id() * 10)
                })
                .unwrap();
                assert_eq!(out, vec![0, 10]);
                finished.into_inner().unwrap() == [1, 0]
            })
        });
        assert!(overlapped, "platform 0 never finished after platform 1");
    }

    #[test]
    fn first_error_in_work_order_wins() {
        let mut ps = platforms(3);
        let ran = Mutex::new(Vec::new());
        let err = at_threads(2, || {
            platform_phase(&mut ps, all(3), |p, ()| {
                ran.lock().unwrap().push(p.id());
                match p.id() {
                    0 => Ok(()),
                    pid => Err(SplitError::Protocol(format!("step of {pid}"))),
                }
            })
        })
        .unwrap_err();
        assert!(
            matches!(&err, SplitError::Protocol(m) if m == "step of 1"),
            "{err}"
        );
        // Every step ran, the ones after the first failure included.
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_unsorted_and_unknown_pids_are_refused() {
        let mut ps = platforms(3);
        for work in [vec![(1, ()), (1, ())], vec![(2, ()), (0, ())], vec![(3, ())]] {
            let got = platform_phase(&mut ps, work.clone(), |_, ()| -> Result<()> {
                panic!("a refused phase ran a step")
            });
            assert!(matches!(got, Err(SplitError::Protocol(_))), "{work:?}");
        }
    }

    #[test]
    fn empty_work_runs_nothing() {
        let mut ps = platforms(2);
        let out = at_threads(2, || {
            platform_phase(&mut ps, Vec::new(), |_, ()| -> Result<()> {
                panic!("no step is due")
            })
        });
        assert!(out.unwrap().is_empty());
    }

    #[test]
    fn steps_on_a_pool_worker_keep_the_callers_span_as_parent() {
        let mut ps = platforms(2);
        // One phase under a span of its own; `None` unless its two steps
        // really ran on two threads (see above).
        let mut traced_phase = || {
            medsplit_telemetry::set_enabled(true);
            let _ = medsplit_telemetry::drain_spans();
            let phase = medsplit_telemetry::span("t_phase");
            let second_done = AtomicBool::new(false);
            platform_phase(&mut ps, all(2), |p, ()| {
                let _step = medsplit_telemetry::span("t_phase_step");
                if p.id() == 0 {
                    let deadline = Instant::now() + Duration::from_secs(2);
                    while !second_done.load(Ordering::Acquire) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                } else {
                    second_done.store(true, Ordering::Release);
                }
                Ok(())
            })
            .unwrap();
            drop(phase);
            medsplit_telemetry::set_enabled(false);
            let spans = medsplit_telemetry::drain_spans();
            let mut tids: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == "t_phase_step")
                .map(|s| s.tid)
                .collect();
            tids.sort_unstable();
            tids.dedup();
            (tids.len() == 2).then_some(spans)
        };
        let spans = at_threads(2, || (0..20).find_map(|_| traced_phase())).expect("steps never overlapped");
        let phase = spans.iter().find(|s| s.name == "t_phase").unwrap();
        let steps: Vec<_> = spans.iter().filter(|s| s.name == "t_phase_step").collect();
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.parent == Some(phase.id)), "{steps:?}");
    }

    #[test]
    fn one_thread_runs_the_steps_inline_in_pid_order() {
        let mut ps = platforms(4);
        let here = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let out = at_threads(1, || {
            platform_phase(&mut ps, vec![(0, 'a'), (2, 'b'), (3, 'c')], |p, tag| {
                seen.lock().unwrap().push((p.id(), std::thread::current().id()));
                Ok(tag)
            })
        })
        .unwrap();
        assert_eq!(out, vec!['a', 'b', 'c']);
        assert_eq!(seen.into_inner().unwrap(), vec![(0, here), (2, here), (3, here)]);
    }
}
