//! The serving executor: a [`DynamicBatcher`] plus a busy clock.
//!
//! The serving loop ([`sim`](crate::sim)) replays its traffic in
//! simulated-arrival order against one executor per replica — a single
//! server is a fleet of one — and asks it three questions, from nowhere
//! else:
//!
//! 1. [`Executor::due_by`] — which batch did the age rule flush by `t`,
//!    and when does it start?
//! 2. [`Executor::arrive`] — this item arrives at `t`: is it queued,
//!    refused, or does it complete a full batch?
//! 3. [`Executor::drain_next`] — what is left at the end, honouring the
//!    age timer when it is finite?
//!
//! A batch handed out is a [`Due`]: it starts at `flush_t`, once the
//! executor is free and the flush rule fired, and occupies the executor
//! until `done_s` = `flush_t + 2 ms + 1 ms·n` ([`busy_until`]).
//! `infer_batches` computes a run of such batches: entries whose
//! deadline precedes their batch's `done_s` get no inference, and the
//! live rows of the whole run take one `concat0` → `infer` → `slice0`
//! pass per (replica, version). The loop computes its queued runs side
//! by side on the kernel pool (`side_by_side`), one run per task.

use medsplit_core::Result;
use medsplit_simnet::{NetStats, NodeId};
use medsplit_tensor::{pool, Tensor};

use crate::batcher::{Admission, BatchEntry, DynamicBatcher};
use crate::runtime::ServeConfig;

/// Globally unique request id: platform (tenant) index in the high bits.
pub fn request_id(platform: usize, seq: usize) -> u64 {
    ((platform as u64) << 32) | seq as u64
}

/// Brings `node`'s network clock up to `t` (never back), so
/// transport-level arrival times and the makespan agree with the
/// simulated serving clocks.
pub fn sync_clock(stats: &NetStats, node: NodeId, t: f64) {
    let now = stats.clock(node);
    if t > now {
        stats.advance_clock(node, t - now);
    }
}

/// Simulated server cost of a batch, whatever its size (kernel launch and
/// scheduling overhead).
const BATCH_SETUP_S: f64 = 0.002;
/// Simulated server cost of each request in a batch.
const PER_ITEM_S: f64 = 0.001;

/// When a batch of `n` requests started at `flush_t` leaves the executor.
pub fn busy_until(flush_t: f64, n: usize) -> f64 {
    flush_t + BATCH_SETUP_S + PER_ITEM_S * n as f64
}

/// A batch the executor handed out. Never empty.
#[derive(Debug)]
pub struct Due<P> {
    /// The batch, oldest first.
    pub entries: Vec<BatchEntry<P>>,
    /// When the batch starts.
    pub flush_t: f64,
    /// When the batch is done and the executor free again.
    pub done_s: f64,
}

/// What became of an arriving item.
#[derive(Debug)]
pub enum Arrived<P> {
    /// Pending; it will appear in exactly one later batch.
    Queued,
    /// Pending, and it completed a full batch that starts now.
    Full(Due<P>),
    /// The queue was full. The item comes back so the caller can answer
    /// the client explicitly.
    Rejected(P),
}

/// One server's batcher and busy clock.
#[derive(Debug)]
pub struct Executor<P> {
    batcher: DynamicBatcher<P>,
    clock: f64,
}

impl<P> Executor<P> {
    /// An idle executor with `cfg`'s batching parameters.
    pub fn new(cfg: &ServeConfig) -> Self {
        Executor {
            batcher: DynamicBatcher::new(cfg.max_batch, cfg.max_wait_s, cfg.queue_capacity),
            clock: 0.0,
        }
    }

    /// The busy clock: when the executor is free to start a batch.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The queue, read-only: length, flush thresholds, next age flush.
    pub fn batcher(&self) -> &DynamicBatcher<P> {
        &self.batcher
    }

    /// The queue itself, for harnesses that drive the batcher without the
    /// clock and for dropping what is pending. The serving loop goes
    /// through the three questions instead.
    pub fn batcher_mut(&mut self) -> &mut DynamicBatcher<P> {
        &mut self.batcher
    }

    fn hand_out(&mut self, flush_t: f64, entries: Vec<BatchEntry<P>>) -> Due<P> {
        let done_s = busy_until(flush_t, entries.len());
        self.clock = done_s;
        Due {
            entries,
            flush_t,
            done_s,
        }
    }

    /// The batch whose age timer expired at or before `t`, if any: it was
    /// flushed while the replay was (logically) between events, as soon
    /// as the executor was free. Call until `None` before handling the
    /// event at `t`.
    pub fn due_by(&mut self, t: f64) -> Option<Due<P>> {
        let ready = self.batcher.ready_at().filter(|&ready| ready <= t)?;
        let entries = self.batcher.take_batch();
        Some(self.hand_out(self.clock.max(ready), entries))
    }

    /// An item arrives at `t`. The executor cannot start anything before
    /// `t` any more, whatever becomes of the item.
    pub fn arrive(&mut self, item: P, t: f64, deadline_s: f64) -> Arrived<P> {
        self.clock = self.clock.max(t);
        if self.batcher.len() >= self.batcher.capacity() {
            return Arrived::Rejected(item);
        }
        let admitted = self.batcher.offer(item, t, deadline_s);
        debug_assert_eq!(admitted, Admission::Admitted);
        if self.batcher.len() < self.batcher.max_batch() {
            return Arrived::Queued;
        }
        let entries = self.batcher.take_batch();
        Arrived::Full(self.hand_out(self.clock, entries))
    }

    /// After the last event: the next batch still queued, flushed by its
    /// age timer when that is finite and as soon as the executor is free
    /// when it is not. Call until `None`.
    pub fn drain_next(&mut self) -> Option<Due<P>> {
        let ready = self.batcher.ready_at()?;
        let flush_t = if ready.is_finite() {
            self.clock.max(ready)
        } else {
            self.clock
        };
        let entries = self.batcher.take_batch();
        Some(self.hand_out(flush_t, entries))
    }

    /// Everything pending in one batch that starts at `t` or when the
    /// executor is free, ignoring `max_batch` — a graceful drain pays
    /// compute for every entry it flushes.
    pub fn drain_all(&mut self, t: f64) -> Option<Due<P>> {
        if self.batcher.is_empty() {
            return None;
        }
        let entries = self.batcher.drain_all();
        Some(self.hand_out(self.clock.max(t), entries))
    }
}

/// A batch's answers in the order [`infer_batches`] reports them: each
/// entry's position in the batch with its logits, `None` for an entry
/// whose deadline preceded the batch's `done_s`.
pub(crate) type Answers = Vec<(usize, Option<Tensor>)>;

/// The compute of a run of booked batches, each `(replica, due)`: pushes
/// one [`Answers`] per batch onto `out`, in run order. A batch reports
/// first the entries whose deadline precedes its `done_s` (no logits: a
/// timeout, never inferred), then its live ones by ascending `version_of`
/// key and arrival order within a version, each with its rows of the
/// logits.
///
/// The live rows of the whole run take one forward pass per
/// `(replica, version)`: `infer` sees their activations concatenated in
/// run order, batch after batch — the server's aggregate pass of
/// training. A single batch is a run of one. Every row's logits are
/// those of a pass of its own, because the server's layers compute each
/// row independently of its batch mates (`tests/batch_invariance.rs`),
/// so how the queue is cut into runs moves no answer.
///
/// # Errors
///
/// Propagates tensor and model errors.
pub(crate) fn infer_batches<P, K: Ord>(
    run: &[(usize, Due<P>)],
    out: &mut Vec<Answers>,
    version_of: impl Fn(&P) -> K,
    activations: impl Fn(&P) -> &Tensor,
    mut infer: impl FnMut(usize, K, &Tensor) -> Result<Tensor>,
) -> Result<()> {
    let first = out.len();
    // Every live entry of the run as (batch, position), in run order.
    let mut live: Vec<(usize, usize)> = Vec::new();
    for (b, (_, due)) in run.iter().enumerate() {
        let (alive, expired): (Vec<usize>, Vec<usize>) =
            (0..due.entries.len()).partition(|&i| due.entries[i].live_at(due.done_s));
        out.push(expired.into_iter().map(|i| (i, None)).collect());
        live.extend(alive.into_iter().map(|i| (b, i)));
    }
    let item = |&(b, i): &(usize, usize)| &run[b].1.entries[i].item;
    let key = |e: &(usize, usize)| (run[e.0].0, version_of(item(e)));
    // Stable, so run order survives within a pass.
    live.sort_by_key(key);
    for pass in live.chunk_by(|a, b| key(a) == key(b)) {
        let assemble = medsplit_telemetry::span("batch_assemble");
        let tensors: Vec<&Tensor> = pass.iter().map(|e| activations(item(e))).collect();
        let rows = Tensor::concat0(&tensors)?;
        drop(assemble);
        let infer_span = medsplit_telemetry::span("batch_infer");
        let (replica, version) = key(&pass[0]);
        let logits = infer(replica, version, &rows)?;
        drop(infer_span);
        let mut offset = 0;
        for (&(b, i), acts) in pass.iter().zip(&tensors) {
            let n = acts.dims()[0];
            out[first + b].push((i, Some(logits.slice0(offset, n)?)));
            offset += n;
        }
    }
    Ok(())
}

/// `f` over the items in runs of `per_task` consecutive items (the last
/// may be shorter), one kernel-pool task per run
/// ([`pool::parallel_chunks_mut`]); `f` pushes one result per item of its
/// run, and the results come back in item order, or the first error in
/// run order. Each run's output vector is allocated here, on the
/// caller's thread, with room for the run, so the containers the caller
/// frees are its own: a block a worker allocated and the caller freed
/// would wait in the caller's allocator cache for the caller's next
/// allocation of its size, which would then live in the worker's heap
/// arena (DESIGN §10.2). At one pool thread this is the plain loop.
/// Spans entered on a pool worker keep the caller's current span as their
/// parent.
pub(crate) fn side_by_side<T: Sync, R: Send>(
    items: &[T],
    per_task: usize,
    f: impl Fn(&[T], &mut Vec<R>) -> Result<()> + Sync,
) -> Result<Vec<R>> {
    let mut runs: Vec<(Vec<R>, Result<()>)> = items
        .chunks(per_task)
        .map(|run| (Vec::with_capacity(run.len()), Ok(())))
        .collect();
    let parent = medsplit_telemetry::SpanParent::capture();
    pool::parallel_chunks_mut(&mut runs, 1, |task, slot| {
        let _parent = parent.adopt();
        let start = task * per_task;
        let (out, done) = &mut slot[0];
        *done = f(&items[start..items.len().min(start + per_task)], out);
    });
    let mut results = Vec::with_capacity(items.len());
    for (out, done) in runs {
        done?;
        results.extend(out);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, max_wait_s: f64, queue_capacity: usize) -> ServeConfig {
        ServeConfig {
            max_batch,
            max_wait_s,
            queue_capacity,
            ..ServeConfig::default()
        }
    }

    fn items(due: &Due<u32>) -> Vec<u32> {
        due.entries.iter().map(|e| e.item).collect()
    }

    #[test]
    fn age_flush_starts_when_ready_and_free() {
        let mut ex: Executor<u32> = Executor::new(&cfg(8, 1.0, 8));
        assert!(ex.due_by(10.0).is_none(), "nothing pending");
        assert!(matches!(ex.arrive(1, 2.0, f64::INFINITY), Arrived::Queued));
        assert!(matches!(ex.arrive(2, 2.5, f64::INFINITY), Arrived::Queued));
        assert!(ex.due_by(2.9).is_none(), "the oldest entry has waited 0.9 s");
        // Idle executor: the batch starts the moment the timer fires.
        let due = ex.due_by(7.0).unwrap();
        assert_eq!(items(&due), [1, 2]);
        assert_eq!((due.flush_t, due.done_s), (3.0, 3.0 + 0.002 + 2.0 * 0.001));
        assert_eq!(ex.clock(), due.done_s);
        assert!(ex.due_by(7.0).is_none());
        // Busy executor: an entry ready at 4.5 waits for the clock.
        ex.arrive(3, 3.5, f64::INFINITY);
        ex.clock = 6.0;
        let due = ex.due_by(7.0).unwrap();
        assert_eq!((due.flush_t, due.done_s), (6.0, busy_until(6.0, 1)));
    }

    #[test]
    fn arrival_is_queued_completes_a_batch_or_is_refused() {
        let mut ex: Executor<u32> = Executor::new(&cfg(2, f64::INFINITY, 8));
        assert!(matches!(ex.arrive(1, 1.0, 9.0), Arrived::Queued));
        assert_eq!(ex.clock(), 1.0, "an arrival moves an idle clock forward");
        let Arrived::Full(due) = ex.arrive(2, 1.5, f64::INFINITY) else {
            panic!("second arrival fills the batch");
        };
        assert_eq!(items(&due), [1, 2]);
        assert_eq!(due.entries[0].deadline_s, 9.0);
        assert_eq!((due.flush_t, due.done_s), (1.5, busy_until(1.5, 2)));
        // An arrival during the busy period does not move the clock back.
        assert!(matches!(ex.arrive(3, 1.503, f64::INFINITY), Arrived::Queued));
        assert_eq!(ex.clock(), due.done_s);

        // A queue smaller than the batch never flushes on size: it fills
        // and then hands arrivals back.
        let mut ex: Executor<u32> = Executor::new(&cfg(4, f64::INFINITY, 1));
        assert!(matches!(ex.arrive(7, 0.0, f64::INFINITY), Arrived::Queued));
        assert!(matches!(ex.arrive(8, 3.0, f64::INFINITY), Arrived::Rejected(8)));
        assert_eq!(ex.batcher().len(), 1);
        assert_eq!(ex.clock(), 3.0, "a refused arrival still moves the clock");
    }

    #[test]
    fn final_drain_honours_a_finite_timer_only() {
        let mut ex: Executor<u32> = Executor::new(&cfg(2, 1.0, 8));
        ex.batcher_mut().offer(1, 0.0, f64::INFINITY);
        ex.batcher_mut().offer(2, 0.1, f64::INFINITY);
        ex.batcher_mut().offer(3, 5.0, f64::INFINITY);
        let first = ex.drain_next().unwrap();
        assert_eq!(items(&first), [1, 2]);
        assert_eq!((first.flush_t, first.done_s), (1.0, busy_until(1.0, 2)));
        let second = ex.drain_next().unwrap();
        assert_eq!(items(&second), [3]);
        assert_eq!(second.flush_t, 6.0, "waits for its own timer, past the clock");
        assert!(ex.drain_next().is_none());

        // No timer: what is left goes as soon as the executor is free.
        let mut ex: Executor<u32> = Executor::new(&cfg(2, f64::INFINITY, 8));
        ex.arrive(1, 4.0, f64::INFINITY);
        let due = ex.drain_next().unwrap();
        assert_eq!((due.flush_t, due.done_s), (4.0, busy_until(4.0, 1)));
        assert!(ex.drain_next().is_none());
    }

    #[test]
    fn drain_all_ignores_the_batch_size() {
        let mut ex: Executor<u32> = Executor::new(&cfg(2, f64::INFINITY, 8));
        assert!(ex.drain_all(1.0).is_none());
        assert_eq!(ex.clock(), 0.0, "an empty drain leaves the clock alone");
        for i in 0..3 {
            ex.batcher_mut().offer(i, 0.0, f64::INFINITY);
        }
        let due = ex.drain_all(1.0).unwrap();
        assert_eq!(items(&due), [0, 1, 2]);
        assert_eq!((due.flush_t, due.done_s), (1.0, 1.0 + 0.002 + 3.0 * 0.001));
    }

    #[test]
    fn forward_reports_expired_first_then_groups_in_key_order() {
        // Items are (group, activations); the "model" adds 100·group.
        let mut ex: Executor<(u32, Tensor)> = Executor::new(&cfg(8, f64::INFINITY, 8));
        for (i, &(group, deadline)) in [(1, 9.0), (0, 9.0), (1, 0.005), (0, 9.0)].iter().enumerate() {
            ex.batcher_mut()
                .offer((group, Tensor::full([1, 2], i as f32)), 0.0, deadline);
        }
        let run = [(0, ex.drain_next().unwrap())];
        let mut passes = Vec::new();
        let mut answers = Vec::new();
        infer_batches(
            &run,
            &mut answers,
            |p| p.0,
            |p| &p.1,
            |replica, group, batch| {
                passes.push((replica, group, batch.dims()[0]));
                Ok(batch.map(|v| v + 100.0 * group as f32))
            },
        )
        .unwrap();
        let seen: Vec<_> = answers[0]
            .iter()
            .map(|(i, logits)| {
                let p = &run[0].1.entries[*i].item;
                (p.1.as_slice()[0], logits.as_ref().map(|t| t.as_slice().to_vec()))
            })
            .collect();
        assert_eq!(passes, [(0, 0, 2), (0, 1, 1)], "one pass per live group");
        assert_eq!(
            seen,
            [
                (2.0, None),
                (1.0, Some(vec![1.0, 1.0])),
                (3.0, Some(vec![3.0, 3.0])),
                (0.0, Some(vec![100.0, 100.0])),
            ]
        );
    }

    #[test]
    fn a_run_takes_one_pass_per_replica_and_group() {
        // Three batches: replica 1, replica 0, replica 1 again. The
        // "model" adds 100·group + 1000·replica, so a row that took
        // another pass's weights would show.
        let batch = |items: &[(u32, f32)], done_s: f64| {
            let mut ex: Executor<(u32, Tensor)> = Executor::new(&cfg(8, f64::INFINITY, 8));
            for &(group, v) in items {
                let deadline = if v < 0.0 { 0.0 } else { 9.0 };
                ex.batcher_mut()
                    .offer((group, Tensor::full([1, 1], v)), 0.0, deadline);
            }
            let mut due = ex.drain_next().unwrap();
            due.done_s = done_s;
            due
        };
        let run = [
            (1, batch(&[(1, 1.0), (0, 2.0), (0, -1.0)], 1.0)),
            (0, batch(&[(0, 3.0)], 1.0)),
            (1, batch(&[(0, 4.0), (1, 5.0)], 1.0)),
        ];
        let mut passes = Vec::new();
        // A batch answered earlier sits in front; the run appends after it.
        let mut answers = vec![vec![(7, None)]];
        infer_batches(
            &run,
            &mut answers,
            |p| p.0,
            |p| &p.1,
            |replica, group, rows| {
                passes.push((replica, group, rows.as_slice().to_vec()));
                Ok(rows.map(|v| v + 100.0 * group as f32 + 1000.0 * replica as f32))
            },
        )
        .unwrap();
        assert_eq!(
            passes,
            [(0, 0, vec![3.0]), (1, 0, vec![2.0, 4.0]), (1, 1, vec![1.0, 5.0]),],
            "rows of a pass in run order"
        );
        let flat: Vec<Vec<(usize, Option<f32>)>> = answers
            .iter()
            .map(|a| {
                a.iter()
                    .map(|(i, l)| (*i, l.as_ref().map(|t| t.as_slice()[0])))
                    .collect()
            })
            .collect();
        assert_eq!(
            flat,
            [
                vec![(7, None)],
                vec![(2, None), (1, Some(1002.0)), (0, Some(1101.0))],
                vec![(0, Some(3.0))],
                vec![(0, Some(1004.0)), (1, Some(1105.0))],
            ]
        );
    }
}
