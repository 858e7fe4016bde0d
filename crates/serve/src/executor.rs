//! The serving executor: a [`DynamicBatcher`] plus a busy clock.
//!
//! Both serving drivers replay their traffic in simulated-arrival order
//! against a single executor per server — `serve_threaded` has one, a
//! fleet has one per replica — and ask it the same three questions:
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
//! until `done_s` = `flush_t + batch_setup_s + per_item_s·n`
//! ([`busy_until`]). [`forward_batch`] then runs it: entries whose
//! deadline precedes `done_s` are answered without inference, the rest
//! take one `concat0` → `infer` → `slice0` pass per group.

use medsplit_core::Result;
use medsplit_simnet::{NetStats, NodeId};
use medsplit_tensor::Tensor;

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

/// When a batch of `n` requests started at `flush_t` leaves the executor.
pub fn busy_until(cfg: &ServeConfig, flush_t: f64, n: usize) -> f64 {
    flush_t + cfg.batch_setup_s + cfg.per_item_s * n as f64
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
    cfg: ServeConfig,
    clock: f64,
}

impl<P> Executor<P> {
    /// An idle executor with `cfg`'s batching parameters and costs.
    pub fn new(cfg: &ServeConfig) -> Self {
        Executor {
            batcher: DynamicBatcher::new(cfg.max_batch, cfg.max_wait_s, cfg.queue_capacity),
            cfg: cfg.clone(),
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
    /// clock and for dropping what is pending. The replay loops go
    /// through the three questions instead.
    pub fn batcher_mut(&mut self) -> &mut DynamicBatcher<P> {
        &mut self.batcher
    }

    fn hand_out(&mut self, flush_t: f64, entries: Vec<BatchEntry<P>>) -> Due<P> {
        let done_s = busy_until(&self.cfg, flush_t, entries.len());
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

/// Runs one batch that is done at `done_s` and reports every entry
/// exactly once through `emit`, in a fixed order: first the entries whose
/// deadline precedes `done_s` (with `None`: a timeout, never inferred),
/// then the live ones by ascending `group_of` key and arrival order
/// within a group, each with its slice of the group's logits. A group
/// takes one forward pass over its concatenated activations — the same
/// aggregate pattern as training. The single server has one group; a
/// fleet replica groups by pinned weight version.
///
/// # Errors
///
/// Propagates tensor, model and `emit` errors.
pub fn forward_batch<P, K: Ord>(
    entries: Vec<BatchEntry<P>>,
    done_s: f64,
    histogram: &str,
    group_of: impl Fn(&P) -> K,
    activations: impl Fn(&P) -> &Tensor,
    mut infer: impl FnMut(K, &Tensor) -> Result<Tensor>,
    mut emit: impl FnMut(&P, Option<Tensor>) -> Result<()>,
) -> Result<()> {
    medsplit_telemetry::histogram_observe(
        histogram,
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        entries.len() as f64,
    );
    let (mut live, expired): (Vec<_>, Vec<_>) = entries.into_iter().partition(|e| e.deadline_s >= done_s);
    for entry in &expired {
        emit(&entry.item, None)?;
    }
    // Stable, so arrival order survives within a group.
    live.sort_by_key(|e| group_of(&e.item));
    for group in live.chunk_by(|a, b| group_of(&a.item) == group_of(&b.item)) {
        let assemble = medsplit_telemetry::span("batch_assemble");
        let tensors: Vec<&Tensor> = group.iter().map(|e| activations(&e.item)).collect();
        let batch = Tensor::concat0(&tensors)?;
        drop(assemble);
        let infer_span = medsplit_telemetry::span("batch_infer");
        let logits = infer(group_of(&group[0].item), &batch)?;
        drop(infer_span);
        let mut offset = 0;
        for (entry, acts) in group.iter().zip(&tensors) {
            let rows = acts.dims()[0];
            emit(&entry.item, Some(logits.slice0(offset, rows)?))?;
            offset += rows;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, max_wait_s: f64, queue_capacity: usize) -> ServeConfig {
        ServeConfig {
            max_batch,
            max_wait_s,
            queue_capacity,
            batch_setup_s: 0.5,
            per_item_s: 0.25,
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
        assert_eq!((due.flush_t, due.done_s), (3.0, 3.0 + 0.5 + 2.0 * 0.25));
        assert_eq!(ex.clock(), 4.0);
        assert!(ex.due_by(7.0).is_none());
        // Busy executor: an entry ready at 4.5 waits for the clock.
        ex.arrive(3, 3.5, f64::INFINITY);
        ex.clock = 6.0;
        let due = ex.due_by(7.0).unwrap();
        assert_eq!((due.flush_t, due.done_s), (6.0, 6.75));
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
        assert_eq!((due.flush_t, due.done_s), (1.5, 2.5));
        // An arrival during the busy period does not move the clock back.
        assert!(matches!(ex.arrive(3, 2.0, f64::INFINITY), Arrived::Queued));
        assert_eq!(ex.clock(), 2.5);

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
        assert_eq!((first.flush_t, first.done_s), (1.0, 2.0));
        let second = ex.drain_next().unwrap();
        assert_eq!(items(&second), [3]);
        assert_eq!(second.flush_t, 6.0, "waits for its own timer, past the clock");
        assert!(ex.drain_next().is_none());

        // No timer: what is left goes as soon as the executor is free.
        let mut ex: Executor<u32> = Executor::new(&cfg(2, f64::INFINITY, 8));
        ex.arrive(1, 4.0, f64::INFINITY);
        let due = ex.drain_next().unwrap();
        assert_eq!((due.flush_t, due.done_s), (4.0, 4.75));
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
        assert_eq!((due.flush_t, due.done_s), (1.0, 1.0 + 0.5 + 3.0 * 0.25));
    }

    #[test]
    fn forward_reports_expired_first_then_groups_in_key_order() {
        // Items are (group, activations); the "model" adds 100·group.
        let mut ex: Executor<(u32, Tensor)> = Executor::new(&cfg(8, f64::INFINITY, 8));
        for (i, &(group, deadline)) in [(1, 9.0), (0, 9.0), (1, 0.5), (0, 9.0)].iter().enumerate() {
            ex.batcher_mut()
                .offer((group, Tensor::full([1, 2], i as f32)), 0.0, deadline);
        }
        let due = ex.drain_next().unwrap();
        let mut passes = Vec::new();
        let mut seen = Vec::new();
        forward_batch(
            due.entries,
            due.done_s,
            "test.batch_size",
            |p| p.0,
            |p| &p.1,
            |group, batch| {
                passes.push((group, batch.dims()[0]));
                Ok(batch.map(|v| v + 100.0 * group as f32))
            },
            |p, logits| {
                seen.push((p.1.as_slice()[0], logits.map(|t| t.as_slice().to_vec())));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(passes, [(0, 2), (1, 1)], "one pass per live group");
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
}
