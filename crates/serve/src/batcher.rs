//! Dynamic batching with admission control.
//!
//! [`DynamicBatcher`] is a pure state machine over explicit timestamps: it
//! never reads a wall clock, so the serving runtime can drive it with
//! simulated time and tests can drive it with arbitrary schedules. A batch
//! is *due* when either `max_batch` requests are pending or the oldest
//! pending request has waited `max_wait_s` — whichever happens first, the
//! standard flush rule of serving systems (e.g. Triton/Clipper-style
//! dynamic batching).
//!
//! Admission control is a bounded queue: when `capacity` requests are
//! already pending, [`offer`](DynamicBatcher::offer) returns
//! [`Admission::Rejected`] and the caller must answer the client
//! explicitly — rejected work is never silently dropped.

use std::collections::VecDeque;

/// Whether an offered request was queued or refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request is pending and will appear in exactly one batch.
    Admitted,
    /// The queue was full; the request was not enqueued.
    Rejected,
}

/// One queued request with its timing metadata.
#[derive(Debug, Clone)]
pub struct BatchEntry<T> {
    /// The queued item.
    pub item: T,
    /// When the item entered the queue (simulated seconds).
    pub enqueued_s: f64,
    /// Absolute deadline (`INFINITY` = none). The batcher itself does not
    /// drop expired entries — the server decides at serve time, so late
    /// requests get an explicit timeout response.
    pub deadline_s: f64,
}

impl<T> BatchEntry<T> {
    /// Whether the entry is still worth inferring in a batch done at
    /// `done_s`: its deadline does not precede it.
    pub(crate) fn live_at(&self, done_s: f64) -> bool {
        self.deadline_s >= done_s
    }
}

/// Bounded FIFO queue with flush-on-size-or-age batching.
#[derive(Debug)]
pub struct DynamicBatcher<T> {
    max_batch: usize,
    max_wait_s: f64,
    capacity: usize,
    pending: VecDeque<BatchEntry<T>>,
}

impl<T> DynamicBatcher<T> {
    /// Creates a batcher.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`, `capacity == 0`, or `max_wait_s` is
    /// negative/NaN (`INFINITY` is allowed: flush on size only).
    pub fn new(max_batch: usize, max_wait_s: f64, capacity: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        assert!(capacity >= 1, "capacity must be at least 1");
        assert!(max_wait_s >= 0.0, "max_wait_s must be non-negative");
        DynamicBatcher {
            max_batch,
            max_wait_s,
            capacity,
            pending: VecDeque::new(),
        }
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The flush batch-size threshold.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The flush age threshold in seconds.
    pub fn max_wait_s(&self) -> f64 {
        self.max_wait_s
    }

    /// The admission-control queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers a request at time `now_s`. Full queue ⇒ `Rejected` and the
    /// item is dropped (the caller already owns it and must produce the
    /// rejection response).
    pub fn offer(&mut self, item: T, now_s: f64, deadline_s: f64) -> Admission {
        if self.pending.len() >= self.capacity {
            return Admission::Rejected;
        }
        self.pending.push_back(BatchEntry {
            item,
            enqueued_s: now_s,
            deadline_s,
        });
        Admission::Admitted
    }

    /// The earliest time the age rule will force a flush: oldest pending
    /// entry's enqueue time plus `max_wait_s`. `None` when the queue is
    /// empty. (The size rule can make a batch due earlier.)
    pub fn ready_at(&self) -> Option<f64> {
        self.pending.front().map(|e| e.enqueued_s + self.max_wait_s)
    }

    /// Whether a batch is due at `now_s` under either flush rule.
    fn is_due(&self, now_s: f64) -> bool {
        self.pending.len() >= self.max_batch || self.ready_at().is_some_and(|t| now_s >= t)
    }

    /// Takes the due batch (up to `max_batch` oldest entries) if one is
    /// due at `now_s`; `None` otherwise.
    pub fn take_due(&mut self, now_s: f64) -> Option<Vec<BatchEntry<T>>> {
        if self.pending.is_empty() || !self.is_due(now_s) {
            return None;
        }
        Some(self.take_batch())
    }

    /// Unconditionally takes up to `max_batch` oldest entries (final
    /// drain at shutdown). Empty vec when nothing is pending.
    pub fn take_batch(&mut self) -> Vec<BatchEntry<T>> {
        let n = self.pending.len().min(self.max_batch);
        self.pending.drain(..n).collect()
    }

    /// Unconditionally takes *every* pending entry, ignoring `max_batch`.
    /// Used when a fleet replica drains: whatever is queued must leave
    /// with the replica in one sweep, not in flush-sized slices.
    pub fn drain_all(&mut self) -> Vec<BatchEntry<T>> {
        self.pending.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_batch: usize, max_wait_s: f64, capacity: usize) -> DynamicBatcher<u32> {
        DynamicBatcher::new(max_batch, max_wait_s, capacity)
    }

    #[test]
    fn flushes_on_size() {
        let mut b = batcher(3, 10.0, 8);
        assert_eq!(b.offer(1, 0.0, f64::INFINITY), Admission::Admitted);
        assert_eq!(b.offer(2, 0.1, f64::INFINITY), Admission::Admitted);
        assert!(!b.is_due(0.2), "two of three pending");
        assert_eq!(b.offer(3, 0.2, f64::INFINITY), Admission::Admitted);
        assert!(b.is_due(0.2));
        let batch = b.take_due(0.2).unwrap();
        assert_eq!(batch.iter().map(|e| e.item).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn flushes_on_age() {
        let mut b = batcher(16, 0.5, 8);
        b.offer(1, 1.0, f64::INFINITY);
        b.offer(2, 1.2, f64::INFINITY);
        assert_eq!(b.ready_at(), Some(1.5));
        assert!(!b.is_due(1.49));
        assert!(b.is_due(1.5));
        let batch = b.take_due(1.5).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(b.ready_at(), None);
    }

    #[test]
    fn size_rule_caps_batch_and_keeps_rest() {
        let mut b = batcher(2, 0.0, 8);
        for i in 0..5 {
            b.offer(i, 0.0, f64::INFINITY);
        }
        assert_eq!(
            b.take_due(0.0)
                .unwrap()
                .iter()
                .map(|e| e.item)
                .collect::<Vec<_>>(),
            [0, 1]
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.take_due(0.0).unwrap().len(), 2);
        assert_eq!(b.take_due(0.0).unwrap().len(), 1);
        assert!(b.take_due(0.0).is_none());
    }

    #[test]
    fn rejects_when_full() {
        let mut b = batcher(8, f64::INFINITY, 2);
        assert_eq!(b.offer(1, 0.0, f64::INFINITY), Admission::Admitted);
        assert_eq!(b.offer(2, 0.0, f64::INFINITY), Admission::Admitted);
        assert_eq!(b.offer(3, 0.0, f64::INFINITY), Admission::Rejected);
        assert_eq!(b.len(), 2, "rejected item must not be enqueued");
        // Draining frees capacity again.
        let _ = b.take_batch();
        assert_eq!(b.offer(4, 1.0, f64::INFINITY), Admission::Admitted);
    }

    #[test]
    fn infinite_wait_never_due_by_age() {
        let mut b = batcher(4, f64::INFINITY, 8);
        b.offer(1, 0.0, f64::INFINITY);
        assert!(!b.is_due(1e12));
        assert!(b.take_due(1e12).is_none());
        assert_eq!(b.take_batch().len(), 1);
    }

    #[test]
    fn entries_keep_timing_metadata() {
        let mut b = batcher(1, 0.0, 8);
        b.offer(7, 2.5, 3.25);
        let batch = b.take_due(2.5).unwrap();
        assert_eq!(batch[0].enqueued_s, 2.5);
        assert_eq!(batch[0].deadline_s, 3.25);
    }

    #[test]
    fn drain_all_ignores_max_batch() {
        let mut b = batcher(2, f64::INFINITY, 8);
        for i in 0..5 {
            b.offer(i, 0.0, f64::INFINITY);
        }
        let drained = b.drain_all();
        assert_eq!(
            drained.iter().map(|e| e.item).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert!(b.is_empty());
        assert!(b.drain_all().is_empty());
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_panics() {
        let _ = batcher(0, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = batcher(1, 1.0, 0);
    }
}
