//! Latency and throughput accounting for a serving run.

use medsplit_simnet::{MessageKind, StatsSnapshot};
use medsplit_telemetry::percentile;

use crate::runtime::ClientRecord;
use crate::wire::InferStatus;

/// Order statistics of a latency sample set, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Median (nearest rank).
    pub p50_s: f64,
    /// 95th percentile (nearest rank).
    pub p95_s: f64,
    /// 99th percentile (nearest rank).
    pub p99_s: f64,
    /// Largest sample.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarises a sample set; `None` when it is empty.
    pub fn from_samples(samples: &[f64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(LatencySummary {
            count: sorted.len(),
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: percentile(&sorted, 50.0),
            p95_s: percentile(&sorted, 95.0),
            p99_s: percentile(&sorted, 99.0),
            max_s: *sorted.last().expect("non-empty"),
        })
    }
}

/// Aggregate outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests the clients submitted.
    pub offered: usize,
    /// Requests served with logits.
    pub completed: usize,
    /// Requests refused admission (queue full).
    pub rejected: usize,
    /// Requests admitted but past their deadline when served.
    pub timed_out: usize,
    /// Requests refused by the fleet router (tenant quota exhausted or no
    /// active replica). Always zero for single-server runs.
    pub throttled: usize,
    /// End-to-end latency of *completed* requests (submit → logits
    /// received, simulated seconds).
    pub latency: Option<LatencySummary>,
    /// Total wire bytes of `InferRequest` traffic.
    pub request_bytes: u64,
    /// Total wire bytes of `InferResponse` traffic.
    pub response_bytes: u64,
    /// Simulated makespan of the run.
    pub makespan_s: f64,
}

impl ServeReport {
    /// Folds a run's terminal records and network statistics into its
    /// report. Latency is summarised over completed requests only.
    pub fn fold(offered: usize, records: &[ClientRecord], stats: &StatsSnapshot) -> ServeReport {
        let mut report = ServeReport {
            offered,
            completed: 0,
            rejected: 0,
            timed_out: 0,
            throttled: 0,
            latency: None,
            request_bytes: stats.bytes_of(MessageKind::InferRequest),
            response_bytes: stats.bytes_of(MessageKind::InferResponse),
            makespan_s: stats.makespan_s,
        };
        let mut latencies = Vec::new();
        for rec in records {
            report.tally(rec.status);
            if rec.status == InferStatus::Ok {
                latencies.push(rec.latency_s);
            }
        }
        report.latency = LatencySummary::from_samples(&latencies);
        report
    }

    /// Uplink wire bytes per offered request.
    pub fn request_bytes_per_offered(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.request_bytes as f64 / self.offered as f64
        }
    }

    /// Downlink wire bytes per offered request.
    pub fn response_bytes_per_offered(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.response_bytes as f64 / self.offered as f64
        }
    }

    /// Completed requests per simulated second.
    pub fn goodput_rps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }

    /// Counts one terminal status (used while folding client records).
    pub fn tally(&mut self, status: InferStatus) {
        match status {
            InferStatus::Ok => self.completed += 1,
            InferStatus::Rejected => self.rejected += 1,
            InferStatus::TimedOut => self.timed_out += 1,
            InferStatus::Throttled => self.throttled += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary() {
        let s = LatencySummary::from_samples(&[0.25]).unwrap();
        assert_eq!(s.p50_s, 0.25);
        assert_eq!(s.p99_s, 0.25);
        assert_eq!(s.max_s, 0.25);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let s = LatencySummary::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.p50_s, 2.0);
        assert_eq!(s.max_s, 3.0);
    }

    #[test]
    fn empty_samples_yield_none() {
        assert!(LatencySummary::from_samples(&[]).is_none());
    }

    #[test]
    fn report_rates() {
        let mut r = ServeReport {
            offered: 10,
            completed: 0,
            rejected: 0,
            timed_out: 0,
            throttled: 0,
            latency: None,
            request_bytes: 1000,
            response_bytes: 500,
            makespan_s: 2.0,
        };
        for _ in 0..8 {
            r.tally(InferStatus::Ok);
        }
        r.tally(InferStatus::Rejected);
        r.tally(InferStatus::TimedOut);
        r.tally(InferStatus::Throttled);
        assert_eq!((r.completed, r.rejected, r.timed_out, r.throttled), (8, 1, 1, 1));
        assert_eq!(r.request_bytes_per_offered(), 100.0);
        assert_eq!(r.response_bytes_per_offered(), 50.0);
        assert_eq!(r.goodput_rps(), 4.0);
    }
}
