//! Training histories: the data behind every accuracy-vs-bytes curve in
//! the evaluation.

use medsplit_simnet::StatsSnapshot;

/// One row of a training run's log.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 0-based round index.
    pub round: usize,
    /// Learning rate used this round.
    pub lr: f32,
    /// Mean training loss across platforms this round.
    pub mean_loss: f32,
    /// Cumulative wire bytes after this round.
    pub cumulative_bytes: u64,
    /// Simulated makespan after this round, in seconds.
    pub simulated_time_s: f64,
    /// Wall-clock duration of this round on the host, in seconds.
    ///
    /// Unlike [`simulated_time_s`](Self::simulated_time_s) (the modelled
    /// geo-distributed makespan), this measures real compute time and is
    /// what the parallel kernel backend speeds up.
    pub wall_time_s: f64,
    /// Number of platforms whose contribution made it into this round's
    /// update. Equals the platform count for fail-stop drivers; the
    /// resilient trainer records the surviving quorum.
    pub participants: usize,
    /// Whether this round ran degraded: platforms were skipped (crashed,
    /// past the deadline, or out of retries) or the quorum failed
    /// entirely and the update was dropped.
    pub degraded: bool,
    /// Test accuracy, if this round was an evaluation round.
    pub accuracy: Option<f32>,
}

/// The complete log of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingHistory {
    /// Method name ("split", "fedavg", "sync_sgd", ...).
    pub method: String,
    /// Per-round records.
    pub records: Vec<RoundRecord>,
    /// Accuracy after the final round.
    pub final_accuracy: f32,
    /// Final communication statistics.
    pub stats: StatsSnapshot,
}

impl TrainingHistory {
    /// The `(bytes, accuracy)` series of evaluation rounds — the curve of
    /// Fig. 4.
    pub fn curve(&self) -> Vec<(u64, f32)> {
        self.records
            .iter()
            .filter_map(|r| r.accuracy.map(|a| (r.cumulative_bytes, a)))
            .collect()
    }

    /// Renders the history as CSV
    /// (`method,round,lr,loss,bytes,simulated_s,wall_s,participants,degraded,accuracy`).
    ///
    /// Two easily confused time columns, both cumulative-vs-per-round
    /// asymmetric on purpose:
    ///
    /// - `simulated_s` — [`RoundRecord::simulated_time_s`]: the modelled
    ///   geo-distributed makespan on the simulated clock *after* this
    ///   round (cumulative). This is the time axis the paper's figures
    ///   use; it depends only on link specs, message sizes, and the
    ///   compute model — never on the host.
    /// - `wall_s` — [`RoundRecord::wall_time_s`]: real host seconds spent
    ///   computing *this* round (per-round, not cumulative). This is what
    ///   kernel optimisations speed up and what `trace_report` breaks
    ///   down by phase; it says nothing about WAN behaviour.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("method,round,lr,loss,bytes,simulated_s,wall_s,participants,degraded,accuracy\n");
        for r in &self.records {
            let acc = r.accuracy.map_or(String::new(), |a| format!("{a:.4}"));
            out.push_str(&format!(
                "{},{},{:.5},{:.4},{},{:.3},{:.3},{},{},{}\n",
                self.method,
                r.round,
                r.lr,
                r.mean_loss,
                r.cumulative_bytes,
                r.simulated_time_s,
                r.wall_time_s,
                r.participants,
                r.degraded as u8,
                acc
            ));
        }
        out
    }

    /// Number of rounds recorded as degraded.
    pub fn degraded_rounds(&self) -> usize {
        self.records.iter().filter(|r| r.degraded).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> TrainingHistory {
        let mk = |round, bytes, acc: Option<f32>| RoundRecord {
            round,
            lr: 0.1,
            mean_loss: 1.0,
            cumulative_bytes: bytes,
            simulated_time_s: round as f64,
            wall_time_s: 0.01,
            participants: 2,
            degraded: round == 1,
            accuracy: acc,
        };
        TrainingHistory {
            method: "split".into(),
            records: vec![
                mk(0, 100, Some(0.2)),
                mk(1, 200, None),
                mk(2, 300, Some(0.5)),
                mk(3, 400, Some(0.45)),
            ],
            final_accuracy: 0.45,
            stats: StatsSnapshot {
                total_bytes: 400,
                logical_bytes: 400,
                messages: 10,
                by_kind: vec![],
                msgs_by_kind: vec![],
                uplink_bytes: 250,
                downlink_bytes: 150,
                makespan_s: 3.0,
            },
        }
    }

    #[test]
    fn curve_skips_non_eval_rounds() {
        let h = history();
        assert_eq!(h.curve(), vec![(100, 0.2), (300, 0.5), (400, 0.45)]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = history().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "method,round,lr,loss,bytes,simulated_s,wall_s,participants,degraded,accuracy"
        );
        assert!(lines[1].starts_with("split,0,"));
        // Non-eval rounds leave the accuracy column empty.
        assert!(lines[2].ends_with(','));
        // Round 1 is marked degraded in the fixture.
        assert!(lines[2].contains(",2,1,"));
        assert_eq!(history().degraded_rounds(), 1);
    }
}
