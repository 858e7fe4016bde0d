//! Names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` lists the same metrics (a unit test holds the two
//! together) and adds the regression bound of each end-to-end metric.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// The workloads a metric applies to. Elsewhere it has nothing to
/// measure: the result line the driver reads carries a stand-in there
/// (see `workloads::Repeat`) or, per layer, 0; result files and
/// `--check-against` leave it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    /// The three `train_*` workloads.
    Train,
    /// `train_hier_int8`: relays and per-round checkpoints.
    Hier,
    /// `serve_vgg` and `fleet_mlp`.
    Serving,
    ServeVgg,
    Fleet,
}

impl On {
    pub fn covers(self, workload: &str) -> bool {
        let train = workload.starts_with("train_");
        match self {
            On::All => true,
            On::Train => train,
            On::Hier => workload == "train_hier_int8",
            On::Serving => !train,
            On::ServeVgg => workload == "serve_vgg",
            On::Fleet => workload == "fleet_mlp",
        }
    }
}

/// `(name, unit, direction, workloads it applies to)`.
pub type MetricDef = (&'static str, &'static str, Better, On);

use Better::{Higher, Lower};
use On::{All, Fleet, Hier, ServeVgg, Serving, Train};

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    ("setup_s", "s", Lower, All),
    ("rounds_per_s", "1/s", Higher, Train),
    ("requests_per_s", "1/s", Higher, Serving),
    ("wire_bytes_per_op", "B", Lower, All),
    ("final_loss", "nats", Lower, Train),
    ("peak_rss_mb", "MiB", Lower, All),
];

/// Single layers; measured in the traced run.
pub const PER_LAYER: [MetricDef; 61] = [
    // core
    ("core.platform.start_round_ms", "ms", Lower, Train),
    ("core.server.aggregate_forward_ms", "ms", Lower, Train),
    ("core.platform.handle_logits_ms", "ms", Lower, Train),
    ("core.server.aggregate_backward_ms", "ms", Lower, Train),
    ("core.platform.handle_cut_grads_ms", "ms", Lower, Train),
    ("core.platform.checkpoint_ms", "ms", Lower, Hier),
    ("core.relay.batch_ms", "ms", Lower, Hier),
    ("core.relay.unbatch_ms", "ms", Lower, Hier),
    ("core.round.coverage", "ratio", Higher, All),
    ("core.driver_overhead", "ratio", Lower, Train),
    ("core.platform.infer_l1_us", "us", Lower, Serving),
    ("core.server.infer_b1_us", "us", Lower, ServeVgg),
    ("core.server.infer_b8_us", "us", Lower, ServeVgg),
    // tensor
    ("tensor.serialize.encode_ns_per_byte", "ns/B", Lower, All),
    ("tensor.serialize.decode_ns_per_byte", "ns/B", Lower, All),
    ("tensor.serialize.ms_per_round", "ms", Lower, All),
    ("tensor.gemm_ms_per_round", "ms", Lower, All),
    ("tensor.conv_ms_per_round", "ms", Lower, All),
    ("tensor.gemm.calls_per_round", "count", Lower, All),
    ("tensor.conv.calls_per_round", "count", Lower, All),
    ("tensor.plan.misses_per_op", "count", Lower, All),
    ("tensor.scratch.allocs_per_op", "count", Lower, All),
    ("tensor.pool.threads", "count", Higher, All),
    ("tensor.pool.scaling", "ratio", Higher, All),
    // nn
    ("nn.l1.forward_ms", "ms", Lower, Train),
    ("nn.l1.backward_step_ms", "ms", Lower, Train),
    ("nn.server.forward_ms", "ms", Lower, Train),
    ("nn.server.backward_step_ms", "ms", Lower, Train),
    ("nn.loss.softmax_xent_us", "us", Lower, Train),
    // data
    ("data.sampler.next_batch_us", "us", Lower, Train),
    // simnet
    ("simnet.checksum_ns_per_byte", "ns/B", Lower, All),
    ("simnet.checksum_ms_per_round_pass", "ms", Lower, All),
    ("simnet.envelope.encode_ns_per_byte", "ns/B", Lower, All),
    ("simnet.envelope.decode_ns_per_byte", "ns/B", Lower, All),
    ("simnet.transport.send_us", "us", Lower, All),
    ("simnet.transport.recv_us", "us", Lower, All),
    ("simnet.msgs_per_op", "count", Lower, All),
    ("simnet.wire_bytes_per_op", "B", Lower, All),
    ("simnet.logical_bytes_per_op", "B", Lower, All),
    ("simnet.sim_makespan_s", "s", Lower, All),
    // serve
    ("serve.path.latency_p50_us", "us", Lower, ServeVgg),
    ("serve.path.latency_p99_us", "us", Lower, ServeVgg),
    ("serve.wire.encode_request_us", "us", Lower, Serving),
    ("serve.wire.decode_request_us", "us", Lower, Serving),
    ("serve.wire.encode_response_us", "us", Lower, Serving),
    ("serve.wire.decode_response_us", "us", Lower, Serving),
    ("serve.batcher.offer_take_us", "us", Lower, Serving),
    ("serve.batch.assemble_us", "us", Lower, ServeVgg),
    ("serve.batch_size_mean", "count", Higher, Serving),
    ("serve.runtime.overhead", "ratio", Lower, ServeVgg),
    ("serve.sim_p50_ms", "ms", Lower, Serving),
    ("serve.sim_p99_ms", "ms", Lower, Serving),
    // fleet
    ("fleet.ring.route_ns", "ns", Lower, Fleet),
    ("fleet.router.admit_complete_ns", "ns", Lower, Fleet),
    ("fleet.session.codec_us", "us", Lower, Fleet),
    ("fleet.replica.serve_us_per_req", "us", Lower, Fleet),
    ("fleet.sim.overhead", "ratio", Lower, Fleet),
    ("fleet.replica.share_max", "ratio", Lower, Fleet),
    ("fleet.redispatched", "count", Lower, Fleet),
    ("fleet.handoffs", "count", Lower, Fleet),
    // telemetry
    ("telemetry.trace_overhead", "ratio", Lower, All),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` and the tables above name the same metrics with
    /// the same units and directions, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(json::Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|(n, u, b, _)| (n.to_string(), u.to_string(), b.as_str().to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(json::Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
        for m in spec
            .get("end_to_end")
            .and_then(json::Value::as_arr)
            .expect("end_to_end")
        {
            let bound = m.get("bound").and_then(json::Value::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound));
        }
    }
}
