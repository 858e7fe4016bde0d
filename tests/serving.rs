//! End-to-end serving over the simulated network: request → local `L1`
//! → server `L2..Lk` → logits, plus the deadline-timeout and queue-full
//! rejection paths, and what becomes of a lost request or response.

use medsplit::core::{build_split, Platform, SplitPoint, SplitServer, WireCodec};
use medsplit::data::SyntheticTabular;
use medsplit::nn::{Architecture, MlpConfig};
use medsplit::serve::{serve_threaded, InferStatus, ServeConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, LinkFaults, MemoryTransport, NodeId, StarTopology};
use medsplit::tensor::Tensor;

const FEATURES: usize = 8;
const CLASSES: usize = 3;

/// Builds `n` platforms (identical `L1`, private shards) and the server.
fn actors(n: usize, seed: u64) -> (Vec<Platform>, SplitServer) {
    let arch = Architecture::Mlp(MlpConfig::small(FEATURES, CLASSES));
    let model = build_split(&arch, SplitPoint::Default, seed, n).unwrap();
    let mut platforms = Vec::with_capacity(n);
    for (id, client) in model.clients.into_iter().enumerate() {
        let data = SyntheticTabular::new(CLASSES, FEATURES, seed ^ id as u64)
            .generate(16)
            .unwrap();
        platforms.push(Platform::new(id, client, data, 4, 0.0, seed));
    }
    (platforms, SplitServer::new(model.server, 0.0))
}

/// `count` single-row queries for one platform.
fn queries(count: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = medsplit::tensor::init::rng_from_seed(seed);
    (0..count)
        .map(|_| Tensor::rand_uniform([1, FEATURES], -1.0, 1.0, &mut rng))
        .collect()
}

#[test]
fn end_to_end_logits_over_threaded_runtime() {
    let n_platforms = 2;
    let per_platform = 12;
    let (platforms, server) = actors(n_platforms, 11);
    let topology = StarTopology::new(n_platforms);
    let transport = MemoryTransport::new(topology.clone());
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_s: 0.02,
        offered_rps: 200.0,
        ..ServeConfig::default()
    };
    let qs: Vec<Vec<Tensor>> = (0..n_platforms)
        .map(|p| queries(per_platform, p as u64))
        .collect();

    let outcome = serve_threaded(platforms, server, qs, &topology, &cfg, &transport).unwrap();

    let report = &outcome.report;
    assert_eq!(report.offered, n_platforms * per_platform);
    assert_eq!(
        report.completed, report.offered,
        "ample capacity: everything completes"
    );
    assert_eq!(report.rejected, 0);
    assert_eq!(report.timed_out, 0);
    assert_eq!(outcome.records.len(), report.offered);
    for rec in &outcome.records {
        assert_eq!(rec.status, InferStatus::Ok);
        let logits = rec.logits.as_ref().expect("completed requests carry logits");
        assert_eq!(logits.dims(), &[1, CLASSES]);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        assert!(rec.latency_s > 0.0, "wire + compute time must be positive");
    }
    // Latency accounting is populated and ordered.
    let lat = report.latency.as_ref().unwrap();
    assert_eq!(lat.count, report.offered);
    assert!(lat.p50_s <= lat.p95_s && lat.p95_s <= lat.p99_s && lat.p99_s <= lat.max_s);
    // Serving traffic is accounted under its own message kinds.
    assert!(report.request_bytes > 0);
    assert!(report.response_bytes > 0);
    assert!(report.makespan_s > 0.0);
}

#[test]
fn serving_logits_match_direct_inference() {
    // The served logits must equal composing infer_l1 + infer directly
    // (noise off, F32): serving is a transport, not a different model.
    let (mut platforms, mut server) = actors(1, 5);
    let q = queries(3, 42);
    let mut direct = Vec::new();
    for x in &q {
        let acts = platforms[0].infer_l1(x).unwrap();
        direct.push(server.infer(&acts).unwrap());
    }

    let (platforms, server) = actors(1, 5);
    let topology = StarTopology::new(1);
    let transport = MemoryTransport::new(topology.clone());
    let cfg = ServeConfig {
        codec: WireCodec::F32,
        ..ServeConfig::default()
    };
    let outcome = serve_threaded(platforms, server, vec![q], &topology, &cfg, &transport).unwrap();

    assert_eq!(outcome.records.len(), 3);
    for (rec, want) in outcome.records.iter().zip(&direct) {
        let got = rec.logits.as_ref().unwrap();
        assert!(
            got.allclose(want, 1e-6),
            "served logits diverge from direct inference"
        );
    }
}

#[test]
fn deadline_timeouts_are_reported() {
    // A zero relative deadline cannot survive the WAN uplink latency, so
    // every admitted request times out — and still gets a response.
    let (platforms, server) = actors(1, 7);
    let topology = StarTopology::new(1);
    let transport = MemoryTransport::new(topology.clone());
    let cfg = ServeConfig {
        deadline_s: 0.0,
        max_batch: 4,
        max_wait_s: 0.01,
        ..ServeConfig::default()
    };
    let outcome = serve_threaded(
        platforms,
        server,
        vec![queries(6, 1)],
        &topology,
        &cfg,
        &transport,
    )
    .unwrap();

    assert_eq!(outcome.report.offered, 6);
    assert_eq!(outcome.report.timed_out, 6, "every request must time out");
    assert_eq!(outcome.report.completed, 0);
    assert!(
        outcome.report.latency.is_none(),
        "no completions, no latency samples"
    );
    for rec in &outcome.records {
        assert_eq!(rec.status, InferStatus::TimedOut);
        assert!(rec.logits.is_none());
        assert!(rec.latency_s > 0.0, "timeout responses still take wire time");
    }
    // Timeout responses are small but still accounted.
    assert!(outcome.report.response_bytes > 0);
}

#[test]
fn queue_full_requests_are_rejected_not_dropped() {
    // Capacity 4 with an infinite flush timer and a size threshold above
    // capacity: the first 4 requests sit in the queue, every later one is
    // rejected, and the queued 4 are served at the final drain. Nothing
    // can flush while requests keep arriving.
    let total = 10;
    let (platforms, server) = actors(1, 3);
    let topology = StarTopology::new(1);
    let transport = MemoryTransport::new(topology.clone());
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait_s: f64::INFINITY,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let outcome = serve_threaded(
        platforms,
        server,
        vec![queries(total, 2)],
        &topology,
        &cfg,
        &transport,
    )
    .unwrap();

    assert_eq!(outcome.report.offered, total);
    assert_eq!(outcome.report.completed, 4, "queue capacity bounds completions");
    assert_eq!(outcome.report.rejected, total - 4);
    assert_eq!(
        outcome.records.len(),
        total,
        "every request has a terminal record"
    );
    // The first four submissions (by id order) were admitted.
    for rec in &outcome.records {
        let expected = if rec.id < 4 {
            InferStatus::Ok
        } else {
            InferStatus::Rejected
        };
        assert_eq!(rec.status, expected, "request {}", rec.id);
    }
}

#[test]
fn f16_codec_shrinks_serving_traffic() {
    let run = |codec: WireCodec| {
        let (platforms, server) = actors(1, 9);
        let topology = StarTopology::new(1);
        let transport = MemoryTransport::new(topology.clone());
        let cfg = ServeConfig {
            codec,
            ..ServeConfig::default()
        };
        serve_threaded(
            platforms,
            server,
            vec![queries(8, 4)],
            &topology,
            &cfg,
            &transport,
        )
        .unwrap()
    };
    let f32_run = run(WireCodec::F32);
    let f16_run = run(WireCodec::F16);
    assert_eq!(f16_run.report.completed, 8);
    assert!(
        f16_run.report.request_bytes < f32_run.report.request_bytes,
        "f16 must shrink uplink serving traffic"
    );
    assert!(
        f16_run.report.response_bytes < f32_run.report.response_bytes,
        "f16 must shrink downlink serving traffic"
    );
}

/// Every frame on one of platform 1's links is lost. On the downlink its
/// responses never arrive, and the session refuses to report at once,
/// naming the platform and the counts, the same on every run: nothing
/// waits for a message that will never come. On the uplink the server
/// never sees its requests, so each becomes a client-side `Throttled`
/// record at zero latency, as in a fleet, and platform 0 is served.
#[test]
fn lost_messages_fail_fast_and_deterministically() {
    let per_platform = 6;
    let run = |src: NodeId, dst: NodeId| {
        let (platforms, server) = actors(2, 13);
        let topology = StarTopology::new(2);
        let lost = LinkFaults {
            drop_p: 1.0,
            ..LinkFaults::default()
        };
        let plan = FaultPlan::new(3).link(src, dst, lost);
        let transport = ChaosTransport::new(MemoryTransport::new(topology.clone()), plan);
        let qs = (0..2).map(|p| queries(per_platform, p)).collect();
        let cfg = ServeConfig::default();
        serve_threaded(platforms, server, qs, &topology, &cfg, &transport)
    };

    let downlink = || {
        let started = std::time::Instant::now();
        let err = run(NodeId::Server, NodeId::Platform(1)).unwrap_err().to_string();
        (err, started.elapsed())
    };
    let (first, took) = downlink();
    assert_eq!(
        first,
        format!("protocol violation: platform 1 received 0 of {per_platform} responses")
    );
    assert!(took.as_secs_f64() < 1.0, "the refusal took {took:?}");
    assert_eq!(first, downlink().0, "two runs of one scenario disagree");

    let uplink = run(NodeId::Platform(1), NodeId::Server).unwrap();
    assert_eq!(uplink.records.len(), 2 * per_platform);
    for rec in &uplink.records {
        if rec.platform == 1 {
            assert_eq!(rec.status, InferStatus::Throttled);
            assert_eq!(rec.latency_s, 0.0);
        } else {
            assert_eq!(rec.status, InferStatus::Ok);
        }
    }
    assert_eq!(uplink.report.throttled, per_platform);
    assert_eq!(uplink.report.completed, per_platform);
}
