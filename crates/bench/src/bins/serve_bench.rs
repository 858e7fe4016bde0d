//! Serving latency under load: sweeps the offered request rate for every
//! wire codec and reports p50/p95/p99 end-to-end latency, wire bytes per
//! request, and goodput from the simulated clock.
//!
//! Usage:
//!   exp serve_bench [--quick]

use crate::report::{arg_present, write_result, TextTable};
use medsplit_core::{build_split, Platform, SplitPoint, SplitServer, WireCodec};
use medsplit_data::SyntheticTabular;
use medsplit_nn::{Architecture, MlpConfig};
use medsplit_serve::{serve_threaded, ServeConfig, ServeOutcome};
use medsplit_simnet::{MemoryTransport, StarTopology};
use medsplit_tensor::{init::rng_from_seed, Tensor};

const FEATURES: usize = 16;
const CLASSES: usize = 4;
const PLATFORMS: usize = 3;
const SEED: u64 = 42;

fn run_point(offered_rps: f64, codec: WireCodec, requests_per_platform: usize) -> ServeOutcome {
    let arch = Architecture::Mlp(MlpConfig::small(FEATURES, CLASSES));
    let model = build_split(&arch, SplitPoint::Default, SEED, PLATFORMS).expect("build split");
    let mut platforms = Vec::with_capacity(PLATFORMS);
    for (id, client) in model.clients.into_iter().enumerate() {
        let data = SyntheticTabular::new(CLASSES, FEATURES, SEED ^ id as u64)
            .generate(16)
            .expect("dataset");
        platforms.push(Platform::new(id, client, data, 4, 0.0, SEED));
    }
    let server = SplitServer::new(model.server, 0.0);

    let mut rng = rng_from_seed(SEED.wrapping_add(offered_rps as u64));
    let queries: Vec<Vec<Tensor>> = (0..PLATFORMS)
        .map(|_| {
            (0..requests_per_platform)
                .map(|_| Tensor::rand_uniform([1, FEATURES], -1.0, 1.0, &mut rng))
                .collect()
        })
        .collect();

    let topology = StarTopology::new(PLATFORMS);
    let transport = MemoryTransport::new(topology.clone());
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait_s: 0.010,
        queue_capacity: 64,
        deadline_s: f64::INFINITY,
        offered_rps,
        batch_setup_s: 0.002,
        per_item_s: 0.001,
        codec,
    };
    serve_threaded(platforms, server, queries, &topology, &cfg, &transport).expect("serving run")
}

/// Runs the serving latency sweep.
pub fn run(args: &[String]) {
    let requests_per_platform = if arg_present(args, "--quick") { 50 } else { 300 };
    // Record which kernel ISA actually served the sweep (honours
    // MEDSPLIT_ISA), so A/B result files are self-describing.
    let isa = medsplit_tensor::simd::active_isa().name();
    let loads: &[f64] = &[25.0, 50.0, 100.0, 200.0, 400.0, 800.0];

    let mut table = TextTable::new(
        "Serving latency vs offered load (3 platforms, WAN links)",
        &[
            "isa",
            "codec",
            "offered_rps",
            "completed",
            "rejected",
            "timed_out",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "req_bytes",
            "resp_bytes",
            "goodput_rps",
        ],
    );
    for &codec in &[WireCodec::F32, WireCodec::F16, WireCodec::Int8] {
        for &load in loads {
            eprintln!("[serve_bench] codec {codec:?}, offered {load} req/s per platform...");
            let outcome = run_point(load, codec, requests_per_platform);
            let r = &outcome.report;
            let lat = r.latency.as_ref();
            let ms = |s: Option<f64>| s.map_or_else(|| "-".into(), |v| format!("{:.2}", v * 1e3));
            table.row(vec![
                isa.to_string(),
                format!("{codec:?}"),
                format!("{load:.0}"),
                r.completed.to_string(),
                r.rejected.to_string(),
                r.timed_out.to_string(),
                ms(lat.map(|l| l.p50_s)),
                ms(lat.map(|l| l.p95_s)),
                ms(lat.map(|l| l.p99_s)),
                format!("{:.1}", r.request_bytes_per_offered()),
                format!("{:.1}", r.response_bytes_per_offered()),
                format!("{:.1}", r.goodput_rps()),
            ]);
        }
    }
    println!("{table}");
    let path = write_result("serve_latency.csv", &table.to_csv()).expect("write results");
    eprintln!("[serve_bench] wrote {}", path.display());
}
