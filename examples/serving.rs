//! Split-inference serving: three hospitals answer patient queries
//! against a shared model without raw features ever leaving the
//! hospital. Each platform runs `L1` locally and ships (possibly noised)
//! activations; the central server batches requests from all platforms,
//! runs `L2..Lk`, and returns logits — with dynamic batching, admission
//! control, per-request deadlines, and simulated-time latency accounting.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example serving --release
//! ```

use medsplit::core::{build_split, Platform, SplitPoint, SplitServer, WireCodec};
use medsplit::data::SyntheticTabular;
use medsplit::nn::{Architecture, MlpConfig};
use medsplit::serve::{serve_threaded, ServeConfig};
use medsplit::simnet::{MemoryTransport, StarTopology};
use medsplit::tensor::{init, Tensor};

const PLATFORMS: usize = 3;
const FEATURES: usize = 16;
const CLASSES: usize = 4;
const QUERIES_PER_PLATFORM: usize = 100;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the split model and its per-hospital actors, exactly like a
    // deployment would after training.
    let arch = Architecture::Mlp(MlpConfig::small(FEATURES, CLASSES));
    let model = build_split(&arch, SplitPoint::Default, 7, PLATFORMS)?;
    let mut platforms = Vec::new();
    for (id, client) in model.clients.into_iter().enumerate() {
        let shard = SyntheticTabular::new(CLASSES, FEATURES, id as u64).generate(32)?;
        let mut p = Platform::new(id, client, shard, 8, 0.0, 7);
        // The serving path transmits activations too, so the privacy
        // noise defence applies at inference time as well.
        p.set_activation_noise(0.05);
        platforms.push(p);
    }
    let server = SplitServer::new(model.server, 0.0);

    // Patient queries arriving open-loop at each hospital.
    let mut rng = init::rng_from_seed(99);
    let queries: Vec<Vec<Tensor>> = (0..PLATFORMS)
        .map(|_| {
            (0..QUERIES_PER_PLATFORM)
                .map(|_| Tensor::rand_uniform([1, FEATURES], -1.0, 1.0, &mut rng))
                .collect()
        })
        .collect();

    let topology = StarTopology::new(PLATFORMS);
    let transport = MemoryTransport::new(topology.clone());
    let cfg = ServeConfig {
        max_batch: 8,          // flush when 8 requests are pending...
        max_wait_s: 0.010,     // ...or the oldest has waited 10 ms
        queue_capacity: 32,    // reject beyond 32 pending (backpressure)
        deadline_s: 0.250,     // answer within 250 ms or report a timeout
        offered_rps: 150.0,    // per-hospital offered load
        codec: WireCodec::F16, // halve the serving traffic
    };

    println!(
        "serving {} queries from {PLATFORMS} hospitals at {} req/s each...",
        PLATFORMS * QUERIES_PER_PLATFORM,
        cfg.offered_rps
    );
    let outcome = serve_threaded(platforms, server, queries, &topology, &cfg, &transport)?;

    let r = &outcome.report;
    println!(
        "\ncompleted {}  rejected {}  timed out {}",
        r.completed, r.rejected, r.timed_out
    );
    if let Some(lat) = &r.latency {
        println!(
            "latency  p50 {:.1} ms  p95 {:.1} ms  p99 {:.1} ms  max {:.1} ms",
            lat.p50_s * 1e3,
            lat.p95_s * 1e3,
            lat.p99_s * 1e3,
            lat.max_s * 1e3
        );
    }
    println!(
        "wire     {:.0} B/request up, {:.0} B/request down (f16 codec)",
        r.request_bytes_per_offered(),
        r.response_bytes_per_offered()
    );
    println!(
        "goodput  {:.0} completed/s over a {:.2} s simulated run",
        r.goodput_rps(),
        r.makespan_s
    );

    // Every record carries its logits; show one prediction.
    if let Some(rec) = outcome.records.iter().find(|rec| rec.logits.is_some()) {
        let logits = rec.logits.as_ref().expect("filtered on Some");
        let class = logits
            .as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("non-empty logits");
        println!(
            "\nexample: hospital {} request {} → class {class} ({:.1} ms)",
            rec.platform,
            rec.id & 0xFFFF_FFFF,
            rec.latency_s * 1e3
        );
    }
    Ok(())
}
