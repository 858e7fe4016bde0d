//! A realistic geo-distributed scenario: five hospitals of very different
//! sizes (power-law), non-uniform WAN links, the paper's proportional
//! minibatch mitigation, and the split round engine: each hospital talks
//! to the server only through the simulated network, and the platforms'
//! steps of each protocol phase run side by side on the kernel pool.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example hospital_network --release
//! ```

use medsplit::core::{ComputeModel, SplitConfig, SplitTrainer};
use medsplit::data::{partition, MinibatchPolicy, Partition, SyntheticImages};
use medsplit::nn::{Architecture, LrSchedule, VggConfig};
use medsplit::simnet::{LinkSpec, MemoryTransport, MessageKind, NodeId, StarTopology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const HOSPITALS: usize = 5;

    // Synthetic "medical imaging" data with CIFAR-like tensor shapes.
    let gen = SyntheticImages::lite(10, 42);
    let (train, test) = gen.generate_split(800, 200)?;

    // Power-law shard sizes: one university hospital, several clinics.
    let shards = partition(&train, HOSPITALS, &Partition::PowerLaw { alpha: 1.2 }, 3)?;
    println!("hospital shards (power-law imbalance):");
    let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
    let batches = MinibatchPolicy::Proportional { global: 40 }.sizes(&sizes);
    for (i, (n, b)) in sizes.iter().zip(&batches).enumerate() {
        println!("  hospital {i}: {n:>4} images  -> minibatch s_{i} = {b}");
    }

    // Star topology: hospital 4 is a rural clinic on a slow uplink.
    let topology = StarTopology::new(HOSPITALS)
        .with_uplink(LinkSpec::wan())
        .with_downlink(LinkSpec::wan())
        .with_override(NodeId::Platform(4), NodeId::Server, LinkSpec::broadband());
    let transport = MemoryTransport::new(topology);

    let arch = Architecture::Vgg(VggConfig::lite(10));
    let config = SplitConfig {
        rounds: 60,
        eval_every: 0,
        lr: LrSchedule::Constant(0.05),
        minibatch: MinibatchPolicy::Proportional { global: 40 },
        compute: ComputeModel::hospital_default(),
        ..SplitConfig::default()
    };

    println!("\ntraining...");
    let history = SplitTrainer::new(&arch, config, shards, test, &transport)?.run()?;

    let snap = &history.stats;
    println!("\nfinal accuracy: {:.1}%", history.final_accuracy * 100.0);
    println!("simulated wall-clock: {:.1} s", snap.makespan_s);
    println!(
        "total transmitted:    {:.2} MB over {} messages",
        snap.total_bytes as f64 / 1e6,
        snap.messages
    );
    println!(
        "  uplink   (hospitals -> server): {:.2} MB",
        snap.uplink_bytes as f64 / 1e6
    );
    println!(
        "  downlink (server -> hospitals): {:.2} MB",
        snap.downlink_bytes as f64 / 1e6
    );
    println!("per message kind:");
    for (kind, bytes) in &snap.by_kind {
        println!("  {:<12} {:.2} MB", kind.to_string(), *bytes as f64 / 1e6);
    }
    assert_eq!(
        snap.by_kind.iter().find(|(k, _)| *k == MessageKind::RawData),
        None
    );
    println!("\nraw patient data transmitted: none (only L1 activations and gradients)");
    Ok(())
}
