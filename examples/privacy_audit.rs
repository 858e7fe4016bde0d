//! Privacy audit: what could an honest-but-curious server learn from the
//! activations a hospital transmits?
//!
//! Trains a split VGG briefly, then runs the leakage probes (distance
//! correlation and a linear reconstruction attack) against the
//! transmitted representation at two different cut depths.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example privacy_audit --release
//! ```

use medsplit::core::{SplitConfig, SplitPoint, SplitTrainer};
use medsplit::data::{partition, Partition, SyntheticImages};
use medsplit::nn::{Architecture, LrSchedule, VggConfig};
use medsplit::privacy::assess_l1_leakage;
use medsplit::simnet::{MemoryTransport, StarTopology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gen = SyntheticImages::lite(10, 9);
    let (train, test) = gen.generate_split(400, 120)?;
    let shards = partition(&train, 3, &Partition::Iid, 4)?;
    let arch = Architecture::Vgg(VggConfig::lite(10));

    // Probe inputs: raw "patient images" the server never sees directly.
    let idx: Vec<usize> = (0..100).collect();
    let (probe_inputs, _) = test.batch(&idx)?;

    for (label, cut) in [
        ("paper default: after the first conv block", SplitPoint::Default),
        ("deeper cut: after the second pooling stage", SplitPoint::At(8)),
    ] {
        let transport = MemoryTransport::new(StarTopology::new(3));
        let config = SplitConfig {
            split: cut,
            rounds: 40,
            eval_every: 0,
            lr: LrSchedule::Constant(0.05),
            ..SplitConfig::default()
        };
        let mut trainer = SplitTrainer::new(&arch, config, shards.clone(), test.clone(), &transport)?;
        let history = trainer.run()?;

        let platform = &mut trainer.platforms_mut()[0];
        let acts = platform.infer_l1(&probe_inputs)?;
        let report = assess_l1_leakage(platform.model_mut(), &probe_inputs, 1e-2)?;

        println!("=== {label} ===");
        println!("model accuracy        : {:.1}%", history.final_accuracy * 100.0);
        println!(
            "transmitted per sample: {} floats (raw input would be {} floats)",
            acts.numel() / probe_inputs.dims()[0],
            probe_inputs.numel() / probe_inputs.dims()[0]
        );
        println!("{report}");
        println!();
    }

    println!("note: deeper cuts shrink the transmitted representation and its leakage,");
    println!("at the cost of more computation on the hospital side (see experiments/fig5.lab.toml).");
    Ok(())
}
