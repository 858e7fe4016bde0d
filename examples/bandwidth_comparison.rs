//! The paper's headline comparison at example scale: split learning vs
//! FedAvg vs large-scale synchronous SGD on the same hospital shards,
//! reporting exactly what each method put on the wire.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example bandwidth_comparison --release
//! ```

use medsplit::baselines::{train_fedavg, train_sync_sgd, FedAvgOptions, SyncSgdOptions};
use medsplit::core::{SplitConfig, SplitTrainer, TrainingHistory};
use medsplit::data::{partition, MinibatchPolicy, Partition, SyntheticImages};
use medsplit::nn::{Architecture, LrSchedule, VggConfig};
use medsplit::simnet::{MemoryTransport, StarTopology};

const PLATFORMS: usize = 4;
const ROUNDS: usize = 120;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gen = SyntheticImages::lite(10, 1);
    let (train, test) = gen.generate_split(640, 160)?;
    let shards = partition(&train, PLATFORMS, &Partition::Iid, 2)?;
    let arch = Architecture::Vgg(VggConfig::lite(10));
    let minibatch = MinibatchPolicy::Proportional { global: 32 };

    let mut histories: Vec<TrainingHistory> = Vec::new();

    // Every method runs on this one configuration.
    let config = SplitConfig {
        rounds: ROUNDS,
        eval_every: 30,
        lr: LrSchedule::Constant(0.05),
        minibatch,
        ..SplitConfig::default()
    };

    println!("running split learning ({ROUNDS} rounds)...");
    {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let mut trainer = SplitTrainer::new(&arch, config.clone(), shards.clone(), test.clone(), &transport)?;
        histories.push(trainer.run()?);
    }

    println!("running large-scale synchronous SGD ({ROUNDS} steps)...");
    {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        histories.push(train_sync_sgd(
            &arch,
            &config,
            SyncSgdOptions::default(),
            shards.clone(),
            &test,
            &transport,
        )?);
    }

    println!("running FedAvg ({} rounds x 5 local steps)...", ROUNDS / 5);
    {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        // Five local steps a round: a fifth of the rounds, evaluated at
        // the same step counts.
        let fedavg = SplitConfig {
            rounds: ROUNDS / 5,
            eval_every: 6,
            ..config
        };
        histories.push(train_fedavg(
            &arch,
            &fedavg,
            FedAvgOptions { local_steps: 5 },
            shards,
            &test,
            &transport,
        )?);
    }

    println!(
        "\n{:<12} {:>14} {:>10}  accuracy-vs-bytes curve",
        "method", "transmitted", "accuracy"
    );
    for h in &histories {
        let curve: Vec<String> = h
            .curve()
            .iter()
            .map(|(b, a)| format!("{:.1}MB@{:.0}%", *b as f64 / 1e6, a * 100.0))
            .collect();
        println!(
            "{:<12} {:>11.2} MB {:>9.1}%  {}",
            h.method,
            h.stats.total_bytes as f64 / 1e6,
            h.final_accuracy * 100.0,
            curve.join(" -> ")
        );
    }

    let split = &histories[0];
    let sgd = &histories[1];
    println!(
        "\nfor the same {} update steps, sync-SGD transmitted {:.1}x the bytes of split learning",
        ROUNDS,
        sgd.stats.total_bytes as f64 / split.stats.total_bytes as f64
    );
    Ok(())
}
