//! The thread-per-node runtime against the deterministic driver, across
//! crates and on a convolutional model.

use medsplit::core::threaded::train_threaded;
use medsplit::core::{SplitConfig, SplitTrainer};
use medsplit::data::{partition, MinibatchPolicy, Partition, SyntheticImages};
use medsplit::nn::{Architecture, LrSchedule, VggConfig};
use medsplit::simnet::{MemoryTransport, StarTopology};

fn config(rounds: usize) -> SplitConfig {
    SplitConfig {
        rounds,
        eval_every: 0,
        lr: LrSchedule::Constant(0.05),
        minibatch: MinibatchPolicy::Fixed(6),
        ..SplitConfig::default()
    }
}

#[test]
fn threaded_and_sequential_agree_on_a_conv_model() {
    let gen = SyntheticImages::lite(3, 21);
    let (train, test) = gen.generate_split(90, 30).unwrap();
    let shards = partition(&train, 3, &Partition::Iid, 2).unwrap();
    let arch = Architecture::Vgg(VggConfig::lite(3));

    let t1 = MemoryTransport::new(StarTopology::new(3));
    let threaded = train_threaded(&arch, config(6), shards.clone(), test.clone(), &t1).unwrap();

    let t2 = MemoryTransport::new(StarTopology::new(3));
    let mut seq = SplitTrainer::new(&arch, config(6), shards, test, &t2).unwrap();
    let sequential = seq.run().unwrap();

    // Identical bytes, messages, clocks and learned function, bit for bit.
    assert_eq!(threaded.stats, sequential.stats);
    assert_eq!(
        threaded.final_accuracy.to_bits(),
        sequential.final_accuracy.to_bits()
    );
    for (a, b) in threaded.records.iter().zip(&sequential.records) {
        assert_eq!(
            a.mean_loss.to_bits(),
            b.mean_loss.to_bits(),
            "round {} losses differ",
            a.round
        );
    }
}

#[test]
fn threaded_runtime_scales_to_many_platforms() {
    let gen = SyntheticImages::lite(3, 22);
    let (train, test) = gen.generate_split(160, 40).unwrap();
    let shards = partition(&train, 8, &Partition::Iid, 3).unwrap();
    let arch = Architecture::Vgg(VggConfig::lite(3));
    let transport = MemoryTransport::new(StarTopology::new(8));
    let history = train_threaded(&arch, config(3), shards, test, &transport).unwrap();
    // 8 platforms × 4 messages × 3 rounds.
    assert_eq!(history.stats.messages, 8 * 4 * 3);
    assert!(history.final_accuracy.is_finite());
}
