//! The protocol-correctness theorem: with a single platform and aggregate
//! scheduling, split learning computes *exactly* the same training
//! trajectory as centralised training of the unsplit model — the cut plus
//! serialisation round-trips change nothing about the arithmetic.

use medsplit::baselines::train_centralized;
use medsplit::core::{ComputeModel, Scheduling, SplitConfig, SplitPoint, SplitTrainer};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, Layer, LrSchedule, MlpConfig, Mode};
use medsplit::simnet::{MemoryTransport, StarTopology};

fn data() -> (InMemoryDataset, InMemoryDataset) {
    let all = SyntheticTabular::new(3, 6, 5).generate(120).unwrap();
    let train = all.subset(&(0..90).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(90..120).collect::<Vec<_>>()).unwrap();
    (train, test)
}

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 6,
        hidden: vec![16, 8],
        num_classes: 3,
    })
}

#[test]
fn single_platform_split_matches_centralized_exactly() {
    let (train, test) = data();
    let rounds = 25;
    let seed = 77;
    let batch = 10;

    // Split run: one platform holding L1, server holding the rest.
    let transport = MemoryTransport::new(StarTopology::new(1));
    let config = SplitConfig {
        split: SplitPoint::Default,
        scheduling: Scheduling::Aggregate,
        minibatch: MinibatchPolicy::Fixed(batch),
        lr: LrSchedule::Constant(0.1),
        momentum: 0.9,
        rounds,
        eval_every: 0,
        seed,
        compute: ComputeModel::off(),
        ..SplitConfig::default()
    };
    let mut trainer = SplitTrainer::new(
        &arch(),
        config.clone(),
        vec![train.clone()],
        test.clone(),
        &transport,
    )
    .unwrap();
    let split_history = trainer.run().unwrap();

    // Centralised run on the same configuration.
    let transport2 = MemoryTransport::new(StarTopology::new(1));
    let central_history =
        train_centralized(&arch(), &config, std::slice::from_ref(&train), &test, &transport2).unwrap();

    // Same losses every round (identical arithmetic)...
    for (a, b) in split_history.records.iter().zip(&central_history.records) {
        assert!(
            (a.mean_loss - b.mean_loss).abs() < 1e-6,
            "round {}: split loss {} vs centralized {}",
            a.round,
            a.mean_loss,
            b.mean_loss
        );
    }
    // ...and identical final accuracy.
    assert!(
        (split_history.final_accuracy - central_history.final_accuracy).abs() < 1e-6,
        "split {} vs centralized {}",
        split_history.final_accuracy,
        central_history.final_accuracy
    );
}

#[test]
fn composed_split_model_equals_directly_trained_model_outputs() {
    let (train, test) = data();
    let transport = MemoryTransport::new(StarTopology::new(1));
    let config = SplitConfig {
        minibatch: MinibatchPolicy::Fixed(10),
        lr: LrSchedule::Constant(0.1),
        rounds: 10,
        eval_every: 0,
        seed: 3,
        ..SplitConfig::default()
    };
    let mut trainer = SplitTrainer::new(&arch(), config, vec![train], test.clone(), &transport).unwrap();
    let _ = trainer.run().unwrap();

    // Composing L1 with the server layers must behave like one network:
    // batch-size independence of inference.
    let idx: Vec<usize> = (0..20).collect();
    let (features, _) = test.batch(&idx).unwrap();
    let acts = trainer.platforms_mut()[0].infer_l1(&features).unwrap();
    let logits_batch = trainer.server_mut().infer(&acts).unwrap();
    for i in 0..4 {
        let (one, _) = test.batch(&[i]).unwrap();
        let a1 = trainer.platforms_mut()[0].infer_l1(&one).unwrap();
        let l1 = trainer.server_mut().infer(&a1).unwrap();
        let row = logits_batch.row(i).unwrap();
        assert!(
            l1.flatten().allclose(&row, 1e-4),
            "row {i} differs between batch and single inference"
        );
    }
}

#[test]
fn multi_platform_split_beats_untrained_and_tracks_central() {
    let (train, test) = data();
    let shards = partition(&train, 3, &Partition::Iid, 1).unwrap();
    let transport = MemoryTransport::new(StarTopology::new(3));
    let config = SplitConfig {
        minibatch: MinibatchPolicy::Fixed(6),
        lr: LrSchedule::Constant(0.1),
        rounds: 50,
        eval_every: 0,
        seed: 9,
        ..SplitConfig::default()
    };
    let mut trainer = SplitTrainer::new(&arch(), config, shards, test.clone(), &transport).unwrap();
    let split_acc = trainer.run().unwrap().final_accuracy;

    // Fresh untrained model accuracy for reference.
    let mut fresh = arch().build(9);
    let idx: Vec<usize> = (0..test.len()).collect();
    let (features, labels) = test.batch(&idx).unwrap();
    let logits = fresh.forward(&features, Mode::Eval).unwrap();
    let untrained = medsplit::nn::accuracy(&logits, &labels).unwrap();

    assert!(
        split_acc > untrained + 0.25,
        "split {split_acc} should clearly beat untrained {untrained}"
    );
}
