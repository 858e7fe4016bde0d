//! Cross-feature interactions: extensions must compose.

use medsplit::core::{L1Sync, SplitConfig, SplitTrainer, UShapeTrainer, WireCodec};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{LinkSpec, MemoryTransport, MessageKind, NodeId, StarTopology, Transport};

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16, 12],
        num_classes: 3,
    })
}

fn data() -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let all = SyntheticTabular::new(3, 8, 4).generate(160).unwrap();
    let train = all.subset(&(0..120).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(120..160).collect::<Vec<_>>()).unwrap();
    (partition(&train, 2, &Partition::Iid, 1).unwrap(), test)
}

fn config(rounds: usize) -> SplitConfig {
    SplitConfig {
        rounds,
        eval_every: 0,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        ..SplitConfig::default()
    }
}

#[test]
fn ushape_with_f16_codec_learns_and_halves_traffic() {
    let (shards, test) = data();
    let run = |codec: WireCodec| {
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(40);
        cfg.codec = codec;
        let mut trainer =
            UShapeTrainer::new(&arch(), cfg, 1, shards.clone(), test.clone(), &transport).unwrap();
        trainer.run().unwrap()
    };
    let exact = run(WireCodec::F32);
    let half = run(WireCodec::F16);
    assert!(half.stats.total_bytes < exact.stats.total_bytes * 3 / 5);
    assert!(
        half.final_accuracy > 0.6,
        "f16 U-shape accuracy {}",
        half.final_accuracy
    );
    assert!(exact.final_accuracy > 0.6);
}

#[test]
fn l1_sync_composes_with_noise_and_codec() {
    let (shards, test) = data();
    let transport = MemoryTransport::new(StarTopology::new(2));
    let mut cfg = config(30);
    cfg.l1_sync = L1Sync::PeriodicAverage { every: 5 };
    cfg.codec = WireCodec::F16;
    cfg.activation_noise = 0.1;
    let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    assert!(
        history.final_accuracy > 0.6,
        "accuracy {}",
        history.final_accuracy
    );
    // Sync traffic stays exact-precision (parameters must not be rounded),
    // while protocol tensors are half-precision.
    assert!(history.stats.bytes_of(MessageKind::L1Sync) > 0);
    let p0 = trainer.platforms_mut()[0].l1_parameters();
    let p1 = trainer.platforms_mut()[1].l1_parameters();
    assert_eq!(p0, p1, "periodic averaging must leave identical L1s");
}

/// A star of two with `up` on both uplinks and `down` on both downlinks.
fn star(up: LinkSpec, down: LinkSpec) -> StarTopology {
    (0..2).fold(StarTopology::new(2), |t, i| {
        t.with_override(NodeId::Platform(i), NodeId::Server, up)
            .with_override(NodeId::Server, NodeId::Platform(i), down)
    })
}

#[test]
fn asymmetric_links_shape_the_simulated_clock() {
    let (shards, test) = data();
    let run = |uplink: LinkSpec| {
        let transport = MemoryTransport::new(star(uplink, LinkSpec::lan()));
        let mut cfg = config(10);
        cfg.compute = medsplit::core::ComputeModel::off();
        let mut trainer = SplitTrainer::new(&arch(), cfg, shards.clone(), test.clone(), &transport).unwrap();
        trainer.run().unwrap().stats.makespan_s
    };
    let fast = run(LinkSpec::lan());
    let slow = run(LinkSpec::broadband());
    assert!(
        slow > fast,
        "slower uplink must lengthen the simulated run: {slow} vs {fast}"
    );
}

#[test]
fn per_platform_override_slows_only_that_spoke() {
    let (shards, test) = data();
    let slow_link = LinkSpec {
        bandwidth_bps: 1e6,
        latency_s: 0.2,
    };
    let topology =
        star(LinkSpec::lan(), LinkSpec::lan()).with_override(NodeId::Platform(1), NodeId::Server, slow_link);
    let transport = MemoryTransport::new(topology);
    let mut cfg = config(5);
    cfg.compute = medsplit::core::ComputeModel::off();
    let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
    let _ = trainer.run().unwrap();
    // The slow spoke's messages dominate the server's clock.
    let server_clock = transport.stats().clock(NodeId::Server);
    assert!(server_clock > 1.0, "slow spoke must dominate: {server_clock}");
}
