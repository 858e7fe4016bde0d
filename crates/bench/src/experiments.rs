//! The `exp` experiments that are not lab points: the analytic Table 1
//! and Fig. 8, and the Fig. 5 / Fig. 7 leakage sweeps. Fig. 4, Fig. 6 and
//! Tables 2–3 are lab method points (see [`crate::labrun`]).
//!
//! Each sweep is a library function parameterised by a scale knob, so
//! the binaries run the full configuration while the test suite exercises
//! the identical code path at a tiny scale.

use medsplit_core::{comm, ComputeModel, Result, SplitConfig, SplitError, SplitPoint, SplitTrainer};
use medsplit_data::{InMemoryDataset, MinibatchPolicy, Partition};
use medsplit_nn::{Architecture, Layer, LrSchedule};
use medsplit_privacy::assess_l1_leakage;
use medsplit_simnet::{LinkSpec, MemoryTransport, StarTopology};

use crate::report::{human_bytes, TextTable};
use crate::workload::{vision_workload, DatasetKind, ModelKind};

/// Scale knob of the Fig. 5 and Fig. 7 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Training samples (global, before sharding).
    pub train_n: usize,
    /// Test samples.
    pub test_n: usize,
    /// Rounds for the split protocol.
    pub rounds: usize,
    /// Evaluation period in rounds.
    pub eval_every: usize,
    /// Platforms.
    pub platforms: usize,
    /// Global minibatch per round (shared by all methods).
    pub global_batch: usize,
}

impl Scale {
    /// The full configuration used by the report binaries.
    pub fn full() -> Self {
        Scale {
            train_n: 1600,
            test_n: 400,
            rounds: 400,
            eval_every: 20,
            platforms: 4,
            global_batch: 32,
        }
    }

    /// A fast configuration for smoke tests (`--quick`).
    pub fn quick() -> Self {
        Scale {
            train_n: 160,
            test_n: 40,
            rounds: 12,
            eval_every: 4,
            platforms: 2,
            global_batch: 16,
        }
    }
}

fn default_topology(platforms: usize) -> StarTopology {
    StarTopology::new(platforms)
        .with_uplink(LinkSpec::wan())
        .with_downlink(LinkSpec::wan())
}

fn split_config(scale: Scale, rounds: usize) -> SplitConfig {
    SplitConfig {
        split: SplitPoint::Default,
        minibatch: MinibatchPolicy::Proportional {
            global: scale.global_batch,
        },
        lr: LrSchedule::Constant(0.05),
        momentum: 0.9,
        rounds,
        eval_every: scale.eval_every,
        seed: 42,
        compute: ComputeModel::hospital_default(),
        ..SplitConfig::default()
    }
}

// ===================================================================
// Table 1: analytic per-round costs at full (paper-size) scale
// ===================================================================

/// Builds Table 1: exact per-round wire bytes for the full-size VGG-16 and
/// ResNet-18, per protocol, at the given per-platform minibatch.
pub fn table1(platforms: usize, batch_per_platform: usize) -> TextTable {
    let mut table = TextTable::new(
        format!("Table 1 — analytic per-round bytes, {platforms} platforms, minibatch {batch_per_platform}/platform (full-size models)"),
        &[
            "model",
            "classes",
            "params",
            "cut act/sample",
            "split/round",
            "fedavg/round",
            "sync-sgd/round",
            "sgd/split ratio",
            "crossover batch",
        ],
    );
    for model in [ModelKind::Vgg, ModelKind::ResNet] {
        for dataset in [DatasetKind::C10, DatasetKind::C100] {
            let classes = dataset.classes();
            let arch = model.full_arch(classes);
            let params = arch.param_count();
            let (act_dims, act_numel) = match &arch {
                Architecture::Vgg(c) => (
                    vec![c.stages[0][0], c.input_hw, c.input_hw],
                    c.cut_activation_numel(),
                ),
                Architecture::ResNet(c) => (
                    vec![c.base_width, c.input_hw, c.input_hw],
                    c.cut_activation_numel(),
                ),
                Architecture::Mlp(c) => (vec![c.hidden[0]], c.hidden[0]),
            };
            let batches = vec![batch_per_platform; platforms];
            let split = comm::split_round_bytes(&batches, &act_dims, classes);
            let fedavg = comm::fedavg_round_bytes(platforms, params);
            let sgd = comm::sync_sgd_round_bytes(platforms, params);
            // The per-platform minibatch at which the split protocol's
            // per-round bytes (≈ 2 × s × (act + classes) floats) equal the
            // model-exchange protocols' (2 × params floats): beyond it,
            // model exchange is cheaper per round.
            let crossover = params / (act_numel + classes);
            table.row(vec![
                model.name().into(),
                classes.to_string(),
                params.to_string(),
                format!("{} f32 ({})", act_numel, human_bytes(4 * act_numel as u64)),
                human_bytes(split),
                human_bytes(fedavg),
                human_bytes(sgd),
                format!("{:.1}x", sgd as f64 / split as f64),
                format!("s = {crossover}"),
            ]);
        }
    }
    table
}

// ===================================================================
// Fig. 5: split-point sweep — bytes vs privacy leakage
// ===================================================================

/// One row of the split-point sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSweepPoint {
    /// Layer index of the cut.
    pub split_index: usize,
    /// Per-sample activation floats at the cut.
    pub act_numel: usize,
    /// Exact split-protocol bytes per round at this cut.
    pub round_bytes: u64,
    /// Distance correlation input↔activations after training.
    pub dcor: f64,
    /// Linear-attacker R² after training.
    pub attacker_r2: f32,
    /// Final accuracy at this cut.
    pub accuracy: f32,
}

/// Runs the split-point sweep on the lite VGG: trains briefly at each cut,
/// then probes platform 0's `L1` for leakage.
///
/// # Errors
///
/// Propagates training and probe errors.
pub fn fig5_run(scale: Scale, cuts: &[usize], seed: u64) -> Result<Vec<SplitSweepPoint>> {
    let w = vision_workload(
        ModelKind::Vgg,
        DatasetKind::C10,
        scale.platforms,
        scale.train_n,
        scale.test_n,
        &Partition::Iid,
        seed,
    )?;
    let classes = w.arch.num_classes();
    let mut out = Vec::new();
    for &cut in cuts {
        let transport = MemoryTransport::new(default_topology(scale.platforms));
        let mut cfg = split_config(scale, scale.rounds);
        cfg.split = SplitPoint::At(cut);
        let mut trainer = SplitTrainer::new(&w.arch, cfg, w.shards.clone(), w.test.clone(), &transport)?;
        let history = trainer.run()?;

        // Probe leakage on a fresh batch of inputs through platform 0's L1.
        let probe_n = w.test.len().min(96);
        let idx: Vec<usize> = (0..probe_n).collect();
        let (inputs, _) = w.test.batch(&idx).map_err(SplitError::from)?;
        let platform = &mut trainer.platforms_mut()[0];
        let acts = platform.infer_l1(&inputs)?;
        let act_dims: Vec<usize> = acts.dims()[1..].to_vec();
        let act_numel: usize = act_dims.iter().product();
        let report = assess_l1_leakage(platform.model_mut(), &inputs, 1e-2)?;

        let sizes: Vec<usize> = w.shards.iter().map(InMemoryDataset::len).collect();
        let batches = MinibatchPolicy::Proportional {
            global: scale.global_batch,
        }
        .sizes(&sizes);
        let round_bytes = comm::split_round_bytes(&batches, &act_dims, classes);
        out.push(SplitSweepPoint {
            split_index: cut,
            act_numel,
            round_bytes,
            dcor: report.dcor,
            attacker_r2: report.reconstruction.r_squared,
            accuracy: history.final_accuracy,
        });
    }
    Ok(out)
}

/// Formats the Fig. 5 sweep.
pub fn fig5_table(points: &[SplitSweepPoint]) -> TextTable {
    let mut table = TextTable::new(
        "Fig. 5 — split-point sweep: communication vs privacy leakage",
        &[
            "cut layer",
            "act floats/sample",
            "bytes/round",
            "dcor",
            "attacker R^2",
            "accuracy",
        ],
    );
    for p in points {
        table.row(vec![
            p.split_index.to_string(),
            p.act_numel.to_string(),
            human_bytes(p.round_bytes),
            format!("{:.3}", p.dcor),
            format!("{:.3}", p.attacker_r2),
            format!("{:.1}%", p.accuracy * 100.0),
        ]);
    }
    table
}

// ===================================================================
// Fig. 7: activation-noise privacy defence sweep
// ===================================================================

/// One row of the noise sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisePoint {
    /// Noise standard deviation added to transmitted activations.
    pub sigma: f32,
    /// Final accuracy.
    pub accuracy: f32,
    /// Distance correlation between raw inputs and (noised) activations.
    pub dcor: f64,
    /// Linear-attacker R² against the noised activations.
    pub attacker_r2: f32,
}

/// Runs the noise-privacy sweep: trains the split VGG at each noise level
/// and probes the leakage of the representation the server actually sees.
///
/// # Errors
///
/// Propagates training and probe errors.
pub fn fig7_run(scale: Scale, sigmas: &[f32], seed: u64) -> Result<Vec<NoisePoint>> {
    use medsplit_privacy::{distance_correlation, flatten_samples, reconstruction_attack};
    let w = vision_workload(
        ModelKind::Vgg,
        DatasetKind::C10,
        scale.platforms,
        scale.train_n,
        scale.test_n,
        &Partition::Iid,
        seed,
    )?;
    let mut out = Vec::new();
    for &sigma in sigmas {
        let transport = MemoryTransport::new(default_topology(scale.platforms));
        let mut cfg = split_config(scale, scale.rounds);
        cfg.activation_noise = sigma;
        let mut trainer = SplitTrainer::new(&w.arch, cfg, w.shards.clone(), w.test.clone(), &transport)?;
        let history = trainer.run()?;

        // Probe what the server sees: the platform's *noised* outbound
        // representation.
        let probe_n = w.test.len().min(96);
        let idx: Vec<usize> = (0..probe_n).collect();
        let (inputs, _) = w.test.batch(&idx).map_err(SplitError::from)?;
        let platform = &mut trainer.platforms_mut()[0];
        let acts = platform.infer_l1(&inputs)?;
        let xs = flatten_samples(&inputs).map_err(SplitError::from)?;
        let zs = flatten_samples(&acts).map_err(SplitError::from)?;
        let dcor = distance_correlation(&xs, &zs).map_err(SplitError::from)?;
        let half = probe_n / 2;
        let attack = reconstruction_attack(
            &zs.slice0(0, half).map_err(SplitError::from)?,
            &xs.slice0(0, half).map_err(SplitError::from)?,
            &zs.slice0(half, probe_n - half).map_err(SplitError::from)?,
            &xs.slice0(half, probe_n - half).map_err(SplitError::from)?,
            1e-2,
        )
        .map_err(SplitError::from)?;
        out.push(NoisePoint {
            sigma,
            accuracy: history.final_accuracy,
            dcor,
            attacker_r2: attack.r_squared,
        });
    }
    Ok(out)
}

/// Formats the Fig. 7 sweep.
pub fn fig7_table(points: &[NoisePoint]) -> TextTable {
    let mut table = TextTable::new(
        "Fig. 7 — activation-noise defence: accuracy vs leakage",
        &["noise sigma", "final accuracy", "dcor", "attacker R^2"],
    );
    for p in points {
        table.row(vec![
            format!("{:.2}", p.sigma),
            format!("{:.1}%", p.accuracy * 100.0),
            format!("{:.3}", p.dcor),
            format!("{:.3}", p.attacker_r2),
        ]);
    }
    table
}

// ===================================================================
// Fig. 8: analytic round time vs WAN bandwidth
// ===================================================================

/// One row of the bandwidth sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthPoint {
    /// Link bandwidth in Mbit/s (symmetric up/down).
    pub mbps: f64,
    /// Seconds per split round (communication only, parallel uplinks).
    pub split_round_s: f64,
    /// Seconds per sync-SGD step.
    pub sync_sgd_round_s: f64,
    /// Seconds per FedAvg round.
    pub fedavg_round_s: f64,
}

/// Analytic per-round wall-clock across WAN bandwidths, for the full-size
/// model: each protocol's per-platform up/down payloads over a link of the
/// given bandwidth (platforms transfer in parallel; latency per message).
pub fn fig8_sweep(
    model: ModelKind,
    classes: usize,
    batch_per_platform: usize,
    mbps_list: &[f64],
) -> Vec<BandwidthPoint> {
    let arch = model.full_arch(classes);
    let params = arch.param_count();
    let (act_dims, _) = match &arch {
        Architecture::Vgg(c) => (
            vec![c.stages[0][0], c.input_hw, c.input_hw],
            c.cut_activation_numel(),
        ),
        Architecture::ResNet(c) => (
            vec![c.base_width, c.input_hw, c.input_hw],
            c.cut_activation_numel(),
        ),
        Architecture::Mlp(c) => (vec![c.hidden[0]], c.hidden[0]),
    };
    // Per-platform payloads (bytes) per round and direction.
    let split_per_platform = comm::split_round_bytes(&[batch_per_platform], &act_dims, classes);
    let model_bytes = comm::flat_message_bytes(params);
    mbps_list
        .iter()
        .map(|&mbps| {
            let link = LinkSpec {
                bandwidth_bps: mbps * 1e6,
                latency_s: 0.030,
            };
            // Split: 4 messages, roughly half the bytes each way; platforms
            // in parallel ⇒ slowest platform bounds the round. Batches are
            // equal here, so one platform's cost is the round cost.
            let split_round_s =
                4.0 * link.latency_s + link.transfer_time(split_per_platform as usize) - link.latency_s;
            // Sync-SGD / FedAvg: model down + model/grad up, sequential per
            // round from the platform's perspective.
            let exchange = 2.0 * link.transfer_time(model_bytes as usize);
            BandwidthPoint {
                mbps,
                split_round_s,
                sync_sgd_round_s: exchange,
                fedavg_round_s: exchange,
            }
        })
        .collect()
}

/// Formats the Fig. 8 sweep.
pub fn fig8_table(model: ModelKind, points: &[BandwidthPoint]) -> TextTable {
    let mut table = TextTable::new(
        format!(
            "Fig. 8 — per-round wall-clock vs WAN bandwidth (full-size {}, comm only)",
            model.name()
        ),
        &[
            "bandwidth",
            "split round",
            "sync-sgd step",
            "fedavg round",
            "speedup",
        ],
    );
    for p in points {
        table.row(vec![
            format!("{} Mbit/s", p.mbps),
            format!("{:.2} s", p.split_round_s),
            format!("{:.2} s", p.sync_sgd_round_s),
            format!("{:.2} s", p.fedavg_round_s),
            format!("{:.1}x", p.sync_sgd_round_s / p.split_round_s),
        ]);
    }
    table
}

/// The valid interior cut points of the lite VGG, used by the Fig. 5
/// binary and tests (layer indices into the built `Sequential`).
pub fn vgg_lite_cuts() -> Vec<usize> {
    // conv,bn,relu,pool | conv,bn,relu,pool | conv,bn,relu,pool | flatten,…
    // Cut after each ReLU and after each pooling stage.
    vec![3, 4, 7, 8, 11]
}

/// Checks that the cut indices are interior layers of the model.
pub fn validate_cuts(arch: &Architecture, cuts: &[usize]) -> Result<()> {
    let mut model = arch.build(0);
    let n = model.len();
    let _ = model.param_count();
    for &c in cuts {
        if c == 0 || c >= n {
            return Err(SplitError::Config(format!(
                "cut {c} out of range (model has {n} layers)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_rows_and_paper_shape() {
        let t = table1(4, 128);
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        // Full-size sync-SGD must be costlier than split per round for
        // every model/dataset pair: every ratio cell ends with 'x' and is
        // > 1 (the ratio is the second-to-last column, before the
        // crossover batch).
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let ratio: f64 = cells[cells.len() - 2].trim_end_matches('x').parse().unwrap();
            assert!(ratio > 1.0, "ratio not > 1 in: {line}");
            assert!(cells.last().unwrap().starts_with("s = "));
        }
    }

    #[test]
    fn fig5_quick_monotone_activation_sizes() {
        let scale = Scale {
            rounds: 4,
            eval_every: 0,
            train_n: 60,
            test_n: 30,
            platforms: 2,
            global_batch: 8,
        };
        let points = fig5_run(scale, &[3, 4, 8], 0).unwrap();
        assert_eq!(points.len(), 3);
        // Pooling shrinks activations: cut 4 (after pool) < cut 3.
        assert!(points[1].act_numel < points[0].act_numel);
        assert!(points[2].act_numel < points[1].act_numel);
        assert!(points[1].round_bytes < points[0].round_bytes);
        let t = fig5_table(&points);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn fig7_quick_noise_reduces_leakage() {
        let scale = Scale {
            rounds: 4,
            eval_every: 0,
            train_n: 60,
            test_n: 40,
            platforms: 2,
            global_batch: 8,
        };
        let points = fig7_run(scale, &[0.0, 4.0], 0).unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[1].dcor < points[0].dcor,
            "noise must reduce dcor: {points:?}"
        );
        assert!(points[1].attacker_r2 <= points[0].attacker_r2 + 0.02);
        assert_eq!(fig7_table(&points).len(), 2);
    }

    #[test]
    fn fig8_analytic_shapes() {
        let points = fig8_sweep(ModelKind::Vgg, 10, 32, &[10.0, 100.0, 1000.0]);
        assert_eq!(points.len(), 3);
        for p in &points {
            // Full-size VGG: split must be faster per round at every bandwidth.
            assert!(p.split_round_s < p.sync_sgd_round_s, "{p:?}");
        }
        // More bandwidth → faster rounds.
        assert!(points[2].split_round_s < points[0].split_round_s);
        assert!(points[2].sync_sgd_round_s < points[0].sync_sgd_round_s);
        assert_eq!(fig8_table(ModelKind::Vgg, &points).len(), 3);
    }

    #[test]
    fn cut_validation() {
        let arch = ModelKind::Vgg.lite_arch(10);
        assert!(validate_cuts(&arch, &vgg_lite_cuts()).is_ok());
        assert!(validate_cuts(&arch, &[0]).is_err());
        assert!(validate_cuts(&arch, &[999]).is_err());
    }

    #[test]
    fn scales_are_distinct() {
        assert!(Scale::full().rounds > Scale::quick().rounds);
        assert!(Scale::full().train_n > Scale::quick().train_n);
    }
}
