//! Fig-4-style wire-codec frontier: bytes transmitted vs final accuracy
//! for the f32 / f16 / int8 smashed-data codecs, swept over model cut
//! widths and topologies.
//!
//! The paper's central result (Fig. 4) is the GB-transmitted-vs-accuracy
//! frontier for split training across geo-distributed platforms. This
//! bench reproduces that frontier for the codec axis: every point is a
//! fault-free split-training run whose four protocol messages
//! (activations, logits, logit grads, cut grads) are encoded with one
//! [`WireCodec`], and reports
//!
//!   - `wire_bytes`: what actually crossed the simulated WAN,
//!   - `logical_bytes`: what the same messages would have cost as
//!     uncompressed f32 payloads (identical across codecs for the same
//!     axes — asserted, since the protocol's shapes don't depend on the
//!     codec),
//!   - `wire_ratio`: `wire_bytes / logical_bytes`, the run's overall
//!     compression,
//!   - `final_accuracy`, so compression is priced in accuracy terms.
//!
//! Every point runs **twice** and both runs must produce the same
//! digest — fault-free runs under any codec are bit-identical on
//! replay. The harness further asserts, per (model, topology) pair:
//! int8 wire bytes ≤ 0.26× the f32 run's, f16 ≤ 0.55×, and int8 / f16
//! accuracy within [`ACC_TOL`] of the f32 run.
//!
//! Outputs:
//!   - `bench_results/codec_frontier.csv`,
//!   - `BENCH_codec.json` (repo root; `bench_results/` for `--smoke`)
//!     in the shared schema-v2 envelope.
//!
//! Usage:
//!   exp codec_bench [--smoke] [--rounds N]
//!
//! `--smoke` sweeps the wide-cut model on the star topology only (3
//! codecs, replayed = 6 runs) — small enough for CI, but the wide cut
//! is exactly the shape where the int8 ratio bound is meaningful.

use std::fmt::Write as _;

use crate::report::{arg_present, arg_value, bench_json, bench_json_path, write_result, TextTable};
use medsplit_core::{HierPolicy, HierResilientTrainer, ResilientTrainer, SplitConfig, WireCodec};
use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
use medsplit_simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, StarTopology};
use medsplit_tensor::{fnv1a, pool, FNV_OFFSET};

/// Accuracy band the lossy codecs must stay within of the f32 run on
/// the same axes. `experiments/codec_frontier.lab.toml` declares the
/// same tolerance as its `[gate.pct]` band.
pub const ACC_TOL: f32 = 0.10;

/// Acceptance bound: int8 wire bytes as a fraction of the f32 run's.
const INT8_RATIO_BOUND: f64 = 0.26;
/// f16 halves every tensor payload; headers keep it just above 0.5.
const F16_RATIO_BOUND: f64 = 0.55;

const CSV_HEADER: &str =
    "codec,model,topology,rounds,final_accuracy,wire_bytes,logical_bytes,wire_ratio,messages,\
     replay_digest";

/// What a `codec_bench` invocation measured, for the lab runner.
#[derive(Debug, Clone)]
pub struct CodecBenchOutcome {
    /// Frontier points measured (each backed by two replayed runs).
    pub rows: usize,
    /// Per-point results: label (`codec_model_topology`), final
    /// accuracy, wire bytes, logical bytes.
    pub points: Vec<(String, f32, u64, u64)>,
    /// FNV-1a digest over every point's replayed run digest, in sweep
    /// order — one value that pins the whole frontier bit-for-bit.
    pub frontier_digest: u64,
}

/// The models swept: the cut-layer width is the knob that decides how
/// much of each message is tensor payload vs frame header, and the
/// paper's CNNs sit firmly on the wide side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelAxis {
    /// 128-wide cut layer, batch 64: WAN cost dominated by activation
    /// and gradient payloads (the Fig. 4 regime).
    WideCut,
    /// 16-wide cut layer, batch 10: header-heavy small messages, the
    /// unflattering regime for any codec.
    NarrowCut,
}

impl ModelAxis {
    fn name(self) -> &'static str {
        match self {
            ModelAxis::WideCut => "mlp_cut128",
            ModelAxis::NarrowCut => "mlp_cut16",
        }
    }

    fn architecture(self) -> Architecture {
        match self {
            ModelAxis::WideCut => Architecture::Mlp(MlpConfig {
                input_dim: 32,
                hidden: vec![128],
                num_classes: 3,
            }),
            ModelAxis::NarrowCut => Architecture::Mlp(MlpConfig {
                input_dim: 8,
                hidden: vec![16],
                num_classes: 3,
            }),
        }
    }

    fn input_dim(self) -> usize {
        match self {
            ModelAxis::WideCut => 32,
            ModelAxis::NarrowCut => 8,
        }
    }

    fn minibatch(self) -> usize {
        match self {
            ModelAxis::WideCut => 64,
            ModelAxis::NarrowCut => 10,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoAxis {
    Star4,
    Hier2x2,
}

impl TopoAxis {
    fn name(self) -> &'static str {
        match self {
            TopoAxis::Star4 => "star4",
            TopoAxis::Hier2x2 => "hier2_2",
        }
    }
}

const CODECS: [(WireCodec, &str); 3] = [
    (WireCodec::F32, "f32"),
    (WireCodec::F16, "f16"),
    (WireCodec::Int8, "int8"),
];

/// One measured frontier point (already replay-checked).
struct Point {
    codec: &'static str,
    model: ModelAxis,
    topo: TopoAxis,
    rounds: u64,
    accuracy: f32,
    wire_bytes: u64,
    logical_bytes: u64,
    messages: u64,
    digest: u64,
}

impl Point {
    fn label(&self) -> String {
        format!("{}_{}_{}", self.codec, self.model.name(), self.topo.name())
    }
}

/// One fault-free split-training run; returns (accuracy, wire bytes,
/// logical bytes, messages, rounds completed, digest of all of those).
fn run_once(
    codec: WireCodec,
    model: ModelAxis,
    topo: TopoAxis,
    rounds: usize,
    seed: u64,
) -> Result<(f32, u64, u64, u64, u64, u64), String> {
    let platforms = 4usize;
    // Enough samples for one full minibatch per platform per round.
    let samples = platforms * model.minibatch();
    let train = SyntheticTabular::new(3, model.input_dim(), seed)
        .generate(samples)
        .map_err(|e| format!("train data: {e}"))?;
    let test = SyntheticTabular::new(3, model.input_dim(), seed + 1)
        .generate((samples / 4).max(8))
        .map_err(|e| format!("test data: {e}"))?;
    let shards = partition(&train, platforms, &Partition::Iid, seed).map_err(|e| format!("shards: {e}"))?;

    let config = SplitConfig {
        rounds,
        eval_every: rounds,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(model.minibatch()),
        seed,
        codec,
        ..SplitConfig::default()
    };
    let arch = model.architecture();
    let plan = FaultPlan::new(seed);

    let history = match topo {
        TopoAxis::Star4 => {
            let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(platforms)), plan);
            let mut trainer = ResilientTrainer::new(&arch, config, shards, test, &chaos)
                .map_err(|e| format!("trainer: {e}"))?;
            trainer.run().map_err(|e| format!("training: {e}"))?
        }
        TopoAxis::Hier2x2 => {
            let hier = HierTopology::new(2, 2);
            let chaos = ChaosTransport::new(MemoryTransport::new(hier.clone()), plan);
            let mut trainer =
                HierResilientTrainer::new(&arch, config, HierPolicy::default(), hier, shards, test, &chaos)
                    .map_err(|e| format!("trainer: {e}"))?;
            trainer.run().map_err(|e| format!("training: {e}"))?
        }
    };

    let stats = &history.stats;
    let completed = history.records.len() as u64;
    let mut d = FNV_OFFSET;
    d = fnv1a(d, &history.final_accuracy.to_bits().to_le_bytes());
    d = fnv1a(d, &stats.total_bytes.to_le_bytes());
    d = fnv1a(d, &stats.logical_bytes.to_le_bytes());
    d = fnv1a(d, &stats.messages.to_le_bytes());
    d = fnv1a(d, &completed.to_le_bytes());
    for r in &history.records {
        // Rounds without an eval point digest as a fixed sentinel.
        let bits = r.accuracy.map_or(u32::MAX, f32::to_bits);
        d = fnv1a(d, &bits.to_le_bytes());
    }
    Ok((
        history.final_accuracy,
        stats.total_bytes,
        stats.logical_bytes,
        stats.messages,
        completed,
        d,
    ))
}

/// Measures one frontier point, running it twice and asserting replay
/// bit-identity (same seed → same digest).
fn measure(
    codec: WireCodec,
    codec_name: &'static str,
    model: ModelAxis,
    topo: TopoAxis,
    rounds: usize,
    seed: u64,
) -> Result<Point, String> {
    let first = run_once(codec, model, topo, rounds, seed)?;
    let second = run_once(codec, model, topo, rounds, seed)?;
    assert_eq!(
        first.5,
        second.5,
        "{codec_name} {} {} is not bit-identical on replay (digest {:016x} vs {:016x})",
        model.name(),
        topo.name(),
        first.5,
        second.5
    );
    Ok(Point {
        codec: codec_name,
        model,
        topo,
        rounds: first.4,
        accuracy: first.0,
        wire_bytes: first.1,
        logical_bytes: first.2,
        messages: first.3,
        digest: first.5,
    })
}

/// Per-(model, topology) frontier checks against the f32 reference run.
fn assert_frontier(points: &[Point]) {
    for p in points {
        let f32_ref = points
            .iter()
            .find(|q| q.codec == "f32" && q.model == p.model && q.topo == p.topo)
            .expect("every axis pair includes an f32 reference");
        // The logical (f32-equivalent) accounting sees through the codec,
        // bare tensor frames and relay batches alike, so it must agree
        // across runs on every topology.
        assert_eq!(
            p.logical_bytes,
            f32_ref.logical_bytes,
            "{} logical bytes diverged from the f32 run — protocol shapes must not depend on codec",
            p.label()
        );
        assert_eq!(
            p.messages,
            f32_ref.messages,
            "{} message count diverged from the f32 run",
            p.label()
        );
        let ratio = p.wire_bytes as f64 / f32_ref.wire_bytes as f64;
        match p.codec {
            // The acceptance bound holds where payloads dominate; the
            // narrow cut is reported for the frontier but not bounded.
            "int8" if p.model == ModelAxis::WideCut && p.topo == TopoAxis::Star4 => assert!(
                ratio <= INT8_RATIO_BOUND,
                "{} wire bytes are {ratio:.4}x the f32 run's, above the {INT8_RATIO_BOUND} bound",
                p.label()
            ),
            "f16" if p.model == ModelAxis::WideCut && p.topo == TopoAxis::Star4 => assert!(
                ratio <= F16_RATIO_BOUND,
                "{} wire bytes are {ratio:.4}x the f32 run's, above the {F16_RATIO_BOUND} bound",
                p.label()
            ),
            _ => {}
        }
        let acc_gap = (p.accuracy - f32_ref.accuracy).abs();
        assert!(
            acc_gap <= ACC_TOL,
            "{} accuracy {:.4} is {acc_gap:.4} away from the f32 run's {:.4} (tolerance {ACC_TOL})",
            p.label(),
            p.accuracy,
            f32_ref.accuracy
        );
    }
}

fn to_json(points: &[Point]) -> String {
    let mut results = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            results,
            "    {{\"codec\": \"{}\", \"model\": \"{}\", \"topology\": \"{}\", \
             \"rounds\": {}, \"final_accuracy\": {:.6}, \"wire_bytes\": {}, \
             \"logical_bytes\": {}, \"wire_ratio\": {:.6}, \"messages\": {}, \
             \"replay_digest\": \"{:016x}\"}}{}",
            p.codec,
            p.model.name(),
            p.topo.name(),
            p.rounds,
            p.accuracy,
            p.wire_bytes,
            p.logical_bytes,
            p.wire_bytes as f64 / p.logical_bytes as f64,
            p.messages,
            p.digest,
            comma
        );
    }
    results.push_str("  ]");
    bench_json(
        "codec_bench",
        &[
            ("acc_tolerance", format!("{ACC_TOL}")),
            ("int8_ratio_bound", format!("{INT8_RATIO_BOUND}")),
            ("results", results),
        ],
    )
}

/// Runs the codec frontier sweep and returns its measurements.
pub fn run(args: &[String]) -> CodecBenchOutcome {
    let smoke = arg_present(args, "--smoke");
    // Smoke keeps CI cheap; the full sweep trains long enough for the
    // frontier's accuracy axis to pull away from chance.
    let rounds: usize = arg_value(args, "--rounds")
        .map(|v| v.parse().expect("--rounds takes an integer"))
        .unwrap_or(if smoke { 6 } else { 24 });
    pool::set_num_threads(1);

    let (models, topos): (&[ModelAxis], &[TopoAxis]) = if smoke {
        (&[ModelAxis::WideCut], &[TopoAxis::Star4])
    } else {
        (
            &[ModelAxis::WideCut, ModelAxis::NarrowCut],
            &[TopoAxis::Star4, TopoAxis::Hier2x2],
        )
    };

    let mut points = Vec::new();
    for &model in models {
        for &topo in topos {
            for (codec, name) in CODECS {
                eprintln!("[codec_bench] {name} {} {} x2 ...", model.name(), topo.name());
                points.push(
                    measure(codec, name, model, topo, rounds, 42)
                        .unwrap_or_else(|e| panic!("{name} {} {}: {e}", model.name(), topo.name())),
                );
            }
        }
    }
    assert_frontier(&points);

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    let mut table = TextTable::new(
        "codec frontier (bytes transmitted vs accuracy)",
        &[
            "codec",
            "model",
            "topology",
            "accuracy",
            "wire B",
            "logical B",
            "ratio",
            "msgs",
        ],
    );
    let mut frontier_digest = FNV_OFFSET;
    for p in &points {
        let ratio = p.wire_bytes as f64 / p.logical_bytes as f64;
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.6},{},{},{:.6},{},{:016x}",
            p.codec,
            p.model.name(),
            p.topo.name(),
            p.rounds,
            p.accuracy,
            p.wire_bytes,
            p.logical_bytes,
            ratio,
            p.messages,
            p.digest
        );
        table.row(vec![
            p.codec.to_string(),
            p.model.name().to_string(),
            p.topo.name().to_string(),
            format!("{:.4}", p.accuracy),
            p.wire_bytes.to_string(),
            p.logical_bytes.to_string(),
            format!("{ratio:.3}"),
            p.messages.to_string(),
        ]);
        frontier_digest = fnv1a(frontier_digest, &p.digest.to_le_bytes());
    }

    let csv_path = write_result("codec_frontier.csv", &csv).expect("write codec_frontier.csv");
    let json_path = bench_json_path("BENCH_codec.json", smoke);
    std::fs::write(&json_path, to_json(&points)).expect("write BENCH_codec.json");

    println!("{table}");
    println!("wrote {} and {}", csv_path.display(), json_path.display());
    if smoke {
        println!(
            "smoke OK: {} points replay-stable, int8 <= {INT8_RATIO_BOUND}x f32 wire bytes, \
             accuracy within {ACC_TOL}",
            points.len()
        );
    }
    CodecBenchOutcome {
        rows: points.len(),
        points: points
            .iter()
            .map(|p| (p.label(), p.accuracy, p.wire_bytes, p.logical_bytes))
            .collect(),
        frontier_digest,
    }
}
