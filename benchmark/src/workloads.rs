//! The five workloads, each driven through the product's public entry
//! points on a real clock with tracing off.
//!
//! One *repeat* rebuilds everything from the seed (data, model, actors,
//! transport, driver), times the entry-point call(s), and checks the
//! output. Work per repeat is fixed, so the exact metrics
//! (`wire_bytes_per_op`, `final_loss`, message counts, digests) repeat
//! bit-for-bit however many repeats a run makes.
//!
//! A run makes three to five repeats. The benchmark was specified with
//! repeats of 300, 2500 and 2000 rounds and 15 serving and 30 fleet
//! sessions, four to seven seconds each. All the driver's runs together
//! have a time cap, and the reference host at its slowest (neighbours
//! taking a fifth of its CPU: 21 VGG rounds a second where it usually
//! makes 45) has to fit three repeats into a run of `run_seconds`, so the
//! sizes here are the largest that do: about three and a half seconds a
//! repeat on the host's usual day and seven on its worst.

use std::time::Instant;

use medsplit_core::{
    build_split, HierPolicy, HierResilientTrainer, Platform, SplitConfig, SplitPoint, SplitServer,
    SplitTrainer, TrainingHistory, WireCodec,
};
use medsplit_data::{
    partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticImages, SyntheticTabular,
};
use medsplit_fleet::{run_fleet, FleetConfig, FleetOutcome};
use medsplit_nn::{Architecture, LrSchedule, MlpConfig, VggConfig};
use medsplit_serve::{serve_threaded, ServeConfig, ServeOutcome};
use medsplit_simnet::{ChaosRng, ChaosTransport, FaultPlan, HierTopology, MemoryTransport, StarTopology};
use medsplit_tensor::Tensor;

use crate::host::timed;

/// Workload names, in the order they run and print.
pub const WORKLOADS: [&str; 5] = [
    "train_vgg",
    "train_mlp",
    "train_hier_int8",
    "serve_vgg",
    "fleet_mlp",
];

/// Platforms in every training workload (star of 4, or 2 regions × 2).
pub const PLATFORMS: usize = 4;
/// Test-set size: one evaluation batch per platform at the end of `run()`.
const TEST_SAMPLES: usize = 64;
/// Training-set sizes: large enough that no sample is seen more than a
/// few times in a repeat, so the loss settles at the label-noise floor
/// instead of memorising its way below it.
const MLP_TRAIN_SAMPLES: usize = 32_768;
const VGG_TRAIN_SAMPLES: usize = 8192;
/// Share of training labels redrawn uniformly; see [`with_label_noise`].
const LABEL_NOISE: f64 = 0.5;

/// Requests in one `serve_threaded` session. Kept at 2000 because the
/// collect-then-replay server holds every request of a session in memory.
pub const SERVE_SESSION_REQUESTS: usize = 2000;
/// `serve_threaded` sessions per repeat.
const SERVE_SESSIONS: usize = 8;
/// Requests per tenant in one `run_fleet` session.
pub const FLEET_REQUESTS_PER_TENANT: usize = 10_000;
/// `run_fleet` sessions per repeat.
const FLEET_SESSIONS: usize = 12;
/// One-request `run_fleet` sessions timed per repeat for `setup_s`.
const FLEET_SETUPS: usize = 15;

pub type Res<T> = Result<T, String>;

/// Turns a product error into this benchmark's, saying what was attempted.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// FNV-1a fold of `bytes` into `hash`; digests here only compare runs of
/// this benchmark with each other.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one repeat measured and produced.
#[derive(Debug, Clone)]
pub struct Repeat {
    /// Everything in the repeat outside the timed region, in seconds.
    pub setup_s: f64,
    /// Seconds in the timed entry-point call(s).
    pub timed_s: f64,
    /// The workload's operations: rounds when training, requests when
    /// serving. `rounds_per_s` or `requests_per_s` is this over `timed_s`.
    pub ops: u64,
    /// The same work in the other throughput's unit: samples sent through
    /// the server when training, entry-point calls (sessions) when
    /// serving. The driver reads one list of metrics for all workloads, so
    /// the result line carries this over `timed_s` under the name that
    /// does not apply; nothing else uses it.
    pub other_ops: u64,
    /// Operations whose outcome was wrong (errored, degraded, not `Ok`,
    /// wrong logits) plus failed output checks.
    pub failed: u64,
    pub wire_bytes: u64,
    pub messages: u64,
    /// Mean training loss over the last tenth of the rounds; serving has
    /// none.
    pub final_loss: Option<f64>,
    /// Digest of the final weights (training) or served logits (serving).
    pub digest: u64,
    /// Failed checks, in words.
    pub complaints: Vec<String>,
}

impl Repeat {
    fn complain(&mut self, msg: String) {
        self.failed += 1;
        self.complaints.push(msg);
    }
}

// ----- training -------------------------------------------------------------

/// A training workload's fixed shape.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub arch: Architecture,
    /// Per-platform minibatch.
    pub batch: usize,
    pub rounds: usize,
    pub codec: WireCodec,
    /// `HierResilientTrainer` over 2 regions × 2 instead of `SplitTrainer`
    /// over a star of 4.
    pub hier: bool,
    lr: f32,
}

impl TrainSpec {
    pub fn of(workload: &str) -> Option<TrainSpec> {
        let mlp = Architecture::Mlp(MlpConfig {
            input_dim: 32,
            hidden: vec![128],
            num_classes: 3,
        });
        Some(match workload {
            "train_vgg" => TrainSpec {
                arch: Architecture::Vgg(VggConfig::lite(10)),
                batch: 16,
                rounds: 150,
                codec: WireCodec::F32,
                hier: false,
                lr: 0.05,
            },
            "train_mlp" => TrainSpec {
                arch: mlp,
                batch: 64,
                rounds: 1200,
                codec: WireCodec::F32,
                hier: false,
                lr: 0.1,
            },
            "train_hier_int8" => TrainSpec {
                arch: mlp,
                batch: 64,
                rounds: 1000,
                codec: WireCodec::Int8,
                hier: true,
                lr: 0.1,
            },
            _ => return None,
        })
    }

    pub fn config(&self, seed: u64) -> SplitConfig {
        SplitConfig {
            minibatch: MinibatchPolicy::Fixed(self.batch),
            lr: LrSchedule::Constant(self.lr),
            rounds: self.rounds,
            eval_every: 0,
            seed,
            codec: self.codec,
            ..SplitConfig::default()
        }
    }

    /// Platform shards and the test set, from the seed alone.
    pub fn data(&self, seed: u64) -> Res<(Vec<InMemoryDataset>, InMemoryDataset)> {
        let (all, train_samples) = match &self.arch {
            Architecture::Mlp(m) => (
                SyntheticTabular::new(m.num_classes, m.input_dim, seed)
                    .generate(MLP_TRAIN_SAMPLES + TEST_SAMPLES),
                MLP_TRAIN_SAMPLES,
            ),
            arch => (
                SyntheticImages::lite(arch.num_classes(), seed).generate(VGG_TRAIN_SAMPLES + TEST_SAMPLES),
                VGG_TRAIN_SAMPLES,
            ),
        };
        // Each step copies the features; nothing outlives the step that
        // needs it, so the benchmark's own data stays out of `peak_rss_mb`
        // as far as it can.
        let (train, test) = {
            let all = all.map_err(err("synthetic data"))?;
            let train: Vec<usize> = (0..train_samples).collect();
            let test: Vec<usize> = (train_samples..all.len()).collect();
            (
                all.subset(&train).map_err(err("train subset"))?,
                all.subset(&test).map_err(err("test subset"))?,
            )
        };
        let train = with_label_noise(train, seed)?;
        let shards = partition(&train, PLATFORMS, &Partition::Iid, seed).map_err(err("partition"))?;
        Ok((shards, test))
    }
}

/// Replaces a share of the training labels with a uniformly drawn class.
///
/// The synthetic tasks are separable, so without this the training loss
/// races to zero at a pace that depends on the seed, and `final_loss`
/// would spread by tens of percent between seeds. With it the loss has a
/// floor set by the noise rate alone (about 0.87 nats on 3 classes, 1.68
/// on 10), which every seed reaches. Timing is unaffected.
fn with_label_noise(data: InMemoryDataset, seed: u64) -> Res<InMemoryDataset> {
    let classes = data.num_classes();
    let mut rng = ChaosRng::new(seed ^ 0x6c61_6265_6c73);
    let labels = data
        .labels()
        .iter()
        .map(|&l| {
            if rng.chance(LABEL_NOISE) {
                (rng.next_u64() % classes as u64) as usize
            } else {
                l
            }
        })
        .collect();
    InMemoryDataset::new(data.features().clone(), labels, classes).map_err(err("noisy labels"))
}

/// One call of a training driver's `run()` and what came out of it.
pub struct DriverRun {
    pub setup_s: f64,
    /// Seconds in `run()`.
    pub run_s: f64,
    pub history: TrainingHistory,
    /// Digest of the trained weights the driver exposes.
    pub digest: u64,
    /// Retries, failovers, quorum failures and chaos injections: all must
    /// be zero on a fault-free run.
    pub faults: u64,
}

/// Builds a workload's driver from the seed and times its `run()`.
pub fn drive_train(spec: &TrainSpec, seed: u64) -> Res<DriverRun> {
    let (setup_s, ran) = build_driver(spec, seed, true)?;
    let ran = ran.ok_or("driver built and not run")?;
    Ok(DriverRun {
        setup_s,
        run_s: ran.run_s,
        history: ran.history,
        digest: ran.digest,
        faults: ran.faults,
    })
}

/// What `run()` took and produced; see [`DriverRun`].
struct Ran {
    run_s: f64,
    history: TrainingHistory,
    digest: u64,
    faults: u64,
}

/// Builds a workload's driver from the seed and returns the seconds that
/// took and, if `run`, what its `run()` took and produced.
fn build_driver(spec: &TrainSpec, seed: u64, run: bool) -> Res<(f64, Option<Ran>)> {
    let setup = Instant::now();
    let (shards, test) = spec.data(seed)?;
    let config = spec.config(seed);
    if spec.hier {
        let topo = HierTopology::new(2, PLATFORMS / 2);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(seed));
        let mut trainer = HierResilientTrainer::new(
            &spec.arch,
            config,
            HierPolicy::default(),
            topo,
            shards,
            test,
            &chaos,
        )
        .map_err(err("hier trainer"))?;
        let setup_s = setup.elapsed().as_secs_f64();
        if !run {
            return Ok((setup_s, None));
        }
        let (history, run_s) = timed(|| trainer.run());
        let history = history.map_err(err("hier run"))?;
        let r = trainer.report();
        let faults = r.base.retries
            + r.base.checksum_rejections
            + r.base.stray_messages
            + r.base.skipped_platform_rounds
            + r.base.degraded_rounds
            + r.base.quorum_failures
            + r.rehomes
            + r.direct_fallbacks
            + r.orphaned_platform_rounds
            + r.region_quorum_drops
            + chaos.chaos_stats().total();
        // The hierarchical driver does not expose its server; the
        // platforms' trained L1 weights pin the run just as well, since
        // every cut gradient they applied came through it.
        let mut digest = FNV_OFFSET;
        for p in trainer.platforms_mut() {
            let d = medsplit_nn::vectorize::parameter_digest(p.model_mut());
            digest = fnv1a(digest, &d.to_le_bytes());
        }
        let ran = Ran {
            run_s,
            history,
            digest,
            faults,
        };
        Ok((setup_s, Some(ran)))
    } else {
        let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
        let mut trainer =
            SplitTrainer::new(&spec.arch, config, shards, test, &transport).map_err(err("star trainer"))?;
        let setup_s = setup.elapsed().as_secs_f64();
        if !run {
            return Ok((setup_s, None));
        }
        let (history, run_s) = timed(|| trainer.run());
        let history = history.map_err(err("star run"))?;
        let digest = trainer.server_mut().weights_digest();
        let ran = Ran {
            run_s,
            history,
            digest,
            faults: 0,
        };
        Ok((setup_s, Some(ran)))
    }
}

/// Mean of `RoundRecord::mean_loss` over the first and the last tenth of
/// the rounds.
fn loss_ends(history: &TrainingHistory) -> (f64, f64) {
    let n = history.records.len();
    let tenth = (n / 10).max(1);
    let mean = |rs: &[medsplit_core::RoundRecord]| {
        rs.iter().map(|r| f64::from(r.mean_loss)).sum::<f64>() / rs.len().max(1) as f64
    };
    (
        mean(&history.records[..tenth.min(n)]),
        mean(&history.records[n - tenth.min(n)..]),
    )
}

fn train_repeat(spec: &TrainSpec, seed: u64) -> Res<Repeat> {
    let run = drive_train(spec, seed)?;
    let h = &run.history;
    let (first, last) = loss_ends(h);
    let bad_rounds = h
        .records
        .iter()
        .filter(|r| r.degraded || r.participants != PLATFORMS || !r.mean_loss.is_finite())
        .count() as u64;
    let mut rep = Repeat {
        setup_s: run.setup_s,
        timed_s: run.run_s,
        ops: spec.rounds as u64,
        other_ops: (spec.rounds * PLATFORMS * spec.batch) as u64,
        failed: bad_rounds + (spec.rounds as u64).saturating_sub(h.records.len() as u64),
        wire_bytes: h.stats.total_bytes,
        messages: h.stats.messages,
        final_loss: Some(last),
        digest: run.digest,
        complaints: Vec::new(),
    };
    if bad_rounds > 0 {
        rep.complaints.push(format!(
            "{bad_rounds} rounds degraded, short of platforms or non-finite"
        ));
    }
    if run.faults > 0 {
        rep.complain(format!(
            "{} retries/failovers/injections on a fault-free run",
            run.faults
        ));
    }
    if last >= first {
        rep.complain(format!(
            "loss did not fall: first tenth {first:.4}, last tenth {last:.4}"
        ));
    }
    if !spec.hier && h.stats.messages != (4 * PLATFORMS * spec.rounds) as u64 {
        rep.complain(format!(
            "{} messages on the star, expected 4 x {PLATFORMS} x {}",
            h.stats.messages, spec.rounds
        ));
    }
    Ok(rep)
}

// ----- serve_vgg ------------------------------------------------------------

/// The `serve_vgg` configuration: batch ≤ 8, no deadline, a queue that
/// never rejects.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait_s: 0.010,
        queue_capacity: 1 << 20,
        deadline_s: f64::INFINITY,
        offered_rps: 200.0,
        codec: WireCodec::F32,
        ..ServeConfig::default()
    }
}

/// The served model: VGG-lite at the default cut.
pub fn serve_arch() -> Architecture {
    Architecture::Vgg(VggConfig::lite(10))
}

/// One platform and the server, freshly built from the seed.
pub fn serve_actors(seed: u64, shard: &InMemoryDataset) -> Res<(Platform, SplitServer)> {
    let mut model = build_split(&serve_arch(), SplitPoint::Default, seed, 1).map_err(err("build_split"))?;
    let client = model.clients.pop().ok_or("build_split returned no client")?;
    Ok((
        Platform::new(0, client, shard.clone(), 4, 0.0, seed),
        SplitServer::new(model.server, 0.0),
    ))
}

/// `count` single-image queries with their labels.
pub fn serve_queries(seed: u64, count: usize) -> Res<(InMemoryDataset, Vec<Tensor>)> {
    let data = SyntheticImages::lite(10, seed)
        .generate(count)
        .map_err(err("query images"))?;
    let queries = (0..data.len())
        .map(|i| data.batch(&[i]).map(|(x, _)| x))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("query batch"))?;
    Ok((data, queries))
}

/// Everything one `serve_threaded` call takes, built and not yet run.
struct ServeSession {
    platform: Platform,
    server: SplitServer,
    topology: StarTopology,
    transport: MemoryTransport<StarTopology>,
    streams: Vec<Vec<Tensor>>,
}

impl ServeSession {
    fn new(seed: u64, shard: &InMemoryDataset, queries: &[Tensor]) -> Res<ServeSession> {
        let (platform, server) = serve_actors(seed, shard)?;
        let topology = StarTopology::new(1);
        Ok(ServeSession {
            platform,
            server,
            transport: MemoryTransport::new(topology.clone()),
            topology,
            streams: vec![queries.to_vec()],
        })
    }

    /// The `serve_threaded` call and the seconds it took.
    fn run(self) -> Res<(f64, ServeOutcome)> {
        let cfg = serve_config();
        let (outcome, t) = timed(|| {
            serve_threaded(
                vec![self.platform],
                self.server,
                self.streams,
                &self.topology,
                &cfg,
                &self.transport,
            )
        });
        Ok((t, outcome.map_err(err("serve_threaded"))?))
    }
}

/// One `serve_threaded` session over one platform and the server, and
/// the seconds it took; building the actors and the transport is not in
/// them.
pub fn serve_session(seed: u64, shard: &InMemoryDataset, queries: &[Tensor]) -> Res<(f64, ServeOutcome)> {
    ServeSession::new(seed, shard, queries)?.run()
}

/// The queries of a `serve_vgg` repeat and the shard its platform holds.
fn serve_inputs(seed: u64) -> Res<(InMemoryDataset, Vec<Tensor>)> {
    // Every session serves queries of its own.
    let (data, queries) = serve_queries(seed, SERVE_SESSIONS * SERVE_SESSION_REQUESTS)?;
    let shard = data.subset(&(0..16).collect::<Vec<_>>()).map_err(err("shard"))?;
    Ok((shard, queries))
}

/// Seconds to build what a `serve_vgg` repeat builds, without serving.
fn serve_setup_s(seed: u64) -> Res<f64> {
    let start = Instant::now();
    let (shard, queries) = serve_inputs(seed)?;
    for qs in queries.chunks(SERVE_SESSION_REQUESTS) {
        std::hint::black_box(ServeSession::new(seed, &shard, qs)?);
    }
    Ok(start.elapsed().as_secs_f64())
}

fn serve_repeat(seed: u64) -> Res<Repeat> {
    // Set-up is the queries and every session's actors and transport;
    // checking the answers is neither set-up nor served time.
    let mut checking_s = 0.0;
    let whole = Instant::now();
    let (shard, queries) = serve_inputs(seed)?;
    let mut rep = Repeat {
        setup_s: 0.0,
        timed_s: 0.0,
        ops: queries.len() as u64,
        other_ops: SERVE_SESSIONS as u64,
        failed: 0,
        wire_bytes: 0,
        messages: 0,
        final_loss: None,
        digest: FNV_OFFSET,
        complaints: Vec::new(),
    };
    // Twin actors for the direct path the served logits are checked against.
    let checking = Instant::now();
    let (mut platform, mut server) = serve_actors(seed, &shard)?;
    checking_s += checking.elapsed().as_secs_f64();
    for qs in queries.chunks(SERVE_SESSION_REQUESTS) {
        let (t, outcome) = serve_session(seed, &shard, qs)?;
        rep.timed_s += t;
        let checking = Instant::now();
        rep.wire_bytes += outcome.stats.total_bytes;
        rep.messages += outcome.stats.messages;
        let r = &outcome.report;
        let not_ok = (r.offered - r.completed) as u64;
        rep.failed += not_ok;
        if not_ok > 0 {
            rep.complaints.push(format!(
                "{} rejected, {} timed out, {} throttled of {}",
                r.rejected, r.timed_out, r.throttled, r.offered
            ));
        }
        // A request's id carries its position in the session's stream.
        let position = |id: u64| (id & 0xffff_ffff) as usize;
        let served = || {
            outcome
                .records
                .iter()
                .filter_map(|r| Some((r, r.logits.as_ref()?)))
        };
        for (_, logits) in served() {
            for v in logits.as_slice() {
                rep.digest = fnv1a(rep.digest, &v.to_bits().to_le_bytes());
            }
        }

        // Requests spread evenly over the session, 64 or more over the
        // repeat.
        let checked = 64usize.div_ceil(SERVE_SESSIONS);
        for (rec, got) in served().step_by(qs.len() / checked).take(checked) {
            let acts = platform
                .infer_l1(&qs[position(rec.id)])
                .map_err(err("direct infer_l1"))?;
            let want = server.infer(&acts).map_err(err("direct infer"))?;
            let close = got.dims() == want.dims()
                && got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| (a - b).abs() <= 1e-5);
            if !close {
                rep.complain(format!("request {} differs from the direct path", rec.id));
            }
        }
        checking_s += checking.elapsed().as_secs_f64();
    }
    rep.setup_s = whole.elapsed().as_secs_f64() - rep.timed_s - checking_s;
    Ok(rep)
}

// ----- fleet_mlp ------------------------------------------------------------

pub fn fleet_config(replicas: usize) -> FleetConfig {
    FleetConfig {
        replicas,
        tenants: 3,
        ..FleetConfig::default()
    }
}

/// One timed `run_fleet` session. `run_fleet` draws its queries from a
/// stream of its own; the seed feeds the weights and the (empty) fault
/// plan.
pub fn fleet_session(cfg: &FleetConfig, per_tenant: usize, seed: u64) -> Res<(f64, FleetOutcome)> {
    let (outcome, t) = timed(|| run_fleet(cfg, per_tenant, seed, FaultPlan::new(seed), &[]));
    Ok((t, outcome.map_err(err("run_fleet"))?))
}

/// Requests a fault-free fleet session did not answer `Ok`, or answered
/// only after a redispatch or handoff.
pub fn fleet_failures(o: &FleetOutcome) -> u64 {
    (o.report.offered - o.report.completed) as u64
        + o.redispatched as u64
        + o.handoffs as u64
        + o.chaos.total()
}

/// `run_fleet` builds its model, bank and queries itself, so set-up is
/// what a session of one request per tenant costs: a millisecond or two,
/// so the median of several.
fn fleet_setup_s(cfg: &FleetConfig, seed: u64) -> Res<f64> {
    let mut setups = Vec::with_capacity(FLEET_SETUPS);
    for _ in 0..FLEET_SETUPS {
        setups.push(fleet_session(cfg, 1, seed)?.0);
    }
    Ok(crate::stats::median(&setups))
}

fn fleet_repeat(seed: u64) -> Res<Repeat> {
    let cfg = fleet_config(2);
    let per_session = cfg.tenants * FLEET_REQUESTS_PER_TENANT;
    let mut rep = Repeat {
        setup_s: fleet_setup_s(&cfg, seed)?,
        timed_s: 0.0,
        ops: (FLEET_SESSIONS * per_session) as u64,
        other_ops: FLEET_SESSIONS as u64,
        failed: 0,
        wire_bytes: 0,
        messages: 0,
        final_loss: None,
        digest: FNV_OFFSET,
        complaints: Vec::new(),
    };
    for _ in 0..FLEET_SESSIONS {
        let (t, o) = fleet_session(&cfg, FLEET_REQUESTS_PER_TENANT, seed)?;
        rep.timed_s += t;
        rep.wire_bytes += o.stats.total_bytes;
        rep.messages += o.stats.messages;
        let bad = fleet_failures(&o);
        rep.failed += bad;
        if bad > 0 {
            rep.complaints.push(format!(
                "{} of {} not Ok, {} redispatched, {} handoffs, {} chaos injections",
                o.report.offered - o.report.completed,
                o.report.offered,
                o.redispatched,
                o.handoffs,
                o.chaos.total()
            ));
        }
        rep.digest = fnv1a(rep.digest, &o.logits_digest.to_le_bytes());
    }
    Ok(rep)
}

/// Runs one repeat of `workload`.
pub fn repeat(workload: &str, seed: u64) -> Res<Repeat> {
    match workload {
        "serve_vgg" => serve_repeat(seed),
        "fleet_mlp" => fleet_repeat(seed),
        name => {
            let spec = TrainSpec::of(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            train_repeat(&spec, seed)
        }
    }
}

/// Seconds to set `workload` up as a repeat does, without running it.
/// Set-up is milliseconds to tenths of a second, so a run samples it
/// more often than it has repeats.
pub fn setup_only(workload: &str, seed: u64) -> Res<f64> {
    match workload {
        "serve_vgg" => serve_setup_s(seed),
        "fleet_mlp" => fleet_setup_s(&fleet_config(2), seed),
        name => {
            let spec = TrainSpec::of(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            Ok(build_driver(&spec, seed, false)?.0)
        }
    }
}
