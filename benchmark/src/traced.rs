//! The traced run: the benchmark drives the same actors the drivers
//! drive, call by call, and times every call into each layer's public
//! functions. Passes through the public entry point, interleaved with
//! that, give the reference time, the kernel spans the program itself
//! emits, the cost of those spans, and the single-thread comparison.
//!
//! What licenses attributing a driver's time to these calls is that the
//! bench-driven loop reproduces the driver's output bit for bit: the
//! per-round losses when training, the logits when serving.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use medsplit_core::relay;
use medsplit_core::{build_split, OptimizerKind, Platform, SplitPoint, SplitServer, WireCodec};
use medsplit_data::{BatchSampler, InMemoryDataset};
use medsplit_fleet::{
    decode_sessions, encode_sessions, FleetPending, InFlight, ModelBank, Replica, Router, SessionKey,
};
use medsplit_nn::{accuracy, softmax_cross_entropy, Architecture, Layer, MlpConfig, Mode};
use medsplit_serve::{
    decode_request, decode_response, decode_routed_request, encode_request, encode_response,
    encode_response_from, encode_routed_request, DynamicBatcher, InferStatus, RoutedRequest,
};
use medsplit_simnet::{
    payload_checksum, ChaosTransport, Envelope, FaultPlan, FleetTopology, HierTopology, MemoryTransport,
    MessageKind, NodeId, StarTopology, Transport,
};
use medsplit_telemetry::{MetricSnapshot, SpanRecord};
use medsplit_tensor::ops::plan;
use medsplit_tensor::{init::rng_from_seed, pool, scratch, Tensor};

use crate::metrics::PER_LAYER;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    drive_train, err, fleet_config, fleet_failures, fleet_session, serve_actors, serve_config, serve_queries,
    serve_session, Res, TrainSpec, FLEET_REQUESTS_PER_TENANT, PLATFORMS, SERVE_SESSION_REQUESTS,
};

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct TraceOutcome {
    /// Per-layer values by metric name. The caller reports a metric that
    /// applies to the workload and is missing here as a failed check.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    /// Lines for the human reader that are not metrics.
    pub notes: Vec<String>,
}

impl TraceOutcome {
    fn set(&mut self, name: &'static str, value: f64) {
        if !PER_LAYER.iter().any(|m| m.0 == name) {
            self.complain(format!("{name} is not a per-layer metric of this benchmark"));
        }
        self.metrics.insert(name, value);
    }

    fn complain(&mut self, msg: String) {
        self.failed += 1;
        self.complaints.push(msg);
    }
}

/// Nanoseconds per call of `f`, measured over at least `min_ms` after
/// one untimed call.
fn bench_ns(min_ms: u64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= min_ms {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Replays one operation's captured tensors and envelopes through the
/// wire layers: tensor serialisation with the workload's codec, payload
/// checksum, envelope framing. Per-byte figures are per f32 tensor byte
/// (serialisation) and per payload or frame byte (checksum, envelope).
fn replay_wire(out: &mut TraceOutcome, tensors: &[Tensor], envelopes: &[Envelope], codec: WireCodec) {
    let encode_tensor = |t: &Tensor| match codec {
        WireCodec::F32 => t.to_bytes(),
        WireCodec::F16 => t.to_bytes_f16(),
        WireCodec::Int8 => t.to_bytes_i8(),
    };
    let tensor_bytes: usize = tensors.iter().map(|t| t.numel() * 4).sum();
    let encoded: Vec<_> = tensors.iter().map(encode_tensor).collect();
    if tensor_bytes > 0 {
        let enc_ns = bench_ns(40, || {
            for t in tensors {
                black_box(encode_tensor(black_box(t)));
            }
        });
        let dec_ns = bench_ns(40, || {
            for b in &encoded {
                black_box(Tensor::from_bytes(black_box(b.clone())).expect("own encoding decodes"));
            }
        });
        out.set(
            "tensor.serialize.encode_ns_per_byte",
            enc_ns / tensor_bytes as f64,
        );
        out.set(
            "tensor.serialize.decode_ns_per_byte",
            dec_ns / tensor_bytes as f64,
        );
        out.set("tensor.serialize.ms_per_round", (enc_ns + dec_ns) / 1e6);
    }
    let payload_bytes: usize = envelopes.iter().map(|e| e.payload.len()).sum();
    if payload_bytes > 0 {
        let sum_ns = bench_ns(40, || {
            for e in envelopes {
                black_box(payload_checksum(black_box(&e.payload)));
            }
        });
        out.set("simnet.checksum_ns_per_byte", sum_ns / payload_bytes as f64);
        out.set("simnet.checksum_ms_per_round_pass", sum_ns / 1e6);
        let frames: Vec<_> = envelopes.iter().map(Envelope::encode).collect();
        let frame_bytes: usize = frames.iter().map(|f| f.len()).sum();
        let enc_ns = bench_ns(40, || {
            for e in envelopes {
                black_box(black_box(e).encode());
            }
        });
        let dec_ns = bench_ns(40, || {
            for f in &frames {
                black_box(Envelope::decode(black_box(f)).expect("own frame decodes"));
            }
        });
        out.set("simnet.envelope.encode_ns_per_byte", enc_ns / frame_bytes as f64);
        out.set("simnet.envelope.decode_ns_per_byte", dec_ns / frame_bytes as f64);
    }
}

/// The transport as the bench-driven loops use it: every send and
/// receive is a span, and the envelopes of one operation can be kept.
struct Wire<'a> {
    net: &'a dyn Transport,
    capture: Option<Vec<Envelope>>,
}

impl Wire<'_> {
    fn send(&mut self, tr: &mut Tracer, op: u64, env: Envelope) -> Res<()> {
        if let Some(kept) = &mut self.capture {
            kept.push(env.clone());
        }
        tr.time("simnet.transport.send", op, || self.net.send(env))
            .map_err(err("send"))
    }

    fn try_recv(&mut self, tr: &mut Tracer, op: u64, node: NodeId) -> Option<Envelope> {
        tr.time("simnet.transport.recv", op, || self.net.try_recv(node))
    }

    fn recv(&mut self, tr: &mut Tracer, op: u64, node: NodeId) -> Res<Envelope> {
        self.try_recv(tr, op, node)
            .ok_or_else(|| format!("no message queued for {node}"))
    }
}

/// Totals of the kernel spans the program emits, per operation.
struct KernelSpans {
    gemm_ms: f64,
    conv_ms: f64,
    gemm_calls: f64,
    conv_calls: f64,
}

fn kernel_spans(spans: &[SpanRecord], ops: f64) -> KernelSpans {
    let mut k = KernelSpans {
        gemm_ms: 0.0,
        conv_ms: 0.0,
        gemm_calls: 0.0,
        conv_calls: 0.0,
    };
    for s in spans {
        match s.name.as_str() {
            "gemm" => {
                k.gemm_ms += s.dur_ns as f64 / 1e6;
                k.gemm_calls += 1.0;
            }
            "conv_fwd" | "conv_bwd" => {
                k.conv_ms += s.dur_ns as f64 / 1e6;
                k.conv_calls += 1.0;
            }
            _ => {}
        }
    }
    k.gemm_ms /= ops;
    k.conv_ms /= ops;
    k.gemm_calls /= ops;
    k.conv_calls /= ops;
    k
}

/// Runs `f` with the program's own telemetry on and returns what it
/// recorded.
fn with_program_telemetry<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>, Vec<MetricSnapshot>) {
    medsplit_telemetry::drain_spans();
    medsplit_telemetry::reset_metrics();
    medsplit_telemetry::set_enabled(true);
    let r = f();
    medsplit_telemetry::set_enabled(false);
    (
        r,
        medsplit_telemetry::drain_spans(),
        medsplit_telemetry::snapshot_metrics(),
    )
}

/// The reference time for a pass that ran between two reference passes.
/// The host's speed drifts over seconds (a burst allowance runs out, a
/// neighbour wakes up), and a ratio against one reference taken earlier
/// would report that drift as overhead.
fn around(before: f64, after: f64) -> f64 {
    (before + after) / 2.0
}

/// Median wall time of three serving sessions, and the last one's outcome.
fn three<O>(session: impl Fn() -> Res<(f64, O)>) -> Res<(f64, O)> {
    let (t0, _) = session()?;
    let (t1, _) = session()?;
    let (t2, outcome) = session()?;
    Ok((stats::median(&[t0, t1, t2]), outcome))
}

/// Runs `f` with the kernel pool held to one thread.
fn single_threaded<R>(f: impl FnOnce() -> R) -> R {
    let default = pool::num_threads();
    pool::set_num_threads(1);
    let r = f();
    pool::set_num_threads(default);
    r
}

fn histogram_mean(metrics: &[MetricSnapshot], wanted: &str) -> f64 {
    metrics
        .iter()
        .find_map(|m| match m {
            MetricSnapshot::Histogram { name, count, sum, .. } if name == wanted && *count > 0 => {
                Some(sum / *count as f64)
            }
            _ => None,
        })
        .unwrap_or(0.0)
}

fn set_kernel_metrics(out: &mut TraceOutcome, k: &KernelSpans) {
    out.set("tensor.gemm_ms_per_round", k.gemm_ms);
    out.set("tensor.conv_ms_per_round", k.conv_ms);
    out.set("tensor.gemm.calls_per_round", k.gemm_calls);
    out.set("tensor.conv.calls_per_round", k.conv_calls);
}

/// Plan-cache misses and scratch-arena growths since `since`, per op.
fn set_warm_counters(out: &mut TraceOutcome, since: (plan::PlanStats, scratch::ScratchStats), ops: f64) {
    out.set(
        "tensor.plan.misses_per_op",
        (plan::stats().misses - since.0.misses) as f64 / ops,
    );
    out.set(
        "tensor.scratch.allocs_per_op",
        (scratch::stats().allocations - since.1.allocations) as f64 / ops,
    );
}

// ----- training -------------------------------------------------------------

/// The actors as `SplitTrainer::new` builds them, from the same public
/// constructors.
fn build_actors(
    spec: &TrainSpec,
    seed: u64,
    shards: Vec<InMemoryDataset>,
) -> Res<(Vec<Platform>, SplitServer)> {
    let config = spec.config(seed);
    let split = build_split(&spec.arch, config.split, seed, shards.len()).map_err(err("build_split"))?;
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    let batches = config.minibatch.sizes(&sizes);
    let total: usize = batches.iter().sum();
    let platforms = split
        .clients
        .into_iter()
        .zip(shards)
        .zip(&batches)
        .enumerate()
        .map(|(id, ((model, data), &batch))| {
            let mut p = Platform::new(id, model, data, batch, config.momentum, seed);
            p.set_grad_scale(batch as f32 / total as f32);
            p.set_codec(config.codec);
            p
        })
        .collect();
    let mut server = SplitServer::new(split.server, config.momentum);
    server.set_codec(config.codec);
    Ok((platforms, server))
}

/// One aggregate four-message round on the star, as `SplitTrainer` runs it.
fn star_round(
    tr: &mut Tracer,
    round: u64,
    platforms: &mut [Platform],
    server: &mut SplitServer,
    wire: &mut Wire,
) -> Res<f32> {
    let k = platforms.len();
    for p in platforms.iter_mut() {
        let env = tr
            .time("core.platform.start_round", round, || p.start_round(round))
            .map_err(err("start_round"))?;
        wire.send(tr, round, env)?;
    }
    let acts = (0..k)
        .map(|_| wire.recv(tr, round, NodeId::Server))
        .collect::<Res<Vec<_>>>()?;
    let logits = tr
        .time("core.server.aggregate_forward", round, || {
            server.aggregate_forward(&acts)
        })
        .map_err(err("aggregate_forward"))?;
    for env in logits {
        wire.send(tr, round, env)?;
    }
    let mut losses = Vec::with_capacity(k);
    for p in platforms.iter_mut() {
        let env = wire.recv(tr, round, p.node())?;
        let (grads, loss) = tr
            .time("core.platform.handle_logits", round, || p.handle_logits(&env))
            .map_err(err("handle_logits"))?;
        losses.push(loss);
        wire.send(tr, round, grads)?;
    }
    let grads = (0..k)
        .map(|_| wire.recv(tr, round, NodeId::Server))
        .collect::<Res<Vec<_>>>()?;
    let cuts = tr
        .time("core.server.aggregate_backward", round, || {
            server.aggregate_backward(&grads)
        })
        .map_err(err("aggregate_backward"))?;
    for env in cuts {
        wire.send(tr, round, env)?;
    }
    for p in platforms.iter_mut() {
        let env = wire.recv(tr, round, p.node())?;
        tr.time("core.platform.handle_cut_grads", round, || {
            p.handle_cut_grads(&env)
        })
        .map_err(err("handle_cut_grads"))?;
    }
    Ok(losses.iter().sum::<f32>() / losses.len().max(1) as f32)
}

type HierNet = ChaosTransport<MemoryTransport<HierTopology>>;

/// The fault-free path of `HierResilientTrainer`'s round: every hop is
/// send, flush, receive, verify; regions cross the backbone as one relay
/// batch per direction per step.
struct HierRound<'a, 'w> {
    chaos: &'a HierNet,
    topo: &'a HierTopology,
    wire: Wire<'w>,
}

impl HierRound<'_, '_> {
    fn flush(&self, tr: &mut Tracer, op: u64) {
        tr.time("simnet.chaos.flush", op, || self.chaos.flush());
    }

    fn verify(&self, tr: &mut Tracer, op: u64, env: &Envelope) -> Res<()> {
        if tr.time("simnet.checksum.verify", op, || env.verify_checksum()) {
            Ok(())
        } else {
            Err(format!("checksum mismatch on {} from {}", env.kind, env.src))
        }
    }

    fn deliver(&mut self, tr: &mut Tracer, op: u64, env: Envelope) -> Res<Envelope> {
        let sink = env.dst;
        self.wire.send(tr, op, env)?;
        self.flush(tr, op);
        let got = self.wire.recv(tr, op, sink)?;
        self.verify(tr, op, &got)?;
        Ok(got)
    }

    /// Per-relay envelopes up the backbone; returns them at the server in
    /// platform order.
    fn upstream(&mut self, tr: &mut Tracer, round: u64, held: Vec<Vec<Envelope>>) -> Res<Vec<Envelope>> {
        let mut out = Vec::new();
        for (r, inner) in held.into_iter().enumerate() {
            if inner.is_empty() {
                continue;
            }
            let batch = tr.time("core.relay.batch", round, || {
                relay::batch_upstream(r, round, &inner)
            });
            let got = self.deliver(tr, round, batch)?;
            out.extend(
                tr.time("core.relay.unbatch", round, || relay::unbatch(&got))
                    .map_err(err("unbatch"))?,
            );
        }
        out.sort_by_key(|e| e.src.platform_index());
        Ok(out)
    }

    /// Server envelopes down to their platforms; returns `(pid, envelope)`
    /// as received, in platform order.
    fn downstream(
        &mut self,
        tr: &mut Tracer,
        round: u64,
        envs: Vec<Envelope>,
    ) -> Res<Vec<(usize, Envelope)>> {
        let mut by_relay: Vec<Vec<Envelope>> = vec![Vec::new(); self.topo.regions()];
        for env in envs {
            let pid = env
                .dst
                .platform_index()
                .ok_or("server output not addressed to a platform")?;
            by_relay[self.topo.home_relay(pid)].push(env);
        }
        let mut out = Vec::new();
        for (r, inner) in by_relay.into_iter().enumerate() {
            if inner.is_empty() {
                continue;
            }
            let batch = tr.time("core.relay.batch", round, || {
                relay::batch_downstream(r, round, &inner)
            });
            let got = self.deliver(tr, round, batch)?;
            let unbatched = tr
                .time("core.relay.unbatch", round, || relay::unbatch(&got))
                .map_err(err("unbatch"))?;
            for inner in unbatched {
                let pid = inner
                    .dst
                    .platform_index()
                    .ok_or("relayed envelope not for a platform")?;
                let fwd = tr.time("core.relay.forward", round, || {
                    relay::forward_from_relay(r, &inner)
                });
                out.push((pid, self.deliver(tr, round, fwd)?));
            }
        }
        out.sort_by_key(|(pid, _)| *pid);
        Ok(out)
    }

    fn round(
        &mut self,
        tr: &mut Tracer,
        round: u64,
        platforms: &mut [Platform],
        server: &mut SplitServer,
    ) -> Res<f32> {
        let regions = self.topo.regions();
        tr.time("simnet.chaos.begin_round", round, || {
            self.chaos.begin_round(round)
        });
        for p in platforms.iter_mut() {
            let mut env = tr
                .time("core.platform.start_round", round, || p.start_round(round))
                .map_err(err("start_round"))?;
            env.dst = NodeId::Relay(self.topo.home_relay(p.id()));
            self.wire.send(tr, round, env)?;
        }
        self.flush(tr, round);
        let mut held: Vec<Vec<Envelope>> = vec![Vec::new(); regions];
        for (r, inbox) in held.iter_mut().enumerate() {
            while let Some(env) = self.wire.try_recv(tr, round, NodeId::Relay(r)) {
                self.verify(tr, round, &env)?;
                inbox.push(env);
            }
        }
        let acts = self.upstream(tr, round, held)?;
        let logits = tr
            .time("core.server.aggregate_forward", round, || {
                server.aggregate_forward(&acts)
            })
            .map_err(err("aggregate_forward"))?;
        let delivered = self.downstream(tr, round, logits)?;

        let mut losses = Vec::with_capacity(delivered.len());
        let mut held: Vec<Vec<Envelope>> = vec![Vec::new(); regions];
        for (pid, env) in delivered {
            let (mut grads, loss) = tr
                .time("core.platform.handle_logits", round, || {
                    platforms[pid].handle_logits(&env)
                })
                .map_err(err("handle_logits"))?;
            losses.push(loss);
            let r = self.topo.home_relay(pid);
            grads.dst = NodeId::Relay(r);
            held[r].push(self.deliver(tr, round, grads)?);
        }
        let grads = self.upstream(tr, round, held)?;
        let cuts = tr
            .time("core.server.aggregate_backward", round, || {
                server.aggregate_backward(&grads)
            })
            .map_err(err("aggregate_backward"))?;
        for (pid, env) in self.downstream(tr, round, cuts)? {
            tr.time("core.platform.handle_cut_grads", round, || {
                platforms[pid].handle_cut_grads(&env)
            })
            .map_err(err("handle_cut_grads"))?;
        }
        // The driver commits every survivor's state as its rejoin point.
        for p in platforms.iter_mut() {
            tr.time("core.platform.checkpoint", round, || black_box(p.checkpoint()));
        }
        Ok(losses.iter().sum::<f32>() / losses.len().max(1) as f32)
    }
}

/// How a workload's rounds travel: straight over the star, or through
/// the relays.
enum Route<'a, 'w> {
    Star(Wire<'w>),
    Hier(HierRound<'a, 'w>),
}

impl<'w> Route<'_, 'w> {
    fn wire(&mut self) -> &mut Wire<'w> {
        match self {
            Route::Star(wire) => wire,
            Route::Hier(hier) => &mut hier.wire,
        }
    }

    fn round(
        &mut self,
        tr: &mut Tracer,
        round: u64,
        platforms: &mut [Platform],
        server: &mut SplitServer,
    ) -> Res<f32> {
        match self {
            Route::Star(wire) => star_round(tr, round, platforms, server, wire),
            Route::Hier(hier) => hier.round(tr, round, platforms, server),
        }
    }
}

/// What the bench-driven training loop produced.
struct BenchDriven {
    losses: Vec<f32>,
    wall_s: f64,
    /// Envelopes of the last round.
    captured: Vec<Envelope>,
    /// Plan and scratch counters at the half-way round.
    warm: (plan::PlanStats, scratch::ScratchStats),
}

/// Rebuilds the actors and replays the workload's rounds and the closing
/// evaluation call by call.
fn bench_driven_train(tr: &mut Tracer, spec: &TrainSpec, seed: u64) -> Res<BenchDriven> {
    let rounds = spec.rounds;
    let (shards, test) = spec.data(seed)?;
    let (mut platforms, mut server) = build_actors(spec, seed, shards)?;
    let config = spec.config(seed);
    let star;
    let chaos;
    let topo = HierTopology::new(2, PLATFORMS / 2);
    let mut route = if spec.hier {
        chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(seed));
        Route::Hier(HierRound {
            chaos: &chaos,
            topo: &topo,
            wire: Wire {
                net: &chaos,
                capture: None,
            },
        })
    } else {
        star = MemoryTransport::new(StarTopology::new(PLATFORMS));
        Route::Star(Wire {
            net: &star,
            capture: None,
        })
    };

    let mut losses = Vec::with_capacity(rounds);
    let mut warm = (plan::stats(), scratch::stats());
    let start = Instant::now();
    for round in 0..rounds {
        let op = round as u64;
        if round == rounds / 2 {
            warm = (plan::stats(), scratch::stats());
        }
        route.wire().capture = (round + 1 == rounds).then(Vec::new);
        let root = tr.enter("round", op);
        let lr = config.lr.lr_at(round);
        tr.time("core.set_lr", op, || {
            for p in platforms.iter_mut() {
                p.set_lr(lr);
            }
            server.set_lr(lr);
        });
        let loss = route.round(tr, op, &mut platforms, &mut server)?;
        tr.exit(root);
        losses.push(loss);
    }
    // The drivers close `run()` with one evaluation of every platform's
    // deployed model; do the same so both sides time the same work.
    tr.time("core.closing_eval", rounds as u64, || -> Res<()> {
        let idx: Vec<usize> = (0..test.len()).collect();
        for p in platforms.iter_mut() {
            let (x, y) = test.batch(&idx).map_err(err("test batch"))?;
            let acts = p.infer_l1(&x).map_err(err("infer_l1"))?;
            let logits = server.infer(&acts).map_err(err("infer"))?;
            black_box(accuracy(&logits, &y).map_err(err("accuracy"))?);
        }
        Ok(())
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    let captured = route.wire().capture.take().unwrap_or_default();
    Ok(BenchDriven {
        losses,
        wall_s,
        captured,
        warm,
    })
}

/// Forward, backward and optimiser step of twin models built from the
/// same seed, on the workload's batch shapes; loss and sampler alone.
fn nn_and_data_layers(out: &mut TraceOutcome, spec: &TrainSpec, seed: u64) -> Res<()> {
    let (shards, _) = spec.data(seed)?;
    let mut split = build_split(&spec.arch, SplitPoint::Default, seed, 1).map_err(err("build_split"))?;
    let mut l1 = split.clients.pop().ok_or("no client model")?;
    let mut srv = split.server;
    let config = spec.config(seed);
    let mut opt_l1 = OptimizerKind::Sgd.build(config.momentum);
    let mut opt_srv = OptimizerKind::Sgd.build(config.momentum);
    opt_l1.set_learning_rate(config.lr.lr_at(0));
    opt_srv.set_learning_rate(config.lr.lr_at(0));

    let mut sampler = BatchSampler::new(shards[0].len(), spec.batch, seed);
    out.set(
        "data.sampler.next_batch_us",
        bench_ns(40, || {
            black_box(sampler.next_from(&shards[0]));
        }) / 1e3,
    );
    let (x, y) = sampler.next_from(&shards[0]);
    let acts = l1.forward(&x, Mode::Train).map_err(err("l1 forward"))?;
    // The server sees every platform's batch at once.
    let union = Tensor::concat0(&vec![acts.clone(); PLATFORMS]).map_err(err("concat"))?;
    let labels: Vec<usize> = y.iter().copied().cycle().take(y.len() * PLATFORMS).collect();
    let logits = srv.forward(&union, Mode::Train).map_err(err("server forward"))?;
    let loss = softmax_cross_entropy(&logits, &labels).map_err(err("loss"))?;
    let cut = srv.backward(&loss.grad).map_err(err("server backward"))?;
    opt_srv.step_and_zero(&mut srv);
    let cut = cut.slice0(0, spec.batch).map_err(err("slice"))?;

    out.set(
        "nn.l1.forward_ms",
        bench_ns(60, || {
            black_box(l1.forward(&x, Mode::Train).expect("l1 forward"));
        }) / 1e6,
    );
    out.set(
        "nn.server.forward_ms",
        bench_ns(60, || {
            black_box(srv.forward(&union, Mode::Train).expect("server forward"));
        }) / 1e6,
    );
    // A backward needs the forward before it; time the pair and the
    // forward alone is already known.
    let l1_pair = bench_ns(60, || {
        l1.forward(&x, Mode::Train).expect("l1 forward");
        black_box(l1.backward(&cut).expect("l1 backward"));
        opt_l1.step_and_zero(&mut l1);
    }) / 1e6;
    let srv_pair = bench_ns(60, || {
        srv.forward(&union, Mode::Train).expect("server forward");
        black_box(srv.backward(&loss.grad).expect("server backward"));
        opt_srv.step_and_zero(&mut srv);
    }) / 1e6;
    out.set(
        "nn.l1.backward_step_ms",
        (l1_pair - out.metrics["nn.l1.forward_ms"]).max(0.0),
    );
    out.set(
        "nn.server.backward_step_ms",
        (srv_pair - out.metrics["nn.server.forward_ms"]).max(0.0),
    );
    let own = logits.slice0(0, spec.batch).map_err(err("slice"))?;
    out.set(
        "nn.loss.softmax_xent_us",
        bench_ns(20, || {
            black_box(softmax_cross_entropy(&own, &y).expect("loss"));
        }) / 1e3,
    );
    Ok(())
}

/// The traced run of a training workload.
pub fn traced_train(
    workload: &str,
    spec: &TrainSpec,
    seed: u64,
    out_dir: &std::path::Path,
) -> Res<TraceOutcome> {
    let mut out = TraceOutcome::default();
    let rounds = spec.rounds;
    let ops = rounds as f64;
    out.attempted = rounds as u64;

    // The reference: the public entry point, tracing off.
    let reference = drive_train(spec, seed)?;
    let stats = &reference.history.stats;
    out.set("simnet.msgs_per_op", stats.messages as f64 / ops);
    out.set("simnet.wire_bytes_per_op", stats.total_bytes as f64 / ops);
    out.set("simnet.logical_bytes_per_op", stats.logical_bytes as f64 / ops);
    out.set("simnet.sim_makespan_s", stats.makespan_s);
    out.set("tensor.pool.threads", pool::num_threads() as f64);

    // The same rounds, call by call.
    let mut tr = Tracer::new();
    let driven = bench_driven_train(&mut tr, spec, seed)?;
    tr.write_jsonl(&out_dir.join(format!("trace_{workload}.jsonl")))?;
    let mismatched = reference
        .history
        .records
        .iter()
        .zip(&driven.losses)
        .filter(|(r, l)| r.mean_loss.to_bits() != l.to_bits())
        .count();
    if mismatched > 0 || reference.history.records.len() != driven.losses.len() {
        out.complain(format!(
            "{mismatched} of {rounds} bench-driven round losses differ in bits from the driver's"
        ));
    }
    // Per round, over every round but the cold first.
    let per_round_ms = |name: &str| tr.total(name, 1).0 as f64 / 1e6 / (ops - 1.0).max(1.0);
    out.set(
        "core.platform.start_round_ms",
        per_round_ms("core.platform.start_round"),
    );
    out.set(
        "core.server.aggregate_forward_ms",
        per_round_ms("core.server.aggregate_forward"),
    );
    out.set(
        "core.platform.handle_logits_ms",
        per_round_ms("core.platform.handle_logits"),
    );
    out.set(
        "core.server.aggregate_backward_ms",
        per_round_ms("core.server.aggregate_backward"),
    );
    out.set(
        "core.platform.handle_cut_grads_ms",
        per_round_ms("core.platform.handle_cut_grads"),
    );
    if spec.hier {
        out.set(
            "core.platform.checkpoint_ms",
            per_round_ms("core.platform.checkpoint"),
        );
        out.set("core.relay.batch_ms", per_round_ms("core.relay.batch"));
        out.set("core.relay.unbatch_ms", per_round_ms("core.relay.unbatch"));
    }
    out.set(
        "simnet.transport.send_us",
        tr.mean_ns("simnet.transport.send", 1) / 1e3,
    );
    out.set(
        "simnet.transport.recv_us",
        tr.mean_ns("simnet.transport.recv", 1) / 1e3,
    );
    let coverage = tr.coverage("round");
    out.set("core.round.coverage", coverage);
    if coverage < 0.95 {
        out.complain(format!("spans cover {coverage:.3} of the round, below 0.95"));
    }
    set_warm_counters(&mut out, driven.warm, (rounds - rounds / 2) as f64);

    // Every pass compared with the driver has a reference pass on either
    // side (see `around`).
    let ref1 = drive_train(spec, seed)?.run_s;
    out.set(
        "core.driver_overhead",
        around(reference.run_s, ref1) / driven.wall_s - 1.0,
    );

    // The driver with the program's own spans on: kernel time per round,
    // and what those spans cost.
    let (traced, spans, _) = with_program_telemetry(|| drive_train(spec, seed));
    let traced = traced?;
    let ref2 = drive_train(spec, seed)?.run_s;
    set_kernel_metrics(&mut out, &kernel_spans(&spans, ops));
    out.set(
        "telemetry.trace_overhead",
        1.0 - around(ref1, ref2) / traced.run_s,
    );

    // And with the pool held to one thread.
    let single = single_threaded(|| drive_train(spec, seed))?;
    let ref3 = drive_train(spec, seed)?.run_s;
    out.set("tensor.pool.scaling", single.run_s / around(ref2, ref3));
    for (what, run) in [("traced", &traced), ("single-thread", &single)] {
        if run.digest != reference.digest {
            out.complain(format!("{what} run ended on different weights"));
        }
    }

    // One warm round's tensors and envelopes through the wire layers.
    let tensors = driven
        .captured
        .iter()
        .filter(|e| e.kind != MessageKind::RelayBatch)
        .map(|e| Tensor::from_bytes(e.payload.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("captured payload"))?;
    replay_wire(&mut out, &tensors, &driven.captured, spec.codec);
    nn_and_data_layers(&mut out, spec, seed)?;
    Ok(out)
}

// ----- serve_vgg ------------------------------------------------------------

/// One request at a time through every layer of the serving path, then
/// eight at a time; returns the per-request sum of layer time at batch 8.
fn bench_driven_serve(
    tr: &mut Tracer,
    out: &mut TraceOutcome,
    seed: u64,
    shard: &InMemoryDataset,
    queries: &[Tensor],
) -> Res<f64> {
    let cfg = serve_config();
    let (mut platform, mut server) = serve_actors(seed, shard)?;
    let net = MemoryTransport::new(StarTopology::new(1));
    let mut wire = Wire {
        net: &net,
        capture: None,
    };
    let node = platform.node();
    let mut batcher: DynamicBatcher<(u64, Tensor)> =
        DynamicBatcher::new(cfg.max_batch, cfg.max_wait_s, cfg.queue_capacity);
    let mut warm = (plan::stats(), scratch::stats());
    let mut tensors = Vec::new();

    // Closed loop, one request in flight, batch 1, then batches of 8
    // (`op` keeps counting so the two passes stay apart in the trace).
    for (pass, group) in [(0usize, 1usize), (1, cfg.max_batch)] {
        for (chunk_no, chunk) in queries.chunks(group).enumerate() {
            let op = (pass * queries.len() + chunk_no * group) as u64;
            if pass == 0 && chunk_no == queries.len() / 2 {
                warm = (plan::stats(), scratch::stats());
            }
            let last = pass == 0 && chunk_no + 1 == queries.len();
            wire.capture = last.then(Vec::new);
            let root = tr.enter(if group == 1 { "request" } else { "batch8" }, op);
            for (i, q) in chunk.iter().enumerate() {
                let id = op + i as u64;
                let acts = tr
                    .time("core.platform.infer_l1", op, || platform.infer_l1(q))
                    .map_err(err("infer_l1"))?;
                let env = tr.time("serve.wire.encode_request", op, || {
                    encode_request(node, id, 0.0, f64::INFINITY, &acts, cfg.codec)
                });
                wire.send(tr, op, env)?;
                let env = wire.recv(tr, op, NodeId::Server)?;
                let req = tr
                    .time("serve.wire.decode_request", op, || decode_request(&env))
                    .map_err(err("decode_request"))?;
                if last {
                    tensors.push(req.activations.clone());
                }
                tr.time("serve.batcher.offer", op, || {
                    batcher.offer((req.id, req.activations), 0.0, f64::INFINITY)
                });
            }
            let entries = tr.time("serve.batcher.take", op, || batcher.take_batch());
            let batch = tr
                .time("serve.batch.assemble", op, || {
                    let parts: Vec<Tensor> = entries.iter().map(|e| e.item.1.clone()).collect();
                    Tensor::concat0(&parts)
                })
                .map_err(err("concat0"))?;
            let infer = if group == 1 {
                "core.server.infer_b1"
            } else {
                "core.server.infer_b8"
            };
            let logits = tr
                .time(infer, op, || server.infer(&batch))
                .map_err(err("infer"))?;
            for (row, entry) in entries.iter().enumerate() {
                let slice = tr
                    .time("serve.batch.slice", op, || logits.slice0(row, 1))
                    .map_err(err("slice0"))?;
                if last {
                    tensors.push(slice.clone());
                }
                let env = tr.time("serve.wire.encode_response", op, || {
                    encode_response(
                        node,
                        entry.item.0,
                        0.0,
                        0.0,
                        InferStatus::Ok,
                        Some(&slice),
                        cfg.codec,
                    )
                });
                wire.send(tr, op, env)?;
                let env = wire.recv(tr, op, node)?;
                let resp = tr
                    .time("serve.wire.decode_response", op, || decode_response(&env))
                    .map_err(err("decode_response"))?;
                if resp.status != InferStatus::Ok || resp.logits.is_none() {
                    out.complain(format!("bench-driven request {} not answered Ok", resp.id));
                }
            }
            tr.exit(root);
            if let Some(kept) = wire.capture.take() {
                replay_wire(out, &tensors, &kept, cfg.codec);
            }
        }
    }
    set_warm_counters(out, warm, (queries.len() - queries.len() / 2) as f64);
    let b8 = tr.total("batch8", 0).0 as f64 / 1e9 / queries.len() as f64;
    Ok(b8)
}

/// Sets the serving-path metrics both serving workloads share.
fn set_serve_path_metrics(out: &mut TraceOutcome, tr: &Tracer) {
    let us = |name: &str| tr.mean_ns(name, 0) / 1e3;
    out.set("core.platform.infer_l1_us", us("core.platform.infer_l1"));
    out.set("serve.wire.encode_request_us", us("serve.wire.encode_request"));
    out.set("serve.wire.decode_request_us", us("serve.wire.decode_request"));
    out.set("serve.wire.encode_response_us", us("serve.wire.encode_response"));
    out.set("serve.wire.decode_response_us", us("serve.wire.decode_response"));
    out.set(
        "serve.batcher.offer_take_us",
        us("serve.batcher.offer") + us("serve.batcher.take"),
    );
    out.set("simnet.transport.send_us", us("simnet.transport.send"));
    out.set("simnet.transport.recv_us", us("simnet.transport.recv"));
}

/// The traced run of `serve_vgg`.
pub fn traced_serve(seed: u64, out_dir: &std::path::Path) -> Res<TraceOutcome> {
    let mut out = TraceOutcome::default();
    let (data, queries) = serve_queries(seed, SERVE_SESSION_REQUESTS)?;
    let shard = data.subset(&(0..16).collect::<Vec<_>>()).map_err(err("shard"))?;
    let n = queries.len() as f64;
    out.attempted = queries.len() as u64;
    out.set("tensor.pool.threads", pool::num_threads() as f64);

    // The reference: sessions through the public entry point.
    let session = || serve_session(seed, &shard, &queries);
    let (ref0, reference) = three(session)?;
    let r = &reference.report;
    out.failed += (r.offered - r.completed) as u64;
    out.set("simnet.msgs_per_op", reference.stats.messages as f64 / n);
    out.set("simnet.wire_bytes_per_op", reference.stats.total_bytes as f64 / n);
    out.set(
        "simnet.logical_bytes_per_op",
        reference.stats.logical_bytes as f64 / n,
    );
    out.set("simnet.sim_makespan_s", reference.stats.makespan_s);
    if let Some(l) = &r.latency {
        out.set("serve.sim_p50_ms", l.p50_s * 1e3);
        out.set("serve.sim_p99_ms", l.p99_s * 1e3);
    }

    let mut tr = Tracer::new();
    let b8_per_request_s = bench_driven_serve(&mut tr, &mut out, seed, &shard, &queries)?;
    tr.write_jsonl(&out_dir.join("trace_serve_vgg.jsonl"))?;
    set_serve_path_metrics(&mut out, &tr);
    let latencies: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    out.set("serve.path.latency_p50_us", stats::quantile(&latencies, 0.50));
    out.set("serve.path.latency_p99_us", stats::quantile(&latencies, 0.99));
    out.set(
        "core.server.infer_b1_us",
        tr.mean_ns("core.server.infer_b1", 0) / 1e3,
    );
    out.set(
        "core.server.infer_b8_us",
        tr.mean_ns("core.server.infer_b8", 0) / 1e3,
    );
    out.set(
        "serve.batch.assemble_us",
        tr.mean_ns("serve.batch.assemble", 0) / 1e3,
    );
    out.set("core.round.coverage", tr.coverage("request"));
    let (ref1, _) = three(session)?;
    out.set(
        "serve.runtime.overhead",
        around(ref0, ref1) / n / b8_per_request_s - 1.0,
    );

    let (traced, spans, metrics) = with_program_telemetry(|| three(session));
    let (traced_wall, _) = traced?;
    let (ref2, _) = three(session)?;
    set_kernel_metrics(&mut out, &kernel_spans(&spans, 3.0 * n));
    out.set(
        "serve.batch_size_mean",
        histogram_mean(&metrics, "serve.batch_size"),
    );
    out.set("telemetry.trace_overhead", 1.0 - around(ref1, ref2) / traced_wall);

    let (single_wall, _) = single_threaded(|| three(session))?;
    let (ref3, _) = three(session)?;
    out.set("tensor.pool.scaling", single_wall / around(ref2, ref3));
    Ok(out)
}

// ----- fleet_mlp ------------------------------------------------------------

/// Requests the bench-driven fleet path handles per tenant.
const FLEET_TRACED_PER_TENANT: usize = 2000;

/// Every layer `run_fleet` calls on a fault-free request, in its order:
/// platform → router (admit, pin, route) → replica (offer, batch, serve)
/// → platform. Returns the answered logits by request id.
fn bench_driven_fleet(tr: &mut Tracer, out: &mut TraceOutcome, seed: u64) -> Res<BTreeMap<u64, Tensor>> {
    let cfg = fleet_config(2);
    let codec = cfg.serve.codec;
    let arch = Architecture::Mlp(MlpConfig::small(
        medsplit_fleet::FEATURES,
        medsplit_fleet::CLASSES,
    ));
    let model = build_split(&arch, SplitPoint::Default, seed, cfg.tenants).map_err(err("build_split"))?;
    let mut platforms = Vec::with_capacity(cfg.tenants);
    for (id, client) in model.clients.into_iter().enumerate() {
        let data = medsplit_data::SyntheticTabular::new(
            medsplit_fleet::CLASSES,
            medsplit_fleet::FEATURES,
            seed ^ id as u64,
        )
        .generate(16)
        .map_err(err("tenant data"))?;
        platforms.push(Platform::new(id, client, data, 4, 0.0, seed));
    }
    let bank_arch = arch.clone();
    let bank = ModelBank::new(
        Box::new(move || {
            build_split(&bank_arch, SplitPoint::Default, seed, 1)
                .expect("architecture built once already")
                .server
        }),
        cfg.weight_versions,
    )
    .map_err(err("model bank"))?;
    let net = ChaosTransport::new(
        MemoryTransport::new(FleetTopology::new(cfg.tenants, cfg.replicas)),
        FaultPlan::new(seed),
    );
    let mut wire = Wire {
        net: &net,
        capture: None,
    };
    let mut router = Router::new(
        cfg.replicas,
        cfg.vnodes,
        cfg.tenant_quota,
        cfg.weight_versions as u32,
    );
    let mut replicas: Vec<Replica> = (0..cfg.replicas).map(|r| Replica::new(r, &cfg.serve)).collect();
    let mut answered = BTreeMap::new();

    // Serves one replica's due batch and answers its requests.
    let mut serve_batch = |tr: &mut Tracer,
                           wire: &mut Wire,
                           router: &mut Router,
                           replicas: &mut [Replica],
                           r: usize,
                           op: u64|
     -> Res<()> {
        let root = tr.enter("fleet.batch", op);
        let entries = tr.time("serve.batcher.take", op, || replicas[r].take_batch());
        let (_, served) = tr
            .time("fleet.replica.serve", op, || {
                replicas[r].serve(&bank, entries, 0.0, &cfg.serve)
            })
            .map_err(err("replica serve"))?;
        for s in served {
            let env = tr.time("serve.wire.encode_response", op, || {
                encode_response_from(
                    NodeId::Replica(r),
                    NodeId::Platform(s.platform),
                    s.id,
                    s.submit_s,
                    0.0,
                    if s.ok {
                        InferStatus::Ok
                    } else {
                        InferStatus::TimedOut
                    },
                    s.logits.as_ref(),
                    codec,
                )
            });
            wire.send(tr, op, env)?;
            tr.time("fleet.router.complete", op, || router.complete(s.id));
            let env = wire.recv(tr, op, NodeId::Platform(s.platform))?;
            let resp = tr
                .time("serve.wire.decode_response", op, || decode_response(&env))
                .map_err(err("decode_response"))?;
            if let Some(logits) = resp.logits {
                answered.insert(resp.id, logits);
            }
        }
        tr.exit(root);
        Ok(())
    };

    let mut rngs: Vec<_> = (0..cfg.tenants)
        .map(|t| rng_from_seed(0x5eed ^ (t as u64).wrapping_mul(0x9e37_79b9)))
        .collect();
    let mut tensors = Vec::new();
    let mut warm = (plan::stats(), scratch::stats());
    for seq in 0..FLEET_TRACED_PER_TENANT {
        if seq == FLEET_TRACED_PER_TENANT / 2 {
            warm = (plan::stats(), scratch::stats());
        }
        for tenant in 0..cfg.tenants {
            let id = ((tenant as u64) << 32) | seq as u64;
            let op = (seq * cfg.tenants + tenant) as u64;
            let last = seq + 1 == FLEET_TRACED_PER_TENANT && tenant + 1 == cfg.tenants;
            wire.capture = last.then(Vec::new);
            let query = Tensor::rand_uniform([1, medsplit_fleet::FEATURES], -1.0, 1.0, &mut rngs[tenant]);
            let submit_s = seq as f64 / cfg.serve.offered_rps;
            // Batches flush on age as well as size, as the event loop
            // flushes them: what waited `max_wait_s` goes before this
            // request is offered. Every frame is the same size, so link
            // delays shift all arrivals alike and submit times decide.
            for r in 0..replicas.len() {
                while replicas[r].ready_at().is_some_and(|ready| ready <= submit_s) {
                    serve_batch(tr, &mut wire, &mut router, &mut replicas, r, op)?;
                }
            }
            let root = tr.enter("fleet.request", op);
            let acts = tr
                .time("core.platform.infer_l1", op, || {
                    platforms[tenant].infer_l1(&query)
                })
                .map_err(err("infer_l1"))?;
            if last {
                tensors.push(acts.clone());
            }
            let req = RoutedRequest {
                id,
                submit_s,
                deadline_s: f64::INFINITY,
                tenant: tenant as u64,
                session: (seq % cfg.sessions_per_tenant) as u64,
                version: u32::MAX,
                activations: acts,
            };
            let node = NodeId::Platform(tenant);
            let env = tr.time("serve.wire.encode_request", op, || {
                encode_routed_request(node, NodeId::Server, &req, codec)
            });
            wire.send(tr, op, env)?;
            let env = wire.recv(tr, op, NodeId::Server)?;
            let mut req = tr
                .time("serve.wire.decode_request", op, || decode_routed_request(&env))
                .map_err(err("decode_routed_request"))?;
            let admitted = tr.time("fleet.router.admit", op, || {
                let ok = router.try_admit(req.tenant);
                req.version = router.pin_version(SessionKey {
                    tenant: req.tenant,
                    session: req.session,
                });
                ok
            });
            if !admitted {
                return Err(format!("request {id} throttled on an idle fleet"));
            }
            let r = tr
                .time("fleet.ring.route", op, || {
                    router.ring().route(req.tenant, req.session)
                })
                .ok_or("no active replica")?;
            let env = tr.time("serve.wire.encode_request", op, || {
                encode_routed_request(NodeId::Server, NodeId::Replica(r), &req, codec)
            });
            wire.send(tr, op, env)?;
            wire.recv(tr, op, NodeId::Replica(r))?;
            tr.time("fleet.router.dispatch", op, || {
                router.record_dispatch(InFlight {
                    platform: tenant,
                    replica: r,
                    attempt: 0,
                    req: req.clone(),
                });
                black_box(router.in_flight(id).is_some())
            });
            tr.time("serve.batcher.offer", op, || {
                replicas[r].offer(
                    FleetPending {
                        platform: tenant,
                        req,
                    },
                    submit_s,
                    f64::INFINITY,
                )
            });
            tr.exit(root);
            if replicas[r].size_due() {
                serve_batch(tr, &mut wire, &mut router, &mut replicas, r, op)?;
            }
            if let Some(kept) = wire.capture.take() {
                replay_wire(out, &tensors, &kept, codec);
            }
        }
    }
    for r in 0..replicas.len() {
        while replicas[r].queued() > 0 {
            serve_batch(tr, &mut wire, &mut router, &mut replicas, r, u64::MAX)?;
        }
    }
    set_warm_counters(
        out,
        warm,
        (cfg.tenants * (FLEET_TRACED_PER_TENANT - FLEET_TRACED_PER_TENANT / 2)) as f64,
    );
    let sessions: Vec<_> = replicas
        .iter_mut()
        .flat_map(Replica::export_all_sessions)
        .collect();
    out.set(
        "fleet.session.codec_us",
        bench_ns(20, || {
            black_box(decode_sessions(&encode_sessions(black_box(&sessions))).expect("own blob decodes"));
        }) / 1e3,
    );
    Ok(answered)
}

/// The traced run of `fleet_mlp`.
pub fn traced_fleet(seed: u64, out_dir: &std::path::Path) -> Res<TraceOutcome> {
    let mut out = TraceOutcome::default();
    let cfg = fleet_config(2);
    let n = (cfg.tenants * FLEET_REQUESTS_PER_TENANT) as f64;
    out.attempted = n as u64;
    out.set("tensor.pool.threads", pool::num_threads() as f64);

    let session = || fleet_session(&cfg, FLEET_REQUESTS_PER_TENANT, seed);
    let (ref0, reference) = three(session)?;
    out.failed += fleet_failures(&reference);
    out.set("simnet.msgs_per_op", reference.stats.messages as f64 / n);
    out.set("simnet.wire_bytes_per_op", reference.stats.total_bytes as f64 / n);
    out.set(
        "simnet.logical_bytes_per_op",
        reference.stats.logical_bytes as f64 / n,
    );
    out.set("simnet.sim_makespan_s", reference.stats.makespan_s);
    if let Some(l) = &reference.report.latency {
        out.set("serve.sim_p50_ms", l.p50_s * 1e3);
        out.set("serve.sim_p99_ms", l.p99_s * 1e3);
    }
    out.set("fleet.redispatched", reference.redispatched as f64);
    out.set("fleet.handoffs", reference.handoffs as f64);

    // Does the ring spread the three tenants' sessions over both replicas?
    let served: Vec<u64> = reference.per_replica.iter().map(|r| r.served).collect();
    let total: u64 = served.iter().sum();
    let share_max = served.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64;
    out.set("fleet.replica.share_max", share_max);
    out.notes.push(format!(
        "requests served per replica at replicas = 2: {served:?} (largest share {share_max:.4})"
    ));
    let (_, one) = fleet_session(&fleet_config(1), FLEET_REQUESTS_PER_TENANT, seed)?;
    out.notes.push(format!(
        "logits digest {:016x} at replicas = 1, {:016x} at replicas = 2",
        one.logits_digest, reference.logits_digest
    ));
    if one.logits_digest != reference.logits_digest {
        out.complain("logits digest differs between replicas = 1 and replicas = 2".into());
    }

    let mut tr = Tracer::new();
    let answered = bench_driven_fleet(&mut tr, &mut out, seed)?;
    tr.write_jsonl(&out_dir.join("trace_fleet_mlp.jsonl"))?;
    let m = (cfg.tenants * FLEET_TRACED_PER_TENANT) as f64;
    let (_, short) = fleet_session(&cfg, FLEET_TRACED_PER_TENANT, seed)?;
    let differing = short
        .records
        .iter()
        .filter(|rec| match (&rec.logits, answered.get(&rec.id)) {
            (Some(a), Some(b)) => a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .any(|(x, y)| x.to_bits() != y.to_bits()),
            _ => true,
        })
        .count();
    if differing > 0 {
        out.complain(format!(
            "{differing} bench-driven fleet answers differ in bits from run_fleet's"
        ));
    }
    set_serve_path_metrics(&mut out, &tr);
    // The fleet frames each request twice: platform to router, router to
    // replica.
    out.set(
        "serve.wire.encode_request_us",
        2.0 * out.metrics["serve.wire.encode_request_us"],
    );
    out.set("fleet.ring.route_ns", tr.mean_ns("fleet.ring.route", 0));
    out.set(
        "fleet.router.admit_complete_ns",
        tr.mean_ns("fleet.router.admit", 0)
            + tr.mean_ns("fleet.router.dispatch", 0)
            + tr.mean_ns("fleet.router.complete", 0),
    );
    out.set(
        "fleet.replica.serve_us_per_req",
        tr.total("fleet.replica.serve", 0).0 as f64 / 1e3 / m,
    );
    let layers_s = (tr.total("fleet.request", 0).0 + tr.total("fleet.batch", 0).0) as f64 / 1e9 / m;
    let (ref1, _) = three(session)?;
    out.set("fleet.sim.overhead", around(ref0, ref1) / n / layers_s - 1.0);
    let covered = tr.coverage("fleet.request") * tr.total("fleet.request", 0).0 as f64
        + tr.coverage("fleet.batch") * tr.total("fleet.batch", 0).0 as f64;
    out.set("core.round.coverage", covered / (layers_s * 1e9 * m));

    let (traced, spans, metrics) = with_program_telemetry(|| three(session));
    let (traced_wall, _) = traced?;
    let (ref2, _) = three(session)?;
    set_kernel_metrics(&mut out, &kernel_spans(&spans, 3.0 * n));
    out.set(
        "serve.batch_size_mean",
        histogram_mean(&metrics, "fleet.batch_size"),
    );
    out.set("telemetry.trace_overhead", 1.0 - around(ref1, ref2) / traced_wall);

    let (single_wall, _) = single_threaded(|| three(session))?;
    let (ref3, _) = three(session)?;
    out.set("tensor.pool.scaling", single_wall / around(ref2, ref3));
    Ok(out)
}
