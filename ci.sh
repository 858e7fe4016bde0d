#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), the full
# workspace test suite, and the lab-orchestrated experiment gates.
# Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> env knobs: named in the code == named in the docs"
# A knob cannot outlive its code or hide from the docs: every
# MEDSPLIT_* name under crates/*/src must appear in README.md or
# DESIGN.md, and the docs may name none the code no longer has.
knob_drift="$(comm -3 \
    <(grep -rohE 'MEDSPLIT_[A-Z_]+' crates/*/src | sort -u) \
    <(grep -ohE 'MEDSPLIT_[A-Z_]+' README.md DESIGN.md | sort -u))"
if [ -n "$knob_drift" ]; then
    echo "ci.sh: MEDSPLIT_* names differ (left: code only, right: docs only):" >&2
    echo "$knob_drift" >&2
    exit 1
fi

echo "==> one of each: one FNV-1a, one JSON string escaper"
# Every digest and every JSON document goes through one implementation:
# medsplit_tensor::fnv1a and medsplit_telemetry::json. A second FNV
# offset basis (in any underscore spelling) or a second function that
# writes the escaped quote `\"` under crates/*/src fails here. The
# golden witnesses under tests/ and the frozen benchmark/ keep their own
# copies on purpose and are not scanned.
fnv_hits="$(find crates/*/src -name '*.rs' -exec sh -c \
    'tr -d _ < "$1" | grep -oi cbf29ce484222325 | sed "s|^|$1: |"' _ {} \;)"
escaper_hits="$(grep -rnF '"\\\""' crates/*/src || true)"
if [ "$(grep -c . <<<"$fnv_hits")" -ne 1 ] || [ "$(grep -c . <<<"$escaper_hits")" -ne 1 ]; then
    echo "ci.sh: want exactly one FNV offset basis and one JSON escaper under crates/*/src, found:" >&2
    echo "$fnv_hits" >&2
    echo "$escaper_hits" >&2
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> decoder suites again under --release"
# Integer overflow panics in debug and wraps silently in release, so a
# length or dims field the decoders fail to check shows differently in
# the two builds: the wire-path suites (property tests included) and the
# allocation-bound test run in both.
cargo test -q --release --offline -p medsplit-tensor -p medsplit-simnet -p medsplit-core
cargo test -q --release --offline --test hostile_bytes

echo "==> spatial kernels again under --release"
# The conv lowering indexes a zero-bordered copy of each image and the
# pools clamp their windows once per row, with no bounds test per
# element: an index slip is a slice panic in debug and a wrong value in
# release, so both builds must be seen. The naive-reference oracle
# (crates/tensor/tests/spatial_oracle.rs) already ran in release with
# the medsplit-tensor suites above; the golden digests follow.
cargo test -q --release --offline --test spatial_golden

echo "==> layer passes again under --release"
# BatchNorm walks eight features' planes side by side and the broadcast
# ops walk the output in block-aligned runs: a lane or phase index one
# off reads a wrong value in release and panics in debug. The oracle
# against the one-feature loops and the golden digests run in both.
cargo test -q --release --offline -p medsplit-nn --test norm_oracle
cargo test -q --release --offline --test layer_golden

echo "==> miri (unsafe microkernel + simd + scratch modules)"
# Miri (or cargo-careful as a fallback) over the unsafe kernel modules'
# unit tests. Both need rustup components this offline image may lack,
# so the job is availability-gated rather than required. What it would
# cover: 58 `unsafe` occurrences under crates/ (grep -rw unsafe
# --include=*.rs), all in crates/tensor.
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -q -p medsplit-tensor --offline \
        --lib -- microkernel:: simd:: scratch::
elif cargo careful --version >/dev/null 2>&1; then
    cargo careful test -q -p medsplit-tensor --offline --lib
else
    echo "    (skipped: neither cargo-miri nor cargo-careful is installed)"
fi

echo "==> frozen benchmark still builds against the workspace"
# benchmark/ is its own package calling the public entry points; a core
# API change that breaks it must fail here, not in the pipeline.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> lab ci --smoke (manifest-declared experiment gates)"
# The lab replaces the old hand-written smoke stanzas: every
# experiments/*.lab.toml with `ci = true` runs here.
#
#   kernels_ab.lab.toml  — the scalar-vs-auto ISA A/B, declared as an
#                          `invariant_across = ["isa"]` gate on both the
#                          kernel digest and the plan-cache serving
#                          digest (was the mktemp/cmp stanza).
#   smoke.lab.toml       — the split-training matrix (fault × codec ×
#                          threads) gated against baselines/smoke.json,
#                          with thread-invariance declared on accuracy,
#                          bytes, messages, and makespan.
#   bins_smoke.lab.toml  — trace_report / resilience_bench / fleet_bench
#                          smokes (each still runs its own in-process
#                          asserts) pinned against baselines/bins_smoke.json.
#   hierarchy_chaos.lab.toml — relay-hierarchy training under relay
#                          crashes and region partitions, gated against
#                          baselines/hierarchy_chaos.json with the
#                          failover counters declared thread-invariant.
#
# `lab ci` additionally executes every manifest twice and fails unless
# the metrics digests are bit-identical — the determinism witness.
cargo run -q --release --offline -p medsplit-bench --bin lab -- ci --smoke

echo "==> lab gate negative test (a perturbed baseline must fail)"
# The regression gate is only trustworthy if it actually trips: perturb
# one byte-count in the committed baseline and assert `lab gate` exits
# nonzero against it.
perturbed="$(mktemp)"
sed 's/total_bytes": 48880/total_bytes": 48881/' baselines/smoke.json > "$perturbed"
if cmp -s baselines/smoke.json "$perturbed"; then
    echo "ci.sh: perturbation was a no-op — update the sed pattern" >&2
    exit 1
fi
if cargo run -q --release --offline -p medsplit-bench --bin lab -- \
    gate experiments/smoke.lab.toml --baseline "$perturbed" >/dev/null 2>&1; then
    echo "ci.sh: lab gate passed against a perturbed baseline" >&2
    exit 1
fi
rm -f "$perturbed"
echo "    perturbed baseline correctly rejected"

echo "==> fleet drain/rejoin acceptance (chaos gate)"
# The 4-replica crash + rejoin scenario: one replica dies mid-load,
# in-flight work re-routes to ring successors, the replica rejoins and
# takes its session shard back, and no admitted request is dropped.
cargo test -q --release --offline --test fleet_chaos

echo "==> serving golden digests under --release"
# Every serve_threaded / run_fleet outcome is pinned bit for bit in debug
# by the workspace run above; the optimised build must agree with it.
cargo test -q --release --offline --test serving_golden

echo "ci.sh: all green"
