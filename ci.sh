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

echo "==> one of each: one FNV-1a, one JSON string escaper, one round loop, one serving loop"
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
# Every method's history is recorded by core's one round loop
# (RoundDriver::run): a `RoundRecord {` struct literal anywhere else under
# crates/*/src is a second loop. Test modules, which start at the first
# `#[cfg(test)]` of a file, may build records by hand.
record_hits="$(find crates/*/src -name '*.rs' ! -path crates/core/src/round.rs -exec awk \
    '/#\[cfg\(test\)\]/ { exit } /RoundRecord \{/ && !/struct RoundRecord/ { print FILENAME ":" FNR ": " $0 }' {} \;)"
if [ -n "$record_hits" ]; then
    echo "ci.sh: RoundRecord built outside crates/core/src/round.rs:" >&2
    echo "$record_hits" >&2
    exit 1
fi
# Every server is driven by the one serving loop (crates/serve/src/sim.rs,
# where a single server is a fleet of one): a call to one of the
# executor's three questions — `.due_by(`, `.arrive(`, `.drain_next(` —
# anywhere else under crates/*/src is a second loop. Test modules may
# drive an executor by hand.
loop_hits="$(find crates/*/src -name '*.rs' ! -path crates/serve/src/sim.rs -exec awk \
    '/#\[cfg\(test\)\]/ { exit } /\.(due_by|arrive|drain_next)\(/ { print FILENAME ":" FNR ": " $0 }' {} \;)"
if [ -n "$loop_hits" ]; then
    echo "ci.sh: the executor is asked its questions outside crates/serve/src/sim.rs:" >&2
    echo "$loop_hits" >&2
    exit 1
fi

echo "==> every pub fn has a caller outside its own file"
# Library surface nothing runs is deleted, not kept: a `pub fn` (also
# `pub const fn` / `pub unsafe fn`) under crates/*/src whose name no
# other .rs file under crates/, src/, examples/, tests/ or benchmark/src
# names as a whole word has no caller but its own file. Delete it with
# its tests, or drop the `pub` if its own module calls it.
orphans="$(grep -rnoE --include='*.rs' '\bpub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
    while IFS=: read -r file line decl; do
        name="${decl##* }"
        users="$(grep -rlw --include='*.rs' -- "$name" crates src examples tests benchmark/src |
            grep -cvxF "$file" || true)"
        if [ "$users" -eq 0 ]; then
            echo "$file:$line: $name"
        fi
    done)"
if [ -n "$orphans" ]; then
    echo "ci.sh: pub fn named in no other file (delete it, or make it private):" >&2
    echo "$orphans" >&2
    exit 1
fi

echo "==> unsafe, file by file: the code == the DESIGN §11 table"
# The "now" column of the table between the unsafe-table markers in
# DESIGN.md must equal the per-file count of lines matching the word
# `unsafe` under crates/, file for file, so the table cannot go stale.
unsafe_table="$(sed -n '/^<!-- unsafe-table -->$/,/^<!-- \/unsafe-table -->$/p' DESIGN.md \
    | awk -F'|' '$2 ~ /`crates\// { gsub(/[ `]/, "", $2); gsub(/ /, "", $4); print $2 ":" $4 }' | sort)"
unsafe_code="$(grep -rcw unsafe --include='*.rs' crates | grep -v ':0$' | sort)"
if [ -z "$unsafe_table" ] || [ "$unsafe_table" != "$unsafe_code" ]; then
    echo "ci.sh: DESIGN §11 unsafe table (left) differs from the code (right):" >&2
    diff <(echo "$unsafe_table") <(echo "$unsafe_code") >&2 || true
    exit 1
fi

echo "==> intrinsics, file by file: the code == the DESIGN §11 table"
# Every hand-written intrinsic body has a row in the table between the
# intrinsics-table markers in DESIGN.md that cites the benchmark ledger
# keeping it; the "now" column must equal the per-file count of lines
# under crates/ that name an x86 intrinsic (rows reading 0 record a
# file whose bodies went), so a new hand-written body cannot land
# without its row.
intrinsics_table="$(sed -n '/^<!-- intrinsics-table -->$/,/^<!-- \/intrinsics-table -->$/p' DESIGN.md \
    | awk -F'|' '$2 ~ /`crates\// { gsub(/[ `]/, "", $2); gsub(/ /, "", $4); if ($4 != "0") print $2 ":" $4 }' | sort)"
intrinsics_code="$(grep -rcE --include='*.rs' '_mm(256)?_[a-z0-9_]+' crates | grep -v ':0$' | sort)"
if [ "$intrinsics_table" != "$intrinsics_code" ]; then
    echo "ci.sh: DESIGN §11 intrinsics table (left) differs from the code (right):" >&2
    diff <(echo "$intrinsics_table") <(echo "$intrinsics_code") >&2 || true
    exit 1
fi
# Kernels reach the vector units one way, `simd::kernel!`: outside
# crates/tensor/src/simd.rs (the macro and `detect`), a
# `#[target_feature(enable = ...)]` may only sit on a hand-written twin
# whose function the table's row for its file names, and
# `is_x86_feature_detected!` may not appear at all.
intrinsics_rows="$(sed -n '/^<!-- intrinsics-table -->$/,/^<!-- \/intrinsics-table -->$/p' DESIGN.md)"
hand_rolled="$(grep -rnE --include='*.rs' 'target_feature\(enable|is_x86_feature_detected!' crates src tests examples \
    | { grep -v '^crates/tensor/src/simd.rs:' || true; } \
    | while IFS=: read -r file line rest; do
        twin="$(sed -n "$((line + 1))p" "$file" | grep -oE '\bfn [A-Za-z0-9_]+' | cut -c4-)"
        if [ -z "$twin" ] || ! echo "$intrinsics_rows" | grep -F "\`$file\`" | grep -qF "\`$twin\`"; then
            echo "$file:$line:$rest"
        fi
    done)"
if [ -n "$hand_rolled" ]; then
    echo "ci.sh: dispatch outside simd::kernel! and the DESIGN §11 twins (write the body under simd::kernel!):" >&2
    echo "$hand_rolled" >&2
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (deny warnings)"
# A doc link to a deleted or private item is a rustdoc warning
# (broken_intra_doc_links, private_intra_doc_links); the docs build
# clean or CI fails.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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
# the medsplit-tensor suites above; the golden digests follow. The
# in-place conv kernels and the 2x2 max-pool read unchecked after one
# extent check per call, so their unit tests (every AVX2 and portable
# body against the packed path and the scan) run in release too.
cargo test -q --release --offline --test spatial_golden
cargo test -q --release --offline -p medsplit-tensor --lib -- ops::conv:: ops::pool::

echo "==> layer passes again under --release"
# BatchNorm walks eight features' planes side by side and the broadcast
# ops walk the output in block-aligned runs: a lane or phase index one
# off reads a wrong value in release and panics in debug. The oracle
# against the one-feature loops and the golden digests run in both.
cargo test -q --release --offline -p medsplit-nn --test norm_oracle
cargo test -q --release --offline --test layer_golden

echo "==> GEMM packing again under --release"
# The stride-class packs copy whole runs per depth step and the AVX2
# transposing pack reads 8x8 blocks unchecked after one extent check
# per call; the swapped orientation writes each tile back transposed.
# An index slip in any of them is a slice panic in debug and a wrong
# value in release, so the pack oracles and the GEMM unit tests, the
# golden digests (committed before the packs and the swap existed) and
# the GEMM property tests of parallel_kernels run in both.
cargo test -q --release --offline -p medsplit-tensor --lib -- ops::microkernel:: ops::matmul::
cargo test -q --release --offline --test gemm_golden
cargo test -q --release --offline --test parallel_kernels -- matmul_family packed_gemm

echo "==> elementwise, int8 encoder and planned serving forward again under --release"
# The elementwise kernels, absmax and the int8 quantiser are portable
# bodies the compiler vectorises, with tails past their vector steps,
# and the planned forward reads cached weight panels: a tail or panel
# index one off is a slice panic in debug and a wrong value in release. The golden digests (committed before the cross-ISA
# kernel and plan digests they replaced were deleted) run in both.
cargo test -q --release --offline --test kernel_golden

echo "==> miri (unsafe microkernel, simd, scratch, conv and pool modules)"
# Miri (or cargo-careful as a fallback) over the unsafe kernel modules'
# unit tests. Both need rustup components this offline image may lack,
# so the job is availability-gated rather than required. What it would
# cover: the `unsafe` lines the DESIGN §11 table counts per file (the
# step above keeps it current), all in crates/tensor.
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -q -p medsplit-tensor --offline \
        --lib -- microkernel:: simd:: scratch:: ops::conv:: ops::pool::
elif cargo careful --version >/dev/null 2>&1; then
    cargo careful test -q -p medsplit-tensor --offline --lib
else
    echo "    (skipped: neither cargo-miri nor cargo-careful is installed)"
fi

echo "==> frozen benchmark still builds against the workspace"
# benchmark/ is its own package calling the public entry points; a core
# API change that breaks it must fail here, not in the pipeline.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> the six README examples, each run to completion under --release"
# The workspace tests compile the examples but never run them; each is
# a facade entry point the README tells a reader to run, so each must
# still finish with status 0. The wall time of each run is printed.
cargo build -q --release --offline --examples
for example in quickstart serving hospital_network bandwidth_comparison privacy_audit resilience; do
    TIMEFORMAT="    $example: %R s"
    time cargo run -q --release --offline --example "$example" >/dev/null
done
unset TIMEFORMAT

echo "==> lab ci --smoke (manifest-declared experiment gates)"
# The lab replaces the old hand-written smoke stanzas: every
# experiments/*.lab.toml with `ci = true` runs here.
#
#   smoke.lab.toml       — the split-training matrix (fault × codec ×
#                          threads) gated against baselines/smoke.json,
#                          with thread-invariance declared on accuracy,
#                          bytes (total, uplink, downlink), messages,
#                          makespan, retries, checksum rejections and
#                          degraded rounds.
#   bins_smoke.lab.toml  — the kernel_bench and trace_report smokes, each
#                          running its own in-process asserts (planned
#                          serving logits equal unplanned, zero warm
#                          repacks, the training repack bound; the span
#                          names), with the span count pinned against
#                          baselines/bins_smoke.json.
#   hierarchy_chaos.lab.toml — relay-hierarchy training under relay
#                          crashes and region partitions, gated against
#                          baselines/hierarchy_chaos.json with the
#                          byte, message, fault and failover counters
#                          declared thread-invariant.
#   codec_frontier.lab.toml — wide-cut split training once per wire
#                          codec, gated against
#                          baselines/codec_frontier.json, with logical
#                          bytes and messages declared codec-invariant.
#   fig4_ci.lab.toml     — the paper's Fig. 4, VGG x CIFAR-10-like panel
#                          at seed 42 (split, sync SGD, FedAvg, 400
#                          rounds; every evaluation a curve.NN metric),
#                          gated against baselines/fig4_ci.json, which
#                          tests/paper_claim.rs holds equal to its slice
#                          of baselines/fig4.json.
#   table2.lab.toml      — proportional vs equal minibatches on
#                          Dirichlet(0.3) shards, 3 seeds.
#   table3.lab.toml      — the seven methods of Table 3 on
#                          Dirichlet(0.5) shards, 3 seeds.
#   fig6.lab.toml        — split training over 2-16 platforms, 3 seeds;
#                          each gated against baselines/<name>.json.
#   table1.lab.toml      — the paper-size models' analytic per-round
#                          bytes (split, FedAvg, sync SGD) and crossover
#                          minibatch.
#   fig8.lab.toml        — the paper-size models' analytic round time
#                          over 10 Mbit/s to 10 Gbit/s links.
#   fig5.lab.toml        — split training once per cut of the lite VGG,
#                          each probed for leakage (dcor, attacker R^2).
#   fig7.lab.toml        — the same once per activation-noise level;
#                          each gated against baselines/<name>.json.
#   serve.lab.toml       — split inference under offered load (25-800
#                          requests/s per platform), once per wire codec:
#                          latency percentiles, bytes per request,
#                          goodput and a served-logits digest, gated
#                          against baselines/serve.json.
#   fleet.lab.toml       — the same over 1-8 server replicas at 50-800
#                          requests/s per tenant, at 1 and 2 pool
#                          threads, gated against baselines/fleet.json,
#                          with the logits digest declared
#                          thread-invariant.
#
# `lab ci` additionally executes every manifest twice and fails unless
# the metrics digests are bit-identical — the determinism witness.
cargo run -q --release --offline -p medsplit-bench --bin lab -- ci --smoke

echo "==> lab gate negative tests (a perturbed baseline must fail)"
# The regression gate is only trustworthy if it actually trips: perturb
# one value of a committed baseline (a byte count of the smoke matrix,
# one evaluation's bytes on a Fig. 4 curve, one per-round byte count of
# Table 1, one cut's dcor in Fig. 5, one load's goodput in the serving
# sweep, one row's p99 latency in the fleet sweep) and assert `lab gate`
# exits nonzero against it.
perturbed_gate_fails() { # <manifest name> <sed expression>
    local perturbed
    perturbed="$(mktemp)"
    sed "$2" "baselines/$1.json" > "$perturbed"
    if cmp -s "baselines/$1.json" "$perturbed"; then
        echo "ci.sh: perturbing baselines/$1.json was a no-op — update the sed pattern" >&2
        exit 1
    fi
    if cargo run -q --release --offline -p medsplit-bench --bin lab -- \
        gate "experiments/$1.lab.toml" --baseline "$perturbed" >/dev/null 2>&1; then
        echo "ci.sh: lab gate passed against a perturbed baselines/$1.json" >&2
        exit 1
    fi
    rm -f "$perturbed"
    echo "    perturbed baselines/$1.json correctly rejected"
}
perturbed_gate_fails smoke 's/total_bytes": 48880/total_bytes": 48881/'
perturbed_gate_fails fig4_ci 's/curve.00.bytes": 10567680/curve.00.bytes": 10567681/'
perturbed_gate_fails table1 's/fedavg_round_bytes": 488115136/fedavg_round_bytes": 488115137/'
perturbed_gate_fails fig5 's/cut.00.dcor": 0.9806217490215962/cut.00.dcor": 0.9816217490215962/'
perturbed_gate_fails serve 's/load.02.goodput_rps": 293.6350798756585/load.02.goodput_rps": 293.7350798756585/'
perturbed_gate_fails fleet 's/row.00.p99_ms": 75.24167040000007/row.00.p99_ms": 75.25167040000007/'

echo "==> fleet drain/rejoin acceptance (chaos gate)"
# The 4-replica crash + rejoin scenario: one replica dies mid-load,
# in-flight work re-routes to ring successors, the replica rejoins and
# takes its session shard back, and no admitted request is dropped.
cargo test -q --release --offline --test fleet_chaos

echo "==> serving golden digests under --release"
# Every serve_threaded / run_fleet outcome is pinned bit for bit in debug
# by the workspace run above; the optimised build must agree with it.
# serve_threaded runs its L1 and L2..Lk inferences as kernel-pool tasks,
# so the cases that pin the inference noise order (two noised platforms)
# and the pool-size invariance (one session at one and two threads) are
# seen in both builds. The serving suite runs here too: its end-to-end
# logits check and the refusal of a lost response must hold on the
# optimised build. So does batch invariance: a kernel-pool task computes
# its queued batches as one server pass of up to 64 rows, and every row
# must come out as it would alone.
cargo test -q --release --offline --test serving_golden --test serving --test batch_invariance

echo "==> baseline trainer golden digests under --release"
# The four comparator methods are pinned the same way, bit for bit, in
# debug by the workspace run above.
cargo test -q --release --offline --test baseline_golden

echo "==> training driver golden digests under --release"
# Every split trainer runs the one round engine; its histories, stats,
# weights and fault reports are pinned bit for bit in debug by the
# workspace run above, and the optimised build must agree with them.
cargo test -q --release --offline --test driver_golden

echo "ci.sh: all green"
