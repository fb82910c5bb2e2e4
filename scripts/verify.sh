#!/usr/bin/env bash
# Tier-1 verification: hermetic offline build + tests + hygiene gates.
#
# The workspace has a zero-external-dependency policy: every dependency
# in every Cargo.toml must be a `path` dependency on a sibling crate, so
# the whole tree builds and tests with no registry or network access.
# This script is the enforcement point — it must pass on a machine with
# no ~/.cargo/registry and no network.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== deny-external-deps: workspace Cargo.tomls must be path-only =="
# Flag any dependency declared with a version/registry/git source.
# Allowed shapes:   name = { path = "..." }   and   name.workspace = true
# (plus [workspace.dependencies] entries, which must themselves be path-only).
bad=0
while IFS= read -r manifest; do
    # Dependency lines inside any *dependencies* section that mention a
    # registry version (`"x.y"`, version = ...) or a git source.
    hits=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ {
            if ($0 ~ /git[ \t]*=/ || $0 ~ /version[ \t]*=/ ||
                $0 ~ /=[ \t]*"[0-9]/) print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$hits" ]; then
        echo "$hits"
        bad=1
    fi
done < <(git ls-files '*Cargo.toml')
if [ "$bad" -ne 0 ]; then
    echo "error: external (non-path) dependencies found" >&2
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== panic-audit: no unjustified unwrap/expect in crates/core/src =="
# Hot control-path code must handle recoverable failures through
# Result<_, CoreError>. A genuine invariant may still panic, but only
# with an adjacent `// invariant:` comment justifying it. Test modules
# (everything after `#[cfg(test)]`) are exempt.
bad=0
while IFS= read -r src; do
    hits=$(awk '
        /#\[cfg\(test\)\]/ { exit }
        /^[ \t]*\/\// {
            if ($0 ~ /invariant:/) justified = 1
            next
        }
        /\.unwrap\(\)|\.expect\(/ {
            if (!justified) print FILENAME ":" FNR ": " $0
        }
        { justified = 0 }
    ' "$src")
    if [ -n "$hits" ]; then
        echo "$hits"
        bad=1
    fi
done < <(git ls-files 'crates/core/src/*.rs' 'crates/core/src/**/*.rs')
if [ "$bad" -ne 0 ]; then
    echo "error: unjustified unwrap()/expect() in crates/core/src" >&2
    echo "hint: return a CoreError, or add a '// invariant: ...' comment" >&2
    exit 1
fi
echo "ok: core panics are all justified invariants"

echo "== dependency direction: serve and router do not import qpdo_bench =="
# The daemon and the router are production crates; the experiment
# harness sits above them, not below. Their sources must name nothing
# from `qpdo_bench` (the shared journal, the flag caps and CancelToken
# live in qpdo-core). Tests and the manifests are not checked here.
if hits=$(grep -rn --include='*.rs' 'qpdo_bench' crates/serve/src crates/router/src); then
    echo "$hits"
    echo "error: crates/serve/src or crates/router/src imports qpdo_bench" >&2
    exit 1
fi
echo "ok: no production serve/router source names qpdo_bench"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc -D warnings: docs build warning-free =="
# Broken or private intra-doc links rot silently otherwise: nothing else
# builds the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace --all-targets

echo "== frozen benchmark compiles against the tree: perfbench =="
# perfbench/ is its own Cargo workspace with path dependencies on
# crates/*, so an API change that breaks it would otherwise surface
# only when the benchmark runs. Same target directory as perfbench/run.py.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

echo "== one-CPU executor path: taskset -c 0 =="
# The executor's hang rescue needs a hung batch on a helper, not on the
# thread that rescues it, and a one-core host must still give a
# supervised run a helper for that (DESIGN.md §7). Pin the executor's
# and the supervisor's tests to one CPU wherever taskset exists, so
# that path runs on every host.
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo test -q --offline -p qpdo-core --lib -- executor supervisor
    taskset -c 0 cargo test -q --offline -p qpdo-core --test executor_threads
    taskset -c 0 cargo test -q --offline -p qpdo-bench --test supervisor_engine --test supervisor_edges
else
    echo "skip: taskset not found"
fi

echo "== differential oracle: packed vs reference tableau (fixed seeds) =="
# Gate-level engine equivalence (DESIGN.md §8): seeded random-Clifford
# walks must agree row-for-row between the word-packed kernels and the
# cell-per-entry reference, in release mode (the same codegen the
# experiment binaries ship with). All seeds are fixed in the test.
cargo test -q --offline --release -p qpdo-stabilizer --test differential

echo "== sliced oracle: 64-lane engine vs scalar twins (release) =="
# Shot-slicing soundness (DESIGN.md §10): every lane of the 64-lane
# engine must be byte-identical to a scalar run seeded with that lane's
# substream seed — at the tableau level and through the full SC17 LER
# driver, with and without the Pauli-frame layer.
cargo test -q --offline --release -p qpdo-stabilizer --test sliced_oracle
cargo test -q --offline --release -p qpdo-surface17 --lib 'sliced::'
# Stack-level byte identity (packed vs reference tableau through the
# whole Fig 5.8 stack, frame on and off) in the shipped codegen: every
# operation flows through the streamed layers this checks.
cargo test -q --offline --release -p qpdo-surface17 --test engine_equivalence
# Frame-tracker byte identity: the plain and protected frame layers, the
# classical-fault LER driver and the arbiter must hash to the pinned
# FNV-1a digests, so the shared Table 3.1 update cannot move an output.
cargo test -q --offline --release -p qpdo-surface17 --test frame_kat

# Throwaway output directory for every smoke artifact below.
smoke_out=$(mktemp -d)
trap 'rm -rf "$smoke_out"' EXIT

echo "== decoder + resume oracles: qpdo-surface (release) =="
# Decoder soundness (DESIGN.md §13): the union-find decoder must
# annihilate every syndrome at d = 3…13 (property tests), match the
# exact matcher's logical-failure rate at d = 3, 5 over 10k seeded
# trials per point (differential oracle), and the exact path must stay
# byte-stable against its golden KAT. Resume soundness (DESIGN.md
# §14): resuming a sweep from every per-batch checkpoint must be
# byte-identical to the scratch run and re-execute strictly fewer
# batches (the resume-vs-scratch oracle). Release mode: the same
# codegen the experiment binaries ship with.
cargo test -q --offline --release -p qpdo-surface
# Union-find byte identity (DESIGN.md §13): every correction on the
# seeded syndrome pools at d = 3…13, plus the all-fired and every
# single-defect syndrome, must hash to the pinned FNV-1a digests, so
# decoder tuning cannot move a correction. Named on its own so the
# gate stays visible if the package's test list changes.
cargo test -q --offline --release -p qpdo-surface --test uf_kat
# Logical-parity oracle (DESIGN.md §13): the sweep's parity-only decode
# must equal the parity of the full correction on the logical support,
# on every syndrome at d = 3 and 5, uf_kat's pools at d = 3…13, and
# dense pools at d = 15…21 where clusters reach both boundaries.
cargo test -q --offline --release -p qpdo-surface --test uf_parity
# Frame-sampler byte identity (DESIGN.md §13): the measured qubits,
# reference outcomes, record words, observable words and final frames
# of the ESM round at d = 3, 5, 7, 13 and of seeded random Clifford
# circuits must hash to the pinned FNV-1a digests, so tuning the frame
# push cannot move a sample.
cargo test -q --offline --release -p qpdo-surface --test sampler_kat

echo "== distance-scaling smoke: exp_distance_scaling --smoke =="
# The d = 3 vs 5 union-find sweep at a below-threshold error rate: the
# binary itself asserts the LER falls with distance and that the
# syndrome-extraction path produced defects.
./target/release/exp_distance_scaling --smoke --out "$smoke_out"
test -f "$smoke_out/distance_scaling.csv" || {
    echo "error: exp_distance_scaling --smoke wrote no distance_scaling.csv" >&2
    exit 1
}

echo "== supervisor smoke: exp_ler --test smoke --jobs 4 =="
# End-to-end gate on the supervised execution engine (DESIGN.md §7):
# jobs-independence, forced-panic + hang recovery, quarantine
# completion, and the cross-backend redundancy vote. Uses the release
# binary built above; output goes to the throwaway directory.
./target/release/exp_ler --test smoke --jobs 4 --out "$smoke_out"

echo "== protected-frame smoke: exp_classical_faults --test smoke =="
# The protected Pauli frame's pinned-seed self-check: at zero fault rate
# the protected and unprotected layers reproduce the plain frame layer's
# LER run exactly; under frame flips the unprotected frame is strictly
# worse and the protected one recovers at least 90% of them.
./target/release/exp_classical_faults --test smoke --out "$smoke_out"

echo "== paper self-checks: exp_random_circuits, exp_odd_bell --test smoke =="
# E4 and E5 through the experiment drivers the daemon's rc and bell jobs
# run too: every random circuit's flushed framed state must equal its
# reference up to global phase, and both odd-Bell histograms (with and
# without the Pauli frame) must hold only |01> and |10>, each seen.
./target/release/exp_random_circuits --test smoke --out "$smoke_out"
./target/release/exp_odd_bell --test smoke --out "$smoke_out"

echo "== kernel bench smoke: bench_kernels --smoke =="
# Smoke-runs the packed-kernel benchmark (tiny sample counts), writes
# BENCH_stabilizer.json to the throwaway directory, and validates the
# report schema — both before writing and after re-reading from disk.
./target/release/bench_kernels --smoke --out "$smoke_out"

echo "== checked-in report keys: results/BENCH_stabilizer.json =="
# The committed report is the baseline every PR diffs against; a
# regeneration that silently drops a kernel row or derived ratio would
# erase the trajectory. Every known key must stay present.
for key in \
    '"schema": "qpdo-bench-stabilizer-v1"' \
    '"name": "rowsum_packed_n17"' '"name": "rowsum_reference_n17"' \
    '"name": "esm_round"' '"name": "sc17_shot"' \
    '"name": "measure_deterministic_n17"' '"name": "expectation_n17"' \
    '"name": "sc17_shot_sliced"' '"name": "frame_merge"' \
    '"name": "surface_batch_d13"' '"name": "surface_batch_d5"' \
    '"name": "frame_push_d5"' '"name": "error_draw_d5"' \
    '"name": "surface_setup_d13"' \
    '"rowsum_speedup_n17"' '"rowsum_targets_n17"' \
    '"sc17_sliced_amortized_ns"' '"sc17_slicing_speedup"'; do
    if ! grep -qF "$key" results/BENCH_stabilizer.json; then
        echo "error: results/BENCH_stabilizer.json lost key $key" >&2
        exit 1
    fi
done
echo "ok: all report keys present"

echo "== decoder bench smoke: bench_decoder --smoke =="
# Smoke-runs the decoder-latency benchmark (tiny sample counts), writes
# BENCH_decoder.json to the throwaway directory, and validates the
# schema before writing and after re-reading from disk. The key greps
# below guard the committed baseline the same way as the stabilizer
# report.
./target/release/bench_decoder --smoke --out "$smoke_out"
for report in "$smoke_out/BENCH_decoder.json" results/BENCH_decoder.json; do
    for key in \
        '"schema": "qpdo-bench-decoder-v1"' \
        '"name": "uf_decode_d3_p05"' '"name": "uf_decode_d5_p05"' \
        '"name": "uf_decode_d5_p08"' '"name": "uf_decode_d13_p08"' \
        '"name": "uf_parity_d5_p08"' '"name": "uf_parity_d13_p08"' \
        '"name": "uf_parity_d13_p01"' \
        '"name": "matching_exact_d3_p05"' \
        '"uf_over_exact_d3_p05"' '"uf_scaling_dmax_over_d3_p05"'; do
        if ! grep -qF "$key" "$report"; then
            echo "error: $report lost key $key" >&2
            exit 1
        fi
    done
    # Nonzero medians: a decoder bench that timed nothing must not pass.
    awk -F': ' '
        /"median_ns"/ { rows += 1; if ($2 + 0 <= 0) bad = 1 }
        END { exit (rows >= 3 && !bad) ? 0 : 1 }
    ' "$report" || {
        echo "error: $report must report positive decode medians" >&2
        exit 1
    }
done
echo "ok: BENCH_decoder.json schema-valid with positive medians"

echo "== crash-recovery gate: serve_chaos --smoke =="
# The shot-service chaos drill (DESIGN.md §9.5, §12): spawns
# qpdo_serve, SIGKILLs it with jobs in flight (including mid
# group-commit batch), restarts on the same journal, and asserts
# exactly-once completion with results byte-identical to an unfaulted
# execution of the same seeds — then checks overload shedding and
# waves, deadline enforcement, slowloris reaping, and the
# injected-fsync-failure degraded latch with clean restart recovery. The checkpoint drills (DESIGN.md §14) then SIGKILL
# a sweep past a durable checkpoint and require the restart to resume
# from it byte-identically with strictly fewer batches re-executed,
# expire a deadline mid-sweep into an anytime `partial` terminal with
# a valid Wilson CI, and inject checkpoint-path faults (ENOSPC on
# progress appends degrades checkpointing off without harming the job;
# corrupt checkpoint records are dropped at replay in favor of the
# previous durable one).
./target/release/serve_chaos --smoke

echo "== serving load gate: loadgen --smoke =="
# The serving-core load generator (DESIGN.md §12.5): drives the event
# loop at 4x the baseline connection count over the real wire protocol
# with open-loop seeded arrivals, writes BENCH_serve.json to the
# throwaway directory, and validates the report schema before writing
# and after re-reading from disk. A smoke run measures event_4x only.
./target/release/loadgen --smoke --out "$smoke_out"
for key in \
    '"schema": "qpdo-bench-serve-v1"' '"name": "event_4x"' \
    '"throughput_rps"' '"p50_us"' '"p99_us"' '"p999_us"' '"shed_rate"'; do
    if ! grep -qF "$key" "$smoke_out/BENCH_serve.json"; then
        echo "error: BENCH_serve.json missing key $key" >&2
        exit 1
    fi
done
# Nonzero throughput: a loadgen that measured nothing must not pass the
# gate.
awk -F': ' '
    /"throughput_rps"/ { rows += 1; if ($2 + 0 <= 0) bad = 1 }
    END { exit (rows == 1 && !bad) ? 0 : 1 }
' "$smoke_out/BENCH_serve.json" || {
    echo "error: BENCH_serve.json must report nonzero event_4x throughput" >&2
    exit 1
}
echo "ok: BENCH_serve.json schema-valid with nonzero throughput"

echo "== checked-in report keys: results/BENCH_serve.json =="
# The committed report holds the frozen threaded_baseline that every
# full loadgen run gates against (the threaded server itself is gone),
# beside a full event_4x run and the derived comparison. Every known
# key must stay present, with nonzero throughput for both scenarios.
for key in \
    '"schema": "qpdo-bench-serve-v1"' \
    '"name": "threaded_baseline"' '"name": "event_4x"' \
    '"throughput_rps"' '"p50_us"' '"p99_us"' '"p999_us"' '"shed_rate"' \
    '"conn_ratio"' '"event_p99_not_worse"'; do
    if ! grep -qF "$key" results/BENCH_serve.json; then
        echo "error: results/BENCH_serve.json lost key $key" >&2
        exit 1
    fi
done
awk -F': ' '
    /"throughput_rps"/ { rows += 1; if ($2 + 0 <= 0) bad = 1 }
    END { exit (rows == 2 && !bad) ? 0 : 1 }
' results/BENCH_serve.json || {
    echo "error: results/BENCH_serve.json must report nonzero throughput for both scenarios" >&2
    exit 1
}
echo "ok: all report keys present"

echo "== fleet gate: cargo test -p qpdo-router =="
# In-process fleet coverage (DESIGN.md §11): ring spread/rebalance,
# binding-journal replay and compaction, protocol round-trips, and the
# router service end-to-end over real sockets (routing, query relay,
# fleet-wide dedup, orphan re-resolution, join/leave, admission shed,
# and anytime-partial terminals delivered and journaled fleet-wide).
cargo test -q --offline -p qpdo-router

echo "== fleet crash gate: router_chaos --smoke =="
# The fleet chaos drill (DESIGN.md §11.4): a 3-member fleet behind
# qpdo_router; SIGKILL a member mid-wave (canaries must keep landing,
# the member rejoins on its journal), SIGKILL the router mid-flight
# (the rebuilt router must deduplicate every acked id), live
# join/leave, and a cross-fleet audit that every acked job has exactly
# one result in exactly one member journal, byte-identical to the
# unfaulted execution.
./target/release/router_chaos --smoke

echo "verify: OK"
