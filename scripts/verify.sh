#!/usr/bin/env bash
# Tier-1 verification plus smoke fault-injection, crash-resume, and
# IO-chaos gates, fully offline.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release rebuild of the campaign runner when it is
#             already built (CI convenience)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

echo "== tier-1: cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "== tier-1: cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== lint gate: cargo clippy --all-targets -- -D warnings"
cargo clippy -q --offline --all-targets -- -D warnings

echo "== format gate: cargo fmt --check"
cargo fmt --check

echo "== doc gate: cargo doc must build without warnings"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

cache=$(mktemp -d)
lint_par=$(mktemp); lint_ser=$(mktemp); stats=$(mktemp)
out=$(mktemp); out2=$(mktemp)
obs=$(mktemp -d)
crash=$(mktemp -d); resumed=$(mktemp)
sep=$(mktemp)
scratch=$(mktemp -d)
trap 'rm -rf "$cache" "$lint_par" "$lint_ser" "$stats" "$out" "$out2" "$obs" "$crash" "$resumed" "$sep" "$scratch"' EXIT

echo "== benchmark gate: perfbench builds and one profile pass runs clean"
# perfbench is a package of its own (its own [workspace]), so the workspace
# build above never compiles it: an API change in a crate it calls would
# break the benchmark unseen. One short pass must report "failed": 0.
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload profile --seed 1 --seconds 1 --trace 0 > "$scratch/perfbench.txt"
tail -n 1 "$scratch/perfbench.txt" | grep -q '"failed": 0'

echo "== observe determinism: two telemetry runs must be byte-identical"
cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    observe soplex_ref_like --csv "$obs/a.csv" --trace-out "$obs/a.json" > "$obs/a.txt"
cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    observe soplex_ref_like --csv "$obs/b.csv" --trace-out "$obs/b.json" > "$obs/b.txt"
cmp "$obs/a.csv" "$obs/b.csv"
cmp "$obs/a.json" "$obs/b.json"
grep -q '"traceEvents"' "$obs/a.json"

echo "== static queue-discipline verification (experiments lint, --jobs 2)"
CFD_CACHE_DIR="$cache" cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    lint --jobs 2 --json "$lint_par" > /dev/null 2> "$stats"
grep '^\[cfd-exec\]' "$stats"

echo "== lint cross-check: serial, uncached sweep must match byte-for-byte"
cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    lint --jobs 1 --no-cache --json "$lint_ser" > /dev/null 2>&1
cmp "$lint_par" "$lint_ser"

echo "== lint warm-cache re-run must execute nothing"
CFD_CACHE_DIR="$cache" cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    lint --jobs 2 --json "$lint_ser" > /dev/null 2> "$stats"
grep '^\[cfd-exec\]' "$stats"
grep -q 'executed=0 failed=0' "$stats"
cmp "$lint_par" "$lint_ser"

echo "== separability gates: auto-CFD selection, speculation lint, dynamic claims"
# Exits non-zero when any accepted rewrite lints dirty (e.g. an unproven
# load reaching a speculative rewrite), diverges functionally, or has a
# static disjointness claim contradicted dynamically — and the table must
# stay byte-identical to the checked-in fixture.
target/release/experiments separability --json "$sep" > /dev/null
cmp "$sep" crates/bench/tests/fixtures/separability.json

echo "== crash-safety gate: SIGKILL a mid-run campaign, then --resume must heal it"
# Exec the binary directly (killing a `cargo run` wrapper would orphan the
# child); the journal + cache must let --resume reproduce the uninterrupted
# parallel sweep byte-for-byte.
CFD_CACHE_DIR="$crash" target/release/experiments lint --jobs 4 --json "$resumed" > /dev/null 2>&1 &
victim=$!
# Kill as soon as the first result is durable: mid-campaign on any host.
for _ in $(seq 1 500); do
    compgen -G "$crash/*.json" > /dev/null && break
    sleep 0.01
done
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
CFD_CACHE_DIR="$crash" target/release/experiments lint --jobs 4 --resume --json "$resumed" > /dev/null 2> "$stats"
grep '^\[cfd-exec\]' "$stats"
cmp "$resumed" "$lint_par"

echo "== chaos gate: every injected IO fault must be masked or detected"
# `experiments chaos` exits non-zero on any silent divergence or hang; the
# greps double-check the tally the JSON table reports.
target/release/experiments chaos --json "$out" > /dev/null
grep -q '"silent_divergence": 0' "$out"
grep -q '"hang": 0' "$out"

echo "== dse gate: flagship sweep must match the checked-in Pareto fixture"
# The full 216-point grid, re-simulated and compared byte-for-byte: any
# drift in the simulator, the energy model, the fixed-precision funnel,
# or the frontier algorithm shows up here.
target/release/experiments dse --preset default --jobs 4 --no-cache --quiet --out "$out"
cmp "$out" crates/bench/tests/fixtures/dse_default.txt

echo "== event-log determinism: engine JSONL byte-identical across --jobs"
# The same sweep, serial vs 4 workers, each with a JSONL sink on the
# engine: after logcheck strips wall clocks, the streams must be
# byte-identical (events are emitted only from serial engine sections).
target/release/experiments dse --preset tiny --no-cache --quiet --out /dev/null \
    --log "$scratch/l1.jsonl" > /dev/null 2> /dev/null
target/release/experiments dse --preset tiny --jobs 4 --no-cache --quiet --out /dev/null \
    --log "$scratch/l2.jsonl" > /dev/null 2> /dev/null
target/release/experiments logcheck --log "$scratch/l1.jsonl" > "$scratch/l1.canon"
target/release/experiments logcheck --log "$scratch/l2.jsonl" > "$scratch/l2.canon"
cmp "$scratch/l1.canon" "$scratch/l2.canon"
# An empty log would pass the cmp; the batch lifecycle must be there.
grep -q '"event":"batch_done"' "$scratch/l1.canon"

echo "== simperf: profiled throughput snapshot, stage shares must sum to 100%"
# The soft floor warns; the hard floor (exit 3) is the null-host overhead
# gate: the host-port refactor promises unarmed telemetry/fault/control
# ports cost nothing measurable, so even the slowest catalog workload must
# clear 100 KIPS (nominal worst case is ~330 KIPS — a 3x margin so only a
# real regression, not host noise, trips it). --append records the run
# into the KIPS trajectory artifact (one JSONL record per run), giving a
# before/after table across refactors.
target/release/experiments simperf --profile --min-kips 250 --min-kips-hard 100 --append > "$scratch/simperf.txt"
grep -q 'stage shares sum to 100.00%' "$scratch/simperf.txt"
test -s artifacts/BENCH_simperf.json
# The same catalog without the self-profiler's clock reads, which is how
# every real run simulates: hard floor 200 KIPS. Nominal worst case is
# ~470 KIPS on a loaded shared host, so only a real regression trips it.
target/release/experiments simperf --min-kips-hard 200 --json "$scratch/simperf_plain.json" > /dev/null
# --append makes the JSON artifact a trajectory: one record per run.
target/release/experiments simperf --scale 40 --json "$scratch/perf.jsonl" --append > /dev/null
target/release/experiments simperf --scale 40 --json "$scratch/perf.jsonl" --append > /dev/null
[[ "$(wc -l < "$scratch/perf.jsonl")" == "2" ]]

echo "== checkpoint-determinism gate: quarter-point restores must be byte-identical"
# `experiments ckpt` exits 2 on any in-process divergence; the cmp
# re-checks the contract at the artifact level (one serialized RunReport
# line per workload, straight vs restored-from-checkpoint).
target/release/experiments ckpt > /dev/null
cmp artifacts/ckpt_straight.json artifacts/ckpt_restored.json

echo "== sampled-simulation gate: IPC within 10% of full detail on every workload"
# Deterministic cross-check (both IPCs are ratios of simulated counters):
# fast-forward/warm/measure sampling must land within the documented 10%
# error bound on the whole catalog, or the run exits 4.
target/release/experiments simperf --sampled --max-err 10 > "$scratch/sampled.txt"
grep -q 'sampled max IPC error' "$scratch/sampled.txt"

if [[ "$QUICK" == "0" ]]; then
    echo "== golden equivalence: full experiments transcript vs checked-in fixture"
    # The staged-pipeline / event-driven-wakeup refactor is contractually
    # invisible: the complete experiments transcript must stay byte-identical
    # to the pre-refactor fixture. Any simulator behavior change shows here.
    cargo run -q --release --offline -p cfd-bench --bin experiments -- \
        all --no-cache > /dev/null
    cmp artifacts/experiments_output.txt crates/bench/tests/fixtures/experiments_golden.txt

    echo "== smoke fault campaign (deterministic seed, contract-checked)"
    cargo run -q --release --offline -p cfd-bench --bin experiments -- \
        faults --smoke --seed 0xcfdfa017 --no-cache --json "$out"
    # Same seed at a different worker count must reproduce the same
    # verdict table byte-for-byte.
    cargo run -q --release --offline -p cfd-bench --bin experiments -- \
        faults --smoke --seed 0xcfdfa017 --jobs 4 --no-cache --json "$out2" > /dev/null
    cmp "$out" "$out2"
    echo "== campaign deterministic: serial and --jobs 4 verdict tables identical"
fi

echo "== verify OK"
