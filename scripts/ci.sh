#!/usr/bin/env bash
# Tier-1 gate: formatting, the workspace lint wall, the full test suite,
# and the static plan lint over every shipped lowering. Run before every
# push; CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
report="$tmp/report.json"
scibench=(cargo run --release -q -p scibench-bench --bin scibench --)

# artifact_gate LABEL SCHEMA COMMITTED CMD...: run CMD, which prints its
# machine-readable report on stdout, into $report, and fail unless both
# that report and the committed artifact COMMITTED ("-" for none) speak
# SCHEMA.
artifact_gate() {
  local label=$1 schema="\"schema\": \"$2\"" committed=$3
  shift 3
  echo "== $label"
  "$@" > "$report"
  grep -qF "$schema" "$report" || {
    echo "ci: FAIL - $label no longer emits $schema" >&2; exit 1; }
  [ "$committed" = - ] || grep -qF "$schema" "$committed" || {
    echo "ci: FAIL - committed $committed schema drifted from $schema" >&2
    echo "     regenerate it: ${*/--quick/} --out $committed" >&2
    exit 1; }
}

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace lint wall, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== scilint (source-level determinism & numeric-safety gate)"
# Zero unsuppressed findings allowed; every suppression carries a reason.
# Prints a one-line per-crate summary; details in DESIGN.md §3.9.
cargo run --release -q -p scilint --bin scilint -- --quiet

# Panic/nondet/copy/spawn sinks reachable from engine entry points, each
# with its witness call chain; details in DESIGN.md §3.12. Also checks the
# machine-readable report still speaks sciflow/v1.
artifact_gate "scilint --flow (sciflow: interprocedural effect gate)" sciflow/v1 - \
  cargo run --release -q -p scilint --bin scilint -- --flow --json

# Certifies every shipped lowering for result-cache soundness (scilint
# purity verdicts joined with plancheck plan fingerprints), asserts the
# deliberately-unsafe fixture is rejected with its witness chain, and
# checks the committed MEMO_report.json still speaks scimemo/v2 (v2 added
# the live memo_stats counter block) and, as the report is deterministic,
# matches the fresh one byte for byte; details in DESIGN.md §3.14.
artifact_gate "scibench lint --memo (memoization-soundness certifier)" scimemo/v2 MEMO_report.json \
  "${scibench[@]}" lint --memo
cmp -s "$report" MEMO_report.json || {
  echo "ci: FAIL - committed MEMO_report.json differs from a fresh lint --memo report" >&2
  diff "$report" MEMO_report.json >&2 || true
  echo "     regenerate it: ${scibench[*]} lint --memo --out MEMO_report.json" >&2
  exit 1; }

echo "== cargo test"
cargo test -q --workspace

echo "== scibench lint (static verification of lowered task graphs)"
"${scibench[@]}" lint

echo "== scibench perf-smoke (serial vs parallel kernels, bit-identical)"
# Tiny shapes, ~seconds: asserts every parallel kernel port matches the
# serial reference bit for bit, and that SCIBENCH_THREADS is honored.
SCIBENCH_THREADS=2 "${scibench[@]}" perf-smoke
"${scibench[@]}" perf-smoke --threads 4

# Runs every engine pipeline once on the shared data plane and checks the
# committed BENCH_e2e.json still speaks the schema the tool emits. Under
# cargo test, tests/integration_zerocopy.rs gates the rest: engines that
# run the same pipeline agree bit for bit, a full run matches every
# committed row (fingerprints, copies, bytes, reason tags) exactly, copies
# stay at most half the last copy-everywhere counts, and every surviving
# copy carries a sanctioned reason tag.
artifact_gate "scibench bench e2e --quick (copy accounting on the shared data plane)" \
  scibench-bench-e2e/v2 BENCH_e2e.json \
  "${scibench[@]}" bench e2e --quick

# Runs the skewed astro field through both schedules at 2/4/8 workers
# (bit-identity is enforced by the tool: non-zero exit on fingerprint
# divergence; the morsel<=static model-imbalance regression is enforced
# on the full run that regenerates the committed artifact) and checks the
# committed BENCH_skew.json still speaks the schema the tool emits.
artifact_gate "scibench bench skew --quick (morsel vs static worker imbalance)" \
  scibench-bench-skew/v1 BENCH_skew.json \
  "${scibench[@]}" bench skew --quick

# Measures per-plane compression at the engine ingest boundary, runs the
# run-level kernel fast paths against their dense twins, and replays two
# full pipelines under CompressMode Off and Auto (the tool exits non-zero
# on a fingerprint divergence, a mask/variance ratio below 2x, or a kernel
# row with neither a time nor a bytes-moved win). Also checks the committed
# BENCH_compress.json still speaks the schema the tool emits.
artifact_gate "scibench bench compress --quick (codec ratios + run-level kernel wins)" \
  scibench-bench-compress/v1 BENCH_compress.json \
  "${scibench[@]}" bench compress --quick

# Replays the seeded hot/cold query schedule against the resident service
# four ways — serial cache-on, concurrent cache-on, serial cache-off, and
# under a halved cache budget that forces LRU eviction — with the tool
# exiting non-zero on any fingerprint divergence, a warm hit that moved
# bytes, an unrejected Figure 15 plan, an uncertified fixture request that
# did not bypass, or a small-budget replay that never evicted or overran
# its budget. Also checks the committed BENCH_serve.json still speaks the
# schema the tool emits.
artifact_gate "scibench bench serve --quick (resident service, certified zero-copy cache)" \
  scibench-bench-serve/v1 BENCH_serve.json \
  "${scibench[@]}" bench serve --quick

# Streams a stack deliberately larger than the memory budget through the
# governor at 25%/50%/unbounded budgets and runs every engine analog
# out-of-core; the tool exits non-zero if any fingerprint diverges across
# budgets, a bounded row fails to spill+reload or overruns its budget, the
# plancheck demand estimate drifts outside the documented factor of the
# measured peak, or no engine analog spills. Also checks the committed
# BENCH_ooc.json still speaks the schema the tool emits.
artifact_gate "scibench bench ooc --quick (memory governor, LRU spill tier)" \
  scibench-bench-ooc/v1 BENCH_ooc.json \
  "${scibench[@]}" bench ooc --quick

echo "ci: all gates passed"
