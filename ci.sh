#!/usr/bin/env bash
# CI gate: build, test, lint. Everything runs offline — external
# dependencies resolve to the stand-ins under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> ssr-lint (determinism contract + workspace audits, baseline-gated)"
# Auto-loads ./lint.baseline: the gate is "zero findings beyond the
# audited ledger". The per-code summary prints how each family fared.
lint_dir=$(mktemp -d)
cargo run -q --release -p ssr-lint --offline | tee "$lint_dir/lint.txt"
grep -E "^per-code:" "$lint_dir/lint.txt"

echo "==> ssr-lint --format json is byte-stable across runs"
cargo run -q --release -p ssr-lint --offline -- --format json > "$lint_dir/lint1.json"
cargo run -q --release -p ssr-lint --offline -- --format json > "$lint_dir/lint2.json"
cmp "$lint_dir/lint1.json" "$lint_dir/lint2.json"
grep -q '"schema_version": 2' "$lint_dir/lint1.json"
rm -rf "$lint_dir"

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo bench -- --test (smoke)"
cargo bench --workspace --offline -- --test

echo "==> trace replay smoke (byte-identical JSONL across same-seed runs)"
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
for i in 1 2; do
  ./target/release/ssr-cli run --cluster 2x2 --policy ssr --seed 7 \
    --fg "pipeline:phases=3,par=4,prio=10" --bg "maponly:tasks=16,secs=10" \
    --trace "$trace_dir/run$i.jsonl" --trace-alone "$trace_dir/alone$i" > /dev/null
done
cmp "$trace_dir/run1.jsonl" "$trace_dir/run2.jsonl"
cmp "$trace_dir/alone1-pipeline.jsonl" "$trace_dir/alone2-pipeline.jsonl"

echo "==> explain smoke (byte-identical reports across runs and formats)"
for i in 1 2; do
  ./target/release/ssr-cli explain "$trace_dir/run1.jsonl" \
    --alone "$trace_dir/alone1-pipeline.jsonl" > "$trace_dir/explain$i.txt"
  ./target/release/ssr-cli explain "$trace_dir/run1.jsonl" \
    --alone "$trace_dir/alone1-pipeline.jsonl" --json > "$trace_dir/explain$i.json"
  ./target/release/figures --explain "$trace_dir/figexplain$i.txt" > /dev/null
done
cmp "$trace_dir/explain1.txt" "$trace_dir/explain2.txt"
cmp "$trace_dir/explain1.json" "$trace_dir/explain2.json"
cmp "$trace_dir/figexplain1.txt" "$trace_dir/figexplain2.txt"
grep -q "slowdown attribution" "$trace_dir/explain1.txt"

echo "==> fault smoke (faulted run is deterministic and invariant-clean)"
for i in 1 2; do
  ./target/release/ssr-cli run --cluster 2x2 --policy ssr --seed 7 \
    --fg "pipeline:phases=3,par=4,prio=10" --bg "maponly:tasks=16,secs=10" \
    --faults "crash:node=0,at=3,down=8;storm:at=20,secs=10,factor=2" \
    --trace "$trace_dir/faulted$i.jsonl" > /dev/null
done
cmp "$trace_dir/faulted1.jsonl" "$trace_dir/faulted2.jsonl"
grep -q '"event":"task-crashed"' "$trace_dir/faulted1.jsonl"
./target/release/ssr-cli check "$trace_dir/faulted1.jsonl" | grep -q "0 violations"

echo "==> protocol exploration (pinned state count, byte-identical JSON)"
for i in 1 2; do
  ./target/release/ssr-cli check --explore --json > "$trace_dir/explore$i.json"
done
cmp "$trace_dir/explore1.json" "$trace_dir/explore2.json"
grep -q '"states": 91' "$trace_dir/explore1.json"
grep -q '"clean": true' "$trace_dir/explore1.json"

echo "==> counters smoke (byte-stable, worker-count-invariant, run-invisible)"
# The counter plane is deterministic: same seed => same bytes, at any
# worker count, and reporting it must not move a byte of the run output.
for i in 1 2; do
  ./target/release/figures --counters "$trace_dir/figcounters$i.json" > /dev/null
done
cmp "$trace_dir/figcounters1.json" "$trace_dir/figcounters2.json"
grep -q '"offer_rounds"' "$trace_dir/figcounters1.json"
run_counted() {
  ./target/release/ssr-cli run --cluster 2x2 --policy ssr --seed 7 \
    --fg "pipeline:phases=3,par=4,prio=10" --bg "maponly:tasks=16,secs=10" "$@"
}
run_counted --json > "$trace_dir/plain.json"
run_counted --json --counters > "$trace_dir/counted.json"
head -n "$(wc -l < "$trace_dir/plain.json")" "$trace_dir/counted.json" \
  > "$trace_dir/counted-head.json"
cmp "$trace_dir/plain.json" "$trace_dir/counted-head.json"
run_counted --json --counters --jobs 1 > "$trace_dir/counters-j1.json"
run_counted --json --counters --jobs 8 > "$trace_dir/counters-j8.json"
cmp "$trace_dir/counters-j1.json" "$trace_dir/counters-j8.json"
grep -q '"tasks_assigned"' "$trace_dir/counters-j1.json"

echo "==> simbench (replica fidelity tests + one untraced pass per workload)"
# The benchmark package pins the engine's counters and outputs and keeps
# a replica of the simulation loop; a broken pin or replica fails here.
cargo test -q --release --offline --manifest-path simbench/Cargo.toml
for workload in fig15 paper_scale traced_faults; do
  result=$(cargo run -q --release --offline --manifest-path simbench/Cargo.toml -- \
    --workload "$workload" --seed 81 --seconds 1 --trace 0 | tail -n 1)
  echo "$workload: $result"
  grep -q '"correct": true' <<< "$result"
done

echo "==> bench regression gate (offer_round rows vs BENCH_scheduler.json, +/-20%)"
CRITERION_OUTPUT_JSON="$trace_dir/bench-now.json" \
  cargo bench -q -p ssr-bench --bench scheduler --offline > /dev/null
./target/release/ssr-cli bench diff BENCH_scheduler.json "$trace_dir/bench-now.json" \
  --threshold 20 --only offer_round

echo "==> ci.sh: all green"
