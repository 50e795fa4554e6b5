#!/usr/bin/env bash
# CI gate: build, test, lint. Everything runs offline — external
# dependencies resolve to the stand-ins under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> rustfmt --check (crates/trace, held to rustfmt.toml's 120 columns)"
# rustfmt walks the crate's module tree from lib.rs. The rest of the
# workspace predates rustfmt.toml and is not yet held to it.
rustfmt --check --edition 2021 crates/trace/src/lib.rs

echo "==> determinism fixtures (each determinism code is rejected by its clippy lint)"
# Lints tests/fixtures/determinism with the determinism pass below and
# fails unless every `//~ LINT` line is rejected by LINT and nothing else
# is.
cargo test -q --offline --test lint_codes

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> determinism pass (crates/clippy.toml bans on shipped code; tests exempt)"
cargo clippy --workspace --lib --bins --offline -- -D warnings \
  -D clippy::disallowed_types -D clippy::disallowed_methods

echo "==> cargo doc (broken intra-doc links and other rustdoc warnings fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo bench -- --test (smoke)"
cargo bench --workspace --offline -- --test

echo "==> examples (each runs in release mode and must exit 0)"
for example in examples/*.rs; do
  cargo run -q --release --offline --example "$(basename "$example" .rs)" > /dev/null
done

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

echo "==> hostile trace smoke (a malformed trace is an error, exit 1, never a panic, exit 101)"
header='{"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}'
printf '%s\n%s\n' "$header" \
  '{"event":"job-completed","fields":{"job":0},"seq":1,"time_secs":1e400}' > "$trace_dir/inf.jsonl"
printf '%s\n%s\n' "$header" \
  '{"event":"job-completed","fields":{"bogus":5,"job":0},"seq":1,"time_secs":0.0}' \
  > "$trace_dir/unknown.jsonl"
printf '%s\n%s\n' "$header" \
  '{"event":"job-completed","fields":{"job":0,"job":0},"seq":1,"time_secs":0.0}' \
  > "$trace_dir/duplicate.jsonl"
for doc in inf unknown duplicate; do
  for cmd in check explain; do
    status=0
    ./target/release/ssr-cli "$cmd" "$trace_dir/$doc.jsonl" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
      echo "ssr-cli $cmd $doc.jsonl exited $status, want 1"
      exit 1
    fi
  done
done
# A well-formed trace naming slot 4294967295 is explained at the cost of
# the slots it touches, not one gantt row per index below it.
printf '%s\n%s\n%s\n%s\n' "$header" \
  '{"event":"job-submitted","fields":{"job":0,"name":"far","priority":10,"stages":[{"parents":[],"tasks":1}]},"seq":1,"time_secs":0.0}' \
  '{"event":"reservation-granted","fields":{"deadline_secs":null,"job":0,"priority":10,"slot":4294967295,"stage":0},"seq":2,"time_secs":1.0}' \
  '{"event":"job-completed","fields":{"job":0},"seq":3,"time_secs":2.0}' > "$trace_dir/far.jsonl"
timeout 30 ./target/release/ssr-cli explain "$trace_dir/far.jsonl" > "$trace_dir/far.txt"
grep -q "^slot 4294967295 |" "$trace_dir/far.txt"
# The reader takes keys in any order: the same trace with each `fields`
# object's keys reversed explains to the same bytes.
printf '%s\n%s\n%s\n%s\n' "$header" \
  '{"event":"job-submitted","fields":{"stages":[{"parents":[],"tasks":1}],"priority":10,"name":"far","job":0},"seq":1,"time_secs":0.0}' \
  '{"event":"reservation-granted","fields":{"stage":0,"slot":4294967295,"priority":10,"job":0,"deadline_secs":null},"seq":2,"time_secs":1.0}' \
  '{"event":"job-completed","fields":{"job":0},"seq":3,"time_secs":2.0}' > "$trace_dir/far-reversed.jsonl"
timeout 30 ./target/release/ssr-cli explain "$trace_dir/far-reversed.jsonl" > "$trace_dir/far-reversed.txt"
cmp "$trace_dir/far.txt" "$trace_dir/far-reversed.txt"
# Lines that depart from the writer's bytes leave the direct decoder for
# the general grammar: CRLF line ends explain to the same bytes, and a
# slot past u32 is an error there, exit 1.
sed 's/$/\r/' "$trace_dir/far.jsonl" > "$trace_dir/far-crlf.jsonl"
timeout 30 ./target/release/ssr-cli explain "$trace_dir/far-crlf.jsonl" > "$trace_dir/far-crlf.txt"
cmp "$trace_dir/far.txt" "$trace_dir/far-crlf.txt"
sed 's/"slot":4294967295/"slot":4294967296/' "$trace_dir/far.jsonl" > "$trace_dir/far-overflow.jsonl"
for cmd in check explain; do
  status=0
  timeout 30 ./target/release/ssr-cli "$cmd" "$trace_dir/far-overflow.jsonl" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "ssr-cli $cmd far-overflow.jsonl exited $status, want 1"
    exit 1
  fi
done

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
# Attaching a trace must not move a byte of the report either: a timeout
# run whose saturated rounds decline offers and whose reservations expire.
run_timeout() {
  ./target/release/ssr-cli run --cluster 2x2 --policy timeout:5 --seed 7 \
    --fg "pipeline:phases=3,par=4,prio=10" --bg "maponly:tasks=16,secs=10" \
    --json --counters "$@"
}
run_timeout > "$trace_dir/untraced.json"
run_timeout --trace "$trace_dir/timeout.jsonl" > "$trace_dir/traced.json"
cmp "$trace_dir/untraced.json" "$trace_dir/traced.json"
grep -q '"event":"offer-declined"' "$trace_dir/timeout.jsonl"
grep -q '"event":"reservation-expired"' "$trace_dir/timeout.jsonl"
# A saturated SSR mix under each job order: untraced, a round declines
# the candidates no reservation group can approve in bulk; traced, it
# attempts and declines each one. Both must report and count the same.
run_saturated() {
  ./target/release/ssr-cli run --cluster 10x4 --policy ssr --seed 7 \
    --fg "kmeans:par=40,prio=10,arrival=30" --bg "google:jobs=200,horizon=600" \
    --json --counters "$@"
}
for order in fifo-priority fair fifo; do
  run_saturated --order "$order" > "$trace_dir/saturated-$order.json"
  run_saturated --order "$order" --trace "$trace_dir/saturated-$order.jsonl" \
    > "$trace_dir/saturated-$order-traced.json"
  cmp "$trace_dir/saturated-$order.json" "$trace_dir/saturated-$order-traced.json"
  grep -q '"event":"offer-declined"' "$trace_dir/saturated-$order.jsonl"
done

echo "==> figures byte-identity (figures all at --jobs 1 and 2 vs the checked-in figures_output.txt)"
# Perf changes must leave every figure byte alone, and the worker count
# must not move one either; this holds them to both.
for jobs in 1 2; do
  ./target/release/figures all --jobs "$jobs" > "$trace_dir/figures$jobs.txt"
  cmp "$trace_dir/figures$jobs.txt" figures_output.txt
done

echo "==> simbench (replica fidelity tests + one untraced and one traced pass per workload)"
# The benchmark package pins the engine's counters and outputs and keeps
# a replica of the simulation loop; a broken pin or replica fails here.
# The traced pass runs the replica behind timing decorators that hide the
# policy's declared ApprovalRule, and checks its counters against the
# engine's: the vtable group walk must count what the rule walk counts.
cargo test -q --release --offline --manifest-path simbench/Cargo.toml
for workload in fig15 paper_scale traced_faults; do
  for trace in 0 1; do
    result=$(cargo run -q --release --offline --manifest-path simbench/Cargo.toml -- \
      --workload "$workload" --seed 81 --seconds 1 --trace "$trace" | tail -n 1)
    echo "$workload (trace $trace): $result"
    grep -q '"correct": true' <<< "$result"
  done
done

echo "==> bench regression gate (offer_round rows vs BENCH_scheduler.json, +/-20%)"
# Three runs of the gated rows, each row judged by its fastest: load from
# other work on the host only adds time, so one slow run is not a
# regression, and a row slow in all three is. The reference rows are
# themselves the fastest of three runs (EXPERIMENTS.md, "Performance").
for run in 1 2 3; do
  CRITERION_OUTPUT_JSON="$trace_dir/bench-now$run.json" \
    cargo bench -q -p ssr-bench --bench scheduler --offline -- offer_round > /dev/null
done
./target/release/ssr-cli bench diff BENCH_scheduler.json "$trace_dir"/bench-now{1,2,3}.json \
  --threshold 20 --only offer_round

echo "==> ci.sh: all green"
