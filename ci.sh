#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

echo "==> cargo test"
cargo test -q --workspace

echo "==> observability smoke (simulate + netrs-analyze)"
# NB: a --bin filter would apply across both -p flags and silently skip
# the netrs-analyze binary, leaving a stale copy in target/debug.
cargo build -q -p netrs-sim -p netrs-analyze
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
for scheme in clirs netrs-ilp; do
    ./target/debug/simulate --small --scheme "$scheme" --requests 5000 --seed 5 \
        --trace "$SMOKE/$scheme.jsonl" --trace-hops \
        --timeseries "$SMOKE/$scheme-ts.jsonl" \
        --devices "$SMOKE/$scheme-dev.jsonl" --json > "$SMOKE/$scheme-stats.json"
done
./target/debug/netrs-analyze report \
    --trace "clirs=$SMOKE/clirs.jsonl" --trace "netrs-ilp=$SMOKE/netrs-ilp.jsonl" \
    --devices "$SMOKE/netrs-ilp-dev.jsonl" --timeseries "$SMOKE/netrs-ilp-ts.jsonl" \
    --bench-json "$SMOKE/bench.json" --top 5 > "$SMOKE/report.txt"
grep -q "Per-phase latency comparison" "$SMOKE/report.txt"
./target/debug/netrs-analyze check-bench "$SMOKE/bench.json"

echo "==> determinism smoke (same seed, twice, byte-identical stats)"
for scheme in clirs-r95 netrs-tor; do
    ./target/debug/simulate --small --scheme "$scheme" --requests 5000 --seed 7 \
        --json > "$SMOKE/$scheme-det-a.json"
    ./target/debug/simulate --small --scheme "$scheme" --requests 5000 --seed 7 \
        --json > "$SMOKE/$scheme-det-b.json"
    diff -u "$SMOKE/$scheme-det-a.json" "$SMOKE/$scheme-det-b.json"
done

echo "==> control-plane smoke (deterministic stream, run unperturbed)"
./target/debug/simulate --small --scheme netrs-ilp --requests 5000 --seed 5 \
    --control "$SMOKE/ctl-a.jsonl" --json > "$SMOKE/ctl-stats-a.json"
./target/debug/simulate --small --scheme netrs-ilp --requests 5000 --seed 5 \
    --control "$SMOKE/ctl-b.jsonl" --json > "$SMOKE/ctl-stats-b.json"
# Same seed twice: the control stream must be byte-identical.
diff -u "$SMOKE/ctl-a.jsonl" "$SMOKE/ctl-b.jsonl"
# Without --control the run itself must not change: identical stats.
./target/debug/simulate --small --scheme netrs-ilp --requests 5000 --seed 5 \
    --json > "$SMOKE/ctl-stats-plain.json"
diff -u "$SMOKE/ctl-stats-a.json" "$SMOKE/ctl-stats-plain.json"
./target/debug/netrs-analyze control "netrs-ilp=$SMOKE/ctl-a.jsonl" \
    | grep -q "plan churn"

echo "==> scale-placement smoke (k=32 NetRS-ILP, greedy plan, deterministic stream)"
# At k=32 the model is too large for the ILP, so Auto plans with the greedy
# alone. Same seed twice: identical control streams, and the bootstrap
# solve record must be the greedy's, opening the pinned 19 RSNodes.
for i in a b; do
    ./target/debug/simulate --config tests/fixtures/scale-ilp-smoke.json \
        --control "$SMOKE/scale-ctl-$i.jsonl" --json > /dev/null
done
cmp "$SMOKE/scale-ctl-a.jsonl" "$SMOKE/scale-ctl-b.jsonl"
grep '"trigger":"initial"' "$SMOKE/scale-ctl-a.jsonl" > "$SMOKE/scale-boot.jsonl"
grep -q '"solve":{"greedy":true,' "$SMOKE/scale-boot.jsonl"
grep -q '"objective":19}' "$SMOKE/scale-boot.jsonl"

echo "==> per-client memory smoke (k=32 CliRS, 5 000 clients x 1 000 servers)"
# Per-client state must scale with what each client touches: a full
# latency histogram or a dense C3 table per client put this run near
# 300 MB; compact C3 estimates keep it around 20 MB.
./target/debug/simulate --config tests/fixtures/scale-ilp-smoke.json --scheme clirs \
    --perf "$SMOKE/scale-clirs-perf.json" --json > /dev/null
rss_kb=$(grep -o '"peak_rss_kb": [0-9]*' "$SMOKE/scale-clirs-perf.json" | tr -dc 0-9)
if [ "$rss_kb" -ge 100000 ]; then
    echo "k=32 CliRS peak RSS ${rss_kb} kB, want < 100000 kB"
    exit 1
fi

echo "==> paper-placement smoke (k=16 NetRS-ILP, greedy plan certified by the capacity floor)"
# The paper's load needs at least 2 accelerators and the greedy opens 2,
# so Auto returns the greedy plan as optimal without branch-and-bound.
./target/debug/simulate --scheme netrs-ilp --requests 20000 --seed 3 \
    --control "$SMOKE/paper-ctl.jsonl" --json > /dev/null
grep '"trigger":"initial"' "$SMOKE/paper-ctl.jsonl" \
    | grep -q '"lp_iterations":0,"branch_nodes":0,"objective":2}'

echo "==> perf smoke (tiny perf suite, artifact validates)"
# Runs the perf harness end to end at test scale and validates the
# artifact's shape. Deliberately no time gating: CI boxes are too noisy
# for that; real baselines are pinned in BENCH_PERF.json at the repo root.
cargo build -q -p netrs-bench --bin repro
./target/debug/repro perf --small --tag smoke --out "$SMOKE/perf.json"
./target/debug/netrs-analyze check-bench "$SMOKE/perf.json" > "$SMOKE/perf-check.txt"
grep -q "versioned v1" "$SMOKE/perf-check.txt"
./target/debug/netrs-analyze perf "$SMOKE/perf.json" | grep -q "by layer"
# Two-artifact mode: an artifact never regresses against itself.
./target/debug/netrs-analyze check-bench "$SMOKE/perf.json" "$SMOKE/perf.json" \
    --threshold 0.05 | grep -q "Bench comparison"

echo "==> perf-profile smoke (simulate --perf, profiler must not perturb)"
# A profiled run must produce byte-identical stats to the plain run above
# and a schema-valid profile the analyzer can render.
./target/debug/simulate --small --scheme netrs-ilp --requests 5000 --seed 5 \
    --perf "$SMOKE/perf-profile.json" --json > "$SMOKE/perf-prof-stats.json"
diff -u "$SMOKE/ctl-stats-plain.json" "$SMOKE/perf-prof-stats.json"
grep -q '"schema_version": 1' "$SMOKE/perf-profile.json"
./target/debug/netrs-analyze check-bench "$SMOKE/perf-profile.json" | grep -q "versioned v1"
./target/debug/netrs-analyze perf "$SMOKE/perf-profile.json" | grep -q "by layer"
# The pinned repo baseline stays schema-valid too.
./target/debug/netrs-analyze check-bench BENCH_PERF.json | grep -q "versioned v1"

echo "==> removed-flag smoke (intra-run engine flags are usage errors)"
# The sharded and parallel engines are gone; their flags must fail
# loudly with the usage exit status, never be silently ignored.
for flags in "--shards 2" "--threads 2" "--lookahead-mult 2" "sweep --cell-threads 2"; do
    status=0
    # shellcheck disable=SC2086 # word-split the flag list on purpose
    ./target/debug/simulate $flags --small --requests 100 --json \
        > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "simulate $flags exited $status, want 2 (usage)"
        exit 1
    fi
done

echo "==> parallel-sweep smoke (grid artifact, renderer, cells match solo runs)"
# No wall-clock gating (CI boxes are too noisy and may be single-core);
# the measured speedup lands in the artifact for EXPERIMENTS.md instead.
./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 7 \
    --json > "$SMOKE/solo-seq.json"
./target/debug/simulate sweep --small --requests 5000 --seeds 5,7 --schemes all \
    --baseline --out "$SMOKE/sweep.json"
grep -q '"schema_version": 1' "$SMOKE/sweep.json"
grep -q '"speedup"' "$SMOKE/sweep.json"
./target/debug/netrs-analyze sweep "$SMOKE/sweep.json" > "$SMOKE/sweep.txt"
grep -q "## Sweep: 8 cells" "$SMOKE/sweep.txt"
grep -q "speedup" "$SMOKE/sweep.txt"
# A sweep cell is the same simulation as a solo run of the same config:
# the netrs-tor/seed-7 cell must carry the mean the solo run above reported.
mean_solo=$(grep -A 2 '"latency"' "$SMOKE/solo-seq.json" | grep '"mean"' | head -1 | tr -dc 0-9)
grep -q "\"mean\": $mean_solo" "$SMOKE/sweep.json"

echo "==> alloc-profile feature (counting allocator, integration test)"
cargo test -q -p netrs-sim --features alloc-profile --test alloc_profile

echo "==> fault-injection smoke (scripted plan, same seed twice, byte-identical stats)"
for scheme in clirs netrs-tor; do
    ./target/debug/simulate --small --scheme "$scheme" --requests 5000 --seed 7 \
        --faults tests/fixtures/faults/smoke.json --json > "$SMOKE/$scheme-faults-a.json"
    ./target/debug/simulate --small --scheme "$scheme" --requests 5000 --seed 7 \
        --faults tests/fixtures/faults/smoke.json --json > "$SMOKE/$scheme-faults-b.json"
    diff -u "$SMOKE/$scheme-faults-a.json" "$SMOKE/$scheme-faults-b.json"
    grep -q '"availability"' "$SMOKE/$scheme-faults-a.json"
done
./target/debug/netrs-analyze availability \
    --stats "clirs=$SMOKE/clirs-faults-a.json" --stats "netrs-tor=$SMOKE/netrs-tor-faults-a.json" \
    | grep -q "Availability under faults"

echo "==> rw smoke (writes + hot-key cache, same seed twice, byte-identical stats)"
# Quorum writes and the in-switch cache must be as deterministic as the
# read path: identical seeds give identical stats including every cache
# counter, and the rw analyzer renders both runs.
for i in a b; do
    ./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 9 \
        --write-fraction 0.1 --consistency quorum:2 --hot-cache 128 \
        --json > "$SMOKE/rw-$i.json"
done
diff -u "$SMOKE/rw-a.json" "$SMOKE/rw-b.json"
grep -q '"rw"' "$SMOKE/rw-a.json"
./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 9 \
    --write-fraction 0.1 --consistency quorum:2 --hot-cache 128 \
    --devices "$SMOKE/rw-dev.jsonl" --json > /dev/null
./target/debug/netrs-analyze rw --stats "netrs-tor=$SMOKE/rw-a.json" \
    --devices "$SMOKE/rw-dev.jsonl" > "$SMOKE/rw-report.txt"
grep -q "Read/write mix" "$SMOKE/rw-report.txt"
grep -q "Per-operator cache" "$SMOKE/rw-report.txt"

echo "==> cache-invalidation-under-fault smoke (lost coherence => stale reads, deterministic)"
# Half the packets die mid-run: invalidations are lost with everything
# else, so stale reads must appear — and identically across two runs.
for i in a b; do
    ./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 9 \
        --write-fraction 0.2 --hot-cache 128 \
        --faults tests/fixtures/faults/invalidation-loss.json \
        --json > "$SMOKE/rw-faults-$i.json"
done
diff -u "$SMOKE/rw-faults-a.json" "$SMOKE/rw-faults-b.json"
grep -q '"stale_reads"' "$SMOKE/rw-faults-a.json"

echo "==> CI green"
