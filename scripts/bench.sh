#!/usr/bin/env bash
# Runs the criterion benches with a pinned noise seed and emits
# BENCH_<n>.json — one "median ns/iter" entry per bench label — so
# the perf trajectory across PRs is machine-readable.
#
# Usage:
#   scripts/bench.sh              # run benches, write BENCH_10.json
#   scripts/bench.sh --smoke      # CI mode: compile benches, run a
#                                 # fast scaling curve + wire sweep,
#                                 # write nothing
#   PR=9 scripts/bench.sh         # write BENCH_9.json instead
#   REPS=5 scripts/bench.sh       # more release_hot_path repetitions
#
# The cheap release_hot_path bench runs REPS times (median per label);
# the broader micro suite, the engine scaling curve (8-job batch
# wall time at 1/2/4/8 workers, `engine_scaling/jobs_batch8/<w>`),
# the wire-path curve (`wire_path/sweep100/framed`,
# `wire_path/submit_*/c{1,64,1000}`), and the durable-store curve
# (`store_path/{cold_prepare,warm_reload,wal_append}` — the fsync
# cost of crash safety) run once. HCC_SEED pins the RNG
# stream the release_hot_path bench draws from (default 0). The
# scaling run also dumps each point's engine telemetry snapshot
# (stage latency quantiles, steal/gate counters), embedded under a
# "telemetry" key in BENCH_N.json so a scaling regression names the
# stage it grew in.
set -euo pipefail
cd "$(dirname "$0")/.."

export HCC_SEED="${HCC_SEED:-0}"
PR="${PR:-10}"
OUT="BENCH_${PR}.json"
REPS="${REPS:-3}"

# A scoreboard entry from a tree that violates the workspace
# invariants (docs/lints.md) would pin a number nobody should trust;
# refuse to emit one. Smoke mode runs the same gate so CI fails fast.
cargo run --release -q -p hcc-lint -- --deny all

if [[ "${1:-}" == "--smoke" ]]; then
  cargo bench -p hcc-bench --no-run
  # Tiny scaling curve: proves the harness runs end-to-end without
  # paying for the full measurement workload.
  HCC_SCALING_SCALE=2e-6 HCC_SCALING_BOUND=500 HCC_SCALING_REPS=1 \
    cargo run --release -q -p hcc-bench --bin scaling
  # Tiny wire curve: reactor + framed protocol end-to-end over
  # loopback, without the full 1000-connection measurement.
  HCC_WIRE_SWEEP=8 HCC_WIRE_CONNS=1,8 HCC_WIRE_OPS=2 \
    cargo run --release -q -p hcc-bench --bin engine_wire
  # Tiny store curve: WAL append + checkpoint + warm reload on real
  # files, without the full dataset count.
  HCC_STORE_DATASETS=2 HCC_STORE_NODES=32 HCC_STORE_CHARGES=8 HCC_STORE_RELOADS=2 \
    cargo run --release -q -p hcc-bench --bin store_path
  echo "bench smoke OK (benches compile; scaling + wire + store curves ran)"
  exit 0
fi

RAW=$(mktemp)
METRICS=$(mktemp)
trap 'rm -f "$RAW" "$METRICS"' EXIT

for _ in $(seq "$REPS"); do
  cargo bench -p hcc-bench --bench release_hot_path | tee -a "$RAW"
done
cargo bench -p hcc-bench --bench micro | tee -a "$RAW"
HCC_SCALING_METRICS="$METRICS" \
  cargo run --release -q -p hcc-bench --bin scaling | tee -a "$RAW"
cargo run --release -q -p hcc-bench --bin engine_wire | tee -a "$RAW"
cargo run --release -q -p hcc-bench --bin store_path | tee -a "$RAW"

python3 - "$RAW" "$OUT" "$HCC_SEED" "$REPS" "$METRICS" <<'EOF'
import json
import re
import statistics
import sys

samples = {}
with open(sys.argv[1]) as fh:
    for line in fh:
        m = re.match(r"^(\S+)\s+(\d+)\s+ns/iter\s*$", line)
        if m:
            samples.setdefault(m.group(1), []).append(int(m.group(2)))
if not samples:
    sys.exit("no bench output parsed — did the harness format change?")
doc = {
    "seed": int(sys.argv[3]),
    "reps_release_hot_path": int(sys.argv[4]),
    "unit": "ns/iter",
    "stat": "median",
    "benches": {k: int(statistics.median(v)) for k, v in sorted(samples.items())},
}
# Per-worker-count engine telemetry from the scaling run: stage
# latency attribution for the jobs_batch8 curve, keyed "scaling
# workers" -> snapshot.
try:
    with open(sys.argv[5]) as fh:
        doc["telemetry"] = {"engine_scaling/jobs_batch8": json.load(fh)}
except (OSError, ValueError):
    print("warning: no telemetry snapshot captured", file=sys.stderr)
with open(sys.argv[2], "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
print(f"wrote {sys.argv[2]} with {len(doc['benches'])} benches")
EOF
