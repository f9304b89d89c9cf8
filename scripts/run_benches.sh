#!/usr/bin/env sh
# Query-path benchmark sweep across GOMAXPROCS settings.
#
# The committed BENCH_query.json is a single-host snapshot at the
# host's default GOMAXPROCS; this script measures how the pruning modes
# of the query walk (columnar / columnar+prune / shells) behave as the
# scheduler is given 1, 2, ... P cores, and merges every per-setting
# summary into ONE JSON document (scripts/mergebench), so a whole sweep
# ships as a single artifact. Every individual run still gates on the
# brute-force bit-equivalence oracle before timing — a sweep that
# measures a wrong answer exits non-zero instead.
#
# Usage: scripts/run_benches.sh [-n N] [-queries Q] [-procs 1,2,4]
#                               [-workers 1,4] [-topns 10,100]
#                               [-out BENCH_sweep.json]
set -eu

cd "$(dirname "$0")/.."

N=20000
QUERIES=48
PROCS="1,2,4"
WORKERS="1,4"
TOPNS="10,100"
OUT="BENCH_sweep.json"

while [ $# -gt 0 ]; do
    case "$1" in
    -n) N="$2"; shift 2 ;;
    -queries) QUERIES="$2"; shift 2 ;;
    -procs) PROCS="$2"; shift 2 ;;
    -workers) WORKERS="$2"; shift 2 ;;
    -topns) TOPNS="$2"; shift 2 ;;
    -out) OUT="$2"; shift 2 ;;
    *) echo "run_benches.sh: unknown flag $1" >&2; exit 2 ;;
    esac
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for p in $(echo "$PROCS" | tr ',' ' '); do
    echo "== query scaling at GOMAXPROCS=$p (n=$N, queries=$QUERIES, workers=$WORKERS, topns=$TOPNS)"
    GOMAXPROCS="$p" go run ./cmd/onionbench -query-scaling \
        -n "$N" -queries "$QUERIES" \
        -query-workers "$WORKERS" -query-topns "$TOPNS" \
        -query-out "$tmpdir/query_p$p.json"
done

go run ./scripts/mergebench "$OUT" "$tmpdir"/query_p*.json
echo "sweep written to $OUT"
