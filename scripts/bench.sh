#!/bin/sh
# bench.sh — run the Table/Fig benchmarks and append a machine-readable
# record to BENCH_<date>.json in the repo root.
#
# Usage:
#   scripts/bench.sh [-dirty] [label] [bench-regex] [benchtime]
#
#   -dirty      allow recording from a tree with uncommitted changes. By
#               default a dirty tree is refused: a committed BENCH_*.json
#               line is a perf baseline, and a baseline whose commit hash
#               doesn't describe the measured code is worse than none.
#   label       free-form tag stored with the run (default: "dev")
#   bench-regex go test -bench regex, matched in every package of the
#               module (default: the Table/Fig benches). Benchmark names are
#               unique across packages, so each record names one benchmark.
#   benchtime   go test -benchtime (default: 1x — a smoke pass; use e.g.
#               3x or 2s for lower-variance numbers)
#
# Environment:
#   BENCH_OUT    overrides the output file (default BENCH_<date>.json).
#   BENCH_PROCS  space-separated GOMAXPROCS values; the benchmarks run once
#                per value and each run appends its own record line (the
#                scaling curve, e.g. BENCH_PROCS="1 4 16"). Defaults to the
#                current GOMAXPROCS (or the CPU count).
#
# The output file is JSON lines: one JSON object per run, so a before/after
# pair is two lines in the same file. Each object carries the label, commit,
# GOMAXPROCS, and the parsed benchmark results
# ({name, iters, metrics:{"ns/op": ..., ...}}). cmd/benchbudget consumes
# this format to enforce the CI perf budget.
set -eu

cd "$(dirname "$0")/.."

ALLOW_DIRTY=0
if [ "${1:-}" = "-dirty" ]; then
    ALLOW_DIRTY=1
    shift
fi

LABEL="${1:-dev}"
REGEX="${2:-^(BenchmarkTable|BenchmarkFig)}"
BENCHTIME="${3:-1x}"

DATE="$(date -u +%Y-%m-%d)"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
OUT="${BENCH_OUT:-BENCH_${DATE}.json}"
# Record the tree the run actually measured: the per-run commit, suffixed
# with -dirty when uncommitted changes are present (an unsuffixed before/
# after pair from the same commit would be indistinguishable otherwise).
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$COMMIT" != unknown ] && ! git diff --quiet HEAD -- 2>/dev/null; then
    if [ "$ALLOW_DIRTY" != 1 ]; then
        echo "bench.sh: working tree has uncommitted changes; commit first or pass -dirty to record anyway" >&2
        exit 1
    fi
    COMMIT="${COMMIT}-dirty"
fi
DEFAULT_PROCS="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"
PROCS_LIST="${BENCH_PROCS:-$DEFAULT_PROCS}"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

for PROCS in $PROCS_LIST; do
    echo "bench.sh: running -bench='$REGEX' -benchtime=$BENCHTIME GOMAXPROCS=$PROCS ..." >&2
    GOMAXPROCS="$PROCS" go test -run '^$' -bench "$REGEX" -benchtime "$BENCHTIME" -benchmem ./... | tee "$RAW" >&2

    awk -v label="$LABEL" -v stamp="$STAMP" -v commit="$COMMIT" -v procs="$PROCS" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        if (metrics != "") metrics = metrics ","
        metrics = metrics "\"" $(i + 1) "\":" $i
    }
    if (n > 0) results = results ","
    results = results "{\"name\":\"" name "\",\"iters\":" iters ",\"metrics\":{" metrics "}}"
    n++
}
END {
    printf "{\"label\":\"%s\",\"time\":\"%s\",\"commit\":\"%s\",\"gomaxprocs\":%s,\"results\":[%s]}\n",
        label, stamp, commit, procs, results
}' "$RAW" >>"$OUT"

    echo "bench.sh: appended $(grep -c '^Benchmark' "$RAW") results to $OUT (label=$LABEL, gomaxprocs=$PROCS)" >&2
done
