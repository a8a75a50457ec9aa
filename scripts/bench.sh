#!/usr/bin/env sh
# Runs the tracked microbenchmark suites and records the results as JSON
# in the repo root, so the perf trajectory is tracked as data instead of
# anecdotes:
#
#   BENCH_sim.json     simulator hot-path microbenchmarks (directory ops,
#                      L1 hit loop, access mix, full Machine.Run per
#                      workload; package ./internal/sim)
#   BENCH_contend.json contended-workload benchmarks (package
#                      ./internal/workload/contend): Machine.Run at p=8
#                      under joined (invalidation-storm) vs split
#                      (privatized) traffic, plus the native goroutine
#                      pool at 4 threads. The joined/split ns_per_op
#                      ratio is the simulated cost of sharing hot lines.
#
# End-to-end performance (registry regeneration, cache replay, /sweep and
# HTTP serving) is measured with spread by `bash benchmark/run.sh`; see
# BENCHMARK.json.
#
# Run from anywhere; knobs via environment:
#
#   BENCH_SIM_PATTERN  sim benchmark regexp      (default BenchmarkSim)
#   BENCH_SIM_TIME     sim -benchtime     (default 100x: the micro-
#                      benchmarks are fast, one iteration is all noise)
#   BENCH_CONTEND_PATTERN  contend benchmark regexp (default
#                      BenchmarkContend)
#   BENCH_CONTEND_TIME contend -benchtime (default 20x)
#   BENCH_COUNT        -count value       (default 1)
#   BENCH_SUITES       space-separated subset of "sim contend" to run
#                      (default: both) — regenerate one JSON file without
#                      paying for the other
#
# The allocs/op columns are CPU-count independent.
set -eu

cd "$(dirname "$0")/.."

count=${BENCH_COUNT:-1}
suites=${BENCH_SUITES:-sim contend}

want_suite() {
    case " $suites " in
        *" $1 "*) return 0 ;;
        *) return 1 ;;
    esac
}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# run_suite PKG PATTERN BENCHTIME — appends one benchmark run to $tmp,
# preceded by a marker line tagging the rows with their protocol.
run_suite() {
    pkg=$1; pattern=$2; benchtime=$3
    echo "== go test $pkg -bench $pattern (benchtime $benchtime, count $count) =="
    echo "##benchtime=$benchtime" >> "$tmp"
    go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" -benchmem "$pkg" | tee -a "$tmp"
}

# emit_json OUT — converts the accumulated `BenchmarkName-P  iters  ns/op
# B/op  allocs/op` lines in $tmp into OUT as JSON, one row per benchmark
# per protocol. (On 1-CPU machines go omits the -P suffix; fall back to
# the CPU count.)
emit_json() {
    out=$1
    ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
    awk -v goversion="$(go env GOVERSION)" -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" -v defprocs="$ncpu" '
BEGIN { n = 0; bt = "" }
/^##benchtime=/ { bt = $0; sub(/^##benchtime=/, "", bt); next }
/^Benchmark/ {
    name = $1
    procs = defprocs
    if (name ~ /-[0-9]+$/) {
        procs = name; sub(/^.*-/, "", procs)
        sub(/-[0-9]+$/, "", name)
    }
    iters = $2
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    rec = sprintf("    {\"name\": \"%s\", \"benchtime\": \"%s\", \"procs\": %s, \"iterations\": %s, \"ns_per_op\": %s", name, bt, procs, iters, ns)
    if (bytes != "")  rec = rec sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") rec = rec sprintf(", \"allocs_per_op\": %s", allocs)
    recs[n++] = rec "}"
}
END {
    if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"go\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n", goversion, goos, goarch
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n - 1 ? "," : "")
    print "  ]"
    print "}"
}' "$tmp" > "$out"

    echo "wrote $out:"
    cat "$out"
}

if want_suite sim; then
    : > "$tmp"
    run_suite ./internal/sim "${BENCH_SIM_PATTERN:-BenchmarkSim}" "${BENCH_SIM_TIME:-100x}"
    emit_json BENCH_sim.json
fi

if want_suite contend; then
    : > "$tmp"
    run_suite ./internal/workload/contend "${BENCH_CONTEND_PATTERN:-BenchmarkContend}" "${BENCH_CONTEND_TIME:-20x}"
    emit_json BENCH_contend.json
fi
