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
#                      (privatized) traffic, one held machine Reset
#                      before each run. The joined/split ns_per_op ratio
#                      is the simulated cost of sharing hot lines.
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
#   BENCH_COUNT        -count value       (default 5)
#   BENCH_SUITES       space-separated subset of "sim contend" to run
#                      (default: both) — regenerate one JSON file without
#                      paying for the other
#
# Each benchmark runs BENCH_COUNT times and becomes one JSON row: its
# ns_per_op is the median over the runs (mean of the middle two for an
# even count), next to ns_per_op_min and ns_per_op_max as the spread,
# runs, and nproc, the online CPU count of the recording machine. Compare
# rows from different machines only with their nproc in view. The bytes
# and allocs columns are medians too, and CPU-count independent.
set -eu

cd "$(dirname "$0")/.."

count=${BENCH_COUNT:-5}
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
# per protocol, aggregating its -count runs into median, min and max. (On
# 1-CPU machines go omits the -P suffix; fall back to the CPU count.)
emit_json() {
    out=$1
    ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
    awk -v goversion="$(go env GOVERSION)" -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" -v ncpu="$ncpu" '
# sorted fills s[0..m-1] with the m values v[k, 0..m-1] in ascending order.
function sorted(v, k, m,    i, j, x) {
    for (i = 0; i < m; i++) {
        x = v[k, i] + 0
        for (j = i; j > 0 && s[j - 1] > x; j--) s[j] = s[j - 1]
        s[j] = x
    }
}
function median(v, k, m) {
    sorted(v, k, m)
    return m % 2 ? s[(m - 1) / 2] : (s[m / 2 - 1] + s[m / 2]) / 2
}
BEGIN { n = 0; bt = "" }
/^##benchtime=/ { bt = $0; sub(/^##benchtime=/, "", bt); next }
/^Benchmark/ {
    name = $1
    procs = ncpu
    if (name ~ /-[0-9]+$/) {
        procs = name; sub(/^.*-/, "", procs)
        sub(/-[0-9]+$/, "", name)
    }
    k = name SUBSEP bt
    if (!(k in runs)) {
        keys[n++] = k; kname[k] = name; kbt[k] = bt; kprocs[k] = procs; kiters[k] = $2
    }
    r = runs[k]++
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns[k, r] = $i
        if ($(i + 1) == "B/op") { bytes[k, r] = $i; hasb[k] = 1 }
        if ($(i + 1) == "allocs/op") { allocs[k, r] = $i; hasa[k] = 1 }
    }
}
END {
    if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"go\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n", goversion, goos, goarch
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) {
        k = keys[i]; m = runs[k]
        med = median(ns, k, m)
        rec = sprintf("    {\"name\": \"%s\", \"benchtime\": \"%s\", \"procs\": %s, \"nproc\": %s, \"iterations\": %s, \"runs\": %d, \"ns_per_op\": %.10g, \"ns_per_op_min\": %.10g, \"ns_per_op_max\": %.10g", kname[k], kbt[k], kprocs[k], ncpu, kiters[k], m, med, s[0], s[m - 1])
        if (hasb[k]) rec = rec sprintf(", \"bytes_per_op\": %.10g", median(bytes, k, m))
        if (hasa[k]) rec = rec sprintf(", \"allocs_per_op\": %.10g", median(allocs, k, m))
        printf "%s}%s\n", rec, (i < n - 1 ? "," : "")
    }
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
