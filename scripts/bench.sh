#!/usr/bin/env sh
# Runs the tracked benchmark suites and records the results as JSON in the
# repo root, so the perf trajectory is tracked as data instead of
# anecdotes:
#
#   BENCH_engine.json  registry benchmarks (serial vs fanned-out full-
#                      registry regeneration, package .), recorded under
#                      BOTH protocols: benchtime 1x (a cold process — the
#                      pre-PR-5 baseline protocol, comparable to the
#                      historical 19.7k allocs/op row) and 3x (amortized
#                      steady state of the pooled machinery — machine/
#                      worker/buffer pools and the key intern table pay
#                      their one-time setup on the first pass). Every row
#                      carries its benchtime; only compare rows at equal
#                      benchtime across commits.
#   BENCH_sim.json     simulator hot-path microbenchmarks (directory ops,
#                      L1 hit loop, access mix, full Machine.Run per
#                      workload; package ./internal/sim)
#   BENCH_contend.json contended-workload benchmarks (package
#                      ./internal/workload/contend): Machine.Run at p=8
#                      under joined (invalidation-storm) vs split
#                      (privatized) traffic, plus the native goroutine
#                      pool at 4 threads. The joined/split ns_per_op
#                      ratio is the simulated cost of sharing hot lines.
#   BENCH_serve.json   HTTP serving throughput/latency: `mergescale load`
#                      replaying a pinned trace (powerlaw, seed 1,
#                      concurrency 8, text+json mix) against a server
#                      booted over a warm -quick disk cache. Reports
#                      req/s plus p50/p95/p99 split cold (first render
#                      per key) vs warm (render-cache hits).
#   BENCH_faults.json  graceful-degradation cost: the BENCH_serve warm
#                      replay repeated at 0%, 1%, and 10% injected
#                      disk-store fault rates (-faults get.err/put.err
#                      over a warm cache). Per rate: req/s, p99 over all
#                      requests, warm p99, faults injected, and breaker
#                      trips from /metrics. The 0% row must match the
#                      serve suite's shape; the 1%/10% deltas price what
#                      a flaky disk costs the tails when every fault
#                      degrades to a recompute instead of an error.
#
# Run from anywhere; knobs via environment:
#
#   BENCH_PATTERN      registry benchmark regexp (default BenchmarkRegistry
#                      — the serial/engine pair; use . for the full suite)
#   BENCH_SIM_PATTERN  sim benchmark regexp      (default BenchmarkSim)
#   BENCH_TIMES        registry -benchtime values, space-separated
#                      (default "1x 3x")
#   BENCH_SIM_TIME     sim -benchtime     (default 100x: the micro-
#                      benchmarks are fast, one iteration is all noise)
#   BENCH_CONTEND_PATTERN  contend benchmark regexp (default
#                      BenchmarkContend)
#   BENCH_CONTEND_TIME contend -benchtime (default 20x)
#   BENCH_COUNT        -count value       (default 1)
#   BENCH_SERVE_REQUESTS     load trace length          (default 400)
#   BENCH_SERVE_CONCURRENCY  load closed-loop workers   (default 8)
#   BENCH_FAULTS_REQUESTS    faults-suite trace length  (default 200)
#   BENCH_SUITES       space-separated subset of "engine sim contend
#                      serve faults" to run (default: all five) —
#                      regenerate one JSON file without paying for the
#                      rest
#
# Note the CI/dev container exposes 1 CPU, where engine and serial times
# converge (that delta is the fan-out overhead bound); judge speedups on
# real multicore hardware (see TestRegistryEngineSpeedup). The allocs/op
# columns are CPU-count independent and are the numbers the allocation
# budget (ISSUE 5) is graded on.
set -eu

cd "$(dirname "$0")/.."

count=${BENCH_COUNT:-1}
suites=${BENCH_SUITES:-engine sim contend serve faults}

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

if want_suite engine; then
    registry_times=${BENCH_TIMES:-1x 3x}
    for bt in $registry_times; do
        run_suite . "${BENCH_PATTERN:-BenchmarkRegistry}" "$bt"
    done
    emit_json BENCH_engine.json
fi

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

if want_suite serve; then
    echo "== serve load benchmark =="
    # Pinned protocol so rows compare across commits: power-law trace over
    # all registry targets, seed 1, 8 closed-loop workers, text+json mix.
    # The disk cache is pre-warmed with a CLI pass so the measurement covers
    # serving + rendering, not simulator runtime; the render cache starts
    # cold, so the cold bucket is the first render per (target, format) key
    # and the warm bucket is render-cache hits.
    servedir=$(mktemp -d)
    serve_pid=""
    cleanup_serve() {
        [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
        rm -rf "$servedir"
        rm -f "$tmp"
    }
    trap cleanup_serve EXIT

    go build -o "$servedir/mergescale" ./cmd/mergescale
    "$servedir/mergescale" -quick -cachedir "$servedir/cache" run all > /dev/null
    "$servedir/mergescale" -quick -cachedir "$servedir/cache" serve -addr 127.0.0.1:0 \
        2> "$servedir/serve.log" &
    serve_pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's#.*serving on http://##p' "$servedir/serve.log")
        [ -n "$addr" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "bench.sh: serve did not come up:" >&2
        cat "$servedir/serve.log" >&2
        exit 1
    fi
    "$servedir/mergescale" load -url "http://$addr" \
        -profile powerlaw -seed 1 -alpha 1.5 \
        -formats text,json \
        -concurrency "${BENCH_SERVE_CONCURRENCY:-8}" \
        -requests "${BENCH_SERVE_REQUESTS:-400}" \
        -out BENCH_serve.json
    kill "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    serve_pid=""

    echo "wrote BENCH_serve.json:"
    cat BENCH_serve.json
fi

if want_suite faults; then
    echo "== fault-rate degradation benchmark =="
    # The serve protocol (powerlaw, seed 1, 8 workers, text+json) replayed
    # against servers whose disk store fails at 0%, 1%, and 10% per
    # operation (seed 1, so the fault sequence is identical across
    # commits). The cache is pre-warmed; an injected get fault turns a
    # warm hit into a recompute, so the p99 deltas price degradation,
    # never correctness — bodies stay byte-identical by construction.
    faultdir=$(mktemp -d)
    serve_pid=""
    cleanup_faults() {
        [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
        rm -rf "$faultdir"
        rm -f "$tmp"
    }
    trap cleanup_faults EXIT

    go build -o "$faultdir/mergescale" ./cmd/mergescale
    "$faultdir/mergescale" -quick -cachedir "$faultdir/cache" run all > /dev/null

    rows=""
    for rate in 0 0.01 0.1; do
        if [ "$rate" = 0 ]; then
            "$faultdir/mergescale" -quick -cachedir "$faultdir/cache" \
                serve -addr 127.0.0.1:0 2> "$faultdir/serve.log" &
        else
            "$faultdir/mergescale" -quick -cachedir "$faultdir/cache" \
                -faults "seed=1,get.err=$rate,put.err=$rate" \
                serve -addr 127.0.0.1:0 2> "$faultdir/serve.log" &
        fi
        serve_pid=$!
        addr=""
        i=0
        while [ $i -lt 100 ]; do
            addr=$(sed -n 's#.*serving on http://##p' "$faultdir/serve.log")
            [ -n "$addr" ] && break
            sleep 0.1
            i=$((i + 1))
        done
        if [ -z "$addr" ]; then
            echo "bench.sh: faulted serve ($rate) did not come up:" >&2
            cat "$faultdir/serve.log" >&2
            exit 1
        fi
        "$faultdir/mergescale" load -url "http://$addr" \
            -profile powerlaw -seed 1 -alpha 1.5 \
            -formats text,json \
            -concurrency "${BENCH_SERVE_CONCURRENCY:-8}" \
            -requests "${BENCH_FAULTS_REQUESTS:-200}" \
            -out "$faultdir/load.$rate.json" 2> /dev/null
        curl -sfS "http://$addr/metrics" > "$faultdir/metrics.$rate.txt"
        kill "$serve_pid"
        wait "$serve_pid" 2>/dev/null || true
        serve_pid=""
        rm -f "$faultdir/serve.log"

        rps=$(sed -n 's/.*"req_per_sec": \([0-9.]*\).*/\1/p' "$faultdir/load.$rate.json")
        # Bucket order in the load report is cold, warm, all.
        warm_p99=$(grep '"p99_ms"' "$faultdir/load.$rate.json" | sed -n 2p | sed 's/.*: \([0-9.]*\).*/\1/')
        all_p99=$(grep '"p99_ms"' "$faultdir/load.$rate.json" | sed -n 3p | sed 's/.*: \([0-9.]*\).*/\1/')
        injected=$(sed -n 's/^mergescale_faults_injected_total \([0-9]*\)$/\1/p' "$faultdir/metrics.$rate.txt")
        trips=$(sed -n 's/^mergescale_store_breaker_opened_total \([0-9]*\)$/\1/p' "$faultdir/metrics.$rate.txt")
        [ -n "$injected" ] || injected=0
        [ -n "$trips" ] || trips=0
        if [ -z "$rps" ] || [ -z "$all_p99" ]; then
            echo "bench.sh: could not parse load report for rate $rate:" >&2
            cat "$faultdir/load.$rate.json" >&2
            exit 1
        fi
        [ -n "$rows" ] && rows="$rows,"
        rows="$rows
    {\"fault_rate\": $rate, \"req_per_sec\": $rps, \"p99_all_ms\": $all_p99, \"p99_warm_ms\": ${warm_p99:-0}, \"faults_injected\": $injected, \"breaker_trips\": $trips}"
    done

    cat > BENCH_faults.json <<EOF
{
  "go": "$(go env GOVERSION)",
  "goos": "$(go env GOOS)",
  "goarch": "$(go env GOARCH)",
  "protocol": "powerlaw seed 1, concurrency ${BENCH_SERVE_CONCURRENCY:-8}, text+json, ${BENCH_FAULTS_REQUESTS:-200} requests, warm -quick cache, faults seed=1 get.err/put.err at rate",
  "rates": [$rows
  ]
}
EOF
    rm -rf "$faultdir"
    echo "wrote BENCH_faults.json:"
    cat BENCH_faults.json
fi
