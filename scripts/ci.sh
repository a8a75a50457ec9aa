#!/usr/bin/env sh
# CI gate: formatting, vet, race-enabled tests, and a one-iteration bench
# pass so bench_test.go cannot rot. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test -race (shuffled) =="
# -shuffle=on randomizes test and subtest execution order so hidden
# inter-test state (shared caches, package-level maps) fails here rather
# than in a future reordering.
go test -race -shuffle=on ./...

echo "== engine scheduler stress =="
# The claim loop's guarantees — nested submission never deadlocks, a long
# job never stalls the jobs after it, at most Workers jobs run at once,
# OnDone fires exactly once — depend on goroutine interleavings; repeat
# the tests that pin them under the race detector to shake out rare ones.
go test -race -count=50 -run 'TestNestedSubmission|TestRunInlineJobDoesNotStallLaterJobs|TestRunNeverExceedsWorkers|TestOnDone|TestConcurrentRunCallers' ./internal/engine

echo "== go test -bench (1 iteration) =="
go test -bench=. -benchtime=1x -run '^$' .

echo "== sim hot-path benchmarks (1 iteration smoke) =="
go test -bench BenchmarkSim -benchtime=1x -run '^$' ./internal/sim

echo "== contend benchmarks (1 iteration smoke) =="
go test -bench BenchmarkContend -benchtime=1x -run '^$' ./internal/workload/contend

echo "== hop native-run benchmark (1 iteration smoke) =="
go test -bench BenchmarkHopRun -benchtime=1x -run '^$' ./internal/workload/hop

echo "== allocation budget (without -race: its instrumentation allocates) =="
# The -race suite above skips the AllocsPerRun assertions; this pass arms
# them, failing CI if the steady-state access loop ever allocates again.
# The pattern covers the per-access gate, the directory gate and the
# whole-run gate (zero allocations per warm Machine.Run).
go test -run 'SteadyStateZeroAllocs' -count=1 ./internal/sim

echo "== sweep first-row-before-last-job gate =="
# Element-granular streaming acceptance: on a 64-point sweep the first
# table row must be emitted before the last point is evaluated. The test
# holds the final point until the first ElemRow is observed — a buffered
# (end-of-run) pipeline would wait into the test's loud 30s timeout
# instead of passing.
go test -run 'TestSweepFirstRowBeforeLastJobCompletes' -count=1 ./internal/experiments

echo "== cold/warm disk-cache determinism =="
# A full -quick `run all` twice against one fresh cache dir: the warm run
# must execute zero jobs and render byte-for-byte identical output.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/mergescale" ./cmd/mergescale
"$tmp/mergescale" -quick -cachedir "$tmp/cache" run all > "$tmp/cold.out"
"$tmp/mergescale" -quick -cachedir "$tmp/cache" -stats run all > "$tmp/warm.out" 2> "$tmp/warm.stats"
cmp "$tmp/cold.out" "$tmp/warm.out"
grep -q '0 executed' "$tmp/warm.stats"
grep -q 'disk:' "$tmp/warm.stats"

echo "== contended-workload determinism =="
# The contend experiments simulate zipf-skewed MESI traffic whose
# hot-line statistics feed the rendered tables; a fresh cache dir proves
# the sweep is byte-deterministic end to end and that the warm replay
# serves both modes without executing a single job.
for id in ext-contend ext-contend-split; do
    "$tmp/mergescale" -quick -cachedir "$tmp/contendcache" run "$id" > "$tmp/contend.$id.cold"
    "$tmp/mergescale" -quick -cachedir "$tmp/contendcache" -stats run "$id" > "$tmp/contend.$id.warm" 2> "$tmp/contend.$id.stats"
    cmp "$tmp/contend.$id.cold" "$tmp/contend.$id.warm"
    grep -q '0 executed' "$tmp/contend.$id.stats"
done

echo "== simulate cold/warm disk-cache replay =="
# One scaled-down simulator run twice over one cache dir: the warm run
# must replay the run from disk, executing no job, with identical bytes.
sim="simulate -workload kmeans -cores 4 -scale 64 -iters 1"
"$tmp/mergescale" -cachedir "$tmp/simcache" $sim > "$tmp/sim.cold"
"$tmp/mergescale" -cachedir "$tmp/simcache" -stats $sim > "$tmp/sim.warm" 2> "$tmp/sim.stats"
cmp "$tmp/sim.cold" "$tmp/sim.warm"
grep -q '0 executed' "$tmp/sim.stats"

echo "== serial cold vs parallel warm byte identity =="
# Every run streams its elements in registry order, whatever order the
# engine resolves jobs in. A serial, uncached run (jobs execute inline,
# one after another, each computed from scratch) must therefore render
# exactly the bytes of a 4-worker run replayed from the warm cache
# directory above, for every backend.
for format in text markdown json csv; do
    "$tmp/mergescale" -quick -workers 1 -nocache -format "$format" run all > "$tmp/serial.$format"
    "$tmp/mergescale" -quick -workers 4 -cachedir "$tmp/cache" -format "$format" run all > "$tmp/warm4.$format"
    cmp "$tmp/serial.$format" "$tmp/warm4.$format"
done

echo "== HTTP serving front end =="
# Boot the server on an ephemeral port over the warm cache directory,
# fetch run/all over chunked HTTP, and require byte identity with the
# CLI's serial output plus zero executed jobs (/stats counts since
# boot, so a warm disk cache must satisfy the whole run).
serve_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
"$tmp/mergescale" -quick -cachedir "$tmp/cache" serve -addr 127.0.0.1:0 2> "$tmp/serve.log" &
serve_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#.*serving on http://##p' "$tmp/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "server did not come up:" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
curl -sfS "http://$addr/healthz" > /dev/null

echo "== render stampede gate =="
# 8 concurrent identical cold /run/all clients against the freshly booted
# server: every body must match the CLI's serial bytes, and /metrics
# must show exactly ONE render — the singleflight leader; the other 7
# were coalesced onto it or served from the render cache.
stampede_pids=""
i=0
while [ $i -lt 8 ]; do
    curl -sfS "http://$addr/run/all" > "$tmp/stampede.$i" &
    stampede_pids="$stampede_pids $!"
    i=$((i + 1))
done
# wait on the curls by pid — a bare `wait` would also block on the
# backgrounded server, which never exits.
for pid in $stampede_pids; do
    wait "$pid"
done
i=0
while [ $i -lt 8 ]; do
    cmp "$tmp/serial.text" "$tmp/stampede.$i"
    i=$((i + 1))
done
curl -sfS "http://$addr/metrics" > "$tmp/metrics.txt"
grep -q '^mergescale_renders_total 1$' "$tmp/metrics.txt"

curl -sfS "http://$addr/run/all" > "$tmp/http.out"
cmp "$tmp/serial.text" "$tmp/http.out"
curl -sfS "http://$addr/stats" > "$tmp/stats.json"
grep -q '"executed":0' "$tmp/stats.json"
grep -q '"storeHits":' "$tmp/stats.json"

echo "== /metrics exposition gate =="
# Re-scrape after the single /run/all above: the request counter must
# cover the stampede plus that request, and the warm disk cache means the
# engine still executed zero job functions since boot.
curl -sfS "http://$addr/metrics" > "$tmp/metrics.txt"
grep -q '^mergescale_http_requests_total{endpoint="/run",format="text",code="200"} 9$' "$tmp/metrics.txt"
grep -q '^mergescale_http_request_duration_seconds_bucket{endpoint="/run",format="text",le="+Inf"} 9$' "$tmp/metrics.txt"
grep -q '^mergescale_engine_jobs_executed_total 0$' "$tmp/metrics.txt"
grep -q '^# TYPE mergescale_http_request_duration_seconds histogram$' "$tmp/metrics.txt"
# Robustness counters on the healthy path: all zero, breaker closed —
# fault machinery must be invisible until faults actually happen.
grep -q '^mergescale_store_breaker_state 0$' "$tmp/metrics.txt"
grep -q '^mergescale_store_breaker_opened_total 0$' "$tmp/metrics.txt"
grep -q '^mergescale_disk_write_errors_total 0$' "$tmp/metrics.txt"
grep -q '^mergescale_http_request_timeouts_total 0$' "$tmp/metrics.txt"
curl -s -o "$tmp/readyz.json" -w '%{http_code}' "http://$addr/readyz" > "$tmp/readyz.code"
grep -q '^200$' "$tmp/readyz.code"
grep -q '"status":"ok"' "$tmp/readyz.json"

echo "== load harness smoke =="
# -slo-warm-p99 with a generous budget doubles as a smoke test of the
# SLO gate: the flag must parse, evaluate, and report the margin.
"$tmp/mergescale" load -url "http://$addr" -requests 32 -concurrency 4 -seed 1 \
    -slo-warm-p99 30s > "$tmp/load.json" 2> "$tmp/load.summary"
grep -q '"req_per_sec"' "$tmp/load.json"
grep -q '"errors": 0' "$tmp/load.json"
grep -q '"requests": 32' "$tmp/load.json"
grep -q 'req/s' "$tmp/load.summary"
grep -q 'SLO met' "$tmp/load.summary"

echo "== POST /sweep vs CLI byte identity =="
# A cold 64-point grid (2 apps x 2 budgets x 16 r values) through both
# fronts: `mergescale sweep` and POST /sweep must produce byte-identical
# output for the same grid — one request struct, one normalized plan,
# one streaming pipeline. The engine's executed count is read before the
# cold POST, so the gate below also proves a cold sweep runs no engine job.
cat > "$tmp/grid.json" <<'EOF'
{"apps":[{"f":0.975,"fcon":0.1,"fored":0.2},{"f":0.9}],
 "budgets":[64,256],
 "rs":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}
EOF
"$tmp/mergescale" sweep -grid "$tmp/grid.json" > "$tmp/sweep.cli"
executed_before=$(curl -sfS "http://$addr/stats" | grep -o '"executed":[0-9]*')
curl -sfS -X POST --data-binary @"$tmp/grid.json" "http://$addr/sweep" > "$tmp/sweep.http"
cmp "$tmp/sweep.cli" "$tmp/sweep.http"
# The same grid over asymmetric designs (small cores of 4 BCEs) under the
# communication-aware model: both fronts serve the optional request
# fields identically, and the plan is not the symmetric one's.
cat > "$tmp/gridmodes.json" <<'EOF'
{"apps":[{"f":0.975,"fcon":0.1,"fored":0.2},{"f":0.9}],
 "budgets":[64,256],
 "rs":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],
 "acmp_r":4,"comm":true}
EOF
"$tmp/mergescale" sweep -grid "$tmp/gridmodes.json" > "$tmp/sweepmodes.cli"
curl -sfS -X POST --data-binary @"$tmp/gridmodes.json" "http://$addr/sweep" > "$tmp/sweepmodes.http"
cmp "$tmp/sweepmodes.cli" "$tmp/sweepmodes.http"
if cmp -s "$tmp/sweep.cli" "$tmp/sweepmodes.cli"; then
    echo "acmp_r/comm grid rendered the symmetric body" >&2
    exit 1
fi

echo "== reordered-grid render-cache gate =="
# The same design space spelled with every axis shuffled and duplicated
# must normalize to the same plan fingerprint: the second request is a
# whole-body render-cache hit (X-Render-Cache: hit), byte-identical, and
# /stats proves the engine executed no job for either sweep.
cat > "$tmp/grid2.json" <<'EOF'
{"apps":[{"f":0.9,"growth":"linear"},{"f":0.975,"fcon":0.1,"fored":0.2}],
 "budgets":[256,64,256],
 "rs":[16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,16]}
EOF
curl -sfS -D "$tmp/sweep2.hdr" -X POST --data-binary @"$tmp/grid2.json" \
    "http://$addr/sweep" > "$tmp/sweep2.http"
grep -qi '^X-Render-Cache: hit' "$tmp/sweep2.hdr"
cmp "$tmp/sweep.http" "$tmp/sweep2.http"
executed_after=$(curl -sfS "http://$addr/stats" | grep -o '"executed":[0-9]*')
[ "$executed_before" = "$executed_after" ]

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "== chaos gate: 100% disk-store faults =="
# Boot a server whose every store operation fails (get.err=1,put.err=1):
# /run/all must still return byte-identical output (every miss is a
# deterministic recompute), the breaker must be open in /metrics, /readyz
# must report degraded with 503, and /healthz must stay a plain 200 — the
# graceful-degradation contract end to end.
"$tmp/mergescale" -quick -cachedir "$tmp/chaoscache" -faults 'get.err=1,put.err=1' \
    serve -addr 127.0.0.1:0 2> "$tmp/chaos.log" &
serve_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#.*serving on http://##p' "$tmp/chaos.log")
    [ -n "$addr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "chaos server did not come up:" >&2
    cat "$tmp/chaos.log" >&2
    exit 1
fi
curl -sfS "http://$addr/run/all" > "$tmp/chaos.out"
cmp "$tmp/serial.text" "$tmp/chaos.out"
curl -sfS "http://$addr/metrics" > "$tmp/chaos.metrics"
grep -q '^mergescale_store_breaker_state 2$' "$tmp/chaos.metrics"
grep -q '^mergescale_store_breaker_opened_total [1-9]' "$tmp/chaos.metrics"
grep -q '^mergescale_faults_injected_total [1-9]' "$tmp/chaos.metrics"
curl -s -o "$tmp/chaos.readyz" -w '%{http_code}' "http://$addr/readyz" > "$tmp/chaos.readyz.code"
grep -q '^503$' "$tmp/chaos.readyz.code"
grep -q '"status":"degraded"' "$tmp/chaos.readyz"
grep -q '"store":"degraded"' "$tmp/chaos.readyz"
curl -sfS "http://$addr/healthz" > /dev/null

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "CI OK"
