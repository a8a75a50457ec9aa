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

echo "== benchmark harness builds =="
# benchmark/ is its own module compiled against internal/ APIs: a change
# that breaks it fails here, not on the next benchmark run. Its tests
# include the CPU-layer mapping the per-layer metrics depend on.
(cd benchmark && go vet . && go test -count=1 .)

echo "== examples run =="
# The examples are the only callers of some exported model helpers
# (core.OptimalSymmetricR, core.PeakCoreCount); running them keeps both
# the helpers and the examples honest.
for d in examples/*/; do
    go run "./$d" > /dev/null
done

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

echo "== document releaser stress =="
# StreamElements releases whole documents in target order from OnDone
# callbacks on whichever goroutine resolved each job; repeat the release
# order and emit-error cancellation tests under the race detector.
go test -race -count=20 -run 'TestStreamElementsReleaseOrder|TestStreamSinkErrorCancelsOutstandingJobs' ./internal/experiments

echo "== go test -bench (1 iteration) =="
go test -bench=. -benchtime=1x -run '^$' .

echo "== sim hot-path benchmarks (1 iteration smoke) =="
go test -bench BenchmarkSim -benchtime=1x -run '^$' ./internal/sim

echo "== contend benchmarks (1 iteration smoke) =="
go test -bench BenchmarkContend -benchtime=1x -run '^$' ./internal/workload/contend

echo "== hop run and count benchmarks (1 iteration smoke) =="
go test -bench BenchmarkHop -benchtime=1x -run '^$' ./internal/workload/hop

echo "== allocation budget (without -race: its instrumentation allocates) =="
# The -race suite above skips the AllocsPerRun assertions; this pass arms
# them, failing CI if the steady-state access loop ever allocates again.
# The pattern covers the per-access gate, the directory gate and the
# whole-run gate (zero allocations per warm Machine.Run).
go test -run 'SteadyStateZeroAllocs' -count=1 ./internal/sim
# Count-mode kmeans and fuzzy native runs allocate only their profile, and
# hop's (on a warm pass memo) only its profile and Split ranges: a run
# that started its kernel would blow the budget.
go test -run 'TestCountModeAllocs' -count=1 ./internal/workload/kmeans ./internal/workload/fuzzy ./internal/workload/hop
# Shape-only paths (Generate, count mode, BuildProgram) draw no points: on
# a 64 MiB spec each must allocate far less than the point matrix.
go test -run 'TestShapeOnlyPathsDrawNoPoints' -count=1 ./internal/workload
# The sweep row budget: SweepPlan.Run into the csv backend makes at most
# two allocations per point (the row's cell string and its Row slice).
go test -run 'AllocBudget' -count=1 ./internal/experiments

echo "== sweep first-row-before-last-job gate =="
# Sweep row emission: on a 64-point sweep SweepPlan.Run must emit the
# first table row before the last point is evaluated (rows reach the
# renderer one by one; POST /sweep flushes only at the document's end).
# The test holds the final point until the first ElemRow is observed — a
# buffered (end-of-run) pipeline would wait into the test's loud 30s
# timeout instead of passing.
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

echo "== full-size digest =="
# Every other byte-identity gate runs at -quick. This one pins the text
# output of the full-size `run all` (about 3 s), so a simulator defect
# that only shows at full-size data sets and core counts cannot slip
# through. A change that alters full-size output on purpose updates
# the digest and says so.
full_want=d7a955308f7b1f8c16fc6117316a4015ee7521a10a4a0d89e919a9f0a01c9996
full_got=$("$tmp/mergescale" run all | sha256sum | cut -d' ' -f1)
if [ "$full_got" != "$full_want" ]; then
    echo "full-size run all text digest $full_got, want $full_want" >&2
    exit 1
fi

echo "== -duration smoke =="
# Without -duration, kmeans and fuzzy native profiles are closed-form
# counts and no kernel runs; with it, Fig. 2(c) times the real kernels.
# Its output is wall-clock, so only the exit status and the row count
# (one per workload) are checked, never a digest.
"$tmp/mergescale" -quick -duration -format csv run fig2c > "$tmp/duration.csv"
duration_rows=$(grep -cE '^(kmeans|fuzzy|hop),' "$tmp/duration.csv")
if [ "$duration_rows" != 3 ]; then
    echo "-duration fig2c rendered $duration_rows data rows, want 3:" >&2
    cat "$tmp/duration.csv" >&2
    exit 1
fi

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
# Create the log first: the polling sed below may run before the
# backgrounded server's redirection does, and a missing file would abort
# the script under set -e.
: > "$tmp/serve.log"
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

echo "== concurrent /run/all gate =="
# 8 concurrent identical /run/all clients against the freshly booted
# server over the warm cache directory: every body must match the CLI's
# serial bytes, and /metrics must show the engine executed no job — each
# client renders its own body from the shared engine and disk cache.
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
grep -q '^mergescale_engine_jobs_executed_total 0$' "$tmp/metrics.txt"

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
# Both fronts share the formatters, so the CLI bytes are also pinned to
# a fixed digest: a formatting defect common to both cannot pass.
sweep_want=41217afe67f923a6cb3235bb23c3fac5eff585cc61e692031a3c71bbbeca99be
sweep_got=$(sha256sum < "$tmp/sweep.cli" | cut -d' ' -f1)
if [ "$sweep_got" != "$sweep_want" ]; then
    echo "grid.json sweep text digest $sweep_got, want $sweep_want" >&2
    exit 1
fi
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
sweep_want=a673d5b405ae478e5b827061e2b7c77b3f112e375276ea863949356463326164
sweep_got=$(sha256sum < "$tmp/sweepmodes.cli" | cut -d' ' -f1)
if [ "$sweep_got" != "$sweep_want" ]; then
    echo "gridmodes.json sweep text digest $sweep_got, want $sweep_want" >&2
    exit 1
fi
curl -sfS -X POST --data-binary @"$tmp/gridmodes.json" "http://$addr/sweep" > "$tmp/sweepmodes.http"
cmp "$tmp/sweepmodes.cli" "$tmp/sweepmodes.http"
if cmp -s "$tmp/sweep.cli" "$tmp/sweepmodes.cli"; then
    echo "acmp_r/comm grid rendered the symmetric body" >&2
    exit 1
fi

echo "== reordered-grid gate =="
# The same design space spelled with every axis shuffled and duplicated
# must normalize to the same plan: the body is byte-identical, and
# /stats proves the engine executed no job for any of the sweeps.
cat > "$tmp/grid2.json" <<'EOF'
{"apps":[{"f":0.9,"growth":"linear"},{"f":0.975,"fcon":0.1,"fored":0.2}],
 "budgets":[256,64,256],
 "rs":[16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,16]}
EOF
curl -sfS -X POST --data-binary @"$tmp/grid2.json" "http://$addr/sweep" > "$tmp/sweep2.http"
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
# graceful-degradation contract end to end. The log exists before the
# server starts, as serve.log does above.
: > "$tmp/chaos.log"
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
