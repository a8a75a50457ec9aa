package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{
		10000: 99.9, 9999: 99.8, 1000: 99, 999: 98, 500: 98, 100: 90, 50: 80, 28: 50, 19: 50,
	} {
		if got := tailPct(n); got != want {
			t.Errorf("tailPct(%d) = %g, want %g", n, got, want)
		}
		if n >= 2*minBeyond && beyond(n, want) < minBeyond {
			t.Errorf("p%g of %d leaves %d beyond, want >= %d", want, n, beyond(n, want), minBeyond)
		}
	}
}

func TestTailIsMedianOfWindows(t *testing.T) {
	lat := make([]float64, 5*tailWindow)
	for i := range lat {
		lat[i] = float64(i % tailWindow) // every window holds 0..49
	}
	for i := 2 * tailWindow; i < 3*tailWindow; i++ {
		lat[i] = 1000 // one stalled window
	}
	m, rec := map[string]metric{}, map[string]any{}
	latencyMetrics(append(lat, 1e6), m, rec)
	if got := m["tail_ms"].Value; got != 39 {
		t.Errorf("tail_ms = %g, want 39 (p80 of an unstalled window)", got)
	}
	if rec["tail_pct"] != 80.0 || rec["tail_windows"] != 5 {
		t.Errorf("record %v, want p80 over 5 windows", rec)
	}
	latencyMetrics(lat[:28], m, rec)
	if rec["tail_pct"] != 50.0 || rec["tail_windows"] != 1 {
		t.Errorf("a run shorter than a window should use all its ops: %v", rec)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 99.9: 999, 100: 1000} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(p%g) = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// fakeClock advances only when the scheduler sleeps or an op runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	opTime := func(i int) time.Duration {
		if i < 3 {
			return 25 * time.Millisecond // a stall: later requests queue
		}
		return time.Millisecond
	}
	clk := &fakeClock{now: time.Unix(0, 0)}
	const n = 12
	got := openLoop(n, 1, interval, clk, func(i int) error {
		clk.now = clk.now.Add(opTime(i))
		return nil
	})

	// Reference: request i is due at i*interval, is sent when it is due or
	// when the previous one finished, whichever is later.
	var free time.Duration
	for i := range n {
		due := time.Duration(i) * interval
		send := max(due, free)
		free = send + opTime(i)
		want := openSample{lat: ms(free - due), late: ms(send - due), sent: ms(opTime(i))}
		if got[i] != want {
			t.Errorf("request %d: got %+v, want %+v", i, got[i], want)
		}
	}
	if got[1].late != 15 || got[n-1].late != 0 {
		t.Errorf("lateness should build up behind the stall and drain after it: %+v", got)
	}
}

func TestOpenLoopNeverSendsEarly(t *testing.T) {
	got := openLoop(20, 2, time.Millisecond, realClock{}, func(int) error { return nil })
	for i, s := range got {
		if s.late < 0 || s.lat < s.late {
			t.Errorf("request %d: late %gms, lat %gms", i, s.late, s.lat)
		}
	}
}

func TestLayerOfAssignsInnermostRepoFrame(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		client bool
		want   string
	}{
		{[]string{"net/http.(*persistConn).readLoop"}, true, "client"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, false, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "mergescale/internal/sim.(*Machine).Run"}, false, "gc"},
		{[]string{"mergescale/internal/sim.(*Program).Append", "mergescale/internal/workload/kmeans.(*KMeans).BuildProgram",
			"mergescale/internal/experiments.fig2a"}, false, "progbuild"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "encoding/gob.(*Encoder).Encode",
			"mergescale/internal/engine/diskcache.(*Store).PutE", "mergescale/internal/faults.(*Breaker).Put",
			"mergescale/internal/engine.(*Engine).exec"}, false, "diskcache"},
		{[]string{"sync.(*Mutex).Lock", "mergescale/internal/engine.Map[go.shape.string,go.shape.int]"}, false, "engine"},
		{[]string{"mergescale/internal/workload/datagen.Generate", "mergescale/internal/workload.Run"}, false, "datagen"},
		{[]string{"mergescale/internal/workload/hop.(*Hop).run", "mergescale/internal/parallel.(*Pool).worker"}, false, "native"},
		{[]string{"math.Pow", "mergescale/internal/core.SpeedupCMP", "mergescale/internal/experiments.evalPoint"}, false, "model"},
		{[]string{"mergescale/internal/report.(*textRenderer).Element", "mergescale/internal/serve.(*Server).streamRender"}, false, "report"},
		{[]string{"net/http.(*response).Write", "mergescale/internal/serve.(*Server).writeCached"}, false, "serve"},
		{[]string{"time.Now", "main.timedHandler.func1", "net/http.serverHandler.ServeHTTP", "net/http.(*conn).serve"}, false, "http"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*conn).serve"}, false, "http"},
		{[]string{"runtime.futex", "runtime.park_m", "runtime.mcall"}, false, "sched"},
		{[]string{"runtime.chanrecv", "mergescale/internal/engine.(*Engine).Run"}, false, "engine"},
		{[]string{"runtime.sigtramp"}, false, "other"},
	} {
		if got := layerOf(tc.frames, tc.client); got != tc.want {
			t.Errorf("layerOf(%v, client=%v) = %q, want %q", tc.frames, tc.client, got, tc.want)
		}
	}
}

func TestParseTracesSumsPerLayer(t *testing.T) {
	text := `File: harness
Type: cpu
Duration: 1s, Total samples = 90ms (9.00%)
-----------+-------------------------------------------------------
     bench:  client
      30ms   net/http.(*persistConn).writeLoop
-----------+-------------------------------------------------------
      20ms   mergescale/internal/sim.(*Machine).step
             mergescale/internal/sim.(*Machine).Run
-----------+-------------------------------------------------------
      10ms   mergescale/internal/sim.(*Machine).step
             runtime.goexit
-----------+-------------------------------------------------------
      1.03s  runtime.memmove
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"client": 30 * time.Millisecond, "sim": 30 * time.Millisecond, "other": 1030 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseTraces("-----------+---\n   ??   f\n"); err == nil {
		t.Error("a malformed sample line should be an error")
	}
}

func TestWrongDigestIsAFailedOp(t *testing.T) {
	good := []byte("report\n")
	sum := sha256.Sum256(good)
	digest := hex.EncodeToString(sum[:])

	var log opLog
	log.add(checkDigest(good, digest))
	log.add(checkDigest([]byte("report!\n"), digest))
	out := log.outcome(nil, nil)
	if out.attempted != 2 || out.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", out.attempted, out.failed)
	}
}

func TestWrongBodyIsAFailedOp(t *testing.T) {
	k := browseKey{"fig2a", "csv"}
	bodies := bodyCheck{k: []byte("a,b\n1,2\n")}
	var log opLog
	first := log.add(bodies.check(k, []byte("a,b\n1,2\n")))
	second := log.add(bodies.check(k, []byte("a,b\n1,3\n")))
	if log.errs[first] != nil || log.errs[second] == nil {
		t.Fatalf("errs = %v, want only the second op failed", log.errs)
	}

	// A mismatch found by the checks after the timed phase fails an op
	// that had completed, and never counts one op twice.
	log.fail(first, errors.New("differs from the CLI"))
	log.fail(second, errors.New("differs from the CLI"))
	if out := log.outcome(nil, nil); out.attempted != 2 || out.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 2", out.attempted, out.failed)
	}
}

func TestSweepRowCount(t *testing.T) {
	var b strings.Builder
	for g := range 2 {
		b.WriteString("# f=0.9 fcon=0.5 fored=0.1 linear — N=64\nr,cores,speedup\n")
		for r := range 64 {
			if g == 1 && r == 63 {
				break // one row short
			}
			b.WriteString("1,64,1.00\n")
		}
		b.WriteString("\n")
	}
	if err := checkSweepRows([]byte(b.String()), 1); err == nil {
		t.Fatal("a body one row short should fail")
	}
}

func TestSweepGenIsSeededAndDrawsNewApps(t *testing.T) {
	a, b := newSweepGen(3), newSweepGen(3)
	for range 5 {
		if string(a.next()) != string(b.next()) {
			t.Fatal("the same seed should give the same grids")
		}
	}
	if string(newSweepGen(4).next()) == string(newSweepGen(3).next()) {
		t.Fatal("different seeds should give different grids")
	}
	if len(a.seen) != sweepPoolApps+5*(sweepAppsPerOp-sweepPooledPerOp) {
		t.Fatalf("%d distinct apps drawn, want every fresh draw new", len(a.seen))
	}
}
