package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

// minBeyond is how many samples a tail percentile must leave above it.
const minBeyond = 10

// tailCandidates are the percentiles a tail metric may use, lowest first.
var tailCandidates = []float64{50, 75, 80, 90, 95, 98, 99, 99.5, 99.8, 99.9}

// beyond counts the samples out of n that rank above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// tailPct returns the highest candidate percentile that leaves at least
// minBeyond of n samples above it; the median when none does.
func tailPct(n int) float64 {
	best := 50.0
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// quantile is the nearest-rank p-th percentile of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := len(s) - beyond(len(s), p) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median is the middle of xs, averaging the two middle values of an
// even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailWindow is the op count of one tail_ms window: p80 is the highest
// percentile that leaves minBeyond of 50 ops above it.
const tailWindow = 50

// latencyMetrics computes p50_ms and tail_ms from per-op latencies in ms.
//
// The tail is windowed: the ops are cut into consecutive windows of
// tailWindow ops, each window's tail is its highest candidate percentile
// that leaves minBeyond ops above it, and tail_ms is the median over the
// windows. Whole-run p99 and above moved twofold between runs of the same
// code on a shared 2-CPU machine; the windowed p80 stayed within about
// 15%, and one stall moves a single window, not the figure. A run shorter
// than one window uses all its ops as one. The run record carries the
// percentile, the window and the whole-run percentiles the op count
// supports.
func latencyMetrics(lat []float64, m map[string]metric, rec map[string]any) {
	w := min(tailWindow, len(lat))
	p := tailPct(w)
	var tails []float64
	for i := 0; w > 0 && i+w <= len(lat); i += w {
		tails = append(tails, quantile(lat[i:i+w], p))
	}
	m["p50_ms"] = metric{median(lat), "ms"}
	m["tail_ms"] = metric{median(tails), "ms"}
	rec["tail_pct"] = p
	rec["tail_window"] = w
	rec["tail_windows"] = len(tails)
	rec["ops"] = len(lat)
	q := map[string]float64{}
	for _, c := range tailCandidates {
		if beyond(len(lat), c) >= minBeyond {
			q["p"+strconv.FormatFloat(c, 'g', -1, 64)] = quantile(lat, c)
		}
	}
	rec["latency_ms"] = q
}

// opLog records each attempted op's error. Output checks after the timed
// phase may still fail an op that completed.
type opLog struct {
	errs   []error
	logged int
}

// add appends one attempted op and returns its index.
func (l *opLog) add(err error) int {
	l.errs = append(l.errs, nil)
	l.fail(len(l.errs)-1, err)
	return len(l.errs) - 1
}

// fail marks op i failed with err, keeping its first error.
func (l *opLog) fail(i int, err error) {
	if err == nil || l.errs[i] != nil {
		return
	}
	l.errs[i] = err
	if l.logged < 5 {
		l.logged++
		fmt.Fprintf(os.Stderr, "harness: op %d failed: %v\n", i, err)
	}
}

// outcome wraps the log into a run outcome.
func (l *opLog) outcome(metrics map[string]metric, record map[string]any) *outcome {
	failed := 0
	for _, err := range l.errs {
		if err != nil {
			failed++
		}
	}
	return &outcome{attempted: len(l.errs), failed: failed, metrics: metrics, record: record}
}
