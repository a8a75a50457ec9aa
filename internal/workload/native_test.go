package workload_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"mergescale/internal/workload"
)

// TestNativeRunsLeaveNoGoroutines: every native run owns its worker team
// and shuts it down before returning, so no worker outlives the run. The
// runs are timed: without timing, kmeans and fuzzy only count and start no
// team. Not parallel: a concurrent test's goroutines would move the count.
func TestNativeRunsLeaveNoGoroutines(t *testing.T) {
	ds := testData(t, 49)
	for _, w := range allWorkloads() {
		for _, th := range []int{1, 2, 4} {
			before := runtime.NumGoroutine()
			if _, err := w.RunNative(ds, th, true); err != nil {
				t.Fatalf("%s threads=%d: %v", w.Name(), th, err)
			}
			// Close has waited for every worker's Done, but an exiting
			// goroutine can stay counted for a moment after it.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("%s (%v) threads=%d: %d goroutines before the run, %d after",
					w.Name(), w.Params(), th, before, after)
			}
		}
	}
}

// TestNativeProfilesCancelled: a cancelled context stops the runs, in
// count mode and timed.
func TestNativeProfilesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := testData(t, 48)
	w := allWorkloads()[0]
	for _, timing := range []bool{false, true} {
		if _, err := workload.NativeProfiles(ctx, w, ds, []int{1, 2}, timing); err == nil {
			t.Errorf("timing=%v: cancelled call returned no error", timing)
		}
	}
}
