package core

import (
	"context"
	"reflect"
	"testing"

	"mergescale/internal/engine"
)

// sweepApps spans the parameter classes the figures sweep.
func sweepApps() []AppParams {
	var apps []AppParams
	for _, f := range []float64{0.999, 0.99} {
		for _, fcon := range []float64{0.90, 0.60} {
			for _, ford := range []float64{0.10, 0.80} {
				for _, g := range []GrowthKind{GrowthLinear, GrowthLog} {
					apps = append(apps, AppParams{Name: "t", F: f, FCon: fcon, FOred: ford, Growth: g})
				}
			}
		}
	}
	return apps
}

// TestEngineSweepsMatchSerial asserts the engine-backed sweeps reproduce
// the serial reference point-for-point across the full parameter grid.
func TestEngineSweepsMatchSerial(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 8})
	ctx := context.Background()
	b := DefaultBudget
	rs := PowerOfTwoRs(b.N)

	for _, app := range sweepApps() {
		want := SweepSymmetric(app, b, rs)
		got, err := SweepSymmetricEngine(ctx, eng, app, b, rs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("symmetric sweep diverged for %+v:\nserial %v\nengine %v", app, want, got)
		}
		for _, r := range []float64{1, 4, 16} {
			wantA := SweepAsymmetric(app, b, rs, r)
			gotA, err := SweepAsymmetricEngine(ctx, eng, app, b, rs, r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantA, gotA) {
				t.Fatalf("asymmetric sweep diverged for %+v r=%g", app, r)
			}
		}

		m := NewCommModel(app)
		wantC := SweepSymmetricComm(m, b, rs)
		gotC, err := SweepSymmetricCommEngine(ctx, eng, m, b, rs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantC, gotC) {
			t.Fatalf("symmetric comm sweep diverged for %+v", app)
		}
		wantAC := SweepAsymmetricComm(m, b, rs, 4)
		gotAC, err := SweepAsymmetricCommEngine(ctx, eng, m, b, rs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantAC, gotAC) {
			t.Fatalf("asymmetric comm sweep diverged for %+v", app)
		}
	}
	if st := eng.Stats(); st.Misses == 0 {
		t.Fatal("engine cache never exercised")
	}
}

// TestEngineSweepCacheReuse verifies repeated design points hit the cache:
// a second identical sweep computes nothing new.
func TestEngineSweepCacheReuse(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4})
	ctx := context.Background()
	b := DefaultBudget
	rs := PowerOfTwoRs(b.N)
	app := FuzzyParams

	if _, err := SweepSymmetricEngine(ctx, eng, app, b, rs); err != nil {
		t.Fatal(err)
	}
	st1 := eng.Stats()
	if _, err := SweepSymmetricEngine(ctx, eng, app, b, rs); err != nil {
		t.Fatal(err)
	}
	st2 := eng.Stats()
	if st2.Misses != st1.Misses {
		t.Fatalf("repeated sweep recomputed: misses %d -> %d", st1.Misses, st2.Misses)
	}
	if st2.Hits <= st1.Hits {
		t.Fatalf("repeated sweep did not hit cache: hits %d -> %d", st1.Hits, st2.Hits)
	}
}

// TestEngineSweepCancellation checks a cancelled context aborts a sweep.
func TestEngineSweepCancellation(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepSymmetricEngine(ctx, eng, KMeansParams, DefaultBudget, PowerOfTwoRs(DefaultBudget.N)); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}
