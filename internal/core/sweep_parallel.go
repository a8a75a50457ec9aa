package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"strconv"

	"mergescale/internal/engine"
)

func init() {
	// Batched sweep results cross the engine's persistent store inside gob
	// envelopes; the element type is exported but the slice needs its own
	// registration, and both sides of the cache are this package.
	gob.Register([]SweepPoint(nil))
}

// This file contains the engine-backed forms of the design-space sweeps:
// each sweep (one grid over one app/budget tuple) becomes one engine job,
// so sweeps sharded from inside experiment jobs fan out across the worker
// pool, and a repeated sweep (the same series appearing in several panels
// or repeated runs) is computed once via the config-hash cache.
//
// Granularity note: earlier revisions submitted one job per grid POINT.
// A design point is a few microseconds of pure arithmetic, so per-point
// jobs were pure overhead — key building, singleflight bookkeeping and
// result boxing dominated the model evaluation by an order of magnitude
// (measured in BENCH_engine.json). Batching the grid into one job removed
// that overhead while keeping sweeps parallel across series and cached/
// deduplicated at the granularity experiments actually share.
//
// Each engine form runs the matching pure function in sweep.go as its job
// body, so the two can never diverge; the engine adds only the key, the cache and
// the fan-out. Callers that want no caching or parallelism pass a serial
// engine (engine.Config{Workers: 1, DisableCache: true}).

// gridKey makes a sweep grid key-appendable (engine.KeyAppender) so the
// batched sweep key can cover the exact grid without fmt reflection. The
// encoding matches %#v, per the KeyAppender contract.
type gridKey []float64

// AppendKey appends the Go-syntax rendering of the grid.
func (g gridKey) AppendKey(b []byte) []byte {
	if g == nil {
		return append(b, "core.gridKey(nil)"...)
	}
	b = append(b, "core.gridKey{"...)
	for i, v := range g {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '}')
}

// runSweep evaluates the whole grid as one engine job (sweep returns the
// valid points in grid order). A sweep is microseconds of arithmetic, so
// the job checks ctx only on entry; a cancelled sweep, like any cancelled
// job, is never cached.
func runSweep(ctx context.Context, eng *engine.Engine, id, key string, sweep func() []SweepPoint) ([]SweepPoint, error) {
	r := eng.RunOne(ctx, engine.Job{
		ID:  id,
		Key: key,
		Fn: func(context.Context) (any, error) {
			return sweep(), nil
		},
	})
	if r.Err != nil {
		return nil, fmt.Errorf("%s: %w", id, r.Err)
	}
	pts, ok := r.Value.([]SweepPoint)
	if !ok {
		return nil, fmt.Errorf("%s: unexpected cached result type %T", id, r.Value)
	}
	return pts, nil
}

// SweepSymmetricEngine is the engine-backed SweepSymmetric.
func SweepSymmetricEngine(ctx context.Context, eng *engine.Engine, app AppParams, b Budget, rs []float64) ([]SweepPoint, error) {
	w := engine.AcquireKeyWriter()
	w.WriteString("sweep-sym")
	engine.WriteAppender(w, app)
	engine.WriteAppender(w, b)
	engine.WriteAppender(w, gridKey(rs))
	return runSweep(ctx, eng, "sweep-sym", w.SumRelease(), func() []SweepPoint {
		return SweepSymmetric(app, b, rs)
	})
}

// SweepAsymmetricEngine is the engine-backed SweepAsymmetric.
func SweepAsymmetricEngine(ctx context.Context, eng *engine.Engine, app AppParams, b Budget, rls []float64, r float64) ([]SweepPoint, error) {
	w := engine.AcquireKeyWriter()
	w.WriteString("sweep-asym")
	engine.WriteAppender(w, app)
	engine.WriteAppender(w, b)
	engine.WriteAppender(w, gridKey(rls))
	w.WriteFloat64(r)
	return runSweep(ctx, eng, "sweep-asym", w.SumRelease(), func() []SweepPoint {
		return SweepAsymmetric(app, b, rls, r)
	})
}

// SweepSymmetricCommEngine is the engine-backed SweepSymmetricComm.
func SweepSymmetricCommEngine(ctx context.Context, eng *engine.Engine, m CommModel, b Budget, rs []float64) ([]SweepPoint, error) {
	w := engine.AcquireKeyWriter()
	w.WriteString("sweep-sym-comm")
	engine.WriteAppender(w, m)
	engine.WriteAppender(w, b)
	engine.WriteAppender(w, gridKey(rs))
	return runSweep(ctx, eng, "sweep-sym-comm", w.SumRelease(), func() []SweepPoint {
		return SweepSymmetricComm(m, b, rs)
	})
}

// SweepAsymmetricCommEngine is the engine-backed SweepAsymmetricComm.
func SweepAsymmetricCommEngine(ctx context.Context, eng *engine.Engine, m CommModel, b Budget, rls []float64, r float64) ([]SweepPoint, error) {
	w := engine.AcquireKeyWriter()
	w.WriteString("sweep-asym-comm")
	engine.WriteAppender(w, m)
	engine.WriteAppender(w, b)
	engine.WriteAppender(w, gridKey(rls))
	w.WriteFloat64(r)
	return runSweep(ctx, eng, "sweep-asym-comm", w.SumRelease(), func() []SweepPoint {
		return SweepAsymmetricComm(m, b, rls, r)
	})
}
