package workload

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"mergescale/internal/engine"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

func init() {
	// SimRun and native-run trace.Profile values cross the engine's
	// persistent store inside gob envelopes; register the concrete types
	// so another process can decode them back out of the interface-typed
	// envelope field.
	gob.Register(SimRun{})
	gob.Register(trace.Profile{})
}

// SimRun is the cacheable outcome of one simulated machine run: everything
// the experiments and CLIs derive output from, with no pointers into the
// consumed sim.Machine, so it can live in the engine's memory cache and be
// gob-persisted to disk.
type SimRun struct {
	Workload string
	Cores    int
	Scale    int
	Cycles   uint64
	Phases   []sim.PhaseTime
	Counters sim.Counters
}

// PhaseNames returns the distinct phase names in first-appearance order,
// mirroring sim.Result.
func (r SimRun) PhaseNames() []string {
	return sim.DistinctPhaseNames(r.Phases)
}

// PhaseCycles sums the cycles of all dynamic instances of the named phase,
// mirroring sim.Result.
func (r SimRun) PhaseCycles(name string) uint64 {
	var sum uint64
	for _, p := range r.Phases {
		if p.Name == name {
			sum += p.Cycles
		}
	}
	return sum
}

// Profile converts the per-phase cycle counts into a trace.Profile
// (Work = cycles). Phase names in the generated programs must match the
// trace section names; an unknown phase or a run with no cycles is an
// error.
func (r SimRun) Profile() (*trace.Profile, error) {
	return phasesToProfile(r.Workload, r.Cores, r.Phases)
}

// RunSim compiles the workload, draws a machine for cfg from the machine
// pool (equivalent to a fresh single-use sim.Machine — the pool hands out
// Reset machines and Run still refuses reuse without Reset), runs it once,
// and strips the result down to a cacheable SimRun. The machine returns to
// the pool on every path, so steady-state sweeps construct no machines.
// The program is compiled afresh: each SimRunKey runs once per process as
// a singleflighted engine job, so a program memo would only pin memory.
// Result.Phases aliases scratch the released machine will recycle, so the
// slice kept in the SimRun is a copy.
func RunSim(w Workload, ds *datagen.Dataset, cfg sim.Config, scale int) (SimRun, error) {
	prog, err := w.BuildProgram(ds, cfg, scale)
	if err != nil {
		return SimRun{}, err
	}
	m, err := sim.AcquireMachine(cfg)
	if err != nil {
		return SimRun{}, err
	}
	defer m.Release()
	res, err := m.Run(prog)
	if err != nil {
		return SimRun{}, err
	}
	return SimRun{
		Workload: w.Name(),
		Cores:    cfg.Cores,
		Scale:    scale,
		Cycles:   res.Cycles,
		Phases:   slices.Clone(res.Phases),
		Counters: res.Counters,
	}, nil
}

// SimRunKey is the engine cache key of one simulated run. It covers
// everything RunSim's output depends on — workload identity and tunables
// (Params), the data-set spec (generation is deterministic per spec), the
// full machine config, and the scale divisor — and nothing else, per the
// engine's no-pointers/no-maps key rule. Golden-key tests pin the keys.
func SimRunKey(w Workload, spec datagen.Spec, cfg sim.Config, scale int) string {
	return engine.Key("sim-run", w.Name(), w.Params(), spec, cfg, scale)
}

// SimRuns fans one engine job per machine configuration, so each per-core
// simulation is scheduled, singleflighted, and disk-cached independently.
// Results come back in cfgs order.
func SimRuns(ctx context.Context, eng *engine.Engine, w Workload, ds *datagen.Dataset, cfgs []sim.Config, scale int) ([]SimRun, error) {
	jobs := make([]engine.Job, len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		jobs[i] = engine.Job{
			ID:  "sim:" + w.Name() + "/p=" + strconv.Itoa(cfg.Cores),
			Key: SimRunKey(w, ds.Spec, cfg, scale),
			Fn: func(context.Context) (any, error) {
				return RunSim(w, ds, cfg, scale)
			},
		}
	}
	out := make([]SimRun, len(cfgs))
	for i, r := range eng.Run(ctx, jobs) {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].ID, r.Err)
		}
		run, ok := r.Value.(SimRun)
		if !ok {
			return nil, fmt.Errorf("%s: unexpected cached result type %T", jobs[i].ID, r.Value)
		}
		out[i] = run
	}
	return out, nil
}

// defaultConfigs maps core counts onto Table I baseline machine configs.
func defaultConfigs(coreCounts []int) []sim.Config {
	cfgs := make([]sim.Config, len(coreCounts))
	for i, c := range coreCounts {
		cfgs[i] = sim.DefaultConfig(c)
	}
	return cfgs
}

// SimProfiles runs the workload on the simulator across core counts and
// converts each run's per-phase cycles into a trace.Profile (Work =
// cycles): one engine job per core count, each independently cached.
func SimProfiles(ctx context.Context, eng *engine.Engine, w Workload, ds *datagen.Dataset, coreCounts []int, scale int) ([]*trace.Profile, error) {
	cfgs := defaultConfigs(coreCounts)
	runs, err := SimRuns(ctx, eng, w, ds, cfgs, scale)
	if err != nil {
		return nil, err
	}
	out := make([]*trace.Profile, len(runs))
	for i, r := range runs {
		if out[i], err = r.Profile(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SimSpeedupCurve runs the workload on the given simulated core counts and
// returns speedups relative to the single-core run — the series of Figure
// 2(a). It shares cache entries with SimProfiles (both derive from the
// same SimRun jobs).
func SimSpeedupCurve(ctx context.Context, eng *engine.Engine, w Workload, ds *datagen.Dataset, coreCounts []int, scale int) (map[int]float64, error) {
	runs, err := SimRuns(ctx, eng, w, ds, defaultConfigs(coreCounts), scale)
	if err != nil {
		return nil, err
	}
	cycles := map[int]uint64{}
	for _, r := range runs {
		cycles[r.Cores] = r.Cycles
	}
	base, ok := cycles[1]
	if !ok {
		return nil, errors.New("workload: speedup curve needs a 1-core run")
	}
	out := map[int]float64{}
	for c, cy := range cycles {
		if cy == 0 {
			return nil, errors.New("workload: zero-cycle run")
		}
		out[c] = float64(base) / float64(cy)
	}
	return out, nil
}
