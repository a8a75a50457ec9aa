// Package workload defines the common interface of the MineBench-substitute
// clustering applications (kmeans, fuzzy, hop) and shared helpers for
// running them natively (goroutines, instrumented phases) and on the
// internal/sim CMP simulator (compiled to kernel-IR programs).
package workload

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"mergescale/internal/engine"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

// Workload is one clustering application.
type Workload interface {
	// Name returns the benchmark name ("kmeans", "fuzzy", "hop").
	Name() string
	// Params returns the workload's tunable configuration as a
	// deterministic, pointer- and map-free value; it is hashed (via %#v)
	// into engine cache keys, so two workloads with equal Name() and
	// Params() must produce identical programs and native runs.
	Params() any
	// DefaultSpec returns the default data-set shape (Table IV "base").
	DefaultSpec() datagen.Spec
	// BuildProgram compiles the workload into a simulator program for the
	// given machine configuration. scale > 1 divides the point count to
	// keep simulations short (shape-preserving; merge work is unscaled).
	BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error)
}

// Native is a workload that also runs on the host: kmeans, fuzzy and hop.
type Native interface {
	Workload
	// RunNative executes the algorithm with the given thread count,
	// recording per-section operation counts (and wall times when timing
	// is true) into a fresh profile.
	RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error)
}

// Memory layout used by all generated simulator programs. Regions are far
// apart so they never share cache lines.
const (
	AddrCenters  = 0x0010_0000 // shared cluster centers / global results
	AddrPartials = 0x0100_0000 // per-thread partial buffers
	AddrPoints   = 0x1000_0000 // read-only point data
	PartialAlign = 0x0001_0000 // spacing between per-thread partial regions
)

// PartialBase returns the base address of thread id's partial buffer.
func PartialBase(id int) uint64 {
	return AddrPartials + uint64(id)*PartialAlign
}

// sectionByPhase maps simulator phase names onto trace sections. Hoisted
// to package scope so phasesToProfile (on the per-job result path) does
// not rebuild the map per call.
var sectionByPhase = map[string]trace.Section{
	"init":      trace.SecInit,
	"parallel":  trace.SecParallel,
	"reduction": trace.SecReduction,
	"serial":    trace.SecSerial,
}

// phasesToProfile maps simulator phase cycles onto trace sections.
func phasesToProfile(name string, cores int, phases []sim.PhaseTime) (*trace.Profile, error) {
	p := trace.NewProfile(name, cores)
	for _, ph := range phases {
		sec, ok := sectionByPhase[ph.Name]
		if !ok {
			return nil, fmt.Errorf("workload: unknown phase %q in simulation result", ph.Name)
		}
		p.AddWork(sec, float64(ph.Cycles))
	}
	if p.TotalWork() == 0 {
		return nil, errors.New("workload: simulation produced no phase cycles")
	}
	return p, nil
}

// NativeRunKey is the engine cache key of one native run. Like SimRunKey
// it covers everything RunNative's operation counts depend on — workload
// identity and tunables (Params), the data-set spec and the thread count —
// and nothing else.
func NativeRunKey(w Workload, spec datagen.Spec, threads int) string {
	return engine.Key("native-run", w.Name(), w.Params(), spec, threads)
}

// NativeProfiles runs the workload natively across the given thread
// counts, one engine job per thread count keyed by NativeRunKey, so runs
// are scheduled across the engine's workers, singleflighted across
// experiments and disk-cached. Results come back in threadCounts order;
// each caller gets its own copy of every profile. With timing set the
// runs bypass eng: they are never cached (wall-clock sections are
// nondeterministic) and run serially on the calling goroutine, so no run
// is timed while its siblings compete for the CPU.
func NativeProfiles(ctx context.Context, eng *engine.Engine, w Native, ds *datagen.Dataset, threadCounts []int, timing bool) ([]*trace.Profile, error) {
	out := make([]*trace.Profile, len(threadCounts))
	if timing {
		for i, th := range threadCounts {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p, err := w.RunNative(ds, th, timing)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return out, nil
	}
	jobs := make([]engine.Job, len(threadCounts))
	for i, th := range threadCounts {
		jobs[i] = engine.Job{
			ID:  "native:" + w.Name() + "/t=" + strconv.Itoa(th),
			Key: NativeRunKey(w, ds.Spec, th),
			Fn: func(context.Context) (any, error) {
				p, err := w.RunNative(ds, th, false)
				if err != nil {
					return nil, err
				}
				return *p, nil
			},
		}
	}
	for i, r := range eng.Run(ctx, jobs) {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].ID, r.Err)
		}
		p, ok := r.Value.(trace.Profile)
		if !ok {
			return nil, fmt.Errorf("%s: unexpected cached result type %T", jobs[i].ID, r.Value)
		}
		out[i] = &p
	}
	return out, nil
}
