// Package workload defines the common interface of the MineBench-substitute
// clustering applications (kmeans, fuzzy, hop) and shared helpers for
// running them natively (goroutines, instrumented phases) and on the
// internal/sim CMP simulator (compiled to kernel-IR programs).
package workload

import (
	"context"
	"errors"
	"fmt"

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

// NativeProfiles runs the workload natively at each thread count, one run
// after another on the calling goroutine, and returns the profiles in
// threadCounts order. Count-mode runs are closed forms (hop's read one
// memoized kernel pass per data set), so they need no engine job or cache
// entry; timed runs (timing set) run serially so no run is timed while a
// sibling competes for the CPU.
func NativeProfiles(ctx context.Context, w Native, ds *datagen.Dataset, threadCounts []int, timing bool) ([]*trace.Profile, error) {
	out := make([]*trace.Profile, len(threadCounts))
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
