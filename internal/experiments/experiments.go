package experiments

import (
	"context"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"mergescale/internal/core"
	"mergescale/internal/engine"
	"mergescale/internal/report"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

func init() {
	// Experiment outcomes cross the engine's persistent store inside gob
	// envelopes; register the concrete document type so other processes
	// can decode the interface-typed envelope field.
	gob.Register(&report.Document{})
}

// Options tunes experiment cost.
type Options struct {
	// Quick shrinks data sets and core-count grids so the whole suite runs
	// in seconds (used by `go test` benchmarks and CI).
	Quick bool
	// UseDuration bases the native-run experiments (Fig. 2(c)) on wall
	// clock instead of deterministic operation counts.
	UseDuration bool
	// Engine is required: experiments shard their simulator and native
	// runs (one per core or thread count) into sub-jobs on it. RunAll and
	// StreamElements set it to the engine they run on. It is excluded from
	// cache keys; see cacheKey.
	Engine *engine.Engine
}

// cacheKey hashes an experiment id plus every Options field that changes
// its output, plus a fingerprint of the model/simulator/workload constants
// the suite is built from. The Engine pointer only affects scheduling,
// never results (asserted by TestRunAllMatchesSerial and
// TestStreamElementsMatchesBuffered), so it is
// deliberately excluded. Timing-sensitive experiments running on wall
// clock (-duration) return an empty key: their output is nondeterministic,
// so it must never be cached — neither in memory nor on disk.
func cacheKey(e Experiment, opt Options) string {
	if e.Timing && opt.UseDuration {
		return ""
	}
	return engine.Key("experiment", e.ID, opt.Quick, opt.UseDuration, configFingerprint(opt))
}

// fingerprints memoizes configFingerprint per Quick setting (the only
// Options field the fingerprint depends on): every experiment submission
// recomputes its cache key, and the fingerprint — three workload
// constructions plus a dozen key parts — would dominate that cost.
var fingerprints sync.Map // bool (Quick) -> string

// configFingerprint digests the tunable constants experiment documents are
// derived from — the Table I machine config, the BCE budget, and each
// workload's identity, parameters and data-set spec — so editing any of
// them invalidates warm disk-cache entries instead of replaying stale
// documents. Code changes beyond these constants still require a
// diskcache envelopeVersion bump (see docs/ARCHITECTURE.md). Golden-key
// tests pin the resulting experiment keys.
func configFingerprint(opt Options) string {
	if fp, ok := fingerprints.Load(opt.Quick); ok {
		return fp.(string)
	}
	parts := []any{sim.DefaultConfig(16), core.DefaultBudget}
	for _, wk := range workloadSet(opt) {
		parts = append(parts, wk.Name(), wk.Params(), wk.DefaultSpec())
	}
	fp := engine.Key(parts...)
	fingerprints.Store(opt.Quick, fp)
	return fp
}

// Experiment is one regenerable artifact.
type Experiment struct {
	ID    string
	Title string
	// Timing marks experiments whose output depends on wall-clock
	// measurement when Options.UseDuration is set; their results are
	// uncacheable in that mode (see cacheKey).
	Timing bool
	Run    func(context.Context, Options) (*report.Document, error)
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: baseline configuration", Run: Table1},
		{ID: "table2", Title: "Table II: application parameters", Run: Table2},
		{ID: "table3", Title: "Table III: application classes and parameters", Run: Table3},
		{ID: "table4", Title: "Table IV: dataset sensitivity", Run: Table4},
		{ID: "fig2a", Title: "Fig 2(a): application scalability (simulation)", Run: Fig2a},
		{ID: "fig2b", Title: "Fig 2(b): serial section growth (simulation)", Run: Fig2b},
		{ID: "fig2c", Title: "Fig 2(c): serial behavior validation (native)", Timing: true, Run: Fig2c},
		{ID: "fig2d", Title: "Fig 2(d): model accuracy", Run: Fig2d},
		{ID: "fig3", Title: "Fig 3: scalability prediction, Amdahl vs extended", Run: Fig3},
		{ID: "fig4", Title: "Fig 4: symmetric CMP design space", Run: Fig4},
		{ID: "fig5", Title: "Fig 5: asymmetric CMP design space", Run: Fig5},
		{ID: "fig6", Title: "Fig 6: reduction fraction split-up", Run: Fig6},
		{ID: "fig7", Title: "Fig 7: communication-aware model", Run: Fig7},
		{ID: "abl-growth", Title: "Ablation: growth-function choice", Run: AblGrowth},
		{ID: "abl-topology", Title: "Ablation: interconnect topology (Eq. 8)", Run: AblTopology},
		{ID: "abl-strategy", Title: "Ablation: reduction strategies", Run: AblStrategy},
		{ID: "abl-budget", Title: "Ablation: BCE budget scaling", Run: AblBudget},
		{ID: "ext-critical", Title: "Extension: combined critical-section model", Run: ExtCritical},
		{ID: "ext-locking", Title: "Extension: privatized vs locked reductions", Run: ExtLocking},
		{ID: "ext-contend", Title: "Extension: contended zipf workload, measured vs model (joined)", Run: ExtContend},
		{ID: "ext-contend-split", Title: "Extension: contended zipf workload, measured vs model (split)", Run: ExtContendSplit},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (use one of %v)", id, IDs())
}

// IDs lists the registered experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// simCoreCounts returns the core-count grid used by the simulation
// experiments (the paper simulates up to 16 cores).
func simCoreCounts(opt Options) []int {
	if opt.Quick {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2, 4, 8, 16}
}

// simScale divides point counts for simulation. The merge work is not
// scaled, so the serial-growth *shape* is preserved at any scale; the full
// run simulates the unscaled data sets so that the absolute serial
// percentages are comparable to the paper's Table II.
func simScale(opt Options) int {
	if opt.Quick {
		return 16
	}
	return 1
}

// workloadSet builds the three benchmarks with iteration counts sized for
// the option set.
func workloadSet(opt Options) []workload.Native {
	iters := 10
	if opt.Quick {
		iters = 3
	}
	km := kmeans.New()
	km.Cfg.Iters = iters
	fz := fuzzy.New()
	fz.Cfg.Iters = iters
	return []workload.Native{km, fz, hop.New()}
}

// datasets memoizes data sets by spec, so every experiment that reads one
// spec shares one *Dataset and with it the points drawn on its first read
// (only hop's native runs read them; everything else needs the shape).
// Datasets are read-only (workloads copy what they mutate), so sharing is
// safe; memory is bounded by the distinct specs the process uses.
var datasets sync.Map // datagen.Spec -> *datagen.Dataset

// datasetFor generates (or recalls) the default data set of a workload,
// shrunk in quick mode.
func datasetFor(w workload.Workload, opt Options) (*datagen.Dataset, error) {
	spec := w.DefaultSpec()
	if opt.Quick {
		spec.N /= 8
		if spec.N < 1024 {
			spec.N = 1024
		}
	}
	return genDataset(spec)
}

// genDataset is the memoizing front of datagen.Generate shared by every
// experiment (see datasets): concurrent misses all get the stored one.
func genDataset(spec datagen.Spec) (*datagen.Dataset, error) {
	if v, ok := datasets.Load(spec); ok {
		return v.(*datagen.Dataset), nil
	}
	ds, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	v, _ := datasets.LoadOrStore(spec, ds)
	return v.(*datagen.Dataset), nil
}

// nativeThreadCounts returns the thread grid for native runs (the paper's
// hardware validation uses up to 8 cores on the Xeon E5520).
func nativeThreadCounts(opt Options) []int {
	if opt.Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8}
}
