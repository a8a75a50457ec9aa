// Command harness is mergescale's benchmark: four workloads measured end
// to end against the real binary, plus an in-process traced run that
// splits each workload's cost across the program's layers.
//
// Run it through the wrapper, from the root of a checkout:
//
//	bash benchmark/run.sh --workload regen|replay|sweep|browse --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	regen   a fresh `mergescale -quick -workers 2 run all` process per op,
//	        closed loop, one client; stdout must hash to regenDigest.
//	replay  a fresh `mergescale -quick -workers 2 -cachedir DIR run all`
//	        process per op over a cache that set-up filled with the same
//	        command: every document is read back from disk, nothing is
//	        computed; stdout must hash to regenDigest too.
//	sweep   POST /sweep?format=csv to a long-lived `mergescale -workers 2
//	        serve`, closed loop, one connection; 1024-point grids, half
//	        drawn from a pool seeded at set-up, half new.
//	browse  GET /run/{id|all}?format=F to a warmed `mergescale -quick
//	        serve`, open loop at 500 req/s over at most 2 connections.
//
// The run record carries cpu_ms, the CPU time the program itself spends
// per op: user plus system time of each CLI process, or of the server over
// the timed phase divided by its ops. It is not a bounded metric: on a
// mostly idle server it follows Go scheduler and GC timing more than the
// program. Wall-clock metrics also track the CPU time the hypervisor
// steals from the virtual machine, which the run record reports as
// steal_pct.
//
// No workload writes the disk cache while it is timed: small-file writes
// on a shared disk vary several-fold from minute to minute, which no
// bound on a regression could absorb. Cache writes happen in set-up only.
//
// With --trace 0 the harness reports the end-to-end metrics (setup_s,
// p50_ms, tail_ms, work_per_s, peak_rss_mb). With --trace 1 it
// runs the same ops, from the same seed, in-process: once plain and once
// traced (spans around the calls into each layer, a CPU profile, runtime
// metrics), and reports the per-layer metrics plus the tracing overhead.
//
// Every input is generated from --seed. Output checks run outside the
// timed phase, and every mismatch counts as a failed op. The last stdout
// line is one JSON object with the keys correct, attempted, failed and
// metrics; the line before it is the run record (CPU count, GOMAXPROCS,
// Go version, cache filesystem, seed, held-out seed, tail percentile,
// steal).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// defaultSeed drives the inputs when --seed is not given.
	defaultSeed = 1
	// heldOutSeed is the seed a performance claim must also hold on
	// without having been used while the change was written.
	heldOutSeed = 7
)

// workload is one benchmark workload: its end-to-end run against the
// real binary and its in-process traced run.
type workload struct {
	name   string
	e2e    func(*env) (*outcome, error)
	traced func(*env) (*outcome, error)
}

var workloads = []workload{
	{name: "regen", e2e: regenE2E, traced: regenTraced},
	{name: "replay", e2e: replayE2E, traced: replayTraced},
	{name: "sweep", e2e: sweepE2E, traced: sweepTraced},
	{name: "browse", e2e: browseE2E, traced: browseTraced},
}

// env is what one run needs to know about its checkout.
type env struct {
	root    string        // checkout root
	bin     string        // the mergescale binary under test
	self    string        // this harness binary, re-executed for traced regen and replay ops
	work    string        // per-run scratch directory, removed when the run ends
	seed    int64         // input seed
	seconds time.Duration // measured duration
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a finished run: ops attempted and failed, the metrics and
// the run-record fields the workload adds.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	record            map[string]any
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: regen | replay | sweep | browse")
		seed     = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for claims: %d)", heldOutSeed))
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an in-process traced run")
		root     = flag.String("root", ".", "checkout root; the mergescale binary is .bench_build/mergescale under it")
		op       = flag.Bool("op", false, "run one in-process regen or replay op and print its record (used by --trace 1)")
		cachedir = flag.String("cachedir", "", "with -op: the disk cache directory, if any (replay)")
		traced   = flag.Bool("traced", false, "with -op: instrument the op")
		profile  = flag.String("profile", "", "with -op: write a CPU profile here")
	)
	flag.Parse()
	if *op {
		return cliOpMain(*cachedir, *traced, *profile)
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: harness --workload regen|replay|sweep|browse --seed N --seconds S --trace 0|1")
		return 2
	}

	e, err := newEnv(*root, *name, *seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: %v\n", err)
		return 1
	}
	defer removeSettled(e.work)

	runWorkload := w.e2e
	if *trace == 1 {
		runWorkload = w.traced
	}
	out, err := runWorkload(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: %s: %v\n", *name, err)
		return 1
	}

	rec := map[string]any{
		"workload":      *name,
		"trace":         *trace,
		"seed":          *seed,
		"held_out_seed": heldOutSeed,
		"seconds":       *seconds,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cache_fs":      fsType(e.work),
	}
	for k, v := range out.record {
		rec[k] = v
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	for _, k := range sortedKeys(out.metrics) {
		m := out.metrics[k]
		fmt.Fprintf(os.Stderr, "%-24s %14.4f %s\n", k, m.Value, m.Unit)
	}
	line, err = json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// newEnv locates the binaries and creates the run's scratch directory.
func newEnv(root, name string, seed int64, seconds int) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "mergescale")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("mergescale binary missing (build it with benchmark/run.sh): %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "work"), name+"-")
	if err != nil {
		return nil, err
	}
	if err := settle(work); err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, self: self, work: work, seed: seed,
		seconds: time.Duration(seconds) * time.Second}, nil
}

// errNoOps reports a run whose timed phase completed nothing.
var errNoOps = errors.New("no op completed in the measured time")

// fsType names the filesystem holding dir, so a run records whether its
// disk cache sat on tmpfs or a journaling filesystem.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// settle flushes the journal of the filesystem holding dir (fsync on a
// directory commits every pending metadata change on ext4), so file
// churn left by an earlier run does not land in this one's measurements.
func settle(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// removeSettled removes dir and settles its parent, so this run's
// deletions are done before the next run starts.
func removeSettled(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return settle(filepath.Dir(dir))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
