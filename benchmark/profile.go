package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// Labels marking the harness's client goroutines in CPU profiles.
const (
	clientLabelKey   = "bench"
	clientLabelValue = "client"
)

// cpuLayers are the CPU-time buckets of a profile, reported as cpu.<name>_s.
var cpuLayers = []string{
	"native", "progbuild", "sim", "datagen", "model", "experiments", "engine",
	"diskcache", "report", "serve", "http", "gc", "sched", "client", "other",
}

// repoLayers maps the packages of the mergescale module to layers. The
// longest matching prefix wins, so engine/diskcache is not engine.
var repoLayers = map[string]string{
	"workload":         "native",
	"parallel":         "native",
	"reduction":        "native",
	"shapepool":        "native",
	"workload/datagen": "datagen",
	"sim":              "sim",
	"core":             "model",
	"trace":            "model",
	"stats":            "model",
	"topology":         "model",
	"experiments":      "experiments",
	"engine":           "engine",
	"engine/diskcache": "diskcache",
	"faults":           "diskcache",
	"report":           "report",
	"serve":            "serve",
}

const repoPrefix = "mergescale/internal/"

// gcFrames are runtime frames doing garbage-collection work, wherever on
// the stack they sit.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush", "runtime._GC",
}

// schedFrames are the Go scheduler's frames: parking, waking and
// stealing goroutines, and polling the network for ready ones.
var schedFrames = []string{
	"runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.stealWork", "runtime.netpoll", "runtime.wakep", "runtime.startm", "runtime.stopm",
}

// layerOf assigns one CPU sample to a layer. frames run from the leaf
// outward; client is whether the sample carries the client label.
//
// Order: the harness's client; garbage collection anywhere on the stack;
// a program builder (a BuildProgram frame) anywhere on the stack; the
// innermost frame of a mergescale package (so gob and syscall time below
// the disk cache count as diskcache); the scheduler; net/http and net
// frames; other.
func layerOf(frames []string, client bool) string {
	if client {
		return "client"
	}
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, repoPrefix) && strings.Contains(f, ".BuildProgram") {
			return "progbuild"
		}
	}
	for _, f := range frames {
		if l, ok := repoLayer(f); ok {
			return l
		}
	}
	for _, f := range frames {
		for _, g := range schedFrames {
			if strings.HasPrefix(f, g) {
				return "sched"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/") || strings.HasPrefix(f, "net.") {
			return "http"
		}
	}
	return "other"
}

// repoLayer maps a function name of the mergescale module to its layer.
func repoLayer(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	pkg := rest
	slash := strings.LastIndexByte(rest, '/')
	if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	best, layer := -1, ""
	for p, l := range repoLayers {
		if (pkg == p || strings.HasPrefix(pkg, p+"/")) && len(p) > best {
			best, layer = len(p), l
		}
	}
	return layer, best >= 0
}

// cpuByLayer reads CPU profiles with the offline `go tool pprof -traces`
// and sums sample time per layer.
func cpuByLayer(profiles ...string) (map[string]time.Duration, error) {
	args := append([]string{"tool", "pprof", "-traces"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces parses `go tool pprof -traces` output: blocks separated by
// dashed lines, each with optional "key: value" label lines, then the
// sample value and the leaf function, then the caller functions.
func parseTraces(text string) (map[string]time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var (
		frames []string
		client bool
		value  time.Duration
		inSamp bool
	)
	flush := func() {
		if inSamp {
			byLayer[layerOf(frames, client)] += value
		}
		frames, client, value, inSamp = nil, false, 0, false
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started {
			continue // header: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !inSamp {
			if strings.HasSuffix(fields[0], ":") {
				if strings.TrimSuffix(fields[0], ":") == clientLabelKey && len(fields) > 1 && fields[1] == clientLabelValue {
					client = true
				}
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected line %q", line)
			}
			value, inSamp = d, true
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	return byLayer, sc.Err()
}
