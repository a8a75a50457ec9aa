package workload_test

import (
	"fmt"
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

// TestSimRunKeyGoldens pins SimRunKey outputs for every workload across
// the full core-count envelope. These keys address the persistent disk
// cache: if one changes, every warm -cachedir cache silently re-executes,
// so the literals must never drift. (Workload iteration counts here match
// the quick-mode registry: Iters=3 for kmeans and fuzzy.)
func TestSimRunKeyGoldens(t *testing.T) {
	km := kmeans.New()
	km.Cfg.Iters = 3
	fz := fuzzy.New()
	fz.Cfg.Iters = 3
	goldens := map[string]map[int]string{
		"kmeans": {
			1:  "89df4fdf9a407984",
			2:  "299717ace1850159",
			4:  "6d35a40d6ad3ecd3",
			8:  "a1063807fc80afff",
			16: "d4b98e9a85bbf8ee",
		},
		"fuzzy": {
			1:  "ac2c306b5653d1dc",
			2:  "2b316874c4343af1",
			4:  "6647b88a9dd1686b",
			8:  "cbd980c478a3fb67",
			16: "a7d00ada20711896",
		},
		"hop": {
			1:  "3750e8b081d9fe68",
			2:  "1fbf98cdc751566d",
			4:  "a6629e449e9c288f",
			8:  "1fca52019a21e323",
			16: "5ea7147d0a669fa2",
		},
		// Both contend modes share Name()=="contend"; Mode lives in
		// Params, so the keys differ — pinned separately per mode.
		"contend-joined": {
			1:  "c3583339dfeae707",
			2:  "a8d87b301d7bcace",
			4:  "ff6af538ac73a520",
			8:  "d4e755f42bfc45fc",
			16: "7690cb0e0b9f080b",
		},
		"contend-split": {
			1:  "db79201385b4fe54",
			2:  "1f83a2a221dc65a9",
			4:  "33246051f0315e63",
			8:  "6f19f615081acecf",
			16: "b31467d2d1c72d3e",
		},
	}
	cj := contend.New()
	cs := contend.New()
	cs.Cfg.Mode = contend.Split
	cases := []struct {
		label string
		w     workload.Workload
	}{
		{"kmeans", km}, {"fuzzy", fz}, {"hop", hop.New()},
		{"contend-joined", cj}, {"contend-split", cs},
	}
	for _, c := range cases {
		for cores, want := range goldens[c.label] {
			got := workload.SimRunKey(c.w, c.w.DefaultSpec(), sim.DefaultConfig(cores), 16)
			if got != want {
				t.Errorf("SimRunKey(%s, p=%d) = %q, golden %q", c.label, cores, got, want)
			}
		}
	}
}

// TestSimRunKeyCoversParams ensures the key reacts to workload parameter
// changes (a frozen key that ignored Params would alias distinct runs).
func TestSimRunKeyCoversParams(t *testing.T) {
	km := kmeans.New()
	base := workload.SimRunKey(km, km.DefaultSpec(), sim.DefaultConfig(4), 1)
	km.Cfg.Iters++
	if workload.SimRunKey(km, km.DefaultSpec(), sim.DefaultConfig(4), 1) == base {
		t.Error("key ignores kmeans iteration count")
	}
	km.Cfg.Iters--
	cfg := sim.DefaultConfig(4)
	cfg.L1Lat++
	if workload.SimRunKey(km, km.DefaultSpec(), cfg, 1) == base {
		t.Error("key ignores machine config")
	}
	spec := km.DefaultSpec()
	spec.Seed++
	if workload.SimRunKey(km, spec, sim.DefaultConfig(4), 1) == base {
		t.Error("key ignores dataset spec")
	}
	if workload.SimRunKey(km, km.DefaultSpec(), sim.DefaultConfig(4), 2) == base {
		t.Error("key ignores scale")
	}
	if fmt.Sprint(base) == "" {
		t.Error("empty key")
	}
}
