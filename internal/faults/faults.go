// Package faults is the deterministic fault-injection and graceful-
// degradation layer under the engine's persistent store: a seed-driven
// injector that can fail, delay, or corrupt disk-store traffic on a
// reproducible schedule, and a circuit breaker that converts a failing
// store into a degraded-but-correct engine (memory + compute only)
// instead of a slow or wedged one.
//
// # Why injection lives here
//
// The disk cache is best-effort by contract: every store fault is
// supposed to degrade to a recomputation, never to a wrong byte. That
// contract is only trustworthy if it is exercised, and real disks fail
// rarely and unreproducibly. The injector makes failure a first-class,
// replayable input: the same seed and spec produce the same decision
// for every operation index, regardless of goroutine scheduling, so a
// chaos run that found a bug can be re-run at -workers 1 until the bug
// is gone (see Determinism). Injection is off by default and sits
// strictly between the engine and the store — it never sees, and can
// never alter, cache keys, envelope contents, or rendered output bytes.
//
// # Spec grammar
//
// A fault profile is a comma-separated list of fields (CLI: -faults):
//
//	spec  := field ("," field)*
//	field := "seed=" INT                      PRNG seed (default 1)
//	       | op "." kind "=" value
//	op    := "get" | "put"
//	kind  := "err"                            operation fails
//	       | "delay"                          operation sleeps first
//	       | "corrupt"                        entry bytes are mutated
//	       | "enospc"                         (put only) file write fails
//	value := PROB                             probability in [0,1]
//	       | "1/" N                           every Nth operation exactly
//	       | DUR                              (delay only) always, e.g. 5ms
//	       | DUR "@" PROB                     delay with probability
//	       | DUR "@1/" N                      delay every Nth operation
//
// Examples:
//
//	get.err=1,put.err=1              every store op fails (chaos gate)
//	seed=7,get.err=0.01,put.enospc=0.05
//	get.delay=5ms@0.1,put.corrupt=1/100
//
// err and delay inject at the store boundary (the Store wrapper);
// corrupt and enospc inject inside diskcache's file I/O (the WrapPut /
// WrapGet hooks), so corruption exercises the envelope decoder's
// self-healing exactly the way a failing disk would.
//
// # Determinism
//
// Every decision is a pure function of (seed, op, kind, n) where n is
// the per-(op,kind) operation index: a splitmix64 stream indexed by n,
// not a shared stateful PRNG. Concurrent operations race only for the
// index counter, so the multiset of decisions over any N operations is
// schedule-independent, and a single-threaded replay reproduces the
// exact sequence. Which operations reach the injector is not: with
// concurrent engine workers, the set of store operations a run issues
// depends on when the breaker trips, so the injected count of a whole
// concurrent run can differ between two runs of the same spec.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Op names an injectable store operation.
type Op uint8

const (
	OpGet Op = iota
	OpPut
	numOps
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Kind names an injectable fault flavor.
type Kind uint8

const (
	// KindErr fails the operation at the store boundary: a Get reads as
	// an infrastructure fault (not a miss), a Put is refused.
	KindErr Kind = iota
	// KindDelay sleeps before the operation proceeds (injected latency).
	KindDelay
	// KindCorrupt mutates the entry bytes in diskcache's file I/O: a
	// corrupted put lands a bit-flipped or truncated (partial-write)
	// envelope on disk, a corrupted get mangles the bytes read before
	// decoding. Both exercise the envelope decoder's drop-and-self-heal
	// path.
	KindCorrupt
	// KindEnospc fails the put inside diskcache's file write, modelling
	// a full disk: the entry is not written and the failure is counted
	// as a WriteErr.
	KindEnospc
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindErr:
		return "err"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	case KindEnospc:
		return "enospc"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule is one (op, kind) injection schedule. Exactly one of Prob and
// Every is active: Every = N > 0 fires on every Nth operation (a
// deterministic schedule); otherwise Prob in (0,1] fires per operation
// with that probability from the seeded stream.
type Rule struct {
	Prob  float64
	Every uint64
	// Delay is the injected latency for KindDelay rules; zero otherwise.
	Delay time.Duration
}

// active reports whether the rule injects at all.
func (r Rule) active() bool { return r.Prob > 0 || r.Every > 0 }

// Spec is a parsed fault profile: a seed plus one optional rule per
// (op, kind). The zero Spec injects nothing.
type Spec struct {
	Seed  int64
	Rules [numOps][numKinds]Rule
}

// Active reports whether any rule injects.
func (s *Spec) Active() bool {
	for op := range s.Rules {
		for kind := range s.Rules[op] {
			if s.Rules[op][kind].active() {
				return true
			}
		}
	}
	return false
}

// String renders the spec in the grammar ParseSpec accepts (fields in a
// fixed op/kind order, seed first), so specs round-trip and log lines
// are replayable.
func (s *Spec) String() string {
	fields := []string{fmt.Sprintf("seed=%d", s.Seed)}
	for op := Op(0); op < numOps; op++ {
		for kind := Kind(0); kind < numKinds; kind++ {
			r := s.Rules[op][kind]
			if !r.active() {
				continue
			}
			var v string
			switch {
			case kind == KindDelay && r.Every > 0:
				v = fmt.Sprintf("%s@1/%d", r.Delay, r.Every)
			case kind == KindDelay && r.Prob >= 1:
				v = r.Delay.String()
			case kind == KindDelay:
				v = fmt.Sprintf("%s@%s", r.Delay, formatProb(r.Prob))
			case r.Every > 0:
				v = fmt.Sprintf("1/%d", r.Every)
			default:
				v = formatProb(r.Prob)
			}
			fields = append(fields, fmt.Sprintf("%s.%s=%s", op, kind, v))
		}
	}
	return strings.Join(fields, ",")
}

func formatProb(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}

// validKinds lists the kinds each op accepts: everything for put,
// everything but enospc (a write-side fault) for get.
func validKind(op Op, kind Kind) bool {
	return !(op == OpGet && kind == KindEnospc)
}

// ParseSpec parses the -faults grammar documented in the package
// comment. The empty string parses to the inactive zero Spec with seed
// 1. Unknown fields, out-of-domain probabilities, and malformed values
// are one-line errors naming the offending field.
func ParseSpec(spec string) (Spec, error) {
	s := Spec{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return s, fmt.Errorf("faults: field %q: want key=value", field)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		if seen[key] {
			return s, fmt.Errorf("faults: duplicate field %q", key)
		}
		seen[key] = true
		if key == "seed" {
			seed, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return s, fmt.Errorf("faults: seed %q: not an integer", value)
			}
			s.Seed = seed
			continue
		}
		opName, kindName, ok := strings.Cut(key, ".")
		if !ok {
			return s, fmt.Errorf("faults: field %q: want op.kind=value (ops: get, put; kinds: err, delay, corrupt, enospc)", key)
		}
		op, err := parseOp(opName)
		if err != nil {
			return s, err
		}
		kind, err := parseKind(kindName)
		if err != nil {
			return s, err
		}
		if !validKind(op, kind) {
			return s, fmt.Errorf("faults: %s.%s: enospc is a write-side fault (put only)", opName, kindName)
		}
		rule, err := parseRuleValue(kind, value)
		if err != nil {
			return s, fmt.Errorf("faults: %s: %w", key, err)
		}
		s.Rules[op][kind] = rule
	}
	return s, nil
}

func parseOp(name string) (Op, error) {
	switch name {
	case "get":
		return OpGet, nil
	case "put":
		return OpPut, nil
	}
	return 0, fmt.Errorf("faults: unknown op %q (have: get, put)", name)
}

func parseKind(name string) (Kind, error) {
	switch name {
	case "err":
		return KindErr, nil
	case "delay":
		return KindDelay, nil
	case "corrupt":
		return KindCorrupt, nil
	case "enospc":
		return KindEnospc, nil
	}
	return 0, fmt.Errorf("faults: unknown kind %q (have: err, delay, corrupt, enospc)", name)
}

// parseRuleValue parses the value side of a rule. Delay rules take
// DUR[@PROB|@1/N]; the rest take PROB or 1/N.
func parseRuleValue(kind Kind, value string) (Rule, error) {
	var r Rule
	if kind == KindDelay {
		durStr, schedStr, hasSched := strings.Cut(value, "@")
		d, err := time.ParseDuration(strings.TrimSpace(durStr))
		if err != nil || d <= 0 {
			return r, fmt.Errorf("value %q: want a positive duration, e.g. 5ms or 5ms@0.1", value)
		}
		r.Delay = d
		if !hasSched {
			r.Prob = 1
			return r, nil
		}
		value = strings.TrimSpace(schedStr)
	}
	if n, ok := strings.CutPrefix(value, "1/"); ok {
		every, err := strconv.ParseUint(n, 10, 64)
		if err != nil || every == 0 {
			return r, fmt.Errorf("schedule %q: want 1/N with N >= 1", value)
		}
		r.Every = every
		return r, nil
	}
	p, err := strconv.ParseFloat(value, 64)
	if err != nil || p != p || p < 0 || p > 1 {
		return r, fmt.Errorf("probability %q: want a value in [0,1] or a 1/N schedule", value)
	}
	r.Prob = p
	return r, nil
}

// RuleCounts snapshots one rule's traffic: operations consulted and
// faults injected.
type RuleCounts struct {
	Op       string `json:"op"`
	Kind     string `json:"kind"`
	Ops      uint64 `json:"ops"`
	Injected uint64 `json:"injected"`
}

// sortRuleCounts orders snapshots deterministically for JSON output.
func sortRuleCounts(rcs []RuleCounts) {
	sort.Slice(rcs, func(i, j int) bool {
		if rcs[i].Op != rcs[j].Op {
			return rcs[i].Op < rcs[j].Op
		}
		return rcs[i].Kind < rcs[j].Kind
	})
}
