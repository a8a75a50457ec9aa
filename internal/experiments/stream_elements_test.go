package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/report"
)

// renderBuffered renders outcomes the CLI's buffered way: Begin, Replay
// each document, End.
func renderBuffered(t *testing.T, format string, outcomes []Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if err := o.Doc.Replay(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderStreamElements renders targets through the element-granular
// stream into format.
func renderStreamElements(t *testing.T, eng *engine.Engine, targets []Experiment, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := StreamElements(context.Background(), eng, targets, quick, r.Element); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamElementsMatchesBuffered is the element-granular determinism
// guarantee over the full registry: the fine-grained stream — rows and
// chart series forwarded as their experiments produce them — renders
// byte-identically to a buffered RunAll + Replay on a serial, uncached
// engine, in every format and across worker counts {1,2,4}. Runs under
// -race in CI, exercising the element release buffer against concurrent
// emits and OnDone callbacks.
func TestStreamElementsMatchesBuffered(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	reg := Registry()
	serial := RunAll(ctx, serialEngine(), reg, quick)
	for _, format := range []string{"text", "markdown", "json", "csv"} {
		want := renderBuffered(t, format, serial)
		if len(want) == 0 {
			t.Fatalf("%s: buffered render is empty", format)
		}
		for _, workers := range []int{1, 2, 4} {
			eng := engine.New(engine.Config{Workers: workers})
			if got := renderStreamElements(t, eng, reg, format); !bytes.Equal(want, got) {
				t.Fatalf("%s workers=%d: element stream differs from buffered (%d vs %d bytes)", format, workers, len(got), len(want))
			}
		}
	}
}

// TestStreamElementsCachedReplay: a second element stream on a warm
// engine executes nothing — cached outcomes never re-emit, so their
// elements replay from the stored documents — and still produces the
// same bytes.
func TestStreamElementsCachedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	targets := Registry()[:4]
	eng := engine.New(engine.Config{Workers: 4})
	first := renderStreamElements(t, eng, targets, "markdown")
	executed := eng.Stats().Executed
	second := renderStreamElements(t, eng, targets, "markdown")
	if again := eng.Stats().Executed; again != executed {
		t.Fatalf("warm element stream executed %d new jobs, want 0", again-executed)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("warm element stream rendered different bytes")
	}
}

// TestStreamElementsEmitError: a failing emit hook on the live path (cold
// engines, so experiments emit as they run) fails the stream and stops
// delivery: emit is called exactly once.
func TestStreamElementsEmitError(t *testing.T) {
	boom := errors.New("client gone")
	targets := Registry()[:3]
	for _, eng := range []*engine.Engine{serialEngine(), engine.New(engine.Config{Workers: 4})} {
		calls := 0
		err := StreamElements(context.Background(), eng, targets, quick, func(report.Element) error {
			calls++
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("StreamElements returned %v, want emit error", err)
		}
		if calls != 1 {
			t.Fatalf("workers=%d: emit called %d times, want 1", eng.Workers(), calls)
		}
	}
}
