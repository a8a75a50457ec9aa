package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

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

// renderStreamElements renders targets through the in-order document
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

// TestStreamElementsMatchesBuffered is the streaming determinism
// guarantee over the full registry: documents released in target order as
// their jobs resolve render byte-identically to a buffered RunAll + Replay
// on a serial, uncached engine, in every format and across worker counts
// {1,2,4}. Runs under -race in CI, exercising the document releaser
// against concurrent OnDone callbacks.
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

// TestStreamElementsCachedReplay: a second stream on a warm engine
// executes nothing — every document replays from the cache — and still
// produces the same bytes.
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

// TestStreamElementsEmitError: a failing emit hook on cold engines (every
// document is computed, then released) fails the stream and stops
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

// releaseDoc is a small document with a table row and a note, so one
// release spans several elements.
func releaseDoc(id string) *report.Document {
	doc := &report.Document{ID: id, Title: id}
	doc.AddTable(id, "k").AddRow(id)
	doc.AddNote(id)
	return doc
}

// TestStreamElementsReleaseOrder pins the document releaser on a 2-worker
// engine running two targets at once. A releaser that emits in completion
// order fails the first case; one that holds documents until the whole
// run resolves fails the second.
func TestStreamElementsReleaseOrder(t *testing.T) {
	const wait = 10 * time.Second
	collect := func(t *testing.T, targets []Experiment, seen func(report.Element)) []report.Element {
		t.Helper()
		var got []report.Element
		err := StreamElements(context.Background(), engine.New(engine.Config{Workers: 2}), targets, quick,
			func(el report.Element) error {
				seen(el)
				got = append(got, el)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := append(releaseDoc("t0").Elements(), releaseDoc("t1").Elements()...)

	t.Run("later target finishes first", func(t *testing.T) {
		// Target 0 waits until target 1's job has returned, then gives a
		// completion-order releaser time to emit target 1's document from
		// target 1's OnDone. Every element of target 0 must still come
		// first.
		oneReturned := make(chan struct{})
		oneEmitted := make(chan struct{})
		var once sync.Once
		t0 := Experiment{ID: "t0", Run: func(context.Context, Options) (*report.Document, error) {
			select {
			case <-oneReturned:
			case <-time.After(wait):
				return nil, errors.New("target 1 did not run alongside target 0")
			}
			select {
			case <-oneEmitted:
			case <-time.After(100 * time.Millisecond):
			}
			return releaseDoc("t0"), nil
		}}
		t1 := Experiment{ID: "t1", Run: func(context.Context, Options) (*report.Document, error) {
			defer close(oneReturned)
			return releaseDoc("t1"), nil
		}}
		got := collect(t, []Experiment{t0, t1}, func(el report.Element) {
			if el.Kind == report.ElemBeginDoc && el.ID == "t1" {
				once.Do(func() { close(oneEmitted) })
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("released %d elements out of target order:\n got %+v\nwant %+v", len(got), got, want)
		}
	})

	t.Run("head released while a later target runs", func(t *testing.T) {
		// Target 1 blocks until target 0's ElemEndDoc has reached emit.
		headEnded := make(chan struct{})
		var once sync.Once
		t0 := Experiment{ID: "t0", Run: func(context.Context, Options) (*report.Document, error) {
			return releaseDoc("t0"), nil
		}}
		t1 := Experiment{ID: "t1", Run: func(context.Context, Options) (*report.Document, error) {
			select {
			case <-headEnded:
				return releaseDoc("t1"), nil
			case <-time.After(wait):
				return nil, errors.New("target 0's document was not released while target 1 ran")
			}
		}}
		cur := ""
		got := collect(t, []Experiment{t0, t1}, func(el report.Element) {
			switch el.Kind {
			case report.ElemBeginDoc:
				cur = el.ID
			case report.ElemEndDoc:
				if cur == "t0" {
					once.Do(func() { close(headEnded) })
				}
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("released %d elements, want %d in target order", len(got), len(want))
		}
	})
}
