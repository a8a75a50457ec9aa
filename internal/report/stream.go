package report

import (
	"encoding/gob"
	"fmt"
	"io"
)

func init() {
	// Elements are the unit of the streaming pipeline and may cross process
	// boundaries inside gob envelopes (a store that persists streams rather
	// than whole documents); per the disk-cache rules in
	// docs/ARCHITECTURE.md the producing package registers the concrete
	// type. Element is a value type with exported, pointer/map-free fields
	// for the same reason.
	gob.Register(Element{})
}

// ElementKind discriminates the items of a document stream.
type ElementKind int

const (
	// ElemBeginDoc opens a document; ID and Title are set.
	ElemBeginDoc ElementKind = iota
	// ElemTable carries one whole table (the coarse, pre-row-granular
	// form; still accepted by every backend).
	ElemTable
	// ElemChart carries one whole chart (the coarse form; still accepted
	// by every backend).
	ElemChart
	// ElemNote carries one free-form note line.
	ElemNote
	// ElemEndDoc closes the current document.
	ElemEndDoc

	// The row-granular kinds below are appended after the original five so
	// the gob encoding of every pre-existing element value is unchanged
	// (cached envelopes from older binaries decode to the same kinds).

	// ElemBeginTable opens a table; Table carries Title and Columns but no
	// rows (rows follow as ElemRow elements).
	ElemBeginTable
	// ElemRow carries one table row in Row.
	ElemRow
	// ElemEndTable closes the open table.
	ElemEndTable
	// ElemBeginChart opens a chart; Chart carries Title/XLabel/YLabel/LogX
	// but no series (series follow as ElemSeries elements).
	ElemBeginChart
	// ElemSeries carries one chart series in Series.
	ElemSeries
	// ElemEndChart closes the open chart.
	ElemEndChart
)

// Element is one item of a document stream. Exactly the fields named by
// Kind are meaningful; the rest stay zero. Table, Chart, Row and Series
// are held by value so an Element — like Document — is plain exported data
// that survives a gob round trip unchanged.
type Element struct {
	Kind   ElementKind
	ID     string   // ElemBeginDoc
	Title  string   // ElemBeginDoc
	Table  Table    // ElemTable; ElemBeginTable (Title+Columns only)
	Chart  Chart    // ElemChart; ElemBeginChart (frame fields only)
	Note   string   // ElemNote
	Row    []string // ElemRow
	Series Series   // ElemSeries
}

// Renderer consumes an element stream incrementally. The contract: one
// Begin, then for each document its elements in replay order (ElemBeginDoc,
// tables, charts, notes, ElemEndDoc), then one End. Tables and charts
// arrive either coarse (one ElemTable/ElemChart) or fine-grained
// (ElemBeginTable, ElemRow..., ElemEndTable; ElemBeginChart,
// ElemSeries..., ElemEndChart) — both forms render byte-identically, and
// backends flush rows as they arrive where the format permits (markdown
// and csv rows need no alignment; text tables and every ASCII chart need
// the full extent first and buffer until their End element). Backends own
// every output byte, including inter-document separation, so a caller that
// replays documents one at a time as they complete produces output
// byte-identical to a caller that buffered them all first.
//
// Renderers are single-use and not safe for concurrent use; callers
// serialize Element calls (the experiments layer does so in its in-order
// release buffer).
type Renderer interface {
	Begin() error
	Element(Element) error
	End() error
}

// Formats lists the backend names NewRenderer accepts.
func Formats() []string { return []string{"text", "markdown", "json", "csv"} }

// NewRenderer returns the streaming backend for format, writing to w:
//
//	text      fixed-width terminal tables and ASCII charts
//	markdown  GitHub-flavored markdown (headings, pipe tables, fenced charts)
//	json      one JSON array of document objects, one object per document
//	csv       every table as RFC-4180-ish CSV, preceded by a # title comment
//
// The text, markdown, and csv streams separate documents with a blank line
// (markdown documents end with one already, so no extra byte is emitted);
// the json stream is framed as a single array.
func NewRenderer(format string, w io.Writer) (Renderer, error) {
	switch format {
	case "text":
		return &textRenderer{w: w, sep: true}, nil
	case "markdown":
		return &markdownRenderer{w: w}, nil
	case "json":
		return &jsonRenderer{w: w}, nil
	case "csv":
		return &csvRenderer{w: w, sep: true}, nil
	default:
		return nil, fmt.Errorf("report: unknown format %q (formats: %v)", format, Formats())
	}
}

// Elements flattens the document into its fine-grained element stream —
// begin, each table as ElemBeginTable/ElemRow.../ElemEndTable, each chart
// as ElemBeginChart/ElemSeries.../ElemEndChart, notes, end — the replay
// order every backend renders in. Rendering the fine stream is
// byte-identical to rendering the coarse ElemTable/ElemChart form
// (differential tests pin it), so callers holding whole documents lose
// nothing, while producers that stream rows live (report.Emitter) share
// the same wire shape.
func (d *Document) Elements() []Element {
	n := 2 + 2*len(d.Charts) + len(d.Notes)
	for _, t := range d.Tables {
		n += 2 + len(t.Rows)
	}
	for _, c := range d.Charts {
		n += len(c.Series)
	}
	els := make([]Element, 0, n)
	els = append(els, Element{Kind: ElemBeginDoc, ID: d.ID, Title: d.Title})
	for _, t := range d.Tables {
		els = append(els, Element{Kind: ElemBeginTable, Table: tableFrame(t)})
		for _, row := range t.Rows {
			els = append(els, Element{Kind: ElemRow, Row: row})
		}
		els = append(els, Element{Kind: ElemEndTable})
	}
	for _, c := range d.Charts {
		els = append(els, Element{Kind: ElemBeginChart, Chart: chartFrame(c)})
		for _, s := range c.Series {
			els = append(els, Element{Kind: ElemSeries, Series: s})
		}
		els = append(els, Element{Kind: ElemEndChart})
	}
	for _, n := range d.Notes {
		els = append(els, Element{Kind: ElemNote, Note: n})
	}
	return append(els, Element{Kind: ElemEndDoc})
}

// tableFrame is the rowless table carried by ElemBeginTable. Rows keeps
// nil-ness: the json backend renders a nil-rows table as "rows": null and
// an empty one as "rows": [] exactly like the coarse form, so the marker
// must survive the fine-grained split.
func tableFrame(t *Table) Table {
	frame := Table{Title: t.Title, Columns: t.Columns}
	if t.Rows != nil {
		frame.Rows = [][]string{}
	}
	return frame
}

// chartFrame is the seriesless chart carried by ElemBeginChart.
func chartFrame(c *Chart) Chart {
	return Chart{Title: c.Title, XLabel: c.XLabel, YLabel: c.YLabel, LogX: c.LogX}
}

// Replay feeds the document's elements through r. It emits only the
// document's own elements — stream framing (Begin/End) belongs to the
// caller driving the whole stream.
func (d *Document) Replay(r Renderer) error {
	for _, el := range d.Elements() {
		if err := r.Element(el); err != nil {
			return err
		}
	}
	return nil
}
