package report

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON writes the document as one pretty-printed JSON object — the same
// schema the json stream backend emits inside its top-level array.
func (d *Document) JSON(w io.Writer) error {
	r := &jsonRenderer{w: w, bare: true}
	return d.Replay(r)
}

// jsonDoc is the wire schema of one document. Field order (and therefore
// output) is fixed by the struct, so JSON rendering is as deterministic as
// the other backends.
type jsonDoc struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Tables []jsonTable `json:"tables,omitempty"`
	Charts []jsonChart `json:"charts,omitempty"`
	Notes  []string    `json:"notes,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type jsonChart struct {
	Title  string       `json:"title"`
	XLabel string       `json:"xlabel"`
	YLabel string       `json:"ylabel"`
	LogX   bool         `json:"logx"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// jsonRenderer streams one JSON object per document inside a single
// top-level array. It buffers only the document currently being assembled
// — elements arrive grouped (tables, charts, notes) between BeginDoc and
// EndDoc, and the object is flushed on EndDoc — so memory stays bounded by
// the largest single document, not the whole run (the document schema is a
// single object, so this format cannot flush individual rows). Table and
// chart elements accumulate into tbl/cht until their End element. bare
// drops the array framing for the standalone Document.JSON form.
type jsonRenderer struct {
	w    io.Writer
	bare bool
	docs int
	cur  *jsonDoc
	tbl  *jsonTable
	cht  *jsonChart
}

func (r *jsonRenderer) Begin() error {
	if r.bare {
		return nil
	}
	_, err := io.WriteString(r.w, "[\n")
	return err
}

func (r *jsonRenderer) End() error {
	if r.bare {
		return nil
	}
	if r.docs > 0 {
		if _, err := io.WriteString(r.w, "\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(r.w, "]\n")
	return err
}

func (r *jsonRenderer) Element(el Element) error {
	if el.Kind != ElemBeginDoc && r.cur == nil {
		return fmt.Errorf("report: json element kind %d outside a document", el.Kind)
	}
	switch el.Kind {
	case ElemBeginDoc:
		r.cur = &jsonDoc{ID: el.ID, Title: el.Title}
		return nil
	case ElemBeginTable:
		t := el.Table
		// Rows keeps the frame's nil-ness so a rowless table marshals as
		// its Document does: nil -> "rows": null, empty -> "rows": [].
		r.tbl = &jsonTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows}
		return nil
	case ElemRow:
		if r.tbl == nil {
			return fmt.Errorf("report: ElemRow outside a table")
		}
		r.tbl.Rows = append(r.tbl.Rows, el.Row)
		return nil
	case ElemEndTable:
		if r.tbl == nil {
			return fmt.Errorf("report: ElemEndTable outside a table")
		}
		r.cur.Tables = append(r.cur.Tables, *r.tbl)
		r.tbl = nil
		return nil
	case ElemBeginChart:
		c := el.Chart
		r.cht = &jsonChart{Title: c.Title, XLabel: c.XLabel, YLabel: c.YLabel, LogX: c.LogX}
		return nil
	case ElemSeries:
		if r.cht == nil {
			return fmt.Errorf("report: ElemSeries outside a chart")
		}
		s := el.Series
		r.cht.Series = append(r.cht.Series, jsonSeries{Name: s.Name, X: s.X, Y: s.Y})
		return nil
	case ElemEndChart:
		if r.cht == nil {
			return fmt.Errorf("report: ElemEndChart outside a chart")
		}
		r.cur.Charts = append(r.cur.Charts, *r.cht)
		r.cht = nil
		return nil
	case ElemNote:
		r.cur.Notes = append(r.cur.Notes, el.Note)
		return nil
	case ElemEndDoc:
		doc := r.cur
		r.cur = nil
		if r.bare {
			data, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				return err
			}
			if _, err := r.w.Write(data); err != nil {
				return err
			}
			_, err = io.WriteString(r.w, "\n")
			return err
		}
		if r.docs > 0 {
			if _, err := io.WriteString(r.w, ",\n"); err != nil {
				return err
			}
		}
		data, err := json.MarshalIndent(doc, "  ", "  ")
		if err != nil {
			return err
		}
		if _, err := io.WriteString(r.w, "  "); err != nil {
			return err
		}
		if _, err := r.w.Write(data); err != nil {
			return err
		}
		r.docs++
		return nil
	}
	return fmt.Errorf("report: unknown element kind %d", el.Kind)
}
