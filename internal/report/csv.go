package report

import (
	"fmt"
	"io"
	"strings"
)

// CSV writes every table in the document as CSV separated by blank lines —
// the standalone replay into the csv backend (no trailing document
// separator; the streaming form adds one between documents).
func (d *Document) CSV(w io.Writer) error {
	return d.Replay(&csvRenderer{w: w})
}

// csvRenderer is the machine-readable tables-only backend: each table as a
// # title comment plus RFC-4180-ish rows, a blank line after each. Charts
// and notes have no tabular form and are skipped; tables carry their own
// titles, so consumers can locate sections without document framing. sep
// adds the blank line that separates documents in a stream.
//
// CSV rows carry no alignment, so tables are written row by row:
// ElemBeginTable writes the # title comment and header row, every ElemRow
// is built in one reused buffer and goes to the writer in one Write, and
// ElemEndTable emits the closing blank line.
type csvRenderer struct {
	w   io.Writer
	sep bool
	row []byte // the row being written, reused across rows
}

func (r *csvRenderer) Begin() error { return nil }
func (r *csvRenderer) End() error   { return nil }

func (r *csvRenderer) Element(el Element) error {
	switch el.Kind {
	case ElemBeginTable:
		if _, err := fmt.Fprintf(r.w, "# %s\n", el.Table.Title); err != nil {
			return err
		}
		return r.writeRow(el.Table.Columns)
	case ElemRow:
		return r.writeRow(el.Row)
	case ElemEndTable:
		_, err := fmt.Fprintln(r.w)
		return err
	case ElemEndDoc:
		if !r.sep {
			return nil
		}
		_, err := fmt.Fprintln(r.w)
		return err
	case ElemBeginDoc, ElemNote, ElemBeginChart, ElemSeries, ElemEndChart:
		return nil
	}
	return fmt.Errorf("report: unknown element kind %d", el.Kind)
}

// appendCSVCell appends one cell, quoted when its content would break
// the row structure.
func appendCSVCell(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\n") {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

// writeRow writes one comma-joined, escaped row in a single Write.
func (r *csvRenderer) writeRow(cells []string) error {
	b := r.row[:0]
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVCell(b, c)
	}
	b = append(b, '\n')
	r.row = b
	_, err := r.w.Write(b)
	return err
}
