package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// renderStream drives the full golden document set through one streaming
// backend with Begin/End framing — the exact sequence the CLIs produce.
func renderStream(t *testing.T, format string, docs []*Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := d.Replay(r); err != nil {
			t.Fatalf("%s/%s: %v", d.ID, format, err)
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenStreams locks the multi-document stream framing of every
// backend against goldens under testdata/. Regenerate with:
// go test ./internal/report -run Golden -update
func TestGoldenStreams(t *testing.T) {
	docs := goldenDocs()
	for _, format := range Formats() {
		format := format
		t.Run(format, func(t *testing.T) {
			got := renderStream(t, format, docs)
			path := filepath.Join("testdata", "stream."+format+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s stream drifted from %s\n--- got ---\n%s\n--- want ---\n%s", format, path, got, want)
			}
		})
	}
}

// TestStreamFraming pins the structural relationships between streamed and
// standalone rendering that the goldens alone would bake in silently:
// text/csv streams are the standalone forms plus one blank separator per
// document, and markdown documents self-separate (pure concatenation).
func TestStreamFraming(t *testing.T) {
	docs := goldenDocs()

	var wantText, wantCSV, wantMD bytes.Buffer
	for _, d := range docs {
		if err := d.Render(&wantText); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&wantText)
		if err := d.CSV(&wantCSV); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&wantCSV)
		if err := d.Markdown(&wantMD); err != nil {
			t.Fatal(err)
		}
	}
	if got := renderStream(t, "text", docs); !bytes.Equal(got, wantText.Bytes()) {
		t.Error("text stream != standalone renders + separators")
	}
	if got := renderStream(t, "csv", docs); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Error("csv stream != standalone renders + separators")
	}
	if got := renderStream(t, "markdown", docs); !bytes.Equal(got, wantMD.Bytes()) {
		t.Error("markdown stream != concatenated standalone renders")
	}
}

// TestJSONStreamParses checks the json stream is one valid array with one
// object per document carrying the document identity, and that the
// standalone Document.JSON object parses to the same schema.
func TestJSONStreamParses(t *testing.T) {
	docs := goldenDocs()
	var parsed []struct {
		ID     string `json:"id"`
		Title  string `json:"title"`
		Tables []struct {
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal(renderStream(t, "json", docs), &parsed); err != nil {
		t.Fatalf("json stream does not parse: %v", err)
	}
	if len(parsed) != len(docs) {
		t.Fatalf("json stream has %d documents, want %d", len(parsed), len(docs))
	}
	for i, d := range docs {
		if parsed[i].ID != d.ID || parsed[i].Title != d.Title {
			t.Errorf("doc %d: parsed identity %q/%q, want %q/%q", i, parsed[i].ID, parsed[i].Title, d.ID, d.Title)
		}
		if len(parsed[i].Tables) != len(d.Tables) {
			t.Errorf("%s: parsed %d tables, want %d", d.ID, len(parsed[i].Tables), len(d.Tables))
		}
		if len(parsed[i].Notes) != len(d.Notes) {
			t.Errorf("%s: parsed %d notes, want %d", d.ID, len(parsed[i].Notes), len(d.Notes))
		}
	}

	var one bytes.Buffer
	if err := docs[0].JSON(&one); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(one.Bytes(), &obj); err != nil {
		t.Fatalf("standalone JSON does not parse: %v", err)
	}
	if obj["id"] != docs[0].ID {
		t.Errorf("standalone JSON id = %v, want %q", obj["id"], docs[0].ID)
	}
}

// TestNewRendererUnknownFormat: the factory must reject typos with a
// message naming the valid formats.
func TestNewRendererUnknownFormat(t *testing.T) {
	if _, err := NewRenderer("yaml", &bytes.Buffer{}); err == nil {
		t.Fatal("NewRenderer(yaml) succeeded, want error")
	}
}
