// Package report renders experiment output as ASCII tables, CSV, markdown,
// JSON, and simple ASCII line charts, so every table and figure of the
// paper can be regenerated on a terminal without plotting dependencies.
//
// Document is the unit of experiment output: any number of tables and
// charts plus free-form notes. Documents are plain exported data — no
// pointers to live state, no maps — so they render deterministically, can
// be compared byte-for-byte across runs, and survive a gob round trip
// through the engine's persistent disk cache unchanged (the experiments
// package registers *Document with encoding/gob for exactly that path).
//
// Rendering is a streaming pipeline: a Document Replay()s as a flat
// Element stream (ElemBeginDoc, tables as begin/row/end, charts as
// begin/series/end, notes, ElemEndDoc) into any Renderer backend — text,
// markdown, json, or csv via NewRenderer. Backends render incrementally
// and own all framing bytes, so documents released one at a time as
// experiments complete produce output byte-identical to a fully buffered
// run. A producer may also emit the element stream directly without
// building a Document (the /sweep plan streams its rows that way). The
// whole-document methods (Render, Markdown, CSV, JSON) are standalone
// replays into the same backends.
package report
