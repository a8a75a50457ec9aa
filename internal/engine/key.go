package engine

import (
	"fmt"
	"hash/fnv"
)

// Key builds a deterministic cache key by hashing the %#v rendering of
// each part, followed by a NUL separator, with FNV-1a 64, and printing the
// sum as 16 lowercase hex digits. Parts must have deterministic %#v output
// (scalars, and structs and slices of them — no pointers or maps). The
// keys feed the persistent disk cache, so this encoding is the on-disk key
// format: golden-key tests pin it.
func Key(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%#v\x00", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
