package kdd

import (
	"bytes"
	"testing"
	"time"
)

// TestColumnarIngestSpeedup gates the wire-format acceptance bar: the
// columnar parse+encode dataplane must sustain at least 3x the NDJSON
// path's records/sec. Both paths share the encoder, so the ratio falls
// whenever NDJSON's field loop gets faster; it reads about 3–6x between
// runs on a 2-CPU host, so the gate's headroom against machine noise is
// small. It exists to catch regressions that would erase the format's
// reason to exist, not to benchmark precisely. Skipped with -short
// (timing-sensitive).
func TestColumnarIngestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-gated test; skipped with -short")
	}
	records, ndjson, columnar := ingestCorpus(t, 4096)
	enc := NewEncoder(records, EncoderConfig{LogTransform: true})
	flat := make([]float64, len(records)*enc.Dim())

	p := NewRecordParser(bytes.NewReader(ndjson))
	var rec Record
	var cb ColumnarBatch
	// Warm both paths (pools, interning table, symbol bind).
	ingestNDJSON(t, p, enc, ndjson, &rec, flat)
	ingestColumnar(t, &cb, enc, columnar, flat)

	timeIt := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	nd := timeIt(func() { ingestNDJSON(t, p, enc, ndjson, &rec, flat) })
	col := timeIt(func() { ingestColumnar(t, &cb, enc, columnar, flat) })
	ratio := float64(nd) / float64(col)
	t.Logf("parse+encode %d records: ndjson %v, columnar %v (%.1fx)", len(records), nd, col, ratio)
	if ratio < 3 {
		t.Fatalf("columnar parse+encode only %.2fx NDJSON, want >= 3x", ratio)
	}
}
