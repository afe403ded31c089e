package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzLoad asserts that arbitrary bytes never panic the model loader, and
// that a loaded model (when loading succeeds) routes without panicking.
func FuzzLoad(f *testing.F) {
	// Seed with a real serialized model and mutations of it.
	data := fourBlobs(99, 30)
	cfg := quickConfig()
	g, err := Train(data, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(strings.Replace(valid, `"rows":2`, `"rows":9999`, 1))
	f.Add(strings.Replace(valid, `"version":1`, `"version":2`, 1))
	f.Add("{}")
	f.Add("")
	f.Add(`{"version":1,"dim":1,"nodes":[{"id":0,"depth":1,"parentId":-1,"rows":1,"cols":1,"weights":[0]}]}`)

	f.Fuzz(func(t *testing.T, in string) {
		m, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		// Any successfully loaded model must route safely.
		x := make([]float64, m.Dim())
		p := m.Route(x)
		if p.NodeID < 0 {
			t.Fatal("loaded model routed to invalid node")
		}
		pt := m.RouteTrained(x)
		if pt.NodeID < 0 {
			t.Fatal("loaded model RouteTrained to invalid node")
		}
		_ = m.Stats()
	})
}

// FuzzReadCompiledBinary asserts that arbitrary bytes never panic the
// compiled-blob reader, and that its two residency modes agree: parsing
// with zeroCopy true (tables viewed in place when aligned) and false
// (tables decoded to the heap) accepts and rejects the same inputs with
// the same error, routes a few rows identically, and the heap mode views
// nothing. A loaded model must also route and decompile without
// panicking.
func FuzzReadCompiledBinary(f *testing.F) {
	g, err := Train(fourBlobs(42, 30), quickConfig())
	if err != nil {
		f.Fatal(err)
	}
	var blob bytes.Buffer
	if err := Compile(g).WriteBinaryAt(&blob, 0); err != nil {
		f.Fatal(err)
	}
	valid := blob.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("GHSOMCB1"))
	f.Add([]byte(""))
	mut := bytes.Clone(valid)
	if len(mut) > 32 {
		mut[12] ^= 0xff
		mut[28] ^= 0x01
	}
	f.Add(mut)

	f.Fuzz(func(t *testing.T, in []byte) {
		heap, herr := ReadCompiledBinaryBytes(in, false)
		// An 8-aligned copy lets aligned tables actually take the view path.
		mapped, merr := ReadCompiledBinaryBytes(alignedCopyAt(in, 0), true)
		if (herr == nil) != (merr == nil) || (herr != nil && herr.Error() != merr.Error()) {
			t.Fatalf("zeroCopy changed the outcome: heap %v, zero-copy %v", herr, merr)
		}
		if herr != nil {
			return
		}
		if heap.MappedBytes() != 0 {
			t.Fatalf("heap load reports %d mapped bytes", heap.MappedBytes())
		}
		rng := rand.New(rand.NewSource(1))
		x := make([]float64, heap.Dim())
		for row := 0; row < 4; row++ {
			for i := range x {
				x[i] = rng.Float64() * 4
			}
			a, b := heap.RouteTrained(x), mapped.RouteTrained(x)
			if !placementsBitIdentical(a, b) {
				t.Fatalf("row %d: heap %+v vs zero-copy %+v", row, a, b)
			}
			if a.NodeID < 0 {
				t.Fatalf("row %d: RouteTrained to invalid node %d", row, a.NodeID)
			}
		}
		_ = heap.Route(x)
		_ = heap.Stats()
		if back, err := heap.Decompile(); err == nil {
			_ = back.Stats()
		}
	})
}
