package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// FuzzReadCompiledBinary asserts that arbitrary bytes never panic the
// compiled-blob reader, and that its two residency modes agree: parsing
// with zeroCopy true (tables viewed in place when aligned) and false
// (tables decoded to the heap) accepts and rejects the same inputs with
// the same error, routes a few rows identically, and the heap mode views
// nothing. A loaded model must also route and decompile without
// panicking.
func FuzzReadCompiledBinary(f *testing.F) {
	addCompiledBlobSeeds(f)
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

// addCompiledBlobSeeds seeds a compiled-blob fuzzer with a real GHSOMCB1
// blob of a trained model, its truncations, and a bit-flipped mutation.
func addCompiledBlobSeeds(f *testing.F) {
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
}

// fuzzRows builds the query rows of FuzzCompiledMatchesTree: plain
// values, an exact unit-weight hit (a zero-distance tie), rows mixing
// NaN, the smallest denormal and overflow-scale magnitudes, and a
// duplicate for the batch descent's dedup replay.
func fuzzRows(c *Compiled) [][]float64 {
	dim := c.Dim()
	rng := rand.New(rand.NewSource(1))
	fill := func(v float64) []float64 {
		x := make([]float64, dim)
		for i := range x {
			x[i] = v
		}
		return x
	}
	random := func() []float64 {
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.Float64() * 4
		}
		return x
	}
	hit := c.UnitWeight(0, 0)
	if hit == nil {
		hit = random()
	}
	rows := [][]float64{fill(0), fill(5e-324), fill(1e200), fill(math.NaN()), hit}
	for _, v := range []float64{math.NaN(), 5e-324, 1e200, -1e200} {
		x := random()
		x[rng.Intn(dim)] = v
		rows = append(rows, x)
	}
	rows = append(rows, random(), random())
	return append(rows, rows[len(rows)-1])
}

// FuzzCompiledMatchesTree is the differential check of the compiled
// descent against the pointer-tree walk it replaces: any blob the reader
// accepts and Decompile rebuilds must route every query row to
// bit-identical placements through Compiled.RouteTrained,
// RouteTrainedFlat (one batch, and one row at a time) and Route as
// through the decompiled GHSOM's RouteTrained and Route.
func FuzzCompiledMatchesTree(f *testing.F) {
	addCompiledBlobSeeds(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ReadCompiledBinaryBytes(in, false)
		if err != nil {
			return
		}
		g, err := c.Decompile()
		if err != nil {
			return
		}
		rows := fuzzRows(c)
		dim := c.Dim()
		flat := make([]float64, 0, len(rows)*dim)
		for _, x := range rows {
			flat = append(flat, x...)
		}
		batch := make([]Placement, len(rows))
		if err := c.RouteTrainedFlat(flat, len(rows), batch, 1); err != nil {
			t.Fatal(err)
		}
		one := make([]Placement, 1)
		for i, x := range rows {
			want := g.RouteTrained(x)
			if got := c.RouteTrained(x); !placementsBitIdentical(want, got) {
				t.Fatalf("row %d: RouteTrained compiled %+v, tree %+v", i, got, want)
			}
			if !placementsBitIdentical(want, batch[i]) {
				t.Fatalf("row %d: RouteTrainedFlat batch %+v, tree %+v", i, batch[i], want)
			}
			if err := c.RouteTrainedFlat(x, 1, one, 1); err != nil {
				t.Fatal(err)
			}
			if !placementsBitIdentical(want, one[0]) {
				t.Fatalf("row %d: RouteTrainedFlat one row %+v, tree %+v", i, one[0], want)
			}
			if want, got := g.Route(x), c.Route(x); !placementsBitIdentical(want, got) {
				t.Fatalf("row %d: Route compiled %+v, tree %+v", i, got, want)
			}
		}
	})
}
