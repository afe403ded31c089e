package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// naiveDots is the reference for MulBatchT: per-pair Dot in canonical
// order.
func naiveDots(x View, flat []float64, dim int) []float64 {
	units := len(flat) / dim
	out := make([]float64, x.Rows()*units)
	for r := 0; r < x.Rows(); r++ {
		for u := 0; u < units; u++ {
			out[r*units+u] = Dot(x.Row(r), flat[u*dim:(u+1)*dim])
		}
	}
	return out
}

func TestMulBatchTMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, units, dim int }{
		{1, 1, 1}, {2, 3, 5}, {4, 2, 8}, {5, 7, 3}, {9, 5, 17},
		{33, 9, 118}, {4, 4, 4}, {7, 1, 31}, {3, 8, 2},
	} {
		flat := make([]float64, tc.units*tc.dim)
		data := make([]float64, tc.n*tc.dim)
		for i := range flat {
			flat[i] = rng.NormFloat64()
		}
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		mat, err := MatrixOver(data, tc.n, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, tc.n*tc.units)
		MulBatchT(mat.View(), flat, got)
		want := naiveDots(mat.View(), flat, tc.dim)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%+v: dot[%d] = %v, want %v", tc, i, got[i], want[i])
			}
		}
	}
}

// TestMulBatchTSubsetView checks the kernel over a non-contiguous
// index-subset view, the shape the level-synchronous routing descent
// feeds it.
func TestMulBatchTSubsetView(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, units, dim = 12, 5, 7
	flat := make([]float64, units*dim)
	data := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	mat, err := MatrixOver(data, n, dim)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{11, 0, 5, 5, 2, 9, 1}
	v := mat.Subset(idx)
	got := make([]float64, len(idx)*units)
	MulBatchT(v, flat, got)
	want := naiveDots(v, flat, dim)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("subset dot[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// scalarArgMin applies the reference kernel per row.
func scalarArgMin(x View, flat []float64) ([]int, []float64) {
	idx := make([]int, x.Rows())
	d2 := make([]float64, x.Rows())
	for i := 0; i < x.Rows(); i++ {
		idx[i], d2[i] = ArgMinDistance(x.Row(i), flat)
	}
	return idx, d2
}

// assertBatchMatchesScalar runs the blocked engine (with and without a
// supplied norm table) and requires bitwise-identical indices and
// distances against the scalar scan.
func assertBatchMatchesScalar(t *testing.T, name string, x View, flat []float64) {
	t.Helper()
	wantIdx, wantD2 := scalarArgMin(x, flat)
	for _, withNorms := range []bool{false, true} {
		var norms []float64
		if withNorms {
			norms = SquaredNorms(flat, x.Dim(), nil)
		}
		gotIdx := make([]int, x.Rows())
		gotD2 := make([]float64, x.Rows())
		ArgMinDistanceBatch(x, flat, norms, gotIdx, gotD2)
		for i := range wantIdx {
			if gotIdx[i] != wantIdx[i] {
				t.Fatalf("%s (norms=%v): row %d argmin = %d, want %d", name, withNorms, i, gotIdx[i], wantIdx[i])
			}
			if math.Float64bits(gotD2[i]) != math.Float64bits(wantD2[i]) {
				t.Fatalf("%s (norms=%v): row %d dist bits = %x, want %x (%v vs %v)",
					name, withNorms, i, math.Float64bits(gotD2[i]), math.Float64bits(wantD2[i]), gotD2[i], wantD2[i])
			}
		}
		// Index-only mode (nil outDist) must select identical winners.
		idxOnly := make([]int, x.Rows())
		ArgMinDistanceBatch(x, flat, norms, idxOnly, nil)
		for i := range wantIdx {
			if idxOnly[i] != wantIdx[i] {
				t.Fatalf("%s (norms=%v, index-only): row %d argmin = %d, want %d",
					name, withNorms, i, idxOnly[i], wantIdx[i])
			}
		}
		// Precomputed record norms must not change a bit either.
		var sc BMUScratch
		sc.ArgMinDistanceBatch(x, recordNorms(x), flat, norms, gotIdx, gotD2)
		for i := range wantIdx {
			if gotIdx[i] != wantIdx[i] || math.Float64bits(gotD2[i]) != math.Float64bits(wantD2[i]) {
				t.Fatalf("%s (norms=%v, record norms): row %d = (%d, %v), want (%d, %v)",
					name, withNorms, i, gotIdx[i], gotD2[i], wantIdx[i], wantD2[i])
			}
		}
	}
}

// recordNorms returns SumSquares of every row of x, the record-norm table
// a caller hands the blocked engine.
func recordNorms(x View) []float64 {
	out := make([]float64, x.Rows())
	for i := range out {
		out[i] = SumSquares(x.Row(i))
	}
	return out
}

func TestArgMinDistanceBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t.Run("random", func(t *testing.T) {
		for _, tc := range []struct{ n, units, dim int }{
			{1, 1, 1}, {3, 4, 2}, {40, 64, 8}, {65, 256, 32}, {100, 25, 118}, {7, 3, 5},
		} {
			flat := make([]float64, tc.units*tc.dim)
			data := make([]float64, tc.n*tc.dim)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			mat, _ := MatrixOver(data, tc.n, tc.dim)
			assertBatchMatchesScalar(t, "random", mat.View(), flat)
		}
	})
	t.Run("exact ties", func(t *testing.T) {
		// Duplicate weight rows and records equal to weights: zero-distance
		// exact ties must resolve to the lowest unit index.
		const dim = 6
		base := make([]float64, dim)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		flat := make([]float64, 0, 5*dim)
		for k := 0; k < 5; k++ {
			flat = append(flat, base...) // five identical units
		}
		data := append([]float64(nil), base...)
		data = append(data, base...)
		mat, _ := MatrixOver(data, 2, dim)
		assertBatchMatchesScalar(t, "ties", mat.View(), flat)
	})
	t.Run("near ties", func(t *testing.T) {
		// Units separated by one ULP in one coordinate: the settle margin
		// must hand them all to the exact kernel.
		const dim, units = 4, 8
		flat := make([]float64, units*dim)
		for u := 0; u < units; u++ {
			for j := 0; j < dim; j++ {
				flat[u*dim+j] = 0.5
			}
			flat[u*dim] = math.Nextafter(0.5, 1) // vary the first coord by ULPs
			for k := 0; k < u; k++ {
				flat[u*dim] = math.Nextafter(flat[u*dim], 1)
			}
		}
		data := []float64{0.5, 0.5, 0.5, 0.5, 0.25, 0.5, 0.75, 0.5}
		mat, _ := MatrixOver(data, 2, dim)
		assertBatchMatchesScalar(t, "near ties", mat.View(), flat)
	})
	t.Run("signed zero and denormals", func(t *testing.T) {
		tiny := math.SmallestNonzeroFloat64
		flat := []float64{0, 0, math.Copysign(0, -1), tiny, tiny, -tiny, 1, 1}
		data := []float64{math.Copysign(0, -1), 0, tiny, 2 * tiny}
		mat, _ := MatrixOver(data, 2, 2)
		assertBatchMatchesScalar(t, "zeros", mat.View(), flat)
	})
	t.Run("non-finite", func(t *testing.T) {
		inf, nan := math.Inf(1), math.NaN()
		flat := []float64{1, 2, nan, 4, 5, inf, -1, -2}
		data := []float64{nan, nan, 1, 1, inf, 0, 1e308, -1e308}
		mat, _ := MatrixOver(data, 4, 2)
		assertBatchMatchesScalar(t, "non-finite", mat.View(), flat)
	})
	t.Run("overflow magnitudes", func(t *testing.T) {
		// Norms overflow while exact distances stay finite: the guard must
		// route these to the scalar scan.
		big := 1.5e154
		flat := []float64{big, big, big, -big, 1, 1}
		data := []float64{big, big, 1, 1}
		mat, _ := MatrixOver(data, 2, 2)
		assertBatchMatchesScalar(t, "overflow", mat.View(), flat)
	})
	t.Run("ulp ladder near ties blocked", func(t *testing.T) {
		// A codebook big enough for the blocked engine (units*dim >=
		// gemmMinBlock): units 0..7 tie exactly, units 8+ walk away one
		// ULP at a time, and probes walk off the tie one ULP per row. An
		// unsound settle margin would pick the wrong winner or break the
		// lowest-index tie rule.
		const dim, units = 9, 32
		base := make([]float64, dim)
		for j := range base {
			base[j] = float64(j%5) - 2.25
		}
		flat := make([]float64, units*dim)
		for u := 0; u < units; u++ {
			copy(flat[u*dim:], base)
		}
		for u := 8; u < units; u++ {
			w := flat[u*dim : (u+1)*dim]
			w[0] = math.Nextafter(w[0], math.Inf(1))
			for k := 8; k < u; k++ {
				w[1] = math.Nextafter(w[1], math.Inf(1))
			}
		}
		var data []float64
		probe := append([]float64(nil), base...)
		for i := 0; i < 48; i++ {
			data = append(data, probe...)
			probe[i%dim] = math.Nextafter(probe[i%dim], math.Inf(-1))
		}
		mat, _ := MatrixOver(data, len(data)/dim, dim)
		assertBatchMatchesScalar(t, "ulp ladder", mat.View(), flat)
	})
	t.Run("special values blocked", func(t *testing.T) {
		// Overflow-scale, Inf, NaN, denormal and ±0 rows and weights at a
		// blocked shape, so the guards run inside the tiled engine rather
		// than the small-codebook scalar shortcut.
		const dim, units = 8, 24
		big := 1.5e154 // squares exceed overflowGuard in pairs
		tiny := math.SmallestNonzeroFloat64
		rows := [][]float64{
			{big, -big, big, -big, big, -big, big, -big},
			{math.Inf(1), 0, 0, 0, 0, 0, 0, 0},
			{math.NaN(), 1, 2, 3, 4, 5, 6, 7},
			{tiny, -tiny, tiny * 4, 0, math.Copysign(0, -1), tiny, -tiny, 0},
			{0, 0, 0, 0, 0, 0, 0, 0},
			{1e-300, -1e-300, 1e-308, -1e-308, 0, 0, 0, 0},
			{1, 2, 3, 4, 5, 6, 7, 8},
		}
		specials := []float64{0, math.Copysign(0, -1), tiny, -tiny, 1e-310, math.Inf(1), math.NaN(), big}
		for c := 0; c < 3; c++ {
			flat := make([]float64, units*dim)
			for i := range flat {
				switch {
				case c == 1 && rng.Intn(7) == 0:
					flat[i] = specials[rng.Intn(len(specials))]
				case c == 2:
					flat[i] = specials[rng.Intn(4)] // denormal/zero-only codebook
				default:
					flat[i] = rng.NormFloat64()
				}
			}
			var data []float64
			for _, r := range rows {
				data = append(data, r...)
			}
			for i := 0; i < 16*dim; i++ {
				data = append(data, rng.NormFloat64())
			}
			mat, _ := MatrixOver(data, len(data)/dim, dim)
			assertBatchMatchesScalar(t, "specials", mat.View(), flat)
		}
	})
	t.Run("trailing partial weight row", func(t *testing.T) {
		flat := []float64{1, 2, 3, 4, 5} // 2 complete rows of dim 2 + partial
		data := []float64{4.4, 5.5, 1, 2}
		mat, _ := MatrixOver(data, 2, 2)
		assertBatchMatchesScalar(t, "partial", mat.View(), flat)
	})
	t.Run("no weights", func(t *testing.T) {
		data := []float64{1, 2, 3}
		mat, _ := MatrixOver(data, 1, 3)
		assertBatchMatchesScalar(t, "no weights", mat.View(), nil)
	})
}

// FuzzArgMinDistanceBatch fuzzes record/unit blocks — including exact-tie
// rows, signed zeros, and denormals seeded below — asserting the blocked
// and settled argmin is bitwise equal to the scalar scan on every row.
func FuzzArgMinDistanceBatch(f *testing.F) {
	le := binary.LittleEndian
	pack := func(dim byte, vals ...float64) []byte {
		b := []byte{dim}
		for _, v := range vals {
			var w [8]byte
			le.PutUint64(w[:], math.Float64bits(v))
			b = append(b, w[:]...)
		}
		return b
	}
	tiny := math.SmallestNonzeroFloat64
	f.Add(pack(2, 1, 2, 1, 2, 1, 2, 1, 2)) // exact ties
	f.Add(pack(1, 0, math.Copysign(0, -1), tiny, -tiny))
	f.Add(pack(3, 1, 2, 3, 3, 2, 1, 1.0000000001, 2, 3))
	f.Add(pack(2, math.NaN(), 1, math.Inf(1), -1, 5, 6))
	f.Add(pack(4, 1e308, -1e308, 1e-308, 0, 1e154, 1e154, -1e154, 2))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 1+8 {
			return
		}
		dim := int(raw[0])%8 + 1
		vals := make([]float64, 0, (len(raw)-1)/8)
		for o := 1; o+8 <= len(raw) && len(vals) < 512; o += 8 {
			vals = append(vals, math.Float64frombits(le.Uint64(raw[o:])))
		}
		if len(vals) < 2*dim {
			return
		}
		// First half becomes weight rows, second half records.
		half := len(vals) / 2
		flat := vals[:half]
		recs := (len(vals) - half) / dim
		if recs == 0 {
			return
		}
		mat, err := MatrixOver(vals[half:], recs, dim)
		if err != nil {
			return
		}
		x := mat.View()
		wantIdx, wantD2 := scalarArgMin(x, flat)
		gotIdx := make([]int, recs)
		gotD2 := make([]float64, recs)
		ArgMinDistanceBatch(x, flat, nil, gotIdx, gotD2)
		for i := range wantIdx {
			if gotIdx[i] != wantIdx[i] || math.Float64bits(gotD2[i]) != math.Float64bits(wantD2[i]) {
				t.Fatalf("row %d: blocked (%d, %x) != scalar (%d, %x)",
					i, gotIdx[i], math.Float64bits(gotD2[i]), wantIdx[i], math.Float64bits(wantD2[i]))
			}
		}
		idxOnly := make([]int, recs)
		ArgMinDistanceBatch(x, flat, nil, idxOnly, nil)
		for i := range wantIdx {
			if idxOnly[i] != wantIdx[i] {
				t.Fatalf("row %d: index-only blocked %d != scalar %d", i, idxOnly[i], wantIdx[i])
			}
		}
	})
}

// TestArgMinDistanceBatchPortableKernel forces the portable micro-kernels
// (useAVX off) and re-runs the scalar-equivalence suite, so platforms
// with the assembly path still exercise the fallback they would ship
// elsewhere.
func TestArgMinDistanceBatchPortableKernel(t *testing.T) {
	if !useAVX {
		t.Skip("portable kernels are already the active path")
	}
	useAVX = false
	defer func() { useAVX = true }()
	TestArgMinDistanceBatchMatchesScalar(t)
	TestMulBatchTMatchesDot(t)
}

// TestNormCacheSyncSemantics pins the version-keyed recompute contract:
// same version → cached table (even if the data changed behind it, which
// is exactly the hazard the owner's version counter exists to prevent);
// new version, new dim, or new row count → recompute.
func TestNormCacheSyncSemantics(t *testing.T) {
	var c NormCache
	flat := []float64{1, 2, 3, 4, 5, 6}
	n1 := c.Sync(flat, 2, 1)
	if len(n1) != 3 || n1[0] != 5 || n1[1] != 25 || n1[2] != 61 {
		t.Fatalf("norms = %v", n1)
	}
	flat[0] = 100
	if got := c.Sync(flat, 2, 1); got[0] != 5 {
		t.Fatalf("same version recomputed: %v", got[0])
	}
	if got := c.Sync(flat, 2, 2); got[0] != 100*100+2*2 {
		t.Fatalf("bumped version did not recompute: %v", got[0])
	}
	if got := c.Sync(flat, 3, 2); len(got) != 2 {
		t.Fatalf("dim change did not recompute: %v", got)
	}
	if got := c.Sync(flat[:4], 2, 2); len(got) != 2 {
		t.Fatalf("shrunk arena did not recompute: %v", got)
	}
}

// benchBMUShapes is the BMU kernel sweep: dimensions bracketing the
// encoded KDD width and unit counts from a GHSOM child map to a large
// flat SOM.
var benchBMUShapes = []struct{ dim, units int }{
	{8, 4}, {8, 64}, {8, 256},
	{32, 4}, {32, 64}, {32, 256},
	{118, 4}, {118, 64}, {118, 256},
}

func benchBMUData(dim, units, n int) (View, []float64, []float64) {
	rng := rand.New(rand.NewSource(42))
	flat := make([]float64, units*dim)
	data := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	for i := range data {
		data[i] = rng.Float64()
	}
	mat, _ := MatrixOver(data, n, dim)
	return mat.View(), flat, SquaredNorms(flat, dim, nil)
}

// BenchmarkArgMinDistanceBatch measures the blocked engine across the
// dim×units sweep, reporting rows/sec.
func BenchmarkArgMinDistanceBatch(b *testing.B) {
	const n = 1024
	for _, sh := range benchBMUShapes {
		b.Run(shapeName(sh.dim, sh.units), func(b *testing.B) {
			x, flat, norms := benchBMUData(sh.dim, sh.units, n)
			out := make([]int, n)
			d2 := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ArgMinDistanceBatch(x, flat, norms, out, d2)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkArgMinDistanceScalar is the per-row baseline of the same sweep.
func BenchmarkArgMinDistanceScalar(b *testing.B) {
	const n = 1024
	for _, sh := range benchBMUShapes {
		b.Run(shapeName(sh.dim, sh.units), func(b *testing.B) {
			x, flat, _ := benchBMUData(sh.dim, sh.units, n)
			out := make([]int, n)
			d2 := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < n; r++ {
					out[r], d2[r] = ArgMinDistance(x.Row(r), flat)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

func shapeName(dim, units int) string {
	return "dim" + itoa(dim) + "_units" + itoa(units)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
