package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// quantPrecisions are the shadow-arena rungs under test.
var quantPrecisions = []Precision{PrecisionF32, PrecisionI8}

// assertQuantMatchesScalar checks the quantized batch search against the
// scalar reference on every row, both with and without distances, at a
// given rung. Bitwise: same indices, same distance bits.
func assertQuantMatchesScalar(t *testing.T, prec Precision, data []float64, flat []float64, dim int) {
	t.Helper()
	qa := BuildQuantArena(flat, dim, prec)
	n := len(data) / dim
	mat, err := MatrixOver(data, n, dim)
	if err != nil {
		t.Fatalf("MatrixOver: %v", err)
	}
	v := mat.View()
	norms := SquaredNorms(flat, dim, nil)

	got := make([]int, n)
	gotD := make([]float64, n)
	ArgMinDistanceBatchQuant(v, flat, norms, qa, got, gotD)

	idxOnly := make([]int, n)
	ArgMinDistanceBatchQuant(v, flat, norms, qa, idxOnly, nil)

	for i := 0; i < n; i++ {
		wb, wd := ArgMinDistance(v.Row(i), flat)
		if got[i] != wb {
			t.Fatalf("prec=%v row %d: batch index %d, scalar %d", prec, i, got[i], wb)
		}
		if idxOnly[i] != wb {
			t.Fatalf("prec=%v row %d: index-only index %d, scalar %d", prec, i, idxOnly[i], wb)
		}
		if math.Float64bits(gotD[i]) != math.Float64bits(wd) {
			t.Fatalf("prec=%v row %d: batch dist %x (%v), scalar %x (%v)",
				prec, i, math.Float64bits(gotD[i]), gotD[i], math.Float64bits(wd), wd)
		}
	}
}

func TestArgMinDistanceBatchQuantMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range []struct{ n, units, dim int }{
		{1, 16, 11}, {37, 48, 8}, {129, 64, 33}, {64, 200, 17}, {5, 1024, 118},
	} {
		flat := make([]float64, sz.units*sz.dim)
		for i := range flat {
			flat[i] = rng.NormFloat64() * 3
		}
		data := make([]float64, sz.n*sz.dim)
		for i := range data {
			data[i] = rng.NormFloat64() * 3
		}
		for _, p := range quantPrecisions {
			assertQuantMatchesScalar(t, p, data, flat, sz.dim)
		}
	}
}

// TestArgMinDistanceBatchQuantNearTies drives records onto ULP-ladder
// near-ties and exact ties between units, where a candidate generator
// with an unsound error bound would pick the wrong winner or break the
// lowest-index tie rule.
func TestArgMinDistanceBatchQuantNearTies(t *testing.T) {
	const dim = 9
	const units = 32
	base := make([]float64, dim)
	for j := range base {
		base[j] = float64(j%5) - 2.25
	}
	flat := make([]float64, units*dim)
	for u := 0; u < units; u++ {
		copy(flat[u*dim:], base)
	}
	// Units 0..7 exactly tie; units 8+ walk away one ULP at a time.
	for u := 8; u < units; u++ {
		w := flat[u*dim : (u+1)*dim]
		w[0] = math.Nextafter(w[0], math.Inf(1))
		for k := 8; k < u; k++ {
			w[1] = math.Nextafter(w[1], math.Inf(1))
		}
	}
	var data []float64
	probe := make([]float64, dim)
	copy(probe, base)
	for i := 0; i < 48; i++ {
		data = append(data, probe...)
		probe[i%dim] = math.Nextafter(probe[i%dim], math.Inf(-1))
	}
	for _, p := range quantPrecisions {
		assertQuantMatchesScalar(t, p, data, flat, dim)
	}
}

// TestArgMinDistanceBatchQuantSpecials exercises the wholesale fallback
// (overflow-scale magnitudes, Inf, NaN rows and weights) and the
// denormal/±0 regime where quantization scales collapse.
func TestArgMinDistanceBatchQuantSpecials(t *testing.T) {
	const dim = 8
	const units = 24
	big := 1.5e154 // sq exceeds overflowGuard in pairs
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
	rng := rand.New(rand.NewSource(11))
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
		for _, p := range quantPrecisions {
			assertQuantMatchesScalar(t, p, data, flat, dim)
		}
	}
}

// TestArgMinDistanceBatchQuantPortableKernel forces the portable Go
// kernels and re-checks bit-identity, so non-amd64 builds are covered by
// proxy and the asm/generic pair can never drift apart.
func TestArgMinDistanceBatchQuantPortableKernel(t *testing.T) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()

	rng := rand.New(rand.NewSource(13))
	flat := make([]float64, 96*21)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	data := make([]float64, 70*21)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	for _, p := range quantPrecisions {
		assertQuantMatchesScalar(t, p, data, flat, 21)
	}
}

// TestMulBatchQ8KernelExact checks that the asm and portable int8 dot
// blocks agree exactly (both are exact int32 sums) across awkward dims
// around the 16-lane boundary and unit tails around the 4-row kernel.
func TestMulBatchQ8KernelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{1, 15, 16, 17, 31, 32, 33, 48, 118, 128} {
		for _, units := range []int{1, 2, 3, 4, 5, 7, 8, 12} {
			n := 6
			xq := make([]int8, n*dim)
			codes := make([]int8, units*dim)
			for i := range xq {
				xq[i] = int8(rng.Intn(255) - 127)
			}
			for i := range codes {
				codes[i] = int8(rng.Intn(255) - 127)
			}
			got := make([]float64, n*units)
			want := make([]float64, n*units)
			mulBatchQ8(xq, codes, got, n, units, dim)
			mulBatchQ8Generic(xq, codes, want, n, units, dim)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dim=%d units=%d out[%d]: asm %v, generic %v", dim, units, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{
		"": PrecisionAuto, "auto": PrecisionAuto, "AUTO": PrecisionAuto,
		"f64": PrecisionF64, "F32": PrecisionF32, "i8": PrecisionI8,
	} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"f16", "int8", "8", "fast"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Fatalf("ParsePrecision(%q) accepted", s)
		}
	}
}

func TestPrecisionEffective(t *testing.T) {
	if got := PrecisionAuto.Effective(1024, 118); got != PrecisionI8 {
		t.Fatalf("auto on large codebook: %v", got)
	}
	if got := PrecisionAuto.Effective(4, 8); got != PrecisionF64 {
		t.Fatalf("auto on tiny codebook: %v", got)
	}
	if got := PrecisionI8.Effective(2, quantI8MaxDim+1); got != PrecisionF64 {
		t.Fatalf("i8 beyond dim cap: %v", got)
	}
	if got := PrecisionF32.Effective(1, 1); got != PrecisionF32 {
		t.Fatalf("explicit f32: %v", got)
	}
}

func TestQuantCacheSync(t *testing.T) {
	flat := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	var c QuantCache
	a1 := c.Sync(flat, 2, 1, PrecisionI8)
	a2 := c.Sync(flat, 2, 1, PrecisionI8)
	if a1 == nil || a1 != a2 {
		t.Fatalf("same version should reuse the snapshot: %p %p", a1, a2)
	}
	a3 := c.Sync(flat, 2, 2, PrecisionI8)
	if a3 == a1 {
		t.Fatal("version bump should rebuild")
	}
	a4 := c.Sync(flat, 2, 2, PrecisionF32)
	if a4 == nil || a4 == a3 || a4.Precision() != PrecisionF32 {
		t.Fatal("precision change should rebuild")
	}
	if c.Sync(flat, 0, 3, PrecisionI8) != nil {
		t.Fatal("degenerate dim should yield nil arena")
	}
}

func TestQuantArenaBytes(t *testing.T) {
	flat := make([]float64, 64*16)
	for i := range flat {
		flat[i] = float64(i%13) - 6
	}
	i8 := BuildQuantArena(flat, 16, PrecisionI8)
	f32 := BuildQuantArena(flat, 16, PrecisionF32)
	if i8.Bytes() != 64*16+3*64*8 {
		t.Fatalf("i8 bytes = %d", i8.Bytes())
	}
	if f32.Bytes() != 64*16*4 {
		t.Fatalf("f32 bytes = %d", f32.Bytes())
	}
	var nilA *QuantArena
	if nilA.Bytes() != 0 {
		t.Fatal("nil arena bytes")
	}
}

// FuzzArgMinDistanceBatchQuantized drives both rungs with adversarial
// bit patterns — ties, ±0, denormals, Inf/NaN fallback rows, and
// near-ties straddling the quantization error bound — asserting bitwise
// agreement with the scalar reference kernel.
func FuzzArgMinDistanceBatchQuantized(f *testing.F) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(3), uint8(1), mk(1, 2, 3, 1, 2, 3.0000000001, 0.5, 1.5, 2.5))
	f.Add(uint8(2), uint8(0), mk(0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, 0))
	f.Add(uint8(4), uint8(1), mk(math.Inf(1), math.NaN(), 1.5e154, -1.5e154, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(uint8(4), uint8(0), mk(1e300, 1e-300, -1e300, math.MaxFloat64/4, 7, 7, 7, 7, 7, 7))
	f.Fuzz(func(t *testing.T, rawDim, precSel uint8, raw []byte) {
		dim := int(rawDim)%8 + 1
		prec := quantPrecisions[int(precSel)%len(quantPrecisions)]
		vals := make([]float64, len(raw)/8)
		if len(vals) < 2*dim {
			t.Skip()
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		// First half becomes the codebook, second half the queries; pad
		// the codebook so the blocked path actually engages.
		half := len(vals) / 2
		units := half / dim
		if units == 0 {
			t.Skip()
		}
		flat := make([]float64, 0, (units+gemmMinBlock/dim+1)*dim)
		flat = append(flat, vals[:units*dim]...)
		for len(flat)*1 < gemmMinBlock {
			flat = append(flat, flat[:dim]...)
		}
		qn := len(vals[half:]) / dim
		if qn == 0 {
			t.Skip()
		}
		data := vals[half : half+qn*dim]
		assertQuantMatchesScalar(t, prec, data, flat, dim)
	})
}

// BenchmarkArgMinDistanceBatchQuant measures the quantized engine on the
// acceptance shape (1024 units × dim 118) per rung, beside the f64
// engine on the same shape (BuildQuantArena returns nil for f64, which
// selects the unquantized path).
func BenchmarkArgMinDistanceBatchQuant(b *testing.B) {
	const dim = 118
	const units = 1024
	const n = 2048
	rng := rand.New(rand.NewSource(42))
	flat := make([]float64, units*dim)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.Float64()
	}
	mat, err := MatrixOver(data, n, dim)
	if err != nil {
		b.Fatalf("MatrixOver: %v", err)
	}
	v := mat.View()
	norms := SquaredNorms(flat, dim, nil)
	out := make([]int, n)
	for _, p := range append([]Precision{PrecisionF64}, quantPrecisions...) {
		b.Run(p.String(), func(b *testing.B) {
			qa := BuildQuantArena(flat, dim, p)
			var sc BMUScratch
			sc.Tile = ResolveTileElem(dim, units, 1, p.RecordElemBytes())
			b.SetBytes(int64(n * dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.ArgMinDistanceBatchQuant(v, flat, norms, qa, out, nil)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}
