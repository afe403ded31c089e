package vecmath

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// approxEqual reports whether a and b have the same length and every pair
// of elements differs by at most tol.
func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.Abs(a[i]-b[i]) <= tol) {
			return false
		}
	}
	return true
}

func TestSquaredDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"zero", []float64{0, 0}, []float64{0, 0}, 0},
		{"unit axes", []float64{1, 0}, []float64{0, 1}, 2},
		{"345 triangle", []float64{0, 0}, []float64{3, 4}, 25},
		{"negative coords", []float64{-1, -2}, []float64{1, 2}, 20},
		{"single dim", []float64{2.5}, []float64{-2.5}, 25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SquaredDistance(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("SquaredDistance(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDistanceMatchesSquaredDistance(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{4, 3, 2, 1}
	if got, want := Distance(a, b), math.Sqrt(SquaredDistance(a, b)); got != want {
		t.Errorf("Distance = %v, want sqrt of squared distance %v", got, want)
	}
}

func TestDot(t *testing.T) {
	if got := dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("dot = %v, want 32", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := []float64{1, 2, 3}
	c := Clone(orig)
	c[0] = 99
	if orig[0] != 1 {
		t.Error("Clone shares backing array with original")
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestAXPYInPlace(t *testing.T) {
	dst := []float64{1, 1}
	AXPYInPlace(dst, 2, []float64{3, 4})
	if !slices.Equal(dst, []float64{7, 9}) {
		t.Errorf("AXPYInPlace = %v", dst)
	}
}

func TestMoveToward(t *testing.T) {
	dst := []float64{0, 0}
	MoveToward(dst, 0.5, []float64{2, 4})
	if !approxEqual(dst, []float64{1, 2}, 1e-12) {
		t.Errorf("MoveToward = %v, want [1 2]", dst)
	}
	// alpha=1 lands exactly on the target.
	MoveToward(dst, 1, []float64{5, 5})
	if !approxEqual(dst, []float64{5, 5}, 1e-12) {
		t.Errorf("MoveToward alpha=1 = %v, want [5 5]", dst)
	}
	// alpha=0 is a no-op.
	MoveToward(dst, 0, []float64{-5, -5})
	if !slices.Equal(dst, []float64{5, 5}) {
		t.Errorf("MoveToward alpha=0 = %v, want unchanged [5 5]", dst)
	}
}

func TestMean(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.View().Mean()
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if !approxEqual(got, []float64{3, 4}, 1e-12) {
		t.Errorf("Mean = %v, want [3 4]", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float64{1, 2, 3}) {
		t.Error("IsFinite finite vector = false")
	}
	if IsFinite([]float64{1, math.NaN()}) {
		t.Error("IsFinite NaN vector = true")
	}
	if IsFinite([]float64{math.Inf(1)}) {
		t.Error("IsFinite Inf vector = true")
	}
	if !IsFinite(nil) {
		t.Error("IsFinite(nil) = false, want true (vacuously finite)")
	}
}

// --- property-based tests ---

func randomVecPair(r *rand.Rand, dim int) (a, b []float64) {
	a = make([]float64, dim)
	b = make([]float64, dim)
	for i := range a {
		a[i] = r.NormFloat64() * 10
		b[i] = r.NormFloat64() * 10
	}
	return a, b
}

func TestPropDistanceSymmetryAndIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		dim := 1 + rr.Intn(64)
		a, b := randomVecPair(r, dim)
		dab := Distance(a, b)
		dba := Distance(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			return false
		}
		if Distance(a, a) != 0 {
			return false
		}
		return dab >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		dim := 1 + r.Intn(32)
		a, b := randomVecPair(r, dim)
		c, _ := randomVecPair(r, dim)
		if Distance(a, b) > Distance(a, c)+Distance(c, b)+1e-9 {
			t.Fatalf("triangle inequality violated at iteration %d", i)
		}
	}
}

func TestPropMeanIsCentroid(t *testing.T) {
	// The mean minimizes the sum of squared distances: moving it in any
	// coordinate direction cannot reduce the total.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		dim := 1 + r.Intn(8)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = r.NormFloat64()
			}
		}
		mat, err := MatrixFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mat.View().Mean()
		if err != nil {
			t.Fatalf("Mean: %v", err)
		}
		total := func(center []float64) float64 {
			var s float64
			for _, row := range rows {
				s += SquaredDistance(row, center)
			}
			return s
		}
		base := total(m)
		for j := 0; j < dim; j++ {
			shifted := Clone(m)
			shifted[j] += 0.1
			if total(shifted) < base-1e-9 {
				t.Fatalf("mean is not the centroid: shifting dim %d reduced cost", j)
			}
		}
	}
}

func BenchmarkSquaredDistance41(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	x, y := randomVecPair(r, 41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SquaredDistance(x, y)
	}
}

func BenchmarkMoveToward41(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x, y := randomVecPair(r, 41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MoveToward(x, 0.05, y)
	}
}

// TestAddInPlaceMatchesAXPYOne pins AddInPlace to AXPYInPlace(dst, 1, x)
// bit for bit at every tail length of the unrolled loop, on the AVX
// kernel (where the CPU has it) and on the portable one.
func TestAddInPlaceMatchesAXPYOne(t *testing.T) {
	t.Run("dispatch", testAddInPlaceMatchesAXPYOne)
	if useAVX {
		useAVX = false
		defer func() { useAVX = true }()
		t.Run("portable", testAddInPlaceMatchesAXPYOne)
	}
}

func testAddInPlaceMatchesAXPYOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 19; n++ {
		dst, x := make([]float64, n), make([]float64, n+2)
		for i := range dst {
			dst[i] = rng.NormFloat64() * 1e3
		}
		for i := range x {
			x[i] = rng.NormFloat64() * 1e-3
		}
		want := append([]float64(nil), dst...)
		AXPYInPlace(want, 1, x)
		AddInPlace(dst, x)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d element %d: %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

// TestAXPYInPlaceMatchesScalar pins AXPYInPlace to the scalar expression
// dst[i] += alpha*x[i] — a rounded multiply, then a rounded add — bit for
// bit at every tail length, on the AVX kernel (where the CPU has it) and
// on the portable one.
func TestAXPYInPlaceMatchesScalar(t *testing.T) {
	t.Run("dispatch", testAXPYInPlaceMatchesScalar)
	if useAVX {
		useAVX = false
		defer func() { useAVX = true }()
		t.Run("portable", testAXPYInPlaceMatchesScalar)
	}
}

func testAXPYInPlaceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alpha := range []float64{0.37, -2.5, 1e-300, 1.0 / 3} {
		for n := 1; n <= 19; n++ {
			dst, x := make([]float64, n), make([]float64, n)
			// Sums of like magnitude cancel, which exposes the product's
			// rounding: a fused multiply-add would differ.
			for i := range dst {
				dst[i] = rng.NormFloat64()
				x[i] = rng.NormFloat64() / alpha
			}
			want := append([]float64(nil), dst...)
			for i := range want {
				p := alpha * x[i]
				want[i] += p
			}
			AXPYInPlace(dst, alpha, x)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("alpha=%v n=%d element %d: %v, want %v", alpha, n, i, dst[i], want[i])
				}
			}
		}
	}
}
