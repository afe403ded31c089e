package vecmath

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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

func TestManhattanDistance(t *testing.T) {
	a := []float64{1, -1, 2}
	b := []float64{-1, 1, 0}
	if got := ManhattanDistance(a, b); got != 6 {
		t.Errorf("ManhattanDistance = %v, want 6", got)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v, want 0", got)
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

func TestAddSub(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	sum, err := Add(a, b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !Equal(sum, []float64{4, 7}, 0) {
		t.Errorf("Add = %v", sum)
	}
	diff, err := Sub(b, a)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if !Equal(diff, []float64{2, 3}, 0) {
		t.Errorf("Sub = %v", diff)
	}
}

func TestAddLengthMismatch(t *testing.T) {
	if _, err := Add([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("Add mismatch error = %v, want ErrLengthMismatch", err)
	}
	if _, err := Sub([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("Sub mismatch error = %v, want ErrLengthMismatch", err)
	}
	if _, err := Lerp([]float64{1}, []float64{1, 2}, 0.5); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("Lerp mismatch error = %v, want ErrLengthMismatch", err)
	}
}

func TestScale(t *testing.T) {
	if got := Scale([]float64{1, -2}, -3); !Equal(got, []float64{-3, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
}

func TestAXPYInPlace(t *testing.T) {
	dst := []float64{1, 1}
	AXPYInPlace(dst, 2, []float64{3, 4})
	if !Equal(dst, []float64{7, 9}, 0) {
		t.Errorf("AXPYInPlace = %v", dst)
	}
}

func TestMoveToward(t *testing.T) {
	dst := []float64{0, 0}
	MoveToward(dst, 0.5, []float64{2, 4})
	if !Equal(dst, []float64{1, 2}, 1e-12) {
		t.Errorf("MoveToward = %v, want [1 2]", dst)
	}
	// alpha=1 lands exactly on the target.
	MoveToward(dst, 1, []float64{5, 5})
	if !Equal(dst, []float64{5, 5}, 1e-12) {
		t.Errorf("MoveToward alpha=1 = %v, want [5 5]", dst)
	}
	// alpha=0 is a no-op.
	MoveToward(dst, 0, []float64{-5, -5})
	if !Equal(dst, []float64{5, 5}, 0) {
		t.Errorf("MoveToward alpha=0 = %v, want unchanged [5 5]", dst)
	}
}

func TestLerp(t *testing.T) {
	got, err := Lerp([]float64{0, 10}, []float64{10, 0}, 0.25)
	if err != nil {
		t.Fatalf("Lerp: %v", err)
	}
	if !Equal(got, []float64{2.5, 7.5}, 1e-12) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if !Equal(got, []float64{3, 4}, 1e-12) {
		t.Errorf("Mean = %v, want [3 4]", got)
	}
}

func TestMeanErrors(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := Mean([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("Mean ragged error = %v, want ErrLengthMismatch", err)
	}
}

func TestArgMinArgMax(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	if i, val := ArgMin(v); i != 1 || val != 1 {
		t.Errorf("ArgMin = (%d, %v), want (1, 1)", i, val)
	}
	if i, val := ArgMax(v); i != 4 || val != 5 {
		t.Errorf("ArgMax = (%d, %v), want (4, 5)", i, val)
	}
	if i, _ := ArgMin(nil); i != -1 {
		t.Errorf("ArgMin(nil) index = %d, want -1", i)
	}
	if i, _ := ArgMax(nil); i != -1 {
		t.Errorf("ArgMax(nil) index = %d, want -1", i)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{2, -3, 7, 0})
	if min != -3 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-3, 7)", min, max)
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

func TestEqual(t *testing.T) {
	if !Equal([]float64{1, 2}, []float64{1.0000001, 2}, 1e-3) {
		t.Error("Equal within tolerance = false")
	}
	if Equal([]float64{1}, []float64{1, 2}, 1) {
		t.Error("Equal different lengths = true")
	}
	if Equal([]float64{1}, []float64{2}, 0.5) {
		t.Error("Equal outside tolerance = true")
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
		m, err := Mean(rows)
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

func TestPropLerpEndpoints(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		dim := 1 + r.Intn(16)
		a, b := randomVecPair(r, dim)
		at0, err := Lerp(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		at1, err := Lerp(a, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(at0, a, 1e-12) || !Equal(at1, b, 1e-12) {
			t.Fatal("Lerp endpoints do not match inputs")
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
