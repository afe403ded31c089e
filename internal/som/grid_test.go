package som

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name            string
		rows, cols, dim int
		wantErr         bool
	}{
		{"minimal", 1, 1, 1, false},
		{"typical", 4, 5, 41, false},
		{"zero rows", 0, 3, 2, true},
		{"zero cols", 3, 0, 2, true},
		{"zero dim", 3, 3, 0, true},
		{"negative", -1, 3, 2, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := New(tt.rows, tt.cols, tt.dim)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d,%d,%d) err = %v, wantErr %v", tt.rows, tt.cols, tt.dim, err, tt.wantErr)
			}
			if err != nil {
				if !errors.Is(err, ErrBadShape) {
					t.Errorf("error %v not ErrBadShape", err)
				}
				return
			}
			if m.Units() != tt.rows*tt.cols {
				t.Errorf("Units = %d", m.Units())
			}
			if m.Dim() != tt.dim {
				t.Errorf("Dim = %d", m.Dim())
			}
		})
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	m, err := New(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			i := m.Index(r, c)
			gr, gc := m.Coords(i)
			if gr != r || gc != c {
				t.Errorf("Coords(Index(%d,%d)) = (%d,%d)", r, c, gr, gc)
			}
		}
	}
}

func TestGridDistance2(t *testing.T) {
	m, _ := New(4, 4, 1)
	a := m.Index(0, 0)
	b := m.Index(3, 4-1)
	if got := gridDistance2(m, a, b); got != 9+9 {
		t.Errorf("gridDistance2 corner to corner = %v, want 18", got)
	}
	if got := gridDistance2(m, a, a); got != 0 {
		t.Errorf("gridDistance2 self = %v", got)
	}
}

func TestNeighbors(t *testing.T) {
	m, _ := New(3, 3, 1)
	tests := []struct {
		r, c int
		want []int
	}{
		{0, 0, []int{1, 3}},       // corner: right, down
		{1, 1, []int{1, 3, 5, 7}}, // center: all four
		{2, 2, []int{5, 7}},       // corner: up, left
		{0, 1, []int{0, 2, 4}},    // edge
	}
	for _, tt := range tests {
		got := m.Neighbors(m.Index(tt.r, tt.c), nil)
		sort.Ints(got)
		sort.Ints(tt.want)
		if len(got) != len(tt.want) {
			t.Errorf("Neighbors(%d,%d) = %v, want %v", tt.r, tt.c, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Neighbors(%d,%d) = %v, want %v", tt.r, tt.c, got, tt.want)
				break
			}
		}
	}
}

func TestAreGridNeighbors(t *testing.T) {
	m, _ := New(3, 3, 1)
	if !m.AreGridNeighbors(m.Index(1, 1), m.Index(1, 2)) {
		t.Error("horizontal neighbors not detected")
	}
	if !m.AreGridNeighbors(m.Index(1, 1), m.Index(0, 1)) {
		t.Error("vertical neighbors not detected")
	}
	if m.AreGridNeighbors(m.Index(0, 0), m.Index(1, 1)) {
		t.Error("diagonal units reported as neighbors")
	}
	if m.AreGridNeighbors(m.Index(0, 0), m.Index(0, 0)) {
		t.Error("unit reported as its own neighbor")
	}
	if m.AreGridNeighbors(m.Index(0, 2), m.Index(1, 0)) {
		t.Error("row-wrap adjacency in index space must not count as grid adjacency")
	}
}

func TestSetWeightAndAliasing(t *testing.T) {
	m, _ := New(2, 2, 3)
	w := []float64{1, 2, 3}
	if err := m.SetWeight(2, w); err != nil {
		t.Fatal(err)
	}
	w[0] = 99 // mutating the caller's slice must not change the map
	if m.Weight(2)[0] != 1 {
		t.Error("SetWeight did not copy")
	}
	if err := m.SetWeight(0, []float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("SetWeight wrong dim err = %v", err)
	}
}

func TestPropCoordsIndexBijection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(10)
		cols := 1 + r.Intn(10)
		m, err := New(rows, cols, 1)
		if err != nil {
			return false
		}
		for i := 0; i < m.Units(); i++ {
			rr, cc := m.Coords(i)
			if !m.InBounds(rr, cc) || m.Index(rr, cc) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
