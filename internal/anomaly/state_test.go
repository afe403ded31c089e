package anomaly

import (
	"testing"
)

func TestStateRoundTrip(t *testing.T) {
	d := fitTestDetector(t, Config{})
	st := d.State()
	if len(st.Cells) != d.Cells() {
		t.Fatalf("state has %d cells, detector %d", len(st.Cells), d.Cells())
	}
	if st.GlobalQE != d.globalQE {
		t.Errorf("state globalQE %v != %v", st.GlobalQE, d.globalQE)
	}
	restored, err := FromState(gridQuantizer{}, st)
	if err != nil {
		t.Fatal(err)
	}
	// Identical verdicts across the whole decision surface sample.
	for _, x := range []float64{0.01, 0.3, 0.5, 1.1, 1.5, 2.5, 7.9} {
		p1 := d.Classify([]float64{x})
		p2 := restored.Classify([]float64{x})
		if p1 != p2 {
			t.Fatalf("x=%v: verdicts differ: %+v vs %+v", x, p1, p2)
		}
	}
}

func TestFromStateValidation(t *testing.T) {
	d := fitTestDetector(t, Config{})
	st := d.State()

	if _, err := FromState(nil, st); err == nil {
		t.Error("nil quantizer accepted")
	}
	empty := st
	empty.Cells = nil
	if _, err := FromState(gridQuantizer{}, empty); err == nil {
		t.Error("empty cell table accepted")
	}
	dup := st
	dup.Cells = append([]CellState{}, st.Cells...)
	dup.Cells = append(dup.Cells, st.Cells[0])
	if _, err := FromState(gridQuantizer{}, dup); err == nil {
		t.Error("duplicate cells accepted")
	}
	unnamed := st
	unnamed.Cells = append([]CellState{}, st.Cells...)
	unnamed.Cells[0].Cell = ""
	if _, err := FromState(gridQuantizer{}, unnamed); err == nil {
		t.Error("empty cell identifier accepted")
	}
	badCfg := st
	badCfg.Config.QEQuantile = 7
	if _, err := FromState(gridQuantizer{}, badCfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFromStateZeroGlobalQEFloored(t *testing.T) {
	d := fitTestDetector(t, Config{})
	st := d.State()
	st.GlobalQE = 0
	restored, err := FromState(gridQuantizer{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.globalQE <= 0 {
		t.Error("restored global threshold not floored above zero")
	}
}
