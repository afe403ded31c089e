package anomaly

import (
	"math"
	"testing"
)

func TestStreamBasicCounters(t *testing.T) {
	d := fitTestDetector(t, Config{})
	s, err := NewStream(d, StreamConfig{WindowSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _ = s.Observe([]float64{0.5}); false {
			t.Fatal()
		}
	}
	if s.Total() != 5 {
		t.Errorf("Total = %d", s.Total())
	}
	if s.AttackRate() != 0 {
		t.Errorf("AttackRate = %v on clean traffic", s.AttackRate())
	}
	for i := 0; i < 5; i++ {
		s.Observe([]float64{1.5})
	}
	if s.AttackRate() != 0.5 {
		t.Errorf("AttackRate = %v, want 0.5", s.AttackRate())
	}
	counts := s.LabelCounts()
	if counts["normal"] != 5 || counts["neptune"] != 5 {
		t.Errorf("LabelCounts = %v", counts)
	}
}

func TestStreamAlarmEdgeTriggered(t *testing.T) {
	d := fitTestDetector(t, Config{})
	s, err := NewStream(d, StreamConfig{WindowSize: 8, AlarmRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Clean prefix: no alarm.
	for i := 0; i < 8; i++ {
		if _, alarm := s.Observe([]float64{0.5}); alarm {
			t.Fatal("alarm during clean traffic")
		}
	}
	// Attack burst: exactly one new-alarm edge.
	var edges int
	for i := 0; i < 16; i++ {
		if _, alarm := s.Observe([]float64{1.5}); alarm {
			edges++
		}
	}
	if edges != 1 {
		t.Errorf("alarm edges during burst = %d, want 1", edges)
	}
	if !s.inAlarm {
		t.Error("stream should be in alarm after burst")
	}
	if s.Alarms() != 1 {
		t.Errorf("Alarms = %d", s.Alarms())
	}
	// Recovery: alarm clears, a second burst re-triggers.
	for i := 0; i < 16; i++ {
		s.Observe([]float64{0.5})
	}
	if s.inAlarm {
		t.Error("alarm did not clear after recovery")
	}
	for i := 0; i < 16; i++ {
		s.Observe([]float64{1.5})
	}
	if s.Alarms() != 2 {
		t.Errorf("Alarms after second burst = %d, want 2", s.Alarms())
	}
}

func TestStreamWindowRate(t *testing.T) {
	d := fitTestDetector(t, Config{})
	s, err := NewStream(d, StreamConfig{WindowSize: 4, AlarmRate: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe([]float64{1.5})
	s.Observe([]float64{1.5})
	s.Observe([]float64{0.5})
	s.Observe([]float64{0.5})
	if got := s.WindowRate(); got != 0.5 {
		t.Errorf("WindowRate = %v, want 0.5", got)
	}
	// Window slides: four clean records push the attacks out.
	for i := 0; i < 4; i++ {
		s.Observe([]float64{0.5})
	}
	if got := s.WindowRate(); got != 0 {
		t.Errorf("WindowRate after slide = %v, want 0", got)
	}
}

func TestStreamNoveltyRate(t *testing.T) {
	d := fitTestDetector(t, Config{})
	s, err := NewStream(d, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe([]float64{0.5}) // clean
	s.Observe([]float64{9.9}) // unseen cell, high QE -> novel
	if got := s.NoveltyRate(); got != 0.5 {
		t.Errorf("NoveltyRate = %v, want 0.5", got)
	}
}

func TestStreamNaNInputSurvives(t *testing.T) {
	d := fitTestDetector(t, Config{})
	s, err := NewStream(d, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.Observe([]float64{math.NaN()})
	if math.IsNaN(p.QE) {
		t.Error("NaN propagated through stream")
	}
}

func TestNewStreamValidation(t *testing.T) {
	d := fitTestDetector(t, Config{})
	if _, err := NewStream(nil, StreamConfig{}); err == nil {
		t.Error("nil detector accepted")
	}
	if _, err := NewStream(d, StreamConfig{WindowSize: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewStream(d, StreamConfig{AlarmRate: 2}); err == nil {
		t.Error("alarm rate 2 accepted")
	}
}

func TestStreamEmptyRates(t *testing.T) {
	d := fitTestDetector(t, Config{})
	s, _ := NewStream(d, StreamConfig{})
	if s.AttackRate() != 0 || s.NoveltyRate() != 0 || s.WindowRate() != 0 {
		t.Error("empty stream rates should be 0")
	}
}
