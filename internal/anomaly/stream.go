package anomaly

import "fmt"

// Stream wraps a fitted Detector for online use: it classifies records
// one at a time, maintains rolling novelty/attack rates over a sliding
// window, and raises a burst alarm when the windowed attack rate exceeds
// a configured level — the operational mode of a deployed detector.
type Stream struct {
	det *Detector

	windowSize int
	alarmRate  float64

	// ring of recent binary verdicts.
	recent []bool
	next   int
	filled int
	hits   int

	total      int
	attacks    int
	novel      int
	alarms     int
	inAlarm    bool
	lastLabels map[string]int
}

// StreamConfig controls the sliding-window alarm.
type StreamConfig struct {
	// WindowSize is the number of recent records in the rolling window
	// (default 200).
	WindowSize int
	// AlarmRate raises the burst alarm when the windowed attack fraction
	// exceeds it (default 0.5).
	AlarmRate float64
}

// NewStream wraps det with streaming state.
func NewStream(det *Detector, cfg StreamConfig) (*Stream, error) {
	if det == nil {
		return nil, ErrNotFitted
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 200
	}
	if cfg.WindowSize < 1 {
		return nil, fmt.Errorf("anomaly: window size %d < 1", cfg.WindowSize)
	}
	if cfg.AlarmRate == 0 {
		cfg.AlarmRate = 0.5
	}
	if cfg.AlarmRate < 0 || cfg.AlarmRate > 1 {
		return nil, fmt.Errorf("anomaly: alarm rate %v outside [0, 1]", cfg.AlarmRate)
	}
	return &Stream{
		det:        det,
		windowSize: cfg.WindowSize,
		alarmRate:  cfg.AlarmRate,
		recent:     make([]bool, cfg.WindowSize),
		lastLabels: make(map[string]int),
	}, nil
}

// Observe classifies one record, updates the rolling window, and reports
// whether this observation newly triggered the burst alarm (an
// edge-triggered signal: true only on the transition into alarm).
func (s *Stream) Observe(x []float64) (Prediction, bool) {
	p := s.det.Classify(NaNGuard(x))
	s.total++
	if p.Attack {
		s.attacks++
	}
	if p.Novel {
		s.novel++
	}
	s.lastLabels[p.Label]++

	// Rolling window update.
	if s.filled == s.windowSize {
		if s.recent[s.next] {
			s.hits--
		}
	} else {
		s.filled++
	}
	s.recent[s.next] = p.Attack
	if p.Attack {
		s.hits++
	}
	s.next = (s.next + 1) % s.windowSize

	rate := float64(s.hits) / float64(s.filled)
	newAlarm := false
	if rate > s.alarmRate && s.filled >= s.windowSize/4 {
		if !s.inAlarm {
			newAlarm = true
			s.alarms++
		}
		s.inAlarm = true
	} else {
		s.inAlarm = false
	}
	return p, newAlarm
}

// Total returns the number of records observed.
func (s *Stream) Total() int { return s.total }

// AttackRate returns the lifetime fraction of attack verdicts.
func (s *Stream) AttackRate() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.attacks) / float64(s.total)
}

// NoveltyRate returns the lifetime fraction of novelty flags.
func (s *Stream) NoveltyRate() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.novel) / float64(s.total)
}

// WindowRate returns the attack fraction of the current window.
func (s *Stream) WindowRate() float64 {
	if s.filled == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.filled)
}

// Alarms returns the number of distinct alarm episodes raised.
func (s *Stream) Alarms() int { return s.alarms }

// LabelCounts returns a copy of the lifetime predicted-label tally.
func (s *Stream) LabelCounts() map[string]int {
	out := make(map[string]int, len(s.lastLabels))
	for k, v := range s.lastLabels {
		out[k] = v
	}
	return out
}
