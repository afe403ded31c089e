package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is the sample-count rule: a percentile is reported as
// supported only when at least this many samples lie beyond it.
const minTailSamples = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of samples,
// which it sorts in place. It returns 0 for an empty slice.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rank(len(samples), q)]
}

// rank is the 0-based index of the nearest-rank q-quantile of n sorted
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n)-1e-9)) - 1 // q*n may carry float error above an integer
	return min(max(r, 0), n-1)
}

// supported reports whether n samples leave at least minTailSamples
// beyond the q-quantile, so the quantile rests on more than a few
// outliers.
func supported(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= minTailSamples
}

// tailQuantile names the highest of the usual tail quantiles that n
// samples support, or 0.5 when none does.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if supported(n, q) {
			return q
		}
	}
	return 0.5
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rungResult is the outcome of one rung of the rate ladder.
type rungResult struct {
	rate     float64         // offered requests per second
	latency  []time.Duration // per request, from its scheduled send time
	sendLate []time.Duration // per request in schedule order: send time minus due time
	missed   int             // failed, refused or wrong-verdict requests
	achieved float64         // requests completed per second of wall time
}

// backlogGrowing reports whether requests queued up behind busy
// connections over the rung: the mean send delay of the last quarter of
// the schedule exceeds that of the first quarter by more than a quarter
// of the latency limit.
func backlogGrowing(sendLate []time.Duration, limit time.Duration) bool {
	n := len(sendLate) / 4
	if n == 0 {
		return false
	}
	mean := func(ds []time.Duration) time.Duration {
		var s time.Duration
		for _, d := range ds {
			s += d
		}
		return s / time.Duration(len(ds))
	}
	return mean(sendLate[len(sendLate)-n:])-mean(sendLate[:n]) > limit/4
}

// rungPasses is the ladder's per-rung rule: no request missed, enough
// samples to support p99, p99 within the limit, and no growing backlog.
func rungPasses(r rungResult, limit time.Duration) bool {
	if r.missed > 0 || !supported(len(r.latency), 0.99) {
		return false
	}
	lat := append([]time.Duration(nil), r.latency...)
	return quantile(lat, 0.99) <= limit && !backlogGrowing(r.sendLate, limit)
}

// climb runs the ladder's rungs in ascending order and applies the stop
// rule: a failing rung is run once more, so one stall of the shared host
// does not end the climb, and the climb stops at the first rung that
// fails twice. It returns the highest passing rung; ok is false when the
// first rung fails.
func climb(ladder []float64, limit time.Duration, runRung func(rate float64) rungResult) (best rungResult, ok bool) {
	for _, rate := range ladder {
		r := runRung(rate)
		if !rungPasses(r, limit) {
			if r = runRung(rate); !rungPasses(r, limit) {
				break
			}
		}
		best, ok = r, true
	}
	return best, ok
}

// span is one timed interval at a layer boundary. Spans of one request
// share id.
type span struct {
	layer      string
	id         uint64
	start, end time.Time
}

// selfTime is the parent's duration minus the part of it that the
// children cover; overlapping children count once and the parts of a
// child outside the parent are ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ s, e time.Time }
	var ivs []iv
	for _, c := range children {
		s, e := c.start, c.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.s.After(cur.e):
			covered += cur.e.Sub(cur.s)
			cur = v
		case v.e.After(cur.e):
			cur.e = v.e
		}
	}
	if len(ivs) > 0 {
		covered += cur.e.Sub(cur.s)
	}
	return parent.end.Sub(parent.start) - covered
}
