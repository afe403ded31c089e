package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := durations(5, 1, 4, 2, 3) // sorts to 1..5
	for _, c := range []struct {
		q    float64
		want int
	}{{0.2, 1}, {0.5, 3}, {0.59, 3}, {0.61, 4}, {0.99, 5}, {1, 5}} {
		if got := quantile(s, c.q); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("quantile(%v) = %v, want %dms", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	// p99 of n samples is the ceil(0.99n)-th; ten must lie beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {1100, 0.99, true},
		{99, 0.9, false}, {100, 0.9, true},
		{9999, 0.999, false}, {10000, 0.999, true},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for n, want := range map[int]float64{50: 0.5, 100: 0.9, 1000: 0.99, 20000: 0.999} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

// rung builds a rung whose latencies are all lat and whose send delays
// grow by step per request.
func rung(rate float64, n int, lat, step time.Duration) rungResult {
	r := rungResult{rate: rate, achieved: rate}
	for i := 0; i < n; i++ {
		r.latency = append(r.latency, lat)
		r.sendLate = append(r.sendLate, time.Duration(i)*step)
	}
	return r
}

func TestRungRule(t *testing.T) {
	limit := 10 * time.Millisecond
	if !rungPasses(rung(100, 1000, 5*time.Millisecond, 0), limit) {
		t.Error("a fast, flat rung failed")
	}
	if rungPasses(rung(100, 999, 5*time.Millisecond, 0), limit) {
		t.Error("a rung too short to support p99 passed")
	}
	if rungPasses(rung(100, 1000, 11*time.Millisecond, 0), limit) {
		t.Error("a rung over the limit passed")
	}
	missed := rung(100, 1000, 5*time.Millisecond, 0)
	missed.missed = 1
	if rungPasses(missed, limit) {
		t.Error("a rung with a failed request passed")
	}
	// 10µs more delay per request: the last quarter is ~7.5ms later than
	// the first, beyond limit/4.
	if rungPasses(rung(100, 1000, 5*time.Millisecond, 10*time.Microsecond), limit) {
		t.Error("a rung with a growing backlog passed")
	}
	if backlogGrowing(durations(3, 1, 2, 3, 1, 2, 3, 1), limit) {
		t.Error("a steady send delay counted as a growing backlog")
	}
}

func TestClimbStopRule(t *testing.T) {
	limit := 10 * time.Millisecond
	ladder := []float64{100, 200, 300, 400, 500}
	// Rates up to 300 pass; 200 fails once (a stall) and passes on the
	// retry; 400 fails twice, so 500 is never run.
	calls := map[float64]int{}
	best, ok := climb(ladder, limit, func(rate float64) rungResult {
		calls[rate]++
		lat := 5 * time.Millisecond
		if rate >= 400 || (rate == 200 && calls[rate] == 1) {
			lat = 20 * time.Millisecond
		}
		return rung(rate, 1000, lat, 0)
	})
	if !ok || best.rate != 300 {
		t.Fatalf("climb = %v, %v; want rung 300", best.rate, ok)
	}
	want := map[float64]int{100: 1, 200: 2, 300: 1, 400: 2}
	for rate, n := range want {
		if calls[rate] != n {
			t.Errorf("rung %v ran %d times, want %d", rate, calls[rate], n)
		}
	}
	if calls[500] != 0 {
		t.Error("the climb went on past a rung that failed twice")
	}
	if _, ok := climb(ladder, limit, func(rate float64) rungResult { return rung(rate, 1000, time.Second, 0) }); ok {
		t.Error("a ladder whose first rung fails reported a passing rung")
	}
}

func TestOpenLoopTimesFromSchedule(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	reqs := []request{{body: []byte("{}\n"), ctype: "application/x-ndjson", hi: 1, want: []byte("ok\n")}}
	// Eight requests all due at once: the senders serve them a few at a
	// time, and the later ones wait for a free sender. Their latency must
	// count that wait from the due time, not from when they went out.
	due := make([]time.Duration, 8)
	ss := openLoop(context.Background(), c, reqs, 0, due)
	var worst time.Duration
	for i, s := range ss {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if s.latency() < s.done-s.sent {
			t.Errorf("request %d: latency %v shorter than its service time %v", i, s.latency(), s.done-s.sent)
		}
		if s.lag() > service {
			t.Errorf("request %d: generator lag %v counts the wait for a sender", i, s.lag())
		}
		worst = max(worst, s.latency())
	}
	if floor := time.Duration(len(due)/senders) * service; worst < floor {
		t.Errorf("worst latency %v, want at least %v of queueing behind busy senders", worst, floor)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	parent := span{start: at(0), end: at(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: at(10), end: at(40)}}, 70},
		{"overlapping children count once", []span{{start: at(10), end: at(40)}, {start: at(30), end: at(60)}}, 50},
		{"nested child", []span{{start: at(10), end: at(60)}, {start: at(20), end: at(30)}}, 50},
		{"disjoint children", []span{{start: at(70), end: at(80)}, {start: at(10), end: at(20)}}, 80},
		{"child clipped to parent", []span{{start: at(-50), end: at(10)}, {start: at(90), end: at(200)}}, 80},
		{"child outside parent", []span{{start: at(150), end: at(200)}}, 100},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}
