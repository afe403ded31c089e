// Command servebench is the repository's serving benchmark. It trains a
// pipeline, saves and reloads it, serves it over loopback HTTP through
// the same layers ghsom-serve and ghsom-gateway ship (serve.Registry and
// cluster.Gateway at their CLI defaults), drives one workload, checks
// every verdict byte for byte against the in-process DetectBatch, and
// prints its metrics as one JSON line.
//
//	go run . --workload live-direct --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// wraps the HTTP handlers in spans, reads the serving counters and
// replays the served batches through each layer's public function, and
// prints the per-layer metrics. See README.md for the workloads and the
// metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ghsom"
)

// setUps is how many times one run sets up; setup_s is the median.
// Training the large model takes seconds, so bulk-large sets up fewer
// times.
func (w workload) setUps() int {
	if w.largeModel {
		return 3
	}
	return 5
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's shared state.
type run struct {
	w       workload
	seed    int64
	seconds time.Duration
	train   []ghsom.Record
	traffic []ghsom.Record
	reqs    []request
	dir     string
	res     result
	facts   []string
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: live-direct, live-gateway or bulk-large")
	seed := fs.Int64("seed", 1, "scenario seed: the model trains on seed S, the traffic is seed S+1")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need --workload (live-direct|live-gateway|bulk-large), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	r := &run{w: *w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		res: result{Correct: true, Metrics: map[string]metric{}}}
	ctx := context.Background()
	if err := r.prepare(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	var err error
	if *trace == 1 {
		err = r.traced(ctx)
	} else {
		err = r.endToEnd(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	for _, f := range r.facts {
		fmt.Println("#", f)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		fmt.Fprintln(os.Stderr, "servebench: verdict mismatch")
		return 1
	}
	return 0
}

// prepare generates both scenarios, the request bodies and the scratch
// directory for saved models.
func (r *run) prepare() error {
	var err error
	if r.train, err = ghsom.GenerateTraffic(ghsom.KDD99Scenario(r.seed)); err != nil {
		return fmt.Errorf("training traffic: %w", err)
	}
	if r.traffic, err = ghsom.GenerateTraffic(ghsom.KDD99Scenario(r.seed + 1)); err != nil {
		return fmt.Errorf("sent traffic: %w", err)
	}
	if r.reqs, err = buildRequests(r.w, r.traffic); err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	r.dir, err = os.MkdirTemp(".bench_build", "servebench-")
	return err
}

func (r *run) set(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }

func (r *run) fact(format string, args ...any) {
	r.facts = append(r.facts, fmt.Sprintf(format, args...))
}

// setUp deploys setUps times, keeping the last stack, and returns the
// stage timings of every repetition.
func (r *run) setUp(ctx context.Context, tr *tracer) (*stack, []setupTiming, error) {
	var st *stack
	var times []setupTiming
	for i := 0; i < r.w.setUps(); i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		var err error
		if st, err = deploy(ctx, r.w, r.train, r.reqs[0], r.dir, tr.wrapper()); err != nil {
			return nil, nil, err
		}
		times = append(times, st.timing)
	}
	digest, err := fillReference(st.ref, r.traffic, r.reqs)
	if err != nil {
		st.close()
		return nil, nil, err
	}
	r.facts = append(r.facts,
		fmt.Sprintf("host: GOMAXPROCS=%d nproc=%d go=%s %s/%s senders=%d", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, senders),
		fmt.Sprintf("model: %s", modelFacts(st.served[0])),
		fmt.Sprintf("verdict digest: sha256=%s over %d requests of the seed %d traffic", digest, len(r.reqs), r.seed+1))
	return st, times, nil
}

func modelFacts(p *ghsom.Pipeline) string {
	c := p.Compiled()
	s := c.Stats()
	return fmt.Sprintf("dim=%d nodes=%d units=%d widest=%d precision=%s", c.Dim(), s.Maps, s.Units, s.LargestMapUnits, p.BMUPrecision())
}

// warmUp sends a few requests that are not measured.
func (r *run) warmUp(ctx context.Context, c *client) {
	closedLoop(ctx, c, r.reqs, len(r.reqs)/2, 300*time.Millisecond)
}

// tally adds samples to the attempted and failed counts.
func (r *run) tally(ss []sample) {
	for _, s := range ss {
		r.res.Attempted++
		if !s.ok {
			r.res.Failed++
		}
		if s.mismatch {
			r.res.Correct = false
		}
	}
}

func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.latency()
	}
	return out
}

func records(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n += s.records
		}
	}
	return n
}

// wall is the span from the first send to the last response.
func wall(ss []sample) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	lo, hi := ss[0].sent, ss[0].done
	for _, s := range ss {
		lo, hi = min(lo, s.sent), max(hi, s.done)
	}
	return hi - lo
}

func median(ds []time.Duration) time.Duration {
	return quantile(append([]time.Duration(nil), ds...), 0.5)
}

// endToEnd is the untraced run: set-up, then the workload's measurement.
func (r *run) endToEnd(ctx context.Context) error {
	st, times, err := r.setUp(ctx, nil)
	if err != nil {
		return err
	}
	defer st.close()
	totals := make([]time.Duration, len(times))
	for i, t := range times {
		totals[i] = t.total
	}
	r.set("setup_s", median(totals).Seconds(), "s")
	// Only the prepared requests are needed from here on; dropping the
	// scenarios keeps the benchmark's own data out of the heap peak.
	r.train, r.traffic, st.ref = nil, nil, nil

	c := newClient(st.url())
	defer c.close()
	r.warmUp(ctx, c)
	runtime.GC()
	heap := startHeapSampler()
	var lat []time.Duration
	var p99 time.Duration
	if r.w.bulk {
		ss := closedLoop(ctx, c, r.reqs, 0, r.seconds)
		r.tally(ss)
		lat = latencies(ss)
		p99 = quantile(lat, 0.99)
		r.set("records_per_s", float64(records(ss))/wall(ss).Seconds(), "1/s")
		r.set("max_rate_rps", float64(len(ss))/wall(ss).Seconds(), "1/s")
	} else {
		lat, p99 = r.liveLatency(ctx, c)
	}
	r.set("peak_heap_mb", heap.finish()/(1<<20), "MB")
	r.fact("requests: attempted=%d failed=%d error_rate=%g", r.res.Attempted, r.res.Failed, float64(r.res.Failed)/float64(r.res.Attempted))
	r.fact("latency samples: n=%d, highest supported percentile p%g; p99 %.3f ms", len(lat), 100*tailQuantile(len(lat)), ms(p99))
	r.set("p50_ms", ms(quantile(lat, 0.5)), "ms")
	r.set("success_rate", 1-float64(r.res.Failed)/float64(r.res.Attempted), "ratio")
	return nil
}

// The live workloads spend nominalShare of --seconds at the nominal rate,
// cut into nominalWindows windows of at least rungRequests requests each;
// p99_ms is the median of the windows' p99, so a stall of the shared host
// in one window does not move it. The rest of --seconds is the
// saturation phase: every sender in a closed loop, cut into
// saturationWindows windows; max_rate_rps is the median window's rate.
const (
	nominalShare      = 0.6
	nominalWindows    = 3
	saturationWindows = 7
)

// rungRequests is the number of requests one ladder rung sends: enough
// that p99 has ten samples beyond it.
const rungRequests = 1000

// liveLatency runs the nominal-rate windows and then the saturation
// phase, and returns the latencies of every nominal window and the
// median of the windows' p99.
func (r *run) liveLatency(ctx context.Context, c *client) ([]time.Duration, time.Duration) {
	rng := newRand(r.seed)
	var all, p99s []time.Duration
	first := 0
	perWindow := max(int(r.seconds.Seconds()*nominalShare/nominalWindows*r.w.nominalRPS), rungRequests)
	for i := 0; i < nominalWindows; i++ {
		due := poisson(rng, r.w.nominalRPS, perWindow, 0)
		ss := openLoop(ctx, c, r.reqs, first, due)
		first += len(ss)
		r.tally(ss)
		lat := latencies(ss)
		all = append(all, lat...)
		p99s = append(p99s, quantile(lat, 0.99))
	}
	r.fact("nominal windows: n=%d, p99 %.3f / %.3f / %.3f ms (each supported: %v)",
		len(all), ms(p99s[0]), ms(p99s[1]), ms(p99s[2]), supported(len(all)/nominalWindows, 0.99))
	r.saturate(ctx, c, first)
	return all, median(p99s)
}

// saturate keeps every sender busy in a closed loop for the share of
// --seconds the nominal windows leave, in saturationWindows windows, and
// sets max_rate_rps and records_per_s from the median window: the rate
// the connections carry when no request waits for its schedule. It is a
// median of windows rather than the top rung of a rate ladder, so that
// neither the ladder's step nor one stall of the shared host moves it.
func (r *run) saturate(ctx context.Context, c *client, first int) {
	per := time.Duration(float64(r.seconds) * (1 - nominalShare) / saturationWindows)
	var rates []float64
	for i := 0; i < saturationWindows; i++ {
		ss := closedLoop(ctx, c, r.reqs, first, per)
		first += len(ss)
		r.tally(ss)
		rates = append(rates, float64(records(ss))/wall(ss).Seconds())
	}
	sort.Float64s(rates)
	rate := rates[len(rates)/2]
	r.set("records_per_s", rate, "1/s")
	r.set("max_rate_rps", rate/liveRecords, "1/s")
	r.fact("saturation windows (%d senders, closed loop): records/s %.0f .. %.0f, median %.0f", senders, rates[0], rates[len(rates)-1], rate)
}

// ladder climbs the workload's rate ladder from request first on and
// returns the achieved rate of the highest passing rung (0 when none
// passes) and the number of requests it sent.
func (r *run) ladder(ctx context.Context, c *client, first int) (float64, int) {
	rng := newRand(r.seed)
	sent := 0
	var desc []string
	best, ok := climb(r.w.ladder, p99Limit, func(rate float64) rungResult {
		rs := openLoop(ctx, c, r.reqs, first+sent, poisson(rng, rate, rungRequests, 0))
		sent += len(rs)
		r.tally(rs)
		rr := rungResult{rate: rate, latency: latencies(rs), achieved: float64(len(rs)) / wall(rs).Seconds()}
		for _, s := range rs {
			rr.sendLate = append(rr.sendLate, s.sent-s.due)
			if !s.ok {
				rr.missed++
			}
		}
		desc = append(desc, fmt.Sprintf("%g:p99=%.2fms", rate, ms(quantile(append([]time.Duration(nil), rr.latency...), 0.99))))
		return rr
	})
	if !ok {
		r.fact("no ladder rung passed")
	}
	r.fact("ladder (%d requests per rung, limit p99 <= %v): %v; highest passing rung %g rps", rungRequests, p99Limit, desc, best.rate)
	return best.achieved, sent
}
