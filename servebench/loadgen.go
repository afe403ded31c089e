package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// senders is the number of sender goroutines, each with its own
// connection: at most two, and never more than the host's CPUs.
var senders = min(2, runtime.NumCPU())

// sample is one sent request; times are offsets from its phase's start.
type sample struct {
	due, picked, sent, done time.Duration
	records                 int
	ok                      bool // 200 with the reference bytes
	mismatch                bool // 200 with other bytes
}

// latency is the request's time from when it was due: the schedule time
// in an open loop, the send time in a closed one (where due == sent).
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator itself sent: the send time minus the
// later of the due time and the moment a sender was free to take it.
func (s sample) lag() time.Duration { return s.sent - max(s.due, s.picked) }

// client posts prepared requests over a bounded set of connections and
// checks every response against its reference bytes.
type client struct {
	http *http.Client
	url  string
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		}},
		url: base + "/detect",
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends r, reading the response into buf, and classifies the outcome.
func (c *client) do(ctx context.Context, r *request, buf *bytes.Buffer) (ok, mismatch bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(r.body))
	if err != nil {
		return false, false
	}
	req.Header.Set("Content-Type", r.ctype)
	resp, err := c.http.Do(req)
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return false, false
	}
	if !bytes.Equal(buf.Bytes(), r.want) {
		return false, true
	}
	return true, false
}

// poisson returns the due times of Poisson arrivals at rate per second:
// count arrivals when count > 0, otherwise every arrival within dur.
func poisson(rng *rand.Rand, rate float64, count int, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if (count > 0 && len(due) == count) || (count <= 0 && t > dur) {
			return due
		}
		due = append(due, t)
	}
}

// openLoop sends request (first+i) mod len(reqs) at due[i] regardless of
// earlier responses, from the sender goroutines; a request due while
// every sender is busy goes out as soon as one frees up, and its latency
// still counts from the due time.
func openLoop(ctx context.Context, c *client, reqs []request, first int, due []time.Duration) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				picked := time.Since(start)
				if wait := due[i] - picked; wait > 0 {
					time.Sleep(wait)
				}
				r := &reqs[(first+i)%len(reqs)]
				sent := time.Since(start)
				ok, mismatch := c.do(ctx, r, &buf)
				out[i] = sample{due: due[i], picked: picked, sent: sent, done: time.Since(start),
					records: r.hi - r.lo, ok: ok, mismatch: mismatch}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps every sender busy for dur, each sending its next
// request as soon as the previous response is in.
func closedLoop(ctx context.Context, c *client, reqs []request, first int, dur time.Duration) []sample {
	var next atomic.Int64
	start := time.Now()
	parts := make([][]sample, senders)
	var wg sync.WaitGroup
	for s := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Since(start) < dur {
				r := &reqs[(first+int(next.Add(1)-1))%len(reqs)]
				sent := time.Since(start)
				ok, mismatch := c.do(ctx, r, &buf)
				parts[s] = append(parts[s], sample{due: sent, picked: sent, sent: sent, done: time.Since(start),
					records: r.hi - r.lo, ok: ok, mismatch: mismatch})
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// heapSampler records, through runtime/metrics (which reads without
// stopping the world), the live heap each GC cycle leaves marked.
type heapSampler struct {
	stop, done chan struct{}
	live       []time.Duration // bytes, kept as durations to share quantile
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		h.live = append(h.live, time.Duration(s[1].Value.Uint64()))
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				h.live = append(h.live, time.Duration(s[1].Value.Uint64()))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the 90th percentile of the live
// heap over the GC cycles it saw, in bytes: the peak, short of the rare
// cycle that ends while every in-flight request holds its buffers.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(quantile(h.live, 0.9))
}
