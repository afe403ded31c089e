// Package parallel provides the bounded fork-join primitives shared by the
// training and inference hot paths: one chunk loop (ForEachChunk), one
// deterministic chunk reduce (MapReduceChunk), and the worker-count
// resolvers they use.
//
// # The Parallelism knob
//
// Every layer of the library (som, core, anomaly, the Pipeline façade)
// exposes a Parallelism int configuration field that is interpreted by
// Workers: values <= 0 mean "use runtime.GOMAXPROCS(0)", 1 means strictly
// serial execution on the calling goroutine, and n > 1 bounds the fan-out
// at n goroutines. The worker count is additionally capped by the job
// count (and by WorkersGrain at one chunk per worker), so small inputs
// never pay goroutine overhead.
//
// # Determinism
//
// Both schedulers split [0, n) into a fixed chunk layout that depends only
// on (n, grain) — never on the worker count — and hand chunks to workers
// through an atomic cursor (work stealing, so skewed chunk costs balance).
// When every chunk writes only its own output slots, ForEachChunk's
// result is identical for every worker count; this is how BMU assignment
// and batch classification stay bit-for-bit reproducible under
// parallelism. MapReduceChunk folds per-chunk partials in ascending chunk
// order, and each partial is computed over the same index range in the
// same serial order no matter which worker runs it, so floating-point
// reductions built on it are bit-identical at every Parallelism setting,
// including 1.
//
// # Cancellation and errors
//
// ForEachChunk checks its context only between chunks — a chunk that has
// started always runs to completion — so an uncanceled call runs the
// exact chunked computation of a call with a nil context. A failing chunk
// reports the error of the lowest failing chunk, the result of a serial
// loop that stops at its first error.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// CacheLineSize is the assumed coherence granularity used by Padded. 64
// bytes covers x86-64 and most arm64 cores (Apple silicon uses 128-byte
// lines; Padded's slot spacing still removes the adjacent-slot sharing
// that dominates in practice).
const CacheLineSize = 64

// Padded wraps a value in a full trailing cache line so adjacent elements
// of a []Padded[T] never share a line through their tails — the
// accumulator-slot layout of MapReduceChunk and of callers keeping
// per-worker counters. For slot types at least a cache line wide the pad
// is redundant but harmless.
type Padded[T any] struct {
	V T
	_ [CacheLineSize]byte
}

// Resolve maps a Parallelism knob value to a concrete worker budget:
// p <= 0 selects runtime.GOMAXPROCS(0), any other value is returned as is.
func Resolve(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Workers resolves a Parallelism knob value p against a job count n: p <= 0
// selects runtime.GOMAXPROCS(0), and the result is clamped to [1, n] (with
// a floor of 1 even for n == 0).
func Workers(p, n int) int {
	p = Resolve(p)
	if n < p {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// WorkersGrain resolves the knob p against n jobs whose natural work
// granule is grain indices (a GEMM tile of rows, a pooled classify
// chunk): the worker count is additionally clamped so no worker would
// receive less than one full granule. Workers(p, n) alone oversubscribes
// small batches — at n=40 rows and p=16 every worker gets under one
// 32-row GEMM tile and the fan-out costs more than it buys. A grain <= 1
// degenerates to Workers(p, n).
func WorkersGrain(p, n, grain int) int {
	w := Workers(p, n)
	if grain > 1 {
		if g := (n + grain - 1) / grain; g < w {
			w = g
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEachChunk splits [0, n) into fixed chunks of grain indices — chunk c
// covers [c*grain, min((c+1)*grain, n)), a layout that depends only on
// (n, grain), with grain floored at 1 — and invokes fn(w, lo, hi) once per
// chunk on at most WorkersGrain(p, n, grain) workers. Chunks are handed
// out through an atomic cursor, so uneven per-chunk costs (hierarchy
// descents of varying depth) balance across workers, while w identifies
// the calling worker in [0, WorkersGrain(p, n, grain)) so callers can keep
// per-worker scratch arenas without locks or pools on the chunk path.
// Serial execution (one worker) visits chunks in ascending order with
// w == 0 on the calling goroutine. fn must be safe for concurrent calls;
// writes to distinct per-index slots need no further synchronization.
//
// If fn fails, the error of the lowest failing chunk is returned; chunks
// after an observed failure may be skipped, so the caller must treat all
// outputs as invalid. ctx is checked between chunks: with no fn error,
// ctx.Err() is returned only if cancellation actually skipped chunks — a
// ctx that fires after the last chunk completed does not fail the call,
// because the computation is whole. A nil ctx never cancels, so with a
// nil ctx and an fn that never fails the call always returns nil.
func ForEachChunk(ctx context.Context, p, n, grain int, fn func(w, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	w := WorkersGrain(p, n, grain)
	if w > 1 {
		return forEachChunkParallel(ctx, done, w, n, grain, fn)
	}
	// The serial loop lives beside, not inside, the goroutine fan-out:
	// nothing here is captured by a goroutine, so the call allocates
	// nothing beyond the caller's closure.
	for lo := 0; lo < n; lo += grain {
		if canceled(done) {
			return ctx.Err()
		}
		if err := fn(0, lo, min(lo+grain, n)); err != nil {
			return err
		}
	}
	return nil
}

// forEachChunkParallel is ForEachChunk's fan-out over w > 1 workers.
func forEachChunkParallel(ctx context.Context, done <-chan struct{}, w, n, grain int, fn func(w, lo, hi int) error) error {
	chunks := (n + grain - 1) / grain
	var (
		cursor   atomic.Int64
		cut      atomic.Bool // a checkpoint skipped remaining chunks
		mu       sync.Mutex
		firstChk atomic.Int64
		firstErr error
	)
	firstChk.Store(int64(chunks))
	var wg sync.WaitGroup
	wg.Add(w)
	for id := 0; id < w; id++ {
		go func(id int) {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					return
				}
				if canceled(done) {
					cut.Store(true)
					return
				}
				if int64(c) > firstChk.Load() {
					continue // an earlier chunk failed; skip, but keep draining the cursor
				}
				lo := c * grain
				if err := fn(id, lo, min(lo+grain, n)); err != nil {
					mu.Lock()
					if int64(c) < firstChk.Load() {
						firstChk.Store(int64(c))
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(id)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if cut.Load() {
		return ctx.Err()
	}
	return nil
}

// canceled reports whether done is closed; a nil done never is.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// MapReduceChunk runs mapFn over the same fixed chunk layout as
// ForEachChunk — chunk boundaries depend only on (n, grain) — storing
// each chunk's partial in its own cache-line-padded slot, then folds the
// partials into zero in ascending chunk order once all chunks complete:
// reduceFn(...reduceFn(zero, part0)..., partK). The result is
// bit-identical at EVERY worker count, including serial execution,
// because each partial is computed over an identical index range in
// identical serial order and the fold order never changes. This is the
// scheduler under the floating-point training folds (BMU-class
// accumulation, MQE sums).
//
// Callers bound peak memory by choosing grain: all ceil(n/grain) partials
// are alive until the fold runs. reduceFn may recycle part's storage into
// a pool after folding it.
func MapReduceChunk[T any](p, n, grain int, zero T, mapFn func(lo, hi int) T, reduceFn func(acc, part T) T) T {
	if n <= 0 {
		return zero
	}
	if grain < 1 {
		grain = 1
	}
	parts := make([]Padded[T], (n+grain-1)/grain)
	ForEachChunk(nil, p, n, grain, func(_, lo, hi int) error {
		parts[lo/grain].V = mapFn(lo, hi)
		return nil
	})
	acc := zero
	for c := range parts {
		acc = reduceFn(acc, parts[c].V)
	}
	return acc
}
