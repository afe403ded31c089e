package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		p, n, want int
	}{
		{0, 100, min(gmp, 100)},
		{-3, 100, min(gmp, 100)},
		{1, 100, 1},
		{4, 100, 4},
		{4, 2, 2},
		{4, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.p, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// TestForEachDeterministicOutputAcrossWorkerCounts checks the caller
// pattern of the dataplanes: per-worker scratch indexed by w, results
// written to per-index slots. The output must not depend on which worker
// ran which chunk, so it is identical at every worker count.
func TestForEachDeterministicOutputAcrossWorkerCounts(t *testing.T) {
	n, grain := 512, 7
	run := func(p int) []int {
		out := make([]int, n)
		scratch := make([][]int, WorkersGrain(p, n, grain))
		ForEachChunk(nil, p, n, grain, func(w, lo, hi int) error {
			buf := scratch[w][:0]
			for i := lo; i < hi; i++ {
				buf = append(buf, i*i)
			}
			copy(out[lo:hi], buf)
			scratch[w] = buf
			return nil
		})
		return out
	}
	ref := run(1)
	for _, p := range []int{2, 4, 8, 0} {
		out := run(p)
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("p=%d: out[%d] = %d, want %d", p, i, out[i], ref[i])
			}
		}
	}
}

// TestForEachErrHappyPath runs under a live context that never fires:
// every index is visited once and the call succeeds, exactly as with a
// nil ctx.
func TestForEachErrHappyPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, p := range []int{1, 2, 4, 8, 0} {
		n := 300
		counts := make([]int32, n)
		err := ForEachChunk(ctx, p, n, 9, func(w, lo, hi int) error {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: err = %v", p, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, c)
			}
		}
	}
}

// TestForEachErrLowestIndexWins verifies the serial-loop error contract
// at grain 1, where a chunk is one index: with several sparse failing
// indices, the error of the lowest one is returned at every worker count.
func TestForEachErrLowestIndexWins(t *testing.T) {
	fail := map[int]error{
		17:  errTest(17),
		200: errTest(200),
		999: errTest(999),
	}
	for _, p := range []int{1, 2, 4, 8, 0} {
		err := ForEachChunk(nil, p, 1000, 1, func(w, lo, hi int) error { return fail[lo] })
		if err != errTest(17) {
			t.Errorf("p=%d: err = %v, want %v", p, err, errTest(17))
		}
	}
}

// TestForEachErrEmpty: an empty or negative range calls nothing and
// succeeds, even with an fn that would fail.
func TestForEachErrEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		err := ForEachChunk(nil, 4, n, 8, func(w, lo, hi int) error {
			t.Errorf("n=%d: fn called on [%d,%d)", n, lo, hi)
			return errTest(lo)
		})
		if err != nil {
			t.Errorf("n=%d: err = %v", n, err)
		}
	}
}

type errTest int

func (e errTest) Error() string { return fmt.Sprintf("test error %d", int(e)) }

// TestMapReduceSum folds an integer count (the TopographicError pattern),
// which must be exact at every worker count and grain.
func TestMapReduceSum(t *testing.T) {
	n := 1000
	want := n * (n - 1) / 2
	for _, grain := range []int{1, 33, 4096} {
		for _, p := range []int{1, 2, 4, 8, 0} {
			got := MapReduceChunk(p, n, grain, 0,
				func(lo, hi int) int {
					s := 0
					for i := lo; i < hi; i++ {
						s += i
					}
					return s
				},
				func(acc, part int) int { return acc + part })
			if got != want {
				t.Errorf("grain=%d p=%d: sum = %d, want %d", grain, p, got, want)
			}
		}
	}
}

func TestWorkersGrain(t *testing.T) {
	cases := []struct {
		p, n, grain, want int
	}{
		{16, 40, 32, 2}, // 40 rows / 32-row tiles: two workers, not 16
		{16, 1000, 32, 16} /* enough tiles for everyone */, {16, 31, 32, 1},
		{16, 0, 32, 1},
		{4, 100, 0, 4}, // grain <= 1 degenerates to Workers
		{4, 100, 1, 4},
		{1, 100, 32, 1},
	}
	for _, c := range cases {
		if got := WorkersGrain(c.p, c.n, c.grain); got != c.want {
			t.Errorf("WorkersGrain(%d, %d, %d) = %d, want %d", c.p, c.n, c.grain, got, c.want)
		}
	}
}

// TestForEachChunkCoversRangeOnce checks every index is covered by exactly
// one chunk, chunk boundaries follow the fixed (n, grain) layout, and
// worker ids stay in range, at every worker count.
func TestForEachChunkCoversRangeOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 0} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			for _, grain := range []int{1, 7, 64, 2000} {
				counts := make([]int32, n)
				maxW := WorkersGrain(p, n, grain)
				var badWorker atomic.Int32
				badWorker.Store(-1)
				err := ForEachChunk(nil, p, n, grain, func(w, lo, hi int) error {
					if w < 0 || w >= maxW {
						badWorker.Store(int32(w))
					}
					if lo%grain != 0 || (hi != n && hi-lo != grain) || hi > n {
						badWorker.Store(int32(-2))
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d n=%d grain=%d: err = %v", p, n, grain, err)
				}
				if w := badWorker.Load(); w != -1 {
					t.Fatalf("p=%d n=%d grain=%d: bad worker id or chunk bounds (%d)", p, n, grain, w)
				}
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("p=%d n=%d grain=%d: index %d visited %d times", p, n, grain, i, c)
					}
				}
			}
		}
	}
}

// TestForEachChunkSerialAllocs pins the serial path's cost: at P=1 the
// loop runs on the calling goroutine and allocates nothing beyond the
// caller's closure.
func TestForEachChunkSerialAllocs(t *testing.T) {
	out := make([]int, 1000)
	for _, ctx := range []context.Context{nil, context.Background()} {
		allocs := testing.AllocsPerRun(100, func() {
			err := ForEachChunk(ctx, 1, len(out), 32, func(_, lo, hi int) error {
				for i := lo; i < hi; i++ {
					out[i] = i
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("ctx=%v: %v allocs per serial call, want <= 1", ctx, allocs)
		}
	}
}

// TestMapReduceChunkBitIdenticalAcrossWorkerCounts is the determinism
// contract of the chunked scheduler: a floating-point sum whose rounding
// depends on the grouping must come out bit-identical at every worker
// count because the chunk layout and fold order never depend on it.
func TestMapReduceChunkBitIdenticalAcrossWorkerCounts(t *testing.T) {
	n := 10_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+1)
	}
	sum := func(p, grain int) float64 {
		return MapReduceChunk(p, n, grain, 0.0,
			func(lo, hi int) float64 {
				var s float64
				for i := lo; i < hi; i++ {
					s += vals[i]
				}
				return s
			},
			func(acc, part float64) float64 { return acc + part })
	}
	for _, grain := range []int{1, 97, 1024, n} {
		ref := sum(1, grain)
		for _, p := range []int{2, 3, 8, 0} {
			if got := sum(p, grain); got != ref {
				t.Fatalf("grain=%d p=%d: sum %v differs from serial %v", grain, p, got, ref)
			}
		}
	}
}

// TestMapReduceChunkFoldOrder verifies ascending-chunk fold order and the
// fixed chunk layout.
func TestMapReduceChunkFoldOrder(t *testing.T) {
	for _, p := range []int{1, 4, 0} {
		got := MapReduceChunk(p, 100, 16, []int(nil),
			func(lo, hi int) []int { return []int{lo, hi} },
			func(acc, part []int) []int { return append(acc, part...) })
		want := (100 + 15) / 16
		if len(got) != 2*want {
			t.Fatalf("p=%d: %d chunks, want %d", p, len(got)/2, want)
		}
		for c := 0; c < want; c++ {
			lo, hi := got[2*c], got[2*c+1]
			if lo != c*16 || hi != min(lo+16, 100) {
				t.Fatalf("p=%d: chunk %d spans [%d,%d)", p, c, lo, hi)
			}
		}
	}
}

func TestMapReduceChunkEmpty(t *testing.T) {
	got := MapReduceChunk(4, 0, 8, 42,
		func(lo, hi int) int { t.Fatal("mapFn called on empty range"); return 0 },
		func(acc, part int) int { return acc + part })
	if got != 42 {
		t.Errorf("empty MapReduceChunk = %d, want zero value 42", got)
	}
}

// TestMapReduceChunkOrder verifies partials are folded in ascending chunk
// order even when workers finish them out of order: chunk 0 completes
// only after the last chunk has.
func TestMapReduceChunkOrder(t *testing.T) {
	n, grain, p := 100, 10, 4
	last := make(chan struct{})
	got := MapReduceChunk(p, n, grain, []int(nil),
		func(lo, hi int) []int {
			switch {
			case lo == 0:
				select {
				case <-last:
				case <-time.After(10 * time.Second):
					t.Error("last chunk never ran while chunk 0 was in flight")
				}
			case hi == n:
				close(last)
			}
			return []int{lo}
		},
		func(acc, part []int) []int { return append(acc, part...) })
	if len(got) != n/grain {
		t.Fatalf("got %d chunks, want %d", len(got), n/grain)
	}
	for i := range got {
		if got[i] != i*grain {
			t.Fatalf("chunk lows not folded in ascending order: %v", got)
		}
	}
}
