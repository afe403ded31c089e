package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEachChunkCtxNilCtx pins that a nil ctx is valid and never
// cancels.
func TestForEachChunkCtxNilCtx(t *testing.T) {
	var ran atomic.Int64
	err := ForEachChunk(nil, 4, 100, 10, func(w, lo, hi int) error {
		ran.Add(int64(hi - lo))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d indices, want 100", ran.Load())
	}
}

// TestForEachChunkCtxPreCanceled: an already-canceled ctx runs no chunks
// and reports ctx.Err().
func TestForEachChunkCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEachChunk(ctx, p, 1000, 10, func(w, lo, hi int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: err = %v, want Canceled", p, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("p=%d: %d chunks ran under pre-canceled ctx", p, ran.Load())
		}
	}
}

// TestForEachChunkCtxCancelMidway cancels from inside a chunk and checks
// the loop stops between chunks: started chunks complete, the tail is
// skipped, and ctx.Err() is returned.
func TestForEachChunkCtxCancelMidway(t *testing.T) {
	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n, grain = 1000, 10
		var ran atomic.Int64
		var completed atomic.Int64
		err := ForEachChunk(ctx, p, n, grain, func(w, lo, hi int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			completed.Add(1) // a started chunk always finishes
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: err = %v, want Canceled", p, err)
		}
		if c := completed.Load(); c >= n/grain {
			t.Fatalf("p=%d: all %d chunks ran despite cancellation", p, c)
		}
		if ran.Load() != completed.Load() {
			t.Fatalf("p=%d: %d started != %d completed (a chunk was cut mid-run)", p, ran.Load(), completed.Load())
		}
	}
}

// TestForEachChunkCtxLateCancel: cancellation that fires after every
// chunk completed must not fail the call — the computation is whole.
func TestForEachChunkCtxLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachChunk(ctx, 1, 100, 10, func(w, lo, hi int) error {
		ran.Add(1)
		return nil
	})
	cancel()
	if err != nil || ran.Load() != 10 {
		t.Fatalf("err=%v ran=%d, want nil and 10", err, ran.Load())
	}
}

// TestForEachChunkErrCtxLowestChunk checks first-error semantics: the
// error of the lowest failing chunk wins regardless of worker count.
func TestForEachChunkErrCtxLowestChunk(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		err := ForEachChunk(context.Background(), p, 100, 10, func(w, lo, hi int) error {
			if lo >= 30 {
				return fmt.Errorf("chunk at %d", lo)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk at 30" {
			t.Fatalf("p=%d: err = %v, want chunk at 30", p, err)
		}
	}
}

// TestForEachChunkErrCtxErrorBeatsCancel: when a chunk fails and the ctx
// is also canceled, the fn error is reported (the caller needs the root
// cause, not the cascade).
func TestForEachChunkErrCtxErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := ForEachChunk(ctx, 4, 100, 10, func(w, lo, hi int) error {
		if lo == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
