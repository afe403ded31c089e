package vecmath

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
)

func TestResolveTileFitsBudget(t *testing.T) {
	cases := []struct {
		dim, units, workers int
	}{
		{8, 4, 1}, {8, 256, 1}, {32, 64, 1}, {118, 256, 1},
		{118, 256, 8}, {1024, 4096, 1}, {1024, 4096, 16},
		{0, 0, 0}, {-3, -7, -1},
	}
	for _, c := range cases {
		tile := ResolveTile(c.dim, c.units, c.workers)
		rows := tile.Rows()
		if rows < minTileRows || rows > maxTileRows {
			t.Errorf("ResolveTile(%d, %d, %d) = %d rows, outside [%d, %d]",
				c.dim, c.units, c.workers, rows, minTileRows, maxTileRows)
		}
		if rows%4 != 0 {
			t.Errorf("ResolveTile(%d, %d, %d) = %d rows, not a multiple of 4",
				c.dim, c.units, c.workers, rows)
		}
	}
}

func TestResolveTileShrinksWhenShared(t *testing.T) {
	// At a shape where the budget binds (mid-size working set), concurrent
	// workers must get a tile no larger than a solo worker's.
	dim, units := 256, 1024
	solo := ResolveTile(dim, units, 1).Rows()
	shared := ResolveTile(dim, units, 8).Rows()
	if shared > solo {
		t.Errorf("shared tile %d rows > solo tile %d rows", shared, solo)
	}
	if solo == maxTileRows && shared == maxTileRows {
		t.Fatalf("shape does not exercise the budget: both clamped at max")
	}
}

func TestResolveTileTinyCodebookClampsToMax(t *testing.T) {
	if rows := ResolveTile(8, 4, 1).Rows(); rows != maxTileRows {
		t.Errorf("tiny codebook resolved %d rows, want max %d", rows, maxTileRows)
	}
}

func TestTileConfigZeroDefaults(t *testing.T) {
	var tile TileConfig
	if tile.Rows() != DefaultTileRows {
		t.Errorf("zero TileConfig rows = %d, want %d", tile.Rows(), DefaultTileRows)
	}
}

// TestBMUScratchMatchesPackageForm verifies the scratch-owning method form
// is bit-identical to the package-level pooled form at several tile
// shapes, including extremes of the clamp range.
func TestBMUScratchMatchesPackageForm(t *testing.T) {
	const n, dim, units = 300, 24, 96
	x, flat, norms := benchBMUData(dim, units, n)
	refIdx := make([]int, n)
	refDist := make([]float64, n)
	ArgMinDistanceBatch(x, flat, norms, refIdx, refDist)
	for _, rows := range []int{minTileRows, DefaultTileRows, maxTileRows, 1, n + 7} {
		sc := &BMUScratch{Tile: TileConfig{RecRows: rows}}
		idx := make([]int, n)
		dist := make([]float64, n)
		for _, xNorms := range [][]float64{nil, recordNorms(x)} {
			sc.ArgMinDistanceBatch(x, xNorms, flat, norms, idx, dist)
			for i := range idx {
				if idx[i] != refIdx[i] || dist[i] != refDist[i] {
					t.Fatalf("rows=%d recordNorms=%v row %d: (%d, %v) != ref (%d, %v)",
						rows, xNorms != nil, i, idx[i], dist[i], refIdx[i], refDist[i])
				}
			}
		}
	}
}

// TestNormCacheConcurrentSync hammers one NormCache from many goroutines
// mixing same-version reads with version bumps; under -race this proves
// the snapshot design is data-race-free, and every returned table must be
// internally consistent (matching its version's data).
func TestNormCacheConcurrentSync(t *testing.T) {
	const dim, units, goroutines, iters = 4, 32, 8, 2000
	var c NormCache
	arenas := make([][]float64, 4)
	for v := range arenas {
		arenas[v] = make([]float64, units*dim)
		for i := range arenas[v] {
			arenas[v][i] = float64(v + 1)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				v := rng.Intn(len(arenas))
				norms := c.Sync(arenas[v], dim, uint64(v))
				want := float64(dim) * float64(v+1) * float64(v+1)
				for u := 0; u < units; u++ {
					if norms[u] != want {
						errs <- fmt.Sprintf("version %d: norms[%d] = %v, want %v", v, u, norms[u], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestBMUHotPathMutexFree is the lock-freedom assertion of the scaling
// engine: with mutex profiling fully enabled, concurrent steady-state BMU
// searches over a shared codebook (scratch-owning form, warm norm cache —
// exactly the per-worker dataplane configuration) must record zero mutex
// contention events inside this package. The former design took
// Map.normMu around NormCache.Sync on every batch; the atomic-snapshot
// cache and per-worker scratches leave nothing to contend on.
func TestBMUHotPathMutexFree(t *testing.T) {
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	const n, dim, units, goroutines, iters = 512, 32, 256, 8, 50
	x, flat, _ := benchBMUData(dim, units, n)
	var cache NormCache
	tile := ResolveTile(dim, units, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &BMUScratch{Tile: tile}
			idx := make([]int, n)
			dist := make([]float64, n)
			for i := 0; i < iters; i++ {
				norms := cache.Sync(flat, dim, 1)
				sc.ArgMinDistanceBatch(x, nil, flat, norms, idx, dist)
			}
		}()
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatalf("mutex profile: %v", err)
	}
	if profile := buf.String(); strings.Contains(profile, "internal/vecmath") {
		t.Errorf("mutex contention recorded inside vecmath:\n%s", profile)
	}
}

// BenchmarkNormCacheSyncParallel measures the steady-state (warm,
// same-version) norm-cache read under maximum goroutine pressure — the
// path that previously serialized on Map.normMu.
func BenchmarkNormCacheSyncParallel(b *testing.B) {
	const dim, units = 32, 256
	flat := make([]float64, units*dim)
	for i := range flat {
		flat[i] = float64(i%7) * 0.25
	}
	var c NormCache
	c.Sync(flat, dim, 1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if norms := c.Sync(flat, dim, 1); len(norms) != units {
				b.Fatal("bad norms")
			}
		}
	})
}
