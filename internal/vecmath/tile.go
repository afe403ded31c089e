package vecmath

// TileConfig is the resolved block shape of one BMU engine instance: how
// many record rows one tile spans — the rows whose nonzero lists the
// scratch builds at once for callers without a sparse form, and the
// chunk grain som's bmuView hands its workers. It is computed once at
// engine init (ResolveTile) from the codebook shape and the worker count
// that will share the cache. The tile NEVER affects results — the
// expanded form is only a candidate generator and every winner is
// settled with the canonical kernel — it only moves the compute/traffic
// balance, so autotuning is always safe.
type TileConfig struct {
	// RecRows is the record rows per tile. Zero means "unresolved"; the
	// engine falls back to DefaultTileRows.
	RecRows int
}

// Tile size bounds and defaults of the resolver.
const (
	// DefaultTileRows is the tile used when no TileConfig was resolved.
	DefaultTileRows = 32
	// minTileRows keeps enough rows per tile to amortize a worker's
	// chunk hand-off.
	minTileRows = 8
	// maxTileRows caps the rows per tile even for tiny codebooks, so a
	// worker's chunks stay small enough to balance.
	maxTileRows = 128
	// tileBudgetBytes is the per-worker cache budget the resolver fits
	// the tile working set into — record rows and their nonzero lists
	// (rows×dim), the per-row outputs (rows×units), and the codebook.
	// 256 KiB targets a private L2 share with room for the codebook.
	tileBudgetBytes = 256 << 10
	// tileSharedBudgetBytes is the budget when multiple workers run
	// concurrently: SMT siblings share L2 and all cores share L3, so each
	// worker plans for half the private budget rather than assuming the
	// whole cache to itself.
	tileSharedBudgetBytes = tileBudgetBytes / 2
)

// ResolveTile returns the tile for a dim-wide codebook of units rows
// searched by the given number of concurrent workers (values < 1 are
// treated as 1). The tile working set — rows×(dim+units) float64s — is
// fitted into a per-worker cache budget that shrinks when workers share
// the cache hierarchy, clamped to [8, 128] rows and rounded down to a
// multiple of 4.
func ResolveTile(dim, units, workers int) TileConfig {
	if dim < 1 {
		dim = 1
	}
	if units < 1 {
		units = 1
	}
	budget := tileBudgetBytes
	if workers > 1 {
		budget = tileSharedBudgetBytes
	}
	rows := budget / ((dim + units) * 8)
	if rows > maxTileRows {
		rows = maxTileRows
	}
	rows &^= 3 // multiple of 4
	if rows < minTileRows {
		rows = minTileRows
	}
	return TileConfig{RecRows: rows}
}

// Rows returns the configured tile rows, defaulting an unresolved config.
func (t TileConfig) Rows() int {
	if t.RecRows < 1 {
		return DefaultTileRows
	}
	return t.RecRows
}
