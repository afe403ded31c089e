package preprocess

import (
	"fmt"
	"math/rand"
)

// Split holds index sets for a train/test partition of a dataset.
type Split struct {
	// Train and Test are row indices into the original dataset.
	Train, Test []int
}

// StratifiedSplit partitions indices 0..n-1 into train and test sets,
// preserving the per-key proportions given by keys (len(keys) == n). Each
// stratum contributes ~trainFrac of its rows to the train set; strata with
// a single row go to the train set. The split is deterministic for a given
// rng state.
func StratifiedSplit(keys []string, trainFrac float64, rng *rand.Rand) (Split, error) {
	if len(keys) == 0 {
		return Split{}, ErrNoData
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		return Split{}, fmt.Errorf("preprocess: trainFrac %v outside (0, 1)", trainFrac)
	}
	byKey := make(map[string][]int)
	order := make([]string, 0) // first-appearance order for determinism
	for i, k := range keys {
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var sp Split
	for _, k := range order {
		idx := byKey[k]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTrain := int(float64(len(idx))*trainFrac + 0.5)
		if nTrain == 0 {
			nTrain = 1
		}
		if nTrain > len(idx) {
			nTrain = len(idx)
		}
		sp.Train = append(sp.Train, idx[:nTrain]...)
		sp.Test = append(sp.Test, idx[nTrain:]...)
	}
	return sp, nil
}

// Gather returns the rows of data selected by idx, sharing row storage.
func Gather(data [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = data[j]
	}
	return out
}

// CapPerKey limits the number of indices per key to at most cap,
// preserving relative order within each key. It is used to downsample the
// dominant DoS classes so low-volume classes are not drowned during
// training (the standard KDD-99 rebalancing step).
func CapPerKey(keys []string, maxPer int, rng *rand.Rand) []int {
	if maxPer <= 0 {
		return nil
	}
	byKey := make(map[string][]int)
	order := make([]string, 0)
	for i, k := range keys {
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var out []int
	for _, k := range order {
		idx := byKey[k]
		if len(idx) > maxPer {
			rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			idx = idx[:maxPer]
		}
		out = append(out, idx...)
	}
	return out
}
