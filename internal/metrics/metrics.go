// Package metrics implements the detection-quality measures reported by
// the experiments: confusion matrices over arbitrary label sets, the
// binary detection measures of the IDS literature (detection rate, false
// positive rate, precision, F1, MCC), and ROC curves with AUC.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrLengthMismatch is returned when prediction and truth slices differ in
// length.
var ErrLengthMismatch = errors.New("metrics: prediction/truth length mismatch")

// Confusion is a confusion matrix over a dynamic label set.
type Confusion struct {
	labels []string
	index  map[string]int
	// counts[t][p] = number of records with truth t predicted as p.
	counts [][]int
	total  int
}

// NewConfusion returns an empty confusion matrix. Labels are added on
// first use, so callers need not pre-declare the label set; pass seed
// labels to fix report ordering.
func NewConfusion(seedLabels ...string) *Confusion {
	c := &Confusion{index: make(map[string]int)}
	for _, l := range seedLabels {
		c.labelIndex(l)
	}
	return c
}

func (c *Confusion) labelIndex(label string) int {
	if i, ok := c.index[label]; ok {
		return i
	}
	i := len(c.labels)
	c.labels = append(c.labels, label)
	c.index[label] = i
	for r := range c.counts {
		c.counts[r] = append(c.counts[r], 0)
	}
	c.counts = append(c.counts, make([]int, len(c.labels)))
	return i
}

// Add records one (truth, predicted) observation.
func (c *Confusion) Add(truth, predicted string) {
	t := c.labelIndex(truth)
	p := c.labelIndex(predicted)
	c.counts[t][p]++
	c.total++
}

// Labels returns the label set in first-use order.
func (c *Confusion) Labels() []string {
	out := make([]string, len(c.labels))
	copy(out, c.labels)
	return out
}

// Count returns counts[truth][predicted]; unknown labels yield 0.
func (c *Confusion) Count(truth, predicted string) int {
	t, ok := c.index[truth]
	if !ok {
		return 0
	}
	p, ok := c.index[predicted]
	if !ok {
		return 0
	}
	return c.counts[t][p]
}

// TruthTotal returns the number of observations whose truth is label.
func (c *Confusion) TruthTotal(label string) int {
	t, ok := c.index[label]
	if !ok {
		return 0
	}
	var n int
	for _, v := range c.counts[t] {
		n += v
	}
	return n
}

// Recall returns the per-class recall (diagonal / truth total) for label,
// NaN when the label never occurs as truth.
func (c *Confusion) Recall(label string) float64 {
	tt := c.TruthTotal(label)
	if tt == 0 {
		return math.NaN()
	}
	return float64(c.Count(label, label)) / float64(tt)
}

// String renders the matrix as an aligned table (truth rows, predicted
// columns).
func (c *Confusion) String() string {
	labels := c.Labels()
	sort.Strings(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "truth\\pred")
	for _, p := range labels {
		fmt.Fprintf(&b, "%10s", p)
	}
	b.WriteByte('\n')
	for _, t := range labels {
		fmt.Fprintf(&b, "%-12s", t)
		for _, p := range labels {
			fmt.Fprintf(&b, "%10d", c.Count(t, p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BinaryOutcome tallies the binary (attack vs normal) detection outcome.
type BinaryOutcome struct {
	// TP, FP, TN, FN are the four cells of the binary confusion matrix,
	// with "attack" as the positive class.
	TP, FP, TN, FN int
}

// AddBinary tallies one observation into the outcome.
func (o *BinaryOutcome) AddBinary(truthAttack, predictedAttack bool) {
	switch {
	case truthAttack && predictedAttack:
		o.TP++
	case truthAttack && !predictedAttack:
		o.FN++
	case !truthAttack && predictedAttack:
		o.FP++
	default:
		o.TN++
	}
}

// Total returns the number of observations.
func (o BinaryOutcome) Total() int { return o.TP + o.FP + o.TN + o.FN }

// DetectionRate returns TP/(TP+FN) — recall of the attack class, the
// headline IDS number. NaN with no positives.
func (o BinaryOutcome) DetectionRate() float64 {
	if o.TP+o.FN == 0 {
		return math.NaN()
	}
	return float64(o.TP) / float64(o.TP+o.FN)
}

// FalsePositiveRate returns FP/(FP+TN). NaN with no negatives.
func (o BinaryOutcome) FalsePositiveRate() float64 {
	if o.FP+o.TN == 0 {
		return math.NaN()
	}
	return float64(o.FP) / float64(o.FP+o.TN)
}

// Precision returns TP/(TP+FP). NaN with no positive predictions.
func (o BinaryOutcome) Precision() float64 {
	if o.TP+o.FP == 0 {
		return math.NaN()
	}
	return float64(o.TP) / float64(o.TP+o.FP)
}

// Accuracy returns (TP+TN)/total. NaN with no observations.
func (o BinaryOutcome) Accuracy() float64 {
	if o.Total() == 0 {
		return math.NaN()
	}
	return float64(o.TP+o.TN) / float64(o.Total())
}

// F1 returns the harmonic mean of precision and detection rate.
func (o BinaryOutcome) F1() float64 {
	p, r := o.Precision(), o.DetectionRate()
	if math.IsNaN(p) || math.IsNaN(r) || p+r == 0 {
		return math.NaN()
	}
	return 2 * p * r / (p + r)
}

// String renders the outcome as a single line.
func (o BinaryOutcome) String() string {
	return fmt.Sprintf("acc=%.4f dr=%.4f fpr=%.4f prec=%.4f f1=%.4f (tp=%d fp=%d tn=%d fn=%d)",
		o.Accuracy(), o.DetectionRate(), o.FalsePositiveRate(), o.Precision(), o.F1(),
		o.TP, o.FP, o.TN, o.FN)
}

// MCC returns the Matthews correlation coefficient of a binary outcome —
// the balanced single-number summary that stays meaningful under the
// heavy class skew of intrusion data. Returns 0 when any marginal is
// empty (the conventional limit).
func MCC(o BinaryOutcome) float64 {
	tp, fp, tn, fn := float64(o.TP), float64(o.FP), float64(o.TN), float64(o.FN)
	denom := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
	if denom == 0 {
		return 0
	}
	return (tp*tn - fp*fn) / denom
}
