// Topology explorer: train GHSOMs at several (tau1, tau2) settings and
// render what the parameters do to the hierarchy — map tree, U-matrix of
// the root map, and the per-unit majority labels. This is the
// interpretability story of the GHSOM: the structure itself shows the
// attack taxonomy.
//
// Run with:
//
//	go run ./examples/topology-explore
package main

import (
	"fmt"
	"log"

	"ghsom"
	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/kdd"
	"ghsom/internal/preprocess"
	"ghsom/internal/viz"
)

func main() {
	records, err := ghsom.GenerateTraffic(ghsom.SmallScenario(7))
	if err != nil {
		log.Fatal(err)
	}
	enc := kdd.NewEncoder(records, kdd.EncoderConfig{LogTransform: true})
	d := enc.Dim()
	flat := make([]float64, len(records)*d)
	if err := enc.EncodeBatch(records, flat); err != nil {
		log.Fatal(err)
	}
	// Row views over the flat matrix: the scaler fits on them, and the
	// in-place batch transform rescales them.
	data := make([][]float64, len(records))
	for i := range data {
		data[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	scaler := &preprocess.MinMaxScaler{}
	if err := scaler.Fit(data); err != nil {
		log.Fatal(err)
	}
	if err := scaler.TransformBatch(flat, d); err != nil {
		log.Fatal(err)
	}
	labels := kdd.Labels(records)

	for _, p := range []struct{ tau1, tau2 float64 }{
		{0.8, 0.1},  // shallow and coarse
		{0.6, 0.03}, // the paper's operating point
		{0.4, 0.01}, // wide and deep
	} {
		cfg := ghsom.DefaultModelConfig()
		cfg.Tau1, cfg.Tau2 = p.tau1, p.tau2
		model, err := ghsom.TrainModel(data, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== tau1=%.2f tau2=%.3f -> %s ===\n", p.tau1, p.tau2, model.Stats())
		fmt.Print(model.TreeString())

		// Per-unit majority labels on the root map: the class layout.
		root := model.Root()
		votes := make(map[int]map[string]int)
		for i, x := range data {
			bmu, _ := root.Map.BMU(x)
			if votes[bmu] == nil {
				votes[bmu] = make(map[string]int)
			}
			votes[bmu][kdd.CategoryOf(labels[i]).String()]++
		}
		unitLabels := make(map[int]string, len(votes))
		for u, v := range votes {
			best, bestN := ".", 0
			for l, n := range v {
				if n > bestN {
					best, bestN = l, n
				}
			}
			unitLabels[u] = best
		}
		fmt.Println("root-map unit majority categories:")
		fmt.Print(viz.LabelGrid(root.Map.Rows(), root.Map.Cols(), unitLabels))
		fmt.Println("root-map U-matrix (dark = cluster boundary):")
		fmt.Print(viz.Heatmap(root.Map.UMatrix()))
		fmt.Println()
	}

	// Show routing explanations for one attack of each category.
	cfg := ghsom.DefaultModelConfig()
	model, err := ghsom.TrainModel(data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	det, err := anomaly.Fit(anomaly.NewGHSOMQuantizer(core.Compile(model)), data, labels, anomaly.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== routing explanations ===")
	seen := make(map[string]bool)
	for i := range records {
		cat := records[i].Category().String()
		if seen[cat] {
			continue
		}
		seen[cat] = true
		path := model.Path(data[i])
		pred := det.Classify(data[i])
		fmt.Printf("%-8s (%s): path %v -> predicted %s (score %.2f)\n",
			cat, records[i].Label, path, pred.Label, pred.Score)
		if len(seen) == 5 {
			break
		}
	}
}
