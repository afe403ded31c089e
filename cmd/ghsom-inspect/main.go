// Command ghsom-inspect prints the structure of a trained pipeline: the
// hierarchy tree, per-depth statistics, the root map's U-matrix and unit
// labels, and the detector's label distribution.
//
// Usage:
//
//	ghsom-inspect -model model.bin
//	ghsom-inspect -model model.bin -node 3    # U-matrix of one node
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ghsom"
	"ghsom/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ghsom-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ghsom-inspect", flag.ContinueOnError)
	modelPath := fs.String("model", "model.bin", "trained pipeline file")
	nodeID := fs.Int("node", 0, "node whose U-matrix to render")
	useMmap := fs.Bool("mmap", false, "mmap the model file instead of heap-loading it")
	if err := fs.Parse(args); err != nil {
		return err
	}

	pipe, err := ghsom.LoadPipelineFile(*modelPath, *useMmap)
	if err != nil {
		return err
	}
	defer pipe.Close()
	model := pipe.Model()
	st := model.Stats()
	compiled := pipe.Compiled()
	cst := compiled.Stats()

	fmt.Printf("model: %s\n", st)
	fmt.Printf("tau1=%.3f tau2=%.3f maxDepth=%d seed=%d\n",
		model.Config().Tau1, model.Config().Tau2, model.Config().MaxDepth, model.Config().Seed)
	fmt.Printf("envelope: v%d (binary)\n", pipe.EnvelopeVersion())
	residency := "heap"
	if pipe.MappedBytes() > 0 {
		residency = fmt.Sprintf("mmap, %s page-cache shared", humanBytes(pipe.MappedBytes()))
	}
	fmt.Printf("compiled: nodes=%d units=%d leaf-units=%d arena=%s tables=%s norm-cache=%s residency=%s\n\n",
		cst.Maps, cst.Units, cst.LeafUnits,
		humanBytes(compiled.ArenaBytes()), humanBytes(compiled.TableBytes()),
		humanBytes(compiled.NormBytes()), residency)

	fmt.Println("per-depth structure (tree | compiled):")
	rows := make([][]string, 0, len(st.MapsPerDepth))
	for d := range st.MapsPerDepth {
		cMaps, cUnits := 0, 0
		if d < len(cst.MapsPerDepth) {
			cMaps, cUnits = cst.MapsPerDepth[d], cst.UnitsPerDepth[d]
		}
		rows = append(rows, []string{
			fmt.Sprint(d + 1),
			fmt.Sprint(st.MapsPerDepth[d]),
			fmt.Sprint(st.UnitsPerDepth[d]),
			fmt.Sprint(cMaps),
			fmt.Sprint(cUnits),
		})
	}
	fmt.Print(viz.Table([]string{"depth", "maps", "units", "c-maps", "c-units"}, rows))

	fmt.Println("\nBMU engine GEMM blocks per level (units×dim per node):")
	brows := make([][]string, 0, 4)
	for _, b := range compiled.BlockShapes() {
		shape := fmt.Sprintf("%d×%d", b.MinUnits, b.Dim)
		if b.MaxUnits != b.MinUnits {
			shape = fmt.Sprintf("%d–%d×%d", b.MinUnits, b.MaxUnits, b.Dim)
		}
		brows = append(brows, []string{
			fmt.Sprint(b.Depth),
			fmt.Sprint(b.Nodes),
			shape,
			humanBytes(b.WeightBytes),
		})
	}
	fmt.Print(viz.Table([]string{"depth", "nodes", "block", "weights"}, brows))

	fmt.Println("\nhierarchy:")
	fmt.Print(model.TreeString())

	node := model.Node(*nodeID)
	if node == nil {
		return fmt.Errorf("node %d does not exist (model has %d nodes)", *nodeID, len(model.Nodes()))
	}
	fmt.Printf("\nnode %d (%dx%d, depth %d) U-matrix:\n", node.ID, node.Map.Rows(), node.Map.Cols(), node.Depth)
	fmt.Print(viz.Heatmap(node.Map.UMatrix()))

	fmt.Println("\ndetector cells per predicted label:")
	dist := pipe.Detector().LabelDistribution()
	labels := make([]string, 0, len(dist))
	for l := range dist {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return dist[labels[i]] > dist[labels[j]] })
	lrows := make([][]string, 0, len(labels))
	for _, l := range labels {
		lrows = append(lrows, []string{l, fmt.Sprint(dist[l])})
	}
	fmt.Print(viz.Table([]string{"label", "cells"}, lrows))
	return nil
}

// humanBytes renders a byte count with a binary unit prefix.
func humanBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
