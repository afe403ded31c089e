// Command ghsom-train trains a GHSOM detection pipeline on a
// kddcup.data-format CSV (real or generated by trafficgen) and writes the
// trained pipeline as a binary v3 envelope.
//
// Usage:
//
//	ghsom-train -in train.csv -model model.bin -tau1 0.6 -tau2 0.03
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ghsom"
	"ghsom/internal/kdd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ghsom-train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ghsom-train", flag.ContinueOnError)
	in := fs.String("in", "", "training CSV in kddcup.data format (required)")
	out := fs.String("model", "model.bin", "output model file")
	tau1 := fs.Float64("tau1", 0.6, "GHSOM breadth parameter")
	tau2 := fs.Float64("tau2", 0.03, "GHSOM depth parameter")
	maxDepth := fs.Int("max-depth", 4, "maximum hierarchy depth")
	seed := fs.Int64("seed", 1, "training seed")
	batch := fs.Bool("batch", true, "use the deterministic batch training rule (-batch=false selects online)")
	capPerLabel := fs.Int("cap", 3000, "per-label training cap (0 = off)")
	par := fs.Int("parallelism", 0, "training worker bound (0 = GOMAXPROCS, 1 = serial; results identical)")
	quiet := fs.Bool("quiet", false, "suppress the structure report")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the training run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after training to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	records, err := kdd.ReadAll(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("no records in %s", *in)
	}

	cfg := ghsom.DefaultPipelineConfig()
	cfg.Model.Tau1 = *tau1
	cfg.Model.Tau2 = *tau2
	cfg.Model.MaxDepth = *maxDepth
	cfg.Model.Seed = *seed
	cfg.Model.Batch = *batch
	cfg.TrainCapPerLabel = *capPerLabel
	cfg.Seed = *seed
	cfg.Parallelism = *par
	cfg.Model.Parallelism = *par
	cfg.Detector.Parallelism = *par

	pipe, err := ghsom.TrainPipeline(records, cfg)
	if err != nil {
		return err
	}
	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer mf.Close()
		runtime.GC() // materialize the post-training live set
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}

	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer of.Close()
	if err := pipe.Save(of); err != nil {
		return err
	}

	if !*quiet {
		st := pipe.Model().Stats()
		fmt.Fprintf(os.Stderr, "trained on %d records: %s\n", len(records), st)
		fmt.Fprint(os.Stderr, pipe.Model().TreeString())
	}
	fmt.Fprintf(os.Stderr, "model written to %s\n", *out)
	return nil
}
