package main

import (
	"os"
	"path/filepath"
	"testing"

	"ghsom"
	"ghsom/internal/kdd"
	"ghsom/internal/trafficgen"
)

// writeTrace generates a small labeled trace CSV for CLI tests.
func writeTrace(t *testing.T, seed int64) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration test; skipped with -short")
	}
	records, err := trafficgen.Generate(trafficgen.Small(seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := kdd.WriteAll(f, records); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTrainsAndSaves(t *testing.T) {
	in := writeTrace(t, 51)
	model := filepath.Join(t.TempDir(), "model.bin")
	err := run([]string{"-in", in, "-model", model, "-quiet",
		"-tau1", "0.7", "-tau2", "0.1", "-max-depth", "2"})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	pipe, err := ghsom.LoadPipeline(mf)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Model().Config().Tau1 != 0.7 {
		t.Errorf("tau1 = %v", pipe.Model().Config().Tau1)
	}
	if pipe.Model().Stats().MaxDepth > 2 {
		t.Errorf("depth = %d", pipe.Model().Stats().MaxDepth)
	}
}

func TestRunRequiresInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -in accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"-in", "/nonexistent/x.csv"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path}); err == nil {
		t.Error("empty file accepted")
	}
}
