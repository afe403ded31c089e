package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenMappingRoundTrip(t *testing.T) {
	c := trainedCompiled(t, 60)
	var buf bytes.Buffer
	if err := c.WriteBinaryAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.cb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapping(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !bytes.Equal(m.Bytes(), buf.Bytes()) {
		t.Fatal("mapping bytes differ from file contents")
	}
	if m.Len() != buf.Len() {
		t.Fatalf("Len = %d, want %d", m.Len(), buf.Len())
	}
	loaded, err := ReadCompiledBinaryBytes(m.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	if m.mmap && loaded.MappedBytes() == 0 {
		t.Fatal("aligned blob over a real mmap did not zero-copy")
	}
	routesIdentical(t, c, loaded, 61)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

func TestOpenMappingMissingAndEmpty(t *testing.T) {
	if _, err := OpenMapping(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file mapped")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapping(empty)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("empty file mapped to %d bytes", m.Len())
	}
	m.Close()
}
