package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ghsom/internal/vecmath"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	data := fourBlobs(40, 80)
	cfg := quickConfig()
	cfg.Tau1 = 0.5
	cfg.Tau2 = 0.02
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Dim() != g.Dim() {
		t.Errorf("dim %d != %d", g2.Dim(), g.Dim())
	}
	if g2.MQE0() != g.MQE0() {
		t.Errorf("mqe0 %v != %v", g2.MQE0(), g.MQE0())
	}
	if !vecmath.Equal(g2.Mean(), g.Mean(), 0) {
		t.Error("mean differs")
	}
	if len(g2.Nodes()) != len(g.Nodes()) {
		t.Fatalf("node count %d != %d", len(g2.Nodes()), len(g.Nodes()))
	}
	for i := range g.Nodes() {
		n1, n2 := g.Nodes()[i], g2.Nodes()[i]
		if n1.Depth != n2.Depth || n1.ParentUnit != n2.ParentUnit {
			t.Errorf("node %d metadata differs", i)
		}
		if n1.Map.Rows() != n2.Map.Rows() || n1.Map.Cols() != n2.Map.Cols() {
			t.Errorf("node %d shape differs", i)
		}
		for u := 0; u < n1.Map.Units(); u++ {
			if !vecmath.Equal(n1.Map.Weight(u), n2.Map.Weight(u), 0) {
				t.Errorf("node %d unit %d weight differs", i, u)
			}
		}
		if len(n1.Children) != len(n2.Children) {
			t.Errorf("node %d children count differs", i)
		}
		for u, c1 := range n1.Children {
			c2, ok := n2.Children[u]
			if !ok || c1.ID != c2.ID {
				t.Errorf("node %d child at unit %d differs", i, u)
			}
		}
	}
}

func TestRoutingIdenticalAfterRoundTrip(t *testing.T) {
	data := fourBlobs(41, 80)
	cfg := quickConfig()
	cfg.Tau2 = 0.02
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		x := []float64{rng.NormFloat64() * 15, rng.NormFloat64() * 15}
		p1, p2 := g.Route(x), g2.Route(x)
		if p1 != p2 {
			t.Fatalf("placement differs after round trip: %+v vs %+v", p1, p2)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"not json", "this is not json"},
		{"empty object", "{}"},
		{"wrong version", `{"version":999,"dim":2,"nodes":[{"id":0,"rows":2,"cols":2,"weights":[]}]}`},
		{"no nodes", `{"version":1,"dim":2,"nodes":[]}`},
		{"bad dim", `{"version":1,"dim":0,"nodes":[{"id":0}]}`},
		{"weight count mismatch", `{"version":1,"dim":2,"nodes":[{"id":0,"parentId":-1,"rows":2,"cols":2,"weights":[1,2,3]}]}`},
		{"out of order ids", `{"version":1,"dim":1,"nodes":[{"id":5,"parentId":-1,"rows":1,"cols":1,"weights":[1]}]}`},
		{"dangling child", `{"version":1,"dim":1,"nodes":[{"id":0,"parentId":-1,"rows":1,"cols":1,"weights":[1],"children":{"0":9}}]}`},
		{"child unit out of range", `{"version":1,"dim":1,"nodes":[{"id":0,"parentId":-1,"rows":1,"cols":1,"weights":[1],"children":{"7":0}}]}`},
		{"no root", `{"version":1,"dim":1,"nodes":[{"id":0,"parentId":0,"rows":1,"cols":1,"weights":[1]}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.in)); err == nil {
				t.Error("Load accepted malformed input")
			}
		})
	}
}

func TestSaveLoadPreservesConfig(t *testing.T) {
	data := fourBlobs(43, 40)
	cfg := quickConfig()
	cfg.Tau1 = 0.42
	cfg.Tau2 = 0.077
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Config().Tau1 != 0.42 || g2.Config().Tau2 != 0.077 {
		t.Errorf("config not preserved: %+v", g2.Config())
	}
}

// TestLoadRejectsNonBFSOrder pins the training-order invariant the
// compiled representation relies on: the root must be node 0 and every
// child must follow its parent. A hand-crafted envelope with the root at
// ID 1 would otherwise load "successfully" and then be misrouted by the
// compiled descent, which starts at node 0.
func TestLoadRejectsNonBFSOrder(t *testing.T) {
	// Root at node 1, child (depth-2 map) at node 0, cross-linked.
	rootAt1 := `{"version":1,"dim":1,"mean":[0],"nodes":[
		{"id":0,"depth":2,"parentId":1,"parentUnit":0,"rows":1,"cols":1,"weights":[0]},
		{"id":1,"depth":1,"parentId":-1,"parentUnit":-1,"rows":1,"cols":2,"weights":[0,1],
		 "children":{"0":0}}]}`
	if _, err := Load(strings.NewReader(rootAt1)); err == nil {
		t.Fatal("envelope with root at node 1 accepted")
	} else if !strings.Contains(err.Error(), "root") && !strings.Contains(err.Error(), "BFS") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Root correctly at 0 but referencing an earlier... itself is caught
	// elsewhere; a child id equal to its parent's must be rejected by the
	// BFS-order check.
	selfChild := `{"version":1,"dim":1,"mean":[0],"nodes":[
		{"id":0,"depth":1,"parentId":-1,"parentUnit":-1,"rows":1,"cols":2,"weights":[0,1],
		 "children":{"0":0}}]}`
	if _, err := Load(strings.NewReader(selfChild)); err == nil {
		t.Fatal("envelope with self-child accepted")
	}
}

// TestReadCompiledBinaryHugeClaimTinyBody pins the memory-safety contract
// of the binary loader: a few hundred bytes of headers claiming a
// near-cap model (16 maps of 1024x1024 units) must fail on the missing
// payload having allocated less than 1 MiB, not the claimed tables.
func TestReadCompiledBinaryHugeClaimTinyBody(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("GHSOMCB1")
	le := binary.LittleEndian
	cfgJSON, err := json.Marshal(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	binary.Write(&b, le, uint32(len(cfgJSON)))
	b.Write(cfgJSON)
	binary.Write(&b, le, uint32(8))  // dim
	binary.Write(&b, le, float64(1)) // mqe0
	for i := 0; i < 8; i++ {
		binary.Write(&b, le, float64(0)) // mean
	}
	binary.Write(&b, le, uint32(16)) // node count
	for i := 0; i < 16; i++ {
		parent := int32(-1)
		if i > 0 {
			parent = 0
		}
		binary.Write(&b, le, [4]int32{parent, int32(i), 1024, 1024})
	}
	// No payload tables follow: 16 Mi units were claimed by ~300 bytes.
	for _, zeroCopy := range []bool{false, true} {
		var err error
		alloc := allocatedBytes(func() { _, err = ReadCompiledBinaryBytes(b.Bytes(), zeroCopy) })
		if err == nil {
			t.Fatalf("zeroCopy=%v: header-only blob claiming 16Mi units accepted", zeroCopy)
		}
		if alloc >= 1<<20 {
			t.Fatalf("zeroCopy=%v: rejecting the blob allocated %d bytes, want < 1 MiB", zeroCopy, alloc)
		}
	}
}

// allocatedBytes reports how many heap bytes f allocates, as the
// runtime.MemStats TotalAlloc delta.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
