package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// modelBytes is a model's compiled blob: the bytes a saved pipeline
// carries for it (config, mean, mqe0, every node's parent link, parent
// unit and shape, the counts, unitQE and weight arena). Tests compare it
// to pin "same model".
func modelBytes(t testing.TB, g *GHSOM) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Compile(g).WriteBinaryAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawBlob hand-assembles a compiled blob of dimension dim from node
// headers {parent, parentUnit, rows, cols}, with a valid config, zero
// mean and mqe0, and zeroed counts, unitQE and arena tables sized for the
// declared units; arenaDelta adds (or, negative, drops) arena floats.
func rawBlob(t testing.TB, dim int, nodes [][4]int32, arenaDelta int) []byte {
	t.Helper()
	cfgJSON, err := json.Marshal(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	b := append([]byte(nil), compiledMagic[:]...)
	b = le.AppendUint32(b, uint32(len(cfgJSON)))
	b = append(b, cfgJSON...)
	b = le.AppendUint32(b, uint32(dim))
	b = append(b, make([]byte, 8+8*dim)...) // mqe0, mean
	b = le.AppendUint32(b, uint32(len(nodes)))
	units := 0
	for _, n := range nodes {
		for _, v := range n {
			b = le.AppendUint32(b, uint32(v))
		}
		units += int(n[2] * n[3])
	}
	return append(b, make([]byte, 16*units+8*(units*dim+arenaDelta))...)
}

// alignedCopyAt places blob into an 8-aligned backing buffer so that the
// returned slice's base address has the same (mod 8) residue as file
// offset blobOff in a page-aligned mapping — letting tests reproduce any
// file-offset alignment deterministically on the heap.
func alignedCopyAt(blob []byte, blobOff int) []byte {
	backing := make([]float64, (blobOff+len(blob))/8+2)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(backing)*8)
	misalign := blobOff % 8
	copy(raw[misalign:], blob)
	return raw[misalign : misalign+len(blob)]
}

// routesIdentical routes n random vectors through both models and
// requires bit-identical placements from every routing entry point.
func routesIdentical(t *testing.T, a, b *Compiled, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 200
	flat := make([]float64, n*a.dim)
	for i := range flat {
		flat[i] = rng.Float64() * 12
	}
	for i := 0; i < n; i++ {
		x := flat[i*a.dim : (i+1)*a.dim]
		pa, pb := a.Route(x), b.Route(x)
		if pa != pb && !(math.IsNaN(pa.QE) && math.IsNaN(pb.QE)) {
			t.Fatalf("Route diverged at %d: %+v vs %+v", i, pa, pb)
		}
		ta, tb := a.RouteTrained(x), b.RouteTrained(x)
		if ta != tb && !(math.IsNaN(ta.QE) && math.IsNaN(tb.QE)) {
			t.Fatalf("RouteTrained diverged at %d: %+v vs %+v", i, ta, tb)
		}
	}
	for _, par := range []int{1, 0} {
		oa := make([]Placement, n)
		ob := make([]Placement, n)
		if err := a.RouteTrainedFlat(flat, n, oa, par); err != nil {
			t.Fatal(err)
		}
		if err := b.RouteTrainedFlat(flat, n, ob, par); err != nil {
			t.Fatal(err)
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("RouteTrainedFlat(par=%d) diverged at %d: %+v vs %+v", par, i, oa[i], ob[i])
			}
		}
	}
}

func trainedCompiled(t testing.TB, seed int64) *Compiled {
	t.Helper()
	cfg := quickConfig()
	cfg.Tau1 = 0.5
	cfg.Tau2 = 0.02
	g, err := Train(fourBlobs(seed, 60), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Compile(g)
}

func TestWriteBinaryAtZeroCopyViews(t *testing.T) {
	c := trainedCompiled(t, 52)
	// Every file offset residue must produce an aligned, viewable blob.
	for blobOff := 0; blobOff < 16; blobOff++ {
		var buf bytes.Buffer
		if err := c.WriteBinaryAt(&buf, int64(blobOff)); err != nil {
			t.Fatal(err)
		}
		data := alignedCopyAt(buf.Bytes(), blobOff)
		m, err := ReadCompiledBinaryBytes(data, true)
		if err != nil {
			t.Fatalf("blobOff %d: %v", blobOff, err)
		}
		if m.MappedBytes() == 0 {
			t.Fatalf("blobOff %d: aligned blob did not zero-copy", blobOff)
		}
		wantMapped := len(m.counts)*16 + len(m.arena)*8
		if m.MappedBytes() != wantMapped {
			t.Fatalf("blobOff %d: MappedBytes = %d, want %d", blobOff, m.MappedBytes(), wantMapped)
		}
		// The arena must alias data, not a heap copy.
		if &data[len(data)-8] != (*byte)(unsafe.Pointer(&m.arena[len(m.arena)-1])) {
			t.Fatalf("blobOff %d: arena does not alias the source buffer", blobOff)
		}
		routesIdentical(t, c, m, int64(100+blobOff))
	}
}

func TestReadCompiledBinaryBytesLegacyUnaligned(t *testing.T) {
	c := trainedCompiled(t, 53)
	// A blob padded for file offset 3 stands in for one written without
	// alignment padding: at any other base residue its tables are
	// misaligned.
	const blobOff = 3
	var buf bytes.Buffer
	if err := c.WriteBinaryAt(&buf, blobOff); err != nil {
		t.Fatal(err)
	}
	// Sweep base residues: whatever the alignment lands on, the load must
	// succeed, viewing the tables only where they are aligned and falling
	// back to copies elsewhere.
	for off := 0; off < 8; off++ {
		m, err := ReadCompiledBinaryBytes(alignedCopyAt(buf.Bytes(), off), true)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if viewed := m.MappedBytes() > 0; viewed != (off == blobOff) {
			t.Fatalf("offset %d: MappedBytes = %d, want views only at offset %d", off, m.MappedBytes(), blobOff)
		}
		routesIdentical(t, c, m, int64(200+off))
	}
}

func TestReadCompiledBinaryBytesRejectsCorrupt(t *testing.T) {
	c := trainedCompiled(t, 54)
	var buf bytes.Buffer
	if err := c.WriteBinaryAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := ReadCompiledBinaryBytes(blob[:cut], true); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ReadCompiledBinaryBytes(append(bytes.Clone(blob), 0), true); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatal("trailing byte accepted")
	}
	bad := bytes.Clone(blob)
	bad[0] = 'X'
	if _, err := ReadCompiledBinaryBytes(bad, true); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// FuzzReadCompiledBinaryBytes asserts that arbitrary bytes never panic
// the zero-copy reader over its input as given (at whatever alignment
// the buffer lands), and that reader and writer agree: whatever the
// reader accepts, WriteBinaryAt re-serializes to a blob that loads again
// and routes identically, and the same input with one byte appended is
// rejected as trailing.
func FuzzReadCompiledBinaryBytes(f *testing.F) {
	c := trainedCompiled(f, 55)
	var buf bytes.Buffer
	if err := c.WriteBinaryAt(&buf, 0); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GHSOMCB1"))
	f.Add([]byte(""))
	mut := bytes.Clone(valid)
	if len(mut) > 32 {
		mut[12] ^= 0xff
		mut[28] ^= 0x01
	}
	f.Add(mut)
	// Written for an odd file offset, so its tables sit unaligned at the
	// start of a buffer and zero-copy must fall back.
	var odd bytes.Buffer
	if err := c.WriteBinaryAt(&odd, 3); err != nil {
		f.Fatal(err)
	}
	f.Add(odd.Bytes())
	f.Add(append(bytes.Clone(valid), 0, 0, 0, 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ReadCompiledBinaryBytes(in, true)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := m.WriteBinaryAt(&again, 0); err != nil {
			t.Fatalf("accepted blob does not re-serialize: %v", err)
		}
		back, err := ReadCompiledBinaryBytes(again.Bytes(), false)
		if err != nil {
			t.Fatalf("re-serialized blob rejected: %v", err)
		}
		rng := rand.New(rand.NewSource(1))
		x := make([]float64, m.Dim())
		for row := 0; row < 4; row++ {
			for i := range x {
				x[i] = rng.Float64() * 4
			}
			a, b := m.RouteTrained(x), back.RouteTrained(x)
			if !placementsBitIdentical(a, b) {
				t.Fatalf("row %d: loaded %+v vs re-serialized %+v", row, a, b)
			}
		}
		if _, err := ReadCompiledBinaryBytes(append(bytes.Clone(in), 0), true); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Fatalf("input plus one byte: got %v, want a trailing-bytes error", err)
		}
	})
}

// TestLoadRejectsGarbage feeds the compiled-blob reader malformed
// inputs, from non-blobs to structurally broken hierarchies; each must
// be rejected in both residency modes. The well-formed control blob the
// structural cases are derived from must load.
func TestLoadRejectsGarbage(t *testing.T) {
	root2 := [4]int32{-1, -1, 1, 2}
	if _, err := ReadCompiledBinaryBytes(rawBlob(t, 2, [][4]int32{root2, {0, 1, 1, 1}}, 0), false); err != nil {
		t.Fatalf("control blob rejected: %v", err)
	}
	wrongVersion := rawBlob(t, 2, [][4]int32{root2}, 0)
	wrongVersion[7] = '9'
	negCount := rawBlob(t, 1, [][4]int32{root2}, 0)
	binary.LittleEndian.PutUint64(negCount[len(negCount)-6*8:], math.MaxUint64)
	tests := []struct {
		name string
		in   []byte
	}{
		{"not json", []byte("this is not json")},
		{"empty object", []byte("{}")},
		{"wrong version", wrongVersion},
		{"no nodes", rawBlob(t, 2, nil, 0)},
		{"bad dim", rawBlob(t, 0, [][4]int32{root2}, 0)},
		{"bad shape", rawBlob(t, 2, [][4]int32{{-1, -1, 0, 2}}, 0)},
		{"weight count mismatch", rawBlob(t, 2, [][4]int32{root2}, -1)},
		{"out of order ids", rawBlob(t, 1, [][4]int32{{1, 0, 1, 1}, root2}, 0)},
		{"dangling child", rawBlob(t, 1, [][4]int32{root2, {9, 0, 1, 1}}, 0)},
		{"child unit out of range", rawBlob(t, 1, [][4]int32{root2, {0, 7, 1, 1}}, 0)},
		{"unit expanded twice", rawBlob(t, 1, [][4]int32{root2, {0, 0, 1, 1}, {0, 0, 1, 1}}, 0)},
		{"no root", rawBlob(t, 1, [][4]int32{{0, 0, 1, 1}}, 0)},
		{"negative count", negCount},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, zeroCopy := range []bool{false, true} {
				if _, err := ReadCompiledBinaryBytes(tt.in, zeroCopy); err == nil {
					t.Errorf("zeroCopy=%v: malformed blob accepted", zeroCopy)
				}
			}
		})
	}
}

// TestLoadRejectsNonBFSOrder pins the training-order invariant the
// compiled representation relies on: the root must be node 0 and every
// node's parent must precede it. A blob with the root at node 1 would
// otherwise be misrouted by the compiled descent, which starts at node 0.
func TestLoadRejectsNonBFSOrder(t *testing.T) {
	cases := map[string][][4]int32{
		// Root at node 1, its child (depth-2 map) stored first.
		"root at 1":           {{1, 0, 1, 1}, {-1, -1, 1, 2}},
		"self child":          {{-1, -1, 1, 2}, {1, 0, 1, 1}},
		"child before parent": {{-1, -1, 1, 2}, {2, 0, 1, 1}, {0, 1, 1, 1}},
	}
	for name, nodes := range cases {
		_, err := ReadCompiledBinaryBytes(rawBlob(t, 1, nodes, 0), false)
		if err == nil {
			t.Fatalf("%s: blob accepted", name)
		}
		if !strings.Contains(err.Error(), "parent") {
			t.Fatalf("%s: unexpected error: %v", name, err)
		}
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
