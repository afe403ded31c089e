package ghsom

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestEnvelopeV3RoundTripBitIdentical pins the binary envelope contract:
// Save → LoadPipeline → Save produces identical bytes, and the loaded
// pipeline classifies identically.
func TestEnvelopeV3RoundTripBitIdentical(t *testing.T) {
	recs := testRecords(t)
	pipe, err := TrainPipeline(recs, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pipe.EnvelopeVersion() != 3 {
		t.Fatalf("fresh pipeline envelope version = %d, want 3", pipe.EnvelopeVersion())
	}
	var first bytes.Buffer
	if err := pipe.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.EnvelopeVersion() != 3 {
		t.Fatalf("loaded envelope version = %d, want 3", loaded.EnvelopeVersion())
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("binary envelope round trip not bit-identical (%d vs %d bytes)",
			first.Len(), second.Len())
	}
	for i := 0; i < len(recs); i += 131 {
		p1, err := pipe.Detect(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := loaded.Detect(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("record %d verdict differs after v3 round trip: %+v vs %+v", i, p1, p2)
		}
	}
	// The rebuilt tree must also match the original structurally.
	if got, want := loaded.Model().Stats(), pipe.Model().Stats(); got.Maps != want.Maps ||
		got.Units != want.Units || got.MaxDepth != want.MaxDepth {
		t.Fatalf("rebuilt tree stats %+v, want %+v", got, want)
	}
}

// The legacy-format fixtures hold one small pipeline, frozen in the JSON
// envelope v2 (which is load-only now) and in the binary envelope v3.
// Both were written from the same trained pipeline: SmallScenario(5),
// first 600 records, quickPipelineConfig with MaxDepth 2 and
// TrainCapPerLabel 100.
const (
	fixtureV2 = "testdata/pipeline_v2.json"
	fixtureV3 = "testdata/pipeline_v3.bin"
)

func readFixture(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v1Envelope rewrites a v2 JSON envelope as version 1, without the v2
// config fields.
func v1Envelope(t testing.TB, v2 []byte) []byte {
	t.Helper()
	var env map[string]json.RawMessage
	if err := json.Unmarshal(v2, &env); err != nil {
		t.Fatal(err)
	}
	env["version"] = json.RawMessage("1")
	delete(env, "trainCapPerLabel")
	delete(env, "seed")
	delete(env, "parallelism")
	v1, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return v1
}

// fixtureVerdicts classifies the fixed evaluation set serially.
func fixtureVerdicts(t *testing.T, p *Pipeline) []Prediction {
	t.Helper()
	p.SetParallelism(1)
	out, err := p.DetectBatch(batchEvalRecords(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadPipelineVersion2JSONCompat verifies the legacy JSON envelope
// still loads (compile-on-load) and converts to exactly the binary
// envelope the same pipeline was saved as.
func TestLoadPipelineVersion2JSONCompat(t *testing.T) {
	loaded, err := LoadPipeline(bytes.NewReader(readFixture(t, fixtureV2)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.EnvelopeVersion() != 2 {
		t.Fatalf("JSON envelope version = %d, want 2", loaded.EnvelopeVersion())
	}
	if loaded.Compiled() == nil {
		t.Fatal("JSON-loaded pipeline has no compiled model")
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if want := readFixture(t, fixtureV3); !bytes.Equal(resaved.Bytes(), want) {
		t.Fatalf("v2 fixture re-saved to %d bytes that differ from the %d-byte v3 fixture",
			resaved.Len(), len(want))
	}
}

// TestLegacyFixturesClassifyIdentically loads both fixtures through
// LoadPipeline and both LoadPipelineFile modes: every load classifies
// the evaluation set identically, and only a mapped binary envelope
// views its file.
func TestLegacyFixturesClassifyIdentically(t *testing.T) {
	ref, err := LoadPipeline(bytes.NewReader(readFixture(t, fixtureV3)))
	if err != nil {
		t.Fatal(err)
	}
	want := fixtureVerdicts(t, ref)
	loaders := []struct {
		name string
		load func(path string) (*Pipeline, error)
	}{
		{"LoadPipeline", func(path string) (*Pipeline, error) {
			return LoadPipeline(bytes.NewReader(readFixture(t, path)))
		}},
		{"heap file", func(path string) (*Pipeline, error) { return LoadPipelineFile(path, false) }},
		{"mapped file", func(path string) (*Pipeline, error) { return LoadPipelineFile(path, true) }},
	}
	for _, path := range []string{fixtureV2, fixtureV3} {
		for _, l := range loaders {
			p, err := l.load(path)
			if err != nil {
				t.Fatalf("%s via %s: %v", path, l.name, err)
			}
			wantViews := path == fixtureV3 && l.name == "mapped file"
			if (p.MappedBytes() > 0) != wantViews {
				t.Errorf("%s via %s: MappedBytes = %d", path, l.name, p.MappedBytes())
			}
			got := fixtureVerdicts(t, p)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s via %s: record %d verdict %+v, want %+v", path, l.name, i, got[i], want[i])
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// envelopeOffsets walks the header of a v3 envelope and returns the
// offsets of its scaler dim and model length fields.
func envelopeOffsets(t *testing.T, raw []byte) (dimOff, modelLenOff int) {
	t.Helper()
	off := len(envMagic) + 1 + 24 // magic, flags, config
	nServices := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4
	for i := 0; i < nServices; i++ {
		off += 4 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	dimOff = off
	dim := int(binary.LittleEndian.Uint32(raw[off:]))
	return dimOff, dimOff + 4 + 16*dim
}

// TestLoadPipelineRejectsModelTrailingBytes: a model section longer than
// its compiled blob is rejected the same way by every load path.
func TestLoadPipelineRejectsModelTrailingBytes(t *testing.T) {
	raw := readFixture(t, fixtureV3)
	_, lenOff := envelopeOffsets(t, raw)
	modelLen := int(binary.LittleEndian.Uint64(raw[lenOff:]))
	modelEnd := lenOff + 8 + modelLen
	var env []byte
	env = append(env, raw[:lenOff]...)
	env = binary.LittleEndian.AppendUint64(env, uint64(modelLen+8))
	env = append(env, raw[lenOff+8:modelEnd]...)
	env = append(env, "junkjunk"...)
	env = append(env, raw[modelEnd:]...)
	path := filepath.Join(t.TempDir(), "trailing.bin")
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := LoadPipeline(bytes.NewReader(env))
	if err == nil || !strings.Contains(err.Error(), "8 trailing bytes") {
		t.Fatalf("LoadPipeline: got %v, want a trailing-bytes error", err)
	}
	for _, mapped := range []bool{false, true} {
		_, ferr := LoadPipelineFile(path, mapped)
		if ferr == nil || ferr.Error() != err.Error() {
			t.Fatalf("LoadPipelineFile(mapped=%v): got %v, want %v", mapped, ferr, err)
		}
	}
}

// TestLoadPipelineHugeClaimTinyBody pins the memory-safety contract of
// the envelope parser: a short input claiming a near-cap model section
// or scaler must be rejected having allocated less than 1 MiB.
func TestLoadPipelineHugeClaimTinyBody(t *testing.T) {
	raw := readFixture(t, fixtureV3)
	dimOff, lenOff := envelopeOffsets(t, raw)
	le := binary.LittleEndian
	cases := map[string][]byte{
		"model length": append(le.AppendUint64(bytes.Clone(raw[:lenOff]), envMaxModelBytes), raw[lenOff+8:lenOff+64]...),
		"scaler dim":   append(le.AppendUint32(bytes.Clone(raw[:dimOff]), envMaxDim), raw[dimOff+4:dimOff+64]...),
	}
	for name, in := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadPipeline(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: %d-byte envelope claiming a near-cap section accepted", name, len(in))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: rejecting the envelope allocated %d bytes, want < 1 MiB", name, alloc)
		}
	}
}

// TestLoadPipelineRejectsCorruptBinary walks truncations and byte
// mutations of a valid v3 envelope: every outcome must be an error or a
// loadable, classifiable pipeline — never a panic.
func TestLoadPipelineRejectsCorruptBinary(t *testing.T) {
	recs := testRecords(t)
	pipe, err := TrainPipeline(recs, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut += 997 {
		if _, err := LoadPipeline(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for pos := 0; pos < len(raw); pos += 1499 {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x5a
		loaded, err := LoadPipeline(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if _, err := loaded.Detect(&recs[0]); err != nil {
			// A mutated envelope that loads may legitimately reject
			// records (e.g. a flipped service name); it must not panic.
			continue
		}
	}
}
