package ghsom

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// fixtureV3 holds one small pipeline frozen in the binary envelope v3:
// SmallScenario(5), first 600 records, quickPipelineConfig with MaxDepth
// 2 and TrainCapPerLabel 100. TestTrainReproducesFixtureV3 retrains it
// byte for byte; never regenerate it.
const fixtureV3 = "testdata/pipeline_v3.bin"

func readFixture(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// jsonEnvelopeHead is how a retired JSON envelope v2 file begins (the
// first bytes of the fixture the JSON loader was once pinned by).
const jsonEnvelopeHead = `{"version":2,"logTransform":true,"services":["auth","dns","domain_u","eco_i",`

// mappingsOf counts the live mappings of path in this process, or skips
// the test where /proc/self/maps is unavailable.
func mappingsOf(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("cannot count mappings: %v", err)
	}
	return strings.Count(string(maps), path)
}

// TestLoadPipelineRejectsJSONEnvelope pins the retirement of the JSON
// envelopes v1/v2: a '{'-led input fails LoadPipeline and both
// LoadPipelineFile modes with an error that names the retired format and
// says to retrain, and the mapped load leaves no mapping behind. Other
// input without the v3 magic is simply not an envelope.
func TestLoadPipelineRejectsJSONEnvelope(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body string
		want       []string
	}{
		{"v2 head", jsonEnvelopeHead, []string{"JSON pipeline envelope v1/v2", "retrain"}},
		{"empty object", "{}", []string{"JSON pipeline envelope v1/v2", "retrain"}},
		{"leading whitespace", " \r\n\t{}", []string{"JSON pipeline envelope v1/v2", "retrain"}},
		{"wrong magic", "GHSOMPV2" + jsonEnvelopeHead, []string{"not a GHSOM pipeline envelope"}},
	}
	for i, tc := range cases {
		_, err := LoadPipeline(strings.NewReader(tc.body))
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: LoadPipeline error %v, want it to mention %q", tc.name, err, w)
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("model%d.bin", i))
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{false, true} {
			p, ferr := LoadPipelineFile(path, mapped)
			if ferr == nil {
				p.Close()
				t.Fatalf("%s: LoadPipelineFile(mapped=%v) accepted the input", tc.name, mapped)
			}
			if ferr.Error() != err.Error() {
				t.Fatalf("%s: LoadPipelineFile(mapped=%v) error %v, want %v", tc.name, mapped, ferr, err)
			}
		}
		if n := mappingsOf(t, path); n != 0 {
			t.Fatalf("%s: rejected mapped load left %d mappings of %s", tc.name, n, path)
		}
	}
}

// TestTrainReproducesFixtureV3 retrains the v3 fixture from its recipe
// and requires the saved envelope to equal the frozen file byte for byte,
// serially and at the full worker budget: training changes that claim to
// keep models identical are checked against an artifact no change can
// regenerate. The recipe's Parallelism knob (saved in the envelope) is
// reset to the fixture's 0 before saving.
func TestTrainReproducesFixtureV3(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline; skipped with -short")
	}
	recs, err := GenerateTraffic(SmallScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	want := readFixture(t, fixtureV3)
	for _, p := range []int{1, 0} {
		cfg := quickPipelineConfig()
		cfg.Model.MaxDepth = 2
		cfg.TrainCapPerLabel = 100
		cfg.Parallelism, cfg.Model.Parallelism, cfg.Detector.Parallelism = p, p, p
		pipe, err := TrainPipeline(recs[:600], cfg)
		if err != nil {
			t.Fatal(err)
		}
		pipe.SetParallelism(0)
		var got bytes.Buffer
		if err := pipe.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("Parallelism %d: retrained envelope (%d bytes) differs from the %d-byte fixture %s",
				p, got.Len(), len(want), fixtureV3)
		}
	}
}

// TestLegacyFixturesClassifyIdentically loads the frozen v3 fixture
// through LoadPipeline and both LoadPipelineFile modes: every load
// classifies the evaluation set identically, and only the mapped load
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
	for _, l := range loaders {
		p, err := l.load(fixtureV3)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if wantViews := l.name == "mapped file"; (p.MappedBytes() > 0) != wantViews {
			t.Errorf("%s: MappedBytes = %d", l.name, p.MappedBytes())
		}
		got := fixtureVerdicts(t, p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d verdict %+v, want %+v", l.name, i, got[i], want[i])
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
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
