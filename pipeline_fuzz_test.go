package ghsom

import (
	"bytes"
	"testing"
)

// FuzzLoadPipeline asserts that arbitrary truncations and mutations of
// the binary envelope v3, retired JSON envelopes and wrong magics never
// panic the loader, that a '{'-led input never loads, and that anything
// that does load can classify a record without panicking.
func FuzzLoadPipeline(f *testing.F) {
	v3 := readFixture(f, fixtureV3)
	f.Add([]byte(jsonEnvelopeHead))
	f.Add(append([]byte("GHSOMPV2"), v3[len(envMagic):]...))
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:37])
	f.Add([]byte("GHSOMPV3"))
	f.Add([]byte("{}"))
	f.Add([]byte(""))
	f.Add([]byte("\n\t {\"version\":2}"))
	mut := append([]byte(nil), v3...)
	if len(mut) > 64 {
		mut[9] ^= 0xff  // flags / config region
		mut[40] ^= 0x10 // services region
	}
	f.Add(mut)

	f.Fuzz(func(t *testing.T, in []byte) {
		pipe, err := LoadPipeline(bytes.NewReader(in))
		if err != nil {
			return
		}
		if trimmed := bytes.TrimLeft(in, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
			t.Fatal("a '{'-led input loaded as a pipeline")
		}
		rec := Record{Protocol: "tcp", Service: "http", Flag: "SF", SrcBytes: 10}
		// A loaded pipeline may reject the record (unknown vocabulary) but
		// must never panic.
		_, _ = pipe.Detect(&rec)
		_ = pipe.Model().Stats()
		_ = pipe.Compiled().Stats()
	})
}
