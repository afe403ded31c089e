package ghsom

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadPipeline asserts that arbitrary truncations and mutations of
// every envelope generation (v1/v2 JSON, v3 binary) never panic the
// loader, and that anything that does load can classify a record without
// panicking.
func FuzzLoadPipeline(f *testing.F) {
	v2 := readFixture(f, fixtureV2)
	v3 := readFixture(f, fixtureV3)
	v1 := v1Envelope(f, v2)
	f.Add(v1)
	f.Add(v2)
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:37])
	f.Add([]byte("GHSOMPV3"))
	f.Add([]byte("{}"))
	f.Add([]byte(""))
	f.Add([]byte(strings.Replace(string(v2), `"version":2`, `"version":7`, 1)))
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
		rec := Record{Protocol: "tcp", Service: "http", Flag: "SF", SrcBytes: 10}
		// A loaded pipeline may reject the record (unknown vocabulary) but
		// must never panic.
		_, _ = pipe.Detect(&rec)
		_ = pipe.Model().Stats()
		_ = pipe.Compiled().Stats()
	})
}
