package anomaly

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// encodeRef is the oracle AppendPredictionJSON must match: what a
// default json.Encoder writes for p.
func encodeRef(p *Prediction) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(p)
	return buf.Bytes(), err
}

// checkAppendMatches asserts AppendPredictionJSON and encodeRef agree on
// p: the same bytes, or both an error. The appender extends a non-empty
// prefix, which it must keep intact either way.
func checkAppendMatches(t *testing.T, p *Prediction) {
	t.Helper()
	want, wantErr := encodeRef(p)
	prefix := []byte("prev\n")
	got, gotErr := AppendPredictionJSON(prefix, p)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%+v: encoding/json err %v, appender err %v", p, wantErr, gotErr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%+v: appender clobbered dst: %q", p, got)
	}
	if wantErr != nil {
		if len(got) != len(prefix) {
			t.Fatalf("%+v: appender extended dst on error: %q", p, got)
		}
		return
	}
	if got := got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n encoding/json %q\n appender      %q", p, want, got)
	}
}

func TestAppendPredictionJSONEdgeCases(t *testing.T) {
	strs := []string{
		"", "normal", NovelLabel, "0/3/12",
		"<script>&amp;", `quote " and \ backslash`,
		"\x00\x01\x1f\x7f", "tab\tnl\ncr\rbs\bff\f",
		"line\u2028sep\u2029para", "héllo 日本語", "bad\xffutf8\xc3", "\xed\xa0\x80",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1.5e300,
		1e-6, 9.999999999999999e-7, -1e-6, 1e-7, 1.25e-9, 1e-100, 5e-324,
		1e20, 9.999999999999999e20, 1e21, -1e21, 1e22, math.MaxFloat64,
	}
	for _, s := range strs {
		checkAppendMatches(t, &Prediction{Label: s, Cell: "0/1"})
		checkAppendMatches(t, &Prediction{Label: "normal", Cell: s, Attack: true})
	}
	for _, f := range floats {
		checkAppendMatches(t, &Prediction{Label: "smurf", Novel: true, QE: f, Score: -f})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendMatches(t, &Prediction{QE: bad})
		checkAppendMatches(t, &Prediction{Score: bad})
	}
}

// FuzzAppendPredictionJSON cross-checks the appender against
// json.Encoder over arbitrary labels, cells, flags and float bits.
func FuzzAppendPredictionJSON(f *testing.F) {
	f.Add("normal", "0/3/12", false, false, math.Float64bits(0.4375), math.Float64bits(0))
	f.Add(NovelLabel, "1/0", true, true, math.Float64bits(2.5e-7), math.Float64bits(1.0000001))
	f.Add("<a&b>", "\u2028\xff", true, false, math.Float64bits(1e21), math.Float64bits(math.Copysign(0, -1)))
	f.Add("x", "y", false, true, math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, label, cell string, attack, novel bool, qe, score uint64) {
		checkAppendMatches(t, &Prediction{
			Label: label, Attack: attack, Novel: novel, Cell: cell,
			QE: math.Float64frombits(qe), Score: math.Float64frombits(score),
		})
	})
}

// BenchmarkAppendPredictionJSON encodes one 16-verdict live response:
// the appender into a reused buffer against json.Encoder into a reused
// bytes.Buffer, the pair the /detect handler switched between.
func BenchmarkAppendPredictionJSON(b *testing.B) {
	preds := make([]Prediction, 16)
	for i := range preds {
		preds[i] = Prediction{
			Label:  []string{"normal", "neptune", "smurf", NovelLabel}[i%4],
			Attack: i%4 != 0, Novel: i%4 == 3, Cell: "0/3/12",
			QE: 0.1 + float64(i)/7, Score: float64(i%4) / 3,
		}
	}
	b.Run("appender", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for j := range preds {
				var err error
				if buf, err = AppendPredictionJSON(buf, &preds[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(preds)), "ns/record")
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			for j := range preds {
				if err := enc.Encode(&preds[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(preds)), "ns/record")
	})
}
