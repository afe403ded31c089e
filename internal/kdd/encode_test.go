package kdd

import (
	"math"
	"strings"
	"testing"
)

func TestEncoderDimAndNames(t *testing.T) {
	e := NewEncoder(nil, EncoderConfig{})
	wantDim := 38 + len(Protocols) + len(e.Services()) + len(Flags)
	if e.Dim() != wantDim {
		t.Errorf("Dim = %d, want %d", e.Dim(), wantDim)
	}
	names := e.FeatureNames()
	if len(names) != e.Dim() {
		t.Fatalf("FeatureNames has %d entries, dim %d", len(names), e.Dim())
	}
	if names[0] != "duration" {
		t.Errorf("first feature = %q", names[0])
	}
	var protoSeen, svcSeen, flagSeen bool
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "protocol="):
			protoSeen = true
		case strings.HasPrefix(n, "service="):
			svcSeen = true
		case strings.HasPrefix(n, "flag="):
			flagSeen = true
		}
	}
	if !protoSeen || !svcSeen || !flagSeen {
		t.Error("one-hot name blocks missing")
	}
}

func TestEncodeOneHot(t *testing.T) {
	e := NewEncoder(nil, EncoderConfig{})
	r := validRecord()
	v, err := encodeRow(e, &r)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != e.Dim() {
		t.Fatalf("encoded dim %d, want %d", len(v), e.Dim())
	}
	names := e.FeatureNames()
	// Exactly one 1 in each categorical block, at the right name.
	blocks := map[string]string{
		"protocol=": "protocol=tcp",
		"service=":  "service=http",
		"flag=":     "flag=SF",
	}
	for prefix, wantHot := range blocks {
		var ones int
		for i, n := range names {
			if !strings.HasPrefix(n, prefix) {
				continue
			}
			if v[i] == 1 {
				ones++
				if n != wantHot {
					t.Errorf("hot dimension %q, want %q", n, wantHot)
				}
			} else if v[i] != 0 {
				t.Errorf("one-hot dim %q has value %v", n, v[i])
			}
		}
		if ones != 1 {
			t.Errorf("block %q has %d hot dims", prefix, ones)
		}
	}
}

func TestEncodeUnknownServiceFallsToOther(t *testing.T) {
	e := NewEncoder(nil, EncoderConfig{})
	r := validRecord()
	r.Service = "never_seen_service"
	v, err := encodeRow(e, &r)
	if err != nil {
		t.Fatal(err)
	}
	names := e.FeatureNames()
	for i, n := range names {
		if n == "service=other" && v[i] != 1 {
			t.Error("unknown service did not fall into other bucket")
		}
	}
}

func TestEncodeVocabularyFromRecords(t *testing.T) {
	r := validRecord()
	r.Service = "exotic_svc"
	e := NewEncoder([]Record{r}, EncoderConfig{})
	found := false
	for _, s := range e.Services() {
		if s == "exotic_svc" {
			found = true
		}
	}
	if !found {
		t.Error("observed service missing from vocabulary")
	}
	v, err := encodeRow(e, &r)
	if err != nil {
		t.Fatal(err)
	}
	names := e.FeatureNames()
	for i, n := range names {
		if n == "service=exotic_svc" && v[i] != 1 {
			t.Error("observed service not one-hot encoded at its own dimension")
		}
	}
}

func TestEncodeRejectsUnknownProtocolAndFlag(t *testing.T) {
	e := NewEncoder(nil, EncoderConfig{})
	r := validRecord()
	r.Protocol = "gre"
	if _, err := encodeRow(e, &r); err == nil {
		t.Error("unknown protocol accepted")
	}
	r = validRecord()
	r.Flag = "??"
	if _, err := encodeRow(e, &r); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestEncodeLogTransform(t *testing.T) {
	r := validRecord()
	r.SrcBytes = math.E - 1 // log1p = 1
	plain := NewEncoder(nil, EncoderConfig{})
	logged := NewEncoder(nil, EncoderConfig{LogTransform: true})
	vp, err := encodeRow(plain, &r)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := encodeRow(logged, &r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vp[1]-(math.E-1)) > 1e-12 {
		t.Errorf("plain src_bytes = %v", vp[1])
	}
	if math.Abs(vl[1]-1) > 1e-12 {
		t.Errorf("log src_bytes = %v, want 1", vl[1])
	}
	// Rates must be untouched by the log transform.
	if vp[25] != vl[25] {
		t.Error("log transform touched a rate feature")
	}
}

// encodeRow encodes one record into a fresh row.
func encodeRow(e *Encoder, r *Record) ([]float64, error) {
	out := make([]float64, e.Dim())
	if err := e.EncodeInto(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// batchTestRecords returns a varied set of encodable records: every
// protocol and flag, known and unknown services, log-transformed volume
// features at several magnitudes.
func batchTestRecords() []Record {
	var out []Record
	services := []string{"http", "smtp", "nosuch_svc", "other", "telnet", "weird-9"}
	for i, proto := range []string{"tcp", "udp", "icmp"} {
		for j, flag := range Flags {
			r := validRecord()
			r.Protocol = proto
			r.Flag = flag
			r.Service = services[(i+j)%len(services)]
			r.SrcBytes = float64(i * 1000)
			r.DstBytes = float64(j * j)
			r.Count = float64(i + j)
			r.LoggedIn = j%2 == 0
			out = append(out, r)
		}
	}
	return out
}

// TestEncodeIntoAndBatchMatchEncode verifies the kernels are
// byte-identical to encoding into a fresh zeroed row: EncodeInto on a
// dirty buffer, and EncodeBatch rows of a dirty shared flat matrix.
func TestEncodeIntoAndBatchMatchEncode(t *testing.T) {
	records := batchTestRecords()
	for _, logT := range []bool{false, true} {
		e := NewEncoder(records, EncoderConfig{LogTransform: logT})
		d := e.Dim()
		flat := make([]float64, len(records)*d)
		for i := range flat {
			flat[i] = math.NaN() // dirty buffer: every element must be overwritten
		}
		if err := e.EncodeBatch(records, flat); err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, d)
		for i := range records {
			want, err := encodeRow(e, &records[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := range dst {
				dst[j] = 7.5 // dirty single-row buffer too
			}
			if err := e.EncodeInto(&records[i], dst); err != nil {
				t.Fatal(err)
			}
			row := flat[i*d : (i+1)*d]
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("logT=%v record %d dim %d: EncodeInto %v, fresh %v", logT, i, j, dst[j], want[j])
				}
				if row[j] != want[j] {
					t.Fatalf("logT=%v record %d dim %d: EncodeBatch %v, fresh %v", logT, i, j, row[j], want[j])
				}
			}
		}
	}
}

func TestEncodeIntoValidation(t *testing.T) {
	e := NewEncoder(nil, EncoderConfig{})
	r := validRecord()
	if err := e.EncodeInto(&r, make([]float64, e.Dim()-1)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := e.EncodeBatch([]Record{r, r}, make([]float64, e.Dim())); err == nil {
		t.Error("short batch buffer accepted")
	}
	bad := validRecord()
	bad.Flag = "XX"
	err := e.EncodeBatch([]Record{r, bad}, make([]float64, 2*e.Dim()))
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Errorf("bad record error = %v, want record index", err)
	}
}

// TestNumericFeaturesIndexMapping pins the 38-field index mapping of
// NumericFeaturesInto (and hence NumericFeatures, its wrapper) against an
// independent literal with a distinct value per field, so a transposition
// in the hand-written index assignments cannot slip through: the suite's
// only other numeric-index anchors are spot checks of dims 1 and 25.
func TestNumericFeaturesIndexMapping(t *testing.T) {
	r := Record{
		Duration: 1, SrcBytes: 2, DstBytes: 3, Land: true, WrongFragment: 5,
		Urgent: 6, Hot: 7, NumFailedLogins: 8, LoggedIn: true,
		NumCompromised: 10, RootShell: 11, SuAttempted: 12, NumRoot: 13,
		NumFileCreations: 14, NumShells: 15, NumAccessFiles: 16,
		NumOutboundCmds: 17, IsHostLogin: true, IsGuestLogin: true,
		Count: 20, SrvCount: 21, SerrorRate: 22, SrvSerrorRate: 23,
		RerrorRate: 24, SrvRerrorRate: 25, SameSrvRate: 26, DiffSrvRate: 27,
		SrvDiffHostRate: 28, DstHostCount: 29, DstHostSrvCount: 30,
		DstHostSameSrvRate: 31, DstHostDiffSrvRate: 32,
		DstHostSameSrcPortRate: 33, DstHostSrvDiffHostRate: 34,
		DstHostSerrorRate: 35, DstHostSrvSerrorRate: 36,
		DstHostRerrorRate: 37, DstHostSrvRerrorRate: 38,
	}
	// Expected vector written out independently in NumericFeatureNames
	// order: booleans (indices 3, 8, 17, 18) encode as 1.
	want := []float64{
		1, 2, 3, 1, 5, 6, 7, 8, 1, 10, 11, 12, 13, 14, 15, 16, 17, 1, 1,
		20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38,
	}
	if len(want) != len(NumericFeatureNames) {
		t.Fatalf("expected vector has %d entries, want %d", len(want), len(NumericFeatureNames))
	}
	got := make([]float64, len(NumericFeatureNames))
	r.NumericFeaturesInto(got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %d (%s): got %v, want %v", i, NumericFeatureNames[i], got[i], want[i])
		}
	}
}

func TestLabelsAndCategoryCounts(t *testing.T) {
	recs := []Record{
		{Label: "normal"}, {Label: "neptune"}, {Label: "neptune"}, {Label: "portsweep"},
	}
	labels := Labels(recs)
	if len(labels) != 4 || labels[1] != "neptune" {
		t.Errorf("Labels = %v", labels)
	}
}
