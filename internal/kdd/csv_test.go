package kdd

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sampleRow is a syntactically faithful kddcup.data row (normal http).
const sampleRow = "0,tcp,http,SF,215,45076,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1,1,0.00,0.00,0.00,0.00,1.00,0.00,0.00,0,0,0.00,0.00,0.00,0.00,0.00,0.00,0.00,0.00,normal."

func TestParseFieldsSample(t *testing.T) {
	r, err := ParseFields(strings.Split(sampleRow, ","))
	if err != nil {
		t.Fatal(err)
	}
	if r.Protocol != "tcp" || r.Service != "http" || r.Flag != "SF" {
		t.Errorf("categoricals wrong: %+v", r)
	}
	if r.SrcBytes != 215 || r.DstBytes != 45076 {
		t.Errorf("bytes wrong: %v %v", r.SrcBytes, r.DstBytes)
	}
	if !r.LoggedIn {
		t.Error("logged_in should be true")
	}
	if r.Count != 1 || r.SameSrvRate != 1 {
		t.Errorf("traffic features wrong: count=%v sameSrv=%v", r.Count, r.SameSrvRate)
	}
	if r.Label != "normal" {
		t.Errorf("label = %q", r.Label)
	}
}

func TestParseFieldsErrors(t *testing.T) {
	if _, err := ParseFields([]string{"1", "2"}); err == nil {
		t.Error("short row accepted")
	}
	fields := strings.Split(sampleRow, ",")
	fields[0] = "not-a-number"
	if _, err := ParseFields(fields); err == nil {
		t.Error("non-numeric duration accepted")
	}
	fields = strings.Split(sampleRow, ",")
	fields[25] = "abc" // a rate column
	if _, err := ParseFields(fields); err == nil {
		t.Error("non-numeric rate accepted")
	}
}

func TestFieldsRoundTrip(t *testing.T) {
	orig, err := ParseFields(strings.Split(sampleRow, ","))
	if err != nil {
		t.Fatal(err)
	}
	orig.SerrorRate = 0.25
	orig.DstHostCount = 255
	fields := orig.Fields()
	if len(fields) != 42 {
		t.Fatalf("Fields produced %d columns", len(fields))
	}
	back, err := ParseFields(fields)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

func TestReadAllWriteAllRoundTrip(t *testing.T) {
	recs := []Record{}
	r1, _ := ParseFields(strings.Split(sampleRow, ","))
	r2 := r1
	r2.Label = "neptune"
	r2.Flag = "S0"
	r2.SerrorRate = 1
	r2.Count = 200
	recs = append(recs, r1, r2)

	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	if got[0] != recs[0] || got[1] != recs[1] {
		t.Error("records differ after round trip")
	}
}

func TestReadAllEmpty(t *testing.T) {
	got, err := ReadAll(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty input produced %d records", len(got))
	}
}

func TestReadAllMalformedLine(t *testing.T) {
	in := sampleRow + "\n" + "only,three,fields\n"
	if _, err := ReadAll(strings.NewReader(in)); err == nil {
		t.Error("malformed line accepted")
	}
	in = sampleRow + "\n" + strings.Replace(sampleRow, "215", "XYZ", 1) + "\n"
	if _, err := ReadAll(strings.NewReader(in)); err == nil {
		t.Error("non-numeric field accepted")
	}
}

func TestPropFieldsParseRoundTrip(t *testing.T) {
	// Random schema-valid records survive Fields -> ParseFields exactly.
	// Rates are generated on the 0.01 grid the CSV format preserves;
	// volume features are integral, as in the real dataset.
	rng := rand.New(rand.NewSource(90))
	services := CommonServices
	labels := slices.Sorted(maps.Keys(labelCategory))
	rate := func() float64 { return float64(rng.Intn(101)) / 100 }
	vol := func(max int) float64 { return float64(rng.Intn(max)) }
	for trial := 0; trial < 300; trial++ {
		r := Record{
			Duration:               vol(5000),
			Protocol:               Protocols[rng.Intn(len(Protocols))],
			Service:                services[rng.Intn(len(services))],
			Flag:                   Flags[rng.Intn(len(Flags))],
			SrcBytes:               vol(1 << 20),
			DstBytes:               vol(1 << 20),
			Land:                   rng.Intn(2) == 1,
			WrongFragment:          vol(3),
			Urgent:                 vol(3),
			Hot:                    vol(10),
			NumFailedLogins:        vol(5),
			LoggedIn:               rng.Intn(2) == 1,
			NumCompromised:         vol(5),
			RootShell:              vol(1),
			SuAttempted:            vol(2),
			NumRoot:                vol(5),
			NumFileCreations:       vol(5),
			NumShells:              vol(2),
			NumAccessFiles:         vol(3),
			IsHostLogin:            rng.Intn(2) == 1,
			IsGuestLogin:           rng.Intn(2) == 1,
			Count:                  vol(511),
			SrvCount:               vol(511),
			SerrorRate:             rate(),
			SrvSerrorRate:          rate(),
			RerrorRate:             rate(),
			SrvRerrorRate:          rate(),
			SameSrvRate:            rate(),
			DiffSrvRate:            rate(),
			SrvDiffHostRate:        rate(),
			DstHostCount:           vol(256),
			DstHostSrvCount:        vol(256),
			DstHostSameSrvRate:     rate(),
			DstHostDiffSrvRate:     rate(),
			DstHostSameSrcPortRate: rate(),
			DstHostSrvDiffHostRate: rate(),
			DstHostSerrorRate:      rate(),
			DstHostSrvSerrorRate:   rate(),
			DstHostRerrorRate:      rate(),
			DstHostSrvRerrorRate:   rate(),
			Label:                  labels[rng.Intn(len(labels))],
		}
		back, err := ParseFields(r.Fields())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back != r {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, back, r)
		}
	}
}

func TestWriteAllLabelsGetDot(t *testing.T) {
	r, _ := ParseFields(strings.Split(sampleRow, ","))
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Record{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "normal.") {
		t.Errorf("written row missing dotted label: %q", buf.String())
	}
}
