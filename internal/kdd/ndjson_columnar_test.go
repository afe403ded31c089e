package kdd

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// checkColumnarMatchesAppendAll asserts AppendColumnar by p into cb and
// AppendAll by a fresh parser agree on input: the same error text (so
// the same record position), the same rows, and each row's Record equal
// to the parsed one field by field, floats by bits.
func checkColumnarMatchesAppendAll(t *testing.T, p *RecordParser, cb *ColumnarBatch, input string) {
	t.Helper()
	want, wantErr := NewRecordParser(strings.NewReader(input)).AppendAll(nil, 0)
	p.Reset(strings.NewReader(input))
	cb.Reset()
	gotErr := p.AppendColumnar(cb, 0)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("input %q:\n AppendAll err:      %v\n AppendColumnar err: %v", input, wantErr, gotErr)
	}
	if cb.Rows() != len(want) {
		t.Fatalf("input %q: %d rows, AppendAll %d records", input, cb.Rows(), len(want))
	}
	for r := range want {
		rec, err := cb.Record(r)
		if err != nil {
			t.Fatal(err)
		}
		if !recordsBitEqual([]Record{rec}, want[r:r+1]) {
			t.Fatalf("input %q record %d:\n batch:     %+v\n AppendAll: %+v", input, r, rec, want[r])
		}
	}
}

// TestAppendColumnarMatchesAppendAll runs the parser corpus through both
// destinations, with one parser and one batch reused across inputs as a
// server pools them.
func TestAppendColumnarMatchesAppendAll(t *testing.T) {
	p := NewRecordParser(nil)
	var cb ColumnarBatch
	for input := range ndjsonTestInputs() {
		checkColumnarMatchesAppendAll(t, p, &cb, input)
	}
}

// TestAppendColumnarAppends pins append semantics: records land after
// the batch's rows, record positions in errors continue from them, and
// the symbol codes stay right when parsers take turns on one batch and
// one parser on several batches.
func TestAppendColumnarAppends(t *testing.T) {
	records := columnarTestRecords(30)
	var lines []string
	for i := range records {
		b, err := json.Marshal(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	body := func(lo, hi int) *strings.Reader { return strings.NewReader(strings.Join(lines[lo:hi], "\n")) }
	p1, p2 := NewRecordParser(nil), NewRecordParser(nil)
	var a, other ColumnarBatch
	steps := []struct {
		p      *RecordParser
		cb     *ColumnarBatch
		lo, hi int
	}{
		{p1, &a, 0, 10}, {p2, &other, 20, 30}, {p2, &a, 10, 15}, {p1, &other, 0, 5}, {p1, &a, 15, 20},
	}
	for _, s := range steps {
		s.p.Reset(body(s.lo, s.hi))
		if err := s.p.AppendColumnar(s.cb, 0); err != nil {
			t.Fatal(err)
		}
	}
	if a.Rows() != 20 {
		t.Fatalf("batch holds %d rows, want 20", a.Rows())
	}
	for r := 0; r < a.Rows(); r++ {
		rec, err := a.Record(r)
		if err != nil {
			t.Fatal(err)
		}
		if !recordsBitEqual([]Record{rec}, records[r:r+1]) {
			t.Fatalf("row %d: %+v, want %+v", r, rec, records[r])
		}
	}
	p1.Reset(strings.NewReader(lines[0] + "\n{bad"))
	if err := p1.AppendColumnar(&a, 0); err == nil || !strings.Contains(err.Error(), "record 22:") {
		t.Fatalf("err %v, want record 22", err)
	}
	if a.Rows() != 21 {
		t.Fatalf("batch holds %d rows after the error, want 21", a.Rows())
	}
	// A frame read into the batch replaces its rows; the next append
	// starts an empty NDJSON batch.
	if err := ReadColumnarBatch(bytes.NewReader(mustFrame(t, records[:3], ColumnarWriteOptions{})), &a, DefaultColumnarLimits); err != nil {
		t.Fatal(err)
	}
	p1.Reset(body(3, 6))
	if err := p1.AppendColumnar(&a, 0); err != nil || a.Rows() != 3 {
		t.Fatalf("append after a frame: %d rows, err %v; want 3", a.Rows(), err)
	}
	if rec, _ := a.Record(0); !recordsBitEqual([]Record{rec}, records[3:4]) {
		t.Fatalf("row 0 after a frame: %+v, want %+v", rec, records[3])
	}
}

// TestAppendColumnarSteadyStateAllocs pins the columnar destination at
// zero allocations once the parser and batch are warm.
func TestAppendColumnarSteadyStateAllocs(t *testing.T) {
	records := columnarTestRecords(100)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		enc.Encode(&records[i])
	}
	stream := buf.Bytes()
	p := NewRecordParser(nil)
	rd := bytes.NewReader(nil)
	var cb ColumnarBatch
	run := func() {
		rd.Reset(stream)
		p.Reset(rd)
		cb.Reset()
		if err := p.AppendColumnar(&cb, 0); err != nil || cb.Rows() != len(records) {
			t.Fatalf("AppendColumnar: %d rows, err %v", cb.Rows(), err)
		}
	}
	run() // warm up
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("AppendColumnar allocates %v times per stream, want 0", allocs)
	}
}

// FuzzNDJSONColumnar cross-checks the columnar destination against
// AppendAll on arbitrary streams: it must fail exactly when AppendAll
// fails, with the same error and record position, and otherwise hold
// rows equal to AppendAll's records field by field. One parser and one
// batch are reused across inputs, as a server pools them.
func FuzzNDJSONColumnar(f *testing.F) {
	for input := range ndjsonTestInputs() {
		f.Add(input)
	}
	p := NewRecordParser(nil)
	var cb ColumnarBatch
	f.Fuzz(func(t *testing.T, input string) {
		checkColumnarMatchesAppendAll(t, p, &cb, input)
	})
}
