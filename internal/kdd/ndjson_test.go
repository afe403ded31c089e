package kdd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeRef is the reference implementation the fast parser must match:
// the json.Decoder loop ghsom-serve used before RecordParser.
func decodeRef(input string) ([]Record, error) {
	dec := json.NewDecoder(strings.NewReader(input))
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// parseFast drains the input through RecordParser.
func parseFast(input string) ([]Record, error) {
	return parseReader(strings.NewReader(input))
}

// parseReader drains r through RecordParser.
func parseReader(r io.Reader) ([]Record, error) {
	p := NewRecordParser(r)
	var out []Record
	for {
		var rec Record
		if err := p.Next(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// recordsBitEqual compares records with float64 bit identity (so -0 vs 0
// and NaN-shaped corruption cannot slip through a == compare).
func recordsBitEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	var va, vb [38]float64
	for i := range a {
		a[i].NumericFeaturesInto(va[:])
		b[i].NumericFeaturesInto(vb[:])
		for j := range va {
			if math.Float64bits(va[j]) != math.Float64bits(vb[j]) {
				return false
			}
		}
		if a[i].Protocol != b[i].Protocol || a[i].Service != b[i].Service ||
			a[i].Flag != b[i].Flag || a[i].Label != b[i].Label ||
			a[i].Land != b[i].Land || a[i].LoggedIn != b[i].LoggedIn ||
			a[i].IsHostLogin != b[i].IsHostLogin || a[i].IsGuestLogin != b[i].IsGuestLogin {
			return false
		}
	}
	return true
}

// checkParserEquivalence asserts RecordParser reading input through r
// and json.Decoder agree: same records bit-for-bit, and errors on the
// same record index.
func checkParserEquivalence(t *testing.T, input string, r io.Reader) {
	t.Helper()
	want, wantErr := decodeRef(input)
	got, gotErr := parseReader(r)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("input %q:\n decoder err: %v\n parser err:  %v", input, wantErr, gotErr)
	}
	if !recordsBitEqual(want, got) {
		t.Fatalf("input %q:\n decoder: %+v\n parser:  %+v", input, want, got)
	}
}

func ndjsonTestInputs() iter.Seq[string] {
	return func(yield func(string) bool) {
		records := columnarTestRecords(40)
		var marshaled bytes.Buffer
		enc := json.NewEncoder(&marshaled)
		for i := range records {
			enc.Encode(&records[i])
		}
		full := marshaled.String()
		line0, line1 := full[:strings.IndexByte(full, '\n')], `{"Duration":2,"Protocol":"udp"}`
		var pretty bytes.Buffer
		ind := json.NewEncoder(&pretty)
		ind.SetIndent("", "  ")
		for i := 0; i < 5; i++ {
			ind.Encode(&records[i])
		}
		// One record exactly as encoding/json writes it, so it takes the
		// struct-order walk, and variants that leave the walk at each of
		// its exits.
		order, err := json.Marshal(&Record{
			Duration: 7, Protocol: "tcp", Service: "http", Flag: "SF", Label: "normal",
			SerrorRate:  0.1234567890123456,  // 16 digits: exact fast path
			SameSrvRate: 0.12345678901234567, // 17 digits: strconv
			LoggedIn:    true,
		})
		if err != nil {
			panic(err)
		}
		walk := string(order)
		withDuration := func(v string) string { return strings.Replace(walk, `"Duration":7`, `"Duration":`+v, 1) }
		inputs := []string{
			"", "   \n\t ", marshaled.String(), pretty.String(),
			walk + "\n" + walk,
			// Mantissa at and just past 2^53, decimal exponents at and just
			// past ±22, inside the walk.
			withDuration("9007199254740992"),
			withDuration("9007199254740993"),
			withDuration("9007199254740993e-3"),
			withDuration("1e22"), withDuration("1e-22"), withDuration("1e23"), withDuration("1e-23"),
			withDuration("12.5e21"), withDuration("1234567890123456789"), withDuration("12345678901234567890"),
			// Exits: swapped key pair, duplicated key, space after ':',
			// and a 43rd, unknown key.
			strings.Replace(walk, `"Duration":7,"Protocol":"tcp"`, `"Protocol":"tcp","Duration":7`, 1),
			strings.Replace(walk, `"Duration":7,`, `"Duration":7,"Duration":8,`, 1),
			strings.Replace(walk, `"Protocol":"tcp"`, `"Protocol": "tcp"`, 1),
			strings.TrimSuffix(walk, "}") + `,"Extra":1}`,
			// Back-to-back objects with no separator.
			`{"Duration":1}{"Duration":2}`,
			// Unknown keys (skipped), case-folded keys (matched).
			`{"duration": 3.5, "Bogus": {"nested": [1,2,{"x":"}"}]}, "SERVICE": "http"}`,
			`{"Unknown": "value", "Protocol": "tcp"}`,
			// Escaped strings take the slow path but must still parse.
			`{"Service": "ht\u0074p", "Label": "a\"b\\c", "Protocol": "tcp"}`,
			// Number zoo: exact fast path and beyond-15-digit slow path,
			// big exponents, -0, leading-zero errors, overflow.
			`{"Duration": 0.30000000000000004, "SrcBytes": 1e300, "DstBytes": -0}`,
			`{"Duration": 123456789012345678901234567890.5}`,
			`{"Duration": 1E+5, "SrcBytes": 2e-7, "Count": 0.0001}`,
			`{"Duration": 1e999}`,
			`{"Duration": 01}`,
			`{"Duration": +1}`,
			`{"Duration": .5}`,
			`{"Duration": 1.}`,
			`{"Duration": 5e}`,
			`{"Duration": --3}`,
			`{"Duration": NaN}`,
			// Type mismatches: both paths must reject identically.
			`{"Duration": "fast"}`,
			`{"Land": 1}`,
			`{"Protocol": 7}`,
			`{"Duration": true}`,
			// null leaves fields untouched in both.
			`{"Duration": null, "Protocol": null, "Land": null}`,
			// Whole-value type errors.
			`[{"Duration": 1}]`,
			`42`,
			`"just a string"`,
			`true`,
			`null`,
			// Structural damage.
			`{"Duration": 1`,
			`{"Duration"}`,
			`{Duration: 1}`,
			`{"Duration": 1,}`,
			`{"Duration" 1}`,
			`{"Duration": 1} trailing-garbage`,
			`{"Duration": 1}{`,
			// Duplicate keys: last wins in both.
			`{"Duration": 1, "Duration": 2}`,
			// Unicode in symbols; raw control bytes and invalid UTF-8,
			// which json.Unmarshal rejects or rewrites to U+FFFD.
			`{"Service": "héttp", "Label": "日本語"}`,
			"{\"Service\": \"a\tb\"}",
			"{\"Label\": \"x\x01\"}\n",
			"{\"Service\": \"\xff\xfe\"}\n",
			// Newline framing: CRLF endings, two objects on one line,
			// trailing spaces/tabs, no final newline, blank and
			// whitespace-only lines, garbage after a valid object.
			line0 + "\r\n" + line1 + "\r\n",
			line0 + "   " + line1 + "\n" + line1 + "\n",
			line0 + " \t \n" + line1 + "\t\n",
			line0 + "\n" + line1,
			line0 + "\n\n   \n\t\r\n\n" + line1 + "\n \n",
			line1 + "\n" + line0 + " garbage\n" + line1 + "\n",
			line1 + "\n" + line0 + "}\n",
			// One record longer than the read chunk: framing refills
			// mid-line.
			line1 + "\n" + `{"Service": "` + strings.Repeat("s", ndjsonReadChunk+100) + `", "Duration": 3}` + "\n" + line0 + "\n",
		}
		for _, in := range inputs {
			if !yield(in) {
				return
			}
		}
	}
}

func TestRecordParserMatchesJSONDecoder(t *testing.T) {
	for input := range ndjsonTestInputs() {
		checkParserEquivalence(t, input, strings.NewReader(input))
	}
}

// TestRecordParserSmallReads feeds every stream one byte at a time so
// every refill/slide boundary inside framing and scanValue is crossed
// mid-value.
func TestRecordParserSmallReads(t *testing.T) {
	for input := range ndjsonTestInputs() {
		checkParserEquivalence(t, input, iotest.OneByteReader(strings.NewReader(input)))
	}
	records := columnarTestRecords(30)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		enc.Encode(&records[i])
	}
	p := NewRecordParser(iotest.OneByteReader(&buf))
	var got []Record
	for {
		var rec Record
		err := p.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, rec)
	}
	if !recordsBitEqual(records, got) {
		t.Fatal("one-byte-at-a-time parse diverged")
	}
}

// TestRecordParserReadErrors pins which record a read error is reported
// at. The newline look-ahead may meet the error before the record would
// need those bytes; the error must stick rather than be read past.
func TestRecordParserReadErrors(t *testing.T) {
	records := columnarTestRecords(6)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		enc.Encode(&records[i])
	}
	stream := buf.Bytes()
	if bytes.Count(stream[:1000], []byte("\n")) != 1 {
		t.Fatal("corpus must hold exactly one full record in its first 1000 bytes")
	}
	for _, tc := range []struct {
		name    string
		r       io.Reader
		records int
		err     string
	}{
		{"timeout-one-byte", iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(stream))), 0, "record 1: timeout"},
		{"timeout-half", iotest.TimeoutReader(iotest.HalfReader(bytes.NewReader(stream))), 6, "record 7: timeout"},
		{"err-mid-record", io.MultiReader(bytes.NewReader(stream[:1000]), iotest.ErrReader(errors.New("boom"))), 1, "record 2: boom"},
	} {
		got, err := ReadRecordsNDJSON(tc.r, nil, 0)
		if len(got) != tc.records || err == nil || err.Error() != tc.err {
			t.Errorf("%s: %d records, err %v; want %d records, err %q", tc.name, len(got), err, tc.records, tc.err)
		}
		if !recordsBitEqual(records[:len(got)], got) {
			t.Errorf("%s: records diverged from input", tc.name)
		}
	}
}

// TestRecordParserLongLine checks framing imposes no per-line cap: one
// line longer than maxNDJSONRecordBytes made of small objects still
// parses, exactly as json.Decoder reads it.
func TestRecordParserLongLine(t *testing.T) {
	var b strings.Builder
	for b.Len() <= maxNDJSONRecordBytes+1000 {
		fmt.Fprintf(&b, `{"Duration":%d,"Protocol":"tcp"} `, b.Len())
	}
	b.WriteString("\n" + `{"Duration":1}` + "\n")
	input := b.String()
	checkParserEquivalence(t, input, strings.NewReader(input))
	if _, err := parseFast(input); err != nil {
		t.Fatalf("long line: %v", err)
	}
}

// TestRecordParserLargeStreamBuffer checks the buffer does not grow with
// stream length: consumed bytes must be reclaimed across records.
func TestRecordParserLargeStreamBuffer(t *testing.T) {
	records := columnarTestRecords(20)
	var one bytes.Buffer
	enc := json.NewEncoder(&one)
	for i := range records {
		enc.Encode(&records[i])
	}
	// ~200 copies: a few MB of stream through a parser whose buffer must
	// stay near the chunk size.
	p := NewRecordParser(strings.NewReader(strings.Repeat(one.String(), 200)))
	var rec Record
	n := 0
	for {
		err := p.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != 20*200 {
		t.Fatalf("parsed %d records, want %d", n, 20*200)
	}
	if cap(p.buf) > 4*ndjsonReadChunk {
		t.Fatalf("parser buffer grew to %d bytes on a streaming workload", cap(p.buf))
	}
}

func TestRecordParserOversizedRecord(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"Service": "`)
	b.WriteString(strings.Repeat("x", maxNDJSONRecordBytes+1000))
	b.WriteString(`"}`)
	p := NewRecordParser(strings.NewReader(b.String()))
	var rec Record
	err := p.Next(&rec)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized record: err = %v, want size cap error", err)
	}
}

func TestRecordParserSteadyStateAllocs(t *testing.T) {
	records := columnarTestRecords(100)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		enc.Encode(&records[i])
	}
	stream := buf.Bytes()
	p := NewRecordParser(bytes.NewReader(stream))
	var rec Record
	// Warm up: buffer growth and vocabulary interning happen here.
	for p.Next(&rec) == nil {
	}
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(stream)
		p.Reset(rd)
		for {
			if err := p.Next(&rec); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
		}
	})
	perRecord := allocs / float64(len(records))
	if perRecord > 0.05 {
		t.Fatalf("fast NDJSON path allocates %.3f/record, want <= 0.05", perRecord)
	}
}

// TestAppendAllSteadyStateAllocs drives AppendAll into a dst with spare
// capacity: records land in place, with no heap Record per record.
func TestAppendAllSteadyStateAllocs(t *testing.T) {
	records := columnarTestRecords(100)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		enc.Encode(&records[i])
	}
	stream := buf.Bytes()
	dst := make([]Record, 0, len(records)+1)
	p := NewRecordParser(bytes.NewReader(stream))
	if _, err := p.AppendAll(dst, 0); err != nil { // warm up
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(stream)
		p.Reset(rd)
		got, err := p.AppendAll(dst, 0)
		if err != nil || len(got) != len(records) {
			t.Fatalf("AppendAll: %d records, err %v", len(got), err)
		}
	})
	if perRecord := allocs / float64(len(records)); perRecord > 0.05 {
		t.Fatalf("AppendAll allocates %.3f/record, want <= 0.05", perRecord)
	}
}

func TestReadRecordsNDJSONCapAndErrors(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	records := columnarTestRecords(10)
	for i := range records {
		enc.Encode(&records[i])
	}
	if _, err := ReadRecordsNDJSON(bytes.NewReader(buf.Bytes()), nil, 5); err == nil ||
		!strings.Contains(err.Error(), "exceeds 5 records") {
		t.Fatalf("cap err = %v", err)
	}
	got, err := ReadRecordsNDJSON(bytes.NewReader(buf.Bytes()), make([]Record, 0, 64), 0)
	if err != nil {
		t.Fatalf("ReadRecordsNDJSON: %v", err)
	}
	if !recordsBitEqual(records, got) {
		t.Fatal("ReadRecordsNDJSON diverged from input")
	}
	// Error position is 1-based like the old readRecords loop.
	_, err = ReadRecordsNDJSON(strings.NewReader(`{"Duration":1}`+"\n"+`{"Duration":bad}`), nil, 0)
	if err == nil || !strings.Contains(err.Error(), "record 2:") {
		t.Fatalf("position err = %v, want record 2", err)
	}
}

// FuzzRecordParserEquivalence cross-checks the fast parser against the
// stock json.Decoder on arbitrary streams: identical records and
// identical accept/reject decisions, never a panic.
func FuzzRecordParserEquivalence(f *testing.F) {
	for input := range ndjsonTestInputs() {
		f.Add(input)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := decodeRef(input)
		got, gotErr := parseFast(input)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("decoder err %v vs parser err %v", wantErr, gotErr)
		}
		if !recordsBitEqual(want, got) {
			t.Fatalf("records diverged:\n decoder: %+v\n parser:  %+v", want, got)
		}
	})
}
