package kdd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// columnarTestRecords builds a deterministic, varied batch: every
// protocol and flag, known and unknown services, boolean toggles, and
// heavy-tailed volume features that exercise the log transform.
func columnarTestRecords(n int) []Record {
	rng := rand.New(rand.NewSource(7))
	services := []string{"http", "smtp", "ftp_data", "uucp_path", "telnet", "weird_svc_42"}
	labels := []string{"normal", "neptune", "portsweep", "guess_passwd", "mailbomb"}
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Duration:               float64(rng.Intn(5000)),
			Protocol:               Protocols[rng.Intn(len(Protocols))],
			Service:                services[rng.Intn(len(services))],
			Flag:                   Flags[rng.Intn(len(Flags))],
			SrcBytes:               float64(rng.Intn(1 << 20)),
			DstBytes:               float64(rng.Intn(1 << 16)),
			Land:                   rng.Intn(2) == 1,
			WrongFragment:          float64(rng.Intn(3)),
			Hot:                    float64(rng.Intn(10)),
			LoggedIn:               rng.Intn(2) == 1,
			IsGuestLogin:           rng.Intn(2) == 1,
			Count:                  float64(rng.Intn(511)),
			SrvCount:               float64(rng.Intn(511)),
			SerrorRate:             rng.Float64(),
			SameSrvRate:            rng.Float64(),
			DstHostCount:           float64(rng.Intn(256)),
			DstHostSrvCount:        float64(rng.Intn(256)),
			DstHostSameSrcPortRate: rng.Float64(),
			Label:                  labels[rng.Intn(len(labels))],
		}
	}
	return out
}

func mustFrame(t testing.TB, records []Record, opts ColumnarWriteOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColumnarBatch(&buf, records, opts); err != nil {
		t.Fatalf("WriteColumnarBatch: %v", err)
	}
	return buf.Bytes()
}

func TestColumnarRoundTripRecords(t *testing.T) {
	records := columnarTestRecords(257)
	frame := mustFrame(t, records, ColumnarWriteOptions{Labels: true})

	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame), &cb, ColumnarLimits{}); err != nil {
		t.Fatalf("ReadColumnarBatch: %v", err)
	}
	if cb.Rows() != len(records) {
		t.Fatalf("Rows = %d, want %d", cb.Rows(), len(records))
	}
	if !cb.HasLabels() {
		t.Fatal("HasLabels = false, want true")
	}
	for i := range records {
		got, err := cb.Record(i)
		if err != nil {
			t.Fatalf("Record(%d): %v", i, err)
		}
		if got != records[i] {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, records[i])
		}
	}
	labels := cb.AppendLabels(nil)
	for i := range records {
		if labels[i] != records[i].Label {
			t.Fatalf("label %d = %q, want %q", i, labels[i], records[i].Label)
		}
	}
}

func TestColumnarEncodeMatchesEncodeBatch(t *testing.T) {
	records := columnarTestRecords(100)
	for _, tc := range []struct {
		name string
		cfg  EncoderConfig
	}{
		{"log", EncoderConfig{LogTransform: true}},
		{"nolog", EncoderConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Encoder trained WITHOUT the unseen services, so
			// "uucp_path" and "weird_svc_42" hit the other bucket on
			// both paths.
			enc := NewEncoder(nil, tc.cfg)
			d := enc.Dim()

			want := make([]float64, len(records)*d)
			if err := enc.EncodeBatch(records, want); err != nil {
				t.Fatalf("EncodeBatch: %v", err)
			}

			frame := mustFrame(t, records, ColumnarWriteOptions{Labels: true})
			var cb ColumnarBatch
			if err := ReadColumnarBatch(bytes.NewReader(frame), &cb, ColumnarLimits{}); err != nil {
				t.Fatalf("ReadColumnarBatch: %v", err)
			}
			if err := enc.BindColumnar(&cb); err != nil {
				t.Fatalf("BindColumnar: %v", err)
			}
			got := make([]float64, len(records)*d)
			// Encode in two sub-ranges to exercise lo/hi offsets.
			mid := len(records) / 3
			if err := enc.EncodeColumnarRows(&cb, 0, mid, got[:mid*d]); err != nil {
				t.Fatalf("EncodeColumnarRows lo: %v", err)
			}
			if err := enc.EncodeColumnarRows(&cb, mid, len(records), got[mid*d:]); err != nil {
				t.Fatalf("EncodeColumnarRows hi: %v", err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("element %d (record %d, col %d): columnar %v != row %v",
						i, i/d, i%d, got[i], want[i])
				}
			}
		})
	}
}

func TestColumnarEncodeZeroAlloc(t *testing.T) {
	records := columnarTestRecords(512)
	frame := mustFrame(t, records, ColumnarWriteOptions{})
	enc := NewEncoder(nil, EncoderConfig{LogTransform: true})
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame), &cb, ColumnarLimits{}); err != nil {
		t.Fatalf("ReadColumnarBatch: %v", err)
	}
	if err := enc.BindColumnar(&cb); err != nil {
		t.Fatalf("BindColumnar: %v", err)
	}
	dst := make([]float64, len(records)*enc.Dim())
	allocs := testing.AllocsPerRun(20, func() {
		if err := enc.EncodeColumnarRows(&cb, 0, len(records), dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeColumnarRows allocates %v times per call, want 0", allocs)
	}
}

func TestColumnarFloat32Mode(t *testing.T) {
	records := columnarTestRecords(64)
	frame := mustFrame(t, records, ColumnarWriteOptions{Float32: true, Labels: true})
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame), &cb, ColumnarLimits{}); err != nil {
		t.Fatalf("ReadColumnarBatch: %v", err)
	}
	if !cb.f32 {
		t.Fatal("f32 = false, want true")
	}
	// f32 mode must equal EncodeBatch over the float32-rounded records.
	rounded := make([]Record, len(records))
	copy(rounded, records)
	var vals [38]float64
	for i := range rounded {
		rounded[i].NumericFeaturesInto(vals[:])
		for j := range vals {
			vals[j] = float64(float32(vals[j]))
		}
		rec := recordFromNumeric(vals)
		rec.Protocol, rec.Service, rec.Flag, rec.Label =
			rounded[i].Protocol, rounded[i].Service, rounded[i].Flag, rounded[i].Label
		rounded[i] = rec
	}
	enc := NewEncoder(nil, EncoderConfig{LogTransform: true})
	d := enc.Dim()
	want := make([]float64, len(records)*d)
	if err := enc.EncodeBatch(rounded, want); err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	if err := enc.BindColumnar(&cb); err != nil {
		t.Fatalf("BindColumnar: %v", err)
	}
	got := make([]float64, len(records)*d)
	if err := enc.EncodeColumnarRows(&cb, 0, len(records), got); err != nil {
		t.Fatalf("EncodeColumnarRows: %v", err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("element %d: f32 columnar %v != rounded row %v", i, got[i], want[i])
		}
	}
}

func TestColumnarMultiFrameStream(t *testing.T) {
	var stream bytes.Buffer
	batches := [][]Record{columnarTestRecords(10), columnarTestRecords(300), columnarTestRecords(1)}
	for _, b := range batches {
		if err := WriteColumnarBatch(&stream, b, ColumnarWriteOptions{Labels: true}); err != nil {
			t.Fatalf("WriteColumnarBatch: %v", err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	var cb ColumnarBatch
	var total, frames int
	for {
		err := ReadColumnarBatch(r, &cb, ColumnarLimits{})
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		if cb.Rows() != len(batches[frames]) {
			t.Fatalf("frame %d: rows = %d, want %d", frames, cb.Rows(), len(batches[frames]))
		}
		total += cb.Rows()
		frames++
	}
	if frames != 3 || total != 311 {
		t.Fatalf("read %d frames / %d rows, want 3 / 311", frames, total)
	}
}

func TestColumnarUnknownProtocolReportsRecord(t *testing.T) {
	records := columnarTestRecords(5)
	records[3].Protocol = "sctp"
	frame := mustFrame(t, records, ColumnarWriteOptions{})
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame), &cb, ColumnarLimits{}); err != nil {
		t.Fatalf("ReadColumnarBatch: %v", err)
	}
	enc := NewEncoder(nil, EncoderConfig{})
	if err := enc.BindColumnar(&cb); err != nil {
		t.Fatalf("BindColumnar: %v", err)
	}
	dst := make([]float64, len(records)*enc.Dim())
	err := enc.EncodeColumnarRows(&cb, 0, len(records), dst)
	if err == nil || !strings.Contains(err.Error(), "record 3") ||
		!strings.Contains(err.Error(), `unknown protocol "sctp"`) {
		t.Fatalf("EncodeColumnarRows error = %v, want record 3 / unknown protocol", err)
	}
}

// corrupt returns a copy of frame with buf[off] replaced.
func corrupt(frame []byte, off int, b byte) []byte {
	out := bytes.Clone(frame)
	out[off] = b
	return out
}

func TestColumnarAdversarialFrames(t *testing.T) {
	records := columnarTestRecords(4)
	frame := mustFrame(t, records, ColumnarWriteOptions{Labels: true})
	le := binary.LittleEndian

	cases := []struct {
		name    string
		frame   []byte
		lim     ColumnarLimits
		wantSub string
	}{
		{"bad magic", corrupt(frame, 0, 'X'), ColumnarLimits{}, "magic"},
		{"unknown flags", corrupt(frame, 12, 0xF0), ColumnarLimits{}, "unknown flags"},
		{"zero rows", func() []byte {
			f := bytes.Clone(frame)
			le.PutUint32(f[13:], 0)
			return f
		}(), ColumnarLimits{}, "rows"},
		{"rows over limit", frame, ColumnarLimits{MaxRows: 3}, "rows"},
		{"frame over byte limit", frame, ColumnarLimits{MaxFrameBytes: 64}, "exceeds cap"},
		{"wrong numeric column count", func() []byte {
			f := bytes.Clone(frame)
			le.PutUint16(f[17:], 37)
			return f
		}(), ColumnarLimits{}, "schema mismatch"},
		{"wrong categorical column count", func() []byte {
			f := bytes.Clone(frame)
			le.PutUint16(f[19:], 4)
			return f
		}(), ColumnarLimits{}, "schema mismatch"},
		{"zero symbols", func() []byte {
			f := bytes.Clone(frame)
			le.PutUint16(f[21:], 0)
			return f
		}(), ColumnarLimits{}, "symbol table"},
		{"symbol table overrun", func() []byte {
			f := bytes.Clone(frame)
			le.PutUint16(f[21:], 60000)
			return f
		}(), ColumnarLimits{}, "symbol table"},
		{"truncated body", frame[:len(frame)-5], ColumnarLimits{}, "unexpected EOF"},
		{"huge claimed length, short stream", func() []byte {
			f := bytes.Clone(frame[:64])
			le.PutUint32(f[8:], 1<<29)
			return f
		}(), ColumnarLimits{}, "unexpected EOF"},
		{"payload shape mismatch", func() []byte {
			// Shrink the declared body length by one: payload no longer
			// agrees with rows x columns.
			f := bytes.Clone(frame[:len(frame)-1])
			le.PutUint32(f[8:], le.Uint32(f[8:])-1)
			return f
		}(), ColumnarLimits{}, "disagrees"},
		{"out-of-range categorical code", func() []byte {
			// Protocol codes sit right after the numeric runs; smash one
			// to an index past the table.
			f := bytes.Clone(frame)
			var cb ColumnarBatch
			if err := ReadColumnarBatch(bytes.NewReader(frame), &cb, ColumnarLimits{}); err != nil {
				t.Fatalf("setup read: %v", err)
			}
			f[12+cb.catOff[0]] = 0xFF
			return f
		}(), ColumnarLimits{}, "outside symbol table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cb ColumnarBatch
			err := ReadColumnarBatch(bytes.NewReader(tc.frame), &cb, tc.lim)
			if err == nil || err == io.EOF {
				t.Fatalf("ReadColumnarBatch = %v, want error containing %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestColumnarHugeLengthNoAllocationBlowup(t *testing.T) {
	// A frame claiming a near-cap body backed by a tiny stream must fail
	// with unexpected EOF after reading only what arrived — the chunked
	// body reader must not allocate the claimed size up front.
	var hdr bytes.Buffer
	hdr.WriteString("GHSOMWB1")
	var lenB [4]byte
	binary.LittleEndian.PutUint32(lenB[:], 1<<29)
	hdr.Write(lenB[:])
	hdr.Write(make([]byte, 100))
	var cb ColumnarBatch
	err := ReadColumnarBatch(bytes.NewReader(hdr.Bytes()), &cb, ColumnarLimits{})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if cap(cb.buf) > 1<<20 {
		t.Fatalf("reader grew buffer to %d bytes for a 100-byte stream", cap(cb.buf))
	}
}

func TestColumnarBatchReuseAcrossFrames(t *testing.T) {
	big := mustFrame(t, columnarTestRecords(500), ColumnarWriteOptions{Labels: true})
	small := mustFrame(t, columnarTestRecords(3), ColumnarWriteOptions{})
	enc := NewEncoder(nil, EncoderConfig{LogTransform: true})
	var cb ColumnarBatch
	for i, tc := range []struct {
		frame      []byte
		wantLabels bool
	}{{big, true}, {small, false}, {big, true}} {
		if err := ReadColumnarBatch(bytes.NewReader(tc.frame), &cb, ColumnarLimits{}); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if cb.HasLabels() != tc.wantLabels {
			t.Fatalf("frame %d: HasLabels = %v, want %v (state leaked across reuse)", i, cb.HasLabels(), tc.wantLabels)
		}
		if err := enc.BindColumnar(&cb); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
		dst := make([]float64, cb.Rows()*enc.Dim())
		if err := enc.EncodeColumnarRows(&cb, 0, cb.Rows(), dst); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
}

func TestColumnarEncodeRequiresBind(t *testing.T) {
	frame := mustFrame(t, columnarTestRecords(2), ColumnarWriteOptions{})
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame), &cb, ColumnarLimits{}); err != nil {
		t.Fatalf("read: %v", err)
	}
	enc := NewEncoder(nil, EncoderConfig{})
	dst := make([]float64, 2*enc.Dim())
	if err := enc.EncodeColumnarRows(&cb, 0, 2, dst); err == nil {
		t.Fatal("EncodeColumnarRows without BindColumnar succeeded")
	}
}

func TestWriteColumnarBatchRejectsBadSymbols(t *testing.T) {
	rec := columnarTestRecords(1)
	rec[0].Service = ""
	var buf bytes.Buffer
	if err := WriteColumnarBatch(&buf, rec, ColumnarWriteOptions{}); err == nil {
		t.Fatal("empty service accepted")
	}
	rec[0].Service = strings.Repeat("x", 256)
	if err := WriteColumnarBatch(&buf, rec, ColumnarWriteOptions{}); err == nil {
		t.Fatal("256-byte service accepted")
	}
	if err := WriteColumnarBatch(&buf, nil, ColumnarWriteOptions{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}
