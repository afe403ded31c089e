package kdd

// Columnar batch wire format (magic GHSOMWB1): the binary ingestion
// format of the detection dataplane. One frame carries a batch of
// records column by column — every numeric feature as one contiguous
// run of float64 (or float32) values, every categorical feature as a
// run of small-int codes against a per-frame symbol table — so a
// decoder touches each payload byte exactly once and writes straight
// into the pipeline's pooled row-major batch matrix: no per-record
// parsing, no intermediate Record structs, no per-record allocation.
//
// Frame layout (all integers little-endian):
//
//	magic   [8]byte  "GHSOMWB1"
//	length  uint32   byte length of the frame body (everything below)
//	flags   uint8    bit0: numeric values are float32 (default float64)
//	                 bit1: a label column follows the categorical runs
//	rows    uint32   record count, >= 1
//	nNum    uint16   numeric column count; must equal the schema's 38
//	nCat    uint16   categorical column count; must equal 3
//	symbol tables, in order protocol, service, flag[, label]:
//	    nSyms uint16           1 <= nSyms <= 4096
//	    nSyms x { len uint8, bytes }   symbol names, 1..255 bytes
//	payload:
//	    nNum runs of rows numeric values (8 or 4 bytes each), in
//	        NumericFeatureNames order
//	    3 runs of rows categorical codes (1 byte if the column's table
//	        has <= 256 symbols, else 2), indexing the symbol table
//	    [1 run of rows label codes, same width rule]
//
// The symbol table is the negotiation mechanism: the client writes the
// vocabulary it used, the decoder resolves every symbol against the
// serving encoder once per frame (unknown services fall into the
// encoder's "other" bucket, exactly like the NDJSON path), and the
// per-record work collapses to one table lookup per categorical value.
// A stream may carry any number of frames back to back.
//
// Every frame is validated before use: the body length is capped and
// read incrementally (a hostile header cannot force a proportional
// allocation from a short stream), row and symbol counts are capped,
// the payload length must agree exactly with the declared shape, and
// every categorical code is range-checked against its symbol table.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ColumnarContentType is the Content-Type that selects the columnar
// wire format on ghsom-serve's /detect endpoint.
const ColumnarContentType = "application/x-ghsom-columnar"

// columnarMagic opens every GHSOMWB1 frame.
var columnarMagic = [8]byte{'G', 'H', 'S', 'O', 'M', 'W', 'B', '1'}

// Frame flag bits.
const (
	columnarFlagF32    = 1 << 0
	columnarFlagLabels = 1 << 1
)

// numCategoricalColumns is the fixed categorical column count of the
// schema: protocol, service, flag.
const numCategoricalColumns = 3

// numNumeric is the schema's numeric column count, the length of
// NumericFeatureNames.
const numNumeric = 38

// categoricalNames names the categorical columns for error messages.
var categoricalNames = [numCategoricalColumns]string{"protocol", "service", "flag"}

// Structural caps of one frame, applied before any proportional
// allocation.
const (
	columnarMaxSyms   = 4096
	columnarMaxRows   = 1 << 22
	columnarMaxBytes  = 1 << 30
	columnarReadChunk = 64 << 10
)

// isLogFeature marks the log-transformed numeric columns (see
// logFeatureIdxs) for the columnar encode pass.
var isLogFeature = func() [numNumeric]bool {
	var m [numNumeric]bool
	for _, i := range logFeatureIdxs {
		m[i] = true
	}
	return m
}()

// ColumnarLimits bounds one frame during ReadColumnarBatch. Zero fields
// fall back to the package caps.
type ColumnarLimits struct {
	// MaxRows caps the record count of one frame.
	MaxRows int
	// MaxFrameBytes caps the body length of one frame.
	MaxFrameBytes int
}

// DefaultColumnarLimits are the package-cap limits.
var DefaultColumnarLimits = ColumnarLimits{MaxRows: columnarMaxRows, MaxFrameBytes: columnarMaxBytes}

// ColumnarBatch is one decoded batch of records, from either wire
// format: a GHSOMWB1 frame (ReadColumnarBatch) or an NDJSON stream
// (RecordParser.AppendColumnar). Its buffers are reused across calls,
// so a steady-state reader allocates only for the per-frame symbol
// strings of frames. A frame's payload stays in the raw frame buffer —
// decoding to float64 happens during the encode pass, straight into the
// caller's row-major matrix. NDJSON records are staged one row each:
// their numeric columns as float64 and their categorical values as
// codes into the batch's symbol tables, the same tables a frame
// carries.
type ColumnarBatch struct {
	rows      int
	f32       bool
	hasLabels bool
	// staging marks a batch decoded from NDJSON: its records live in
	// staged, not buf.
	staging bool
	staged  []stagedRow
	// buf holds the raw frame body; all offsets below index it.
	buf []byte
	// numOff is the offset of the first numeric run.
	numOff int
	// catOff/catW locate the categorical code runs and their code width.
	catOff [numCategoricalColumns]int
	catW   [numCategoricalColumns]int
	// labelOff/labelW locate the optional label run.
	labelOff, labelW int
	// syms holds the batch's symbol tables: protocol, service, flag,
	// label (label only when hasLabels).
	syms [numCategoricalColumns + 1][]string
	// resolved maps each categorical column's codes to offsets inside
	// the encoder's one-hot block (-1 = symbol unknown to the encoder).
	// Built by Encoder.BindColumnar, reused across frames.
	resolved [numCategoricalColumns][]int32
	bound    bool
}

// stagedRow is one NDJSON record of a batch: its numeric features in
// NumericFeatureNames order, and the codes of its protocol, service,
// flag and label in the batch's symbol tables.
type stagedRow struct {
	num   [numNumeric]float64
	codes [numCategoricalColumns + 1]uint32
}

// noCode marks a staged categorical value the record has not set.
const noCode = ^uint32(0)

// Reset empties the batch, keeping its buffers for the next decode.
func (cb *ColumnarBatch) Reset() {
	cb.rows, cb.f32, cb.hasLabels = 0, false, true
	cb.staging, cb.staged = true, cb.staged[:0]
	cb.buf = cb.buf[:0]
	for t := range cb.syms {
		cb.syms[t] = cb.syms[t][:0]
	}
	cb.bound = false
}

// addSymbol appends s to the symbol table of categorical column t (3 is
// the label) and returns its code.
func (cb *ColumnarBatch) addSymbol(t int, s string) uint32 {
	cb.syms[t] = append(cb.syms[t], s)
	cb.bound = false
	return uint32(len(cb.syms[t]) - 1)
}

// Rows returns the batch's record count.
func (cb *ColumnarBatch) Rows() int { return cb.rows }

// HasLabels reports whether the batch carries a ground-truth label
// column (training and evaluation traffic; the serving path ignores it).
// A batch decoded from NDJSON always does.
func (cb *ColumnarBatch) HasLabels() bool { return cb.hasLabels }

// Label returns record r's label, or "" when the frame has none.
func (cb *ColumnarBatch) Label(r int) string {
	if !cb.hasLabels || r < 0 || r >= cb.rows {
		return ""
	}
	return cb.syms[numCategoricalColumns][cb.catCode(numCategoricalColumns, r)]
}

// AppendLabels appends all labels to dst (no-op when the frame has no
// label column) and returns the extended slice.
func (cb *ColumnarBatch) AppendLabels(dst []string) []string {
	if !cb.hasLabels {
		return dst
	}
	for r := 0; r < cb.rows; r++ {
		dst = append(dst, cb.Label(r))
	}
	return dst
}

// code reads one categorical code.
func (cb *ColumnarBatch) code(off, w, r int) int {
	if w == 1 {
		return int(cb.buf[off+r])
	}
	return int(binary.LittleEndian.Uint16(cb.buf[off+2*r:]))
}

// catCode reads record r's code in categorical column c (the label when
// c is numCategoricalColumns).
func (cb *ColumnarBatch) catCode(c, r int) int {
	if cb.staging {
		return int(cb.staged[r].codes[c])
	}
	if c == numCategoricalColumns {
		return cb.code(cb.labelOff, cb.labelW, r)
	}
	return cb.code(cb.catOff[c], cb.catW[c], r)
}

// numericRow writes record r's raw numeric features into dst.
func (cb *ColumnarBatch) numericRow(r int, dst []float64) {
	dst = dst[:numNumeric]
	switch {
	case cb.staging:
		copy(dst, cb.staged[r].num[:])
	case cb.f32:
		off, stride := cb.numOff+r*4, cb.rows*4
		for j := range dst {
			dst[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(cb.buf[off:])))
			off += stride
		}
	default:
		off, stride := cb.numOff+r*8, cb.rows*8
		for j := range dst {
			dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(cb.buf[off:]))
			off += stride
		}
	}
}

// Record materializes record r as a Record struct — the slow path for
// tooling and tests; the serving dataplane never calls it.
func (cb *ColumnarBatch) Record(r int) (Record, error) {
	if r < 0 || r >= cb.rows {
		return Record{}, fmt.Errorf("kdd: columnar record %d of %d", r, cb.rows)
	}
	var vals [numNumeric]float64
	cb.numericRow(r, vals[:])
	rec := recordFromNumeric(vals)
	rec.Protocol = cb.syms[0][cb.catCode(0, r)]
	rec.Service = cb.syms[1][cb.catCode(1, r)]
	rec.Flag = cb.syms[2][cb.catCode(2, r)]
	rec.Label = cb.Label(r)
	return rec, nil
}

// recordFromNumeric is the inverse of Record.NumericFeaturesInto.
func recordFromNumeric(v [numNumeric]float64) Record {
	return Record{
		Duration: v[0], SrcBytes: v[1], DstBytes: v[2],
		Land: v[3] != 0, WrongFragment: v[4], Urgent: v[5],
		Hot: v[6], NumFailedLogins: v[7], LoggedIn: v[8] != 0,
		NumCompromised: v[9], RootShell: v[10], SuAttempted: v[11],
		NumRoot: v[12], NumFileCreations: v[13], NumShells: v[14],
		NumAccessFiles: v[15], NumOutboundCmds: v[16],
		IsHostLogin: v[17] != 0, IsGuestLogin: v[18] != 0,
		Count: v[19], SrvCount: v[20],
		SerrorRate: v[21], SrvSerrorRate: v[22],
		RerrorRate: v[23], SrvRerrorRate: v[24],
		SameSrvRate: v[25], DiffSrvRate: v[26], SrvDiffHostRate: v[27],
		DstHostCount: v[28], DstHostSrvCount: v[29],
		DstHostSameSrvRate: v[30], DstHostDiffSrvRate: v[31],
		DstHostSameSrcPortRate: v[32], DstHostSrvDiffHostRate: v[33],
		DstHostSerrorRate: v[34], DstHostSrvSerrorRate: v[35],
		DstHostRerrorRate: v[36], DstHostSrvRerrorRate: v[37],
	}
}

// codeWidth is the wire width of codes against an n-symbol table.
func codeWidth(n int) int {
	if n <= 256 {
		return 1
	}
	return 2
}

// ReadColumnarBatch reads and validates the next frame from r into cb,
// reusing cb's buffers. It returns io.EOF (exactly) when the stream is
// cleanly exhausted before a frame starts; any other failure — truncated
// frame, bad magic, cap violation, shape disagreement, out-of-range
// code — returns a descriptive error. After a successful read the
// previous contents of cb are gone; the frame's payload is only valid
// until the next call.
func ReadColumnarBatch(r io.Reader, cb *ColumnarBatch, lim ColumnarLimits) error {
	if lim.MaxRows <= 0 || lim.MaxRows > columnarMaxRows {
		lim.MaxRows = columnarMaxRows
	}
	if lim.MaxFrameBytes <= 0 || lim.MaxFrameBytes > columnarMaxBytes {
		lim.MaxFrameBytes = columnarMaxBytes
	}
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:1]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("kdd: read columnar frame: %w", err)
	}
	if _, err := io.ReadFull(r, pre[1:]); err != nil {
		return fmt.Errorf("kdd: read columnar frame header: %w", noEOF(err))
	}
	if [8]byte(pre[:8]) != columnarMagic {
		return fmt.Errorf("kdd: not a columnar frame (magic %q)", pre[:8])
	}
	bodyLen := int(binary.LittleEndian.Uint32(pre[8:]))
	if bodyLen > lim.MaxFrameBytes {
		return fmt.Errorf("kdd: columnar frame of %d bytes exceeds cap %d", bodyLen, lim.MaxFrameBytes)
	}
	// Minimum body: flags + rows + nNum + nCat + three 1-symbol tables.
	if bodyLen < 1+4+2+2+3*(2+2) {
		return fmt.Errorf("kdd: columnar frame body of %d bytes too short", bodyLen)
	}
	// Read the body incrementally, growing only as bytes actually
	// arrive, so a corrupt length cannot force a large allocation from
	// a short stream.
	buf := cb.buf[:0]
	for len(buf) < bodyLen {
		k := min(bodyLen-len(buf), columnarReadChunk)
		if cap(buf) < len(buf)+k {
			buf = append(buf, make([]byte, k)...)
		} else {
			buf = buf[:len(buf)+k]
		}
		if _, err := io.ReadFull(r, buf[len(buf)-k:]); err != nil {
			cb.buf = buf[:0]
			return fmt.Errorf("kdd: read columnar frame body: %w", noEOF(err))
		}
	}
	cb.buf = buf
	if err := cb.parse(lim); err != nil {
		cb.rows = 0
		return err
	}
	return nil
}

// noEOF turns a bare io.EOF into io.ErrUnexpectedEOF: only a clean
// stream end before any frame byte is a true EOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// parse validates the frame body in cb.buf and records the payload
// offsets.
func (cb *ColumnarBatch) parse(lim ColumnarLimits) error {
	cb.staging, cb.staged = false, cb.staged[:0]
	buf := cb.buf
	flags := buf[0]
	if flags&^(columnarFlagF32|columnarFlagLabels) != 0 {
		return fmt.Errorf("kdd: columnar frame has unknown flags %#x", flags)
	}
	cb.f32 = flags&columnarFlagF32 != 0
	cb.hasLabels = flags&columnarFlagLabels != 0
	rows := int(binary.LittleEndian.Uint32(buf[1:]))
	if rows < 1 || rows > lim.MaxRows {
		return fmt.Errorf("kdd: columnar frame has %d rows, want [1, %d]", rows, lim.MaxRows)
	}
	cb.rows = rows
	nNum := int(binary.LittleEndian.Uint16(buf[5:]))
	nCat := int(binary.LittleEndian.Uint16(buf[7:]))
	if nNum != len(NumericFeatureNames) || nCat != numCategoricalColumns {
		return fmt.Errorf("kdd: columnar frame has %dx%d columns, want %dx%d (schema mismatch)",
			nNum, nCat, len(NumericFeatureNames), numCategoricalColumns)
	}
	off := 9
	nTables := numCategoricalColumns
	if cb.hasLabels {
		nTables++
	}
	for t := 0; t < nTables; t++ {
		cb.syms[t] = cb.syms[t][:0]
		if off+2 > len(buf) {
			return fmt.Errorf("kdd: columnar frame truncated in symbol table %d", t)
		}
		nSyms := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if nSyms < 1 || nSyms > columnarMaxSyms {
			return fmt.Errorf("kdd: columnar symbol table %d has %d symbols, want [1, %d]", t, nSyms, columnarMaxSyms)
		}
		for s := 0; s < nSyms; s++ {
			if off >= len(buf) {
				return fmt.Errorf("kdd: columnar frame truncated in symbol table %d", t)
			}
			slen := int(buf[off])
			off++
			if slen < 1 {
				return fmt.Errorf("kdd: columnar symbol table %d has an empty symbol", t)
			}
			if off+slen > len(buf) {
				return fmt.Errorf("kdd: columnar frame truncated in symbol table %d", t)
			}
			cb.syms[t] = append(cb.syms[t], string(buf[off:off+slen]))
			off += slen
		}
	}
	if !cb.hasLabels {
		cb.syms[numCategoricalColumns] = cb.syms[numCategoricalColumns][:0]
	}

	// Payload shape must agree exactly with the header: every column is
	// a full run of rows values, nothing more, nothing less.
	valSize := 8
	if cb.f32 {
		valSize = 4
	}
	want := nNum * rows * valSize
	cb.numOff = off
	for c := 0; c < numCategoricalColumns; c++ {
		cb.catW[c] = codeWidth(len(cb.syms[c]))
		cb.catOff[c] = off + want
		want += rows * cb.catW[c]
	}
	if cb.hasLabels {
		cb.labelW = codeWidth(len(cb.syms[numCategoricalColumns]))
		cb.labelOff = off + want
		want += rows * cb.labelW
	} else {
		cb.labelOff, cb.labelW = 0, 0
	}
	if len(buf)-off != want {
		return fmt.Errorf("kdd: columnar payload of %d bytes disagrees with declared shape (%d rows -> %d bytes)",
			len(buf)-off, rows, want)
	}

	// Range-check every categorical code against its table up front, so
	// the encode pass can index the resolution tables unguarded.
	for c := 0; c < numCategoricalColumns; c++ {
		n := len(cb.syms[c])
		for r := 0; r < rows; r++ {
			if code := cb.code(cb.catOff[c], cb.catW[c], r); code >= n {
				return fmt.Errorf("kdd: record %d: %s code %d outside symbol table of %d", r, categoricalNames[c], code, n)
			}
		}
	}
	if cb.hasLabels {
		n := len(cb.syms[numCategoricalColumns])
		for r := 0; r < rows; r++ {
			if code := cb.code(cb.labelOff, cb.labelW, r); code >= n {
				return fmt.Errorf("kdd: record %d: label code %d outside symbol table of %d", r, code, n)
			}
		}
	}
	cb.bound = false
	return nil
}

// BindColumnar resolves the frame's symbol tables against the encoder's
// vocabulary: every (column, code) pair maps to an offset inside the
// encoded one-hot block, computed once per frame. Unknown services fall
// into the encoder's "other" bucket — identical to the NDJSON path —
// while unknown protocols or flags resolve to -1 and only fail when a
// record actually uses them (EncodeColumnarRows reports the record).
func (e *Encoder) BindColumnar(cb *ColumnarBatch) error {
	if cb.rows == 0 {
		return fmt.Errorf("kdd: bind an empty columnar batch")
	}
	for c := 0; c < numCategoricalColumns; c++ {
		res := cb.resolved[c][:0]
		for _, sym := range cb.syms[c] {
			res = append(res, e.offset(c, sym))
		}
		cb.resolved[c] = res
	}
	cb.bound = true
	return nil
}

// EncodeColumnarRows encodes batch records [lo, hi) into the row-major
// matrix dst — record lo+r occupies dst[r*Dim() : (r+1)*Dim()] — with
// the same semantics as EncodeInto on the equivalent Record (log1p on
// the heavy-tailed columns, one-hot categoricals, unknown services in
// the other bucket), unscaled. The batch must have been bound to this
// encoder with BindColumnar. The pass is allocation-free: numeric
// values go straight from the batch into dst, and categoricals are one
// table lookup per value. Errors name the lowest bad record by its
// index in the batch. Inference runs ScaledEncoder.EncodeColumnar; this
// is the unscaled pass for tooling.
func (e *Encoder) EncodeColumnarRows(cb *ColumnarBatch, lo, hi int, dst []float64) error {
	if !cb.bound {
		return fmt.Errorf("kdd: columnar batch not bound to an encoder")
	}
	if lo < 0 || hi > cb.rows || lo > hi {
		return fmt.Errorf("kdd: columnar rows [%d, %d) outside batch of %d", lo, hi, cb.rows)
	}
	d := e.Dim()
	n := hi - lo
	if len(dst) < n*d {
		return fmt.Errorf("kdd: encode %d columnar rows into buffer of length %d, want >= %d", n, len(dst), n*d)
	}
	// Row by row: each numeric run is read sequentially across the rows,
	// and each output row is written once, contiguously.
	for r := lo; r < hi; r++ {
		row := dst[(r-lo)*d : (r-lo+1)*d]
		cb.numericRow(r, row[:numNumeric])
		if e.cfg.LogTransform {
			for _, j := range logFeatureIdxs {
				row[j] = math.Log1p(row[j])
			}
		}
		oh := row[numNumeric:]
		clear(oh)
		for c := 0; c < numCategoricalColumns; c++ {
			code := cb.catCode(c, r)
			off := cb.resolved[c][code]
			if off < 0 {
				return unknownSymbol(r, c, cb.syms[c][code])
			}
			oh[off] = 1
		}
	}
	return nil
}

// unknownSymbol is the error of record r, whose value sym in
// categorical column c is outside the encoder's vocabulary.
func unknownSymbol(r, c int, sym string) error {
	return fmt.Errorf("record %d: kdd: encode: unknown %s %q", r, categoricalNames[c], sym)
}

// ColumnarWriteOptions controls WriteColumnarBatch.
type ColumnarWriteOptions struct {
	// Float32 writes numeric columns as float32 — half the bytes, at
	// the cost of exact equivalence with the NDJSON encoding.
	Float32 bool
	// Labels appends the records' ground-truth labels as an extra
	// column (training and evaluation traffic; serving ignores it).
	Labels bool
}

// WriteColumnarBatch writes records as one GHSOMWB1 frame. The symbol
// tables carry each categorical column's distinct values in order of
// first appearance. Large streams should be split across frames (a few
// thousand records each) so receivers can bound per-frame memory.
func WriteColumnarBatch(w io.Writer, records []Record, opts ColumnarWriteOptions) error {
	if len(records) == 0 {
		return fmt.Errorf("kdd: write empty columnar batch")
	}
	if len(records) > columnarMaxRows {
		return fmt.Errorf("kdd: columnar batch of %d records exceeds cap %d", len(records), columnarMaxRows)
	}
	nTables := numCategoricalColumns
	if opts.Labels {
		nTables++
	}
	syms := make([][]string, nTables)
	idx := make([]map[string]int, nTables)
	codes := make([][]int, nTables)
	for t := range idx {
		idx[t] = make(map[string]int)
		codes[t] = make([]int, len(records))
	}
	colVal := func(rec *Record, t int) string {
		switch t {
		case 0:
			return rec.Protocol
		case 1:
			return rec.Service
		case 2:
			return rec.Flag
		default:
			return rec.Label
		}
	}
	for i := range records {
		for t := 0; t < nTables; t++ {
			v := colVal(&records[i], t)
			if len(v) < 1 || len(v) > 255 {
				return fmt.Errorf("kdd: record %d: %s %q not encodable as a symbol (1..255 bytes)",
					i, tableName(t), v)
			}
			j, ok := idx[t][v]
			if !ok {
				j = len(syms[t])
				if j >= columnarMaxSyms {
					return fmt.Errorf("kdd: %s column exceeds %d distinct symbols", tableName(t), columnarMaxSyms)
				}
				idx[t][v] = j
				syms[t] = append(syms[t], v)
			}
			codes[t][i] = j
		}
	}

	valSize := 8
	flags := byte(0)
	if opts.Float32 {
		valSize = 4
		flags |= columnarFlagF32
	}
	if opts.Labels {
		flags |= columnarFlagLabels
	}
	bodyLen := 9
	for t := 0; t < nTables; t++ {
		bodyLen += 2
		for _, s := range syms[t] {
			bodyLen += 1 + len(s)
		}
	}
	bodyLen += len(NumericFeatureNames) * len(records) * valSize
	for t := 0; t < nTables; t++ {
		bodyLen += len(records) * codeWidth(len(syms[t]))
	}
	if bodyLen > columnarMaxBytes {
		return fmt.Errorf("kdd: columnar frame of %d bytes exceeds cap %d; split the batch", bodyLen, columnarMaxBytes)
	}

	le := binary.LittleEndian
	buf := make([]byte, 0, 12+bodyLen)
	buf = append(buf, columnarMagic[:]...)
	buf = le.AppendUint32(buf, uint32(bodyLen))
	buf = append(buf, flags)
	buf = le.AppendUint32(buf, uint32(len(records)))
	buf = le.AppendUint16(buf, uint16(len(NumericFeatureNames)))
	buf = le.AppendUint16(buf, numCategoricalColumns)
	for t := 0; t < nTables; t++ {
		buf = le.AppendUint16(buf, uint16(len(syms[t])))
		for _, s := range syms[t] {
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	}
	// Transpose row-major records into column-major runs in one pass.
	nNum := len(NumericFeatureNames)
	numeric := make([]float64, nNum*len(records))
	var vals [38]float64
	for i := range records {
		records[i].NumericFeaturesInto(vals[:])
		for j := 0; j < nNum; j++ {
			numeric[j*len(records)+i] = vals[j]
		}
	}
	for _, v := range numeric {
		if opts.Float32 {
			buf = le.AppendUint32(buf, math.Float32bits(float32(v)))
		} else {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for t := 0; t < nTables; t++ {
		w := codeWidth(len(syms[t]))
		for i := range records {
			if w == 1 {
				buf = append(buf, byte(codes[t][i]))
			} else {
				buf = le.AppendUint16(buf, uint16(codes[t][i]))
			}
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("kdd: write columnar frame: %w", err)
	}
	return nil
}

// tableName names a symbol table for error messages.
func tableName(t int) string {
	if t < numCategoricalColumns {
		return categoricalNames[t]
	}
	return "label"
}
