package kdd

// Allocation-lean NDJSON record parsing: the legacy /detect wire format.
//
// encoding/json's Decoder costs several allocations and a reflection
// walk per record, which at live detection rates makes the wire step
// more expensive than the math. RecordParser accepts the same stream
// (whitespace-separated JSON values, exactly like json.Decoder) but
// parses the common shape in one pass: a value starting with '{' is
// framed by the next newline (bytes.IndexByte, refilling up to the
// record cap) and that trimmed line is parsed once as a flat object
// with exact Go field names, plain strings and plain numbers, reusing
// one buffer and interned categorical strings, so the steady state
// allocates nothing per record. A line in the exact shape encoding/json
// writes (struct field order, compact separators) is matched token by
// token against one ordered field table; any other flat object is
// parsed key by key. Any other line (several values,
// pretty-printed, escapes, case-folded or unknown keys, non-objects, no
// newline before the cap) falls through unchanged to brace-balancing
// scanValue plus json.Unmarshal, so accept/reject behavior matches the
// stock decoder. Read errors are sticky, so an error the newline
// look-ahead met is what the fallback reports.
//
// The field loop has two destinations: a Record (Next, AppendAll), or a
// staged row of a ColumnarBatch (AppendColumnar), where each value lands
// in its column and each categorical value becomes a code in the
// batch's symbol tables. Both run the same loop and the same fallback,
// so they accept and reject the same streams.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// maxNDJSONRecordBytes caps one JSON value in the stream; a request
// body is additionally capped by the HTTP layer.
const maxNDJSONRecordBytes = 1 << 20

// ndjsonReadChunk is the refill granularity of the parser's buffer.
const ndjsonReadChunk = 32 << 10

// RecordParser reads a stream of JSON-encoded Records — newline- or
// whitespace-separated, exactly the values json.Decoder would accept.
// It is not safe for concurrent use; pool parsers across requests via
// Reset.
type RecordParser struct {
	r   io.Reader
	buf []byte
	pos int   // next unread byte in buf
	eof bool  // underlying reader exhausted
	err error // first non-EOF read error; sticky
	// buf[pos:lineEnd] holds no '\n': framing never rescans a byte.
	lineEnd int
	// intern maps each categorical value seen to its symbol id, an index
	// into syms; id 0 is the empty string.
	intern map[string]uint32
	syms   []string
	// spare receives records AppendAll cannot place in dst, and the
	// fallback records of AppendColumnar; json.Unmarshal makes it escape,
	// so it lives here rather than on the stack.
	spare Record
	// cb is the batch AppendColumnar is filling. codes maps a symbol id
	// to its code in cb's symbol table of each categorical column; an
	// entry is current only when its epoch is the parser's, which each
	// AppendColumnar call advances.
	cb    *ColumnarBatch
	epoch uint64
	codes [numCategoricalColumns + 1][]symbolCode
}

// symbolCode is one entry of the parser's symbol id -> batch code map.
type symbolCode struct {
	epoch uint64
	code  uint32
}

// NewRecordParser returns a parser reading from r.
func NewRecordParser(r io.Reader) *RecordParser {
	p := &RecordParser{intern: make(map[string]uint32, 64), syms: make([]string, 1, 64)}
	p.Reset(r)
	return p
}

// Reset rebinds the parser to a new stream, keeping its buffer and
// intern table (the categorical vocabularies are shared across
// requests, which is exactly why interning pays).
func (p *RecordParser) Reset(r io.Reader) {
	p.r = r
	p.buf = p.buf[:0]
	p.pos, p.lineEnd = 0, 0
	p.eof, p.err = false, nil
}

// Next parses the next record in the stream into rec (which is zeroed
// first). It returns io.EOF exactly when the stream ends cleanly before
// another value starts.
func (p *RecordParser) Next(rec *Record) error {
	return p.next(unsafe.Pointer(rec), toRecord)
}

// next parses the next value into dst, a *Record (sel toRecord) or a
// *stagedRow (sel toRow), which it clears first.
func (p *RecordParser) next(dst unsafe.Pointer, sel int) error {
	if err := p.skipSpace(); err != nil {
		return err // io.EOF here is a clean end of stream
	}
	p.clear(dst, sel)
	if p.buf[p.pos] == '{' {
		if line, ok := p.frameLine(); ok && p.parseObjectFast(line, dst, sel) {
			p.pos += len(line)
			return nil
		}
		p.clear(dst, sel)
	}
	val, err := p.scanValue()
	if err != nil {
		return err
	}
	if val[0] == '{' {
		if p.parseObjectFast(val, dst, sel) {
			return nil
		}
		p.clear(dst, sel)
	}
	// Fallback: bytes outside the fast shape go through the stock
	// decoder for identical accept/reject behavior.
	if sel == toRecord {
		return json.Unmarshal(val, (*Record)(dst))
	}
	p.spare = Record{}
	if err := json.Unmarshal(val, &p.spare); err != nil {
		return err
	}
	p.stage((*stagedRow)(dst), &p.spare)
	return nil
}

// clear zeroes dst: a Record, or a staged row whose codes are unset.
func (p *RecordParser) clear(dst unsafe.Pointer, sel int) {
	if sel == toRecord {
		*(*Record)(dst) = Record{}
		return
	}
	*(*stagedRow)(dst) = stagedRow{codes: [numCategoricalColumns + 1]uint32{noCode, noCode, noCode, noCode}}
}

// frameLine returns the line at p.pos minus its newline and trailing
// whitespace (the stream's last line needs no newline). It reports false
// on a read error or no newline within maxNDJSONRecordBytes; scanValue,
// which has no per-line cap, then takes over.
func (p *RecordParser) frameLine() ([]byte, bool) {
	for {
		p.lineEnd = max(p.lineEnd, p.pos)
		if i := bytes.IndexByte(p.buf[p.lineEnd:], '\n'); i >= 0 {
			p.lineEnd += i
			break
		}
		p.lineEnd = len(p.buf)
		if len(p.buf)-p.pos >= maxNDJSONRecordBytes {
			return nil, false
		}
		if _, err := p.fill(); err == io.EOF {
			break
		} else if err != nil {
			return nil, false
		}
	}
	end := p.lineEnd
	for end > p.pos && isJSONSpace(p.buf[end-1]) {
		end--
	}
	return p.buf[p.pos:end], true
}

// fill discards the consumed prefix of the buffer and appends up to
// ndjsonReadChunk more bytes from the reader. It returns how many bytes
// were discarded (p.pos and p.lineEnd are adjusted here; other indices
// into p.buf must drop as much). The first non-EOF read error is sticky.
func (p *RecordParser) fill() (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	if p.eof {
		return 0, io.EOF
	}
	slid := 0
	if p.pos > 0 {
		slid = p.pos
		n := copy(p.buf, p.buf[p.pos:])
		p.buf = p.buf[:n]
		p.pos = 0
		p.lineEnd -= slid
	}
	if len(p.buf) >= maxNDJSONRecordBytes {
		return slid, fmt.Errorf("kdd: JSON record exceeds %d bytes", maxNDJSONRecordBytes)
	}
	start := len(p.buf)
	if cap(p.buf) < start+ndjsonReadChunk {
		grown := make([]byte, start, start+ndjsonReadChunk)
		copy(grown, p.buf)
		p.buf = grown
	}
	n, err := p.r.Read(p.buf[start : start+ndjsonReadChunk])
	p.buf = p.buf[:start+n]
	if err == io.EOF {
		p.eof = true
		if n == 0 {
			return slid, io.EOF
		}
		return slid, nil
	}
	p.err = err
	return slid, err
}

// peek returns the next byte without consuming it, refilling as needed.
func (p *RecordParser) peek() (byte, error) {
	for p.pos >= len(p.buf) {
		if _, err := p.fill(); err != nil {
			return 0, err
		}
	}
	return p.buf[p.pos], nil
}

func isJSONSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// skipSpace consumes inter-value whitespace; io.EOF means clean end.
func (p *RecordParser) skipSpace() error {
	for {
		c, err := p.peek()
		if err != nil {
			return err
		}
		if !isJSONSpace(c) {
			return nil
		}
		p.pos++
	}
}

// scanValue consumes one complete JSON value and returns its bytes
// (valid until the next fill). Objects and arrays are scanned with
// string-aware brace balancing; scalars run to the next delimiter.
// The scan start equals p.pos throughout, so after a fill (which slides
// consumed bytes out and moves p.pos) the value always begins at p.pos.
func (p *RecordParser) scanValue() ([]byte, error) {
	c := p.buf[p.pos]
	// refill extends the buffer so index i (relative to p.pos) exists;
	// it returns the adjusted absolute index.
	refill := func(i int) (int, error) {
		for i >= len(p.buf) {
			slid, err := p.fill()
			i -= slid
			if err != nil {
				return i, err
			}
		}
		return i, nil
	}
	switch c {
	case '{', '[':
		depth := 0
		inStr, esc := false, false
		for i := p.pos; ; i++ {
			var err error
			if i, err = refill(i); err != nil {
				return nil, unexpectedEnd(err)
			}
			b := p.buf[i]
			switch {
			case esc:
				esc = false
			case inStr && b == '\\':
				esc = true
			case b == '"':
				inStr = !inStr
			case !inStr && (b == '{' || b == '['):
				depth++
			case !inStr && (b == '}' || b == ']'):
				depth--
				if depth == 0 {
					start := p.pos
					p.pos = i + 1
					return p.buf[start : i+1], nil
				}
			}
		}
	case '"':
		esc := false
		for i := p.pos + 1; ; i++ {
			var err error
			if i, err = refill(i); err != nil {
				return nil, unexpectedEnd(err)
			}
			b := p.buf[i]
			if esc {
				esc = false
			} else if b == '\\' {
				esc = true
			} else if b == '"' {
				start := p.pos
				p.pos = i + 1
				return p.buf[start : i+1], nil
			}
		}
	default:
		// Scalar: number / true / false / null (or garbage the fallback
		// will reject). Runs to whitespace or a structural delimiter.
		for i := p.pos; ; i++ {
			var err error
			if i, err = refill(i); err != nil {
				if err == io.EOF {
					start := p.pos
					p.pos = len(p.buf)
					return p.buf[start:], nil
				}
				return nil, err
			}
			// json.Decoder ends a top-level literal at its last letter:
			// "null0" is null, then 0. Null is the one scalar a Record
			// accepts, so it alone must be split off to keep the record
			// count.
			if i-p.pos == 4 && string(p.buf[p.pos:i]) == "null" {
				start := p.pos
				p.pos = i
				return p.buf[start:i], nil
			}
			b := p.buf[i]
			if isJSONSpace(b) || b == ',' || b == '}' || b == ']' || b == '{' || b == '[' || b == '"' {
				if i == p.pos {
					// A delimiter where a value must begin ("," / "}" /
					// ...): invalid JSON, same verdict as json.Decoder.
					return nil, fmt.Errorf("kdd: invalid character %q looking for beginning of value", b)
				}
				start := p.pos
				p.pos = i
				return p.buf[start:i], nil
			}
		}
	}
}

func unexpectedEnd(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// fieldKind is how the field loop stores one value: into a Record
// field, or into a staged row of a columnar batch.
type fieldKind uint8

const (
	floatField   fieldKind = iota // float64 at off (Record field or row column)
	boolField                     // Record bool at off
	boolColumn                    // row float64 column at off, 0 or 1
	stringField                   // Record string at off
	symbolColumn                  // row symbol code of categorical column off
)

// The field loop's two destinations: Next and AppendAll parse into a
// Record, AppendColumnar into a staged row.
const (
	toRecord = iota
	toRow
)

// fieldDst is where one field's value lands in one destination.
type fieldDst struct {
	kind fieldKind
	off  uintptr
}

// recordField is one Record field as the fast parser sees it: the
// compact key token encoding/json writes before its value, that token
// as four little-endian words with masks covering its length, and where
// the value lands in each destination.
type recordField struct {
	key   string // `"Name":`
	words [4]uint64
	masks [4]uint64
	dst   [2]fieldDst
}

// recordFields lists Record's fields in declaration order, the order
// encoding/json writes them in; recordFieldIndex maps a field name to
// its entry. Both derive from the struct itself (and a staged row's
// columns from NumericFeaturesInto), so the parser cannot drift from
// either.
var recordFields, recordFieldIndex = buildRecordFields()

// symbolColumns maps each string field to its categorical column.
var symbolColumns = map[string]uintptr{"Protocol": 0, "Service": 1, "Flag": 2, "Label": numCategoricalColumns}

func buildRecordFields() ([]recordField, map[string]int) {
	t := reflect.TypeFor[Record]()
	fields := make([]recordField, t.NumField())
	index := make(map[string]int, len(fields))
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() || f.Tag != "" {
			panic(fmt.Sprintf("kdd: Record.%s (tag %q) is outside the NDJSON parser's shape", f.Name, f.Tag))
		}
		rf := recordField{key: `"` + f.Name + `":`}
		switch f.Type {
		case reflect.TypeFor[float64]():
			rf.dst = [2]fieldDst{{floatField, f.Offset}, {floatField, numericColumnOffset(f)}}
		case reflect.TypeFor[bool]():
			rf.dst = [2]fieldDst{{boolField, f.Offset}, {boolColumn, numericColumnOffset(f)}}
		case reflect.TypeFor[string]():
			c, ok := symbolColumns[f.Name]
			if !ok {
				panic(fmt.Sprintf("kdd: Record.%s has no categorical column", f.Name))
			}
			rf.dst = [2]fieldDst{{stringField, f.Offset}, {symbolColumn, c}}
		default:
			panic(fmt.Sprintf("kdd: Record.%s (%s) is outside the NDJSON parser's shape", f.Name, f.Type))
		}
		var padded, mask [32]byte
		if copy(padded[:], rf.key) != len(rf.key) {
			panic(fmt.Sprintf("kdd: Record.%s key token longer than %d bytes", f.Name, len(padded)))
		}
		for b := range rf.key {
			mask[b] = 0xff
		}
		for w := range rf.words {
			rf.words[w] = binary.LittleEndian.Uint64(padded[8*w:])
			rf.masks[w] = binary.LittleEndian.Uint64(mask[8*w:])
		}
		fields[i] = rf
		index[f.Name] = i
	}
	return fields, index
}

// numericColumnOffset returns the offset inside a stagedRow of the
// numeric column NumericFeaturesInto fills from Record field f.
func numericColumnOffset(f reflect.StructField) uintptr {
	var probe Record
	at := unsafe.Add(unsafe.Pointer(&probe), f.Offset)
	if f.Type.Kind() == reflect.Bool {
		*(*bool)(at) = true
	} else {
		*(*float64)(at) = 1
	}
	var vals [numNumeric]float64
	probe.NumericFeaturesInto(vals[:])
	col := -1
	for j, v := range vals {
		if v != 0 {
			if col >= 0 {
				panic(fmt.Sprintf("kdd: Record.%s fills several numeric columns", f.Name))
			}
			col = j
		}
	}
	if col < 0 {
		panic(fmt.Sprintf("kdd: Record.%s fills no numeric column", f.Name))
	}
	return unsafe.Offsetof(stagedRow{}.num) + uintptr(col)*8
}

// parseObjectFast parses a flat Record object with exact field names,
// key by key in any order, with JSON whitespace between tokens, into dst
// (see next). It reports false, leaving dst partially written, whenever
// the input steps outside that shape; the caller then falls back.
//
// encoding/json writes a Record's fields in declaration order, so the
// loop first tries the whole `"Key":` token of the field after the one
// it just parsed and looks the key up only when that does not match.
func (p *RecordParser) parseObjectFast(val []byte, dst unsafe.Pointer, sel int) bool {
	i := skipJSONSpace(val, 1) // past '{'
	if i < len(val) && val[i] == '}' {
		return i == len(val)-1
	}
	next := 0 // the field encoding/json writes next
	for {
		k := next
		// Does val[i:] start with the key token? Four masked words are
		// compared without a branch; only a token within 32 bytes of the
		// end of val falls back to a byte compare.
		match := false
		if k < len(recordFields) {
			f := &recordFields[k]
			if len(val)-i >= 32 {
				b := (*[32]byte)(val[i:])
				le := binary.LittleEndian
				match = (le.Uint64(b[0:8])^f.words[0])&f.masks[0]|
					(le.Uint64(b[8:16])^f.words[1])&f.masks[1]|
					(le.Uint64(b[16:24])^f.words[2])&f.masks[2]|
					(le.Uint64(b[24:32])^f.words[3])&f.masks[3] == 0
			} else {
				match = hasPrefix(val[i:], f.key)
			}
		}
		if match {
			i += len(recordFields[k].key)
		} else if k, i = lookupKey(val, i); k < 0 {
			return false
		}
		f := recordFields[k].dst[sel]
		if i+1 < len(val) && f.kind == floatField && val[i]-'0' <= 9 && (val[i+1] == ',' || val[i+1] == '}') {
			// A lone digit before the next field or the closing brace
			// (flags and counters) is its own value.
			*(*float64)(unsafe.Add(dst, f.off)) = float64(val[i] - '0')
			i++
		} else {
			var ok bool
			if i, ok = p.parseField(f, val, i, dst); !ok {
				return false
			}
		}
		next = k + 1
		// ',' before the next key, or '}' as the scanned value's last byte.
		if i = skipJSONSpace(val, i); i >= len(val) || val[i] != ',' {
			return i == len(val)-1 && val[i] == '}'
		}
		i++
	}
}

// lookupKey parses the `"Key"` and ':' at or after val[i], skipping
// whitespace before each, and returns the field index and the index past
// the colon, or k = -1 when the key is missing or names no Record field.
// A key with escapes matches no field name, so the lookup rejects it; so
// does an unknown key, which json.Unmarshal would skip or match
// case-folded — either way, not the fast shape.
func lookupKey(val []byte, i int) (k, j int) {
	if i = skipJSONSpace(val, i); i >= len(val) || val[i] != '"' {
		return -1, i
	}
	i++
	n := bytes.IndexByte(val[i:], '"')
	if n < 0 {
		return -1, i
	}
	k, known := recordFieldIndex[string(val[i:i+n])]
	if !known {
		return -1, i
	}
	i = skipJSONSpace(val, i+n+1)
	if i >= len(val) || val[i] != ':' {
		return -1, i
	}
	return k, i + 1
}

// skipJSONSpace returns the index of the first non-whitespace byte of
// val at or after i. Compact JSON has none, so the common case is one
// inlined compare.
func skipJSONSpace(val []byte, i int) int {
	if i < len(val) && !isJSONSpace(val[i]) {
		return i
	}
	return skipJSONSpaceRun(val, i)
}

func skipJSONSpaceRun(val []byte, i int) int {
	for i < len(val) && isJSONSpace(val[i]) {
		i++
	}
	return i
}

// parseField parses the value at or after val[i] (past any whitespace)
// into dst as f says and returns the index past it. Type mismatches and
// out-of-shape values report false.
func (p *RecordParser) parseField(f fieldDst, val []byte, i int, dst unsafe.Pointer) (int, bool) {
	i = skipJSONSpace(val, i)
	if i >= len(val) {
		return i, false
	}
	// null leaves any field untouched, matching encoding/json.
	if val[i] == 'n' {
		if hasPrefix(val[i:], "null") {
			return i + 4, true
		}
		return i, false
	}
	// The offsets were read off Record's and stagedRow's own types, so
	// each cast below is to the field's declared type.
	at := unsafe.Add(dst, f.off)
	switch f.kind {
	case floatField:
		v, n, ok := parseJSONNumber(val[i:])
		if !ok {
			return i, false
		}
		*(*float64)(at) = v
		return i + n, true
	case boolField, boolColumn:
		var v bool
		switch {
		case hasPrefix(val[i:], "true"):
			v, i = true, i+4
		case hasPrefix(val[i:], "false"):
			v, i = false, i+5
		default:
			return i, false
		}
		if f.kind == boolField {
			*(*bool)(at) = v
		} else {
			*(*float64)(at) = b2f(v)
		}
		return i, true
	default:
		if val[i] != '"' {
			return i, false
		}
		j := i + 1
		for j < len(val) && val[j] != '"' && val[j] != '\\' && val[j] >= 0x20 {
			j++
		}
		if j >= len(val) || val[j] != '"' || !utf8.Valid(val[i+1:j]) {
			return i, false // escapes, control bytes, bad UTF-8: slow path
		}
		if f.kind == stringField {
			*(*string)(at) = p.internString(val[i+1 : j])
		} else {
			row := (*stagedRow)(dst)
			row.codes[f.off] = p.symbolCode(int(f.off), val[i+1:j])
		}
		return j + 1, true
	}
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// Caps of the intern table: longer or further values are not interned.
const (
	maxInternBytes   = 64
	maxInternSymbols = 4096
)

// internID returns b's symbol id, interning b on first sight, or -1 when
// b is outside the table's caps. The categorical vocabularies
// (protocols, services, flags, labels) are tiny, so after warm-up this
// never allocates.
func (p *RecordParser) internID(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	if len(b) > maxInternBytes {
		return -1
	}
	if id, ok := p.intern[string(b)]; ok { // no-alloc map lookup idiom
		return int(id)
	}
	if len(p.syms) > maxInternSymbols {
		return -1
	}
	s := string(b)
	p.intern[s] = uint32(len(p.syms))
	p.syms = append(p.syms, s)
	return len(p.syms) - 1
}

// internString returns a string for b, reusing a previously allocated
// copy when the same bytes have been seen.
func (p *RecordParser) internString(b []byte) string {
	if id := p.internID(b); id >= 0 {
		return p.syms[id]
	}
	return string(b)
}

// symbolCode returns the code of b in the symbol table of p.cb's
// categorical column c, adding b to that table on its first use in the
// batch. One intern lookup finds b's id, and the id its code.
func (p *RecordParser) symbolCode(c int, b []byte) uint32 {
	id := p.internID(b)
	if id < 0 {
		return p.cb.addSymbol(c, string(b))
	}
	if id < len(p.codes[c]) && p.codes[c][id].epoch == p.epoch {
		return p.codes[c][id].code
	}
	code := p.cb.addSymbol(c, p.syms[id])
	p.setCode(c, id, code)
	return code
}

// setCode records that symbol id has code in the current batch's column c.
func (p *RecordParser) setCode(c, id int, code uint32) {
	if id >= len(p.codes[c]) {
		p.codes[c] = append(p.codes[c], make([]symbolCode, len(p.syms)-len(p.codes[c]))...)
	}
	p.codes[c][id] = symbolCode{epoch: p.epoch, code: code}
}

// bind makes cb the batch symbolCode fills. A batch holding a frame (or
// nothing) becomes an empty NDJSON batch. A new epoch empties the code
// map: a value cb already holds then gets a second code, which names
// the same symbol.
func (p *RecordParser) bind(cb *ColumnarBatch) {
	p.cb = cb
	if !cb.staging {
		cb.Reset()
	}
	p.epoch++
}

// stage copies a record parsed by the fallback into a staged row.
func (p *RecordParser) stage(row *stagedRow, rec *Record) {
	rec.NumericFeaturesInto(row.num[:])
	for c, s := range [...]string{rec.Protocol, rec.Service, rec.Flag, rec.Label} {
		row.codes[c] = p.symbolCode(c, []byte(s))
	}
}

// parseJSONNumber parses a strict JSON number at the head of b,
// returning the value, bytes consumed, and ok. It refuses anything the
// JSON grammar refuses (leading '+', bare '.', leading zeros) so the
// fallback path produces the canonical error instead. Digits fold into
// the mantissa while they are scanned; with ≤ 19 digits, a mantissa of
// at most 2^53 and a decimal exponent within ±22 the value is one exact
// float multiply or divide, which is correctly rounded and therefore
// bit-identical to strconv.ParseFloat. Everything else defers to
// strconv.
func parseJSONNumber(b []byte) (float64, int, bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	if i >= len(b) || !isDigit(b[i]) {
		return 0, 0, false
	}
	var mant uint64 // wraps past 19 digits; nd then rules the fast path out
	nd := 0
	// Integer part: '0' alone or nonzero-led digit run.
	if b[i] == '0' {
		i++
		if i < len(b) && isDigit(b[i]) {
			return 0, 0, false // leading zero
		}
	} else {
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
			nd++
		}
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		// Long fractions (rates, byte counts) fold eight digits at a time.
		for i+8 <= len(b) {
			v, ok := eightDigits(b[i : i+8])
			if !ok {
				break
			}
			mant = mant*100_000_000 + v
			i += 8
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if frac = i - start; frac == 0 {
			return 0, 0, false
		}
		nd += frac
	}
	exp := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, 0, false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			if exp < 10000 {
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if expNeg {
			exp = -exp
		}
	}
	if e10 := exp - frac; nd <= 19 && mant <= 1<<53 && e10 >= -22 && e10 <= 22 {
		v := float64(mant)
		if e10 > 0 {
			v *= pow10Table[e10]
		} else if e10 < 0 {
			v /= pow10Table[-e10]
		}
		if neg {
			v = -v
		}
		return v, i, true
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil || math.IsInf(v, 0) {
		// Overflow: encoding/json reports its own error; take slow path.
		return 0, 0, false
	}
	return v, i, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// eightDigits reports whether b[:8] are all ASCII digits and, if so,
// returns their decimal value, computed a word at a time.
func eightDigits(b []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(b)
	// Every byte is 0x30..0x39 exactly when its high nibble is 3 and
	// adding 6 does not carry out of its low nibble.
	if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
		return 0, false
	}
	// The first digit is the low byte: combine digit pairs, then pairs
	// of pairs, then the two halves.
	v = (v & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (v & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32, true
}

// pow10Table holds the exactly-representable powers of ten 1e0..1e22.
var pow10Table = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ReadRecordsNDJSON parses a whole NDJSON stream with the fast parser,
// appending to dst (which may be nil or a pooled slice with spare
// capacity). maxRecords > 0 caps the count. Errors report 1-based
// record positions like the json.Decoder loop it replaces.
func ReadRecordsNDJSON(r io.Reader, dst []Record, maxRecords int) ([]Record, error) {
	p := NewRecordParser(r)
	return p.AppendAll(dst, maxRecords)
}

// AppendAll drains the parser's stream into dst.
func (p *RecordParser) AppendAll(dst []Record, maxRecords int) ([]Record, error) {
	for line := len(dst) + 1; ; line++ {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
			err := p.Next(&dst[len(dst)-1])
			if err == io.EOF {
				return dst[:len(dst)-1], nil
			}
			if err != nil {
				return dst[:len(dst)-1], fmt.Errorf("record %d: %w", line, err)
			}
		} else {
			err := p.Next(&p.spare)
			if err == io.EOF {
				return dst, nil
			}
			if err != nil {
				return dst, fmt.Errorf("record %d: %w", line, err)
			}
			dst = append(dst, p.spare)
		}
		if maxRecords > 0 && len(dst) > maxRecords {
			return dst, fmt.Errorf("request exceeds %d records", maxRecords)
		}
	}
}

// AppendColumnar drains the parser's stream into cb, after any rows cb
// holds from an earlier AppendColumnar; a batch holding a GHSOMWB1 frame
// is emptied first. It runs the field loop of AppendAll, so it accepts
// and rejects exactly the streams AppendAll does, with the same 1-based
// record positions in its errors and the same maxRecords cap; on an
// error cb keeps the records before the bad one. The fast path builds
// no Record: each value lands in the batch's staged row, and each
// categorical value costs one intern lookup, which yields its symbol
// code. A missing key or a null leaves its column zero (the empty
// symbol for a string), and on a duplicate key the last value wins, as
// with encoding/json. The batch keeps the labels.
func (p *RecordParser) AppendColumnar(cb *ColumnarBatch, maxRecords int) error {
	p.bind(cb)
	defer func() { p.cb = nil }()
	for line := cb.rows + 1; ; line++ {
		if len(cb.staged) < cap(cb.staged) {
			cb.staged = cb.staged[:len(cb.staged)+1]
		} else {
			cb.staged = append(cb.staged, stagedRow{})
		}
		row := &cb.staged[len(cb.staged)-1]
		if err := p.next(unsafe.Pointer(row), toRow); err != nil {
			cb.staged = cb.staged[:cb.rows]
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("record %d: %w", line, err)
		}
		// Keys the record did not carry name the empty symbol.
		for c, code := range row.codes {
			if code == noCode {
				row.codes[c] = p.symbolCode(c, nil)
			}
		}
		cb.rows++
		if maxRecords > 0 && cb.rows > maxRecords {
			return fmt.Errorf("request exceeds %d records", maxRecords)
		}
	}
}
