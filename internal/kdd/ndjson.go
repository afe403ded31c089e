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

import (
	"bytes"
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
	intern  map[string]string
	// spare receives records AppendAll cannot place in dst; json.Unmarshal
	// makes it escape, so it lives here rather than on AppendAll's stack.
	spare Record
}

// NewRecordParser returns a parser reading from r.
func NewRecordParser(r io.Reader) *RecordParser {
	p := &RecordParser{intern: make(map[string]string, 64)}
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
	if err := p.skipSpace(); err != nil {
		return err // io.EOF here is a clean end of stream
	}
	*rec = Record{}
	if p.buf[p.pos] == '{' {
		if line, ok := p.frameLine(); ok && p.parseObjectFast(line, rec) {
			p.pos += len(line)
			return nil
		}
		*rec = Record{}
	}
	val, err := p.scanValue()
	if err != nil {
		return err
	}
	if val[0] == '{' {
		if p.parseObjectFast(val, rec) {
			return nil
		}
		*rec = Record{}
	}
	// Fallback: bytes outside the fast shape go through the stock
	// decoder for identical accept/reject behavior.
	if err := json.Unmarshal(val, rec); err != nil {
		return err
	}
	return nil
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

// fieldKind is the JSON value shape of one Record field.
type fieldKind uint8

const (
	floatField fieldKind = iota
	boolField
	stringField
)

// recordField is one Record field as the fast parser sees it: the
// compact key token encoding/json writes before its value, the value
// shape, and where in a Record the value lands.
type recordField struct {
	key  string // `"Name":`
	kind fieldKind
	off  uintptr
}

// recordFields lists Record's fields in declaration order, the order
// encoding/json writes them in; recordFieldIndex maps a field name to
// its entry. Both derive from the struct itself, so the parser cannot
// drift from it.
var recordFields, recordFieldIndex = buildRecordFields()

func buildRecordFields() ([]recordField, map[string]int) {
	t := reflect.TypeFor[Record]()
	fields := make([]recordField, t.NumField())
	index := make(map[string]int, len(fields))
	kinds := map[reflect.Type]fieldKind{
		reflect.TypeFor[float64](): floatField,
		reflect.TypeFor[bool]():    boolField,
		reflect.TypeFor[string]():  stringField,
	}
	for i := range fields {
		f := t.Field(i)
		kind, ok := kinds[f.Type]
		if !ok || !f.IsExported() || f.Tag != "" {
			panic(fmt.Sprintf("kdd: Record.%s (%s, tag %q) is outside the NDJSON parser's shape", f.Name, f.Type, f.Tag))
		}
		fields[i] = recordField{key: `"` + f.Name + `":`, kind: kind, off: f.Offset}
		index[f.Name] = i
	}
	return fields, index
}

// parseObjectFast parses a flat Record object with exact field names,
// key by key in any order, with JSON whitespace between tokens. It
// reports false, leaving rec partially written, whenever the input steps
// outside that shape; the caller then falls back.
//
// encoding/json writes a Record's fields in declaration order, so the
// loop first tries the whole `"Key":` token of the field after the one
// it just parsed and looks the key up only when that does not match.
func (p *RecordParser) parseObjectFast(val []byte, rec *Record) bool {
	i := skipJSONSpace(val, 1) // past '{'
	if i < len(val) && val[i] == '}' {
		return i == len(val)-1
	}
	next := 0 // the field encoding/json writes next
	for {
		k := next
		if k < len(recordFields) && hasPrefix(val[i:], recordFields[k].key) {
			i += len(recordFields[k].key)
		} else if k, i = lookupKey(val, i); k < 0 {
			return false
		}
		var ok bool
		if i, ok = p.parseField(&recordFields[k], val, i, rec); !ok {
			return false
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
// val at or after i.
func skipJSONSpace(val []byte, i int) int {
	for i < len(val) && isJSONSpace(val[i]) {
		i++
	}
	return i
}

// parseField parses the value at or after val[i] (past any whitespace)
// into rec's field f and returns the index past it. Type mismatches and
// out-of-shape values report false.
func (p *RecordParser) parseField(f *recordField, val []byte, i int, rec *Record) (int, bool) {
	i = skipJSONSpace(val, i)
	if i >= len(val) {
		return i, false
	}
	// null leaves any field untouched, matching encoding/json.
	if hasPrefix(val[i:], "null") {
		return i + 4, true
	}
	// f.off and f.kind were read off Record's own type, so each cast
	// below is to the field's declared type.
	at := unsafe.Add(unsafe.Pointer(rec), f.off)
	switch f.kind {
	case floatField:
		v, n, ok := parseJSONNumber(val[i:])
		if !ok {
			return i, false
		}
		*(*float64)(at) = v
		return i + n, true
	case boolField:
		if hasPrefix(val[i:], "true") {
			*(*bool)(at) = true
			return i + 4, true
		}
		if hasPrefix(val[i:], "false") {
			*(*bool)(at) = false
			return i + 5, true
		}
		return i, false
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
		*(*string)(at) = p.internString(val[i+1 : j])
		return j + 1, true
	}
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// internString returns a string for b, reusing a previously allocated
// copy when the same bytes have been seen. The categorical vocabularies
// (protocols, services, flags, labels) are tiny, so after warm-up this
// never allocates. Oversized or high-cardinality values skip the table.
func (p *RecordParser) internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > 64 || len(p.intern) >= 4096 {
		return string(b)
	}
	if s, ok := p.intern[string(b)]; ok { // no-alloc map lookup idiom
		return s
	}
	s := string(b)
	p.intern[s] = s
	return s
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
