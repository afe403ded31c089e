package anomaly

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// AppendPredictionJSON appends p to dst as one NDJSON line, byte for
// byte what json.Encoder.Encode(p) writes with its default settings:
// fields in struct order, HTML-safe string escaping, encoding/json's
// float formatting and a trailing newline. Like the encoder it fails on
// a NaN or infinite QE or Score; dst is then returned unextended.
//
// It is a function rather than a MarshalJSON method so that
// encoding/json stays an independent oracle for these bytes.
func AppendPredictionJSON(dst []byte, p *Prediction) ([]byte, error) {
	n := len(dst)
	dst = append(dst, `{"Label":`...)
	dst = appendJSONString(dst, p.Label)
	dst = append(dst, `,"Attack":`...)
	dst = strconv.AppendBool(dst, p.Attack)
	dst = append(dst, `,"Novel":`...)
	dst = strconv.AppendBool(dst, p.Novel)
	dst = append(dst, `,"Cell":`...)
	dst = appendJSONString(dst, p.Cell)
	dst = append(dst, `,"QE":`...)
	dst, err := appendJSONFloat(dst, p.QE)
	if err != nil {
		return dst[:n], err
	}
	dst = append(dst, `,"Score":`...)
	if dst, err = appendJSONFloat(dst, p.Score); err != nil {
		return dst[:n], err
	}
	return append(dst, "}\n"...), nil
}

// appendJSONString quotes s. Printable ASCII that encoding/json leaves
// alone is copied; any other string (escapes, HTML-sensitive <>&,
// control bytes, non-ASCII, invalid UTF-8) is rare in verdicts and
// goes through json.Marshal, which escapes exactly as the encoder does.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat formats f as encoding/json formats a float64: the
// shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 on,
// with a two-digit negative exponent trimmed (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("anomaly: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
