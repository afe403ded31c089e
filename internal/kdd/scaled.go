package kdd

import (
	"fmt"
	"math"

	"ghsom/internal/preprocess"
)

// ScaledEncoder is the inference dataplane's one encode kernel: it turns
// a record into the min-max scaled vector the model sees in one pass per
// row — categorical lookup, log transform, finite check and scaling —
// from either a ColumnarBatch or a Record slice. Its tables are built
// once per pipeline, at train or load time; it is read-only afterwards
// and safe for concurrent use.
//
// Each row is checked in this order: an unknown protocol, an unknown
// flag, then a non-finite numeric feature (after the log transform). A
// multi-row call reports the lowest bad row, so both record sources name
// the same record with the same message.
type ScaledEncoder struct {
	enc *Encoder
	// Per numeric column: the log flag, the scaler's min and span, and
	// the scaled value of a raw +0.
	log             [numNumeric]bool
	min, span, zero [numNumeric]float64
	// hot0 and hot1 hold the scaled values of 0 and 1 for every one-hot
	// dimension.
	hot0, hot1 []float64
}

// NewScaledEncoder builds the kernel's tables for encoder e and a
// min-max scaler's state over its Dim() dimensions: min and span, and
// the scaler's own output for an all-zero row (zero) and an all-one row
// (one). Scaling a numeric value runs preprocess.MinMax, the scaler's
// expression, so the kernel's bits equal EncodeInto followed by the
// scaler's transform.
func NewScaledEncoder(e *Encoder, min, span, zero, one []float64) (*ScaledEncoder, error) {
	d := e.Dim()
	if len(min) != d || len(span) != d || len(zero) != d || len(one) != d {
		return nil, fmt.Errorf("kdd: scaling tables of %d/%d/%d/%d dims for an encoder of %d",
			len(min), len(span), len(zero), len(one), d)
	}
	s := &ScaledEncoder{
		enc:  e,
		hot0: append([]float64(nil), zero[numNumeric:]...),
		hot1: append([]float64(nil), one[numNumeric:]...),
	}
	for j := range s.log {
		s.log[j] = e.cfg.LogTransform && isLogFeature[j]
	}
	copy(s.min[:], min)
	copy(s.span[:], span)
	copy(s.zero[:], zero)
	return s, nil
}

// rowFault is why scaleRow rejected a row.
type rowFault uint8

const (
	rowOK rowFault = iota
	badProtocol
	badFlag
	nonFinite
)

// scaleRow finishes one row in place: row[:numNumeric] holds the raw
// numeric features and proto, svc and flag the one-hot offsets of the
// categorical values (-1 for a value outside the vocabulary).
func (s *ScaledEncoder) scaleRow(row []float64, proto, svc, flag int32) rowFault {
	if proto < 0 {
		return badProtocol
	}
	if flag < 0 {
		return badFlag
	}
	num := row[:numNumeric]
	for j, v := range num {
		// log1p(+0) is +0, so a +0 scales to the table's value. A -0
		// does not: (-0 - min) / span may keep its sign.
		if math.Float64bits(v) == 0 {
			num[j] = s.zero[j]
			continue
		}
		if s.log[j] {
			v = math.Log1p(v)
		}
		if v-v != 0 { // NaN or ±Inf
			return nonFinite
		}
		num[j] = preprocess.MinMax(v, s.min[j], s.span[j])
	}
	hot := row[numNumeric:]
	copy(hot, s.hot0)
	hot[proto] = s.hot1[proto]
	hot[svc] = s.hot1[svc]
	hot[flag] = s.hot1[flag]
	return rowOK
}

// faultError is the error of record r for fault f; sym names the record's
// categorical value in column c for an unknown protocol or flag.
func faultError(f rowFault, r int, sym func(c int) string) error {
	switch f {
	case badProtocol:
		return unknownSymbol(r, 0, sym(0))
	case badFlag:
		return unknownSymbol(r, 2, sym(2))
	default:
		return fmt.Errorf("record %d: non-finite feature value", r)
	}
}

// EncodeColumnar encodes, checks and scales batch records [lo, hi) into
// the row-major matrix dst — record lo+r occupies dst[r*Dim() :
// (r+1)*Dim()]. The batch must have been bound to the kernel's encoder
// with BindColumnar. Errors name the lowest bad record by its index in
// the batch; dst is then unspecified. The pass allocates nothing.
func (s *ScaledEncoder) EncodeColumnar(cb *ColumnarBatch, lo, hi int, dst []float64) error {
	if !cb.bound {
		return fmt.Errorf("kdd: columnar batch not bound to an encoder")
	}
	if lo < 0 || hi > cb.rows || lo > hi {
		return fmt.Errorf("kdd: columnar rows [%d, %d) outside batch of %d", lo, hi, cb.rows)
	}
	d := s.enc.Dim()
	if len(dst) < (hi-lo)*d {
		return fmt.Errorf("kdd: encode %d columnar rows into buffer of length %d, want >= %d", hi-lo, len(dst), (hi-lo)*d)
	}
	for r := lo; r < hi; r++ {
		row := dst[(r-lo)*d : (r-lo+1)*d]
		cb.numericRow(r, row[:numNumeric])
		codes := [numCategoricalColumns]int{cb.catCode(0, r), cb.catCode(1, r), cb.catCode(2, r)}
		f := s.scaleRow(row, cb.resolved[0][codes[0]], cb.resolved[1][codes[1]], cb.resolved[2][codes[2]])
		if f != rowOK {
			return faultError(f, r, func(c int) string { return cb.syms[c][codes[c]] })
		}
	}
	return nil
}

// EncodeRecords encodes, checks and scales records into the row-major
// matrix dst — record r occupies dst[r*Dim() : (r+1)*Dim()]. base
// offsets the record indices in errors, so a chunk of a larger batch
// names records by their position in it. Errors name the lowest bad
// record; dst is then unspecified. The pass allocates nothing.
func (s *ScaledEncoder) EncodeRecords(records []Record, base int, dst []float64) error {
	e := s.enc
	d := e.Dim()
	if len(dst) < len(records)*d {
		return fmt.Errorf("kdd: encode %d records into buffer of length %d, want >= %d", len(records), len(dst), len(records)*d)
	}
	for r := range records {
		rec := &records[r]
		row := dst[r*d : (r+1)*d]
		rec.NumericFeaturesInto(row)
		if f := s.scaleRow(row, e.offset(0, rec.Protocol), e.offset(1, rec.Service), e.offset(2, rec.Flag)); f != rowOK {
			return faultError(f, base+r, func(c int) string {
				if c == 0 {
					return rec.Protocol
				}
				return rec.Flag
			})
		}
	}
	return nil
}
