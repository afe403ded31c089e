package kdd

import (
	"fmt"
	"math"
	"sort"
)

// EncoderConfig controls the record-to-vector encoding.
type EncoderConfig struct {
	// LogTransform applies log1p to the heavy-tailed volume features
	// (duration, src_bytes, dst_bytes, count, srv_count, dst_host_count,
	// dst_host_srv_count) before scaling. This is the standard KDD
	// preprocessing step: byte counts span eight orders of magnitude and
	// would otherwise dominate the Euclidean metric.
	LogTransform bool
	// OtherService is the bucket used for services outside the vocabulary.
	// Defaults to "other" when empty.
	OtherService string
}

// logFeatureIdxs lists the indices of the log-transformed features inside
// NumericFeatureNames: duration, src_bytes, dst_bytes, count, srv_count,
// dst_host_count, dst_host_srv_count.
var logFeatureIdxs = [...]int{0, 1, 2, 19, 20, 28, 29}

// Encoder converts Records into dense numeric vectors: 38 numeric/boolean
// features followed by one-hot blocks for protocol, service, and flag.
// Build one with NewEncoder over the training set so the service
// vocabulary matches the data, then reuse it for all splits.
type Encoder struct {
	cfg      EncoderConfig
	services []string       // sorted vocabulary, always containing the other bucket
	svcIndex map[string]int // service -> position in services
	protoIdx map[string]int
	flagIdx  map[string]int
}

// NewEncoder builds an encoder whose service vocabulary is the union of
// CommonServices and the services observed in records.
func NewEncoder(records []Record, cfg EncoderConfig) *Encoder {
	if cfg.OtherService == "" {
		cfg.OtherService = "other"
	}
	seen := make(map[string]bool)
	for _, s := range CommonServices {
		seen[s] = true
	}
	seen[cfg.OtherService] = true
	for i := range records {
		seen[records[i].Service] = true
	}
	services := make([]string, 0, len(seen))
	for s := range seen {
		services = append(services, s)
	}
	sort.Strings(services)

	e := &Encoder{
		cfg:      cfg,
		services: services,
		svcIndex: make(map[string]int, len(services)),
		protoIdx: make(map[string]int, len(Protocols)),
		flagIdx:  make(map[string]int, len(Flags)),
	}
	for i, s := range services {
		e.svcIndex[s] = i
	}
	for i, p := range Protocols {
		e.protoIdx[p] = i
	}
	for i, f := range Flags {
		e.flagIdx[f] = i
	}
	return e
}

// NewEncoderFromServices rebuilds an encoder from a previously exported
// service vocabulary (see Services). The vocabulary is used as-is except
// that the other bucket is added if missing.
func NewEncoderFromServices(services []string, cfg EncoderConfig) *Encoder {
	if cfg.OtherService == "" {
		cfg.OtherService = "other"
	}
	seen := make(map[string]bool, len(services)+1)
	vocab := make([]string, 0, len(services)+1)
	for _, s := range services {
		if !seen[s] {
			seen[s] = true
			vocab = append(vocab, s)
		}
	}
	if !seen[cfg.OtherService] {
		vocab = append(vocab, cfg.OtherService)
	}
	sort.Strings(vocab)
	e := &Encoder{
		cfg:      cfg,
		services: vocab,
		svcIndex: make(map[string]int, len(vocab)),
		protoIdx: make(map[string]int, len(Protocols)),
		flagIdx:  make(map[string]int, len(Flags)),
	}
	for i, s := range vocab {
		e.svcIndex[s] = i
	}
	for i, p := range Protocols {
		e.protoIdx[p] = i
	}
	for i, f := range Flags {
		e.flagIdx[f] = i
	}
	return e
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() EncoderConfig { return e.cfg }

// Dim returns the encoded vector dimension.
func (e *Encoder) Dim() int {
	return len(NumericFeatureNames) + len(Protocols) + len(e.services) + len(Flags)
}

// Services returns the service vocabulary (sorted). The slice is shared;
// callers must not modify it.
func (e *Encoder) Services() []string { return e.services }

// FeatureNames returns the name of every encoded dimension, in order.
func (e *Encoder) FeatureNames() []string {
	out := make([]string, 0, e.Dim())
	out = append(out, NumericFeatureNames...)
	for _, p := range Protocols {
		out = append(out, "protocol="+p)
	}
	for _, s := range e.services {
		out = append(out, "service="+s)
	}
	for _, f := range Flags {
		out = append(out, "flag="+f)
	}
	return out
}

// EncodeInto encodes one record into dst, which must have length exactly
// Dim(). It is the allocation-free kernel under EncodeBatch: every
// element of dst is overwritten (the one-hot blocks are zeroed first),
// so dst may be reused across calls without clearing. Unknown
// protocols or flags return an error and leave dst in an unspecified
// state; unknown services fall into the other bucket.
func (e *Encoder) EncodeInto(r *Record, dst []float64) error {
	if len(dst) != e.Dim() {
		return fmt.Errorf("kdd: encode into buffer of length %d, want %d", len(dst), e.Dim())
	}
	numeric := dst[:len(NumericFeatureNames)]
	r.NumericFeaturesInto(numeric)
	if e.cfg.LogTransform {
		for _, i := range logFeatureIdxs {
			numeric[i] = math.Log1p(numeric[i])
		}
	}

	oneHot := dst[len(NumericFeatureNames):]
	for i := range oneHot {
		oneHot[i] = 0
	}
	pi := e.offset(0, r.Protocol)
	if pi < 0 {
		return fmt.Errorf("kdd: encode: unknown protocol %q", r.Protocol)
	}
	oneHot[pi] = 1
	oneHot[e.offset(1, r.Service)] = 1
	fi := e.offset(2, r.Flag)
	if fi < 0 {
		return fmt.Errorf("kdd: encode: unknown flag %q", r.Flag)
	}
	oneHot[fi] = 1
	return nil
}

// offset returns the position of categorical value sym of column c
// (0 protocol, 1 service, 2 flag) inside the one-hot block, or -1 for a
// protocol or flag outside the vocabulary. A service outside the
// vocabulary falls into the other bucket.
func (e *Encoder) offset(c int, sym string) int32 {
	switch c {
	case 0:
		if i, ok := e.protoIdx[sym]; ok {
			return int32(i)
		}
	case 1:
		i, ok := e.svcIndex[sym]
		if !ok {
			i = e.svcIndex[e.cfg.OtherService]
		}
		return int32(len(Protocols) + i)
	case 2:
		if i, ok := e.flagIdx[sym]; ok {
			return int32(len(Protocols) + len(e.services) + i)
		}
	}
	return -1
}

// EncodeBatch encodes records into the flat row-major matrix dst: record i
// occupies dst[i*Dim() : (i+1)*Dim()]. dst must have length at least
// len(records)*Dim(); the batch is written serially (parallelize across
// row ranges at a higher layer when needed) and aborts on the first bad
// record, reporting its index. On error the rows already written remain
// but the batch must be considered invalid.
func (e *Encoder) EncodeBatch(records []Record, dst []float64) error {
	d := e.Dim()
	if len(dst) < len(records)*d {
		return fmt.Errorf("kdd: encode batch of %d records into buffer of length %d, want >= %d",
			len(records), len(dst), len(records)*d)
	}
	for i := range records {
		if err := e.EncodeInto(&records[i], dst[i*d:(i+1)*d]); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}

// Labels extracts the label of every record.
func Labels(records []Record) []string {
	out := make([]string, len(records))
	for i := range records {
		out[i] = records[i].Label
	}
	return out
}
