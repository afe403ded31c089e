package ghsom

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/kdd"
	"ghsom/internal/preprocess"
)

// pipelineVersion is the envelope version Save writes and LoadPipeline
// reads: the binary envelope v3, a single length-prefixed blob carrying
// the compiled model (weight arena + flat tables), scaler state, encoder
// vocabulary, pipeline configuration, and detector cell table. Versions
// 1 and 2 were JSON envelopes; they are retired and no longer load.
const pipelineVersion = 3

// envMagic opens a binary v3 envelope.
var envMagic = [8]byte{'G', 'H', 'S', 'O', 'M', 'P', 'V', '3'}

// Caps applied while parsing a binary envelope. Every claimed length is
// also checked against the bytes actually present before anything of
// that size is allocated.
const (
	envMaxServices   = 1 << 20
	envMaxServiceLen = 1 << 16
	envMaxDim        = 1 << 20
	envMaxModelBytes = 1 << 30
	envMaxDetBytes   = 1 << 28
)

// Save writes the trained pipeline as a binary envelope (version 3): one
// length-prefixed blob carrying the compiled model arena and tables, the
// encoder vocabulary, the scaler state, the pipeline configuration, and
// the detector cell table. The output is deterministic — identical
// pipelines produce identical bytes — and round-trips bit-identically
// through LoadPipeline. The embedded model blob is written with its big
// tables 8-byte aligned relative to the envelope start, so a file whose
// envelope begins at offset 0 loads zero-copy through LoadPipelineFile
// in mapped mode.
func (p *Pipeline) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(envMagic[:]); err != nil {
		return fmt.Errorf("ghsom: write envelope: %w", err)
	}
	le := binary.LittleEndian
	write := func(v any) error { return binary.Write(bw, le, v) }

	flags := uint8(0)
	if p.encoder.Config().LogTransform {
		flags = 1
	}
	if err := write(flags); err != nil {
		return fmt.Errorf("ghsom: write envelope flags: %w", err)
	}
	for _, v := range []int64{int64(p.cfg.TrainCapPerLabel), p.cfg.Seed, int64(p.cfg.Parallelism)} {
		if err := write(v); err != nil {
			return fmt.Errorf("ghsom: write envelope config: %w", err)
		}
	}
	services := p.encoder.Services()
	if err := write(uint32(len(services))); err != nil {
		return fmt.Errorf("ghsom: write envelope services: %w", err)
	}
	for _, s := range services {
		if err := write(uint32(len(s))); err != nil {
			return fmt.Errorf("ghsom: write envelope services: %w", err)
		}
		if _, err := bw.WriteString(s); err != nil {
			return fmt.Errorf("ghsom: write envelope services: %w", err)
		}
	}
	min, span := p.scaler.State()
	if err := write(uint32(len(min))); err != nil {
		return fmt.Errorf("ghsom: write envelope scaler: %w", err)
	}
	for _, v := range [][]float64{min, span} {
		if err := write(v); err != nil {
			return fmt.Errorf("ghsom: write envelope scaler: %w", err)
		}
	}

	// The model blob starts after the fixed header (magic 8 + flags 1 +
	// config 24 + service count 4 + scaler dim 4 + model length 8 = 49
	// bytes), the service strings, and the two scaler tables; handing
	// WriteBinaryAt that offset lets it pad the blob so the weight arena
	// lands 8-byte aligned in the file.
	blobOff := int64(49)
	for _, s := range services {
		blobOff += int64(4 + len(s))
	}
	blobOff += int64(16 * len(min))
	var modelBlob bytes.Buffer
	if err := p.compiled.WriteBinaryAt(&modelBlob, blobOff); err != nil {
		return fmt.Errorf("ghsom: write envelope model: %w", err)
	}
	if err := write(uint64(modelBlob.Len())); err != nil {
		return fmt.Errorf("ghsom: write envelope model: %w", err)
	}
	if _, err := bw.Write(modelBlob.Bytes()); err != nil {
		return fmt.Errorf("ghsom: write envelope model: %w", err)
	}

	detJSON, err := json.Marshal(p.detector.State())
	if err != nil {
		return fmt.Errorf("ghsom: encode detector state: %w", err)
	}
	if err := write(uint32(len(detJSON))); err != nil {
		return fmt.Errorf("ghsom: write envelope detector: %w", err)
	}
	if _, err := bw.Write(detJSON); err != nil {
		return fmt.Errorf("ghsom: write envelope detector: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ghsom: write envelope: %w", err)
	}
	return nil
}

// LoadPipeline reads a pipeline previously written by Save (binary
// envelope v3). The whole input is read into memory and parsed there, so
// the caller's reader bounds what loading allocates. The envelope
// carries the compiled model directly, so the loaded pipeline serves on
// the compiled dataplane and classifies identically to the pipeline that
// was saved; the pointer tree is rebuilt from it on demand. A retired
// JSON envelope (v1/v2) is rejected with an error that says to retrain.
//
// Note the persisted Parallelism is the knob the pipeline was trained
// with on the training machine — a model trained serially will serve
// serially after loading. Call SetParallelism (0 = GOMAXPROCS) to retune
// batch inference for the serving machine, as the CLIs do.
func LoadPipeline(r io.Reader) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ghsom: read pipeline: %w", err)
	}
	return parsePipeline(data, false)
}

// LoadPipelineFile loads a pipeline envelope from a file. With mapped
// false the file is read into memory and parsed like LoadPipeline. With
// mapped true the file is mapped read-only (core.OpenMapping) and, for a
// binary v3 envelope written by Save, the model's weight arena and
// serialized unit tables become direct views of the mapping: loading
// copies no arena, touches no weight page until routing first reads it,
// and every process serving the same file shares one physical copy
// through the page cache. Classification is byte-identical to a heap
// load. The returned pipeline owns the mapping; release it with Close
// only when the pipeline is retired — the model reads the mapped pages
// for as long as it serves. A binary envelope written before alignment
// padding loads correctly in mapped mode too, falling back to heap
// copies (and then needs no Close).
func LoadPipelineFile(path string, mapped bool) (*Pipeline, error) {
	if !mapped {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("ghsom: read pipeline: %w", err)
		}
		return parsePipeline(data, false)
	}
	m, err := core.OpenMapping(path)
	if err != nil {
		return nil, fmt.Errorf("ghsom: map pipeline: %w", err)
	}
	p, err := parsePipeline(m.Bytes(), true)
	if err != nil {
		m.Close()
		return nil, err
	}
	if p.MappedBytes() > 0 {
		p.mapping = m
	} else {
		// Nothing in the pipeline views the mapping (a pre-alignment blob
		// whose tables landed unaligned): release it here so the caller
		// need not Close.
		m.Close()
	}
	return p, nil
}

// parsePipeline parses an envelope held fully in memory: a heap buffer
// for LoadPipeline, or a file mapping for LoadPipelineFile. Every
// claimed length is bounds-checked against data before any proportional
// allocation. With zeroCopy true the model's big tables may become views
// of data (see core.ReadCompiledBinaryBytes); with zeroCopy false the
// pipeline keeps no reference to data.
func parsePipeline(data []byte, zeroCopy bool) (*Pipeline, error) {
	if len(data) < len(envMagic) || !bytes.Equal(data[:len(envMagic)], envMagic[:]) {
		if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
			return nil, errors.New("ghsom: JSON pipeline envelope v1/v2 is retired and no longer loads; retrain the model with ghsom-train")
		}
		return nil, errors.New("ghsom: not a GHSOM pipeline envelope (no GHSOMPV3 magic)")
	}
	cur := &envCursor{data: data, off: len(envMagic)}
	flags, err := cur.u8("envelope flags")
	if err != nil {
		return nil, err
	}
	if flags > 1 {
		return nil, fmt.Errorf("ghsom: unknown envelope flags %#x", flags)
	}
	var cap64, seed, par int64
	for _, v := range []*int64{&cap64, &seed, &par} {
		b, err := cur.bytes(8, "envelope config")
		if err != nil {
			return nil, err
		}
		*v = int64(binary.LittleEndian.Uint64(b))
	}
	nServices, err := cur.u32("envelope services")
	if err != nil {
		return nil, err
	}
	if nServices > envMaxServices {
		return nil, fmt.Errorf("ghsom: envelope has %d services, cap %d", nServices, envMaxServices)
	}
	services := make([]string, 0, min(int(nServices), 4096))
	for i := 0; i < int(nServices); i++ {
		slen, err := cur.u32("envelope service")
		if err != nil {
			return nil, err
		}
		if slen > envMaxServiceLen {
			return nil, fmt.Errorf("ghsom: envelope service %d of %d bytes exceeds cap", i, slen)
		}
		b, err := cur.bytes(int(slen), "envelope service")
		if err != nil {
			return nil, err
		}
		services = append(services, string(b))
	}
	dim, err := cur.u32("envelope scaler")
	if err != nil {
		return nil, err
	}
	if dim > envMaxDim {
		return nil, fmt.Errorf("ghsom: envelope scaler dim %d exceeds cap %d", dim, envMaxDim)
	}
	scalerMin, err := cur.floats(int(dim), "envelope scaler")
	if err != nil {
		return nil, err
	}
	scalerSpan, err := cur.floats(int(dim), "envelope scaler")
	if err != nil {
		return nil, err
	}
	mb, err := cur.bytes(8, "envelope model")
	if err != nil {
		return nil, err
	}
	modelLen := binary.LittleEndian.Uint64(mb)
	if modelLen > envMaxModelBytes {
		return nil, fmt.Errorf("ghsom: envelope model of %d bytes exceeds cap %d", modelLen, envMaxModelBytes)
	}
	window, err := cur.bytes(int(modelLen), "envelope model")
	if err != nil {
		return nil, err
	}
	compiled, err := core.ReadCompiledBinaryBytes(window, zeroCopy)
	if err != nil {
		return nil, fmt.Errorf("ghsom: load model: %w", err)
	}
	detLen, err := cur.u32("envelope detector")
	if err != nil {
		return nil, err
	}
	if detLen > envMaxDetBytes {
		return nil, fmt.Errorf("ghsom: envelope detector of %d bytes exceeds cap %d", detLen, envMaxDetBytes)
	}
	detJSON, err := cur.bytes(int(detLen), "envelope detector")
	if err != nil {
		return nil, err
	}
	var det anomaly.State
	if err := json.Unmarshal(detJSON, &det); err != nil {
		return nil, fmt.Errorf("ghsom: decode detector state: %w", err)
	}
	scaler, err := preprocess.NewMinMaxScalerFromState(scalerMin, scalerSpan)
	if err != nil {
		return nil, fmt.Errorf("ghsom: load scaler: %w", err)
	}
	logTransform := flags == 1
	encoder := kdd.NewEncoderFromServices(services, kdd.EncoderConfig{LogTransform: logTransform})
	if encoder.Dim() != scaler.Dim() {
		return nil, fmt.Errorf("ghsom: encoder dim %d does not match scaler dim %d", encoder.Dim(), scaler.Dim())
	}
	if scaler.Dim() != compiled.Dim() {
		return nil, fmt.Errorf("ghsom: scaler dim %d does not match model dim %d", scaler.Dim(), compiled.Dim())
	}
	rows, err := newScaledEncoder(encoder, scaler)
	if err != nil {
		return nil, fmt.Errorf("ghsom: load scaler: %w", err)
	}
	detector, err := anomaly.FromState(anomaly.NewGHSOMQuantizer(compiled), det)
	if err != nil {
		return nil, fmt.Errorf("ghsom: load detector: %w", err)
	}
	// model stays nil: Model() rebuilds the pointer tree lazily, copying
	// the arena only if a caller actually asks for it.
	return &Pipeline{
		encoder:  encoder,
		scaler:   scaler,
		rows:     rows,
		compiled: compiled,
		detector: detector,
		cfg: PipelineConfig{
			Model:            compiled.Config(),
			Detector:         det.Config,
			LogTransform:     logTransform,
			TrainCapPerLabel: int(cap64),
			Seed:             seed,
			Parallelism:      int(par),
		},
	}, nil
}

// envCursor walks a fully-resident envelope with bounds-checked reads.
type envCursor struct {
	data []byte
	off  int
}

func (c *envCursor) bytes(n int, what string) ([]byte, error) {
	if n < 0 || len(c.data)-c.off < n {
		return nil, fmt.Errorf("ghsom: read %s: envelope truncated at byte %d", what, c.off)
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *envCursor) u8(what string) (uint8, error) {
	b, err := c.bytes(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *envCursor) u32(what string) (uint32, error) {
	b, err := c.bytes(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *envCursor) floats(n int, what string) ([]float64, error) {
	b, err := c.bytes(n*8, what)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}
