package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// This file holds the compiled-blob binary format: its one writer,
// WriteBinaryAt, and its one reader, ReadCompiledBinaryBytes, which
// parses a blob held in memory. A blob written with WriteBinaryAt places
// its three big tables (counts, unitQE, arena) on 8-byte file offsets;
// ReadCompiledBinaryBytes over an mmap of that file can then take those
// tables as direct views of the mapping — no heap copy, no page touched
// until routing first reads it, and every process serving the same file
// sharing one physical copy. Without zero-copy (or when the tables land
// unaligned) the tables are decoded into heap slices. The small derived
// tables (child index, trained-unit lists and norm tables) are always
// rebuilt heap-side, so routing on a mapped model is byte-identical to
// routing on a heap-loaded one.

// Structural caps of the compiled-blob reader. They reject absurd shapes
// before any proportional allocation happens, so corrupt or hostile blobs
// fail with an error instead of an out-of-memory panic.
const (
	maxModelDim    = 1 << 20 // feature dimensions
	maxModelNodes  = 1 << 20 // maps per hierarchy
	maxMapSide     = 1 << 16 // rows or cols of one map
	maxUnitsPerMap = 1 << 20 // rows*cols of one map
	maxTotalUnits  = 1 << 24 // units across the hierarchy
	maxArenaFloats = 1 << 27 // total weight float64s (1 GiB)
)

// compiledMagic identifies the binary compiled-model blob (format
// version in the trailing byte).
var compiledMagic = [8]byte{'G', 'H', 'S', 'O', 'M', 'C', 'B', '1'}

// alignPad returns how many padding bytes WriteBinaryAt must append to
// the config JSON so the counts table lands 8-byte aligned, given the
// blob starts at file offset blobOff and the unpadded config is cfgLen
// bytes. The fixed prefix ahead of counts is magic(8) + cfgLen(4) +
// cfg + dim(4) + mqe0(8) + mean(dim*8) + nodeCount(4) + nodes(16 each):
// every term except 8+4+4+8+4 = 28 and cfgLen is a multiple of 8, so
// alignment only depends on (blobOff + 28 + cfgLen) mod 8. unitQE and
// the arena follow counts at multiples of 8 and inherit its alignment.
func alignPad(blobOff int64, cfgLen int) int {
	return int((8 - (blobOff+28+int64(cfgLen))%8) % 8)
}

// WriteBinaryAt writes the compiled model as a single little-endian
// binary blob: config (length-prefixed JSON), dimensions, the flat node
// table, the per-unit count and error tables, and the weight arena. The
// output is deterministic: identical models produce identical bytes. The
// config JSON is padded with trailing spaces (whitespace is legal after
// a JSON value) so that the counts/unitQE/arena tables land on 8-byte
// file offsets when the blob starts at file offset blobOff; such a blob
// loads zero-copy via ReadCompiledBinaryBytes over a mapping.
func (c *Compiled) WriteBinaryAt(w io.Writer, blobOff int64) error {
	cfgJSON, err := json.Marshal(c.cfg)
	if err != nil {
		return fmt.Errorf("core: encode compiled config: %w", err)
	}
	cfgJSON = append(cfgJSON, spaces[:alignPad(blobOff, len(cfgJSON))]...)
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(compiledMagic[:]); err != nil {
		return fmt.Errorf("core: write compiled model: %w", err)
	}
	le := binary.LittleEndian
	write := func(v any) error { return binary.Write(bw, le, v) }
	steps := []any{
		uint32(len(cfgJSON)),
		cfgJSON,
		uint32(c.dim),
		c.mqe0,
		c.mean,
		uint32(len(c.nodes)),
	}
	for _, v := range steps {
		if err := write(v); err != nil {
			return fmt.Errorf("core: write compiled model: %w", err)
		}
	}
	for i := range c.nodes {
		nd := &c.nodes[i]
		hdr := [4]int32{int32(nd.parent), int32(nd.parentUnit), int32(nd.rows), int32(nd.cols)}
		if err := write(hdr[:]); err != nil {
			return fmt.Errorf("core: write compiled node %d: %w", i, err)
		}
	}
	for _, v := range []any{c.counts, c.unitQE, c.arena} {
		if err := write(v); err != nil {
			return fmt.Errorf("core: write compiled tables: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: write compiled model: %w", err)
	}
	return nil
}

var spaces = [8]byte{' ', ' ', ' ', ' ', ' ', ' ', ' ', ' '}

// ReadCompiledBinaryBytes parses a compiled blob written by
// WriteBinaryAt and held in memory — a heap buffer or a window of an
// OpenMapping. It validates every shape and table against the package
// caps and the tree structure (each non-root node expanded by exactly one
// in-range parent unit that precedes it), and checks every claimed
// section length against len(data) before allocating for it, so
// truncated, mutated or hostile blobs return errors instead of panicking
// or forcing large allocations. A blob must end exactly where its arena
// does. With zeroCopy true, the counts, unitQE, and
// weight-arena tables become direct views of data whenever their
// offsets are 8-byte aligned machine addresses (guaranteed for
// WriteBinaryAt output over a page-aligned mapping on little-endian
// hosts); otherwise they are decoded into fresh heap slices. The caller
// must keep data alive and unmodified for the life of the model;
// MappedBytes reports how many bytes of the model alias data.
func ReadCompiledBinaryBytes(data []byte, zeroCopy bool) (*Compiled, error) {
	cur := &byteCursor{data: data}
	magic, err := cur.bytes(8, "compiled magic")
	if err != nil {
		return nil, err
	}
	if [8]byte(magic) != compiledMagic {
		return nil, fmt.Errorf("core: not a compiled model blob (magic %q)", magic)
	}
	cfgLen, err := cur.u32("compiled config length")
	if err != nil {
		return nil, err
	}
	if cfgLen > 1<<20 {
		return nil, fmt.Errorf("core: compiled config of %d bytes exceeds cap", cfgLen)
	}
	cfgJSON, err := cur.bytes(int(cfgLen), "compiled config")
	if err != nil {
		return nil, err
	}
	c := &Compiled{}
	if err := json.Unmarshal(cfgJSON, &c.cfg); err != nil {
		return nil, fmt.Errorf("core: decode compiled config: %w", err)
	}
	if err := c.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled config: %w", err)
	}
	dim, err := cur.u32("compiled dim")
	if err != nil {
		return nil, err
	}
	if dim < 1 || dim > maxModelDim {
		return nil, fmt.Errorf("core: compiled dim %d outside [1, %d]", dim, maxModelDim)
	}
	c.dim = int(dim)
	mqe0, err := cur.bytes(8, "compiled mqe0")
	if err != nil {
		return nil, err
	}
	c.mqe0 = math.Float64frombits(binary.LittleEndian.Uint64(mqe0))
	// mqe0 and the mean are deliberately always copied: they sit ahead of
	// the aligned tables (and are a handful of values), so copying keeps
	// the padding rule simple without giving up any real sharing.
	meanOff, err := cur.skip(c.dim*8, "compiled mean")
	if err != nil {
		return nil, err
	}
	c.mean = copyFloat64s(data, meanOff, c.dim)

	nodeCount, err := cur.u32("compiled node count")
	if err != nil {
		return nil, err
	}
	if nodeCount < 1 || nodeCount > maxModelNodes {
		return nil, fmt.Errorf("core: compiled node count %d outside [1, %d]", nodeCount, maxModelNodes)
	}
	// The whole blob is resident (or mapped), so bounds are checked
	// against len(data) before each section is allocated for.
	hdrOff, err := cur.skip(int(nodeCount)*16, "compiled node table")
	if err != nil {
		return nil, err
	}
	c.nodes = make([]compiledNode, 0, nodeCount)
	totalUnits := 0
	for i := 0; i < int(nodeCount); i++ {
		h := data[hdrOff+16*i:]
		parent := int(int32(binary.LittleEndian.Uint32(h)))
		parentUnit := int(int32(binary.LittleEndian.Uint32(h[4:])))
		rows := int(int32(binary.LittleEndian.Uint32(h[8:])))
		cols := int(int32(binary.LittleEndian.Uint32(h[12:])))
		if rows < 1 || rows > maxMapSide || cols < 1 || cols > maxMapSide {
			return nil, fmt.Errorf("core: compiled node %d shape %dx%d outside [1, %d]", i, rows, cols, maxMapSide)
		}
		units := rows * cols
		if units > maxUnitsPerMap {
			return nil, fmt.Errorf("core: compiled node %d has %d units, cap %d", i, units, maxUnitsPerMap)
		}
		nd := compiledNode{
			weightOff:  totalUnits * c.dim,
			unitBase:   totalUnits,
			units:      units,
			rows:       rows,
			cols:       cols,
			parent:     parent,
			parentUnit: parentUnit,
		}
		if totalUnits += units; totalUnits > maxTotalUnits {
			return nil, fmt.Errorf("core: compiled model exceeds %d total units", maxTotalUnits)
		}
		if i == 0 {
			if parent != -1 {
				return nil, fmt.Errorf("core: compiled node 0 has parent %d, want -1 (root)", parent)
			}
			nd.depth = 1
		} else {
			// Nodes are stored in training (BFS) order, so a node's parent
			// always precedes it; anything else is a corrupt or cyclic table.
			if parent < 0 || parent >= i {
				return nil, fmt.Errorf("core: compiled node %d has parent %d, want [0, %d)", i, parent, i)
			}
			if parentUnit < 0 || parentUnit >= c.nodes[parent].units {
				return nil, fmt.Errorf("core: compiled node %d parent unit %d outside parent's %d units",
					i, parentUnit, c.nodes[parent].units)
			}
			nd.depth = c.nodes[parent].depth + 1
		}
		c.nodes = append(c.nodes, nd)
	}
	arenaFloats := int64(totalUnits) * int64(c.dim)
	if arenaFloats > maxArenaFloats {
		return nil, fmt.Errorf("core: compiled arena of %d floats exceeds cap %d", arenaFloats, maxArenaFloats)
	}

	countsOff, err := cur.skip(totalUnits*8, "compiled counts")
	if err != nil {
		return nil, err
	}
	qeOff, err := cur.skip(totalUnits*8, "compiled unit errors")
	if err != nil {
		return nil, err
	}
	arenaOff, err := cur.skip(totalUnits*c.dim*8, "compiled arena")
	if err != nil {
		return nil, err
	}

	// The three big tables: views over data when permitted and aligned,
	// heap copies otherwise (copy mode, blobs written before alignment
	// padding, interior offsets of a foreign buffer, big-endian hosts).
	view := zeroCopy && hostLittleEndian && totalUnits > 0 &&
		aligned8(data, countsOff) && aligned8(data, qeOff) && aligned8(data, arenaOff)
	if view {
		c.counts = viewInt64s(data, countsOff, totalUnits)
		c.unitQE = viewFloat64s(data, qeOff, totalUnits)
		c.arena = viewFloat64s(data, arenaOff, totalUnits*c.dim)
		c.viewBytes = totalUnits*16 + totalUnits*c.dim*8
	} else {
		c.counts = copyInt64s(data, countsOff, totalUnits)
		c.unitQE = copyFloat64s(data, qeOff, totalUnits)
		c.arena = copyFloat64s(data, arenaOff, totalUnits*c.dim)
	}
	for i, cnt := range c.counts {
		if cnt < 0 {
			return nil, fmt.Errorf("core: compiled unit %d has negative count %d", i, cnt)
		}
	}
	if cur.off != len(data) {
		return nil, fmt.Errorf("core: compiled blob has %d trailing bytes", len(data)-cur.off)
	}

	c.childIndex = make([]int32, totalUnits)
	for i := range c.childIndex {
		c.childIndex[i] = -1
	}
	for i := 1; i < len(c.nodes); i++ {
		nd := &c.nodes[i]
		slot := c.nodes[nd.parent].unitBase + nd.parentUnit
		if c.childIndex[slot] != -1 {
			return nil, fmt.Errorf("core: compiled node %d unit %d expanded by more than one child",
				nd.parent, nd.parentUnit)
		}
		c.childIndex[slot] = int32(i)
	}
	c.buildTrainedIndex()
	return c, nil
}

// MappedBytes reports how many bytes of the model are views over the
// caller-provided buffer of ReadCompiledBinaryBytes (0 for a fully
// heap-resident model). For a model over an OpenMapping this is the
// page-cache-shared portion — the weight arena and serialized unit
// tables — while TableBytes covers the heap-side derived tables.
func (c *Compiled) MappedBytes() int { return c.viewBytes }

// byteCursor walks a fully-resident blob with bounds-checked sections.
type byteCursor struct {
	data []byte
	off  int
}

func (c *byteCursor) bytes(n int, what string) ([]byte, error) {
	if n < 0 || len(c.data)-c.off < n {
		return nil, fmt.Errorf("core: read %s: blob truncated at byte %d", what, c.off)
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

// skip advances past an n-byte section, returning its start offset.
func (c *byteCursor) skip(n int, what string) (int, error) {
	if n < 0 || len(c.data)-c.off < n {
		return 0, fmt.Errorf("core: read %s: blob truncated at byte %d", what, c.off)
	}
	off := c.off
	c.off += n
	return off, nil
}

func (c *byteCursor) u32(what string) (uint32, error) {
	b, err := c.bytes(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// copyFloat64s decodes n little-endian float64s at data[off] into a
// fresh slice.
func copyFloat64s(data []byte, off, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8*i:]))
	}
	return out
}

// copyInt64s is copyFloat64s for int64 tables.
func copyInt64s(data []byte, off, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[off+8*i:]))
	}
	return out
}
