package core

import "unsafe"

// Shared, platform-independent Mapping accessors.

// Bytes returns the mapped (or fallback-read) file contents. The slice
// is read-only: on a real mmap, writing faults the process. Views
// derived from it are valid only until Close.
func (m *Mapping) Bytes() []byte {
	if m == nil {
		return nil
	}
	return m.data
}

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int {
	if m == nil {
		return 0
	}
	return len(m.data)
}

// hostLittleEndian reports whether the host stores multi-byte integers
// little-endian. The wire and envelope formats are little-endian, so
// zero-copy views over serialized tables are only valid on such hosts;
// big-endian hosts silently take the decode-copy path instead.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aligned8 reports whether the byte at data[off] sits on an 8-byte
// machine address — the requirement for viewing the bytes as a
// []float64/[]int64 (unsafe.Slice panics under checkptr otherwise).
func aligned8(data []byte, off int) bool {
	return uintptr(unsafe.Pointer(&data[off]))%8 == 0
}

// viewFloat64s returns data[off : off+8n] as a []float64 without
// copying. The caller must have checked aligned8 and bounds, and must
// keep data alive for the life of the view.
func viewFloat64s(data []byte, off, n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[off])), n)
}

// viewInt64s is viewFloat64s for int64 tables.
func viewInt64s(data []byte, off, n int) []int64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), n)
}
