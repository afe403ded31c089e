package kdd

// ColumnarTestRecords exposes the package's deterministic test corpus to
// the external kdd_test benchmarks.
var ColumnarTestRecords = columnarTestRecords
