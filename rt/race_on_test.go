//go:build race

package rt

// raceBuild reports a -race build: the stress tests shrink their loops to
// what the detector can run many times over, and the allocation gates are
// skipped because the detector's own bookkeeping allocates.
const raceBuild = true
