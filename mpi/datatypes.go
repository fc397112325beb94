package mpi

import "unsafe"

// The simulated MPI moves raw bytes; these helpers give applications
// zero-copy typed views of their buffers (the moral equivalent of MPI
// datatypes for contiguous arrays) and the standard reduction operators.

// Float64Bytes returns the []byte view of a []float64 (zero copy).
func Float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// BytesFloat64 returns the []float64 view of a []byte (zero copy); the
// length must be a multiple of 8.
func BytesFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if len(b)%8 != 0 {
		panic("mpi: byte length not a multiple of 8")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// Complex128Bytes returns the []byte view of a []complex128 (zero copy).
func Complex128Bytes(v []complex128) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 16*len(v))
}

// Int64Bytes returns the []byte view of an []int64 (zero copy).
func Int64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// BytesInt64 returns the []int64 view of a []byte (zero copy).
func BytesInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if len(b)%8 != 0 {
		panic("mpi: byte length not a multiple of 8")
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// SumFloat64 is the MPI_SUM operator for float64 buffers.
func SumFloat64(dst, src []byte) {
	d, s := BytesFloat64(dst), BytesFloat64(src)
	for i := range d {
		d[i] += s[i]
	}
}

// SumInt64 is the MPI_SUM operator for int64 buffers.
func SumInt64(dst, src []byte) {
	d, s := BytesInt64(dst), BytesInt64(src)
	for i := range d {
		d[i] += s[i]
	}
}

// BorInt64 is the MPI_BOR (bitwise or) operator for int64 buffers; Shrink
// uses it to agree on the union of every survivor's failed-rank set.
func BorInt64(dst, src []byte) {
	d, s := BytesInt64(dst), BytesInt64(src)
	for i := range d {
		d[i] |= s[i]
	}
}
