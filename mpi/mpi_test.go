package mpi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat64RoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		b := Float64Bytes(v)
		got := BytesFloat64(b)
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64ViewIsZeroCopy(t *testing.T) {
	v := []float64{1, 2, 3}
	b := Float64Bytes(v)
	BytesFloat64(b)[1] = 42
	if v[1] != 42 {
		t.Fatal("view is not aliasing the original")
	}
}

func TestComplex128RoundTrip(t *testing.T) {
	v := []complex128{1 + 2i, -3.5 + 0.25i}
	got := BytesFloat64(Complex128Bytes(v)) // (re, im) pairs
	for i := range v {
		if complex(got[2*i], got[2*i+1]) != v[i] {
			t.Fatalf("index %d: %v != %v", i, complex(got[2*i], got[2*i+1]), v[i])
		}
	}
}

func TestInt64RoundTrip(t *testing.T) {
	v := []int64{-1, 0, 1 << 62}
	got := BytesInt64(Int64Bytes(v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("index %d", i)
		}
	}
}

func TestEmptyViews(t *testing.T) {
	if Float64Bytes(nil) != nil || BytesFloat64(nil) != nil {
		t.Fatal("empty views should be nil")
	}
	if Complex128Bytes(nil) != nil || Int64Bytes(nil) != nil {
		t.Fatal("empty views should be nil")
	}
}

func TestMisalignedPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BytesFloat64(make([]byte, 7)) },
		func() { BytesInt64(make([]byte, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on misaligned length")
				}
			}()
			f()
		}()
	}
}

func TestReduceOperators(t *testing.T) {
	a := []float64{1, -2, 3}
	b := []float64{4, 5, -6}
	SumFloat64(Float64Bytes(a), Float64Bytes(b))
	if a[0] != 5 || a[1] != 3 || a[2] != -3 {
		t.Fatalf("sum wrong: %v", a)
	}
	ia := []int64{10}
	ib := []int64{-3}
	SumInt64(Int64Bytes(ia), Int64Bytes(ib))
	if ia[0] != 7 {
		t.Fatalf("int sum wrong: %v", ia)
	}
	ia = []int64{0b0101}
	ib = []int64{0b0011}
	BorInt64(Int64Bytes(ia), Int64Bytes(ib))
	if ia[0] != 0b0111 {
		t.Fatalf("bitwise or wrong: %v", ia)
	}
}

func TestSumFloat64Commutes(t *testing.T) {
	f := func(x, y []float64) bool {
		n := min(len(x), len(y))
		x, y = x[:n], y[:n]
		a := append([]float64(nil), x...)
		b := append([]float64(nil), y...)
		SumFloat64(Float64Bytes(a), Float64Bytes(y))
		SumFloat64(Float64Bytes(b), Float64Bytes(x))
		for i := range a {
			av, bv := a[i], b[i]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNullRequest(t *testing.T) {
	var r Request
	if !r.IsNull() {
		t.Fatal("zero request should be null")
	}
}
