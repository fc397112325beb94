package obs

import (
	"sync"
	"testing"
)

func TestHistBucketing(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.bucket {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// Every bucket's upper bound must itself map back into that bucket.
	for i := 0; i < 62; i++ {
		if got := histBucket(bucketUpper(i)); got != i {
			t.Errorf("bucketUpper(%d)=%d maps to bucket %d", i, bucketUpper(i), got)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.P50() != 0 || h.P99() != 0 {
		t.Fatal("empty histogram reports nonzero quantiles")
	}
	// A single-valued histogram reports that value exactly everywhere.
	h.Observe(100)
	if h.P50() != 100 || h.P99() != 100 || h.Max != 100 {
		t.Fatalf("single value: %s", h.String())
	}
	// 99 fast samples + 1 slow one: the p50 stays in the fast bucket, the
	// p99 tail reaches the slow one.
	var h2 Hist
	for i := 0; i < 99; i++ {
		h2.Observe(10)
	}
	h2.Observe(100000)
	if p50 := h2.P50(); p50 < 10 || p50 > 15 {
		t.Errorf("p50 = %d, want within the [8,15] bucket", p50)
	}
	if p99 := h2.P99(); p99 < 10 || p99 > 100000 {
		t.Errorf("p99 = %d, out of range", p99)
	}
	if h2.Quantile(1.0) != 100000 {
		t.Errorf("p100 = %d, want the max", h2.Quantile(1.0))
	}
	if h2.Count != 100 || h2.Sum != 99*10+100000 {
		t.Errorf("count/sum = %d/%d", h2.Count, h2.Sum)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	for i := int64(1); i <= 100; i++ {
		all.Observe(i * 7)
		if i%2 == 0 {
			a.Observe(i * 7)
		} else {
			b.Observe(i * 7)
		}
	}
	a.Add(b)
	if a != all {
		t.Fatalf("merged histogram differs from directly observed one:\n%s\nvs\n%s",
			a.String(), all.String())
	}
}

func TestAtomicHistConcurrent(t *testing.T) {
	var h AtomicHist
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Max != workers*per-1 {
		t.Fatalf("max = %d, want %d", s.Max, workers*per-1)
	}
	want := int64(workers*per) * int64(workers*per-1) / 2
	if s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
}
