package transport

import "testing"

// TestPayloadPoolRecycles: a recycled payload buffer is handed out again
// for the next payload of its size class, a slice the pool did not make is
// refused, and idle buffers never exceed the budget.
func TestPayloadPoolRecycles(t *testing.T) {
	var p payloadPool
	if b := p.get(minPooled + 1); cap(b) != 2*minPooled {
		t.Fatalf("cap %d for %d bytes, want the next power of two", cap(b), minPooled+1)
	}
	a := p.get(9000)
	p.put(a)
	if b := p.get(12000); &b[0] != &a[0] || len(b) != 12000 {
		t.Fatal("a recycled buffer of the same class was not reused")
	}
	p.put(make([]byte, 9000)) // not a power-of-two capacity: not the pool's
	p.put(make([]byte, 100))  // below minPooled
	if p.idle != 0 {
		t.Fatalf("foreign slices kept: %d idle bytes", p.idle)
	}
	for i := 0; i < 2*poolBudget/(64<<10); i++ {
		p.put(make([]byte, 64<<10))
	}
	if p.idle > poolBudget {
		t.Fatalf("%d idle bytes exceed the %d budget", p.idle, poolBudget)
	}
}
