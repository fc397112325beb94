package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mpioffload/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindData, Src: 0, Dst: 1, Tag: 7, Flow: obs.FlowID(0, 1), Data: []byte("payload")},
		{Kind: KindData, Src: 3, Dst: -2, Tag: -1, Flow: -obs.FlowID(3, 99)},
		{Kind: KindData, Src: 1, Dst: 0, Tag: 1 << 20, Data: make([]byte, 64<<10)},
	}
	var wire []byte
	for i := range frames {
		wire = AppendFrame(wire, &frames[i])
	}
	r := bytes.NewReader(wire)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst ||
			got.Tag != want.Tag || got.Flow != want.Flow {
			t.Errorf("frame %d header mismatch: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Errorf("frame %d payload mismatch: %d bytes vs %d", i, len(got.Data), len(want.Data))
		}
		if WireLen(&want) != HeaderLen+len(want.Data) {
			t.Errorf("frame %d WireLen = %d", i, WireLen(&want))
		}
	}
	if r.Len() != 0 {
		t.Errorf("%d trailing bytes after decoding all frames", r.Len())
	}
}

func TestFrameRejectsCorruptHeader(t *testing.T) {
	good := AppendFrame(nil, &Frame{Kind: KindData, Src: 0, Dst: 1})
	for name, mutate := range map[string]func([]byte){
		"magic":   func(b []byte) { b[0] ^= 0xFF },
		"version": func(b []byte) { b[2] = 99 },
		"length":  func(b []byte) { b[24], b[25], b[26], b[27] = 0xFF, 0xFF, 0xFF, 0xFF },
	} {
		bad := append([]byte(nil), good...)
		mutate(bad)
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s corruption: err = %v, want ErrBadFrame", name, err)
		}
	}
	// A version-1 header was 36 B (it carried an 8 B sequence number before
	// the flow stamp); a reader of the 28 B format must refuse it, not
	// misread its fields.
	v1 := make([]byte, 36)
	binary.LittleEndian.PutUint16(v1[0:2], frameMagic)
	v1[2] = 1
	if _, err := ReadFrame(bytes.NewReader(v1)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("version-1 header: err = %v, want ErrBadFrame", err)
	}
}

func TestLoopbackDeliversAndCounts(t *testing.T) {
	m := NewLoopback(2)
	defer m.Close()
	got := make(chan Frame, 1)
	m.Endpoint(1).Bind(func(f Frame) { got <- f })
	f := Frame{Kind: KindData, Src: 0, Dst: 1, Tag: 3, Flow: obs.FlowID(0, 1), Data: []byte("hi")}
	if err := m.Endpoint(0).Send(f); err != nil {
		t.Fatal(err)
	}
	d := <-got
	if d.Tag != 3 || string(d.Data) != "hi" {
		t.Fatalf("delivered %+v", d)
	}
	s0, s1 := m.Endpoint(0).Stats(), m.Endpoint(1).Stats()
	if s0.FramesSent != 1 || s0.BytesSent != int64(WireLen(&f)) {
		t.Errorf("sender stats %+v", s0)
	}
	if s1.FramesRecv != 1 || s1.BytesRecv != int64(WireLen(&f)) {
		t.Errorf("receiver stats %+v", s1)
	}
}

func TestLoopbackClosedAndUnbound(t *testing.T) {
	m := NewLoopback(2)
	// Unbound peer: the frame vanishes (dark NIC), counted as a send err.
	if err := m.Endpoint(0).Send(Frame{Dst: 1}); err != nil {
		t.Fatalf("send to unbound peer: %v", err)
	}
	if errs := m.Endpoint(0).Stats().SendErrs; errs != 1 {
		t.Errorf("SendErrs = %d after unbound send, want 1", errs)
	}
	if err := m.Endpoint(0).Send(Frame{Dst: 5}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	m.Close()
	if err := m.Endpoint(0).Send(Frame{Dst: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
}

func TestWrapMeshAppliesWrapperOncePerRank(t *testing.T) {
	inner := NewLoopback(2)
	wraps := 0
	m := WrapMesh(inner, func(ep Endpoint) Endpoint {
		wraps++
		return ep
	})
	defer m.Close()
	if m.Size() != 2 {
		t.Fatalf("Size = %d", m.Size())
	}
	for i := 0; i < 3; i++ {
		m.Endpoint(0)
		m.Endpoint(1)
	}
	if wraps != 2 {
		t.Errorf("wrapper applied %d times, want once per rank", wraps)
	}
}
