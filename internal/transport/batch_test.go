package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pattern fills a payload whose bytes depend on (stream, i, position), so a
// frame delivered in the wrong place or with a torn payload is caught.
func pattern(stream, i, n int) []byte {
	b := make([]byte, n)
	for k := range b {
		b[k] = byte(stream*131 + i*31 + k*7)
	}
	return b
}

// TestSocketBatchMixedSizes: one batch mixing a zero-length frame, 64 B
// frames and a 1 MiB frame — frames that straddle the reader's buffer and
// one far larger than it — goes out in one write call and every frame
// arrives intact and in order. A batch with two destinations, or to no
// rank of the mesh, is refused.
func TestSocketBatchMixedSizes(t *testing.T) {
	m, err := NewSocketMesh("unix", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got := make(chan Frame, 64)
	m.Endpoint(1).Bind(func(f Frame) { got <- f })

	sizes := []int{0, 64, 64, 1 << 20, 64, 0, 5000, 64, readBuf - HeaderLen, 64}
	fs := make([]Frame, len(sizes))
	for i, n := range sizes {
		fs[i] = Frame{Kind: KindData, Src: 0, Dst: 1, Tag: i, Flow: int64(100 + i), Data: pattern(0, i, n)}
	}
	want := append([]Frame(nil), fs...)
	if _, ok := m.Endpoint(0).(Batcher); !ok {
		t.Fatal("Socket does not implement Batcher")
	}
	if err := SendBatch(m.Endpoint(0), fs); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		f := recvFrame(t, got)
		if f.Src != 0 || f.Dst != 1 || f.Tag != i || f.Flow != w.Flow || !bytes.Equal(f.Data, w.Data) {
			t.Fatalf("frame %d: got tag %d flow %d len %d, want tag %d flow %d len %d",
				i, f.Tag, f.Flow, len(f.Data), i, w.Flow, len(w.Data))
		}
	}
	s := m.Endpoint(0).Stats()
	wire := 0
	for i := range want {
		wire += WireLen(&want[i])
	}
	if s.WriteCalls != 1 || s.FramesSent != int64(len(want)) || s.BytesSent != int64(wire) {
		t.Errorf("sender stats %+v: want 1 write call, %d frames, %d bytes", s, len(want), wire)
	}
	if r := m.Endpoint(1).Stats(); r.FramesRecv != int64(len(want)) || r.ReadCalls == 0 {
		t.Errorf("receiver stats %+v", r)
	}

	mixed := []Frame{{Src: 0, Dst: 1}, {Src: 0, Dst: 0}}
	if err := SendBatch(m.Endpoint(0), mixed); err == nil {
		t.Error("a batch with two destinations was accepted")
	}
	if err := SendBatch(m.Endpoint(0), []Frame{{Src: 0, Dst: 2}}); err == nil {
		t.Error("a batch to rank 2 of 2 was accepted")
	}
}

// TestSocketBatchConcurrent: several goroutines share one peer's header
// arena and write vector; batches of every size interleave on the stream
// without tearing, each sender's frames in order. Tag names the sender and
// Flow carries the frame's index in that sender's sequence.
func TestSocketBatchConcurrent(t *testing.T) {
	m, err := NewSocketMesh("unix", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const senders, per = 4, 300
	got := make(chan Frame, senders*per)
	m.Endpoint(1).Bind(func(f Frame) { got <- f })
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; {
				var fs []Frame
				for k := 0; k <= (i+s)%7 && i < per; k++ {
					fs = append(fs, Frame{Kind: KindData, Src: 0, Dst: 1, Tag: s, Flow: int64(i), Data: pattern(s, i, (i*37)%300)})
					i++
				}
				if err := SendBatch(m.Endpoint(0), fs); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	next := make([]int, senders)
	for n := 0; n < senders*per; n++ {
		f := recvFrame(t, got)
		i := next[f.Tag]
		if f.Flow != int64(i) || !bytes.Equal(f.Data, pattern(f.Tag, i, (i*37)%300)) {
			t.Fatalf("sender %d: frame %d arrived where %d was due, or torn", f.Tag, f.Flow, i)
		}
		next[f.Tag]++
	}
}

// TestSendBatchFallback: an endpoint that is not a Batcher gets the frames
// one Send at a time, in order; in-process backends count no system calls.
func TestSendBatchFallback(t *testing.T) {
	m := NewLoopback(2)
	defer m.Close()
	if _, ok := m.Endpoint(0).(Batcher); ok {
		t.Fatal("Loopback unexpectedly implements Batcher")
	}
	var got []int
	m.Endpoint(1).Bind(func(f Frame) { got = append(got, f.Tag) })
	fs := []Frame{{Src: 0, Dst: 1, Tag: 1}, {Src: 0, Dst: 1, Tag: 2}, {Src: 0, Dst: 1, Tag: 3}}
	if err := SendBatch(m.Endpoint(0), fs); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("delivered tags %v, want [1 2 3]", got)
	}
	if s := m.Endpoint(0).Stats(); s.FramesSent != 3 || s.WriteCalls != 0 || s.ReadCalls != 0 {
		t.Errorf("loopback stats %+v", s)
	}
	m.Endpoint(0).Close()
	if err := SendBatch(m.Endpoint(0), fs); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close: %v, want ErrClosed", err)
	}
}

// TestBatchReaderCutStream: a stream that ends inside a frame ends the
// reader with io.ErrUnexpectedEOF (a clean end between frames with
// io.EOF), and a socket whose peer hangs up mid-payload delivers nothing
// and lets its reader goroutine go.
func TestBatchReaderCutStream(t *testing.T) {
	one := AppendFrame(nil, &Frame{Kind: KindData, Src: 0, Dst: 1, Tag: 4, Data: pattern(0, 0, 100)})
	for _, tc := range []struct {
		name string
		wire []byte
		want error
	}{
		{"clean", one, io.EOF},
		{"mid-header", one[:HeaderLen/2], io.ErrUnexpectedEOF},
		{"mid-payload", one[:HeaderLen+10], io.ErrUnexpectedEOF},
	} {
		fr := newFrameReader(bytes.NewReader(tc.wire))
		var err error
		for err == nil {
			_, err = fr.next()
		}
		if err != tc.want {
			t.Errorf("%s: reader ended with %v, want %v", tc.name, err, tc.want)
		}
	}

	dir := t.TempDir()
	ep, err := Listen(SocketConfig{Rank: 1, Size: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	delivered := make(chan Frame, 1)
	ep.Bind(func(f Frame) { delivered <- f })
	before := runtime.NumGoroutine()
	conn, err := net.Dial("unix", unixPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(one[:HeaderLen+10]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The reader reads the partial frame, then the hang-up, then exits.
	for deadline := time.Now().Add(5 * time.Second); ep.Stats().ReadCalls < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("reader never saw the hang-up: %+v", ep.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	waitGoroutines(t, before)
	select {
	case f := <-delivered:
		t.Fatalf("a cut frame was delivered: %+v", f)
	default:
	}
	if s := ep.Stats(); s.FramesRecv != 0 {
		t.Errorf("stats after a cut stream %+v", s)
	}
}

// repeatReader serves the same bytes forever without allocating.
type repeatReader struct {
	wire []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.wire[r.off:])
	r.off = (r.off + n) % len(r.wire)
	return n, nil
}

// TestBatchReaderAllocs pins the reader's decode at one allocation per
// frame, the payload: the header is parsed in place from the buffer.
func TestBatchReaderAllocs(t *testing.T) {
	f := Frame{Kind: KindData, Src: 0, Dst: 1, Tag: 2, Flow: 3, Data: pattern(0, 0, 64)}
	fr := newFrameReader(&repeatReader{wire: AppendFrame(nil, &f)})
	allocs := testing.AllocsPerRun(1000, func() {
		g, err := fr.next()
		if err != nil || g.Tag != 2 || len(g.Data) != 64 || g.Data[1] != f.Data[1] {
			panic(fmt.Sprintf("decoded %+v, %v", g, err))
		}
	})
	if allocs != 1 {
		t.Errorf("reader decode: %v allocations per frame, want 1 (the payload)", allocs)
	}
}

// TestBatchHeaderCodec: the shared encoder and decoder round-trip every
// field, and the decoder refuses a corrupt magic and an oversized length.
func TestBatchHeaderCodec(t *testing.T) {
	f := Frame{Kind: KindData, Src: 3, Dst: -1, Tag: -7, Flow: -5, Data: make([]byte, 9)}
	var h [HeaderLen]byte
	putHeader(h[:], &f)
	g, n, err := decodeHeader(h[:])
	if err != nil || n != 9 || g.Kind != f.Kind || g.Src != f.Src || g.Dst != f.Dst || g.Tag != f.Tag || g.Flow != f.Flow {
		t.Fatalf("round trip: %+v n=%d err=%v", g, n, err)
	}
	bad := h
	bad[0] ^= 0xff
	if _, _, err := decodeHeader(bad[:]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("corrupt magic: %v", err)
	}
	big := h
	binary.LittleEndian.PutUint32(big[24:28], MaxFrameData+1)
	if _, _, err := decodeHeader(big[:]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized payload length: %v", err)
	}
}
