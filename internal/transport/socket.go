package transport

// Socket: the real backend. Each rank owns one Unix-domain listener plus
// one write-only connection per peer it sends to, dialed lazily on first
// send. Connections are strictly unidirectional — dialed connections are
// written, accepted connections are read — so there is no
// connection-identity handshake, no dial race between peers, and
// per-(src,dst) frame order is exactly the byte order of one stream.
//
// Rendezvous is a shared directory: rank i listens on the socket file
// <dir>/rank<i>.sock. Dialers poll for the peer's socket until
// DialTimeout: workers of a cmd/mpirun launch come up in any order.
//
// System calls are the cost of a small frame, so both directions batch.
// SendBatch writes a whole batch of frames with one writev: headers are
// encoded into a per-peer arena and payloads are scatter-gathered, never
// copied. The reader pulls the stream through a readBuf-sized buffer and
// decodes headers in place, so a flood of small frames costs one read per
// buffer, not two per frame.

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Env variable names used by cmd/mpirun to configure worker processes.
const (
	EnvRank = "MPIOFFLOAD_RANK"
	EnvSize = "MPIOFFLOAD_SIZE"
	EnvRdv  = "MPIOFFLOAD_RDV"
)

// DefaultDialTimeout bounds how long a sender waits for a peer's socket
// to appear in the rendezvous directory.
const DefaultDialTimeout = 10 * time.Second

// SocketConfig configures one rank's socket endpoint.
type SocketConfig struct {
	Rank, Size  int
	Dir         string        // shared rendezvous directory
	DialTimeout time.Duration // 0 = DefaultDialTimeout
}

// EnvConfig reads a worker configuration from the environment (set by
// cmd/mpirun). ok is false when the process was not launched as a worker.
func EnvConfig() (SocketConfig, bool) {
	rankS, okR := os.LookupEnv(EnvRank)
	sizeS, okS := os.LookupEnv(EnvSize)
	dir, okD := os.LookupEnv(EnvRdv)
	if !okR || !okS || !okD {
		return SocketConfig{}, false
	}
	rank, err1 := strconv.Atoi(rankS)
	size, err2 := strconv.Atoi(sizeS)
	if err1 != nil || err2 != nil {
		return SocketConfig{}, false
	}
	return SocketConfig{Rank: rank, Size: size, Dir: dir}, true
}

// Socket is one rank's socket endpoint.
type Socket struct {
	cfg      SocketConfig
	listener net.Listener

	h      atomic.Pointer[Handler]
	closed atomic.Bool

	mu    sync.Mutex // guards conns and accepted during setup/teardown
	conns map[int]*peerConn
	acc   map[net.Conn]struct{}

	wg sync.WaitGroup // accept loop + readers
	counters
}

// readBuf is the reader's buffer size: a few hundred small frames per
// read(2) under a flood.
const readBuf = 16 << 10

// peerConn is one write-only connection to a peer.
type peerConn struct {
	mu   sync.Mutex // serializes writes (agents with different tags share a peer)
	conn net.Conn
	err  error // sticky dial failure
	once sync.Once
	// Reused under mu: hdr is the header arena, iov the writev vector
	// (header, payload, header, ...), bufs the copy of it that writev
	// consumes.
	hdr  []byte
	iov  [][]byte
	bufs net.Buffers
}

// Listen creates rank cfg.Rank's endpoint: binds the listener on its
// rendezvous socket file and starts the accept loop. Call Bind before
// peers are expected to send.
func Listen(cfg SocketConfig) (*Socket, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	path := unixPath(cfg.Dir, cfg.Rank)
	_ = os.Remove(path) // stale socket from a crashed prior run
	ln, err := net.Listen("unix", path)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen: %w", cfg.Rank, err)
	}
	s := &Socket{cfg: cfg, listener: ln, conns: make(map[int]*peerConn), acc: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func unixPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d.sock", rank))
}

// Rank returns this endpoint's rank.
func (s *Socket) Rank() int { return s.cfg.Rank }

// Size returns the job's rank count.
func (s *Socket) Size() int { return s.cfg.Size }

// Bind installs the delivery handler.
func (s *Socket) Bind(h Handler) { s.h.Store(&h) }

// acceptLoop accepts peer connections and spawns one reader per
// connection until the listener closes.
func (s *Socket) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed (or fatal); Close handles cleanup
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.acc[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

// countedReader counts the reads it makes on the connection under it.
type countedReader struct {
	r     io.Reader
	calls *atomic.Int64
}

func (c countedReader) Read(p []byte) (int, error) {
	c.calls.Add(1)
	return c.r.Read(p)
}

// payloadPool recycles the socket reader's payload buffers of minPooled
// bytes and up, by power-of-two size class, keeping at most poolBudget
// idle bytes. A buffer may only be recycled once nothing references it,
// and the pool hands out only buffers that the delivered frame alone
// references:
//
//   - the reader draws a buffer, fills it, marks the frame pooled, hands
//     it to the handler and forgets it once the handler returns; the
//     stream delivers each frame once, so no second frame shares it;
//   - every other payload a handler sees stays unmarked: Loopback delivers
//     the sender's own slice, which the pool never handed out, and
//     ReadFrame's payloads belong to its caller.
//
// So the handler that receives a pooled frame is its only owner, and
// Recycle after its last use cannot pull bytes from under anyone.
type payloadPool struct {
	mu   sync.Mutex
	idle int                   // bytes on the free lists
	free [poolClasses][][]byte // class c holds cap 1<<(c+minPooledBits)
}

const (
	minPooledBits = 10 // payloads of 1 KiB and up are pooled
	minPooled     = 1 << minPooledBits
	poolClasses   = 31 - minPooledBits // up to MaxFrameData
	poolBudget    = 4 << 20
)

var payloads payloadPool

// poolClass is the class whose buffers hold n >= minPooled bytes.
func poolClass(n int) int { return bits.Len(uint(n-1)) - minPooledBits }

// get returns a buffer of length n, recycled when one is idle.
func (p *payloadPool) get(n int) []byte {
	c := poolClass(n)
	p.mu.Lock()
	if l := p.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[c] = l[:len(l)-1]
		p.idle -= cap(b)
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<(c+minPooledBits))
}

// put takes b back if the budget has room for it.
func (p *payloadPool) put(b []byte) {
	c := poolClass(cap(b))
	if cap(b) < minPooled || c >= poolClasses || cap(b) != 1<<(c+minPooledBits) {
		return // not one of get's buffers
	}
	p.mu.Lock()
	if p.idle+cap(b) <= poolBudget {
		p.free[c] = append(p.free[c], b[:0])
		p.idle += cap(b)
	}
	p.mu.Unlock()
}

// Recycle hands a pooled frame's payload (Frame.Pooled) back to the socket
// reader once its owner is done with the bytes; nothing may touch b after.
func Recycle(b []byte) { payloads.put(b) }

// frameReader decodes frames out of a buffered stream. Headers are parsed
// in place from the buffer (Peek/Discard), so a frame costs at most one
// allocation, its payload, and none when the payload is recycled. A
// payload longer than the buffered bytes is finished straight from the
// stream into that buffer, so a large frame is not copied twice.
type frameReader struct {
	br  *bufio.Reader
	raw io.Reader
}

func newFrameReader(raw io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(raw, readBuf), raw: raw}
}

// next decodes one frame. A stream that ends cleanly between frames
// returns io.EOF; one that ends inside a frame returns
// io.ErrUnexpectedEOF.
func (fr *frameReader) next() (Frame, error) {
	h, err := fr.br.Peek(HeaderLen)
	if err != nil {
		if err == io.EOF && len(h) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, n, err := decodeHeader(h)
	if err != nil {
		return Frame{}, err
	}
	_, _ = fr.br.Discard(HeaderLen) // peeked above, so it cannot fail
	if n == 0 {
		return f, nil
	}
	if n >= minPooled {
		f.Data, f.pooled = payloads.get(n), true
	} else {
		f.Data = make([]byte, n)
	}
	// Read takes the buffered bytes without touching the stream, or, with
	// the buffer empty, reads once (straight into Data if it is at least a
	// buffer long); the rest, if any, comes straight from the stream.
	k, err := fr.br.Read(f.Data)
	if err == nil && k < n {
		_, err = io.ReadFull(fr.raw, f.Data[k:])
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if f.pooled {
			payloads.put(f.Data)
		}
		return Frame{}, err
	}
	return f, nil
}

// readLoop decodes frames off one accepted connection and hands them to
// the bound handler. A frame that lands before Bind waits briefly — the
// window only exists between a worker's Listen and Bind calls.
func (s *Socket) readLoop(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.acc, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	fr := newFrameReader(countedReader{conn, &s.readCalls})
	for {
		f, err := fr.next()
		if err != nil {
			return // EOF, peer close, or teardown
		}
		s.noteRecv(WireLen(&f))
		for {
			if h := s.h.Load(); h != nil {
				(*h)(f)
				break
			}
			if s.closed.Load() {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// Send writes f to the destination's connection: a batch of one.
func (s *Socket) Send(f Frame) error { return s.SendBatch([]Frame{f}) }

// SendBatch writes fs, which must all share one Dst, to that peer's
// connection with one writev, dialing it on first use. It blocks when the
// kernel socket buffer is full — real backpressure, absorbed by the
// offload agent rather than the application thread.
func (s *Socket) SendBatch(fs []Frame) error {
	if len(fs) == 0 {
		return nil
	}
	if s.closed.Load() {
		s.sendErrs.Add(1)
		return ErrClosed
	}
	dst := fs[0].Dst
	if dst < 0 || dst >= s.cfg.Size {
		s.sendErrs.Add(1)
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", dst, s.cfg.Size)
	}
	pc := s.peer(dst)
	pc.once.Do(func() { pc.conn, pc.err = s.dial(dst) })
	if pc.err != nil {
		s.sendErrs.Add(1)
		return pc.err
	}
	bytes := 0
	for i := range fs {
		if fs[i].Dst != dst {
			s.sendErrs.Add(1)
			return fmt.Errorf("transport: batch mixes destinations %d and %d", dst, fs[i].Dst)
		}
		bytes += WireLen(&fs[i])
	}
	pc.mu.Lock()
	if need := len(fs) * HeaderLen; cap(pc.hdr) < need {
		pc.hdr = make([]byte, need)
	}
	iov := pc.iov[:0]
	for i := range fs {
		h := pc.hdr[i*HeaderLen : (i+1)*HeaderLen : (i+1)*HeaderLen]
		putHeader(h, &fs[i])
		iov = append(iov, h)
		if len(fs[i].Data) > 0 {
			iov = append(iov, fs[i].Data)
		}
	}
	pc.bufs = iov
	_, err := pc.bufs.WriteTo(pc.conn)
	clear(iov) // drop the payload references
	pc.iov = iov[:0]
	pc.mu.Unlock()
	s.writeCalls.Add(1)
	if err != nil {
		s.sendErrs.Add(1)
		return err
	}
	s.noteSend(len(fs), bytes)
	return nil
}

func (s *Socket) peer(dst int) *peerConn {
	s.mu.Lock()
	pc := s.conns[dst]
	if pc == nil {
		pc = &peerConn{}
		s.conns[dst] = pc
	}
	s.mu.Unlock()
	return pc
}

// dial connects to dst, polling the rendezvous directory until its socket
// appears (workers start in any order) or the timeout expires.
func (s *Socket) dial(dst int) (net.Conn, error) {
	deadline := time.Now().Add(s.cfg.DialTimeout)
	backoff := time.Millisecond
	for {
		if s.closed.Load() {
			return nil, ErrClosed
		}
		conn, err := net.DialTimeout("unix", unixPath(s.cfg.Dir, dst), time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: rank %d cannot reach rank %d after %v: %w",
				s.cfg.Rank, dst, s.cfg.DialTimeout, err)
		}
		time.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// Close tears the endpoint down: listener (which unlinks the socket
// file), every dialed and accepted connection — then joins the accept
// loop and every reader goroutine. Idempotent.
func (s *Socket) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		s.wg.Wait()
		return nil
	}
	s.listener.Close()
	s.mu.Lock()
	for _, pc := range s.conns {
		// Mark never-dialed peers closed so a racing Send fails fast
		// instead of dialing into a dead mesh.
		pc.once.Do(func() { pc.err = ErrClosed })
		if pc.conn != nil {
			pc.conn.Close()
		}
	}
	for conn := range s.acc {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats returns the endpoint's traffic counters.
func (s *Socket) Stats() Stats { return s.snapshot() }

// SocketMesh is an in-process mesh of socket endpoints — every rank in
// one process but every byte through real kernel sockets. Used by tests
// and by cmd/netbench's single-process sweeps; cmd/mpirun builds the
// multi-process equivalent with one Listen per worker.
type SocketMesh struct {
	dir string
	eps []*Socket
}

// NewSocketMesh listens n in-process endpoints rendezvousing through a
// fresh temp directory. Sockets are Unix-domain only: network must be
// "unix".
func NewSocketMesh(network string, n int) (*SocketMesh, error) {
	if network != "unix" {
		return nil, fmt.Errorf("transport: unsupported network %q (want unix)", network)
	}
	dir, err := os.MkdirTemp("", "mpioffload-net-")
	if err != nil {
		return nil, err
	}
	m := &SocketMesh{dir: dir, eps: make([]*Socket, n)}
	for i := 0; i < n; i++ {
		ep, err := Listen(SocketConfig{Rank: i, Size: n, Dir: dir})
		if err != nil {
			m.Close()
			return nil, err
		}
		m.eps[i] = ep
	}
	return m, nil
}

// Endpoint returns rank's endpoint.
func (m *SocketMesh) Endpoint(rank int) Endpoint { return m.eps[rank] }

// Size returns the rank count.
func (m *SocketMesh) Size() int { return len(m.eps) }

// Dir returns the rendezvous directory (removed by Close).
func (m *SocketMesh) Dir() string { return m.dir }

// Close closes every endpoint and removes the rendezvous directory.
func (m *SocketMesh) Close() error {
	var first error
	for _, ep := range m.eps {
		if ep == nil {
			continue
		}
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(m.dir); err != nil && first == nil {
		first = err
	}
	return first
}
