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

import (
	"fmt"
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

// peerConn is one write-only connection to a peer.
type peerConn struct {
	mu   sync.Mutex // serializes writes (agents with different tags share a peer)
	conn net.Conn
	err  error // sticky dial failure
	once sync.Once
	buf  []byte // encode scratch, reused under mu
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
	for {
		f, err := ReadFrame(conn)
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

// Send encodes f and writes it to the destination's connection, dialing
// it on first use. Send blocks when the kernel socket buffer is full —
// real backpressure, absorbed by the offload agent rather than the
// application thread.
func (s *Socket) Send(f Frame) error {
	if s.closed.Load() {
		s.sendErrs.Add(1)
		return ErrClosed
	}
	if f.Dst < 0 || f.Dst >= s.cfg.Size {
		s.sendErrs.Add(1)
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", f.Dst, s.cfg.Size)
	}
	pc := s.peer(f.Dst)
	pc.once.Do(func() { pc.conn, pc.err = s.dial(f.Dst) })
	if pc.err != nil {
		s.sendErrs.Add(1)
		return pc.err
	}
	pc.mu.Lock()
	pc.buf = AppendFrame(pc.buf[:0], &f)
	_, err := pc.conn.Write(pc.buf)
	pc.mu.Unlock()
	if err != nil {
		s.sendErrs.Add(1)
		return err
	}
	s.noteSend(HeaderLen + len(f.Data))
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
