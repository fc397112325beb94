package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mpioffload/internal/transport"
)

// The traced pass records spans from this package only, around the calls
// it makes into sim, rt and transport. Spans stay in memory and are written
// as Chrome trace_event JSON when the run ends. Every method is a no-op on
// a nil *track, which is how the end-to-end pass runs with tracing off.

// msgID names the message a span belongs to; rank < 0 means none.
type msgID struct {
	rank, thread int32
	seq          int64
}

var noMsg = msgID{rank: -1}

type spanRec struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int64 // span id; 0 = none
	msg        msgID
}

// track is one timeline (one goroutine's view, or one wrapped endpoint).
type track struct {
	tr     *tracer
	id     int64
	name   string
	stride int64 // observe keeps one call in stride

	mu    sync.Mutex
	spans []spanRec
	calls int64 // observe calls seen, kept or not
	busy  int64 // ns summed over all observe calls
}

type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrack adds a timeline; nil tracer gives a nil track.
func (tr *tracer) newTrack(name string, stride int64) *track {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tk := &track{tr: tr, id: int64(len(tr.tracks) + 1), name: name, stride: stride}
	tr.tracks = append(tr.tracks, tk)
	return tk
}

func (tk *track) now() int64 {
	if tk == nil {
		return 0
	}
	return int64(time.Since(tk.tr.epoch))
}

// open starts a span and returns its id; close ends it.
func (tk *track) open(name string, parent int64, msg msgID) int64 {
	if tk == nil {
		return 0
	}
	start := tk.now()
	tk.mu.Lock()
	tk.spans = append(tk.spans, spanRec{name: name, start: start, parent: parent, msg: msg})
	id := tk.id<<32 | int64(len(tk.spans))
	tk.mu.Unlock()
	return id
}

func (tk *track) close(id int64) {
	if tk == nil {
		return
	}
	end := tk.now()
	tk.mu.Lock()
	tk.spans[int(id&0xFFFFFFFF)-1].end = end
	tk.mu.Unlock()
}

// observe records a finished call on a high-rate timeline: its duration
// always counts toward busy, its span is kept once per stride.
func (tk *track) observe(name string, start, end, parent int64, msg msgID) {
	tk.mu.Lock()
	tk.calls++
	tk.busy += end - start
	if tk.calls%tk.stride == 0 {
		tk.spans = append(tk.spans, spanRec{name: name, start: start, end: end, parent: parent, msg: msg})
	}
	tk.mu.Unlock()
}

// totals returns how many calls observe saw and their summed length.
func (tk *track) totals() (calls, busyNs int64) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.calls, tk.busy
}

// durations returns the lengths (ns) of the finished spans called name.
func (tk *track) durations(name string) []float64 {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	var out []float64
	for _, s := range tk.spans {
		if s.name == name && s.end >= s.start && s.end != 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeChrome writes every span as a Chrome trace_event "X" event (load
// the file in chrome://tracing or ui.perfetto.dev).
func (tr *tracer) writeChrome(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
	}
	tr.mu.Lock()
	tracks := append([]*track(nil), tr.tracks...)
	tr.mu.Unlock()
	for _, tk := range tracks {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tk.id, tk.name)
		tk.mu.Lock()
		for i, s := range tk.spans {
			if s.end < s.start {
				continue
			}
			sep()
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d`,
				s.name, tk.id, float64(s.start)/1e3, float64(s.end-s.start)/1e3, tk.id<<32|int64(i+1), s.parent)
			if s.msg.rank >= 0 {
				fmt.Fprintf(w, `,"rank":%d,"thread":%d,"seq":%d`, s.msg.rank, s.msg.thread, s.msg.seq)
			}
			w.WriteString("}}")
		}
		tk.mu.Unlock()
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

// timedEndpoint wraps a transport endpoint for the traced pass: it times
// every Send and every upcall into the bound handler. parentOf maps a data
// frame to the span that posted it and the message it carries.
type timedEndpoint struct {
	transport.Endpoint
	send, deliver *track
	parentOf      func(f *transport.Frame) (int64, msgID)
}

func (e *timedEndpoint) Send(f transport.Frame) error {
	parent, msg := e.parentOf(&f)
	t0 := e.send.now()
	err := e.Endpoint.Send(f)
	e.send.observe("transport.Send", t0, e.send.now(), parent, msg)
	return err
}

func (e *timedEndpoint) Bind(h transport.Handler) {
	e.Endpoint.Bind(func(f transport.Frame) {
		parent, msg := e.parentOf(&f)
		t0 := e.deliver.now()
		h(f)
		e.deliver.observe("rt.deliver", t0, e.deliver.now(), parent, msg)
	})
}

// timedMesh wraps every endpoint of m. stride thins the kept spans on
// floods; durations and busy time always count every call.
func timedMesh(m transport.Mesh, tr *tracer, stride int64, parentOf func(f *transport.Frame) (int64, msgID)) (transport.Mesh, []*timedEndpoint) {
	eps := make([]*timedEndpoint, m.Size())
	wrapped := transport.WrapMesh(m, func(ep transport.Endpoint) transport.Endpoint {
		te := &timedEndpoint{
			Endpoint: ep,
			send:     tr.newTrack(fmt.Sprintf("rank%d transport.Send", ep.Rank()), stride),
			deliver:  tr.newTrack(fmt.Sprintf("rank%d deliver upcall", ep.Rank()), stride),
			parentOf: parentOf,
		}
		eps[ep.Rank()] = te
		return te
	})
	return wrapped, eps
}
