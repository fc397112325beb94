package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpioffload/internal/transport"
	"mpioffload/rt"
)

// The rt workloads run the wall-clock engine as a user would: one process,
// two ranks, real goroutines. The load is sized for a two-core shared host:
// two submitting threads, one socket pair per direction, fixed work per
// repetition. Every message is checked on receipt.

// ---- payloads -----------------------------------------------------------

// payloads makes and checks message contents from the run's seed. A message
// of thread t with sequence number s carries s XOR a per-thread key in its
// first eight bytes and, when longer, a seed-derived window of base behind
// it; both ends derive the same bytes, so nothing but the seed is shared.
type payloads struct {
	seed int64
	base []byte // 2 × the largest message, random from the seed
}

func newPayloads(seed int64, maxSize int) *payloads {
	p := &payloads{seed: seed, base: make([]byte, 2*maxSize)}
	rand.New(rand.NewSource(seed)).Read(p.base)
	return p
}

func (p *payloads) key(thread int) uint64 {
	x := uint64(p.seed)*0x9E3779B97F4A7C15 + uint64(thread+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x * 0x94D049BB133111EB
}

func (p *payloads) window(thread int, seq int64, n int) []byte {
	off := int((uint64(seq)*61 + uint64(thread)*7919) % uint64(len(p.base)/2))
	return p.base[off : off+n]
}

// fill writes message (thread, seq) into buf; len(buf) >= 8.
func (p *payloads) fill(buf []byte, thread int, seq int64) {
	binary.LittleEndian.PutUint64(buf, uint64(seq)^p.key(thread))
	if len(buf) > 8 {
		copy(buf[8:], p.window(thread, seq, len(buf)-8))
	}
}

// seqOf decodes the sequence number a payload of thread claims.
func (p *payloads) seqOf(buf []byte, thread int) int64 {
	return int64(binary.LittleEndian.Uint64(buf) ^ p.key(thread))
}

// checker verifies one (thread, tag) stream on its receiving side:
// non-overtaking, exactly once, right length, right bytes.
type checker struct {
	p      *payloads
	thread int
	size   int
	next   int64
	bad    int64
	why    string
}

func (c *checker) note(format string, args ...any) {
	c.bad++
	if c.why == "" {
		c.why = fmt.Sprintf("thread %d: ", c.thread) + fmt.Sprintf(format, args...)
	}
}

// check judges one completed receive of n bytes in buf.
func (c *checker) check(buf []byte, n int, err error) {
	want := c.next
	c.next++
	switch {
	case err != nil:
		c.note("seq %d: %v", want, err)
		return
	case n != c.size:
		c.note("seq %d: length %d, want %d", want, n, c.size)
		return
	}
	got := c.p.seqOf(buf, c.thread)
	switch {
	case got < want:
		c.note("seq %d arrived again or late (expected %d)", got, want)
		c.next = want // the stream did not advance
		return
	case got > want:
		c.note("seq %d arrived where %d was due (lost or overtaken)", got, want)
		c.next = got + 1
		return
	}
	if n > 8 && !bytes.Equal(buf[8:n], c.p.window(c.thread, got, n-8)) {
		c.note("seq %d: payload mismatch", got)
	}
}

// ---- cluster life cycle -------------------------------------------------

type clusterShape struct {
	unix bool
	opts rt.Options
	// watchdog bounds WaitErr. Full-size runs leave it at 0, the default a
	// caller of Send and Recv gets (the bounded wait reads the clock in
	// its spin loop: a quarter of an 8 B round trip); stallGuard ends a
	// run that lost a message. The smoke test bounds it, to see a dropped
	// frame as a failed operation.
	watchdog time.Duration
	// wrap lets the smoke test put a misbehaving endpoint under the cluster.
	wrap func(transport.Endpoint) transport.Endpoint
}

// leakMark is the goroutine and descriptor count before a repetition.
type leakMark struct{ goroutines, fds int }

func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

func markLeaks() leakMark {
	// The runtime's poller opens its two descriptors at a process's first
	// timer or socket, and keeps them: make sure that is behind us.
	time.Sleep(time.Nanosecond)
	return leakMark{runtime.NumGoroutine(), openFDs()}
}

// settled waits for goroutines and descriptors to return to the mark; a
// closed cluster's reader goroutines may need a moment to unwind.
func (m leakMark) settled() error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if g <= m.goroutines && f <= m.fds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak after Close: goroutines %d → %d, open fds %d → %d", m.goroutines, g, m.fds, f)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// liveCluster is a built cluster plus what the traced pass hung on it.
type liveCluster struct {
	c     *rt.Cluster
	mesh  transport.Mesh
	timed []*timedEndpoint
}

// newCluster builds mesh and cluster. parentOf is used only when tr != nil.
func newCluster(sh clusterShape, mode rt.Mode, tr *tracer, stride int64, parentOf func(*transport.Frame) (int64, msgID)) (*liveCluster, error) {
	var mesh transport.Mesh
	if sh.unix {
		m, err := transport.NewSocketMesh("unix", 2)
		if err != nil {
			return nil, err
		}
		mesh = m
	} else {
		mesh = transport.NewLoopback(2)
	}
	lc := &liveCluster{}
	if sh.wrap != nil {
		mesh = transport.WrapMesh(mesh, sh.wrap)
	}
	if tr != nil {
		mesh, lc.timed = timedMesh(mesh, tr, stride, parentOf)
	}
	o := sh.opts
	o.Transport = mesh
	lc.mesh = mesh
	lc.c = rt.NewClusterOpts(2, mode, o)
	lc.c.SetWatchdog(sh.watchdog)
	// As in cmd/netbench: the flight recorder reads the clock at every
	// transition, which at flood rates is two fifths of the run and would
	// hide the engine underneath.
	lc.c.SetFlightRecorder(false)
	if tr != nil {
		lc.c.SetStatsEnabled(true)
	}
	return lc, nil
}

// rtRep is what one rt repetition measured.
type rtRep struct {
	setupS, wallS float64
	msgs, failed  int64 // measured messages; wireMsgs adds the warm-up
	wireMsgs      int64
	why           string
	oneWayUs      []float64 // ping-pong only: half of each round trip

	wire       transport.Stats // both endpoints summed
	polls      int64
	stats      rt.RankStats
	mallocs    uint64
	allocBytes uint64
	sendBusyNs int64
	sendCalls  int64
	sendNs     []float64
	deliverNs  []float64
	postNs     []float64 // per message
	waitUs     []float64
}

// fail counts n failed operations and keeps the first reason.
func (r *rtRep) fail(n int64, why string) {
	if n == 0 {
		return
	}
	r.failed += n
	if r.why == "" {
		r.why = why
	}
}

// finish reads the counters, closes the cluster and checks for leaks.
func (r *rtRep) finish(lc *liveCluster, mark leakMark) {
	for i := 0; i < 2; i++ {
		r.wire.Add(lc.mesh.Endpoint(i).Stats())
		r.polls += lc.c.Rank(i).Polls.Load()
	}
	r.stats = lc.c.Stats()
	for _, te := range lc.timed {
		if te == nil {
			continue
		}
		calls, busy := te.send.totals()
		r.sendCalls += calls
		r.sendBusyNs += busy
		r.sendNs = append(r.sendNs, te.send.durations("transport.Send")...)
		r.deliverNs = append(r.deliverNs, te.deliver.durations("rt.deliver")...)
	}
	lc.c.Close()
	if err := mark.settled(); err != nil {
		r.fail(1, err.Error())
	}
}

// memDelta reads the allocation counters around f.
func memDelta(f func()) (mallocs, allocBytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// ---- flood --------------------------------------------------------------

type floodShape struct {
	cluster clusterShape
	msgs    int64 // per repetition, over all sender threads
	warm    int64 // per thread, before the clock starts
	threads int
	burst   int
	size    int
}

func floodShapeFor(unix, tiny bool) floodShape {
	sh := floodShape{
		cluster: clusterShape{unix: unix, opts: rt.Options{ShardCount: 2, CmdBatchMax: 64}},
		msgs:    1_500_000, warm: 2048, threads: 2, burst: 256, size: 64,
	}
	if unix {
		sh.msgs = 300_000
	}
	if tiny {
		sh.msgs, sh.warm = 4096, 256
		sh.cluster.watchdog = 300 * time.Millisecond
	}
	return sh
}

// floodRep floods sh.msgs messages from sh.threads senders on rank 0 at
// as many windowed-Irecv receivers on rank 1.
func floodRep(sh floodShape, mode rt.Mode, pl *payloads, tr *tracer) (rtRep, error) {
	var rep rtRep
	runtime.GC()
	mark := markLeaks()
	perThread := sh.msgs / int64(sh.threads)
	nBursts := int((sh.warm+perThread)/int64(sh.burst)) + 2

	// postIDs[t][b] is the span that posted thread t's b-th burst; the
	// wrapped endpoints look a frame's parent up here.
	postIDs := make([][]atomic.Int64, sh.threads)
	for t := range postIDs {
		postIDs[t] = make([]atomic.Int64, nBursts)
	}
	parentOf := func(f *transport.Frame) (int64, msgID) {
		if f.Kind != transport.KindData || len(f.Data) < 8 || f.Tag >= sh.threads {
			return 0, noMsg
		}
		seq := pl.seqOf(f.Data, f.Tag)
		if seq < 0 || seq/int64(sh.burst) >= int64(nBursts) {
			return 0, noMsg
		}
		return postIDs[f.Tag][seq/int64(sh.burst)].Load(), msgID{int32(f.Src), int32(f.Tag), seq}
	}

	t0 := time.Now()
	lc, err := newCluster(sh.cluster, mode, tr, 64, parentOf)
	if err != nil {
		return rep, err
	}
	senders := make([]*rt.Thread, sh.threads)
	receivers := make([]*rt.Thread, sh.threads)
	checks := make([]*checker, sh.threads)
	sendTk := make([]*track, sh.threads)
	recvTk := make([]*track, sh.threads)
	for t := 0; t < sh.threads; t++ {
		senders[t] = lc.c.Rank(0).RegisterThread()
		receivers[t] = lc.c.Rank(1).RegisterThread()
		checks[t] = &checker{p: pl, thread: t, size: sh.size}
		sendTk[t] = tr.newTrack(fmt.Sprintf("rank0 sender %d", t), 1)
		recvTk[t] = tr.newTrack(fmt.Sprintf("rank1 receiver %d", t), 1)
	}
	sendErrs := make([]int64, sh.threads)

	// phase moves n messages per thread, continuing each stream at from.
	phase := func(from, n int64, parent int64) {
		var wg sync.WaitGroup
		for t := 0; t < sh.threads; t++ {
			t := t
			wg.Add(2)
			go func() { // receiver: a window of posted receives, retired in order
				defer wg.Done()
				th, tk := receivers[t], recvTk[t]
				bufs := make([][]byte, sh.burst)
				for i := range bufs {
					bufs[i] = make([]byte, sh.size)
				}
				hs := make([]rt.Handle, 0, sh.burst)
				for done := int64(0); done < n; {
					b := int64(sh.burst)
					if n-done < b {
						b = n - done
					}
					id := tk.open("rt.Irecv burst", parent, msgID{1, int32(t), from + done})
					for i := int64(0); i < b; i++ {
						hs = append(hs, th.Irecv(bufs[i], 0, t))
					}
					tk.close(id)
					id = tk.open("rt.Wait burst", parent, msgID{1, int32(t), from + done})
					for i, h := range hs {
						got, err := th.WaitErr(h)
						checks[t].check(bufs[i], got, err)
					}
					tk.close(id)
					hs = hs[:0]
					done += b
				}
			}()
			go func() { // sender: fill a burst, post it, retire it
				defer wg.Done()
				th, tk := senders[t], sendTk[t]
				bufs := make([][]byte, sh.burst)
				for i := range bufs {
					bufs[i] = make([]byte, sh.size)
				}
				hs := make([]rt.Handle, 0, sh.burst)
				for done := int64(0); done < n; {
					b := int64(sh.burst)
					if n-done < b {
						b = n - done
					}
					for i := int64(0); i < b; i++ {
						pl.fill(bufs[i], t, from+done+i)
					}
					id := tk.open("rt.Isend burst", parent, msgID{0, int32(t), from + done})
					if id != 0 {
						postIDs[t][(from+done)/int64(sh.burst)].Store(id)
					}
					for i := int64(0); i < b; i++ {
						hs = append(hs, th.Isend(bufs[i], 1, t))
					}
					tk.close(id)
					id = tk.open("rt.Wait burst", parent, msgID{0, int32(t), from + done})
					for _, h := range hs {
						if _, err := th.WaitErr(h); err != nil {
							sendErrs[t]++
						}
					}
					tk.close(id)
					hs = hs[:0]
					done += b
				}
			}()
		}
		wg.Wait()
	}

	mainTk := tr.newTrack("benchmark", 1)
	setupID := mainTk.open("setup", 0, noMsg)
	phase(0, sh.warm, setupID)
	mainTk.close(setupID)
	rep.setupS = time.Since(t0).Seconds()

	runID := mainTk.open("repetition", 0, noMsg)
	rep.mallocs, rep.allocBytes = memDelta(func() {
		t1 := time.Now()
		phase(sh.warm, perThread, runID)
		rep.wallS = time.Since(t1).Seconds()
	})
	mainTk.close(runID)
	rep.msgs = perThread * int64(sh.threads)
	rep.wireMsgs = rep.msgs + sh.warm*int64(sh.threads)

	for t := 0; t < sh.threads; t++ {
		rep.fail(checks[t].bad, checks[t].why)
		rep.fail(sendErrs[t], fmt.Sprintf("thread %d: %d sends failed", t, sendErrs[t]))
		for _, d := range sendTk[t].durations("rt.Isend burst") {
			rep.postNs = append(rep.postNs, d/float64(sh.burst))
		}
		for _, d := range recvTk[t].durations("rt.Wait burst") {
			rep.waitUs = append(rep.waitUs, d/1e3)
		}
	}
	closeID := mainTk.open("close", 0, noMsg)
	rep.finish(lc, mark)
	mainTk.close(closeID)
	return rep, nil
}

// ---- ping-pong ----------------------------------------------------------

type pingShape struct {
	cluster clusterShape
	size    int
	iters   int
	warm    int
}

func pingShapeFor(size int, tiny bool) pingShape {
	sh := pingShape{
		cluster: clusterShape{unix: true},
		size:    size, iters: 20_000, warm: 200,
	}
	if size > 1024 {
		sh.iters = 8_000
	}
	if tiny {
		sh.iters, sh.warm = 300, 20
		sh.cluster.watchdog = 300 * time.Millisecond
	}
	return sh
}

// pingRep runs one blocking send/receive thread pair: rank 0 sends message
// i of its stream and waits for message i of rank 1's stream, rank 1 the
// reverse. Both directions are checked.
func pingRep(sh pingShape, pl *payloads, tr *tracer) (rtRep, error) {
	var rep rtRep
	runtime.GC()
	mark := markLeaks()
	parentOf := func(f *transport.Frame) (int64, msgID) {
		if f.Kind != transport.KindData || len(f.Data) < 8 || f.Tag > 1 {
			return 0, noMsg
		}
		return 0, msgID{int32(f.Src), int32(f.Tag), pl.seqOf(f.Data, f.Tag)}
	}
	t0 := time.Now()
	lc, err := newCluster(sh.cluster, rt.Offload, tr, 1, parentOf)
	if err != nil {
		return rep, err
	}
	ths := [2]*rt.Thread{lc.c.Rank(0).RegisterThread(), lc.c.Rank(1).RegisterThread()}
	tks := [2]*track{tr.newTrack("rank0 ping", 1), tr.newTrack("rank1 pong", 1)}
	// Stream (= tag) 0 flows 0 → 1, stream 1 flows 1 → 0.
	checks := [2]*checker{{p: pl, thread: 0, size: sh.size}, {p: pl, thread: 1, size: sh.size}}
	var sendErrs [2]int64

	// side runs n iterations of one rank; the measured side keeps times.
	side := func(me int, from int64, n int, parent int64, times []float64) {
		th, tk, peer := ths[me], tks[me], 1-me
		out, in := make([]byte, sh.size), make([]byte, sh.size)
		send := func(i int64) {
			pl.fill(out, me, i)
			id := tk.open("rt.Isend", parent, msgID{int32(me), int32(me), i})
			h := th.Isend(out, peer, me)
			tk.close(id)
			id = tk.open("rt.Wait send", parent, msgID{int32(me), int32(me), i})
			if _, err := th.WaitErr(h); err != nil {
				sendErrs[me]++
			}
			tk.close(id)
		}
		recv := func(i int64) {
			id := tk.open("rt.Irecv", parent, msgID{int32(peer), int32(peer), i})
			h := th.Irecv(in, peer, peer)
			tk.close(id)
			id = tk.open("rt.Wait recv", parent, msgID{int32(peer), int32(peer), i})
			got, err := th.WaitErr(h)
			tk.close(id)
			checks[peer].check(in, got, err)
		}
		for i := 0; i < n; i++ {
			seq := from + int64(i)
			if me == 0 {
				t := time.Now()
				send(seq)
				recv(seq)
				if times != nil {
					times[i] = float64(time.Since(t).Nanoseconds()) / 2e3
				}
			} else {
				recv(seq)
				send(seq)
			}
		}
	}
	both := func(from int64, n int, parent int64, times []float64) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); side(1, from, n, parent, nil) }()
		side(0, from, n, parent, times)
		wg.Wait()
	}

	mainTk := tr.newTrack("benchmark", 1)
	setupID := mainTk.open("setup", 0, noMsg)
	both(0, sh.warm, setupID, nil)
	mainTk.close(setupID)
	rep.setupS = time.Since(t0).Seconds()

	rep.oneWayUs = make([]float64, sh.iters)
	runID := mainTk.open("repetition", 0, noMsg)
	rep.mallocs, rep.allocBytes = memDelta(func() {
		t1 := time.Now()
		both(int64(sh.warm), sh.iters, runID, rep.oneWayUs)
		rep.wallS = time.Since(t1).Seconds()
	})
	mainTk.close(runID)
	rep.msgs = 2 * int64(sh.iters)
	rep.wireMsgs = rep.msgs + 2*int64(sh.warm)

	for i := 0; i < 2; i++ {
		rep.fail(checks[i].bad, checks[i].why)
		rep.fail(sendErrs[i], fmt.Sprintf("rank %d: %d sends failed", i, sendErrs[i]))
	}
	rep.postNs = tks[0].durations("rt.Isend")
	for _, d := range tks[0].durations("rt.Wait recv") {
		rep.waitUs = append(rep.waitUs, d/1e3)
	}
	closeID := mainTk.open("close", 0, noMsg)
	rep.finish(lc, mark)
	mainTk.close(closeID)
	return rep, nil
}

// ---- workload runs ------------------------------------------------------

// stallGuard ends a run that cannot finish: without a watchdog a lost
// message blocks its receiver forever.
const stallGuard = 150 * time.Second

// rtShape is what tells the rt workloads apart.
type rtShape struct {
	unix bool
	size int  // message bytes
	ping bool // closed loop: report one-way latency and the bare-socket driver
	rep  func(pl *payloads, tr *tracer) (rtRep, error)
	// direct, on the floods, is the Direct-mode reference pass.
	direct func(pl *payloads) (rtRep, error)
}

// rtWorkload runs repetitions until the measuring time is spent or, traced,
// two plain and one traced repetition, the Direct-mode pass and the layer
// drivers.
func rtWorkload(cfg runConfig, name string, w rtShape) (*result, error) {
	res := newResult()
	pl := newPayloads(cfg.seed, w.size)
	rep := w.rep
	stall := time.AfterFunc(stallGuard, func() {
		fatal(fmt.Errorf("%s: no result after %v: a message was lost or the engine hung", name, stallGuard))
	})
	defer stall.Stop()
	account := func(r rtRep) {
		res.attempted += r.msgs
		if r.failed > 0 {
			res.fail(r.failed, "%s", r.why)
		}
	}
	if !cfg.trace {
		return res, repeat(cfg.seconds, func() error {
			r, err := rep(pl, nil)
			if err != nil {
				return err
			}
			account(r)
			res.sample("setup_s", r.setupS)
			res.sample("wall_s", r.wallS)
			res.sample("msgs_per_s", float64(r.msgs)/r.wallS)
			return nil
		})
	}

	// The first repetition warms the process; the second is the untraced
	// one the traced one is compared with.
	var plain rtRep
	for i := 0; i < 2; i++ {
		var err error
		if plain, err = rep(pl, nil); err != nil {
			return nil, err
		}
		account(plain)
	}
	tr := newTracer()
	traced, err := rep(pl, tr)
	if err != nil {
		return nil, err
	}
	account(traced)
	L := res.layer
	msgs := float64(plain.msgs)
	L["trace.overhead_share"] = (traced.wallS - plain.wallS) / plain.wallS
	L["rt.allocs_per_msg"] = float64(plain.mallocs) / msgs
	L["rt.alloc_bytes_per_msg"] = float64(plain.allocBytes) / msgs
	L["rt.progress_rounds_per_msg"] = float64(plain.polls) / msgs
	L["transport.frames_per_msg"] = float64(plain.wire.FramesSent) / float64(plain.wireMsgs)
	L["transport.wire_bytes_per_msg"] = float64(plain.wire.BytesSent) / float64(plain.wireMsgs)
	L["transport.send_errs"] = float64(plain.wire.SendErrs + traced.wire.SendErrs)
	L["transport.send_call_ns_p50"] = percentile(traced.sendNs, 0.50)
	L["transport.send_call_ns_p99"] = percentile(traced.sendNs, 0.99)
	L["transport.send_busy_share"] = float64(traced.sendBusyNs) / (traced.wallS + traced.setupS) / 1e9
	L["rt.deliver_upcall_ns_p50"] = percentile(traced.deliverNs, 0.50)
	L["rt.post_ns_p50"] = percentile(traced.postNs, 0.50)
	L["rt.post_ns_p99"] = percentile(traced.postNs, 0.99)
	L["rt.wait_us_p50"] = percentile(traced.waitUs, 0.50)
	L["rt.queue_wait_ns_p50"] = float64(traced.stats.QueueWait.P50())
	L["rt.queue_wait_ns_p99"] = float64(traced.stats.QueueWait.P99())
	L["rt.service_ns_p50"] = float64(traced.stats.Service.P50())
	L["rt.service_ns_p99"] = float64(traced.stats.Service.P99())
	if plain.oneWayUs != nil {
		L["rt.oneway_p50_us"] = percentile(plain.oneWayUs, 0.50)
		L["rt.oneway_p99_us"] = percentile(plain.oneWayUs, 0.99)
	}
	if w.direct != nil {
		d, err := w.direct(pl)
		if err != nil {
			return nil, err
		}
		account(d)
		L["rt.direct_msgs_per_s"] = float64(d.msgs) / d.wallS
		L["rt.offload_over_direct"] = msgs / plain.wallS / L["rt.direct_msgs_per_s"]
	}
	pingSize := 0
	if w.ping {
		pingSize = w.size
	}
	if err := rtDrivers(L, w.unix, pingSize, cfg.tiny); err != nil {
		return nil, err
	}
	if w.ping {
		L["rt.engine_oneway_us"] = L["rt.oneway_p50_us"] - L["transport.unix_raw_oneway_us"]
	}
	rtBudget(cfg.log, name, L, plain, traced)
	if err := tr.writeChrome(cfg.traceFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "benchmark: %s: Chrome trace written to %s\n", name, cfg.traceFile)
	return res, nil
}

func runFlood(cfg runConfig, name string, unix bool) (*result, error) {
	sh := floodShapeFor(unix, cfg.tiny)
	third := sh
	third.msgs = sh.msgs / 3
	return rtWorkload(cfg, name, rtShape{unix: unix, size: sh.size,
		rep:    func(pl *payloads, tr *tracer) (rtRep, error) { return floodRep(sh, rt.Offload, pl, tr) },
		direct: func(pl *payloads) (rtRep, error) { return floodRep(third, rt.Direct, pl, nil) }})
}

func runPingPong(cfg runConfig, name string, size int) (*result, error) {
	sh := pingShapeFor(size, cfg.tiny)
	return rtWorkload(cfg, name, rtShape{unix: true, size: size, ping: true,
		rep: func(pl *payloads, tr *tracer) (rtRep, error) { return pingRep(sh, pl, tr) }})
}
