package proto

import (
	"bytes"
	"testing"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/vclock"
)

// rig wires n ranks onto one kernel for protocol tests.
type rig struct {
	k    *vclock.Kernel
	f    *fabric.Fabric
	p    *model.Profile
	engs []*Engine
}

func newRig(n int, p *model.Profile) *rig {
	p.RanksPerNode = 1 // tests exercise the inter-node (NIC) path
	k := vclock.NewKernel()
	f := fabric.New(k, p, n)
	r := &rig{k: k, f: f, p: p}
	for i := 0; i < n; i++ {
		r.engs = append(r.engs, NewEngine(k, f, p, i))
	}
	return r
}

func seqBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	r := newRig(2, model.Endeavor())
	msg := seqBytes(1024)
	got := make([]byte, 1024)
	var st Status
	r.k.Go("r0", func(tk *vclock.Task) {
		op := r.engs[0].Isend(tk, msg, 1, 42, 0)
		if !op.Done() {
			t.Error("eager send should complete at post")
		}
	})
	r.k.Go("r1", func(tk *vclock.Task) {
		op := r.engs[1].Irecv(tk, got, 0, 42, 0)
		r.engs[1].WaitAll(tk, op)
		st = op.Stat
	})
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("data corrupted")
	}
	if st.Source != 0 || st.Tag != 42 || st.Count != 1024 {
		t.Fatalf("bad status %+v", st)
	}
	s := r.engs[0].Stats()
	if s.EagerSends != 1 || s.RdvSends != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestUnexpectedQueuePath(t *testing.T) {
	r := newRig(2, model.Endeavor())
	msg := seqBytes(256)
	got := make([]byte, 256)
	r.k.Go("r0", func(tk *vclock.Task) {
		r.engs[0].Isend(tk, msg, 1, 7, 0)
	})
	r.k.Go("r1", func(tk *vclock.Task) {
		tk.Sleep(1_000_000) // let the message arrive unexpected
		r.engs[1].Progress(tk)
		if r.engs[1].UnexpectedLen() != 1 {
			t.Errorf("unexpected len %d, want 1", r.engs[1].UnexpectedLen())
		}
		op := r.engs[1].Irecv(tk, got, 0, 7, 0)
		if !op.Done() {
			t.Error("recv of unexpected eager message should complete inside Irecv")
		}
	})
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("data corrupted")
	}
	if r.engs[1].Stats().UnexpectedHit != 1 {
		t.Fatal("expected unexpected-queue hit")
	}
}

func TestRendezvousStallsWithoutProgress(t *testing.T) {
	p := model.Endeavor()
	r := newRig(2, p)
	n := p.EagerThreshold * 2 // forces rendezvous
	msg := seqBytes(n)
	got := make([]byte, n)
	var postDone, recvDone, sendWaitStart vclock.Time
	r.k.Go("sender", func(tk *vclock.Task) {
		op := r.engs[0].Isend(tk, msg, 1, 1, 0)
		postDone = tk.Now()
		if op.Done() {
			t.Error("rendezvous send must not complete at post")
		}
		// Compute for 5 ms without driving progress.
		tk.Sleep(5_000_000)
		sendWaitStart = tk.Now()
		r.engs[0].WaitAll(tk, op)
	})
	r.k.Go("recver", func(tk *vclock.Task) {
		op := r.engs[1].Irecv(tk, got, 0, 1, 0)
		tk.Sleep(5_000_000) // also computing, no progress
		r.engs[1].WaitAll(tk, op)
		recvDone = tk.Now()
	})
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("data corrupted")
	}
	// The post must be cheap (RTS only), and the transfer must have
	// happened entirely after both sides entered Wait.
	if postDone > 10_000 {
		t.Fatalf("rendezvous post took %d ns, want control-message cost only", postDone)
	}
	if recvDone < sendWaitStart {
		t.Fatalf("transfer finished at %d before wait started at %d", recvDone, sendWaitStart)
	}
	// Transfer time for 256 KiB at 6 B/ns is ~44 µs; completion should be
	// well after 5 ms compute plus that.
	if recvDone < 5_000_000+int64(float64(n)/p.LinkBW) {
		t.Fatalf("recv done at %d, impossibly early", recvDone)
	}
}

func TestRendezvousOverlapsWithProgressThread(t *testing.T) {
	p := model.Endeavor()
	r := newRig(2, p)
	n := p.EagerThreshold * 2
	msg := seqBytes(n)
	got := make([]byte, n)
	var waitTime vclock.Time
	// Progress daemons on both ranks (an idealized offload thread).
	for i := 0; i < 2; i++ {
		e := r.engs[i]
		r.k.GoDaemon("prog", func(tk *vclock.Task) {
			for {
				seq := e.Seq()
				e.Progress(tk)
				if e.Seq() == seq {
					e.AwaitChange(tk, seq)
				}
			}
		})
	}
	r.k.Go("sender", func(tk *vclock.Task) {
		op := r.engs[0].Isend(tk, msg, 1, 1, 0)
		tk.Sleep(5_000_000)
		start := tk.Now()
		r.engs[0].WaitAll(tk, op)
		waitTime = tk.Now() - start
	})
	r.k.Go("recver", func(tk *vclock.Task) {
		op := r.engs[1].Irecv(tk, got, 0, 1, 0)
		tk.Sleep(5_000_000)
		r.engs[1].WaitAll(tk, op)
	})
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("data corrupted")
	}
	// With continuous progress the handshake and transfer complete during
	// the 5 ms compute window: wait should be nearly free.
	if waitTime > 50_000 {
		t.Fatalf("wait took %d ns despite progress thread; overlap failed", waitTime)
	}
}

func TestWildcardAnySourceAnyTag(t *testing.T) {
	r := newRig(3, model.Endeavor())
	got := make([]byte, 64)
	var st Status
	r.k.Go("r2", func(tk *vclock.Task) {
		tk.Sleep(1000)
		r.engs[2].Isend(tk, seqBytes(64), 0, 99, 0)
	})
	r.k.Go("r0", func(tk *vclock.Task) {
		op := r.engs[0].Irecv(tk, got, AnySource, AnyTag, 0)
		r.engs[0].WaitAll(tk, op)
		st = op.Stat
	})
	r.k.Run()
	if st.Source != 2 || st.Tag != 99 {
		t.Fatalf("status %+v", st)
	}
}

func TestCommIsolation(t *testing.T) {
	r := newRig(2, model.Endeavor())
	bufA := make([]byte, 8)
	bufB := make([]byte, 8)
	r.k.Go("r0", func(tk *vclock.Task) {
		r.engs[0].Isend(tk, []byte("commBBBB"), 1, 5, 1) // comm 1 first
		r.engs[0].Isend(tk, []byte("commAAAA"), 1, 5, 0) // comm 0 second
	})
	r.k.Go("r1", func(tk *vclock.Task) {
		opA := r.engs[1].Irecv(tk, bufA, 0, 5, 0)
		opB := r.engs[1].Irecv(tk, bufB, 0, 5, 1)
		r.engs[1].WaitAll(tk, opA, opB)
	})
	r.k.Run()
	if string(bufA) != "commAAAA" || string(bufB) != "commBBBB" {
		t.Fatalf("communicator isolation broken: %q %q", bufA, bufB)
	}
}

func TestNonOvertakingOrder(t *testing.T) {
	r := newRig(2, model.Endeavor())
	const k = 8
	bufs := make([][]byte, k)
	r.k.Go("r0", func(tk *vclock.Task) {
		for i := 0; i < k; i++ {
			b := []byte{byte(i)}
			r.engs[0].Isend(tk, b, 1, 3, 0)
		}
	})
	r.k.Go("r1", func(tk *vclock.Task) {
		tk.Sleep(2_000_000) // all arrive unexpected
		var ops []Req
		for i := 0; i < k; i++ {
			bufs[i] = make([]byte, 1)
			ops = append(ops, r.engs[1].Irecv(tk, bufs[i], 0, 3, 0))
		}
		r.engs[1].WaitAll(tk, ops...)
	})
	r.k.Run()
	for i := 0; i < k; i++ {
		if bufs[i][0] != byte(i) {
			t.Fatalf("message %d overtaken: got %d", i, bufs[i][0])
		}
	}
}

func TestIprobeSeesUnexpected(t *testing.T) {
	r := newRig(2, model.Endeavor())
	r.k.Go("r0", func(tk *vclock.Task) {
		r.engs[0].Isend(tk, seqBytes(32), 1, 11, 0)
	})
	r.k.Go("r1", func(tk *vclock.Task) {
		ok, _ := r.engs[1].Iprobe(tk, 0, 11, 0)
		if ok {
			t.Error("probe matched before arrival")
		}
		tk.Sleep(1_000_000)
		ok, st := r.engs[1].Iprobe(tk, 0, 11, 0)
		if !ok || st.Count != 32 {
			t.Errorf("probe after arrival: ok=%v st=%+v", ok, st)
		}
		// Probe must not consume.
		got := make([]byte, 32)
		op := r.engs[1].Irecv(tk, got, 0, 11, 0)
		if !op.Done() {
			t.Error("recv after probe should complete immediately")
		}
	})
	r.k.Run()
}

func TestLockContentionGrowsLatency(t *testing.T) {
	p := model.Endeavor()
	measure := func(threads int) vclock.Time {
		r := newRig(1, p)
		e := r.engs[0]
		var worst vclock.Time
		for i := 0; i < threads; i++ {
			r.k.Go("t", func(tk *vclock.Task) {
				for it := 0; it < 10; it++ {
					start := tk.Now()
					e.EnterLock(tk)
					tk.SleepF(p.CallOverhead)
					e.ExitLock(tk)
					if d := tk.Now() - start; d > worst {
						worst = d
					}
				}
			})
		}
		r.k.Run()
		return worst
	}
	l1, l4, l8 := measure(1), measure(4), measure(8)
	if !(l1 < l4 && l4 < l8) {
		t.Fatalf("lock latency not increasing: %d %d %d", l1, l4, l8)
	}
	if l8 < 4*l1 {
		t.Fatalf("8-thread contention too mild: %d vs %d", l8, l1)
	}
}

func TestTruncationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected truncation panic")
		}
	}()
	r := newRig(2, model.Endeavor())
	r.k.Go("r0", func(tk *vclock.Task) {
		r.engs[0].Isend(tk, seqBytes(100), 1, 0, 0)
	})
	r.k.Go("r1", func(tk *vclock.Task) {
		op := r.engs[1].Irecv(tk, make([]byte, 10), 0, 0, 0)
		r.engs[1].WaitAll(tk, op)
	})
	r.k.Run()
}

func TestEagerPostCostGrowsWithSize(t *testing.T) {
	// Fig 4 baseline shape: post time grows up to the eager threshold,
	// then drops to control-message cost.
	p := model.Endeavor()
	post := func(n int) vclock.Time {
		r := newRig(2, p)
		var d vclock.Time
		r.k.Go("r0", func(tk *vclock.Task) {
			start := tk.Now()
			op := r.engs[0].Isend(tk, make([]byte, n), 1, 0, 0)
			d = tk.Now() - start
			tk.Sleep(10_000_000)
			r.engs[0].WaitAll(tk, op)
		})
		r.k.Go("r1", func(tk *vclock.Task) {
			op := r.engs[1].Irecv(tk, make([]byte, n), 0, 0, 0)
			r.engs[1].WaitAll(tk, op)
		})
		r.k.Run()
		return d
	}
	small, big, rdv := post(1024), post(128<<10), post(256<<10)
	if !(small < big) {
		t.Fatalf("post(1K)=%d !< post(128K)=%d", small, big)
	}
	if !(rdv < big/4) {
		t.Fatalf("rendezvous post %d should be far below eager-max %d", rdv, big)
	}
}
