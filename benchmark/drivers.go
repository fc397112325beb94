package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"mpioffload/internal/core"
	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/proto"
	"mpioffload/internal/queue"
	"mpioffload/internal/reqpool"
	"mpioffload/internal/transport"
	"mpioffload/internal/vclock"
	"mpioffload/sim"
)

// A driver is a loop that times one layer's public functions alone, with
// fixed work, and reports ns and allocations per operation. Layers nest —
// fabric schedules vclock events, proto sends through fabric, core issues
// through proto — so every driver also reports how much of the layers
// below it used, and a layer's self cost is its total minus that.

// timed runs f and returns host ns and heap allocations.
func timed(f func()) (ns float64, allocs float64) {
	runtime.GC()
	mallocs, _ := memDelta(func() {
		t0 := time.Now()
		f()
		ns = float64(time.Since(t0).Nanoseconds())
	})
	return ns, float64(mallocs)
}

// lcg is a tiny deterministic delay source for the vclock drivers.
type lcg uint64

func (l *lcg) next(mod int64) int64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return int64(uint64(*l)>>33) % mod
}

// driveAfter keeps 1024 Kernel.After chains re-arming: heap push and pop
// with a callback, no task switch.
func driveAfter(events int) (nsPerEvent, allocsPerEvent float64) {
	const chains = 1024
	k := vclock.NewKernel()
	rng := lcg(1)
	left := events
	for c := 0; c < chains; c++ {
		var fn func()
		fn = func() {
			if left > 0 {
				left--
				k.After(1+rng.next(4096), fn)
			}
		}
		k.After(rng.next(4096), fn)
	}
	// Callbacks do not keep a kernel alive; a task outlasting them does.
	k.Go("anchor", func(t *vclock.Task) { t.Sleep(1 << 50) })
	ns, allocs := timed(func() { k.Run() })
	n := float64(k.Stats().Events)
	return ns / n, allocs / n
}

// driveSleep runs tasks in Task.Sleep loops: heap plus task switch. 1024
// is the task count of sim_dslash_halo (512 ranks and 512 agents); a switch
// among few tasks is cheaper, which is what the nested drivers below pay.
func driveSleep(events, tasks int) (nsPerEvent, allocsPerEvent float64) {
	k := vclock.NewKernel()
	per := events / tasks
	for i := 0; i < tasks; i++ {
		rng := lcg(i + 1)
		k.Go("sleeper", func(t *vclock.Task) {
			for j := 0; j < per; j++ {
				t.Sleep(1 + rng.next(4096))
			}
		})
	}
	ns, allocs := timed(func() { k.Run() })
	n := float64(k.Stats().Events)
	return ns / n, allocs / n
}

// driveSignal bounces two tasks off each other with Event.Signal and
// Task.Wait; one handoff is one signal taken by the waiting task.
func driveSignal(rounds int) (nsPerHandoff float64) {
	k := vclock.NewKernel()
	ping, pong := vclock.NewEvent("ping"), vclock.NewEvent("pong")
	// The echo task must be waiting before the first signal, so it is
	// spawned first; as a daemon it does not keep the kernel alive.
	k.GoDaemon("echo", func(t *vclock.Task) {
		for {
			t.Wait(ping)
			pong.Signal(k)
		}
	})
	k.Go("lead", func(t *vclock.Task) {
		for i := 0; i < rounds; i++ {
			ping.Signal(k)
			t.Wait(pong)
		}
	})
	ns, _ := timed(func() { k.Run() })
	return ns / float64(2*rounds)
}

// layerCost is one nested driver's result per operation.
type layerCost struct {
	ns, allocs float64 // per operation, everything included
	events     float64 // kernel events per operation
	fabricMsgs float64 // fabric messages per operation
}

// driveFabric sends msgs inter-node messages through fabric.Send on a flat
// topology; one operation is one message.
func driveFabric(msgs int) layerCost {
	const ranks, every = 64, 32
	k := vclock.NewKernel()
	p := model.Endeavor()
	fab := fabric.New(k, p, ranks)
	delivered := 0
	for r := 0; r < ranks; r++ {
		fab.Bind(r, func(*fabric.Packet) { delivered++ })
	}
	k.Go("src", func(t *vclock.Task) {
		for i := 0; i < msgs; i++ {
			src := i % ranks
			dst := (src + 2 + 2*(i%7)) % ranks // always another node
			fab.Send(src, dst, 1<<20, 1, nil)
			if i%every == every-1 {
				t.Sleep(2000) // let deliveries drain; the heap stays shallow
			}
		}
		t.Sleep(1 << 40)
	})
	ns, allocs := timed(func() { k.Run() })
	if delivered != msgs {
		panic(fmt.Sprintf("fabric driver: delivered %d of %d", delivered, msgs))
	}
	n := float64(msgs)
	return layerCost{ns: ns / n, allocs: allocs / n, events: float64(k.Stats().Events) / n, fabricMsgs: 1}
}

// protoPair builds two protocol engines on two nodes of one kernel.
func protoPair() (*vclock.Kernel, *fabric.Fabric, [2]*proto.Engine) {
	k := vclock.NewKernel()
	p := model.Endeavor()
	p.RanksPerNode = 1
	fab := fabric.New(k, p, 2)
	return k, fab, [2]*proto.Engine{proto.NewEngine(k, fab, p, 0), proto.NewEngine(k, fab, p, 1)}
}

const driverWindow = 64 // operations posted before each wait, as a halo or all-to-all round does

// driveProto moves msgs eager messages between two proto.Engines; one
// operation is one message (a send and a receive).
func driveProto(msgs int) layerCost {
	k, fab, eng := protoPair()
	rounds := msgs / driverWindow
	k.Go("recv", func(t *vclock.Task) {
		reqs := make([]proto.Req, driverWindow)
		for r := 0; r < rounds; r++ {
			for i := range reqs {
				reqs[i] = eng[1].IrecvN(t, nil, 4096, 0, i, 0)
			}
			eng[1].WaitAll(t, reqs...)
		}
	})
	k.Go("send", func(t *vclock.Task) {
		reqs := make([]proto.Req, driverWindow)
		for r := 0; r < rounds; r++ {
			for i := range reqs {
				reqs[i] = eng[0].IsendN(t, nil, 4096, 1, i, 0, 1)
			}
			eng[0].WaitAll(t, reqs...)
		}
	})
	ns, allocs := timed(func() { k.Run() })
	n := float64(rounds * driverWindow)
	return layerCost{ns: ns / n, allocs: allocs / n, events: float64(k.Stats().Events) / n,
		fabricMsgs: float64(fab.Stats().Msgs) / n}
}

// driveCore pushes the same traffic through core.Submit and Wait; one
// operation is one command (a message is two).
func driveCore(msgs int) layerCost {
	k, fab, eng := protoPair()
	off := [2]*core.Offloader{core.New(k, eng[0]), core.New(k, eng[1])}
	rounds := msgs / driverWindow
	k.Go("recv", func(t *vclock.Task) {
		hs := make([]core.Handle, driverWindow)
		for r := 0; r < rounds; r++ {
			for i := range hs {
				i := i
				hs[i] = off[1].Submit(t, func(t *vclock.Task) proto.Req { return eng[1].IrecvN(t, nil, 4096, 0, i, 0) })
			}
			off[1].WaitAll(t, hs...)
		}
	})
	k.Go("send", func(t *vclock.Task) {
		hs := make([]core.Handle, driverWindow)
		for r := 0; r < rounds; r++ {
			for i := range hs {
				i := i
				hs[i] = off[0].Submit(t, func(t *vclock.Task) proto.Req { return eng[0].IsendN(t, nil, 4096, 1, i, 0, 1) })
			}
			off[0].WaitAll(t, hs...)
		}
	})
	ns, allocs := timed(func() { k.Run() })
	n := float64(2 * rounds * driverWindow)
	return layerCost{ns: ns / n, allocs: allocs / n, events: float64(k.Stats().Events) / n,
		fabricMsgs: float64(fab.Stats().Msgs) / n}
}

// simSelf holds the self costs the sim budget multiplies counts by.
type simSelf struct {
	afterNs, sleepNs float64 // per callback event, per task event among 1024 tasks
	sleepFewNs       float64 // per task event among 4 tasks, as in the nested drivers
	cbPerFabricMsg   float64 // callback events one fabric message schedules
	fabricNs         float64 // per fabric message, without its events
	protoOpNs        float64 // per send or receive, without fabric and events
	coreCmdNs        float64 // per command, without proto, fabric and events
}

// below is what the layers under a driver cost per operation of it.
func (s simSelf) below(c layerCost) (vclockNs, fabricNs float64) {
	cb := c.fabricMsgs * s.cbPerFabricMsg
	return cb*s.afterNs + (c.events-cb)*s.sleepFewNs, c.fabricMsgs * s.fabricNs
}

// simDrivers runs the simulator's layer drivers, fills their metrics and
// returns the self costs.
func simDrivers(L map[string]float64, tiny bool) simSelf {
	n := 400_000
	if tiny {
		n = 16_384
	}
	var s simSelf
	s.afterNs, L["vclock.after_allocs_per_event"] = driveAfter(n)
	s.sleepNs, L["vclock.sleep_allocs_per_event"] = driveSleep(n, 1024)
	s.sleepFewNs, _ = driveSleep(n, 4)
	L["vclock.after_ns_per_event"] = s.afterNs
	L["vclock.sleep_ns_per_event"] = s.sleepNs
	L["vclock.signal_ns_per_handoff"] = driveSignal(n / 2)

	f := driveFabric(n)
	L["fabric.send_ns_per_msg"], L["fabric.send_allocs_per_msg"] = f.ns, f.allocs
	// The fabric driver's only task events are its sender's sleeps, one
	// per 32 messages; everything else is a delivery callback.
	s.cbPerFabricMsg = f.events - 1.0/32
	s.fabricNs = f.ns - s.cbPerFabricMsg*s.afterNs - s.sleepFewNs/32

	p := driveProto(n / 2)
	L["proto.eager_ns_per_msg"], L["proto.eager_allocs_per_msg"] = p.ns, p.allocs
	v, fb := s.below(p)
	s.protoOpNs = (p.ns - v - fb) / 2

	c := driveCore(n / 4)
	L["core.submit_ns_per_cmd"] = c.ns
	v, fb = s.below(c)
	s.coreCmdNs = c.ns - v - fb - s.protoOpNs
	return s
}

// simBudget prints count × self cost per layer for one repetition; the
// rows and the unattributed remainder sum to wall_s by construction.
func simBudget(w io.Writer, name string, L map[string]float64, s simSelf, rep simRep, pm sim.Metrics) {
	wallNs := rep.wallS() * 1e9
	msgs, events := float64(rep.msgs()), float64(rep.events())
	cb := msgs * s.cbPerFabricMsg
	if cb > events {
		cb = events
	}
	protoOps := float64(pm.EagerSends + pm.RdvSends + pm.Recvs)
	rows := []budgetRow{
		{"set-up (measured)", 1, rep.setupS() * 1e9},
		{"vclock callbacks", cb, s.afterNs},
		{"vclock task events", events - cb, s.sleepNs},
		{"fabric", msgs, s.fabricNs},
		{"proto", protoOps, s.protoOpNs},
		{"core", float64(pm.Submitted), s.coreCmdNs},
	}
	L["sim.unattributed_share"] = printBudget(w, name, "one repetition", "ms", 1e6, wallNs, rows)
}

type budgetRow struct {
	layer  string
	count  float64
	selfNs float64
}

// printBudget prints the table and returns the unattributed share.
func printBudget(w io.Writer, name, scope, unit string, perUnit, totalNs float64, rows []budgetRow) float64 {
	fmt.Fprintf(w, "budget %s (%s, %.6g %s)\n", name, scope, totalNs/perUnit, unit)
	fmt.Fprintf(w, "  %-20s %14s %14s %12s %7s\n", "layer", "count", "self ns", unit, "share")
	sum := 0.0
	for _, r := range rows {
		ns := r.count * r.selfNs
		sum += ns
		fmt.Fprintf(w, "  %-20s %14.6g %14.1f %12.3f %6.1f%%\n", r.layer, r.count, r.selfNs, ns/perUnit, 100*ns/totalNs)
	}
	rest := totalNs - sum
	fmt.Fprintf(w, "  %-20s %14s %14s %12.3f %6.1f%%\n", "sum of layers", "", "", sum/perUnit, 100*sum/totalNs)
	fmt.Fprintf(w, "  %-20s %14s %14s %12.3f %6.1f%%\n", "unattributed", "", "", rest/perUnit, 100*rest/totalNs)
	return rest / totalNs
}

// ---- rt drivers ---------------------------------------------------------

// driveSharded enqueues on one private shard and drains in batches of 64,
// the agent's drain size; one operation is one element through the queue.
func driveSharded(ops int) (nsPerOp, allocsPerOp float64) {
	q := queue.NewSharded[int](2, 256, 4096)
	shard := q.Register()
	batch := make([]int, 64)
	ns, allocs := timed(func() {
		for done := 0; done < ops; {
			for i := 0; i < len(batch); i++ {
				q.TryEnqueue(shard, i)
			}
			done += q.DequeueBatch(batch)
		}
	})
	return ns / float64(ops), allocs / float64(ops)
}

func driveMPMC(ops int) (nsPerOp float64) {
	q := queue.NewMPMC[int](4096)
	ns, _ := timed(func() {
		for done := 0; done < ops; done += 64 {
			for i := 0; i < 64; i++ {
				q.TryEnqueue(i)
			}
			for i := 0; i < 64; i++ {
				q.TryDequeue()
			}
		}
	})
	return ns / float64(ops)
}

func driveReqpool(ops int) (nsPerOp float64) {
	p := reqpool.New(4096)
	ns, _ := timed(func() {
		for i := 0; i < ops; i++ {
			s := p.Get()
			p.SetDone(s)
			p.Put(s)
		}
	})
	return ns / float64(ops)
}

// driveFrame times AppendFrame and ReadFrame on one frame of size bytes.
func driveFrame(size, ops int) (encodeNs, decodeNs, decodeAllocs float64) {
	f := transport.Frame{Kind: transport.KindData, Src: 0, Dst: 1, Tag: 1, Flow: 1, Data: make([]byte, size)}
	var wire []byte
	encodeNs, _ = timed(func() {
		for i := 0; i < ops; i++ {
			wire = transport.AppendFrame(wire[:0], &f)
		}
	})
	rd := bytes.NewReader(wire)
	var allocs float64
	decodeNs, allocs = timed(func() {
		for i := 0; i < ops; i++ {
			rd.Reset(wire)
			if _, err := transport.ReadFrame(rd); err != nil {
				panic(err)
			}
		}
	})
	return encodeNs / float64(ops), decodeNs / float64(ops), allocs / float64(ops)
}

// driveRawUnix ping-pongs frames over a bare Unix socket mesh, no rt: rank
// 1's handler echoes from the reader goroutine, rank 0's wakes the caller.
func driveRawUnix(size, iters int) (oneWayUs float64, err error) {
	mesh, err := transport.NewSocketMesh("unix", 2)
	if err != nil {
		return 0, err
	}
	defer mesh.Close()
	back := make(chan struct{}, 1) // one reply in flight at most
	reply := make([]byte, size)
	mesh.Endpoint(1).Bind(func(transport.Frame) {
		_ = mesh.Endpoint(1).Send(transport.Frame{Src: 1, Dst: 0, Data: reply}) // a lost echo shows as the timeout below
	})
	mesh.Endpoint(0).Bind(func(transport.Frame) { back <- struct{}{} })
	data := make([]byte, size)
	trip := func() error {
		if err := mesh.Endpoint(0).Send(transport.Frame{Src: 0, Dst: 1, Data: data}); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("raw unix ping-pong: no echo")
		}
	}
	for i := 0; i < 200; i++ {
		if err := trip(); err != nil {
			return 0, err
		}
	}
	times := make([]float64, iters)
	for i := range times {
		t0 := time.Now()
		if err := trip(); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(t0).Nanoseconds()) / 2e3
	}
	return percentile(times, 0.5), nil
}

// rtDrivers runs the wall-clock engine's layer drivers. The frame and raw
// socket drivers run only where the workload crosses a socket.
func rtDrivers(L map[string]float64, unix bool, pingSize int, tiny bool) error {
	n, trips := 2_000_000, 5000
	if tiny {
		n, trips = 20_000, 200
	}
	L["queue.sharded_ns_per_op"], L["queue.sharded_allocs_per_op"] = driveSharded(n)
	L["queue.mpmc_ns_per_op"] = driveMPMC(n)
	L["reqpool.get_put_ns"] = driveReqpool(n)
	if !unix {
		return nil
	}
	L["transport.encode_ns_64b"], L["transport.decode_ns_64b"], L["transport.decode_allocs_per_frame"] = driveFrame(64, n)
	L["transport.encode_ns_64k"], L["transport.decode_ns_64k"], _ = driveFrame(64<<10, n/100)
	if pingSize > 0 {
		us, err := driveRawUnix(pingSize, trips)
		if err != nil {
			return err
		}
		L["transport.unix_raw_oneway_us"] = us
	}
	return nil
}

// rtBudget prints the per-message budget of one repetition: what a message
// costs in each layer's driver terms against wall time per message.
func rtBudget(w io.Writer, name string, L map[string]float64, plain, traced rtRep) {
	perMsg := plain.wallS * 1e9 / float64(plain.msgs)
	sendNs := 0.0
	if traced.sendCalls > 0 {
		sendNs = float64(traced.sendBusyNs) / float64(traced.sendCalls)
	}
	rows := []budgetRow{
		{"queue (2 commands)", 2, L["queue.sharded_ns_per_op"]},
		{"queue (inbox)", 1, L["queue.mpmc_ns_per_op"]},
		{"reqpool (2 slots)", 2, L["reqpool.get_put_ns"]},
		{"transport.Send", L["transport.frames_per_msg"], sendNs},
	}
	if raw := L["transport.unix_raw_oneway_us"]; raw > 0 {
		// A closed loop waits for the whole wire path, not only the call:
		// the bare socket ping-pong stands for write, read, decode and the
		// reader's wake-up together.
		rows[3] = budgetRow{"bare socket one-way", 1, raw * 1e3}
	}
	L["rt.unattributed_share"] = printBudget(w, name, "one message", "ns", 1, perMsg, rows)
}
