package vclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The order-equivalence test runs one seeded random program twice — on the
// kernel, with a goroutine per task, and on refRun, a single-threaded model
// that keeps its pending events in a slice and sorts it by (at, seq) before
// every step — and demands the same sequence of (now, who) observations.

type opKind int

const (
	opSleep     opKind = iota // sleep d
	opAfter                   // schedule callback arg after d
	opSpawn                   // spawn script arg as a task
	opDaemon                  // spawn script arg as a looping daemon
	opWait                    // wait on event arg
	opSignal                  // signal event arg
	opBroadcast               // broadcast event arg
)

type op struct {
	kind opKind
	d    Time
	arg  int
}

// program is the shared description both executions interpret. Tasks run
// scripts; callbacks run action lists (opAfter, opSignal, opBroadcast only).
// Callback 0 is a ticker that broadcasts one event per tick and re-arms
// itself forever, so no Wait blocks for good and the heap never runs dry.
type program struct {
	scripts   [][]op
	callbacks [][]op
	roots     []int // scripts spawned before Run, as tasks
	daemons   []int // scripts spawned before Run, as daemons
	events    int
}

const (
	tickEvery = 5
	maxTasks  = 64 // spawn ops beyond this are no-ops, so looping daemons cannot spawn forever
)

func randomProgram(rng *rand.Rand) program {
	p := program{events: 3}
	nScripts, nCallbacks := 12, 10
	p.callbacks = make([][]op, nCallbacks)
	for c := 1; c < nCallbacks; c++ {
		for n := rng.Intn(3); n >= 0; n-- {
			a := op{kind: opSignal + opKind(rng.Intn(2)), arg: rng.Intn(p.events)}
			if c+1 < nCallbacks && rng.Intn(3) == 0 { // chains only point forward: they end
				a = op{kind: opAfter, d: Time(rng.Intn(3)), arg: c + 1 + rng.Intn(nCallbacks-c-1)}
			}
			p.callbacks[c] = append(p.callbacks[c], a)
		}
	}
	p.scripts = make([][]op, nScripts)
	for s := range p.scripts {
		// Every script starts with a positive sleep, so a looping daemon
		// always advances time.
		ops := []op{{kind: opSleep, d: 1 + Time(rng.Intn(3))}}
		for n := 3 + rng.Intn(8); n > 0; n-- {
			o := op{kind: opKind(rng.Intn(int(opBroadcast) + 1)), d: Time(rng.Intn(4))} // small delays: many ties
			switch o.kind {
			case opAfter:
				o.arg = 1 + rng.Intn(nCallbacks-1)
			case opSpawn, opDaemon:
				if s+1 == nScripts {
					o.kind = opSleep
					break
				}
				o.arg = s + 1 + rng.Intn(nScripts-s-1) // spawn only forward: no recursion
			default:
				o.arg = rng.Intn(p.events)
			}
			ops = append(ops, o)
		}
		p.scripts[s] = ops
	}
	p.roots = []int{0, 1, 2, 3}
	p.daemons = []int{4, 5}
	return p
}

type obs struct {
	now Time
	who string
}

// kernelRun executes p on the real kernel.
func kernelRun(p program) []obs {
	k := NewKernel()
	var log []obs
	note := func(who string) { log = append(log, obs{k.Now(), who}) }
	evs := make([]*Event, p.events)
	for i := range evs {
		evs[i] = NewEvent(fmt.Sprint("e", i))
	}
	spawned, ticks := 0, 0
	var fire func(c int) func()
	var spawn func(script int, daemon bool)
	act := func(o op) { // the non-blocking ops, shared by tasks and callbacks
		switch o.kind {
		case opAfter:
			k.After(o.d, fire(o.arg))
		case opSpawn, opDaemon:
			if spawned < maxTasks {
				spawn(o.arg, o.kind == opDaemon)
			}
		case opSignal:
			evs[o.arg].Signal(k)
		case opBroadcast:
			evs[o.arg].Broadcast(k)
		}
	}
	fire = func(c int) func() {
		return func() {
			note(fmt.Sprint("c", c))
			if c == 0 {
				evs[ticks%p.events].Broadcast(k)
				ticks++
				k.After(tickEvery, fire(0))
			}
			for _, o := range p.callbacks[c] {
				act(o)
			}
		}
	}
	spawn = func(script int, daemon bool) {
		who := fmt.Sprint("t", spawned)
		spawned++
		body := func(tk *Task) {
			note(who)
			for {
				for _, o := range p.scripts[script] {
					switch o.kind {
					case opSleep:
						tk.Sleep(o.d)
						note(who)
					case opWait:
						tk.Wait(evs[o.arg])
						note(who)
					default:
						act(o)
					}
				}
				if !daemon {
					return
				}
			}
		}
		if daemon {
			k.GoDaemon(who, body)
		} else {
			k.Go(who, body)
		}
	}
	k.After(tickEvery, fire(0))
	for _, s := range p.roots {
		spawn(s, false)
	}
	for _, s := range p.daemons {
		spawn(s, true)
	}
	k.Run()
	return log
}

// refRun is the reference: the kernel's contract restated with a sorted
// slice and explicit task state, no goroutines and no heap.
func refRun(p program) []obs {
	type task struct {
		who    string
		script int
		pc     int
		daemon bool
	}
	type pending struct {
		at   Time
		seq  int
		task *task
		cb   int
	}
	var (
		log     []obs
		now     Time
		seq     int
		queue   []pending
		waiters = make([][]*task, p.events)
		spawned int
		ticks   int
		live    int
	)
	push := func(e pending) { seq++; e.seq = seq; queue = append(queue, e) }
	wakeAll := func(ev int) {
		for _, w := range waiters[ev] {
			push(pending{at: now, task: w})
		}
		waiters[ev] = nil
	}
	act := func(o op) {
		switch o.kind {
		case opAfter:
			push(pending{at: now + o.d, cb: o.arg})
		case opSpawn, opDaemon:
			if spawned >= maxTasks {
				break
			}
			t := &task{who: fmt.Sprint("t", spawned), script: o.arg, pc: -1, daemon: o.kind == opDaemon}
			spawned++
			if !t.daemon {
				live++
			}
			push(pending{at: now, task: t})
		case opSignal:
			if w := waiters[o.arg]; len(w) > 0 {
				waiters[o.arg] = w[1:]
				push(pending{at: now, task: w[0]})
			}
		case opBroadcast:
			wakeAll(o.arg)
		}
	}
	push(pending{at: tickEvery, cb: 0})
	for _, s := range p.roots {
		act(op{kind: opSpawn, arg: s})
	}
	for _, s := range p.daemons {
		act(op{kind: opDaemon, arg: s})
	}
	for live > 0 {
		sort.Slice(queue, func(i, j int) bool {
			if queue[i].at != queue[j].at {
				return queue[i].at < queue[j].at
			}
			return queue[i].seq < queue[j].seq
		})
		e := queue[0]
		queue = queue[1:]
		now = e.at
		if e.task == nil {
			log = append(log, obs{now, fmt.Sprint("c", e.cb)})
			if e.cb == 0 {
				wakeAll(ticks % p.events)
				ticks++
				push(pending{at: now + tickEvery, cb: 0})
			}
			for _, o := range p.callbacks[e.cb] {
				act(o)
			}
			continue
		}
		t := e.task
		log = append(log, obs{now, t.who})
		ops := p.scripts[t.script]
	run:
		for {
			t.pc++
			if t.pc == len(ops) {
				if !t.daemon {
					live--
					break
				}
				t.pc = 0
			}
			switch o := ops[t.pc]; o.kind {
			case opSleep:
				push(pending{at: now + o.d, task: t})
				break run
			case opWait:
				waiters[o.arg] = append(waiters[o.arg], t)
				break run
			default:
				act(o)
			}
		}
	}
	return log
}

func TestOrderMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := randomProgram(rand.New(rand.NewSource(seed)))
		got, want := kernelRun(p), refRun(p)
		if len(want) < 40 {
			t.Fatalf("seed %d: program too small to mean anything (%d observations)", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: first difference at step %d of %d/%d: kernel %v, model %v",
						seed, i, len(got), len(want), got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("seed %d: kernel made %d observations, model %d", seed, len(got), len(want))
		}
	}
}
