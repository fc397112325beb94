// Package vclock implements a deterministic virtual-time execution kernel.
//
// Simulated entities (MPI ranks, application threads, offload threads, NICs)
// run as cooperative tasks. Each task is backed by a goroutine, but exactly
// one goroutine at a time holds the baton — the right to touch kernel state —
// so execution is sequential and fully deterministic: events fire in
// (virtual time, scheduling sequence) order.
//
// There is no scheduler goroutine. A task that yields (Sleep, Wait, Acquire)
// or returns keeps the baton and pops the event heap itself: After callbacks
// run inline on that goroutine; if the next task event is the yielder's own
// it simply returns, with no goroutine switch; otherwise it wakes the event's
// task on that task's wake channel and parks on its own — one goroutine
// handoff per task switch. The channel send/receive is the happens-before
// edge that orders every access to kernel state, so nothing in the kernel,
// the Stats counter included, is atomic or locked. Because callbacks run on
// whichever task goroutine happened to yield, pprof goroutine labels
// attribute callback time to the yielder, not to the task that scheduled
// the callback.
//
// The goroutine that called Run starts the baton and is woken only when the
// simulation is over: every non-daemon task has finished, a task or callback
// panicked, or live tasks remain with an empty heap (deadlock). It then
// tears down every remaining task goroutine and returns or re-panics.
//
// Virtual time is in integer nanoseconds. Tasks advance time explicitly
// with Sleep, or block on Events and Resources; nothing else consumes
// virtual time.
package vclock

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// killedPanic is the sentinel panic value used to unwind task goroutines when
// the kernel shuts down while they are still blocked.
type killedPanic struct{}

// Kernel is a deterministic cooperative scheduler over virtual time.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	events  []event       // binary min-heap on (at, seq)
	done    chan struct{} // baton holder -> Run: simulation over, or killed task gone
	tasks   []*Task       // all spawned tasks (live and dead)
	live    int           // live non-daemon tasks
	stopped bool
	running bool
	failure any   // first panic value from a task or callback, re-raised by Run
	popped  int64 // events popped from the heap, reported by Stats
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{done: make(chan struct{}, 1)}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Task is a cooperative thread of execution in virtual time. All Task
// methods must be called from within the task's own function; they yield the
// baton and resume when the kernel re-schedules the task.
type Task struct {
	k       *Kernel
	Name    string
	wake    chan struct{} // capacity 1: the waker never waits for the task to park
	daemon  bool
	dead    bool
	granted bool // used by Resource FIFO handoff
	// What the task is blocked in and on, for the deadlock report.
	waitKind, waitOn string
}

type event struct {
	at   Time
	seq  uint64
	task *Task
	fn   func() // timer callback (mutually exclusive with task)
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// push inserts e into the heap, stamping it with the next sequence number.
func (k *Kernel) push(e event) {
	k.seq++
	e.seq = k.seq
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.events = h
}

// pop removes and returns the earliest event. The heap must not be empty.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // drop the task and closure references
	h = h[:n]
	k.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
	return top
}

// After schedules fn to run at virtual time now+d, inline on whichever
// goroutine holds the baton then. fn must not block or sleep; it may signal
// events, acquire nothing, and schedule further callbacks. Callbacks model
// asynchronous hardware agents (NIC packet delivery, DMA completion) that
// consume no simulated CPU. Pending callbacks do not keep the simulation
// alive. A panic in fn ends the simulation like a panic in a task.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.push(event{at: k.now + d, fn: fn})
}

// AfterF is After with a float64 nanosecond delay, rounded to nearest.
func (k *Kernel) AfterF(ns float64, fn func()) {
	if ns < 0 {
		ns = 0
	}
	k.After(Time(ns+0.5), fn)
}

// Go spawns a new task that becomes runnable at the current virtual time.
// It may be called before Run or from within a running task.
func (k *Kernel) Go(name string, fn func(t *Task)) *Task {
	return k.spawn(name, false, fn)
}

// GoDaemon spawns a daemon task. Daemon tasks (e.g. polling offload threads)
// do not keep the simulation alive: Run returns once all non-daemon tasks
// have finished, and remaining daemons are torn down.
func (k *Kernel) GoDaemon(name string, fn func(t *Task)) *Task {
	return k.spawn(name, true, fn)
}

func (k *Kernel) spawn(name string, daemon bool, fn func(t *Task)) *Task {
	if k.stopped {
		panic("vclock: spawn on stopped kernel")
	}
	t := &Task{k: k, Name: name, daemon: daemon, wake: make(chan struct{}, 1)}
	k.tasks = append(k.tasks, t)
	if !daemon {
		k.live++
	}
	go t.main(fn)
	k.push(event{at: k.now, task: t})
	return t
}

// main is the body of the task's goroutine.
func (t *Task) main(fn func(t *Task)) {
	k := t.k
	<-t.wake // first scheduling, or shutdown before it ever ran
	if !k.stopped {
		t.call(fn)
	}
	t.dead = true
	if k.stopped {
		k.done <- struct{}{} // shutdown is waiting for this goroutine to unwind
		return
	}
	if !t.daemon {
		k.live--
	}
	k.dispatch(nil)
}

// call runs fn, recording a panic in it as the simulation's failure.
func (t *Task) call(fn func(t *Task)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				t.k.fail(r)
			}
		}
	}()
	fn(t)
}

// fail records the first failure; Run re-raises it after shutdown.
func (k *Kernel) fail(r any) {
	if k.failure == nil {
		k.failure = r
	}
}

// dispatch runs the event loop on the calling goroutine, which holds the
// baton: it pops events, running callbacks inline, until one belongs to a
// task. If that task is self, dispatch reports true and the caller carries
// on. Otherwise the baton has been passed — to the event's task, or to Run
// when the simulation is over — and the caller must not touch kernel state
// again until it is woken.
func (k *Kernel) dispatch(self *Task) (resumed bool) {
	defer func() {
		// A callback panicked (or the kernel itself did, below): end the
		// simulation the way a task panic does, and report false.
		if r := recover(); r != nil {
			k.fail(r)
			k.done <- struct{}{}
		}
	}()
	for {
		if k.failure != nil || k.live == 0 {
			k.done <- struct{}{}
			return false
		}
		if len(k.events) == 0 {
			panic("vclock: deadlock: " + k.blockedReport())
		}
		e := k.pop()
		if e.at < k.now {
			panic("vclock: time went backwards")
		}
		k.popped++
		if e.fn != nil {
			k.now = e.at
			e.fn()
			continue
		}
		if e.task.dead {
			continue
		}
		k.now = e.at
		if e.task == self {
			return true
		}
		e.task.wake <- struct{}{}
		return false
	}
}

// Run executes the simulation until all non-daemon tasks have finished.
// It returns the final virtual time. Run panics with a diagnostic if the
// simulation deadlocks (live tasks remain but no events are scheduled), and
// re-raises the first panic of a task or callback; in every case all task
// goroutines have exited by then.
func (k *Kernel) Run() Time {
	if k.running || k.stopped {
		panic("vclock: Run called twice")
	}
	k.running = true
	k.dispatch(nil)
	<-k.done
	k.shutdown()
	if k.failure != nil {
		panic(k.failure)
	}
	return k.now
}

// kill unwinds t's goroutine, which is parked on its wake channel, and waits
// for it to exit.
func (k *Kernel) kill(t *Task) {
	t.wake <- struct{}{}
	<-k.done
}

// shutdown kills every remaining task goroutine (daemons and tasks blocked
// forever) so repeated simulations do not leak goroutines.
func (k *Kernel) shutdown() {
	k.stopped = true
	// Kill tasks still in the heap.
	for len(k.events) > 0 {
		e := k.pop()
		if e.task != nil && !e.task.dead {
			k.kill(e.task)
		}
	}
	// Kill tasks blocked on events/resources.
	for _, t := range k.tasks {
		if !t.dead {
			k.kill(t)
		}
	}
}

func (k *Kernel) blockedReport() string {
	var names []string
	for _, t := range k.tasks {
		if !t.dead && !t.daemon {
			where := t.waitKind
			if t.waitOn != "" {
				where += ":" + t.waitOn
			}
			names = append(names, fmt.Sprintf("%s@%s", t.Name, where))
		}
	}
	sort.Strings(names)
	return fmt.Sprintf("%d task(s) blocked: %v", len(names), names)
}

// yield gives up the baton and returns once the kernel re-schedules the
// task. kind and on say what the task is blocked in and on.
func (t *Task) yield(kind, on string) {
	t.waitKind, t.waitOn = kind, on
	if t.k.dispatch(t) {
		return
	}
	<-t.wake
	if t.k.stopped {
		panic(killedPanic{})
	}
}

// Now reports the current virtual time.
func (t *Task) Now() Time { return t.k.now }

// Sleep advances the task's virtual time by d nanoseconds (d <= 0 yields
// without advancing time, still consuming one scheduling slot).
func (t *Task) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	if t.k.now > math.MaxInt64-d {
		panic("vclock: time overflow")
	}
	t.k.push(event{at: t.k.now + d, task: t})
	t.yield("sleep", "")
}

// SleepF advances virtual time by a float64 nanosecond duration, rounding
// to the nearest nanosecond. Convenient for cost-model arithmetic.
func (t *Task) SleepF(ns float64) {
	if ns < 0 {
		ns = 0
	}
	t.Sleep(Time(ns + 0.5))
}

// Event is a broadcast condition in virtual time. Waiters are woken in FIFO
// order at the moment Broadcast or Signal is called. Typical use follows the
// condition-variable pattern:
//
//	for !ready() { task.Wait(ev) }
type Event struct {
	name    string
	waiters []*Task
}

// NewEvent returns a named event (name appears in deadlock reports).
func NewEvent(name string) *Event { return &Event{name: name} }

// Wait blocks the task until the event is next signalled.
func (t *Task) Wait(e *Event) {
	e.waiters = append(e.waiters, t)
	t.yield("wait", e.name)
}

// Broadcast wakes all current waiters; they become runnable at the current
// virtual time in the order they began waiting.
func (e *Event) Broadcast(k *Kernel) {
	for _, w := range e.waiters {
		if !w.dead {
			k.push(event{at: k.now, task: w})
		}
	}
	e.waiters = e.waiters[:0]
}

// Signal wakes the longest-waiting waiter, if any.
func (e *Event) Signal(k *Kernel) {
	for len(e.waiters) > 0 {
		// Pop by copy-down: waiters[1:] would walk off the backing array and
		// force a reallocation every few wakes, and queues are a handful long.
		w := e.waiters[0]
		e.waiters = slices.Delete(e.waiters, 0, 1)
		if !w.dead {
			k.push(event{at: k.now, task: w})
			return
		}
	}
}

// Resource is a counted resource with strict FIFO admission (no barging):
// the simulated MPI global lock and NIC injection ports are Resources.
type Resource struct {
	name    string
	cap     int
	inUse   int
	waiters []*Task
}

// NewResource returns a resource with the given capacity (cap >= 1).
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("vclock: resource capacity < 1")
	}
	return &Resource{name: name, cap: capacity}
}

// Acquire blocks until a unit of the resource is granted to the task.
// Grants are strictly FIFO.
func (t *Task) Acquire(r *Resource) {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, t)
	t.granted = false
	for !t.granted {
		t.yield("acquire", r.name)
	}
}

// Release returns a unit of the resource, handing it directly to the head
// waiter if one exists.
func (t *Task) Release(r *Resource) {
	if r.inUse <= 0 {
		panic("vclock: release of idle resource " + r.name)
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = slices.Delete(r.waiters, 0, 1) // copy-down, as in Signal
		if w.dead {
			continue
		}
		// Ownership transfers directly: inUse stays constant.
		w.granted = true
		t.k.push(event{at: t.k.now, task: w})
		return
	}
	r.inUse--
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of tasks waiting for the resource.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// KernelStats is the kernel's self-profile: the count the host-time
// benchmark divides its timings by.
type KernelStats struct {
	Events int64 // events popped from the heap so far
}

// Stats reports the kernel's self-profile. Like every other Kernel method it
// belongs to the baton holder: call it from a task or callback, or after
// Run has returned.
func (k *Kernel) Stats() KernelStats { return KernelStats{Events: k.popped} }
