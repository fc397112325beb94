package proto

import (
	"errors"
	"fmt"
	"math"
)

// The request watchdog. The wire is reliable (see package fabric), so a
// request hangs only on a crashed peer or on one that never answers: a
// request still in flight Deadline ns after posting is failed with
// ErrTimeout — or ErrRankFailed when the simulation's failure detector
// says the peer crashed — instead of blocking its Wait forever. Failing a request completes it (waiters
// wake, offload done-flags set) with Err recorded, so every approach,
// offloaded or direct, degrades gracefully.

// Watchdog failure causes, surfaced through Op.Err (and re-exported as
// mpi.ErrTimeout / mpi.ErrRankFailed).
var (
	ErrTimeout    = errors.New("request deadline exceeded")
	ErrRankFailed = errors.New("peer rank failed")
)

// watchOp registers an incomplete request with the watchdog: if it is
// still in flight Deadline ns from now it will be failed instead of
// blocking its waiters forever. No-op when the watchdog is disabled.
func (e *Engine) watchOp(op *Op) {
	if e.Deadline <= 0 || op.complete {
		return
	}
	op.expires = float64(e.K.Now()) + e.Deadline
	e.watch = append(e.watch, op)
	if !e.watchArmed {
		e.watchArmed = true
		e.K.AfterF(e.Deadline, e.watchdogFire)
	}
}

// watchdogFire sweeps the watch list (timer context), failing expired
// requests and re-arming for the earliest survivor.
func (e *Engine) watchdogFire() {
	e.watchArmed = false
	now := float64(e.K.Now())
	next := math.Inf(1)
	keep := e.watch[:0]
	for _, op := range e.watch {
		if op.complete {
			continue
		}
		if now+0.5 >= op.expires {
			err := ErrTimeout
			if op.Peer >= 0 && e.F.RankFailed(op.Peer) {
				err = ErrRankFailed
			}
			e.failOp(op, err)
			continue
		}
		if op.expires < next {
			next = op.expires
		}
		keep = append(keep, op)
	}
	for i := len(keep); i < len(e.watch); i++ {
		e.watch[i] = nil
	}
	e.watch = keep
	if len(keep) > 0 {
		e.watchArmed = true
		e.K.AfterF(next-now, e.watchdogFire)
	}
}

// failOp completes a request with an error: waiters wake and observe
// op.Err instead of blocking forever. A failed posted receive is
// tombstoned out of the matching queues.
func (e *Engine) failOp(op *Op, err error) {
	if op.complete {
		return
	}
	e.stats.WatchdogTrips++
	e.Obs.WatchdogTripped(e.K.Now(), op.Peer)
	op.Err = fmt.Errorf("%w (rank %d %s peer %d after %.0f ns)",
		err, e.Rank, opKind(op), op.Peer, e.Deadline)
	if op.queued && !op.matched {
		op.matched = true
		e.postedN--
	}
	e.completeOp(op, op.Stat)
}

func opKind(op *Op) string {
	if op.IsSend {
		return "send to"
	}
	return "recv from"
}
