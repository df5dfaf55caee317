package core

import (
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/stream"
)

// Request is a handle on a nonblocking collective, in the style of MPI-3
// nonblocking collectives (§7: "we allow a thread to trigger a collective
// operation, such as allreduce, in a nonblocking way. This enables the
// thread to proceed with local computations while the operation is
// performed in the background").
//
// The operation runs on a forked virtual clock; Wait folds its completion
// time back into the caller's clock as max(local, collective), modeling
// perfect computation/communication overlap — overlapped local Compute is
// free up to the collective's duration.
//
// A request from IAllreduce or ISparseAllgather runs one operation on a
// goroutine of its own. A BucketRun's requests persist, in the manner of
// MPI-4's persistent collectives (MPI_Allreduce_init): each keeps its
// forked Proc and a worker goroutine, and is re-armed by the run's next
// Issue once its Wait has returned. Closing the run stops the workers and
// keeps the requests, which the next Issue starts again.
type Request struct {
	forked *comm.Proc
	result *stream.Vector
	failed any // a panic the operation raised, re-raised by Wait

	finished atomic.Bool   // the current operation has completed (Test)
	done     chan struct{} // one token per operation, taken by Wait
	waited   bool          // Wait has taken the current operation's token

	// A persistent request's worker (serve, started through the kept
	// method value) reads wake: true runs the armed operation, false stops
	// it, and it leaves a token in exited on its way out. serving is set
	// while a worker reads wake, reap while a stopped worker's token is
	// still to be taken. A nil wake runs one goroutine per operation.
	wake          chan bool
	exited        chan struct{}
	serve         func()
	serving, reap bool

	// The current operation: an allreduce of v under opts (releasing v
	// into opts.Scratch when owned), or a concatenating allgather of v.
	v      *stream.Vector
	opts   Options
	base   int
	owned  bool
	gather bool
}

// newRequest returns an idle request; with persistent set its operations
// run on a worker goroutine, started by start and stopped by close.
func newRequest(persistent bool) *Request {
	r := &Request{done: make(chan struct{}, 1), waited: true}
	if persistent {
		// Room for an operation and the stop behind it, so close never
		// blocks on a worker still running one.
		r.wake, r.exited = make(chan bool, 2), make(chan struct{}, 1)
		r.serve = r.work
	}
	return r
}

// IAllreduce starts a nonblocking sparse allreduce. The input vector must
// not be modified until Wait returns, and stays the caller's. Ranks must
// issue nonblocking collectives in identical program order (as MPI
// requires). If opts.Scratch is set, that pool belongs to this operation
// until Wait: it must not be used by the issuing thread or by another
// outstanding collective in the meantime. After Wait it is the caller's
// again, and the result — which never shares storage with the input — may
// be released into it.
func IAllreduce(p *comm.Proc, v *stream.Vector, opts Options) *Request {
	r := newRequest(false)
	r.start(p, v, opts, false, false)
	return r
}

// ISparseAllgather starts a nonblocking sparse concatenating allgather.
// Like IAllreduce's input, mine must not be modified until Wait returns:
// what the ranks share is a copy of it, taken once the collective starts.
func ISparseAllgather(p *comm.Proc, mine *stream.Vector) *Request {
	r := newRequest(false)
	r.start(p, mine, Options{}, false, true)
	return r
}

// start arms r with one operation and sets it running. The tag range is
// taken on the parent, in program order, before the fork. With owned set
// the operation also owns v and releases it into opts.Scratch once the
// result is built; every algorithm reads its input only through copies, so
// on return no rank still holds v's storage.
func (r *Request) start(p *comm.Proc, v *stream.Vector, opts Options, owned, gather bool) {
	if !r.waited {
		panic("core: nonblocking request re-armed before Wait")
	}
	r.base = p.NextTagBase()
	if r.forked == nil {
		r.forked = p.Fork()
	} else {
		p.ForkInto(r.forked)
	}
	r.v, r.opts, r.owned, r.gather = v, opts, owned, gather
	r.result, r.failed, r.waited = nil, nil, false
	r.finished.Store(false)
	if r.wake == nil {
		go r.run()
		return
	}
	if !r.serving {
		if r.reap {
			<-r.exited // stopped mid-operation, which Wait has since seen end
			r.reap = false
		}
		r.serving = true
		go r.serve()
	}
	r.wake <- true
}

// work is a persistent request's worker: one operation per wake-up, until
// close.
func (r *Request) work() {
	for <-r.wake {
		r.run()
	}
	r.exited <- struct{}{}
}

// run executes the armed operation on the forked Proc.
func (r *Request) run() {
	defer r.finish()
	if r.gather {
		r.result = sparseAllgatherConcat(r.forked, r.v.Clone(), nil, r.base)
		return
	}
	r.result = allreduceTagged(r.forked, r.v, r.opts, r.base)
	if r.owned {
		r.opts.Scratch.Release(r.v)
	}
}

// finish signals the operation's completion. A panic is kept for Wait to
// re-raise on the rank's goroutine, where Run attaches the rank to it; the
// world is poisoned first, so peers blocked on this operation's messages
// fail instead of hanging.
func (r *Request) finish() {
	if e := recover(); e != nil {
		r.failed = e
		r.forked.Abort()
	}
	r.v, r.opts = nil, Options{}
	r.finished.Store(true)
	r.done <- struct{}{}
}

// close stops a persistent request's worker. An idle request's worker has
// exited when close returns; one still running an operation exits once the
// operation has finished, without close waiting for it, since that
// operation may wait on peers only a poisoned world releases. Wait still
// returns the last operation, and the next start starts a new worker on
// the same request and fork.
func (r *Request) close() {
	if !r.serving {
		return
	}
	r.wake <- false
	r.serving = false
	if r.waited {
		<-r.exited
	} else {
		r.reap = true
	}
}

// Wait blocks until the collective completes, merges its virtual time into
// p's clock, and returns the result. A panic inside the collective is
// re-raised here.
func (r *Request) Wait(p *comm.Proc) *stream.Vector {
	if !r.waited {
		<-r.done
		r.waited = true
	}
	p.Join(r.forked)
	if r.failed != nil {
		panic(r.failed)
	}
	return r.result
}

// Test reports whether the collective has completed without blocking
// (MPI_Test). It does not merge clocks; call Wait to retrieve the result.
func (r *Request) Test() bool { return r.finished.Load() }
