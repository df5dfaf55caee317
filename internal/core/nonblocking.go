package core

import (
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
type Request struct {
	forked *comm.Proc
	done   chan struct{}
	result *stream.Vector
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
	return iallreduce(p, v, opts, false)
}

// iallreduce is IAllreduce; with owned set the operation also owns v and
// releases it into opts.Scratch once the result is built. Every algorithm
// reads its input only through copies, so on return no rank still holds v's
// storage.
func iallreduce(p *comm.Proc, v *stream.Vector, opts Options, owned bool) *Request {
	base := p.NextTagBase()
	f := p.Fork()
	r := &Request{forked: f, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.result = allreduceTagged(f, v, opts, base)
		if owned {
			opts.Scratch.Release(v)
		}
	}()
	return r
}

// ISparseAllgather starts a nonblocking sparse concatenating allgather.
// Like IAllreduce's input, mine must not be modified until Wait returns:
// what the ranks share is a copy of it, taken once the collective starts.
func ISparseAllgather(p *comm.Proc, mine *stream.Vector) *Request {
	base := p.NextTagBase()
	f := p.Fork()
	r := &Request{forked: f, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.result = sparseAllgatherConcat(f, mine.Clone(), nil, base)
	}()
	return r
}

// Wait blocks until the collective completes, merges its virtual time into
// p's clock, and returns the result.
func (r *Request) Wait(p *comm.Proc) *stream.Vector {
	<-r.done
	p.Join(r.forked)
	return r.result
}

// Test reports whether the collective has completed without blocking
// (MPI_Test). It does not merge clocks; call Wait to retrieve the result.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}
