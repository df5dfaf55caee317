package comm

// Transport is the execution backend behind Proc.Send/Recv/SendRecv/
// Barrier: it decides how a message's payload reaches the destination
// rank's mailbox and what the recorded timestamps mean. Three backends are
// provided, selected per World:
//
//   - the simulator (default): single-process, payloads handed over by
//     reference, per-rank virtual clocks advanced by the α–β model;
//   - goroutine (World.UseGoroutineTransport): single-process, one truly
//     concurrent goroutine per rank, payloads handed over by reference,
//     measured wall-clock timestamps;
//   - TCP (NewWorldTCP): one or more OS processes, payloads serialized by
//     the wire codec (wire.go) and framed over sockets, measured wall-clock
//     timestamps.
//
// Both in-process backends deliver the sender's payload object itself, under
// the Message.Payload contract: ownership transfers on Send, the sender
// neither mutates what it sent nor releases it into a pool of its own, and
// both ignore Proc.Recycle. The blocks inside a block-allgather list are
// the one thing several ranks hold at once: each is forwarded as it
// arrived and written by none. A sparse allgather's block is lent by its
// owner's pool (stream.Scratch.Lend) to every rank that holds it, and the
// owner takes it back once each has counted it read. Over TCP every
// payload a rank holds is its own — the owner alone holds its block, the
// peers decoded copies — and Proc.Recycle feeds the pool its socket
// readers decode into (tcp.go). Proc.ByReference tells the two apart.
//
// The interface is sealed (its unexported methods):
// backends live in this package because they are entangled with mailbox
// delivery, send-record, and poisoning invariants.
type Transport interface {
	// Name identifies the backend: "sim", "goroutine", or "tcp".
	Name() string
	// Wall reports whether the backend's timestamps are measured
	// wall-clock seconds (true) rather than virtual α–β seconds (false).
	Wall() bool
	// send moves one message from p to world rank dst and records it.
	send(p *Proc, dst, tag int, payload any, bytes int)
	// recycle takes back a payload p no longer references (Proc.Recycle).
	recycle(p *Proc, payload any)
	// byReference reports whether send delivers the payload object itself
	// (Proc.ByReference).
	byReference() bool
	// close releases backend resources.
	close() error
}

// simTransport is the virtual-clock simulator backend: the message costs
// α+β·bytes (times the modeled egress contention factor) on the sender's
// clock, and the payload is delivered by reference — sender and receiver
// share memory, which is safe because payload ownership transfers on Send.
type simTransport struct{}

// Name identifies the backend.
func (simTransport) Name() string { return "sim" }

// Wall reports virtual time.
func (simTransport) Wall() bool { return false }

func (simTransport) close() error { return nil }

// recycle is a no-op: a payload handed over by reference may be the
// receiver's now.
func (simTransport) recycle(*Proc, any) {}

func (simTransport) byReference() bool { return true }

func (simTransport) send(p *Proc, dst, tag int, payload any, bytes int) {
	start := p.clock.Now()
	factor, level := p.sendFactor(dst)
	cost := p.world.pricingHier().Levels[level].Profile.ContendedTransferTime(bytes, factor)
	p.clock.Advance(cost)
	arrival := p.clock.Now()
	p.recordSend(dst, tag, bytes, start, arrival, factor, level)
	p.deliver(dst, Message{Src: p.rank, Tag: tag, Payload: payload, Bytes: bytes, Arrival: arrival})
}

// goroutineTransport is the in-process real backend: ranks run truly
// concurrently on the wall clock and a payload is handed to the receiver by
// reference, exactly as on the simulator — nothing is serialized, so a
// message costs a mailbox append and one clock read. The handover has no
// duration (SendTime = Arrival), which leaves the link calibrator nothing
// to fit: a controller on this backend prices with its static profile.
type goroutineTransport struct{}

// Name identifies the backend.
func (goroutineTransport) Name() string { return "goroutine" }

// Wall reports measured wall-clock time.
func (goroutineTransport) Wall() bool { return true }

func (goroutineTransport) close() error { return nil }

// recycle is a no-op: a payload handed over by reference may be the
// receiver's now.
func (goroutineTransport) recycle(*Proc, any) {}

func (goroutineTransport) byReference() bool { return true }

func (goroutineTransport) send(p *Proc, dst, tag int, payload any, bytes int) {
	now := p.world.wallNow()
	// Contention on a real machine is physical, not modeled: record
	// factor 1. The priced hierarchy level is still attributed.
	p.recordSend(dst, tag, bytes, now, now, 1, p.sharedLevel(dst))
	p.deliver(dst, Message{Src: p.rank, Tag: tag, Payload: payload, Bytes: bytes, Arrival: now})
}

// UseGoroutineTransport switches the world to the in-process goroutine
// backend: ranks run as truly concurrent goroutines, payloads are handed
// to the receiver by reference (a sent payload belongs to the receiver),
// and all times (Times, MaxTime, Proc.Now, send timestamps) are measured
// wall-clock seconds. Call it before Run; the virtual clocks are never
// advanced on this backend. Returns the world for chaining.
func (w *World) UseGoroutineTransport() *World {
	w.setTransport(goroutineTransport{})
	return w
}
