package comm

// TraceEvent describes one message as its send completes: who sent what
// to whom, when, and how large it was. On the simulator the timestamps
// are virtual α–β seconds; on the real backends (goroutine, TCP) they are
// measured wall-clock seconds since World.Run started, which is what the
// adapt-layer link calibrator fits genuine machine constants from.
type TraceEvent struct {
	// Src and Dst are ranks.
	Src, Dst int
	// Tag is the message tag.
	Tag int
	// Bytes is the modeled payload size.
	Bytes int
	// SendTime and Arrival are times in seconds: virtual on the
	// simulator, measured wall-clock on real transports.
	SendTime, Arrival float64
	// NICFactor is the total egress bandwidth-sharing multiplier the
	// message's bandwidth term was priced with: the product of the
	// serialization factors of every hierarchy level the message escaped
	// (1 for intra-node messages and for worlds without Serial caps; on a
	// two-level topology world exactly the per-node NIC factor, hence the
	// name). Real transports record 1: their contention is physical, not
	// modeled. See simnet.Hierarchy.SerialFactor. Only the send hook
	// carries it; obs send spans do not.
	NICFactor float64
	// Level is the hierarchy level the message was priced at — the
	// innermost level shared by sender and receiver (0 for node-local
	// messages and for flat worlds). See simnet.Hierarchy.SharedLevel.
	Level int
}

// OnSend installs fn as the world's send hook: every Send from then on
// calls fn once with the message's TraceEvent, synchronously, on the
// sending goroutine — the rank's own, or a forked Proc's for nonblocking
// collectives — after the transport has priced (simulator) or moved
// (real transports) the message. A rank's own sends therefore reach fn
// in its send order, but different ranks and a rank's forked Procs call
// fn concurrently: fn must be safe for that, and cheap, since it sits on
// the send path. Install before Run, like SetActivitySource; pass nil to
// remove the hook. The world keeps no history of its own — obs send spans
// (EnableObservability) are the inspectable record.
func (w *World) OnSend(fn func(TraceEvent)) { w.onSend = fn }
