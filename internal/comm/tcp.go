package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
)

// The TCP backend: ranks communicate over sockets with length-prefixed
// frames, so a world can span OS processes (or, in the loopback form, host
// every rank in one process while still pushing each message through a
// real kernel socket). Rank 0's listener doubles as the rendezvous point:
// every other rank dials it, registers its own data address, and receives
// the complete address table once all P ranks have checked in. Data
// connections are then dialed lazily, one per (sender, receiver) ordered
// pair, which preserves the per-pair FIFO ordering the mailbox protocol
// expects. Payloads travel as wire.go codec bytes; timestamps are measured
// wall-clock seconds.
//
// Frame buffers are reused, not allocated per message. A sender encodes
// each message frame into its endpoint's one write buffer, under the
// endpoint lock that also serialises the Write, so forked Procs of one rank
// (IAllreduce, BucketScheduler) take turns and a frame is never rewritten
// before the kernel has copied it. A receiver reads every frame of one
// connection into that connection's body buffer, which lives until the next
// frame on the same connection. Both buffers grow to the largest frame
// seen and stay that size, up to maxRetainedFrameBytes each (one per local
// rank for writes, one per inbound connection for reads); a larger frame
// gets storage of its own that dies with it. A body is grown as its bytes
// arrive — frameFirstChunk, then doubling, or at once to the size of a
// frame the connection has already delivered whole — so a length prefix
// alone buys no memory.
//
// Decoded payloads are not allocated per message either. Every payload a
// rank holds over TCP is its own — built by it, or decoded for it alone —
// so once the rank no longer references one, Proc.Recycle puts it into the
// rank's endpoint decode pool (decodePool: vectors, quantized blocks and
// block lists, behind a mutex the rank and its reader goroutines share,
// each free list bounded). The flat collectives recycle what they have
// sent once it is framed and the arrivals they consume without releasing
// them into their own Scratch (the hierarchical sweeps' trees recycle
// nothing yet), and the readers decode arrivals into that pool. Under a
// symmetric collective each rank sends what it receives, so the pool
// settles. The decoders copy everything they keep
// out of the body, so no delivered payload aliases a frame
// (TestTCPPayloadsDoNotAliasFrames).

// TCPConfig configures a TCP-transport world (NewWorldTCP).
type TCPConfig struct {
	// Rendezvous is rank 0's listen address ("host:port"). Every process
	// of a multi-process world must name the same address. Empty selects
	// an ephemeral loopback port, which is only usable in the single-
	// process loopback form (all ranks local).
	Rendezvous string
	// LocalRanks lists the world ranks this process hosts, ascending.
	// Nil hosts all of them — the loopback form. A multi-process world
	// partitions [0, P) across its processes' LocalRanks.
	LocalRanks []int
	// DialTimeout bounds the rendezvous wait and every data dial
	// (default 10s). Processes of a multi-process world may start in any
	// order within this window.
	DialTimeout time.Duration
	// Hierarchy optionally declares the machine hierarchy the world
	// should assume, exactly as NewWorldHier does: the hierarchical
	// collectives group ranks by it and Auto's cost model prices with it
	// (until calibration replaces the constants). It never prices a
	// transfer on this backend — the wire is real. Every process of a
	// multi-process world must declare the same hierarchy.
	Hierarchy *simnet.Hierarchy
}

// Frame kinds of the TCP wire protocol. Every frame is a uint32 length
// prefix followed by a body whose first byte is the kind.
const (
	frameRegister byte = 1 // rank → rendezvous: [rank u32][data addr]
	frameTable    byte = 2 // rendezvous → rank: [p u32] p×[len u16][addr]
	frameHello    byte = 3 // first frame of a data conn: [sender rank u32]
	frameMsg      byte = 4 // [src u32][tag u64][modeled bytes u64][payload]
)

// maxFrameBytes caps a frame body, guarding the readers against corrupt
// length prefixes.
const maxFrameBytes = 1 << 30

// maxRetainedFrameBytes is the ceiling on what a reused frame buffer keeps
// between messages: 4 MiB, half of a dense 2^20-coordinate float64 vector.
// A loopback world of P ranks holds P write buffers and P·(P−1) body
// buffers, each no larger than the largest frame its connection carried.
const maxRetainedFrameBytes = 4 << 20

// frameFirstChunk bounds what a reader allocates for a body before any of
// its bytes have arrived; from there the buffer doubles as they do.
const frameFirstChunk = 64 << 10

// frameLenBytes is the size of a frame's uint32 length prefix.
const frameLenBytes = 4

// msgHeaderBytes is the fixed prefix of a frameMsg body before the payload
// codec bytes: kind + src + tag + modeled size.
const msgHeaderBytes = 1 + 4 + 8 + 8

// tcpTransport is the Transport implementation behind NewWorldTCP.
type tcpTransport struct {
	w      *World
	cfg    TCPConfig
	addrs  []string             // data address per world rank, fixed after setup
	eps    map[int]*tcpEndpoint // local rank → endpoint
	reg    *registrar           // rank 0 only
	closed atomic.Bool

	connMu   sync.Mutex
	allConns []net.Conn // every conn ever opened or accepted, for close
}

// tcpEndpoint is one local rank's socket presence: its data listener plus
// the lazily dialed outbound connections and the write buffer they share.
type tcpEndpoint struct {
	rank  int
	t     *tcpTransport
	ln    net.Listener
	mu    sync.Mutex       // serialises dials and message writes of this rank
	conns map[int]net.Conn // destination world rank → outbound conn
	wbuf  []byte           // the reused message frame, at most maxRetainedFrameBytes
	pool  decodePool       // what this rank's readers decode into; refilled by Recycle
}

// registrar is rank 0's rendezvous state: it collects every rank's data
// address and broadcasts the completed table.
type registrar struct {
	mu    sync.Mutex
	p     int
	addrs []string
	got   int
	conns []net.Conn
	done  chan struct{}
	err   error
}

// Name identifies the backend.
func (t *tcpTransport) Name() string { return "tcp" }

// Wall reports measured wall-clock time.
func (t *tcpTransport) Wall() bool { return true }

// byReference is false: a receiver decodes a copy of every payload.
func (t *tcpTransport) byReference() bool { return false }

func (t *tcpTransport) close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, ep := range t.eps {
		ep.ln.Close()
	}
	t.connMu.Lock()
	conns := t.allConns
	t.allConns = nil
	t.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// LeakCheck counts goroutines and open descriptors; the returned wait fails
// unless both fall back to those counts within timeout, as after a Close.
func LeakCheck() (wait func(timeout time.Duration) error) {
	fds := func() int { ents, _ := os.ReadDir("/proc/self/fd"); return len(ents) }
	g0, f0 := runtime.NumGoroutine(), fds()
	return func(timeout time.Duration) error {
		for deadline := time.Now().Add(timeout); runtime.NumGoroutine() > g0 || fds() > f0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("goroutines %d → %d, open descriptors %d → %d", g0, runtime.NumGoroutine(), f0, fds())
			}
		}
		return nil
	}
}

func (t *tcpTransport) send(p *Proc, dst, tag int, payload any, bytes int) {
	start := t.w.wallNow()
	ep := t.eps[p.rank]
	if ep == nil {
		panic(fmt.Sprintf("comm: rank %d is not local to this process", p.rank))
	}
	if err := ep.sendMsg(dst, tag, bytes, payload); err != nil {
		t.w.poison()
		panic(fmt.Sprintf("comm: tcp send %d→%d: %v", p.rank, dst, err))
	}
	arrival := t.w.wallNow()
	p.recordSend(dst, tag, bytes, start, arrival, 1, p.sharedLevel(dst))
}

// recycle puts a payload p no longer references into its rank's decode
// pool: over TCP every payload a rank holds is its own — built by it, or
// decoded for it — so nothing else can see the storage.
func (t *tcpTransport) recycle(p *Proc, payload any) {
	if ep := t.eps[p.rank]; ep != nil {
		ep.pool.put(payload)
	}
}

// sendMsg builds one whole message frame — length prefix, message header,
// payload — at its exact size in the endpoint's write buffer and hands it
// to the socket in one Write. The endpoint lock covers both, so the buffer
// is rewritten only after Write has returned.
func (ep *tcpEndpoint) sendMsg(dst, tag, modeled int, payload any) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	conn, err := ep.connTo(dst)
	if err != nil {
		return err
	}
	size := frameLenBytes + msgHeaderBytes + payloadSize(payload)
	frame := ep.wbuf
	if size > cap(frame) {
		frame = make([]byte, 0, size)
		if size <= maxRetainedFrameBytes {
			ep.wbuf = frame
		}
	}
	frame = appendMsgHeader(frame[:0], size-frameLenBytes, ep.rank, tag, modeled)
	frame, err = appendPayload(frame, payload)
	if err != nil {
		return err
	}
	// The prefix is what the body came to, not what payloadSize foresaw: a
	// disagreement costs a regrown frame, never a desynchronised stream.
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameLenBytes))
	_, err = conn.Write(frame)
	return err
}

// appendMsgHeader starts a message frame: the length prefix for a body of
// bodyLen bytes, then the frameMsg header. parseMsg reads it back.
func appendMsgHeader(frame []byte, bodyLen, src, tag, modeled int) []byte {
	frame = binary.LittleEndian.AppendUint32(frame, uint32(bodyLen))
	frame = append(frame, frameMsg)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(src))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(int64(tag)))
	return binary.LittleEndian.AppendUint64(frame, uint64(int64(modeled)))
}

// track remembers a connection for close-time teardown.
func (t *tcpTransport) track(c net.Conn) {
	t.connMu.Lock()
	t.allConns = append(t.allConns, c)
	t.connMu.Unlock()
}

// connTo returns the endpoint's outbound connection to world rank dst,
// dialing it (and introducing itself with a hello frame) on first use. The
// caller holds ep.mu.
func (ep *tcpEndpoint) connTo(dst int) (net.Conn, error) {
	if c, ok := ep.conns[dst]; ok {
		return c, nil
	}
	conn, err := net.DialTimeout("tcp", ep.t.addrs[dst], ep.t.dialTimeout())
	if err != nil {
		return nil, err
	}
	ep.t.track(conn)
	hello := make([]byte, 0, 5)
	hello = append(hello, frameHello)
	hello = binary.LittleEndian.AppendUint32(hello, uint32(ep.rank))
	if err := writeFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	ep.conns[dst] = conn
	return conn, nil
}

func (t *tcpTransport) dialTimeout() time.Duration {
	if t.cfg.DialTimeout > 0 {
		return t.cfg.DialTimeout
	}
	return 10 * time.Second
}

// writeFrame prefixes a small control body with its length and writes both
// as a single Write; message frames are built with the prefix in place (see
// sendMsg).
func writeFrame(c net.Conn, body []byte) error {
	frame := make([]byte, frameLenBytes+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[frameLenBytes:], body)
	_, err := c.Write(frame)
	return err
}

// frameReader reads the length-prefixed frames of one connection through one
// reused body buffer.
type frameReader struct {
	br      *bufio.Reader
	buf     []byte // the held body buffer, at most maxRetainedFrameBytes
	largest int    // the largest body this connection has delivered whole
}

// next reads one frame body, into the held buffer when it fits; the body is
// valid until the following call. A larger body gets, before any of it has
// arrived, no more than frameFirstChunk or what the connection has already
// delivered in one frame, and is grown from there as its bytes arrive: the
// storage a peer can make this side allocate for a frame is bounded by
// twice the bytes it sent for it plus frameFirstChunk, or by a frame it sent
// whole before. Every step of the growth that stays within
// maxRetainedFrameBytes becomes the held buffer; a connection whose frames
// are larger gives each of them, once one has come through, one allocation
// of its own size, as if nothing were reused.
func (r *frameReader) next() ([]byte, error) {
	prefix, err := r.br.Peek(frameLenBytes)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(prefix))
	r.br.Discard(frameLenBytes) // cannot fail: Peek buffered these bytes
	if n > maxFrameBytes {
		return nil, fmt.Errorf("comm: tcp frame of %d bytes exceeds limit", n)
	}
	body := r.buf[:0]
	for got := 0; got < n; {
		next := min(n, max(cap(body), 2*got+frameFirstChunk, r.largest))
		if next > cap(body) {
			body = append(make([]byte, 0, next), body[:got]...)
			if next <= maxRetainedFrameBytes {
				r.buf = body
			}
		}
		if _, err := io.ReadFull(r.br, body[got:next]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the prefix promised more
			}
			return nil, err
		}
		got = next
	}
	r.largest = max(r.largest, n)
	return body[:n], nil
}

// acceptLoop serves one endpoint's listener until the transport closes.
func (ep *tcpEndpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.t.track(conn)
		go ep.serveConn(conn)
	}
}

// serveConn classifies an inbound connection by its first frame: a
// rendezvous registration (rank 0 only) or a peer's data stream, whose
// messages it decodes and delivers into this endpoint's mailbox.
func (ep *tcpEndpoint) serveConn(conn net.Conn) {
	fr := &frameReader{br: bufio.NewReader(conn)}
	first, err := fr.next()
	if err != nil || len(first) == 0 {
		conn.Close()
		return
	}
	switch first[0] {
	case frameRegister:
		if ep.t.reg == nil || len(first) < 5 {
			conn.Close()
			return
		}
		rank := int(binary.LittleEndian.Uint32(first[1:]))
		ep.t.reg.add(rank, string(first[5:]), conn)
	case frameHello:
		if len(first) != 5 {
			conn.Close()
			return
		}
		src := int(binary.LittleEndian.Uint32(first[1:]))
		ep.readMessages(fr, src)
		conn.Close()
	default:
		conn.Close()
	}
}

// readMessages is the per-connection reader: each frame becomes a mailbox
// delivery for this endpoint's rank. Every frame is read into the one body
// buffer this loop owns, and decoded out of it into the endpoint's decode
// pool, which every reader of the rank shares. A mid-run
// transport error poisons the world so blocked receivers fail fast instead
// of deadlocking.
func (ep *tcpEndpoint) readMessages(fr *frameReader, src int) {
	for {
		body, err := fr.next()
		if err != nil {
			if !ep.t.closed.Load() && err != io.EOF {
				ep.t.w.poison()
			}
			return
		}
		tag, modeled, codec, ok := parseMsg(body)
		if !ok {
			ep.t.w.poison()
			return
		}
		payload, err := ep.pool.decode(codec)
		if err != nil {
			ep.t.w.poison()
			return
		}
		ep.t.w.deliver(ep.rank, Message{
			Src: src, Tag: tag, Payload: payload, Bytes: modeled,
			Arrival: ep.t.w.wallNow(),
		})
	}
}

// parseMsg splits a frameMsg body into its header fields and the payload
// codec bytes; ok is false for a body that is not a whole message header.
func parseMsg(body []byte) (tag, modeled int, codec []byte, ok bool) {
	if len(body) < msgHeaderBytes || body[0] != frameMsg {
		return 0, 0, nil, false
	}
	tag = int(int64(binary.LittleEndian.Uint64(body[5:])))
	modeled = int(int64(binary.LittleEndian.Uint64(body[13:])))
	return tag, modeled, body[msgHeaderBytes:], true
}

// add records one rank's registration; the P-th completes the table and
// broadcasts it to every registered connection.
func (r *registrar) add(rank int, addr string, conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= r.p {
		r.fail(fmt.Errorf("comm: tcp rendezvous: rank %d outside world of %d", rank, r.p))
		if conn != nil {
			conn.Close()
		}
		return
	}
	if r.addrs[rank] != "" {
		r.fail(fmt.Errorf("comm: tcp rendezvous: rank %d registered twice", rank))
		if conn != nil {
			conn.Close()
		}
		return
	}
	r.addrs[rank] = addr
	r.got++
	if conn != nil {
		r.conns = append(r.conns, conn)
	}
	if r.got == r.p {
		table := encodeTable(r.addrs)
		for _, c := range r.conns {
			writeFrame(c, table)
			c.Close()
		}
		r.conns = nil
		close(r.done)
	}
}

// count reports how many ranks have registered; registrations arrive on
// accept goroutines, so the timeout path must read got under the lock.
func (r *registrar) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got
}

// fail records the first rendezvous error and unblocks waiters.
func (r *registrar) fail(err error) {
	if r.err == nil {
		r.err = err
		close(r.done)
	}
}

// encodeTable builds a frameTable body from the completed address table.
func encodeTable(addrs []string) []byte {
	body := make([]byte, 0, 5+len(addrs)*24)
	body = append(body, frameTable)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(addrs)))
	for _, a := range addrs {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(a)))
		body = append(body, a...)
	}
	return body
}

// decodeTable reverses encodeTable.
func decodeTable(body []byte) ([]string, error) {
	if len(body) < 5 || body[0] != frameTable {
		return nil, fmt.Errorf("comm: tcp rendezvous: malformed table frame")
	}
	p := int(binary.LittleEndian.Uint32(body[1:]))
	addrs := make([]string, p)
	off := 5
	for i := 0; i < p; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("comm: tcp rendezvous: truncated table frame")
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+n > len(body) {
			return nil, fmt.Errorf("comm: tcp rendezvous: truncated table frame")
		}
		addrs[i] = string(body[off : off+n])
		off += n
	}
	return addrs, nil
}

// NewWorldTCP creates a world of p ranks communicating over TCP sockets,
// with measured wall-clock times. With the zero TCPConfig every rank lives
// in this process behind an ephemeral loopback rendezvous — the loopback
// form the cross-transport equivalence suite runs. A multi-process world
// instead names a shared cfg.Rendezvous address and partitions the ranks
// across processes via cfg.LocalRanks; each process calls NewWorldTCP with
// the same p and rendezvous, then Run executes only its local ranks'
// programs. Close the world to release its sockets.
func NewWorldTCP(p int, profile simnet.Profile, cfg TCPConfig) (*World, error) {
	if p <= 0 {
		return nil, fmt.Errorf("comm: tcp world size must be positive, got %d", p)
	}
	h := simnet.Flat(profile)
	if cfg.Hierarchy != nil {
		if err := cfg.Hierarchy.Validate(); err != nil {
			return nil, fmt.Errorf("comm: tcp world hierarchy: %w", err)
		}
		h = *cfg.Hierarchy
	}
	w := newWorld(p, h)
	local := cfg.LocalRanks
	if local == nil {
		local = w.localRanks()
	} else {
		local = append([]int(nil), local...)
		for i, r := range local {
			if r < 0 || r >= p || (i > 0 && local[i-1] >= r) {
				return nil, fmt.Errorf("comm: tcp LocalRanks must be ascending distinct ranks in [0,%d), got %v", p, cfg.LocalRanks)
			}
		}
		w.local = local
	}
	hasRank0 := len(local) > 0 && local[0] == 0
	if cfg.Rendezvous == "" && len(local) != p {
		return nil, fmt.Errorf("comm: a multi-process tcp world needs an explicit Rendezvous address")
	}

	t := &tcpTransport{w: w, cfg: cfg, addrs: make([]string, p), eps: make(map[int]*tcpEndpoint, len(local))}
	fail := func(err error) (*World, error) {
		t.close()
		return nil, err
	}
	for _, r := range local {
		laddr := "127.0.0.1:0"
		if r == 0 && cfg.Rendezvous != "" {
			laddr = cfg.Rendezvous
		}
		ln, err := net.Listen("tcp", laddr)
		if err != nil {
			return fail(fmt.Errorf("comm: tcp listen for rank %d: %w", r, err))
		}
		ep := &tcpEndpoint{rank: r, t: t, ln: ln, conns: make(map[int]net.Conn)}
		t.eps[r] = ep
	}

	rendAddr := cfg.Rendezvous
	if hasRank0 {
		t.reg = &registrar{p: p, addrs: make([]string, p), done: make(chan struct{})}
		rendAddr = t.eps[0].ln.Addr().String()
	}
	// Accept loops must run before anyone dials the rendezvous.
	for _, ep := range t.eps {
		go ep.acceptLoop()
	}
	if hasRank0 {
		t.reg.add(0, t.eps[0].ln.Addr().String(), nil)
	}

	// Register every other local rank, keeping the connections open for
	// the table replies; reading them before all registrations are out
	// would deadlock a process hosting several ranks.
	regConns := make(map[int]net.Conn, len(local))
	for _, r := range local {
		if r == 0 {
			continue
		}
		conn, err := dialRetry(rendAddr, t.dialTimeout())
		if err != nil {
			return fail(fmt.Errorf("comm: tcp rendezvous dial for rank %d: %w", r, err))
		}
		t.track(conn)
		body := make([]byte, 0, 5+len(t.eps[r].ln.Addr().String()))
		body = append(body, frameRegister)
		body = binary.LittleEndian.AppendUint32(body, uint32(r))
		body = append(body, t.eps[r].ln.Addr().String()...)
		if err := writeFrame(conn, body); err != nil {
			return fail(fmt.Errorf("comm: tcp rendezvous register rank %d: %w", r, err))
		}
		regConns[r] = conn
	}

	// Collect the table: from the registrar if rank 0 is ours, and from
	// each registration reply.
	if hasRank0 {
		select {
		case <-t.reg.done:
		case <-time.After(t.dialTimeout()):
			return fail(fmt.Errorf("comm: tcp rendezvous: timed out waiting for %d ranks (have %d)", p, t.reg.count()))
		}
		if t.reg.err != nil {
			return fail(t.reg.err)
		}
		copy(t.addrs, t.reg.addrs)
	}
	for r, conn := range regConns {
		conn.SetReadDeadline(time.Now().Add(t.dialTimeout()))
		body, err := (&frameReader{br: bufio.NewReader(conn)}).next()
		if err != nil {
			return fail(fmt.Errorf("comm: tcp rendezvous reply for rank %d: %w", r, err))
		}
		table, err := decodeTable(body)
		if err != nil || len(table) != p {
			return fail(fmt.Errorf("comm: tcp rendezvous reply for rank %d: bad table (%v)", r, err))
		}
		copy(t.addrs, table)
		conn.Close()
	}

	w.setTransport(t)
	return w, nil
}

// dialRetry dials addr until it answers or the timeout elapses — processes
// of a multi-process world may start before rank 0's listener exists.
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}
