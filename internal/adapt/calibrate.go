package adapt

import (
	"sync"

	"repro/internal/comm"
)

// LinkCalibrator fits per-hierarchy-level α–β link constants online from
// observed transfers. Every comm.TraceEvent carries the message's wire
// size, the hierarchy level it was priced at, the egress serialization
// factor it paid, and its virtual send/arrival times; under the α–β model
// each transfer satisfies
//
//	arrival − send = α' + β' · bytes · factor
//
// with α' = α + per-message software overhead and β' = β + per-byte
// software cost — exactly the (Alpha, BetaPerByte) pair the cost model's
// message pricing consumes once the software terms are folded in. The
// calibrator keeps only the running least-squares sums per level, so the
// fit is O(1) per event, its memory is O(levels) however long the run,
// and it is exact whenever the observed level really is priced by one
// affine law (which the simulator guarantees; on a real network the fit
// is the usual noisy regression).
//
// A calibrator belongs to one rank and is fed that rank's own sends as
// they are made (Calibrate installs the world's send hook). It locks
// because a rank's forked Procs — a nonblocking collective in flight —
// fold their sends from their own goroutines while the rank reads its
// fit. The zero value is an empty calibrator, ready to use.
type LinkCalibrator struct {
	mu   sync.Mutex
	fits []linkFit
}

// linkFit holds one level's running least-squares sums over samples
// (x = bytes·factor, y = transfer seconds).
type linkFit struct {
	n, sx, sy, sxx, sxy float64
}

// Calibrate enables link calibration on every controller of w: each gets
// an empty LinkCalibrator, and w's send hook (comm.World.OnSend) folds
// every send into the calibrator of its source rank. ctrls must hold one
// controller per world rank, indexed by rank; the hook keeps reading it,
// so it must not be modified afterwards. Call once, from the driving
// goroutine, before Run — it replaces any send hook already installed.
func Calibrate(w *comm.World, ctrls []*Controller) {
	for _, c := range ctrls {
		c.calib = &LinkCalibrator{}
	}
	w.OnSend(func(e comm.TraceEvent) { ctrls[e.Src].calib.Observe(e) })
}

// Observe folds one transfer into its level's fit. Safe for concurrent
// use; events of one goroutine fold in the order they are observed.
func (c *LinkCalibrator) Observe(e comm.TraceEvent) {
	x := float64(e.Bytes) * e.NICFactor
	y := e.Arrival - e.SendTime
	c.mu.Lock()
	for e.Level >= len(c.fits) {
		c.fits = append(c.fits, linkFit{})
	}
	f := &c.fits[e.Level]
	f.n++
	f.sx += x
	f.sy += y
	f.sxx += x * x
	f.sxy += x * y
	c.mu.Unlock()
}

// snapshot copies the per-level sums: one consistent view of every send
// folded so far, which a decision prices with while forked Procs go on
// folding. Nil for a nil calibrator (calibration off).
func (c *LinkCalibrator) snapshot() []linkFit {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]linkFit(nil), c.fits...)
}

// level returns the level's sums (zero when unobserved).
func (c *LinkCalibrator) level(level int) linkFit {
	c.mu.Lock()
	defer c.mu.Unlock()
	if level < 0 || level >= len(c.fits) {
		return linkFit{}
	}
	return c.fits[level]
}

// Samples returns how many transfers have been observed at the level.
func (c *LinkCalibrator) Samples(level int) int {
	return int(c.level(level).n)
}

// Fit returns the fitted (alpha, beta) of the level in seconds and
// seconds-per-byte. ok is false while the fit is unusable: fewer than two
// samples, no spread in message sizes (α and β cannot be separated), a
// non-positive slope, or a materially negative intercept. Mildly negative
// intercepts clamp to zero instead of rejecting: on the simulator they are
// exact-fit cancellation noise (~1e-12), and on the real transports, whose
// measured durations are genuinely noisy, an ordinary least-squares
// regression routinely lands the intercept slightly below zero — rejecting
// those would starve calibration on exactly the backends it exists for.
// The rejection line is an intercept below a quarter of the mean observed
// transfer time, which no amount of honest timing noise produces.
func (c *LinkCalibrator) Fit(level int) (alpha, beta float64, ok bool) {
	return c.level(level).fit()
}

// fit solves the sums for (alpha, beta); see Fit.
func (f linkFit) fit() (alpha, beta float64, ok bool) {
	if f.n < 2 {
		return 0, 0, false
	}
	denom := f.n*f.sxx - f.sx*f.sx
	if denom <= 1e-9*f.sxx {
		return 0, 0, false
	}
	beta = (f.n*f.sxy - f.sx*f.sy) / denom
	alpha = (f.sy - beta*f.sx) / f.n
	if alpha < 0 {
		if alpha < -1e-12 && alpha < -0.25*(f.sy/f.n) {
			return 0, 0, false
		}
		alpha = 0
	}
	if beta <= 0 {
		return 0, 0, false
	}
	return alpha, beta, true
}
