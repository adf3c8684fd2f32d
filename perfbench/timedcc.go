package main

import (
	"time"

	"pccproteus/internal/transport"
)

// sampleEvery sets how often a controller call is timed: every call is
// counted, one in sampleEvery is timed. Controller calls take tens of
// nanoseconds, about what reading the clock twice costs, so timing every
// call would bury the layer under the cost of measuring it.
const sampleEvery = 32

// callStats accumulates one controller method.
type callStats struct {
	calls   int64 // every call
	sampled int64 // timed calls
	ns      int64 // total time of the timed calls
}

// nsPerCall is the mean self time of the timed calls.
func (c callStats) nsPerCall() float64 { return per(float64(c.ns), float64(c.sampled)) }

// estNs extrapolates the sampled time to every call.
func (c callStats) estNs() float64 { return c.nsPerCall() * float64(c.calls) }

func (c *callStats) merge(o callStats) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.ns += o.ns
}

// ccStats is the core layer's counters. One ccStats is shared only by
// controllers called from one goroutine: the campaign worker, an
// engine's single shard loop, or one fetcher under its lock.
type ccStats struct {
	ack, send, loss, query callStats
}

func (s *ccStats) merge(o *ccStats) {
	s.ack.merge(o.ack)
	s.send.merge(o.send)
	s.loss.merge(o.loss)
	s.query.merge(o.query)
}

// controllerNs is the estimated total time spent inside controllers.
func (s *ccStats) controllerNs() float64 {
	return s.ack.estNs() + s.send.estNs() + s.loss.estNs() + s.query.estNs()
}

// layer writes the core.* per-layer metrics.
func (s *ccStats) layer(out map[string]value) {
	out["core.on_ack_ns"] = value{s.ack.nsPerCall(), s.ack.sampled}
	out["core.on_send_ns"] = value{s.send.nsPerCall(), s.send.sampled}
	out["core.on_loss_ns"] = value{s.loss.nsPerCall(), s.loss.sampled}
	out["core.query_ns"] = value{s.query.nsPerCall(), s.query.sampled}
	out["core.acks"] = value{float64(s.ack.calls), 1}
	out["core.sends"] = value{float64(s.send.calls), 1}
	out["core.losses"] = value{float64(s.loss.calls), 1}
}

// timedCC counts and samples the calls into a controller.
type timedCC struct {
	cc transport.Controller
	st *ccStats
}

// timed runs f, timing it when c's call count says this call is sampled.
func timed(c *callStats, f func()) {
	c.calls++
	if c.calls%sampleEvery != 0 {
		f()
		return
	}
	t0 := time.Now()
	f()
	c.ns += int64(time.Since(t0))
	c.sampled++
}

func (t *timedCC) Name() string { return t.cc.Name() }

func (t *timedCC) OnSend(now float64, pkt *transport.SentPacket) {
	timed(&t.st.send, func() { t.cc.OnSend(now, pkt) })
}

func (t *timedCC) OnAck(ack transport.Ack) {
	timed(&t.st.ack, func() { t.cc.OnAck(ack) })
}

func (t *timedCC) OnLoss(loss transport.Loss) {
	timed(&t.st.loss, func() { t.cc.OnLoss(loss) })
}

// PacingRate and CWnd are both queries; they share one counter.
func (t *timedCC) PacingRate() (r float64) {
	timed(&t.st.query, func() { r = t.cc.PacingRate() })
	return r
}

func (t *timedCC) CWnd() (w float64) {
	timed(&t.st.query, func() { w = t.cc.CWnd() })
	return w
}

// wrapCC returns cc behind a timedCC that implements exactly the
// optional transport interfaces cc implements. The sender type-asserts
// PauseAware, OutageAware and TraceAware, so a wrapper that hid one, or
// claimed one cc lacks, would change the run it measures.
func wrapCC(cc transport.Controller, st *ccStats) transport.Controller {
	t := &timedCC{cc: cc, st: st}
	pa, isPause := cc.(transport.PauseAware)
	oa, isOutage := cc.(transport.OutageAware)
	ta, isTrace := cc.(transport.TraceAware)
	type (
		P = transport.PauseAware
		O = transport.OutageAware
		T = transport.TraceAware
	)
	switch {
	case isPause && isOutage && isTrace:
		return struct {
			*timedCC
			P
			O
			T
		}{t, pa, oa, ta}
	case isPause && isOutage:
		return struct {
			*timedCC
			P
			O
		}{t, pa, oa}
	case isPause && isTrace:
		return struct {
			*timedCC
			P
			T
		}{t, pa, ta}
	case isOutage && isTrace:
		return struct {
			*timedCC
			O
			T
		}{t, oa, ta}
	case isPause:
		return struct {
			*timedCC
			P
		}{t, pa}
	case isOutage:
		return struct {
			*timedCC
			O
		}{t, oa}
	case isTrace:
		return struct {
			*timedCC
			T
		}{t, ta}
	}
	return t
}
