// Package transport implements the end-to-end sender machinery every
// congestion controller in this repository plugs into: rate pacing and
// window gating, per-packet acknowledgments carrying RTT and one-way
// delay, duplicate-ACK and RTO loss detection, RFC 6298 RTT estimation,
// finite transfers with implicit retransmission accounting, and
// pause/resume for application-limited flows (video).
//
// This is the single codebase the paper's "flexibility" goal calls for:
// primary protocols, scavengers, and hybrids are all Controller
// implementations behind one interface, and PCC-style controllers can
// even swap utility functions on a live connection.
package transport

import (
	"math"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
)

// SentPacket is the sender-side record of one transmitted packet. The
// controller's OnSend hook may set MI to tag the packet with a monitor
// interval (PCC-style controllers do; others leave it zero).
type SentPacket struct {
	Seq    int64
	Size   int
	SentAt float64
	MI     int64
	acked  bool
	lost   bool
	probe  bool // outage keep-alive: invisible to the controller
}

// Ack describes one acknowledgment delivered to the controller.
type Ack struct {
	Seq      int64
	Bytes    int
	SentAt   float64
	RecvAt   float64 // arrival time at the receiver (OWD = RecvAt-SentAt)
	Now      float64 // ACK arrival time at the sender
	RTT      float64
	OWD      float64 // one-way delay, for LEDBAT-style controllers
	MI       int64
	Inflight int // bytes in flight after this ack
}

// Loss describes one packet declared lost.
type Loss struct {
	Seq      int64
	Bytes    int
	SentAt   float64
	Now      float64
	MI       int64
	Inflight int
}

// Controller is a congestion-control algorithm. The sender enforces
// both constraints it reports: packets are paced at PacingRate and never
// leave more than CWnd bytes in flight.
//
// Convention: a window-based protocol (CUBIC, LEDBAT) returns
// PacingRate() == 0, meaning "pace me at 1.25·cwnd/srtt" — close to how
// Linux paces TCP — while a rate-based protocol (PCC family, BBR)
// returns its explicit rate. A purely rate-based protocol returns
// math.Inf(1) from CWnd.
type Controller interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// OnSend is invoked for every transmitted packet, before it enters
	// the network. The controller may tag pkt.MI.
	OnSend(now float64, pkt *SentPacket)
	// OnAck is invoked for every acknowledgment.
	OnAck(ack Ack)
	// OnLoss is invoked for every packet declared lost (dup-ACK or RTO).
	OnLoss(loss Loss)
	// PacingRate returns the target sending rate in bytes/sec, or 0 to
	// request default cwnd-based pacing.
	PacingRate() float64
	// CWnd returns the congestion window in bytes.
	CWnd() float64
}

// PauseAware is implemented by controllers that must know when the
// application stops requesting data (e.g. a full video playback buffer),
// so they can discard measurement intervals that span idle periods.
type PauseAware interface {
	OnAppPause(now float64)
	OnAppResume(now float64)
}

// OutageAware is implemented by controllers that want the sender's
// stall watchdog to freeze and restore them across a path outage.
// OnOutage must discard open measurement state and stop adapting (no
// acks will arrive); OnRecovery is called at the first ack after the
// outage with the last pacing rate that was actually delivering before
// it (bytes/sec, 0 when unknown), so the controller can re-probe from
// the pre-outage operating point instead of from wherever the loss
// flood drove it. Controllers that implement only PauseAware get
// OnAppPause/OnAppResume as a degraded fallback.
type OutageAware interface {
	OnOutage(now float64)
	OnRecovery(now float64, resumeRate float64)
}

// TraceAware is implemented by controllers that emit their own
// flight-recorder events (MI decisions, rate changes, mode switches).
// The sender hands each such controller its flow's tracer at Start.
type TraceAware interface {
	SetTracer(t trace.Tracer)
}

// Timer is a re-armable, cancelable callback, as returned by
// Clock.NewTimer.
type Timer interface {
	// Reset arms the timer to fire at absolute time t, replacing any
	// firing still pending.
	Reset(t float64)
	// Stop cancels a pending firing and reports whether there was one.
	Stop() bool
}

// Clock is the time base and timer service a Sender runs on. It exists
// so the sender's clock is an injected dependency rather than an
// implication of the simulator: the discrete-event engine provides the
// default (SimClock), tests substitute hand-driven fakes, and the wire
// datapath reuses the same controller-facing conventions (seconds as
// float64, absolute-time scheduling) against the host's real clock.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
	// At schedules fn at absolute time t. The call cannot be cancelled;
	// callbacks that may need to be use a Timer.
	At(t float64, fn func())
	// NewTimer returns an unarmed timer that runs fn each time it fires.
	NewTimer(fn func()) Timer
}

// simClock adapts *sim.Sim to Clock.
type simClock struct{ s *sim.Sim }

func (c simClock) Now() float64             { return c.s.Now() }
func (c simClock) At(t float64, fn func())  { c.s.At(t, fn) }
func (c simClock) NewTimer(fn func()) Timer { return &simTimer{s: c.s, fn: fn} }

// simTimer is a Timer on the simulator. Reset goes through
// sim.Reschedule, so a deadline that only slides later — the RTO on
// every ack — costs no heap operation, while the event still runs at
// exactly the place a Stop followed by a fresh At would give it.
type simTimer struct {
	s  *sim.Sim
	fn func()
	h  sim.Timer
}

func (t *simTimer) Reset(at float64) { t.h = t.s.Reschedule(t.h, at, t.fn) }
func (t *simTimer) Stop() bool       { return t.h.Stop() }

// SimClock returns the Clock backed by a discrete-event simulator —
// the default time base for senders on an emulated path.
func SimClock(s *sim.Sim) Clock { return simClock{s} }

// RTTEstimator maintains RFC 6298 smoothed RTT state plus the lifetime
// minimum.
type RTTEstimator struct {
	srtt   float64
	rttvar float64
	minRTT float64
	init   bool
}

// Update incorporates an RTT sample.
func (e *RTTEstimator) Update(rtt float64) {
	if !e.init {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.minRTT = rtt
		e.init = true
		return
	}
	if rtt < e.minRTT {
		e.minRTT = rtt
	}
	d := math.Abs(e.srtt - rtt)
	e.rttvar = 0.75*e.rttvar + 0.25*d
	e.srtt = 0.875*e.srtt + 0.125*rtt
}

// SRTT returns the smoothed RTT (0 before any sample).
func (e *RTTEstimator) SRTT() float64 { return e.srtt }

// MinRTT returns the lifetime minimum RTT (0 before any sample).
func (e *RTTEstimator) MinRTT() float64 { return e.minRTT }

// RTTVar returns the smoothed mean deviation of the RTT — the basis of
// the RTO and of the RACK reordering window. Exported so other
// datapaths (the wire sender) reuse this estimator verbatim.
func (e *RTTEstimator) RTTVar() float64 { return e.rttvar }

// RTO returns the retransmission timeout, floored at 200 ms.
func (e *RTTEstimator) RTO() float64 {
	if !e.init {
		return 1.0
	}
	rto := e.srtt + 4*e.rttvar
	if rto < 0.2 {
		rto = 0.2
	}
	return rto
}

// Valid reports whether any sample has been observed.
func (e *RTTEstimator) Valid() bool { return e.init }

const (
	dupAckThreshold = 3
	initialWindow   = 10 * netem.MTU

	// DefaultBurst is the per-pacing-event packet train length used when
	// Sender.Burst is zero. Four packets approximates Linux's default
	// GSO/pacing behavior at these rates.
	DefaultBurst = 4

	// maxRTOBackoff caps the exponential RTO backoff exponent: the
	// effective RTO is base·2^backoff, clamped to maxRTO. Without
	// backoff, every expiry re-fires at the base RTO and floods the
	// controller with duplicate loss signals for packets sent into an
	// outage.
	maxRTOBackoff = 4
	// maxRTO is the ceiling of the backed-off retransmission timeout.
	maxRTO = 3.0
	// watchdogFloor is the minimum ack silence (with data outstanding)
	// before the stall watchdog declares an outage; the actual
	// threshold is max(2·RTO, watchdogFloor).
	watchdogFloor = 0.5
	// probeInterval is the keep-alive send period during a declared
	// outage: cheap enough to be negligible, frequent enough to detect
	// path healing within a fraction of a second.
	probeInterval = 0.25
)

// Sender drives one flow. Create with NewSender, then Start.
type Sender struct {
	ID   int
	Path *netem.Path
	CC   Controller

	// Clock is the sender's time base. Leave nil for the default:
	// SimClock over the path's simulator. Set before Start.
	Clock Clock

	// Limit, when positive, bounds the transfer: the flow completes once
	// Limit bytes are acknowledged. Lost bytes are re-credited so the
	// flow keeps transmitting replacements, modeling retransmission.
	Limit int64
	// OnComplete fires once when a finite transfer finishes.
	OnComplete func(now float64)
	// OnDeliver fires at the receiver for every arriving packet, at the
	// packet's arrival time — the hook applications (video, web) consume.
	OnDeliver func(now float64, bytes int)
	// RecordRTT enables retention of every RTT sample for percentile
	// analysis.
	RecordRTT bool
	// Burst is the number of packets released back-to-back per pacing
	// event, modeling segmentation offload and interrupt coalescing in
	// real sender stacks (Linux pacing emits multi-packet trains). The
	// pacing gap after a burst covers the whole burst, so the average
	// rate is unchanged. Zero means DefaultBurst.
	Burst int
	// NoPacing disables rate pacing for window-based controllers: the
	// sender transmits whenever the window allows, at line rate — the
	// classic non-paced TCP behavior whose window-sized bursts are a
	// major source of transient queueing.
	NoPacing bool
	// Survival enables the outage machinery — exponential RTO backoff
	// and the stall watchdog with keep-alive probing — mirroring the
	// wire datapath's always-on behavior. It is opt-in here so
	// fault-free experiments replay bit-identically to earlier
	// versions; chaos scenarios and the adversary harness switch it on.
	Survival bool

	rtt      RTTEstimator
	unacked  []SentPacket   // ordered by Seq; pruned from the front
	wireBuf  []netem.Packet // preallocated wire packets, handed out in order
	seq      int64
	inflight int
	launched int64 // bytes released minus re-credited losses
	acked    int64
	lostB    int64
	recvd    int64
	maxAcked int64

	tr       trace.Tracer
	nextSend float64
	timerSet bool
	blocked  bool
	paused   bool
	done     bool
	started  bool
	// s.emit, and s.deliver behind the path's hops, bound once at Start
	// so pacing and sending allocate no closure per call.
	emitFn     func()
	deliverFn  func(*netem.Packet, float64)
	ackFree    []*ackEvent
	rtoTimer   Timer // runs onRTO; created on first use
	rtoArmed   bool
	rttSamples []float64
	startTime  float64

	// Survival machinery (exponential RTO backoff + stall watchdog).
	rtoBackoff   int
	lastAckAt    float64
	lastGoodRate float64 // pacing rate at the last ack, bytes/sec
	outage       bool
	outageAt     float64
	resumeRate   float64
	probeTimer   Timer
	wdTrips      int64
	wdRecoveries int64
}

// clk returns the sender's clock, defaulting to the path's simulator.
func (s *Sender) clk() Clock {
	if s.Clock == nil {
		s.Clock = simClock{s.Path.Link.Sim}
	}
	return s.Clock
}

// NewSender wires a flow onto a path with the given controller.
func NewSender(id int, path *netem.Path, cc Controller) *Sender {
	return &Sender{ID: id, Path: path, CC: cc, maxAcked: -1}
}

// Start begins transmission at the current simulation time.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.startTime = s.clk().Now()
	s.lastAckAt = s.startTime
	s.tr = s.Path.Link.Sim.FlowTracer(s.ID)
	if ta, ok := s.CC.(TraceAware); ok {
		ta.SetTracer(s.tr)
	}
	s.emitFn, s.deliverFn = s.emit, s.Path.Chain(s.deliver)
	s.armRTO()
	s.trySend()
}

// Stop halts the flow permanently.
func (s *Sender) Stop() {
	s.done = true
	s.stopRTO()
	if s.probeTimer != nil {
		s.probeTimer.Stop()
	}
}

// Pause suspends transmission (application-limited). In-flight packets
// still drain and ack. Pausing a completed finite transfer is valid and
// keeps a subsequent Extend from transmitting until Resume.
func (s *Sender) Pause() {
	if s.paused {
		return
	}
	s.paused = true
	if pa, ok := s.CC.(PauseAware); ok {
		pa.OnAppPause(s.clk().Now())
	}
}

// Resume restarts a paused flow.
func (s *Sender) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	if pa, ok := s.CC.(PauseAware); ok {
		pa.OnAppResume(s.clk().Now())
	}
	now := s.clk().Now()
	if s.nextSend < now {
		s.nextSend = now
	}
	s.trySend()
}

// Extend adds more bytes to a finite transfer (e.g. the next video
// chunk) and resumes if needed. A completed flow is revived.
func (s *Sender) Extend(bytes int64) {
	s.Limit += bytes
	if s.done && s.started {
		s.done = false
		s.armRTO()
	}
	now := s.clk().Now()
	if s.nextSend < now {
		s.nextSend = now
	}
	if s.started {
		s.trySend()
	}
}

// AckedBytes returns cumulative acknowledged bytes.
func (s *Sender) AckedBytes() int64 { return s.acked }

// ReceivedBytes returns cumulative bytes that arrived at the receiver.
func (s *Sender) ReceivedBytes() int64 { return s.recvd }

// LostBytes returns cumulative bytes declared lost.
func (s *Sender) LostBytes() int64 { return s.lostB }

// InflightBytes returns bytes currently in flight.
func (s *Sender) InflightBytes() int { return s.inflight }

// RTTSamples returns the retained RTT samples (RecordRTT must be set).
func (s *Sender) RTTSamples() []float64 { return s.rttSamples }

// SRTT exposes the smoothed RTT for diagnostics.
func (s *Sender) SRTT() float64 { return s.rtt.SRTT() }

// MinRTT exposes the observed minimum RTT.
func (s *Sender) MinRTT() float64 { return s.rtt.MinRTT() }

// Done reports whether a finite transfer has completed.
func (s *Sender) Done() bool { return s.done }

// WatchdogTrips returns how many times the stall watchdog declared an
// outage.
func (s *Sender) WatchdogTrips() int64 { return s.wdTrips }

// WatchdogRecoveries returns how many declared outages ended with a
// recovery ack.
func (s *Sender) WatchdogRecoveries() int64 { return s.wdRecoveries }

// InOutage reports whether the stall watchdog currently has the flow
// in outage mode.
func (s *Sender) InOutage() bool { return s.outage }

// OutstandingPackets returns the number of sender-side packet records
// currently retained — the state that must stay bounded during an
// outage.
func (s *Sender) OutstandingPackets() int { return len(s.unacked) }

func (s *Sender) pacingRate() float64 {
	if r := s.CC.PacingRate(); r > 0 {
		return r
	}
	if s.NoPacing {
		return math.Inf(1)
	}
	// Default pacing for window-based controllers: 1.25·cwnd/srtt once an
	// RTT estimate exists; before that, release the initial window as a
	// burst (ack clocking takes over within one RTT).
	if !s.rtt.Valid() {
		return math.Inf(1)
	}
	cwnd := s.CC.CWnd()
	if math.IsInf(cwnd, 1) {
		return math.Inf(1)
	}
	return 1.25 * cwnd / s.rtt.SRTT()
}

func (s *Sender) sendAllowed() bool {
	if s.done || s.paused || !s.started || s.outage {
		return false
	}
	if s.Limit > 0 && s.launched >= s.Limit {
		return false
	}
	return true
}

func (s *Sender) trySend() {
	if s.timerSet || !s.sendAllowed() {
		return
	}
	if float64(s.inflight+netem.MTU) > s.CC.CWnd() {
		s.blocked = true
		return
	}
	clk := s.clk()
	now := clk.Now()
	at := s.nextSend
	if at < now {
		at = now
	}
	s.timerSet = true
	clk.At(at, s.emitFn)
}

func (s *Sender) emit() {
	s.timerSet = false
	if !s.sendAllowed() {
		return
	}
	now := s.clk().Now()
	burst := s.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	if burst > 1 {
		// Randomize the train length (mean ≈ burst) so aggregate arrivals
		// at the bottleneck are stochastic. This is what gives a nearly
		// saturated queue its realistic variance (the M/D/1 blow-up as
		// utilization approaches 1) — the early competition signal §4.2
		// builds on. A fixed train length would produce an artificially
		// periodic, low-variance pattern. Randomness stays with the
		// simulation's seeded source even when the clock is injected.
		burst = 1 + s.Path.Link.Sim.Rand().Intn(2*burst-1)
	}
	sent := 0
	for i := 0; i < burst; i++ {
		if !s.sendAllowed() {
			break
		}
		if float64(s.inflight+netem.MTU) > s.CC.CWnd() {
			s.blocked = true
			break
		}
		size := netem.MTU
		if s.Limit > 0 {
			if rem := s.Limit - s.launched; rem < int64(size) {
				size = int(rem)
			}
		}
		s.unacked = append(s.unacked, SentPacket{Seq: s.seq, Size: size, SentAt: now})
		pkt := &s.unacked[len(s.unacked)-1]
		s.seq++
		s.CC.OnSend(now, pkt)
		s.inflight += size
		s.launched += int64(size)
		sent += size

		// A tail drop at the queue loses the packet; the sender
		// discovers it through dup-ACKs or RTO like any other loss.
		s.Path.Link.Send(s.wirePacket(netem.Packet{FlowID: s.ID, Seq: pkt.Seq, Size: size, SentAt: now, MI: pkt.MI}), s.deliverFn)
	}
	if sent == 0 {
		return
	}
	if !s.rtoArmed {
		s.armRTO()
	}
	rate := s.pacingRate()
	if math.IsInf(rate, 1) {
		s.nextSend = now
	} else {
		s.nextSend = now + float64(sent)/rate
	}
	s.trySend()
}

// deliver runs at the receiver when a data packet arrives.
func (s *Sender) deliver(p *netem.Packet, arrival float64) {
	s.recvd += int64(p.Size)
	if s.OnDeliver != nil {
		s.OnDeliver(arrival, p.Size)
	}
	if s.Path.DropAck() {
		return
	}
	// A receiver clock jump shifts the arrival stamps the sender's
	// controller sees (OWD, ack-interval clocking) without touching
	// sender-side RTT measurement — exactly the wire behavior.
	recvStamp := arrival + s.Path.StampOffset
	ackAt := s.Path.AckArrival(arrival)
	var a *ackEvent
	if n := len(s.ackFree); n > 0 {
		a = s.ackFree[n-1]
		s.ackFree = s.ackFree[:n-1]
	} else {
		a = &ackEvent{s: s}
		a.fire = a.run
	}
	a.p, a.recvAt, a.epoch = p, recvStamp, s.Path.Epoch()
	s.clk().At(ackAt, a.fire)
}

// ackEvent is one ack on its way back to the sender. Records are pooled
// per sender, each with its run method bound once, so scheduling an
// ack allocates nothing.
type ackEvent struct {
	s      *Sender
	p      *netem.Packet
	recvAt float64
	epoch  uint64 // the path's restart epoch when the ack was sent
	fire   func()
}

func (a *ackEvent) run() {
	s, p, recvAt, epoch := a.s, a.p, a.recvAt, a.epoch
	a.p = nil
	s.ackFree = append(s.ackFree, a)
	if epoch != s.Path.Epoch() {
		s.Path.NoteAckFlushed()
		return
	}
	s.handleAck(p, recvAt)
}

func (s *Sender) handleAck(p *netem.Packet, recvAt float64) {
	if s.done && s.Limit > 0 {
		return
	}
	now := s.clk().Now()
	// Any delivered ack proves the path is alive: reset the RTO
	// backoff and, if the watchdog had declared an outage, recover.
	s.noteAck(now)
	idx := s.findUnacked(p.Seq)
	if idx < 0 {
		return // already declared lost, or stale after completion
	}
	sp := &s.unacked[idx]
	if sp.acked || sp.lost {
		return
	}
	sp.acked = true
	s.inflight -= sp.Size
	if p.Seq > s.maxAcked {
		s.maxAcked = p.Seq
	}
	rtt := now - sp.SentAt
	s.rtt.Update(rtt)
	if sp.probe {
		// Keep-alive probes update liveness and the RTT estimate but
		// are invisible to the controller and to transfer accounting.
		s.prune()
		s.armRTO()
		return
	}
	s.acked += int64(sp.Size)
	s.tr.RTTSample(now, p.Seq, rtt, s.rtt.srtt, s.acked, s.inflight)
	if s.RecordRTT {
		s.rttSamples = append(s.rttSamples, rtt)
	}
	ack := Ack{
		Seq: p.Seq, Bytes: sp.Size, SentAt: sp.SentAt, RecvAt: recvAt,
		Now: now, RTT: rtt, OWD: recvAt - sp.SentAt, MI: sp.MI,
		Inflight: s.inflight,
	}
	s.CC.OnAck(ack)
	if r := s.CC.PacingRate(); r > 0 {
		s.lastGoodRate = r
	}
	s.detectDupAckLosses(now)
	s.prune()
	s.armRTO()
	if s.Limit > 0 && s.acked >= s.Limit && !s.done {
		s.done = true
		s.stopRTO()
		if s.OnComplete != nil {
			s.OnComplete(now)
		}
		return
	}
	if s.blocked || !s.timerSet {
		s.blocked = false
		if s.nextSend < now {
			s.nextSend = now
		}
		s.trySend()
	}
}

// detectDupAckLosses declares packets lost that are dupAckThreshold
// sequence numbers behind the highest ack — the fast-retransmit analog
// for per-packet ACKs — but only once they are also older than an
// RTT-plus-reordering-window, in the style of RACK (RFC 8985). Pure
// sequence counting misfires badly on jittery paths, where packets of
// one burst routinely reorder by more than the threshold.
func (s *Sender) detectDupAckLosses(now float64) {
	window := s.rtt.SRTT() + s.reorderWindow()
	for i := range s.unacked {
		sp := &s.unacked[i]
		if sp.Seq > s.maxAcked-dupAckThreshold {
			break
		}
		if !sp.acked && !sp.lost && now-sp.SentAt > window {
			s.markLost(sp, now)
		}
	}
}

// reorderWindow returns the extra delay tolerated for out-of-order
// delivery before a sequence gap is treated as loss.
func (s *Sender) reorderWindow() float64 {
	w := 4 * s.rtt.rttvar
	if w < 0.004 {
		w = 0.004
	}
	return w
}

func (s *Sender) markLost(sp *SentPacket, now float64) {
	sp.lost = true
	s.inflight -= sp.Size
	if sp.probe {
		// Probes lost into an outage are expected; they never reach
		// the controller or the transfer's byte accounting.
		return
	}
	s.lostB += int64(sp.Size)
	s.tr.PacketDrop(now, sp.Seq, sp.Size, s.Path.Link.QueueBytes(), "declared")
	if s.Limit > 0 {
		// Re-credit the bytes so replacements are transmitted.
		s.launched -= int64(sp.Size)
	}
	s.CC.OnLoss(Loss{
		Seq: sp.Seq, Bytes: sp.Size, SentAt: sp.SentAt, Now: now,
		MI: sp.MI, Inflight: s.inflight,
	})
}

func (s *Sender) findUnacked(seq int64) int {
	// unacked is sorted by Seq; binary search.
	lo, hi := 0, len(s.unacked)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.unacked[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.unacked) && s.unacked[lo].Seq == seq {
		return lo
	}
	return -1
}

func (s *Sender) prune() {
	i := 0
	for i < len(s.unacked) && (s.unacked[i].acked || s.unacked[i].lost) {
		i++
	}
	if i > 0 {
		s.unacked = s.unacked[i:]
	}
}

// armRTO (re)arms the retransmission timer at the oldest outstanding
// packet's deadline, or disarms it when nothing is outstanding.
func (s *Sender) armRTO() {
	oldest := s.oldestOutstanding()
	if s.done || oldest == nil {
		s.stopRTO()
		return
	}
	clk := s.clk()
	deadline := oldest.SentAt + s.effRTO()
	if deadline < clk.Now() {
		deadline = clk.Now()
	}
	if s.rtoTimer == nil {
		s.rtoTimer = clk.NewTimer(s.onRTO)
	}
	s.rtoTimer.Reset(deadline)
	s.rtoArmed = true
}

func (s *Sender) stopRTO() {
	if s.rtoArmed {
		s.rtoTimer.Stop()
		s.rtoArmed = false
	}
}

// effRTO is the retransmission timeout with exponential backoff: the
// base RFC 6298 value doubled per consecutive loss-declaring expiry,
// capped at maxRTO. The backoff resets on any ack.
func (s *Sender) effRTO() float64 {
	rto := s.rtt.RTO() * float64(int64(1)<<uint(s.rtoBackoff))
	if rto > maxRTO {
		if base := s.rtt.RTO(); base > maxRTO {
			return base
		}
		return maxRTO
	}
	return rto
}

// watchdogTimeout is the ack silence (with data outstanding) that
// declares an outage.
func (s *Sender) watchdogTimeout() float64 {
	wd := 2 * s.rtt.RTO()
	if wd < watchdogFloor {
		wd = watchdogFloor
	}
	return wd
}

// noteAck records proof of path liveness from a delivered ack.
func (s *Sender) noteAck(now float64) {
	s.lastAckAt = now
	s.rtoBackoff = 0
	if s.outage {
		s.recoverFromOutage(now)
	}
}

// tripWatchdog declares an outage: freeze the controller (so its
// gradient machinery does not rate-collapse on a flood of timeout
// losses), remember the pre-outage operating rate, and switch to cheap
// keep-alive probing until the path heals.
func (s *Sender) tripWatchdog(now float64) {
	s.outage = true
	s.outageAt = now
	s.wdTrips++
	s.resumeRate = s.lastGoodRate
	s.tr.Fault(now, "watchdog-trip", 1, now-s.lastAckAt)
	switch cc := s.CC.(type) {
	case OutageAware:
		cc.OnOutage(now)
	case PauseAware:
		cc.OnAppPause(now)
	}
	s.scheduleProbe(now + probeInterval)
}

// recoverFromOutage ends a declared outage at the first delivered ack:
// restore the controller at the pre-outage rate and resume sending.
func (s *Sender) recoverFromOutage(now float64) {
	s.outage = false
	s.wdRecoveries++
	if s.probeTimer != nil {
		s.probeTimer.Stop()
	}
	rate := s.resumeRate
	if rate <= 0 {
		rate = s.CC.PacingRate()
	}
	s.tr.Fault(now, "watchdog-recover", 0, now-s.outageAt)
	switch cc := s.CC.(type) {
	case OutageAware:
		cc.OnRecovery(now, rate)
	case PauseAware:
		cc.OnAppResume(now)
	}
	s.blocked = false
	if s.nextSend < now {
		s.nextSend = now
	}
	s.trySend()
}

func (s *Sender) scheduleProbe(at float64) {
	if s.probeTimer == nil {
		s.probeTimer = s.clk().NewTimer(s.sendProbe)
	}
	s.probeTimer.Reset(at)
}

// sendProbe emits one keep-alive packet during an outage, bypassing
// the (frozen) controller entirely, and reschedules itself. The first
// probe the healed path delivers produces the recovery ack.
func (s *Sender) sendProbe() {
	if s.done || !s.outage {
		return
	}
	now := s.clk().Now()
	seq := s.seq
	s.seq++
	s.unacked = append(s.unacked, SentPacket{Seq: seq, Size: netem.MTU, SentAt: now, probe: true})
	s.inflight += netem.MTU
	s.Path.Link.Send(s.wirePacket(netem.Packet{FlowID: s.ID, Seq: seq, Size: netem.MTU, SentAt: now}), s.deliverFn)
	if !s.rtoArmed {
		s.armRTO()
	}
	s.scheduleProbe(now + probeInterval)
}

func (s *Sender) oldestOutstanding() *SentPacket {
	for i := range s.unacked {
		if sp := &s.unacked[i]; !sp.acked && !sp.lost {
			return sp
		}
	}
	return nil
}

// wirePacketBatch is how many wire packets wirePacket allocates at once.
const wirePacketBatch = 64

// wirePacket returns p copied into the next preallocated wire packet.
// Packets are carved from batches so sending costs an allocation per
// batch, not per packet; a batch is freed once the last ack or loss
// that references any of its packets is gone.
func (s *Sender) wirePacket(p netem.Packet) *netem.Packet {
	if len(s.wireBuf) == 0 {
		s.wireBuf = make([]netem.Packet, wirePacketBatch)
	}
	w := &s.wireBuf[0]
	s.wireBuf = s.wireBuf[1:]
	*w = p
	return w
}

func (s *Sender) onRTO() {
	s.rtoArmed = false
	if s.done {
		return
	}
	now := s.clk().Now()
	// Stall watchdog: prolonged ack silence with data outstanding is
	// an outage, not a loss rate — handle it before declaring more
	// losses. Paused flows are excluded (silence is self-inflicted).
	if s.Survival && !s.outage && !s.paused && s.oldestOutstanding() != nil &&
		now-s.lastAckAt >= s.watchdogTimeout() {
		s.tripWatchdog(now)
	}
	rto := s.effRTO()
	declared := false
	for i := range s.unacked {
		if sp := &s.unacked[i]; !sp.acked && !sp.lost && now-sp.SentAt >= rto-1e-12 {
			s.markLost(sp, now)
			declared = true
		}
	}
	// Back off only when the expiry happened in true ack silence (no
	// ack for a full RTO). Straggler declarations while acks still flow
	// are ordinary congestion — backing off there would delay the loss
	// signal the controllers depend on.
	if s.Survival && declared && now-s.lastAckAt >= rto && s.rtoBackoff < maxRTOBackoff {
		s.rtoBackoff++
	}
	s.prune()
	s.armRTO()
	if s.blocked || !s.timerSet {
		s.blocked = false
		if s.nextSend < now {
			s.nextSend = now
		}
		s.trySend()
	}
}
