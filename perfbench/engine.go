package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// enginePair is a sender engine and a receiver engine on the host
// loopback, one shard each: two event loops for the host's two cores.
type enginePair struct {
	snd, rcv *engine.Engine
}

func startPair(cfg engine.Config) (*enginePair, error) {
	rcv, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	snd, err := engine.New(cfg)
	if err != nil {
		rcv.Stop()
		return nil, err
	}
	p := &enginePair{snd: snd, rcv: rcv}
	if err := rcv.Start(); err != nil {
		p.stop()
		return nil, err
	}
	if err := snd.Start(); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// stop stops the sender first and lets the receiver drain the datagrams
// already in flight: until it has received every one the sender sent,
// or its count has not moved for drainIdle (a starved receiver shard can
// sit still for tens of milliseconds on a loaded host). Then it stops the
// receiver.
func (p *enginePair) stop() {
	const drainIdle = 500 * time.Millisecond
	p.snd.Stop()
	sent := p.snd.Stats().TxPkts
	last, lastMove := int64(-1), time.Now()
	for time.Since(lastMove) < drainIdle {
		n := p.rcv.Stats().RxPkts
		if n >= sent {
			break
		}
		if n != last {
			last, lastMove = n, time.Now()
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.rcv.Stop()
}

// engineWindow is the engine counters and process cost over one
// measured window.
type engineWindow struct {
	cost     cost
	snd, rcv engine.Stats // deltas, except the gauges
}

func statsDelta(b, a engine.Stats) engine.Stats {
	b.RxPkts -= a.RxPkts
	b.RxBatches -= a.RxBatches
	b.RxDups -= a.RxDups
	b.TxPkts -= a.TxPkts
	b.TxBatches -= a.TxBatches
	b.Evicted -= a.Evicted
	b.Delivered -= a.Delivered
	b.DeliveredBytes -= a.DeliveredBytes
	return b
}

type pairMark struct {
	at       snapshot
	snd, rcv engine.Stats
}

func (p *enginePair) mark() pairMark {
	return pairMark{at: takeSnapshot(), snd: p.snd.Stats(), rcv: p.rcv.Stats()}
}

func (b pairMark) since(a pairMark) engineWindow {
	return engineWindow{cost: b.at.since(a.at), snd: statsDelta(b.snd, a.snd), rcv: statsDelta(b.rcv, a.rcv)}
}

// datapathLayer writes the engine.* metrics every engine workload has.
func (w engineWindow) datapathLayer(out map[string]value) {
	pkts := float64(w.rcv.Delivered)
	n := w.rcv.Delivered
	out["engine.usr_ns_per_pkt"] = value{per(float64(w.cost.usr), pkts), n}
	out["engine.sys_ns_per_pkt"] = value{per(float64(w.cost.sys), pkts), n}
	out["engine.rx_pkts_per_batch"] = value{per(float64(w.snd.RxPkts+w.rcv.RxPkts), float64(w.snd.RxBatches+w.rcv.RxBatches)), w.snd.RxBatches + w.rcv.RxBatches}
	out["engine.tx_pkts_per_batch"] = value{per(float64(w.snd.TxPkts+w.rcv.TxPkts), float64(w.snd.TxBatches+w.rcv.TxBatches)), w.snd.TxBatches + w.rcv.TxBatches}
	out["engine.acks_per_pkt"] = value{per(float64(w.snd.RxPkts), pkts), n}
	out["engine.allocs_per_pkt"] = value{per(float64(w.cost.mallocs), pkts), n}
}

// overloadLayer writes the overload.* counters of both engines.
func overloadLayer(out map[string]value, snd, rcv engine.Stats) {
	out["overload.busy_tx"] = value{float64(snd.BusyTx + rcv.BusyTx), 1}
	out["overload.rejected_scav"] = value{float64(snd.RejectedScavenger + rcv.RejectedScavenger), 1}
	out["overload.shed_scav"] = value{float64(snd.ShedScavenger + rcv.ShedScavenger), 1}
	out["overload.shed_prim"] = value{float64(snd.ShedPrimary + rcv.ShedPrimary), 1}
}

// engine-bulk-64B: 1000 long-lived flows of 64-byte datagrams, each
// window-bounded to 8 packets and paced at 750 packets/s: 750k pps in
// all, about half of what one sender and one receiver shard carry on two
// cores. Per-packet cost dominates at the smallest packet.
//
// The offer stays below capacity because above it the pair collapses:
// at 1.5M pps offered, queueing delay passes the 200 ms minimum RTO, the
// flows declare their whole windows lost at once, re-credit them, and
// the real queue grows with each such storm; delivered pps then swings
// between 0.13M and 1M from one second to the next (README.md).
//
// Each flow is a finite transfer sized to outlast the measured window by
// bulkTail at its pace, so the run ends with every flow done and the
// pair at rest: the output check is that every flow's bytes were
// delivered and acknowledged, once.
const (
	bulkFlows    = 1000
	bulkPktSize  = 64
	bulkWindow   = 8
	bulkFlowPPS  = 750
	bulkWarmup   = 500 * time.Millisecond
	bulkInterval = time.Second
	bulkTail     = 2 * time.Second
	bulkFinish   = 30 * time.Second // after the window, for the flows to finish
)

// startBulk starts an engine pair carrying the static bulk flow table,
// each flow limited to limit bytes. With st non-nil the controllers are
// counted and sampled into st.
func startBulk(seed, limit int64, st *ccStats) (*enginePair, []*engine.Flow, error) {
	pair, err := startPair(engine.Config{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	dst := pair.rcv.Addrs()[0]
	flows := make([]*engine.Flow, 0, bulkFlows)
	for f := 0; f < bulkFlows; f++ {
		var cc transport.Controller = &engine.FixedRateCC{Rate: bulkFlowPPS * bulkPktSize, Win: bulkWindow * bulkPktSize}
		if st != nil {
			cc = wrapCC(cc, st)
		}
		fl, err := pair.snd.AddFlow(engine.FlowConfig{Dst: dst, CC: cc, Limit: limit, PacketSize: bulkPktSize})
		if err != nil {
			pair.stop()
			return nil, nil, fmt.Errorf("bulk: add flow %d: %w", f, err)
		}
		flows = append(flows, fl)
	}
	return pair, flows, nil
}

// awaitDone waits until every flow is done or the deadline passes and
// returns how many are not done.
func awaitDone(flows []*engine.Flow, deadline time.Time) int {
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for i, fl := range flows {
		select {
		case <-fl.Done():
		case <-timeout.C:
			return len(flows) - i
		}
	}
	return 0
}

// atRest waits until neither engine's packet counters move for 100 ms,
// or two seconds have passed, and returns both engines' stats.
func (p *enginePair) atRest() (snd, rcv engine.Stats) {
	deadline := time.Now().Add(2 * time.Second)
	snd, rcv = p.snd.Stats(), p.rcv.Stats()
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		s, r := p.snd.Stats(), p.rcv.Stats()
		if s.TxPkts == snd.TxPkts && r.RxPkts == rcv.RxPkts && r.TxPkts == rcv.TxPkts {
			return s, r
		}
		snd, rcv = s, r
	}
	return snd, rcv
}

func runEngineBulk(o opts) (*report, error) {
	r := newReport()
	var st *ccStats
	var pair *enginePair
	var flows []*engine.Flow
	var setups []float64
	var drops0 int64
	life := bulkWarmup + time.Duration(o.seconds*float64(time.Second)) + bulkTail
	limit := int64(life.Seconds() * bulkFlowPPS * bulkPktSize)
	// Set-up: start both engines and admit the static flow table, several
	// times, so setup_s is a median; the last pair is the one measured.
	for i := 0; i < setupRepeats; i++ {
		if pair != nil {
			pair.stop()
		}
		if i == setupRepeats-1 {
			drops0 = udpRcvbufErrors()
			if o.traced {
				st = &ccStats{}
			}
		}
		secs, err := timeSetup(func() (err error) {
			pair, flows, err = startBulk(o.seed, limit, st)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	r.e2e["setup_s"] = median(setups)

	time.Sleep(bulkWarmup)
	var pps, cpuPerPkt []float64
	first := pair.mark()
	prev := first
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(deadline) || len(pps) == 0 {
		time.Sleep(bulkInterval)
		m := pair.mark()
		w := m.since(prev)
		prev = m
		pps = append(pps, float64(w.rcv.Delivered)/w.cost.wall.Seconds())
		cpuPerPkt = append(cpuPerPkt, per(float64(w.cost.cpu()), float64(w.rcv.Delivered)))
	}
	window := prev.since(first)
	notDone := awaitDone(flows, time.Now().Add(bulkFinish))
	snd, rcv := pair.atRest()
	pair.stop()

	// Every flow must have its bytes acknowledged, every acknowledged
	// packet must have reached the receiver, and none twice. Datagrams
	// lost on the way (sender minus receiver count) are recovered by the
	// flows and reported as engine.loss_frac; the kernel's receive-buffer
	// drops and the sender's soft transmit errors tell where they went.
	var acked, unacked int64
	for _, fl := range flows {
		fs := fl.Stats()
		acked += fs.AckedPkts
		if fs.AckedBytes < limit {
			unacked += limit - fs.AckedBytes
		}
	}
	r.attempted = bulkFlows * ((limit + bulkPktSize - 1) / bulkPktSize)
	r.failed = (unacked + bulkPktSize - 1) / bulkPktSize
	r.check("flows-complete", notDone == 0 && unacked == 0,
		"%d of %d flows not done %v after the window, %d bytes unacknowledged", notDone, bulkFlows, bulkFinish, unacked)
	r.check("acked-delivered", acked <= rcv.Delivered && rcv.RxPkts <= snd.TxPkts,
		"sender acked %d, receiver delivered %d; sender txpkts %d, receiver rxpkts %d (%d lost on the way; kernel receive-buffer drops %d, sender tx soft errors %d)",
		acked, rcv.Delivered, snd.TxPkts, rcv.RxPkts, snd.TxPkts-rcv.RxPkts, udpRcvbufErrors()-drops0, snd.TxSoftErrs)
	r.check("no-dups", rcv.RxDups == 0, "receiver dups %d", rcv.RxDups)

	r.e2e["pps"] = median(pps)
	r.e2e["cpu_ns_per_pkt"] = median(cpuPerPkt)

	if o.traced {
		st.layer(r.layer)
		window.datapathLayer(r.layer)
		r.layer["engine.loss_frac"] = value{per(float64(snd.TxPkts-rcv.RxPkts), float64(snd.TxPkts)), snd.TxPkts}
		r.layer["engine.dups"] = value{float64(rcv.RxDups), 1}
		overloadLayer(r.layer, snd, rcv)
	}
	r.e2e["peak_rss_mb"] = value{peakRSSMiB(), 1}
	return r, nil
}

// engine-churn: an open loop of short finite flows arriving on a seeded
// Poisson schedule below saturation, half primary and half scavenger
// class. Each flow is timed from its due time to Flow.Done. A short idle
// timeout lets both engines' sweeps reclaim completed flows.
//
// The rate and per-flow pace keep few flows in flight at once. With more
// in flight (20 Mbps per flow at 500 arrivals/s) the pair collapsed in
// two of three runs: acks waited seconds in the sender's socket, flows
// declared their packets lost and never finished. At 300 arrivals/s it
// still happened in about one run in fifty; such a run fails its check
// (README.md).
const (
	churnRate     = 150.0  // arrivals per second
	churnFlowRate = 6.25e6 // bytes/s per flow (50 Mbps)
	churnIdle     = 0.5    // engine IdleTimeout, seconds
	churnBytes    = 64 << 10
	churnPktSize  = 1200
	churnWindow   = 32 // packets
	churnDrain    = 2 * time.Second
	churnQuiet    = time.Second
	churnInterval = time.Second
)

// arrival is one scheduled flow of the churn workload.
type arrival struct {
	at   time.Duration // due time after the schedule starts
	scav bool
}

// churnSchedule draws Poisson arrivals at rate per second over d, each
// flow primary or scavenger with equal probability, from seed alone.
func churnSchedule(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(wire.MixSeed(seed, 0xc4a2)))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, scav: rng.Intn(2) == 1})
	}
}

func runEngineChurn(o opts) (*report, error) {
	r := newReport()
	cfg := engine.Config{IdleTimeout: churnIdle, Seed: o.seed}
	var pair *enginePair
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if pair != nil {
			pair.stop()
		}
		secs, err := timeSetup(func() (err error) {
			pair, err = startPair(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	r.e2e["setup_s"] = median(setups)
	dst := pair.rcv.Addrs()[0]

	if o.traced {
		// Both engines started and no flows: what the shard loops cost
		// while there is nothing to do.
		a := takeSnapshot()
		time.Sleep(churnQuiet)
		c := takeSnapshot().since(a)
		r.layer["engine.idle_cores"] = value{float64(c.cpu()) / float64(c.wall), 1}
		r.layer["engine.idle_allocs_per_s"] = value{float64(c.mallocs) / c.wall.Seconds(), 1}
	}

	span := time.Duration(o.seconds*float64(time.Second)) - churnDrain
	if o.traced {
		span -= churnQuiet
	}
	if span < time.Second {
		span = time.Second
	}
	sched := churnSchedule(o.seed, churnRate, span)

	var (
		st       ccStats
		late     = make([]float64, 0, len(sched))
		addUs    = make([]float64, 0, len(sched))
		fct      = make([]float64, len(sched)) // ms, 0 = not done
		refused  int64
		wg       sync.WaitGroup
		quit     = make(chan struct{})
		mu       sync.Mutex // guards fct
		finished int
		pps      []float64
		cpuPkt   []float64
	)
	first := pair.mark()
	prev := first
	start := time.Now()
	tick := start.Add(churnInterval)
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if time.Now().After(tick) {
			m := pair.mark()
			w := m.since(prev)
			prev, tick = m, tick.Add(churnInterval)
			pps = append(pps, float64(w.rcv.Delivered)/w.cost.wall.Seconds())
			cpuPkt = append(cpuPkt, per(float64(w.cost.cpu()), float64(w.rcv.Delivered)))
		}
		late = append(late, float64(time.Since(due))/1e6)
		class := overload.ClassPrimary
		if a.scav {
			class = overload.ClassScavenger
		}
		var cc transport.Controller = &engine.FixedRateCC{Rate: churnFlowRate, Win: churnWindow * churnPktSize}
		if o.traced {
			cc = wrapCC(cc, &st)
		}
		t0 := time.Now()
		fl, err := pair.snd.AddFlow(engine.FlowConfig{
			Dst: dst, CC: cc, Limit: churnBytes, PacketSize: churnPktSize, Class: class,
		})
		addUs = append(addUs, float64(time.Since(t0))/1e3)
		if err != nil {
			refused++
			continue
		}
		wg.Add(1)
		go func(i int, due time.Time, done <-chan struct{}) {
			defer wg.Done()
			select {
			case <-done:
				ms := float64(time.Since(due)) / 1e6
				mu.Lock()
				fct[i] = ms
				finished++
				mu.Unlock()
			case <-quit:
			}
		}(i, due, fl.Done())
	}
	// Give the last flows time to finish, then stop waiting.
	drainBy := time.Now().Add(churnDrain)
	for time.Now().Before(drainBy) {
		mu.Lock()
		all := finished == len(sched)-int(refused)
		mu.Unlock()
		if all {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(quit)
	wg.Wait()
	last := pair.mark()
	window := last.since(first)
	pair.stop()
	snd, rcv := pair.snd.Stats(), pair.rcv.Stats()

	var done []float64
	for _, ms := range fct {
		if ms > 0 {
			done = append(done, ms)
		}
	}
	notDone := int64(len(sched)) - refused - int64(len(done))
	r.attempted = int64(len(sched))
	r.failed = refused + notDone
	r.check("flows-complete", r.failed == 0, "%d arrivals, %d refused, %d not done after %v",
		len(sched), refused, notDone, churnDrain)
	r.check("no-dups", rcv.RxDups == 0, "receiver dups %d", rcv.RxDups)

	r.e2e["pps"] = median(pps)
	r.e2e["cpu_ns_per_pkt"] = median(cpuPkt)
	fct50, fct99 := pct(done, 50), pct(done, 99)
	r.extra["fct_p50_ms"] = extra{fct50, "ms"}
	r.extra["fct_p99_ms"] = extra{fct99, "ms"}
	r.e2e["peak_rss_mb"] = value{peakRSSMiB(), 1}

	if o.traced {
		st.layer(r.layer)
		window.datapathLayer(r.layer)
		n := int64(len(done))
		flows := float64(n)
		r.layer["engine.loss_frac"] = value{per(float64(snd.TxPkts-rcv.RxPkts), float64(snd.TxPkts)), snd.TxPkts}
		r.layer["engine.dups"] = value{float64(rcv.RxDups), 1}
		r.layer["engine.fct_p50_ms"] = fct50
		r.layer["engine.fct_p99_ms"] = fct99
		r.layer["engine.addflow_us_p50"] = pct(addUs, 50)
		r.layer["engine.addflow_us_p99"] = pct(addUs, 99)
		r.layer["engine.allocs_per_flow"] = value{per(float64(window.cost.mallocs), flows), n}
		r.layer["engine.cpu_ms_per_flow"] = value{per(float64(window.cost.cpu())/1e6, flows), n}
		r.layer["engine.evicted_per_flow"] = value{per(float64(snd.Evicted+rcv.Evicted), flows), n}
		r.layer["gen.late_p99_ms"] = pct(late, 99)
		overloadLayer(r.layer, snd, rcv)
	}
	return r, nil
}
