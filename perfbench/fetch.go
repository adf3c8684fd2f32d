package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/fetch"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// fetch-lossy: two concurrent fetchers, each pulling a seeded 64 MiB
// object through its own shim with random loss and a 2 ms delay each
// way, exercising fetch.Core loss recovery, the object store and the
// wire.Receiver on every segment. The controllers pace requests at
// 150 Mbps each, which delivers about 140 Mbps in all, a quarter of what
// the host carries. Asked for 1 Gbps each instead, the run is CPU-bound
// and its goodput followed the CPU that other tenants left free: it
// spread 15% between runs, against 1% paced.
const (
	fetchFlows    = 2
	fetchObject   = 64 << 20
	fetchLoss     = 0.005
	fetchDelay    = 0.002 // seconds, each way
	fetchShimMbps = 10000 // above what the host carries: the shim never queues
	fetchShimQ    = 8 << 20
	fetchCCRate   = 18.75e6 // bytes/s per fetcher (150 Mbps)
	fetchCCWin    = 2 << 20 // expected response bytes in flight
	fetchTimeout  = 60      // seconds per round
)

func runFetchLossy(o opts) (*report, error) {
	r := newReport()
	var (
		sts                                []*ccStats
		setups, pps, cpuPerSeg, p50s, p99s []float64
		goodput, rss                       []float64
		total                              cost
		usr, sys                           time.Duration
		segs, reqs, lost, refetched        int64
		overflow, dropped                  int64
		rounds                             int
	)
	newCC := func() transport.Controller {
		var cc transport.Controller = &engine.FixedRateCC{Rate: fetchCCRate, Win: fetchCCWin}
		if o.traced {
			st := &ccStats{}
			sts = append(sts, st)
			cc = wrapCC(cc, st)
		}
		return cc
	}
	cfg := fetch.LoopbackConfig{
		NewController: newCC,
		Shim: wire.ShimConfig{
			RateMbps: fetchShimMbps, QueueBytes: fetchShimQ,
			Delay: fetchDelay, AckDelay: fetchDelay, LossProb: fetchLoss,
		},
		Flows:        fetchFlows,
		BytesPerFlow: fetchObject,
		Timeout:      fetchTimeout,
		Seed:         wire.MixSeed(o.seed, 0xfe7c),
	}
	smp := startSampler()
	defer smp.stop()
	start := time.Now()
	for rounds == 0 || time.Since(start).Seconds() < o.seconds {
		rounds++
		// The last round's objects are garbage: collect them and return
		// the memory, so every round's peak starts from the same heap.
		debug.FreeOSMemory()
		a := takeSnapshot()
		res, err := fetch.RunLoopback(cfg)
		b := takeSnapshot()
		if err != nil {
			return nil, err
		}
		if res.TotalBytes == 0 {
			return nil, fmt.Errorf("fetch-lossy: round %d delivered nothing", rounds)
		}
		c := b.since(a)
		total.add(c)

		// RunLoopback sets up (objects, receiver, shims, fetchers), then
		// fetches; AggMbps is the bytes over the fetch's own wall time, so
		// the fetch began that long before the call returned.
		fetchWall := float64(res.TotalBytes) * 8 / res.AggMbps / 1e6
		fetchStart := b.wall.Add(-time.Duration(fetchWall * float64(time.Second)))
		setups = append(setups, c.wall.Seconds()-fetchWall)
		p := smp.at(fetchStart)
		rss = append(rss, smp.peakRSS(a.wall, b.wall))
		u, s := b.usr-p.usr, b.sys-p.sys
		usr += u
		sys += s

		var n, rl, rr int64
		var p50, p99 float64
		for _, f := range res.Flows {
			n += f.Fetcher.SegsRx
			reqs += f.Fetcher.ReqsSent
			rl += f.Fetcher.LostReqs
			rr += f.Fetcher.Refetched
			p50 += f.P50RTT * 1000 / fetchFlows
			p99 += f.P99RTT * 1000 / fetchFlows
			overflow += f.Shim.Overflow
			dropped += f.Shim.Dropped
			r.attempted++
			if !f.Verified {
				r.failed++
			}
		}
		segs += n
		lost += rl
		refetched += rr
		pps = append(pps, float64(n)/fetchWall)
		cpuPerSeg = append(cpuPerSeg, per(float64(u+s), float64(n)))
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		goodput = append(goodput, res.AggMbps)
	}
	r.check("fetch-verified", r.failed == 0 && refetched == 0,
		"%d rounds of %d x %d MiB: %d objects not sha256-verified, %d refetched",
		rounds, fetchFlows, fetchObject>>20, r.failed, refetched)

	r.e2e["setup_s"] = median(setups)
	r.e2e["pps"] = median(pps)
	r.e2e["cpu_ns_per_pkt"] = median(cpuPerSeg)
	// The process peak depends on where the collector ran in the worst
	// round; the median of the rounds' own peaks much less so.
	r.e2e["peak_rss_mb"] = median(rss)
	r.extra["goodput_mbps"] = extra{median(goodput), "Mbps"}
	r.extra["rtt_p99_ms"] = extra{median(p99s), "ms"}

	if o.traced {
		var st ccStats
		for _, s := range sts {
			st.merge(s)
		}
		st.layer(r.layer)
		nr := float64(rounds)
		r.layer["fetch.lost_reqs"] = value{float64(lost) / nr, int64(rounds)}
		r.layer["fetch.refetched"] = value{float64(refetched), int64(rounds)}
		r.layer["fetch.useful_frac"] = value{per(float64(segs), float64(reqs)), reqs}
		r.layer["fetch.usr_ns_per_seg"] = value{per(float64(usr), float64(segs)), segs}
		r.layer["fetch.sys_ns_per_seg"] = value{per(float64(sys), float64(segs)), segs}
		r.layer["fetch.allocs_per_seg"] = value{per(float64(total.mallocs), float64(segs)), segs}
		r.layer["fetch.goodput_mbps"] = median(goodput)
		r.layer["fetch.rtt_p50_ms"] = median(p50s)
		r.layer["fetch.rtt_p99_ms"] = median(p99s)
		r.layer["wire.shim_overflow"] = value{float64(overflow), int64(rounds)}
		r.layer["wire.shim_dropped"] = value{float64(dropped), int64(rounds)}
	}
	return r, nil
}
