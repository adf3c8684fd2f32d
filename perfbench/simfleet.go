package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"pccproteus/internal/campaign"
	"pccproteus/internal/exp"
	"pccproteus/internal/netem"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// sim-fleet runs the simulator the way a fleet campaign does: 200
// scenarios shaped like specs/campaign-100k.json (about 20k flows of
// proteus-p, proteus-s and cubic over dumbbell and shared-uplink
// topologies with Pareto flow sizes) through campaign.Run with the exp
// controller factory. One worker: on a shared 2-core host two workers
// spread about ±17% in flows/s against about ±4% for one.
const (
	fleetSpecPath   = "specs/campaign-100k.json"
	smokeSpecPath   = "specs/campaign-smoke.json"
	smokeGoldenPath = "internal/campaign/testdata/smoke_aggregate.json"
	fleetScenarios  = 200
	minPasses       = 3 // a median over at least three campaign passes
)

// fleetSpec is the sim-fleet campaign for a benchmark seed.
func fleetSpec(seed int64) (campaign.Spec, error) {
	spec, err := campaign.LoadSpec(fleetSpecPath)
	if err != nil {
		return spec, err
	}
	spec.Name = "sim-fleet"
	spec.Scenarios = fleetScenarios
	spec.Seed = wire.MixSeed(seed, 0xf1ee7)
	return spec, nil
}

// runCampaign runs spec on one worker. With st non-nil every controller
// is wrapped so its calls are counted and sampled into st.
func runCampaign(spec campaign.Spec, st *ccStats) (*campaign.Aggregate, error) {
	factory := exp.NewControllerRNG
	if st != nil {
		factory = func(rng *rand.Rand, proto string) transport.Controller {
			return wrapCC(exp.NewControllerRNG(rng, proto), st)
		}
	}
	return campaign.Run(spec, campaign.RunOpts{Workers: 1, NewController: factory})
}

func digest(agg *campaign.Aggregate) (string, error) {
	b, err := campaign.EncodeJSON(agg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// smokeCheck replays the smoke campaign and compares it byte for byte
// with the committed golden aggregate.
func smokeCheck() (bool, error) {
	spec, err := campaign.LoadSpec(smokeSpecPath)
	if err != nil {
		return false, err
	}
	want, err := os.ReadFile(smokeGoldenPath)
	if err != nil {
		return false, err
	}
	agg, err := runCampaign(spec, nil)
	if err != nil {
		return false, err
	}
	got, err := campaign.EncodeJSON(agg)
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, want), nil
}

// fleetValid checks the invariants every sim-fleet aggregate must hold.
func fleetValid(agg *campaign.Aggregate, spec campaign.Spec) error {
	if agg.Scenarios != int64(spec.Scenarios) {
		return fmt.Errorf("%d scenarios, want %d", agg.Scenarios, spec.Scenarios)
	}
	if agg.Flows == 0 || agg.Completed == 0 || agg.Completed > agg.Flows {
		return fmt.Errorf("%d flows, %d completed", agg.Flows, agg.Completed)
	}
	mix := map[string]bool{}
	for _, m := range spec.Pop.Mix {
		mix[m.Proto] = true
	}
	var flows int64
	for name, c := range agg.Classes {
		if !mix[name] {
			return fmt.Errorf("class %q not in the mix", name)
		}
		flows += c.Flows
	}
	if flows != agg.Flows {
		return fmt.Errorf("class flows sum to %d, want %d", flows, agg.Flows)
	}
	return nil
}

func runSimFleet(o opts) (*report, error) {
	r := newReport()

	// Set-up: load the specs and replay the smoke campaign against its
	// golden, several times, so setup_s is a median.
	var setups []float64
	var spec campaign.Spec
	smokeOK := true
	for i := 0; i < setupRepeats; i++ {
		secs, err := timeSetup(func() error {
			var err error
			if spec, err = fleetSpec(o.seed); err != nil {
				return err
			}
			ok, err := smokeCheck()
			smokeOK = smokeOK && ok
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	r.e2e["setup_s"] = median(setups)
	r.attempted++
	if !smokeOK {
		r.failed++
	}
	r.check("smoke-golden", smokeOK, "%s replay vs %s", smokeSpecPath, smokeGoldenPath)

	var (
		st                       ccStats
		pps, cpuPerPkt, flowsPer []float64
		passMs                   []float64
		total                    cost
		passDigest               string
		digestsAgree             = true
		invalid                  error
	)
	start := time.Now()
	for len(pps) < minPasses || time.Since(start).Seconds()+passMs[len(passMs)-1]/1e3 <= o.seconds {
		var ps *ccStats
		if o.traced {
			ps = &st
		}
		a := takeSnapshot()
		agg, err := runCampaign(spec, ps)
		if err != nil {
			return nil, err
		}
		c := takeSnapshot().since(a)
		total.add(c)

		r.attempted++
		if err := fleetValid(agg, spec); err != nil {
			r.failed++
			invalid = err
		}
		d, err := digest(agg)
		if err != nil {
			return nil, err
		}
		if passDigest == "" {
			passDigest = d
		} else if d != passDigest {
			digestsAgree = false
		}

		var bytes int64
		for _, cl := range agg.Classes {
			bytes += cl.Bytes
		}
		p := bytes / netem.MTU
		pps = append(pps, float64(p)/c.cpu().Seconds())
		cpuPerPkt = append(cpuPerPkt, float64(c.cpu())/float64(p))
		flowsPer = append(flowsPer, float64(agg.Completed)/c.wall.Seconds())
		passMs = append(passMs, float64(c.wall)/1e6)
	}
	r.check("fleet-aggregate", invalid == nil, "%d passes of %d scenarios, last error: %v", len(pps), spec.Scenarios, invalid)
	r.check("pass-digest", digestsAgree, "every pass at seed %d gives aggregate %s", o.seed, passDigest)
	r.digest = passDigest

	// The campaign is one CPU-bound thread, and time or cache the host
	// gives to other tenants only ever slows a pass down: the fastest pass,
	// counted in process CPU time, is the estimate of the program's speed.
	r.e2e["pps"] = value{slices.Max(pps), int64(len(pps))}
	r.e2e["cpu_ns_per_pkt"] = value{slices.Min(cpuPerPkt), int64(len(cpuPerPkt))}
	r.e2e["peak_rss_mb"] = value{peakRSSMiB(), 1}
	r.extra["flows_per_s"] = extra{median(flowsPer), "1/s"}

	if o.traced {
		st.layer(r.layer)
		r.layer["sim.flows_per_s"] = median(flowsPer)
		acks := float64(st.ack.calls)
		r.layer["sim.rest_ns_per_ack"] = value{per(float64(total.cpu())-st.controllerNs(), acks), st.ack.calls}
		r.layer["sim.allocs_per_ack"] = value{per(float64(total.mallocs), acks), st.ack.calls}
		passes := float64(len(pps))
		r.layer["sim.gc_cycles"] = value{float64(total.gcCycles) / passes, int64(len(pps))}
		r.layer["sim.gc_pause_ms"] = value{float64(total.gcPause.Microseconds()) / 1000 / passes, int64(len(pps))}
	}
	return r, nil
}
