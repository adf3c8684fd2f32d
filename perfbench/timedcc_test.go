package main

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"pccproteus/internal/campaign"
	"pccproteus/internal/engine"
	"pccproteus/internal/exp"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/transport"
)

// The workloads read specs and goldens by repository-relative paths, as
// run.sh runs the benchmark from the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestWrapForwardsExactly checks, for every registered controller, that
// the timing wrapper implements each optional sender interface exactly
// when the wrapped controller does.
func TestWrapForwardsExactly(t *testing.T) {
	protos := []string{
		exp.ProtoProteusP, exp.ProtoProteusS, exp.ProtoProteusH, exp.ProtoVivace,
		exp.ProtoCubic, exp.ProtoBBR, exp.ProtoBBRS, exp.ProtoBBR2, exp.ProtoCopa,
		exp.ProtoLEDBAT, exp.ProtoLEDBAT25, exp.ProtoAllegro, exp.ProtoFixedPfx + "20",
	}
	ccs := map[string]transport.Controller{"engine-fixed-rate": &engine.FixedRateCC{Rate: 1e6}}
	for _, p := range protos {
		ccs[p] = exp.NewControllerRNG(rand.New(rand.NewSource(1)), p)
	}
	for name, cc := range ccs {
		w := wrapCC(cc, &ccStats{})
		_, p0 := cc.(transport.PauseAware)
		_, p1 := w.(transport.PauseAware)
		_, o0 := cc.(transport.OutageAware)
		_, o1 := w.(transport.OutageAware)
		_, t0 := cc.(transport.TraceAware)
		_, t1 := w.(transport.TraceAware)
		if p0 != p1 || o0 != o1 || t0 != t1 {
			t.Errorf("%s: pause/outage/trace %v/%v/%v, wrapped %v/%v/%v", name, p0, o0, t0, p1, o1, t1)
		}
		if w.Name() != cc.Name() {
			t.Errorf("%s: wrapped name %q", name, w.Name())
		}
	}
}

// TestTracedAggregateIdentical runs a small campaign per protocol of the
// sim-fleet mix with and without the timing wrapper and requires the
// aggregates to be byte-identical. The LEO-handover variant drives the
// outage path, where the sender calls OnOutage and OnRecovery.
func TestTracedAggregateIdentical(t *testing.T) {
	fleet, err := fleetSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	leo := fleet.Topology[0]
	leo.PathModel = &pathmodel.Spec{Kind: "leo"}
	for _, mix := range fleet.Pop.Mix {
		for _, topo := range [][]campaign.TopologySpec{fleet.Topology, {leo}} {
			spec := fleet
			spec.Scenarios = 4
			spec.Duration = 20
			spec.Topology = topo
			spec.Pop.Mix = []campaign.MixEntry{{Proto: mix.Proto, Weight: 1}}
			var st ccStats
			plain, err := runCampaign(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runCampaign(spec, &st)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := campaign.EncodeJSON(plain)
			b, _ := campaign.EncodeJSON(traced)
			if !bytes.Equal(a, b) {
				t.Errorf("%s on %s: traced aggregate differs from untraced", mix.Proto, topo[0].Kind)
			}
			if plain.Completed == 0 || st.ack.calls == 0 || st.ack.sampled == 0 {
				t.Errorf("%s: %d flows completed, %d acks counted, %d timed",
					mix.Proto, plain.Completed, st.ack.calls, st.ack.sampled)
			}
		}
	}
}
