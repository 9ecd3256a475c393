package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
)

// abrFixture plays one episode of an untrained adversary against MPC.
func abrFixture(t *testing.T) (abrInputs, abrEpisode) {
	t.Helper()
	in := newABRInputs(1)
	adv := core.NewABRAdversary(mathx.NewRNG(3), in.video.Levels(), in.cfg)
	return in, playABREpisode(in, adv)
}

func TestABRChecksPassOnRealEpisode(t *testing.T) {
	in, ep := abrFixture(t)
	if err := checkABRReplay(ep, replayABR(in, ep.bandwidths)); err != nil {
		t.Fatal(err)
	}
	if err := checkABRBandwidths(ep.bandwidths, in.cfg.BandwidthLo, in.cfg.BandwidthHi); err != nil {
		t.Fatal(err)
	}
	var ns int64
	calls, err := checkABRRegret(in, ep, &ns)
	if err != nil {
		t.Fatal(err)
	}
	if calls != int64(len(ep.results)) || ns <= 0 {
		t.Fatalf("regret check made %d timed oracle calls (%d ns) over %d chunks", calls, ns, len(ep.results))
	}
}

func TestABRReplayCatchesLevelOffByOne(t *testing.T) {
	in, ep := abrFixture(t)
	replay := replayABR(in, ep.bandwidths)
	i := len(replay) / 2
	replay[i].Level = (replay[i].Level + 1) % in.video.Levels()
	if checkABRReplay(ep, replay) == nil {
		t.Fatal("a replayed level off by one passed the replay check")
	}
}

func TestABRReplayCatchesQoEOneULP(t *testing.T) {
	in, ep := abrFixture(t)
	replay := replayABR(in, ep.bandwidths)
	replay[3].QoE = math.Nextafter(replay[3].QoE, math.Inf(1))
	if checkABRReplay(ep, replay) == nil {
		t.Fatal("a replayed QoE one ulp off passed the replay check")
	}
}

func TestABRRegretCatchesQoEAboveOptimum(t *testing.T) {
	in, ep := abrFixture(t)
	ep.results[len(ep.results)-1].QoE += 100
	if _, err := checkABRRegret(in, ep, nil); err == nil {
		t.Fatal("a realized QoE above the window optimum passed the regret check")
	}
}

func TestABRBandwidthCheckCatchesOutOfRange(t *testing.T) {
	in, ep := abrFixture(t)
	ep.bandwidths[0] = in.cfg.BandwidthHi + 0.1
	if checkABRBandwidths(ep.bandwidths, in.cfg.BandwidthLo, in.cfg.BandwidthHi) == nil {
		t.Fatal("a bandwidth above the action range passed")
	}
}

// ccFixture plays one episode of an untrained adversary against BBR.
func ccFixture(t *testing.T) ([]core.CCStepRecord, core.CCAdversaryConfig) {
	t.Helper()
	cfg := core.DefaultCCAdversaryConfig()
	adv := core.NewCCAdversary(mathx.NewRNG(5), cfg)
	recs := adv.RunEpisode(newBBR, mathx.NewRNG(6), true)
	if err := checkCCRecords(recs, cfg); err != nil {
		t.Fatalf("real episode fails the check: %v", err)
	}
	return recs, cfg
}

func TestCCCheckCatchesThroughputAboveBandwidth(t *testing.T) {
	recs, cfg := ccFixture(t)
	recs[10].ThroughputMbps = recs[10].Action.BandwidthMbps + 1
	if checkCCRecords(recs, cfg) == nil {
		t.Fatal("a throughput 1 Mbps above the link bandwidth passed")
	}
}

func TestCCCheckCatchesUtilizationOutOfRange(t *testing.T) {
	recs, cfg := ccFixture(t)
	recs[20].Utilization = 1.01
	if checkCCRecords(recs, cfg) == nil {
		t.Fatal("a utilization above 1 passed")
	}
}

func TestCCCheckCatchesRewardOneULP(t *testing.T) {
	recs, cfg := ccFixture(t)
	recs[30].Reward = math.Nextafter(recs[30].Reward, math.Inf(-1))
	if checkCCRecords(recs, cfg) == nil {
		t.Fatal("a reward one ulp off the recomputed 1-U-L-c*S passed")
	}
}

func TestDistCheckCatchesParameterOneULP(t *testing.T) {
	spec, err := distSpec(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := inProcessPensieve(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &distRound{policy: copyParams(ref.Policy.Params()), value: copyParams(ref.Value.Params())}
	if err := checkDistRound(d, ref); err != nil {
		t.Fatalf("identical parameters fail the check: %v", err)
	}
	d.value[0][0] = math.Nextafter(d.value[0][0], math.Inf(1))
	if checkDistRound(d, ref) == nil {
		t.Fatal("a value-net parameter moved by one ulp passed")
	}
}

func TestServeCheckCatchesFlippedDecision(t *testing.T) {
	in := newServeInputs(1)
	flipped := 0
	for i, want := range in.want {
		if in.ambiguous[i] {
			continue
		}
		if err := checkDecision(want, want, false); err != nil {
			t.Fatal(err)
		}
		if checkDecision((want+1)%len(abr.DefaultBitratesKbps), want, false) == nil {
			t.Fatalf("input %d: a flipped decision passed", i)
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatal("every pooled input is ambiguous")
	}
}

func TestServeArgmaxAmbiguity(t *testing.T) {
	if got, amb := directArgmax([]float64{0.1, 0.7, 0.7 - 1e-12, 0.2}); got != 1 || !amb {
		t.Fatalf("near-tie: argmax %d ambiguous %v", got, amb)
	}
	if got, amb := directArgmax([]float64{0.1, 0.7, 0.5}); got != 1 || amb {
		t.Fatalf("clear winner: argmax %d ambiguous %v", got, amb)
	}
}

func TestTailP99IgnoresOneDisturbedSlice(t *testing.T) {
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = float64(i % 100) // every slice: p99 = 98.01
	}
	calm := tailP99(xs)
	for i := 0; i < 500; i++ {
		xs[i] = 1e6 // a stall covering half of the first slice
	}
	if got := tailP99(xs); got != calm {
		t.Fatalf("tailP99 moved from %v to %v on one disturbed slice", calm, got)
	}
	if q := quantile(xs, 0.99); q != 1e6 {
		t.Fatalf("plain p99 = %v; the fixture should disturb it", q)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, names, units []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, m := range bench.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("end_to_end", n, u, endToEnd)
	n, u = nil, nil
	for _, m := range bench.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("per_layer", n, u, perLayer)
}
