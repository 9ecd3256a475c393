package main

import (
	"fmt"
	"math"
	"time"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/nn"
	"advnet/internal/rl"
)

// The adv-abr-mpc workload trains the §3 video adversary against robust MPC
// with two rollout workers. A round is one whole training run of
// abrRoundIters iterations from fresh nets.
const (
	abrWorkers      = 2
	abrRolloutSteps = 768
	abrRoundIters   = 4
	abrLR           = 1e-3
)

// abrInputs are the immutable inputs of every round.
type abrInputs struct {
	video *abr.Video
	cfg   core.ABRAdversaryConfig
}

func newABRInputs(seed uint64) abrInputs {
	return abrInputs{
		video: abr.NewVideo(rngFor(seed, streamInputs), abr.DefaultVideoConfig()),
		cfg:   core.DefaultABRAdversaryConfig(),
	}
}

func (in abrInputs) options(iters int) core.ABRTrainOptions {
	return core.ABRTrainOptions{Iterations: iters, RolloutSteps: abrRolloutSteps, LR: abrLR, Workers: abrWorkers}
}

// abrTrainer is the trainer core.TrainABRAdversary builds, assembled here
// from public pieces.
type abrTrainer struct {
	adv *core.ABRAdversary
	ppo *rl.PPO
	vec *rl.VecRunner
}

// assembleABR builds the trainer of core.TrainABRAdversary from its public
// pieces, drawing from rng in the same order, so both train bitwise alike.
// wrapEnv, when non-nil, wraps every worker's environment.
func assembleABR(in abrInputs, target abr.Protocol, rng *mathx.RNG, wrapEnv func(rl.Env) rl.Env) (*abrTrainer, error) {
	adv := core.NewABRAdversary(rng, in.video.Levels(), in.cfg)
	obs := core.NewABREnv(in.video, target, in.cfg).ObservationSize()
	sizes := append(append([]int{obs}, in.cfg.Hidden...), 1)
	value := nn.NewMLP(rng, sizes, nn.Tanh)
	pcfg := rl.DefaultPPOConfig()
	pcfg.RolloutSteps = abrRolloutSteps
	pcfg.LR = abrLR
	ppo, err := rl.NewPPO(adv.Policy, value, pcfg, rng)
	if err != nil {
		return nil, err
	}
	factory, err := core.ABREnvFactory(in.video, target, in.cfg, abrWorkers)
	if err != nil {
		return nil, err
	}
	if wrapEnv != nil {
		inner := factory
		factory = func(w int) rl.Env { return wrapEnv(inner(w)) }
	}
	vec, err := rl.NewVecRunner(ppo, factory, abrWorkers)
	if err != nil {
		return nil, err
	}
	return &abrTrainer{adv: adv, ppo: ppo, vec: vec}, nil
}

// roundOutcome is what the traced rerun of a round must reproduce.
type roundOutcome struct {
	params      [][]float64
	finalReward float64
}

func finalReward(stats []rl.IterStats) float64 {
	if len(stats) == 0 {
		return math.NaN()
	}
	return stats[len(stats)-1].MeanEpReward
}

// setupABRMPC builds the inputs and the first round's trainer.
func setupABRMPC(seed uint64) error {
	_, err := assembleABR(newABRInputs(seed), abr.NewMPC(), mathx.NewRNG(roundSeed(seed, 0)), nil)
	return err
}

func runABRMPC(o options) (*report, error) {
	rep := newReport()
	in := newABRInputs(o.seed)

	// Warm-up: one untimed iteration brings the heap and the rollout
	// goroutines' stacks to their working size.
	if _, _, err := core.TrainABRAdversary(in.video, abr.NewMPC(), in.cfg, in.options(1), mathx.NewRNG(roundSeed(o.seed, -1))); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	var (
		iterS    []float64
		outcomes []roundOutcome
		measured float64
	)
	for r := 0; measured < budget; r++ {
		t0 := time.Now()
		adv, stats, err := core.TrainABRAdversary(in.video, abr.NewMPC(), in.cfg, in.options(abrRoundIters), mathx.NewRNG(roundSeed(o.seed, r)))
		wall := time.Since(t0).Seconds()
		measured += wall
		rep.attempted += abrRoundIters
		rep.failed += countFailed(stats, abrRoundIters, err)
		if err != nil {
			outcomes = append(outcomes, roundOutcome{})
			continue
		}
		iterS = append(iterS, wall/abrRoundIters)
		outcomes = append(outcomes, roundOutcome{params: copyParams(adv.Policy.Params()), finalReward: finalReward(stats)})
		ep := playABREpisode(in, adv)
		rep.check(checkABRBandwidths(ep.bandwidths, in.cfg.BandwidthLo, in.cfg.BandwidthHi))
		rep.check(checkABRReplay(ep, replayABR(in, ep.bandwidths)))
		_, err = checkABRRegret(in, ep, nil)
		rep.check(err)
	}
	if len(iterS) == 0 {
		return nil, fmt.Errorf("every training round failed")
	}
	if err := setPeakRSS(rep, 0); err != nil {
		return nil, err
	}
	// Set-up is timed after the peak RSS is read, so that its repetitions
	// do not raise it.
	setup, err := timeSetup(func() (func(), error) { return nil, setupABRMPC(o.seed) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	setTrainingE2E(rep, abrRolloutSteps, iterS)
	if o.trace {
		if err := traceABRMPC(rep, in, o.seed, outcomes, float64(abrRolloutSteps)/median(iterS)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceABRMPC reruns the measured rounds with timing wrappers around the
// target protocol and the environments, checks that each reaches the
// untraced round's final reward and parameters bitwise, and reports the
// per-layer figures.
func traceABRMPC(rep *report, in abrInputs, seed uint64, outcomes []roundOutcome, untracedSPS float64) error {
	var (
		envs         []*timedEnv
		protos       []*timedProtocol
		iterS        []float64
		iters        int
		optNs, optN  int64
		allocs, byts float64
	)
	met := rl.NewTrainMetrics(metrics.NewRegistry("train"))
	for r, want := range outcomes {
		t0 := time.Now()
		target := newTimedProtocol(abr.NewMPC())
		tr, err := assembleABR(in, target, mathx.NewRNG(roundSeed(seed, r)), func(e rl.Env) rl.Env {
			te := &timedEnv{Env: e}
			envs = append(envs, te)
			return te
		})
		if err != nil {
			return err
		}
		tr.ppo.SetMetrics(met)
		a0 := readAllocs()
		var stats []rl.IterStats
		for i := 0; i < abrRoundIters; i++ {
			st, err := tr.vec.TrainIteration()
			if err != nil {
				return fmt.Errorf("traced round %d: %w", r, err)
			}
			stats = append(stats, st)
		}
		m, b := a0.since()
		allocs += m
		byts += b
		iterS = append(iterS, time.Since(t0).Seconds()/abrRoundIters)
		iters += abrRoundIters
		protos = append(protos, *target.group...)
		if want.params == nil {
			continue // the untraced round failed; nothing to compare against
		}
		if err := paramsEqual(tr.adv.Policy.Params(), want.params); err != nil {
			rep.check(fmt.Errorf("round %d: traced assembly diverged from core.TrainABRAdversary: %v", r, err))
		}
		if got := finalReward(stats); math.Float64bits(got) != math.Float64bits(want.finalReward) {
			rep.check(fmt.Errorf("round %d: traced final reward %v, untraced %v", r, got, want.finalReward))
		}
		ep := playABREpisode(in, tr.adv)
		n, err := checkABRRegret(in, ep, &optNs)
		rep.check(err)
		optN += n
	}

	var envNs, steps, selNs, selCalls int64
	for _, e := range envs {
		envNs += e.ns
		steps += e.steps
	}
	for _, p := range protos {
		selNs += p.ns
		selCalls += p.calls
	}
	samples := float64(iters * abrRolloutSteps)
	rolloutS := met.Rollout.TotalSeconds()
	rep.set("trace.overhead_pct", overheadPct(untracedSPS, abrRolloutSteps/median(iterS)))
	rep.set("abr.select_us", float64(selNs)/float64(selCalls)/1e3)
	rep.set("abr.select_calls", float64(selCalls)/float64(iters))
	rep.set("abr.window_optimal_us", float64(optNs)/float64(optN)/1e3)
	rep.set("core.env_step_us", float64(envNs)/float64(steps)/1e3)
	rep.set("core.env_self_us", float64(envNs-selNs)/float64(steps)/1e3)
	rep.set("rl.rollout_ms", 1e3*rolloutS/float64(iters))
	rep.set("rl.update_ms", 1e3*met.Update.TotalSeconds()/float64(iters))
	rep.set("rl.policy_self_ms", 1e3*(rolloutS-float64(envNs)/1e9/abrWorkers)/float64(iters))
	rep.set("rl.allocs_per_sample", allocs/samples)
	rep.set("rl.alloc_bytes_per_sample", byts/samples)
	return nil
}

func copyParams(ps [][]float64) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p...)
	}
	return out
}

// timedEnv times every Reset and Step of the environment it wraps. Each
// instance belongs to one rollout worker, so its counters need no lock; they
// are read after the iteration's workers have joined.
type timedEnv struct {
	rl.Env
	ns, steps int64
}

func (e *timedEnv) Reset() []float64 {
	t0 := time.Now()
	obs := e.Env.Reset()
	e.ns += int64(time.Since(t0))
	return obs
}

func (e *timedEnv) Step(a []float64) ([]float64, float64, bool) {
	t0 := time.Now()
	obs, r, done := e.Env.Step(a)
	e.ns += int64(time.Since(t0))
	e.steps++
	return obs, r, done
}

// timedProtocol times every SelectLevel of the ABR protocol it wraps. It
// implements abr.CloneableProtocol, so core.ABREnvFactory hands each rollout
// worker its own timed clone; all clones of one wrapper share its group.
type timedProtocol struct {
	abr.Protocol
	group     *[]*timedProtocol
	ns, calls int64
}

func newTimedProtocol(p abr.Protocol) *timedProtocol {
	t := &timedProtocol{Protocol: p, group: new([]*timedProtocol)}
	*t.group = append(*t.group, t)
	return t
}

func (t *timedProtocol) SelectLevel(o *abr.Observation) int {
	t0 := time.Now()
	l := t.Protocol.SelectLevel(o)
	t.ns += int64(time.Since(t0))
	t.calls++
	return l
}

// CloneProtocol implements abr.CloneableProtocol. Clones are made while the
// trainer is assembled, on one goroutine.
func (t *timedProtocol) CloneProtocol() abr.Protocol {
	inner, err := abr.CloneProtocol(t.Protocol)
	if err != nil {
		panic(fmt.Sprintf("perfbench: timed protocol over an uncloneable target: %v", err))
	}
	c := &timedProtocol{Protocol: inner, group: t.group}
	*t.group = append(*t.group, c)
	return c
}
