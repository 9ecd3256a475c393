package main

import (
	"fmt"
	"math"
	"time"

	"advnet/internal/cc"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/netem"
	"advnet/internal/nn"
	"advnet/internal/rl"
)

// The adv-cc-bbr workload trains the §4 congestion-control adversary against
// BBR on the single-worker PPO path. A round is one whole training run of
// ccRoundIters iterations from fresh nets. An iteration's cost depends on the
// link the freshly initialised adversary picks (6 to 24 Mbps, so up to four
// times the packets), so rounds are kept short: a run draws hundreds of them
// and its median and tail do not hang on a few draws.
const (
	ccRolloutSteps = 500
	ccRoundIters   = 2
)

func ccOptions(iters int) core.CCTrainOptions {
	opt := core.DefaultCCTrainOptions()
	opt.Iterations = iters
	opt.RolloutSteps = ccRolloutSteps
	return opt
}

func newBBR() netem.CongestionController { return cc.NewBBR() }

// ccTrainer is the trainer core.TrainCCAdversary builds, assembled here from
// public pieces.
type ccTrainer struct {
	adv *core.CCAdversary
	ppo *rl.PPO
	env rl.Env
}

// assembleCC builds the single-worker trainer of core.TrainCCAdversary from
// its public pieces, drawing from rng in the same order, so both train
// bitwise alike. wrapEnv, when non-nil, wraps the environment.
func assembleCC(cfg core.CCAdversaryConfig, newCC func() netem.CongestionController, rng *mathx.RNG, wrapEnv func(rl.Env) rl.Env) (*ccTrainer, error) {
	opt := ccOptions(0)
	adv := core.NewCCAdversary(rng, cfg)
	value := nn.NewMLP(rng, []int{2, 16, 1}, nn.Tanh)
	pcfg := rl.DefaultPPOConfig()
	pcfg.RolloutSteps = opt.RolloutSteps
	pcfg.LR = opt.LR
	pcfg.Gamma = opt.Gamma
	pcfg.Lambda = opt.Lambda
	ppo, err := rl.NewPPO(adv.Policy, value, pcfg, rng)
	if err != nil {
		return nil, err
	}
	var env rl.Env = core.NewCCEnv(newCC, cfg, rng.Split())
	if wrapEnv != nil {
		env = wrapEnv(env)
	}
	return &ccTrainer{adv: adv, ppo: ppo, env: env}, nil
}

// setupCCBBR builds the first round's trainer.
func setupCCBBR(seed uint64) error {
	_, err := assembleCC(core.DefaultCCAdversaryConfig(), newBBR, mathx.NewRNG(roundSeed(seed, 0)), nil)
	return err
}

func runCCBBR(o options) (*report, error) {
	rep := newReport()
	cfg := core.DefaultCCAdversaryConfig()

	if _, _, err := core.TrainCCAdversary(newBBR, cfg, ccOptions(1), mathx.NewRNG(roundSeed(o.seed, -1))); err != nil {
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
		adv, stats, err := core.TrainCCAdversary(newBBR, cfg, ccOptions(ccRoundIters), mathx.NewRNG(roundSeed(o.seed, r)))
		wall := time.Since(t0).Seconds()
		measured += wall
		rep.attempted += ccRoundIters
		rep.failed += countFailed(stats, ccRoundIters, err)
		if err != nil {
			outcomes = append(outcomes, roundOutcome{})
			continue
		}
		iterS = append(iterS, wall/ccRoundIters)
		outcomes = append(outcomes, roundOutcome{params: copyParams(adv.Policy.Params()), finalReward: finalReward(stats)})
		if r%ccCheckEvery == 0 {
			recs := adv.RunEpisode(newBBR, rngFor(roundSeed(o.seed, r), streamCheck), false)
			rep.check(checkCCRecords(recs, cfg))
		}
	}
	if len(iterS) == 0 {
		return nil, fmt.Errorf("every training round failed")
	}
	if err := setPeakRSS(rep, 0); err != nil {
		return nil, err
	}
	// Set-up is timed after the peak RSS is read, so that its repetitions
	// do not raise it.
	setup, err := timeSetup(func() (func(), error) { return nil, setupCCBBR(o.seed) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	setTrainingE2E(rep, ccRolloutSteps, iterS)
	if o.trace {
		if err := traceCCBBR(rep, cfg, o.seed, outcomes, float64(ccRolloutSteps)/median(iterS)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceCCBBR reruns the measured rounds with timing wrappers around BBR's
// callbacks and the environment, checks that each reaches the untraced
// round's final reward and parameters bitwise, and reports the per-layer
// figures.
func traceCCBBR(rep *report, cfg core.CCAdversaryConfig, seed uint64, outcomes []roundOutcome, untracedSPS float64) error {
	var (
		ccs          timedCCTotals
		envNs, steps int64
		iterS        []float64
		iters        int
		allocs, byts float64
	)
	newTimedBBR := func() netem.CongestionController { return &timedCC{inner: cc.NewBBR(), tot: &ccs} }
	met := rl.NewTrainMetrics(metrics.NewRegistry("train"))
	for r, want := range outcomes {
		t0 := time.Now()
		var env *timedEnv
		tr, err := assembleCC(cfg, newTimedBBR, mathx.NewRNG(roundSeed(seed, r)), func(e rl.Env) rl.Env {
			env = &timedEnv{Env: e}
			return env
		})
		if err != nil {
			return err
		}
		tr.ppo.SetMetrics(met)
		a0 := readAllocs()
		var stats []rl.IterStats
		for i := 0; i < ccRoundIters; i++ {
			stats = append(stats, tr.ppo.TrainIteration(tr.env))
		}
		m, b := a0.since()
		allocs += m
		byts += b
		iterS = append(iterS, time.Since(t0).Seconds()/ccRoundIters)
		iters += ccRoundIters
		envNs += env.ns
		steps += env.steps
		if want.params == nil {
			continue
		}
		if err := paramsEqual(tr.adv.Policy.Params(), want.params); err != nil {
			rep.check(fmt.Errorf("round %d: traced assembly diverged from core.TrainCCAdversary: %v", r, err))
		}
		if got := finalReward(stats); math.Float64bits(got) != math.Float64bits(want.finalReward) {
			rep.check(fmt.Errorf("round %d: traced final reward %v, untraced %v", r, got, want.finalReward))
		}
	}

	samples := float64(iters * ccRolloutSteps)
	rolloutS := met.Rollout.TotalSeconds()
	st := float64(steps)
	rep.set("trace.overhead_pct", overheadPct(untracedSPS, ccRolloutSteps/median(iterS)))
	rep.set("cc.callback_us", float64(ccs.ns)/float64(ccs.calls)/1e3)
	rep.set("netem.packets_per_step", float64(ccs.sent)/st)
	rep.set("cc.acks_per_step", float64(ccs.acks)/st)
	rep.set("cc.losses_per_step", float64(ccs.losses)/st)
	rep.set("cc.timeouts", float64(ccs.timeouts)/float64(len(outcomes)))
	rep.set("core.env_step_us", float64(envNs)/st/1e3)
	rep.set("core.env_self_us", float64(envNs-ccs.ns)/st/1e3)
	rep.set("rl.rollout_ms", 1e3*rolloutS/float64(iters))
	rep.set("rl.update_ms", 1e3*met.Update.TotalSeconds()/float64(iters))
	rep.set("rl.policy_self_ms", 1e3*(rolloutS-float64(envNs)/1e9)/float64(iters))
	rep.set("rl.allocs_per_sample", allocs/samples)
	rep.set("rl.alloc_bytes_per_sample", byts/samples)
	return nil
}

// timedCCTotals accumulates the callbacks of every timed controller of a
// run. The workload trains on one goroutine, so no lock is needed.
type timedCCTotals struct {
	ns, calls                    int64
	sent, acks, losses, timeouts int64
}

// timedCC times every callback of the congestion controller it wraps and
// counts the packet events behind them. It forwards State so the
// environment still records the target's internal state.
type timedCC struct {
	inner netem.CongestionController
	tot   *timedCCTotals
}

func (t *timedCC) done(t0 time.Time) {
	t.tot.ns += int64(time.Since(t0))
	t.tot.calls++
}

func (t *timedCC) PacingRate(now float64) float64 {
	defer t.done(time.Now())
	return t.inner.PacingRate(now)
}

func (t *timedCC) CWND(now float64) float64 {
	defer t.done(time.Now())
	return t.inner.CWND(now)
}

func (t *timedCC) OnPacketSent(now float64, seq int64) {
	defer t.done(time.Now())
	t.tot.sent++
	t.inner.OnPacketSent(now, seq)
}

func (t *timedCC) OnAck(a netem.Ack) {
	defer t.done(time.Now())
	t.tot.acks++
	t.inner.OnAck(a)
}

func (t *timedCC) OnLoss(now float64, seq int64) {
	defer t.done(time.Now())
	t.tot.losses++
	t.inner.OnLoss(now, seq)
}

func (t *timedCC) OnTimeout(now float64) {
	defer t.done(time.Now())
	t.tot.timeouts++
	t.inner.OnTimeout(now)
}

// State forwards the target's state label, when it has one.
func (t *timedCC) State() string {
	if s, ok := t.inner.(interface{ State() string }); ok {
		return s.State()
	}
	return ""
}
