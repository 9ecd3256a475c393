package main

import (
	"fmt"
	"math"
	"time"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/netem"
	"advnet/internal/trace"
)

// abrEpisode is one deterministic online episode of a trained ABR adversary
// against a fresh MPC, with the client state entering every chunk.
type abrEpisode struct {
	bandwidths []float64
	bufBefore  []float64
	prevBefore []int
	results    []abr.StepResult
}

// playABREpisode runs the adversary's mode policy online for one video.
func playABREpisode(in abrInputs, adv *core.ABRAdversary) abrEpisode {
	env := core.NewABREnv(in.video, abr.NewMPC(), in.cfg)
	obs := env.Reset()
	var ep abrEpisode
	for {
		ses := env.Session()
		ep.bufBefore = append(ep.bufBefore, ses.Buffer())
		ep.prevBefore = append(ep.prevBefore, ses.LastLevel())
		next, _, done := env.Step(adv.Policy.Mode(obs))
		obs = next
		if done {
			break
		}
	}
	ep.bandwidths = append([]float64(nil), env.BandwidthHistory()...)
	ep.results = append([]abr.StepResult(nil), env.Session().Results()...)
	return ep
}

// replayABR streams the video over the emitted per-chunk bandwidths with a
// fresh MPC (§2.1: the trace alone reproduces the episode).
func replayABR(in abrInputs, bws []float64) []abr.StepResult {
	tr := &trace.Trace{Name: "replay"}
	for _, bw := range bws {
		tr.Points = append(tr.Points, trace.Point{Duration: in.video.ChunkSeconds, BandwidthMbps: bw})
	}
	link := abr.NewChunkLink(tr, in.cfg.RTTSeconds)
	return abr.RunSession(in.video, link, abr.DefaultSessionConfig(), abr.NewMPC()).Results()
}

// checkABRReplay requires the replay to choose the episode's level for every
// chunk and to score every chunk's QoE bitwise alike.
func checkABRReplay(ep abrEpisode, replay []abr.StepResult) error {
	if len(replay) != len(ep.results) {
		return fmt.Errorf("abr replay: %d chunks, episode had %d", len(replay), len(ep.results))
	}
	for i, r := range replay {
		e := ep.results[i]
		if r.Level != e.Level {
			return fmt.Errorf("abr replay: chunk %d level %d, episode chose %d", i, r.Level, e.Level)
		}
		if math.Float64bits(r.QoE) != math.Float64bits(e.QoE) {
			return fmt.Errorf("abr replay: chunk %d QoE %v, episode scored %v", i, r.QoE, e.QoE)
		}
	}
	return nil
}

// checkABRBandwidths requires every emitted bandwidth to lie in the action
// range.
func checkABRBandwidths(bws []float64, lo, hi float64) error {
	for i, bw := range bws {
		if !(bw >= lo && bw <= hi) {
			return fmt.Errorf("abr adversary: chunk %d bandwidth %v Mbps outside [%v, %v]", i, bw, lo, hi)
		}
	}
	return nil
}

// regretSlack absorbs the summation-order difference between the oracle's
// recursive total and the session's running total when MPC's own path is
// the optimum.
const regretSlack = 1e-9

// checkABRRegret requires abr.WindowOptimal to score every trailing window
// of the episode at least as high as MPC's realized QoE over it: the oracle
// searches every level sequence, MPC's included. When optNs is non-nil the
// oracle calls are timed into it. It returns the number of oracle calls.
func checkABRRegret(in abrInputs, ep abrEpisode, optNs *int64) (int64, error) {
	ses := abr.DefaultSessionConfig()
	w := in.cfg.Window
	var calls int64
	for t := range ep.results {
		start := t - w + 1
		if start < 0 {
			start = 0
		}
		t0 := time.Now()
		opt := abr.WindowOptimal(in.video, ses.QoE, start, ep.bandwidths[start:t+1],
			in.cfg.RTTSeconds, ep.bufBefore[start], ses.BufferCapS, ep.prevBefore[start])
		if optNs != nil {
			*optNs += int64(time.Since(t0))
		}
		calls++
		var realized float64
		for _, r := range ep.results[start : t+1] {
			realized += r.QoE
		}
		if opt < realized-regretSlack*(1+math.Abs(realized)) {
			return calls, fmt.Errorf("abr regret: window [%d,%d] optimum %v below MPC's realized %v", start, t, opt, realized)
		}
	}
	return calls, nil
}

// checkCCRecords checks one online episode of the congestion-control
// adversary: the link cannot deliver more than its bandwidth over a step,
// beyond the one packet already in service when the step began;
// utilization is a share; and the reward recomputed here from the recorded
// action, utilization and a fresh pair of moving averages equals the
// recorded reward 1 − U − L − c·S bitwise.
func checkCCRecords(recs []core.CCStepRecord, cfg core.CCAdversaryConfig) error {
	carryMbps := netem.PacketBits / cfg.IntervalS / 1e6
	var ewBw, ewLat float64
	for i, r := range recs {
		a := r.Action
		if r.ThroughputMbps > a.BandwidthMbps+carryMbps {
			return fmt.Errorf("cc step %d: throughput %v Mbps above link bandwidth %v Mbps", i, r.ThroughputMbps, a.BandwidthMbps)
		}
		if !(r.Utilization >= 0 && r.Utilization <= 1) {
			return fmt.Errorf("cc step %d: utilization %v outside [0, 1]", i, r.Utilization)
		}
		s := 0.0
		if i > 0 {
			s += math.Abs(a.BandwidthMbps-ewBw) / (cfg.BandwidthHi - cfg.BandwidthLo)
			s += math.Abs(a.LatencyMs-ewLat) / (cfg.LatencyHiMs - cfg.LatencyLoMs)
			ewBw = cfg.EWMAAlpha*a.BandwidthMbps + (1-cfg.EWMAAlpha)*ewBw
			ewLat = cfg.EWMAAlpha*a.LatencyMs + (1-cfg.EWMAAlpha)*ewLat
		} else {
			ewBw, ewLat = a.BandwidthMbps, a.LatencyMs
		}
		want := 1 - r.Utilization - a.LossRate - cfg.SmoothCoef*s
		if math.Float64bits(want) != math.Float64bits(r.Reward) {
			return fmt.Errorf("cc step %d: recorded reward %v, recomputed 1-U-L-c*S = %v", i, r.Reward, want)
		}
	}
	return nil
}
