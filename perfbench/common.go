package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/stats"
)

// Input streams derived from --seed. Each purpose draws from its own stream
// so that adding a draw to one never shifts another.
const (
	streamInputs uint64 = 1
	streamCheck  uint64 = 3
	streamServe  uint64 = 4
)

// rngFor returns the stream of the given purpose for a seed.
func rngFor(seed, stream uint64) *mathx.RNG {
	return mathx.NewRNG(seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 1)
}

// roundSeed is the seed of training round r: the same --seed gives the same
// sequence of rounds.
func roundSeed(seed uint64, r int) uint64 {
	return seed*1_000_003 + uint64(r)*7919 + 17
}

// quantile returns the q-quantile of xs (stats.Percentile's interpolation
// between order statistics), or NaN when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, 100*q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSlices is how many consecutive slices tailP99 cuts a run's samples into.
const tailSlices = 10

// tailP99 is the due-time tail latency of serve-open: the median, over ten
// consecutive slices of the samples in time order, of each slice's 99th
// percentile. On a shared virtual machine the vCPUs are now and then
// descheduled for milliseconds; when that happens for more than 1% of a
// run's wall time, the plain 99th percentile measures the host rather than
// the program. The median over slices keeps the tail of the typical slice.
// With fewer samples than slices it is the median.
func tailP99(xs []float64) float64 {
	k := len(xs) / tailSlices
	if k < 1 {
		return median(xs)
	}
	p99s := make([]float64, 0, tailSlices)
	for i := 0; i+k <= len(xs) && len(p99s) < tailSlices; i += k {
		p99s = append(p99s, quantile(xs[i:i+k], 0.99))
	}
	return median(p99s)
}

// peakRSSMB is this process's peak resident set size in MB: VmHWM of
// /proc/self/status. getrusage's ru_maxrss is not used because Linux carries
// it over an exec, so it would also hold the peak of whatever process
// started the benchmark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

// The output checks that cost about as much as a round or more run on
// every checkEvery-th round, the first included: dist-pensieve's full
// in-process reference run costs about as much as a round, and
// adv-cc-bbr's full deterministic episode about four rounds.
const (
	distCheckEvery = 4
	ccCheckEvery   = 16
)

// Set-up is repeated within a run: at least setupMinReps times, and more,
// up to setupMaxReps, until setupMinSeconds of wall time have passed. The
// median is reported.
const (
	setupMinReps    = 15
	setupMaxReps    = 1_000_000
	setupMinSeconds = 0.5
)

// timeSetup times the set-up of a workload as a user pays it on every run:
// building the workload's inputs and its trainer or engine. setup returns
// a function that releases what it started, or nil; it runs outside the
// timed interval. timeSetup returns the median in seconds.
func timeSetup(setup func() (release func(), err error)) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < setupMinReps || (len(times) < setupMaxReps && time.Since(start).Seconds() < setupMinSeconds) {
		t0 := time.Now()
		release, err := setup()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if release != nil {
			release()
		}
	}
	return median(times), nil
}

// allocSnapshot is a reading of the process-wide allocation counters.
type allocSnapshot struct{ mallocs, bytes uint64 }

func readAllocs() allocSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSnapshot{ms.Mallocs, ms.TotalAlloc}
}

// since returns the allocations and bytes made after s.
func (s allocSnapshot) since() (mallocs, bytes float64) {
	now := readAllocs()
	return float64(now.mallocs - s.mallocs), float64(now.bytes - s.bytes)
}

// setTrainingE2E fills the end-to-end metrics of a training workload from
// its steady-state iteration wall times (seconds). Every workload must print
// every end-to-end metric, and training has one load level, so the three
// lat_p50_us suffixes carry the median iteration latency: on a training
// workload they restate samples_per_s and add no figure of their own.
func setTrainingE2E(rep *report, stepsPerIter int, iterS []float64) {
	p50 := median(iterS)
	rep.set("samples_per_s", float64(stepsPerIter)/p50)
	for _, l := range rateLevels {
		rep.set("lat_p50_us."+l, p50*1e6)
	}
}

// setPeakRSS reports this process's peak RSS, or the larger of it and
// others (MB), as peak_rss_mb.
func setPeakRSS(rep *report, others float64) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", math.Max(mb, others))
	return nil
}

// nonFinite reports the first non-finite training statistic, or "".
func nonFinite(st rl.IterStats) string {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MeanEpReward", st.MeanEpReward}, {"MeanStepRew", st.MeanStepRew},
		{"PolicyLoss", st.PolicyLoss}, {"ValueLoss", st.ValueLoss},
		{"Entropy", st.Entropy}, {"ApproxKL", st.ApproxKL},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Sprintf("iteration %d: %s = %v", st.Iteration, f.name, f.v)
		}
	}
	return ""
}

// countFailed counts a round's failed iterations: every iteration of a round
// that returned an error (the trainer's statistics are then lost), and every
// iteration whose statistics are not finite.
func countFailed(stats []rl.IterStats, iters int, err error) int64 {
	if err != nil {
		return int64(iters)
	}
	var n int64
	for _, st := range stats {
		if nonFinite(st) != "" {
			n++
		}
	}
	return n + int64(iters-len(stats))
}

// paramsEqual reports whether two parameter sets are bitwise identical.
func paramsEqual(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d parameter tensors vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("tensor %d: %d values vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("tensor %d value %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// overheadPct is the share of untraced throughput lost to tracing.
func overheadPct(untraced, traced float64) float64 {
	return 100 * (untraced - traced) / untraced
}
