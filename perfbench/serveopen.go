package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/serve"
)

// The serve-open workload drives serve.Engine.Select from an open-loop
// generator: Poisson arrivals at three fixed absolute rates, each request
// timed from the moment it was due, so a stall shows as latency for every
// request behind it. No deadline is set, so nothing is shed. The engine runs
// its default configuration.
const (
	servePool = 4096 // distinct feature vectors the requests cycle through
	// serveAmbiguity is the gap between the top two outputs below which
	// either index is a correct argmax (the engine's GEMM kernels round
	// differently from the row-at-a-time forward pass).
	serveAmbiguity = 1e-9
)

// serveRates are the three fixed request rates (requests per second). With
// two callers the engine completes about 1800 requests per second on the
// reference host, so these load it to roughly a fifth, two fifths and two
// thirds.
var serveRates = map[string]float64{"low": 400, "mid": 800, "high": 1200}

// serveCallers is how many requests may be in flight at once: one per
// processor, as a load generator with one connection per core would.
func serveCallers() int { return runtime.GOMAXPROCS(0) }

// serveInputs is the request pool and the decisions a direct forward pass
// makes on it.
type serveInputs struct {
	net       *nn.MLP
	features  [][]float64
	want      []int
	ambiguous []bool
}

func newServeInputs(seed uint64) serveInputs {
	rng := rngFor(seed, streamInputs)
	in := serveInputs{net: newServePolicy(rng)}
	for i := 0; i < servePool; i++ {
		x := make([]float64, in.net.InputSize())
		for j := range x {
			x[j] = rng.Float64()
		}
		want, amb := directArgmax(in.net.Predict(x))
		in.features = append(in.features, x)
		in.want = append(in.want, want)
		in.ambiguous = append(in.ambiguous, amb)
	}
	return in
}

// newServePolicy is the served policy: a Pensieve-shaped net drawn from rng.
func newServePolicy(rng *mathx.RNG) *nn.MLP {
	return abr.NewPensieveNet(rng, len(abr.DefaultBitratesKbps))
}

// directArgmax returns the index of the largest output and whether the
// runner-up lies within serveAmbiguity of it.
func directArgmax(out []float64) (int, bool) {
	best := 0
	for i, v := range out {
		if v > out[best] {
			best = i
		}
	}
	second := math.Inf(-1)
	for i, v := range out {
		if i != best && v > second {
			second = v
		}
	}
	return best, out[best]-second < serveAmbiguity
}

// checkDecision requires the engine's decision to equal the direct argmax
// unless the top two outputs are within serveAmbiguity.
func checkDecision(level, want int, ambiguous bool) error {
	if level != want && !ambiguous {
		return fmt.Errorf("serve: decision %d, direct forward pass argmax %d", level, want)
	}
	return nil
}

// phaseResult is one open-loop phase at one rate.
type phaseResult struct {
	sent, failed int64
	latUs        []float64 // due-time latency per request
	lateUs       []float64 // how late the generator issued each request
	engine       serve.EngineStats
	allocsPerReq float64
	checkErr     error
}

// serveSweep holds the engines' configuration for one sweep.
type serveSweep struct {
	in            serveInputs
	latencySample int // 0: the engine's default sampling
	sched         *mathx.RNG
}

func (s *serveSweep) newEngine() (*serve.Engine, error) {
	return serve.NewEngine(serve.NewRegistry(s.in.net), serve.Config{LatencySample: s.latencySample})
}

// phase offers Poisson arrivals at rate for seconds on a fresh engine.
func (s *serveSweep) phase(rate, seconds float64) (*phaseResult, error) {
	eng, err := s.newEngine()
	if err != nil {
		return nil, err
	}
	n := int(rate * seconds)
	if n < 1 {
		n = 1
	}
	due := make([]time.Duration, n)
	var at float64
	for i := range due {
		at += -math.Log(1-s.sched.Float64()) / rate
		due[i] = time.Duration(at * 1e9)
	}
	res := &phaseResult{latUs: make([]float64, n), lateUs: make([]float64, n)}
	var failed atomic.Int64
	var errOnce sync.Once
	jobs := make(chan int, serveCallers()) // one slot per caller
	var wg sync.WaitGroup
	var start time.Time
	for w := 0; w < serveCallers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				k := i % servePool
				d, err := eng.Select(s.in.features[k])
				res.latUs[i] = float64(time.Since(start.Add(due[i]))) / 1e3
				if err != nil {
					failed.Add(1)
					res.latUs[i] = math.Inf(1) // a failed request misses every limit
					continue
				}
				if err := checkDecision(d.Level, s.in.want[k], s.in.ambiguous[k]); err != nil {
					errOnce.Do(func() { res.checkErr = err })
				}
			}
		}()
	}
	a0 := readAllocs()
	start = time.Now()
	for i := range due {
		waitUntil(start.Add(due[i]))
		res.lateUs[i] = float64(time.Since(start.Add(due[i]))) / 1e3
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	m, _ := a0.since()
	eng.Close()
	res.sent = int64(n)
	res.failed = failed.Load()
	res.engine = eng.Stats()
	res.allocsPerReq = m / float64(n)
	return res, nil
}

// waitUntil returns at t. It polls the clock and yields the processor in
// between: a runtime timer would oversleep by up to a millisecond whenever
// the runtime has gone idle, making the generator, not the engine, late.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// offlineResult is the closed-loop phase.
type offlineResult struct {
	rps          float64 // answered decisions per second
	sent, failed int64
	checkErr     error
}

// offline measures decisions per second with serveCallers callers that each
// issue their next request as soon as the previous one is answered, and
// checks every answer against the direct forward pass.
func (s *serveSweep) offline(seconds float64) (*offlineResult, error) {
	eng, err := s.newEngine()
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res := &offlineResult{}
	var done, failed atomic.Int64
	var stop atomic.Bool
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	callers := serveCallers()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i += callers {
				k := i % servePool
				d, err := eng.Select(s.in.features[k])
				done.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				if err := checkDecision(d.Level, s.in.want[k], s.in.ambiguous[k]); err != nil {
					errOnce.Do(func() { res.checkErr = err })
				}
			}
		}(w)
	}
	time.Sleep(time.Duration(seconds * 1e9))
	stop.Store(true)
	wg.Wait()
	res.sent, res.failed = done.Load(), failed.Load()
	res.rps = float64(res.sent-res.failed) / time.Since(start).Seconds()
	return res, nil
}

// sweepResult is one full sweep: the three fixed rates and the offline
// batch throughput.
type sweepResult struct {
	phases     map[string]*phaseResult
	offlineRPS float64
}

// run performs one sweep within about seconds of measuring time, 30% to each
// rate and 10% to the offline batch, adding its requests and failures to
// rep.
func (s *serveSweep) run(rep *report, seconds float64) (*sweepResult, error) {
	out := &sweepResult{phases: map[string]*phaseResult{}}
	for _, l := range rateLevels {
		p, err := s.phase(serveRates[l], 0.3*seconds)
		if err != nil {
			return nil, err
		}
		rep.attempted += p.sent
		rep.failed += p.failed
		rep.check(p.checkErr)
		out.phases[l] = p
	}
	off, err := s.offline(0.1 * seconds)
	if err != nil {
		return nil, err
	}
	rep.attempted += off.sent
	rep.failed += off.failed
	rep.check(off.checkErr)
	out.offlineRPS = off.rps
	return out, nil
}

// setupServeOpen builds the policy and starts the engine, as a server does
// before its first request; the returned function stops the engine. The
// request pool is the load generator's, not the server's, and is left out.
func setupServeOpen(seed uint64) (func(), error) {
	eng, err := serve.NewEngine(serve.NewRegistry(newServePolicy(rngFor(seed, streamInputs))), serve.Config{})
	if err != nil {
		return nil, err
	}
	return eng.Close, nil
}

func runServeOpen(o options) (*report, error) {
	rep := newReport()
	in := newServeInputs(o.seed)

	sweep := &serveSweep{in: in, sched: rngFor(o.seed, streamServe)}
	// Warm-up: brings the request pool, the engine's caches and the
	// senders' stacks to their working size. Not counted.
	if _, err := sweep.phase(serveRates["mid"], 0.3); err != nil {
		return nil, err
	}
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	res, err := sweep.run(rep, budget)
	if err != nil {
		return nil, err
	}
	if err := setPeakRSS(rep, 0); err != nil {
		return nil, err
	}
	// Set-up is timed after the peak RSS is read, so that its repetitions
	// do not raise it.
	setup, err := timeSetup(func() (func(), error) { return setupServeOpen(o.seed) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	rep.set("samples_per_s", res.offlineRPS)
	for _, l := range rateLevels {
		p := res.phases[l]
		rep.set("lat_p50_us."+l, median(p.latUs))
	}
	if !o.trace {
		return rep, nil
	}

	// Traced sweep: every request carries an engine timestamp.
	traced := &serveSweep{in: in, latencySample: 1, sched: rngFor(o.seed, streamServe)}
	tres, err := traced.run(rep, budget)
	if err != nil {
		return nil, err
	}
	// Tracing overhead here is the rise of the mid-rate median latency.
	u, t := median(res.phases["mid"].latUs), median(tres.phases["mid"].latUs)
	rep.set("trace.overhead_pct", 100*(t-u)/u)
	for _, l := range rateLevels {
		p := tres.phases[l]
		rep.set("serve.due_p99_us."+l, tailP99(p.latUs))
		rep.set("serve.engine_p50_us."+l, p.engine.Latency.P50)
		rep.set("serve.engine_p99_us."+l, p.engine.Latency.P99)
		rep.set("serve.batch_mean."+l, float64(p.engine.Served)/float64(p.engine.Batches))
		rep.set("serve.allocs_per_req."+l, p.allocsPerReq)
		rep.set("loadgen.late_p99_us."+l, quantile(p.lateUs, 0.99))
	}
	return rep, nil
}
