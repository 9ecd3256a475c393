package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"advnet/internal/dist"
	"advnet/internal/metrics"
	"advnet/internal/rl"
)

// The dist-pensieve workload trains Pensieve through the multi-process
// coordinator: distLanes lanes collected by distWorkers worker processes
// over loopback TCP, each worker on one OS thread. A round is one
// coordinator run of distRoundIters iterations with freshly spawned
// workers. The workers' dial and handshake count as set-up; the first
// iteration, in which the workers build their lanes and receive the first
// broadcast, is warm-up and is not timed.
const (
	distLanes      = 2
	distWorkers    = 2
	distTraces     = 16
	distRoundIters = 6
	distSteps      = 1024 // rollout steps per iteration: the domain default
)

func distSpec(seed uint64, r int) (json.RawMessage, error) {
	return json.Marshal(dist.PensieveSpec{Seed: roundSeed(seed, r), DatasetSeed: seed + 1_000_003, Traces: distTraces})
}

// distRound is one coordinator run.
type distRound struct {
	setupS        float64
	iterS         []float64 // steady-state iteration intervals
	policy, value [][]float64
	stats         []rl.IterStats
	reassignments int64
	wireBytes     int64
	workerRSSMB   float64
}

// runDistRound starts the coordinator, spawns the workers, waits until both
// workers' handshakes are on the wire (handshakeBase is from
// calibrateHandshake), trains, and stops the workers. The set-up time runs
// from the start until both handshakes are done. met, when non-nil, is
// attached to the coordinator's trainer.
func runDistRound(spec json.RawMessage, handshakeBase int64, met *rl.TrainMetrics) (*distRound, error) {
	var out distRound
	var stamps []time.Time
	t0 := time.Now()
	coord, err := dist.NewCoordinator(dist.Config{
		Domain: "pensieve", Spec: spec, Lanes: distLanes, Iterations: distRoundIters,
		OnIteration: func(int, rl.IterStats) { stamps = append(stamps, time.Now()) },
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	coord.Trainer().SetMetrics(met)
	ws, err := startDistWorkers(coord.Addr(), distWorkers)
	if err != nil {
		return nil, err
	}
	defer ws.kill()
	if err := awaitWire(coord, distWorkers*(handshakeBase+int64(len(spec)))-handshakeSlack); err != nil {
		return nil, err
	}
	out.setupS = time.Since(t0).Seconds()

	stats, err := coord.Run()
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	rss, err := ws.wait()
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(stamps); i++ {
		out.iterS = append(out.iterS, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	out.stats = stats
	out.policy = copyParams(coord.Trainer().Policy.Params())
	out.value = copyParams(coord.Trainer().Value.Params())
	out.reassignments = coord.Reassignments()
	out.wireBytes = coord.WireBytes()
	out.workerRSSMB = rss
	return &out, nil
}

// Before Run the only bytes a coordinator puts on the wire are handshakes:
// a worker's hello and the coordinator's spec reply, which carries the spec
// verbatim. Apart from the spec, their sizes differ between workers only by
// the digits of the worker's pid in the hello, by at most handshakeSlack
// bytes in all; a missing spec reply is far more.
const handshakeSlack = 16

// calibrateHandshake returns the bytes one worker's handshake puts on the
// wire besides the spec itself, measured once the wire count of a
// coordinator with one worker has stopped growing for 100 ms.
func calibrateHandshake(spec json.RawMessage) (int64, error) {
	coord, err := dist.NewCoordinator(dist.Config{Domain: "pensieve", Spec: spec, Lanes: distLanes, Iterations: distRoundIters})
	if err != nil {
		return 0, err
	}
	defer coord.Close()
	ws, err := startDistWorkers(coord.Addr(), 1)
	if err != nil {
		return 0, err
	}
	defer ws.kill()
	if err := awaitWire(coord, 1); err != nil {
		return 0, err
	}
	for n := coord.WireBytes(); ; {
		time.Sleep(100 * time.Millisecond)
		m := coord.WireBytes()
		if m == n {
			return n - int64(len(spec)), nil
		}
		n = m
	}
}

// awaitWire returns once the coordinator has counted at least n bytes on
// the wire. It polls with a runtime sleep, which leaves both processors to
// the coordinator's handshake goroutines and the worker processes.
func awaitWire(coord *dist.Coordinator, n int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for coord.WireBytes() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("workers' handshakes: %d of %d bytes after 10 s", coord.WireBytes(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// inProcessPensieve trains the same spec through rl.VecRunner with one
// rollout worker per lane: the reference every distributed run must match
// bitwise.
func inProcessPensieve(spec json.RawMessage, met *rl.TrainMetrics) (*rl.PPO, error) {
	dom, err := dist.LookupDomain("pensieve")
	if err != nil {
		return nil, err
	}
	ppo, factory, err := dom.NewTrainer(spec, distLanes)
	if err != nil {
		return nil, err
	}
	ppo.SetMetrics(met)
	v, err := rl.NewVecRunner(ppo, factory, distLanes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < distRoundIters; i++ {
		if _, err := v.TrainIteration(); err != nil {
			return nil, err
		}
	}
	return ppo, nil
}

// checkDistRound compares a distributed round with its in-process reference.
func checkDistRound(d *distRound, ref *rl.PPO) error {
	if err := paramsEqual(d.policy, ref.Policy.Params()); err != nil {
		return fmt.Errorf("dist policy differs from the in-process VecRunner: %v", err)
	}
	if err := paramsEqual(d.value, ref.Value.Params()); err != nil {
		return fmt.Errorf("dist value net differs from the in-process VecRunner: %v", err)
	}
	return nil
}

func runDistPensieve(o options) (*report, error) {
	rep := newReport()
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	var (
		setups, iterS []float64
		workerRSS     float64
		measured      float64
	)
	// Warm-up round: the first process spawns pay for cold page caches.
	spec, err := distSpec(o.seed, -1)
	if err != nil {
		return nil, err
	}
	handshake, err := calibrateHandshake(spec)
	if err != nil {
		return nil, fmt.Errorf("handshake calibration: %w", err)
	}
	if _, err := runDistRound(spec, handshake, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rounds := 0
	for ; measured < budget; rounds++ {
		spec, err := distSpec(o.seed, rounds)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := runDistRound(spec, handshake, nil)
		measured += time.Since(t0).Seconds()
		rep.attempted += distLanes * distRoundIters
		if err != nil {
			return nil, err
		}
		rep.failed += d.reassignments + countFailed(d.stats, distRoundIters, nil)
		setups = append(setups, d.setupS)
		iterS = append(iterS, d.iterS...)
		workerRSS = math.Max(workerRSS, d.workerRSSMB)
		if rounds%distCheckEvery == 0 {
			ref, err := inProcessPensieve(spec, nil)
			if err != nil {
				return nil, fmt.Errorf("in-process reference: %w", err)
			}
			rep.check(checkDistRound(d, ref))
		}
	}
	rep.set("setup_s", median(setups))
	if err := setPeakRSS(rep, workerRSS); err != nil {
		return nil, err
	}
	setTrainingE2E(rep, distSteps, iterS)
	if o.trace {
		return rep, traceDistPensieve(rep, o.seed, rounds, handshake, float64(distSteps)/median(iterS))
	}
	return rep, nil
}

// traceDistPensieve reruns the measured rounds with the trainer's own
// telemetry attached, on the coordinator and on the in-process reference,
// and reports the per-layer figures.
func traceDistPensieve(rep *report, seed uint64, rounds int, handshake int64, untracedSPS float64) error {
	var (
		iterS                []float64
		wire, reassign       int64
		workerRSS            float64
		allocs, byts         float64
		coordMet             = rl.NewTrainMetrics(metrics.NewRegistry("dist"))
		refMet               = rl.NewTrainMetrics(metrics.NewRegistry("train"))
		steadyIters, refIter int
	)
	for r := 0; r < rounds; r++ {
		spec, err := distSpec(seed, r)
		if err != nil {
			return err
		}
		d, err := runDistRound(spec, handshake, coordMet)
		if err != nil {
			return err
		}
		iterS = append(iterS, d.iterS...)
		steadyIters += len(d.iterS)
		wire += d.wireBytes
		reassign += d.reassignments
		workerRSS = math.Max(workerRSS, d.workerRSSMB)
		a0 := readAllocs()
		ref, err := inProcessPensieve(spec, refMet)
		if err != nil {
			return err
		}
		m, b := a0.since()
		allocs += m
		byts += b
		refIter += distRoundIters
		rep.check(checkDistRound(d, ref))
	}
	iters := float64(rounds * distRoundIters)
	var iterSum float64
	for _, s := range iterS {
		iterSum += s
	}
	iterMs := 1e3 * iterSum / float64(steadyIters)
	updateMs := 1e3 * coordMet.Update.TotalSeconds() / iters
	samples := float64(refIter * distSteps)
	rep.set("trace.overhead_pct", overheadPct(untracedSPS, float64(distSteps)/median(iterS)))
	rep.set("dist.iteration_ms", iterMs)
	rep.set("dist.update_ms", updateMs)
	rep.set("dist.collect_wait_ms", iterMs-updateMs)
	rep.set("dist.wire_bytes_per_iter", float64(wire)/iters)
	rep.set("dist.reassignments", float64(reassign))
	rep.set("dist.inproc_rollout_ms", 1e3*refMet.Rollout.TotalSeconds()/float64(refIter))
	rep.set("dist.worker_peak_rss_mb", workerRSS)
	rep.set("rl.rollout_ms", 1e3*refMet.Rollout.TotalSeconds()/float64(refIter))
	rep.set("rl.update_ms", 1e3*refMet.Update.TotalSeconds()/float64(refIter))
	rep.set("rl.allocs_per_sample", allocs/samples)
	rep.set("rl.alloc_bytes_per_sample", byts/samples)
	return nil
}

// workerSet is the rollout worker processes of one round.
type workerSet struct {
	cmds []*exec.Cmd
	outs []*bufio.Reader
}

// startDistWorkers spawns n worker processes, each limited to one OS thread,
// and returns once every one has started and is about to dial addr.
func startDistWorkers(addr string, n int) (*workerSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ws := &workerSet{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--dist-worker", addr)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			ws.kill()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			ws.kill()
			return nil, fmt.Errorf("spawn worker: %w", err)
		}
		ws.cmds = append(ws.cmds, cmd)
		ws.outs = append(ws.outs, bufio.NewReader(out))
	}
	for i, out := range ws.outs {
		if line, err := out.ReadString('\n'); err != nil || line != workerReady+"\n" {
			ws.kill()
			return nil, fmt.Errorf("worker %d did not start: %q %v", i, line, err)
		}
	}
	return ws, nil
}

// wait waits for every worker to exit after the coordinator's shutdown and
// returns the largest peak RSS (MB) the workers reported for themselves.
func (ws *workerSet) wait() (float64, error) {
	var peak float64
	for i, cmd := range ws.cmds {
		line, rerr := ws.outs[i].ReadString('\n')
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("worker %d: %w", i, err)
		}
		mb, err := strconv.ParseFloat(strings.TrimPrefix(strings.TrimSpace(line), workerRSSPrefix), 64)
		if rerr != nil || !strings.HasPrefix(line, workerRSSPrefix) || err != nil {
			return 0, fmt.Errorf("worker %d: no peak RSS line: %q", i, line)
		}
		peak = math.Max(peak, mb)
	}
	ws.cmds = nil
	return peak, nil
}

// kill stops and reaps any worker still running.
func (ws *workerSet) kill() {
	for _, cmd := range ws.cmds {
		_ = cmd.Process.Kill() // it may already have exited
		_ = cmd.Wait()         // reaps it; the exit status of a killed worker says nothing
	}
	ws.cmds = nil
}

// A worker prints workerReady once it is about to dial, and
// workerRSSPrefix followed by its own peak RSS in MB before it exits.
const (
	workerReady     = "ready"
	workerRSSPrefix = "peak_rss_mb "
)

// runDistWorker is the worker-process mode of the benchmark binary.
func runDistWorker(addr string, stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout, workerReady)
	if err := dist.RunWorker(dist.WorkerConfig{Addr: addr}); err != nil {
		fmt.Fprintf(stderr, "perfbench worker: %v\n", err)
		return 1
	}
	mb, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench worker: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%v\n", workerRSSPrefix, mb)
	return 0
}
