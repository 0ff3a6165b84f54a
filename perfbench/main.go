// Command perfbench is the repository's benchmark: it generates a seeded
// workload of nets and requests, drives it through the public functions
// of internal/engine, internal/server and internal/coord, checks every
// answer, and prints one row of end-to-end metrics (--trace 0) or the
// per-layer self times of a serial traced run (--trace 1).
//
//	bash perfbench/run.sh --workload sweep-choice --seed 7 --seconds 50 --trace 0
//
// It must run from the repository root, where it reads examples/nets and
// keeps its journals under .bench_build/. The last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/petri"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and the mismatches among them, keeping the
// first few messages for the error report.
type tally struct {
	attempted, failed int
	first             []string
}

func (t *tally) add(ops int, errs []error) {
	t.attempted += ops
	t.failed += len(errs)
	for _, e := range errs {
		if len(t.first) < 10 {
			t.first = append(t.first, e.Error())
		}
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-pipeline or sweep-choice")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 50, "measured seconds of the run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: serial traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if _, err := os.Stat(filepath.Join("examples", "nets")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	root := filepath.Join(".bench_build", "perfbench-run", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(root)

	calib := hostCalibration()
	var t tally
	var metrics map[string]metric
	var err error
	if *traced == 1 {
		metrics, err = tracedRun(w, *seed, *seconds, root, &t)
	} else {
		metrics, err = measuredRun(w, *seed, *seconds, root, &t)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if *traced == 1 {
		metrics["bench.host_calib_ms"] = metric{calib, "ms"}
	}
	printRow(stdout, w.Name, *seed, metrics, t, calib)
	if *traced == 0 {
		metrics = gatedOnly(metrics)
	}
	for _, msg := range t.first {
		fmt.Fprintf(stderr, "perfbench: mismatch: %s\n", msg)
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// gated are the end-to-end metrics BENCHMARK.json bounds: set-up time,
// which the contract requires, and the memory metrics, whose spread over
// seeds stays well inside their bounds on a shared 2-CPU host. The
// throughput and latency metrics move by up to 30% from one minute to the
// next on such a host, whatever the seed, so the row prints them and the
// result line leaves them out.
var gated = []string{"setup_s", "alloc_mb_per_net", "peak_heap_mb"}

func gatedOnly(all map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, name := range gated {
		out[name] = all[name]
	}
	return out
}

// printRow prints the human-readable row: every metric by name with its
// unit, plus the failure fraction and the host calibration, which are
// reported beside the metrics and never rescale them.
func printRow(out io.Writer, name string, seed uint64, m map[string]metric, t tally, calibMS float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s seed=%d", name, seed)
	for _, k := range keys {
		fmt.Fprintf(&sb, " | %s=%.6g %s", k, m[k].Value, m[k].Unit)
	}
	frac := 0.0
	if t.attempted > 0 {
		frac = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(&sb, " | fail_frac=%.6g (%d/%d) | host_calib_ms=%.4g ms", frac, t.failed, t.attempted, calibMS)
	fmt.Fprintln(out, sb.String())
}

// setup is everything a run builds before it times anything.
type setup struct {
	corpus []item
	plan   *servePlan
	fleet  *fleet
	served []request // requests sent so far, with their outcomes
	outs   []outcome
}

// newSetup generates the corpus, boots the fleet and warms both paths:
// a throwaway engine analyses the example nets and the fleet answers the
// plan's set-up requests one by one.
func newSetup(w workload, seed uint64, dir string, conns int, timer *handlerTimer) (*setup, error) {
	corpus, plan, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	s := &setup{corpus: corpus, plan: plan}
	warm := engine.New(w.engineConfig(conns))
	_, err = runPass(warm, s.corpus[:len(w.Examples)])
	warm.Close()
	if err != nil {
		return nil, err
	}
	if s.fleet, err = bootFleet(w, dir, conns, timer); err != nil {
		return nil, err
	}
	reqs := s.plan.warm()
	s.served = append(s.served, reqs...)
	s.outs = append(s.outs, s.fleet.serial(reqs)...)
	return s, nil
}

// generate draws the workload's inputs from the seed: the batch corpus
// (the examples, then generated nets) and the plan of served requests,
// whose first-time nets are distinct from the corpus's.
func generate(w workload, seed uint64) ([]item, *servePlan, error) {
	gen := newGenerator(seed, w.Families)
	var corpus []item
	for _, ex := range w.Examples {
		it, err := readExample(ex)
		if err != nil {
			return nil, nil, err
		}
		gen.markSeen(it.Text)
		corpus = append(corpus, it)
	}
	for i := 0; i < w.CorpusNets; i++ {
		corpus = append(corpus, gen.next())
	}
	return corpus, newServePlan(seed, newGeneratorAt(seed, w.ServeFamilies, 200, gen.seen)), nil
}

// setupRepeats is how many times a measured run sets up; setup_s is the
// median, and only the last set-up is kept.
const setupRepeats = 5

func measuredRun(w workload, seed uint64, seconds float64, root string, t *tally) (map[string]metric, error) {
	conns := runtime.NumCPU()
	var s *setup
	var setupS []float64
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			if err := s.fleet.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = newSetup(w, seed, filepath.Join(root, fmt.Sprint(k)), conns, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.fleet.close()
	fmt.Printf("# %s: set-up times %.4v s\n", w.Name, setupS)

	m := map[string]metric{"setup_s": {median(setupS), "s"}}
	phase := time.Now()
	if err := measureBatch(w, s.corpus, seconds*batchShare, conns, m, t); err != nil {
		return nil, err
	}
	fmt.Printf("# %s: batch phase %.1fs\n", w.Name, time.Since(phase).Seconds())
	phase = time.Now()
	if err := measureServe(w, s, seconds*(1-batchShare), conns, m); err != nil {
		return nil, err
	}
	fmt.Printf("# %s: serve phase %.1fs\n", w.Name, time.Since(phase).Seconds())
	phase = time.Now()
	errs, drift := verifyServed(w, s.plan.pool, s.served, s.outs, conns)
	fmt.Printf("# %s: served answers checked in %.1fs\n", w.Name, time.Since(phase).Seconds())
	t.add(len(s.served), errs)
	fmt.Printf("# %s: %d of %d answers are not byte for byte the in-process report of the net's first text\n",
		w.Name, drift, len(s.served))
	return m, s.fleet.close()
}

// measureBatch runs batch rounds until the budget is spent (at least one)
// and reports the medians over rounds.
func measureBatch(w workload, corpus []item, budget float64, conns int, m map[string]metric, t *tally) error {
	var cold, warm, serial, alloc, peak, gcCold, gcSerial, gcFrac []float64
	var coldCPU, serialCPU, warmCPU []float64
	var perNet []float64
	start := time.Now()
	for {
		r0 := time.Now()
		r, err := runRound(w, corpus, conns)
		if err != nil {
			return err
		}
		t.add(3*len(corpus), checkRound(w, corpus, r))
		n := float64(len(corpus))
		cold = append(cold, n/r.cold.wall.Seconds())
		warm = append(warm, n/r.warm.wall.Seconds())
		serial = append(serial, n/r.serial.wall.Seconds())
		alloc = append(alloc, float64(r.cold.rt.allocBytes)/n/1e6)
		peak = append(peak, float64(r.peakHeap)/1e6)
		gcCold = append(gcCold, float64(r.cold.rt.gcCycles))
		gcSerial = append(gcSerial, float64(r.serial.rt.gcCycles))
		gcFrac = append(gcFrac, r.cold.rt.gcFrac())
		coldCPU = append(coldCPU, r.cold.rt.procCPU*1e3/n)
		serialCPU = append(serialCPU, r.serial.rt.procCPU*1e3/n)
		warmCPU = append(warmCPU, r.warm.rt.procCPU*1e3/n)
		for _, res := range r.serial.results {
			perNet = append(perNet, ms(res.Elapsed))
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+time.Since(r0).Seconds() > budget {
			break
		}
	}
	m["cold_nets_per_s"] = metric{median(cold), "1/s"}
	m["warm_nets_per_s"] = metric{median(warm), "1/s"}
	m["serial_nets_per_s"] = metric{median(serial), "1/s"}
	m["alloc_mb_per_net"] = metric{median(alloc), "MB"}
	m["peak_heap_mb"] = metric{median(peak), "MB"}
	m["net_p50_ms"] = metric{quantile(perNet, 0.5), "ms"}
	m["net_p99_ms"] = metric{quantile(perNet, 0.99), "ms"}
	fmt.Printf("# %s batch: %d rounds of %d nets; net latency samples %d; medians per round: GC cycles cold %.0f serial %.0f, GC CPU share cold %.3f, process CPU ms per net cold %.3f serial %.3f warm %.3f\n",
		w.Name, len(cold), len(corpus), len(perNet), median(gcCold), median(gcSerial), median(gcFrac),
		median(coldCPU), median(serialCPU), median(warmCPU))
	fmt.Printf("# %s batch: per round: cold nets/s %.4v, peak heap MB %.4v\n", w.Name, cold, peak)
	return nil
}

// searchProbes bounds the rungs the search for serve_max_rps may run past
// the low and high rates; they share 40% of the serve budget, the low and
// high rungs carry the latency percentiles and get 30% each.
const searchProbes = 5

// searchSpan is how many rungs above the high rung the search covers: the
// high rate is set near 40% of the workload's capacity, and 20 rungs of
// 8% reach 4.7 times the high rate.
const searchSpan = 20

// measureServe runs the low rung and the high rung, then bisects the
// ladder for the highest rung that meets the p99 limit with no growing
// backlog: above the high rung if it met the limit, below it otherwise.
// Rung j's requests depend only on the seed and the rungs run before it,
// so two runs with one seed send the same requests for as long as their
// searches take the same steps.
func measureServe(w workload, s *setup, budget float64, conns int, m map[string]metric) error {
	results := map[int]rungResult{}
	runRung := func(j int, seconds float64) rungResult {
		reqs := s.plan.rung(j, seconds)
		s.fleet.quiesce()
		before := readRuntime()
		outs, wall := s.fleet.openLoop(reqs, conns)
		cpu := before.delta(readRuntime()).procCPU
		s.served = append(s.served, reqs...)
		s.outs = append(s.outs, outs...)
		r := summarizeRung(serveLadder[j], outs, wall, limitMS)
		r.cpuPerReq = cpu * 1e3 / float64(len(reqs))
		results[j] = r
		fmt.Printf("# %s rung %d: rate %.1f/s achieved %.1f/s p50 %.3fms p99 %.3fms samples %d process CPU %.3fms/request pass %v\n",
			w.Name, j, r.rate, r.achieved, r.p50, r.p99, r.samples, r.cpuPerReq, r.pass)
		return r
	}
	if !runRung(0, 0.3*budget).pass {
		return errors.New("the lowest rung of the ladder missed the p99 limit")
	}
	pass, fail := 0, w.HiRung // the highest rung known to pass, the lowest known to fail
	if runRung(w.HiRung, 0.3*budget).pass {
		pass, fail = w.HiRung, min(w.HiRung+searchSpan, len(serveLadder))
	}
	for k := 0; k < searchProbes && fail-pass > 1; k++ {
		mid := (pass + fail) / 2
		if runRung(mid, 0.4*budget/searchProbes).pass {
			pass = mid
		} else {
			fail = mid
		}
	}
	m["serve_p50_ms"] = metric{results[0].p50, "ms"}
	m["serve_p99_ms"] = metric{results[0].p99, "ms"}
	m["serve_hi_p99_ms"] = metric{results[w.HiRung].p99, "ms"}
	m["serve_max_rps"] = metric{results[pass].achieved, "1/s"}
	return nil
}

// parseItem parses a corpus text; corpus texts are formatted nets, so a
// failure is a bug of the benchmark.
func parseItem(it item) *petri.Net {
	n, err := petri.ParseString(it.Text)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", it.Name, err))
	}
	return n
}
