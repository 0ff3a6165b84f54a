package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/engine"
	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
	"fcpn/internal/trace"
)

// tracer records nested spans around the benchmark's calls into each
// layer, with the allocation counter at both ends. It is serial: spans
// nest strictly, so a span's self time is its duration minus its
// children's. With on == false every call is a no-op, which is the
// untraced run the overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []tspan
	stack []int
}

type tspan struct {
	name       string
	parent     int
	start, end time.Duration
	a0, a1     uint64
}

func (tr *tracer) begin(name string) {
	if !tr.on {
		return
	}
	parent := -1
	if len(tr.stack) > 0 {
		parent = tr.stack[len(tr.stack)-1]
	}
	tr.spans = append(tr.spans, tspan{name: name, parent: parent, a0: allocSample(), start: time.Since(tr.t0)})
	tr.stack = append(tr.stack, len(tr.spans)-1)
}

func (tr *tracer) end() {
	if !tr.on {
		return
	}
	i := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	tr.spans[i].end = time.Since(tr.t0)
	tr.spans[i].a1 = allocSample()
}

// selfTotals sums, per span name, the self time (ms) and self allocation
// (bytes) and the total duration.
func (tr *tracer) selfTotals() (self, alloc, total map[string]float64) {
	childDur := make([]time.Duration, len(tr.spans))
	childAlloc := make([]uint64, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childAlloc[s.parent] += s.a1 - s.a0
		}
	}
	self, alloc, total = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for i, s := range tr.spans {
		self[s.name] += ms(s.end - s.start - childDur[i])
		alloc[s.name] += float64(s.a1 - s.a0 - childAlloc[i])
		total[s.name] += ms(s.end - s.start)
	}
	return self, alloc, total
}

// nested charges d, which the program's own tracer measured inside the
// open span, to a child span called name, so the open span's self time
// leaves it out. The program's tracer records no allocations, so the
// allocations made during d stay with the open span.
func (tr *tracer) nested(name string, d time.Duration) {
	if !tr.on || d <= 0 {
		return
	}
	now := time.Since(tr.t0)
	tr.spans = append(tr.spans, tspan{name: name, parent: tr.stack[len(tr.stack)-1], start: now - d, end: now})
}

// innerPhases map the phases internal/core records on its tracer to the
// benchmark's spans they belong to: every Farkas run inside a core call
// is T-semiflow work of the invariant layer, and the fingerprint
// bucketing, canonical hashing and member fan-out inside the sweep are
// the isomorphism dedup.
var innerPhases = map[string]string{
	"invariant/farkas": "invariant.tsemiflows",
	"core/dedup/sig":   "core.dedup",
	"core/dedup/wl":    "core.dedup",
	"core/dedup":       "core.dedup",
}

// coreCall runs fn in the span name with a fresh program tracer in its
// options when tracing, and charges the inner phases that tracer
// recorded to their own spans. It returns the program tracer's report
// (nil when not tracing).
func coreCall(tr *tracer, name string, opt core.Options, fn func(core.Options) error) (*trace.Report, error) {
	if tr.on {
		opt.Trace = trace.New()
	}
	tr.begin(name)
	defer tr.end()
	err := fn(opt)
	rep := opt.Trace.Report()
	for phase, span := range innerPhases {
		if p, ok := rep.Phase(phase); ok {
			tr.nested(span, time.Duration(p.TotalMS*1e6))
		}
	}
	return rep, err
}

// semiflowCache memoises semiflow rows for one net, as the engine's cache
// does within a job: the T- and P-semiflows computed in their own spans
// are what core.PartitionTasks finds when it asks again.
type semiflowCache map[string][][]int

func (c semiflowCache) GetSemiflows(key string) ([][]int, bool) {
	rows, ok := c[key]
	return rows, ok
}

func (c semiflowCache) PutSemiflows(key string, rows [][]int) { c[key] = rows }

// layerCounts are the work counts of the serial traced pipeline.
type layerCounts struct {
	nets, allocations, reductions, classes, rows, probes, cLines int
}

// marginKinds are the engine's default overload kinds of the margin
// search.
var marginKinds = []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun}

// pipeline runs one net serially through the calls the engine's analysis
// makes, each inside its layer's span: parse, canonical form, T- and
// P-semiflows with structural bounds, the distinct T-reductions, the
// schedulability sweep over them (with the Farkas runs and the
// isomorphism dedup inside it charged to their own spans), buffer bounds,
// tasks, and with timing on the deadline calibration, the (m,k) monitor
// run and the margin searches. Two steps differ from the engine: the
// sweep runs on the net itself rather than on its canonical twin, and the
// C code is generated and emitted as `qss -c` does, where the engine only
// generates it for the timing run. It returns the net and a report holding
// the verdict, the T-reductions and the schedule, for the correctness
// check.
func pipeline(tr *tracer, it item, timingOn bool, lc *layerCounts) (*petri.Net, *engine.NetReport, error) {
	tr.begin("net")
	defer tr.end()
	tr.begin("petri.parse")
	n, err := petri.ParseString(it.Text)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("petri.canonical")
	cf := n.CanonicalForm()
	tr.end()
	lc.nets++

	cache := semiflowCache{}
	tr.begin("invariant.tsemiflows")
	tis, terr := invariant.TInvariantsCached(n, invariant.Options{}, cache)
	tr.end()
	tr.begin("invariant.psemiflows")
	pis, perr := invariant.PInvariantsCached(n, invariant.Options{}, cache)
	if perr == nil {
		invariant.StructuralBounds(n, pis)
	}
	tr.end()
	if terr != nil || perr != nil {
		return nil, nil, fmt.Errorf("%s: semiflows: %v %v", it.Name, terr, perr)
	}
	lc.rows += len(tis) + len(pis)

	rep := &engine.NetReport{Name: n.Name()}
	if !n.IsFreeChoice() || n.Validate() != nil {
		return n, rep, nil
	}
	lc.allocations += allocations(n)
	opt := core.Options{Workers: 1, NoPrune: true, Semiflows: cache}
	tr.begin("core.enumerate")
	reds, err := core.EnumerateDistinctReductions(n, 0)
	tr.end()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: reductions: %w", it.Name, err)
	}
	for _, r := range reds {
		rep.Reductions = append(rep.Reductions, transitionNames(n, r.KeptTransitions()))
	}
	var sched *core.Schedule
	solved, err := coreCall(tr, "core.solve", opt, func(opt core.Options) (err error) {
		sched, err = core.SolveReductions(n, reds, opt)
		return err
	})
	lc.reductions += len(reds)
	if c := solved.Counter("core/dedup/classes"); c > 0 {
		lc.classes += int(c)
	} else {
		lc.classes += len(reds) // fewer than two reductions, or untraced: no count
	}
	if err != nil {
		return n, rep, nil // not schedulable: the verdict is the answer
	}
	rep.Schedulable = true
	rep.Schedule = sched.Export()
	tr.begin("core.bounds")
	_, err = sched.BufferBounds()
	tr.end()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: buffer bounds: %w", it.Name, err)
	}
	var tp *core.TaskPartition
	if _, err := coreCall(tr, "core.tasks", opt, func(opt core.Options) (err error) {
		tp, err = core.PartitionTasks(n, opt)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("%s: tasks: %w", it.Name, err)
	}
	tr.begin("codegen.generate")
	prog, err := codegen.Generate(sched, tp)
	tr.end()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: codegen: %w", it.Name, err)
	}
	tr.begin("codegen.emit")
	src := codegen.EmitC(prog, codegen.CConfig{})
	tr.end()
	lc.cLines += codegen.LineCount(src)
	if !timingOn {
		return n, rep, nil
	}

	mk := timing.Constraint{M: 9, K: 10}
	events := timingWorkload(n, cf)
	cost := rtos.DefaultCostModel()
	hooks := func() sim.Hooks { return sim.Hooks{Resolver: canonResolver(n, cf, 1)} }
	tr.begin("sim.calibrate")
	deadline, err := sim.CalibrateDeadline(prog, events, cost, sim.RobustConfig{CyclesPerTick: 1}, hooks(), sim.DefaultDeadlineFactor)
	tr.end()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: calibrate: %w", it.Name, err)
	}
	tr.begin("sim.monitor")
	rm, err := sim.RunRobust(prog, events, cost, sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline, MK: mk}, hooks())
	tr.end()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: monitor: %w", it.Name, err)
	}
	rep.Timing = &engine.TimingReport{Verdict: rm.Timing}
	tr.begin("sim.margin")
	defer tr.end()
	for _, kind := range marginKinds {
		om, err := sim.SearchOverloadMargin(prog, events, cost, sim.MarginConfig{
			Kind: kind, MK: mk, Seed: 1,
			Robust: sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline},
			Hooks:  hooks,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: margin: %w", it.Name, err)
		}
		lc.probes += om.Result.Probes
	}
	return n, rep, nil
}

// transitionNames lists the names of ts in name order, as the engine's
// report lists the transitions each T-reduction keeps.
func transitionNames(n *petri.Net, ts []petri.Transition) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = n.TransitionName(t)
	}
	sort.Strings(out)
	return out
}

// timingWorkload is the engine's canonical periodic workload: sources in
// canonical order, source i firing 32 times with period 2i+3 from phase i.
func timingWorkload(n *petri.Net, cf *petri.CanonicalForm) []rtos.Event {
	sources := append([]petri.Transition(nil), n.SourceTransitions()...)
	sort.Slice(sources, func(a, b int) bool { return cf.TransPos[sources[a]] < cf.TransPos[sources[b]] })
	streams := make([][]rtos.Event, len(sources))
	for i, src := range sources {
		streams[i] = rtos.Periodic(src, int64(2*i+3), int64(i), 32)
	}
	return rtos.Merge(streams...)
}

// canonResolver resolves each choice from (canonical place, occurrence,
// seed), as the engine's timing pass does, so the traced pipeline
// simulates the same runs.
func canonResolver(n *petri.Net, cf *petri.CanonicalForm, seed uint64) codegen.ChoiceResolver {
	occ := make([]uint64, n.NumPlaces())
	order := make([][]petri.Transition, n.NumPlaces())
	return func(p petri.Place, alts []petri.Transition) int {
		k := occ[p]
		occ[p] = k + 1
		h := seed ^ (uint64(cf.PlacePos[p])+1)*0x9E3779B97F4A7C15 ^ (k+1)*0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
		ts := order[p]
		if ts == nil {
			for _, c := range n.Consumers(p) {
				ts = append(ts, c.Transition)
			}
			sort.Slice(ts, func(a, b int) bool { return cf.TransPos[ts[a]] < cf.TransPos[ts[b]] })
			order[p] = ts
		}
		target := ts[h%uint64(len(ts))]
		for i, t := range alts {
			if t == target {
				return i
			}
		}
		return -1
	}
}

// isoClassRatio is the share of distinct isomorphism classes among the
// T-reductions of the nets, by canonical hash of each reduction's subnet:
// the most an isomorphism dedup could save, next to what the sweep's dedup
// saves (core.dedup_class_ratio).
func isoClassRatio(corpus []item) float64 {
	reds, classes := 0, 0
	for _, it := range corpus {
		n := parseItem(it)
		if !n.IsFreeChoice() || n.Validate() != nil {
			continue
		}
		rs, err := core.EnumerateDistinctReductions(n, 0)
		if err != nil {
			continue
		}
		seen := map[string]bool{}
		for _, r := range rs {
			seen[r.Subnet().Net.CanonicalHash()] = true
		}
		reds += len(rs)
		classes += len(seen)
	}
	if reds == 0 {
		return 1
	}
	return float64(classes) / float64(reds)
}

// layerNames groups the traced spans into the reported layers.
var layerOf = map[string]string{
	"petri.parse": "petri", "petri.canonical": "petri",
	"invariant.tsemiflows": "invariant", "invariant.psemiflows": "invariant",
	"core.enumerate": "core", "core.dedup": "core", "core.solve": "core", "core.bounds": "core", "core.tasks": "core",
	"codegen.generate": "codegen", "codegen.emit": "codegen",
	"sim.calibrate": "sim", "sim.monitor": "sim", "sim.margin": "sim",
}

// tracedRun is the --trace 1 run: the serial traced pipeline over the
// corpus (alternating with the same pipeline untraced, for the overhead),
// the engine layer's queue wait, cache and GC figures, and the served
// fleet with timing wrappers around every handler.
func tracedRun(w workload, seed uint64, seconds float64, root string, t *tally) (map[string]metric, error) {
	conns := runtime.NumCPU()
	timer := &handlerTimer{}
	s, err := newSetup(w, seed, filepath.Join(root, "0"), conns, timer)
	if err != nil {
		return nil, err
	}
	defer s.fleet.close()
	m := map[string]metric{}

	// Serial traced pipeline, alternating traced and untraced runs of each
	// net so the overhead compares like with like.
	tr := &tracer{on: true, t0: time.Now()}
	off := &tracer{}
	var lc, lcOff layerCounts
	var tracedWall, plainWall time.Duration
	budget := time.Duration(0.45 * seconds * float64(time.Second))
	start := time.Now()
	traced := 0
	for i, it := range s.corpus {
		if i > 0 && time.Since(start) > budget {
			break
		}
		// Alternate which run goes first, so neither always finds the
		// caches warm. Only the traced run's answer is checked; the
		// untraced run of the same net is only timed.
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if (i+k)%2 == 1 {
				_, _, _ = pipeline(off, it, w.Timing, &lcOff) // timed only
				plainWall += time.Since(t0)
				continue
			}
			n, rep, err := pipeline(tr, it, w.Timing, &lc)
			tracedWall += time.Since(t0)
			if err == nil {
				err = checkReport(n, it, rep, w.Timing)
			}
			var errs []error
			if err != nil {
				errs = append(errs, err)
			}
			t.add(1, errs)
		}
		traced++
	}
	fmt.Printf("# %s traced pipeline: %d nets\n", w.Name, traced)
	self, alloc, total := tr.selfTotals()
	nets := float64(lc.nets)
	per := func(x float64) float64 { return x / nets }
	for _, name := range []string{"petri.parse", "petri.canonical", "invariant.tsemiflows", "invariant.psemiflows",
		"core.enumerate", "core.dedup", "core.solve", "core.bounds", "core.tasks",
		"codegen.generate", "codegen.emit", "sim.calibrate", "sim.monitor", "sim.margin"} {
		m[name+"_ms"] = metric{per(self[name]), "ms"}
	}
	layerSelf := map[string]float64{}
	layerAlloc := map[string]float64{}
	sum := 0.0
	for name, v := range self {
		if l, ok := layerOf[name]; ok {
			layerSelf[l] += v
			layerAlloc[l] += alloc[name]
			sum += v
		}
	}
	for _, l := range []string{"petri", "invariant", "core", "codegen", "sim"} {
		m[l+".share"] = metric{layerSelf[l] / sum, "ratio"}
	}
	m["invariant.alloc_mb"] = metric{per(layerAlloc["invariant"]) / 1e6, "MB"}
	m["invariant.semiflow_rows"] = metric{per(float64(lc.rows)), "count"}
	m["core.solve_alloc_mb"] = metric{per(alloc["core.solve"]) / 1e6, "MB"}
	m["sim.alloc_mb"] = metric{per(layerAlloc["sim"]) / 1e6, "MB"}
	m["core.allocations"] = metric{per(float64(lc.allocations)), "count"}
	m["core.reductions"] = metric{per(float64(lc.reductions)), "count"}
	ratio := 1.0
	if lc.reductions > 0 {
		ratio = float64(lc.classes) / float64(lc.reductions)
	}
	m["core.dedup_class_ratio"] = metric{ratio, "ratio"}
	m["core.iso_class_ratio"] = metric{isoClassRatio(s.corpus[:traced]), "ratio"}
	m["codegen.c_lines"] = metric{per(float64(lc.cLines)), "count"}
	m["sim.probes"] = metric{per(float64(lc.probes)), "count"}
	m["bench.untraced_frac"] = metric{self["net"] / total["net"], "ratio"}
	m["bench.trace_overhead_frac"] = metric{tracedWall.Seconds()/plainWall.Seconds() - 1, "ratio"}

	if err := traceEngine(w, s.corpus, conns, m, t); err != nil {
		return nil, err
	}
	if err := traceServe(w, s, seconds, conns, timer, m); err != nil {
		return nil, err
	}
	errs, drift := verifyServed(w, s.plan.pool, s.served, s.outs, conns)
	t.add(len(s.served), errs)
	m["server.report_drift_frac"] = metric{float64(drift) / float64(len(s.served)), "ratio"}
	return m, s.fleet.close()
}

// traceEngine measures the engine layer: each net submitted on its own
// from 2×nproc closed-loop callers (the default submit window), timing
// submit to callback minus the job's own Elapsed, then a warm pass.
func traceEngine(w workload, corpus []item, conns int, m map[string]metric, t *tally) error {
	eng := engine.New(w.engineConfig(conns))
	defer eng.Close()
	nets := make([]*petri.Net, len(corpus))
	for i, it := range corpus {
		nets[i] = parseItem(it)
	}
	results := make([]engine.Result, len(nets))
	waits := make([]float64, len(nets))
	before := readRuntime()
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < 2*conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				err := eng.AnalyzeEach(nets[i:i+1], func(_ int, r engine.Result) {
					waits[i] = ms(time.Since(t0) - r.Elapsed)
					results[i] = r
				})
				if err != nil {
					results[i] = engine.Result{Err: err}
				}
			}
		}()
	}
	for i := range nets {
		next <- i
	}
	close(next)
	wg.Wait()
	rt := before.delta(readRuntime())
	var errs []error
	for i, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", corpus[i].Name, r.Err))
		} else if err := checkReport(nets[i], corpus[i], r.Report, w.Timing); err != nil {
			errs = append(errs, err)
		}
	}
	t.add(len(nets), errs)
	if _, err := runPass(eng, corpus); err != nil {
		return err
	}
	st := eng.Stats()
	hit := 0.0
	if st.CacheHits+st.CacheMisses > 0 {
		hit = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	sum := 0.0
	for _, x := range waits {
		sum += x
	}
	m["engine.queue_wait_ms"] = metric{sum / float64(len(waits)), "ms"}
	m["engine.cache_hit_ratio"] = metric{hit, "ratio"}
	m["engine.gc_cycles"] = metric{float64(rt.gcCycles), "count"}
	m["engine.gc_cpu_frac"] = metric{rt.gcFrac(), "ratio"}
	return nil
}

// traceServe sends part of rung 0 serially, attributing to the
// coordinator its handler span minus the backend span it caused, then
// runs the high rung open loop for the generator's lateness and the
// fleet's counters.
func traceServe(w workload, s *setup, seconds float64, conns int, timer *handlerTimer, m map[string]metric) error {
	budget := 0.25 * seconds
	reqs := s.plan.rung(0, budget/2)
	timer.take()
	outs := s.fleet.serial(reqs)
	s.served = append(s.served, reqs...)
	s.outs = append(s.outs, outs...)
	spans := timer.take()
	var coordSelf, handler []float64
	for _, c := range spans {
		if c.who != "coord" {
			continue
		}
		d := c.end.Sub(c.start)
		for _, b := range spans {
			if b.who == "backend" && !b.start.Before(c.start) && !b.end.After(c.end) {
				d -= b.end.Sub(b.start)
			}
		}
		coordSelf = append(coordSelf, ms(d))
	}
	hi := s.plan.rung(w.HiRung, budget/2)
	hiOuts, wall := s.fleet.openLoop(hi, conns)
	s.served = append(s.served, hi...)
	s.outs = append(s.outs, hiOuts...)
	rr := summarizeRung(serveLadder[w.HiRung], hiOuts, wall, limitMS)
	for _, sp := range append(spans, timer.take()...) {
		if sp.who == "backend" {
			handler = append(handler, ms(sp.end.Sub(sp.start)))
		}
	}

	var hits, misses, rejected int64
	for _, b := range s.fleet.backends {
		st := b.StatsReport()
		hits += st.Requests.AnalyzeHits + st.Requests.ReportLookups - st.Requests.ReportMisses
		misses += st.Requests.AnalyzeMisses
		rejected += st.Requests.RejectedWindow
	}
	cs := s.fleet.coord.StatsReport()
	journal := int64(0)
	files, _ := filepath.Glob(filepath.Join(s.fleet.dir, "backend*", "*.jsonl"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			journal += fi.Size()
		}
	}
	m["server.handler_p50_ms"] = metric{quantile(handler, 0.5), "ms"}
	m["server.handler_p99_ms"] = metric{quantile(handler, 0.99), "ms"}
	m["server.hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	m["server.rejected_429"] = metric{float64(rejected), "count"}
	m["server.journal_bytes_per_miss"] = metric{float64(journal) / float64(misses), "B"}
	m["coord.self_ms"] = metric{median(coordSelf), "ms"}
	m["coord.retries"] = metric{float64(cs.Requests.Retries), "count"}
	m["coord.failovers"] = metric{float64(cs.Requests.Failovers), "count"}
	m["coord.hedges"] = metric{float64(cs.Requests.Hedges), "count"}
	m["bench.gen_late_p99_ms"] = metric{quantile(rr.genLateMS, 0.99), "ms"}
	fmt.Printf("# %s traced serve: %d serial requests, %d at %.0f/s; %d backend spans\n",
		w.Name, len(reqs), len(hi), serveLadder[w.HiRung], len(handler))
	return nil
}
