package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/fault"
	"fcpn/internal/figures"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// referenceRunRobust is RunRobust as it was before it read its stream in
// place: it always copies and stably sorts the events and stores every
// admitted event in an rtos.EventQueue, unbounded or not. It is the
// simplest correct form, kept as the oracle for the differential test.
func referenceRunRobust(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg RobustConfig, hooks Hooks) (*RobustMetrics, error) {
	if cfg.CyclesPerTick <= 0 {
		cfg.CyclesPerTick = 1
	}
	if cfg.StepBudget <= 0 {
		cfg.StepBudget = defaultStepBudget
	}
	if len(events) == 0 {
		rm := &RobustMetrics{Metrics: *emptyMetrics(prog)}
		rm.PeakCounters = append([]int(nil), prog.Net.InitialMarking()...)
		rm.Timing = timing.NewMonitor(cfg.MK).Verdict()
		return rm, nil
	}

	ordered := append([]rtos.Event(nil), events...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Time < ordered[j].Time })

	in := codegen.NewInterp(prog, hooks.Resolver)
	in.MaxOps = cfg.StepBudget
	k := rtos.NewKernel(cost)
	in.OnFire = fireHook(k, hooks)
	k.Queue = rtos.NewEventQueue(cfg.Queue)
	if cfg.Deadline > 0 {
		// The watchdog keeps one constraint window of hit/miss history so
		// violated windows stay inspectable after the run.
		k.Watch = &rtos.Watchdog{Budget: cfg.Deadline, HistoryCap: cfg.MK.K}
	}
	mon := timing.NewMonitor(cfg.MK)

	var clock, busy int64
	var respMax, respSum int64
	var lat latencyAgg
	var dispatch int64
	served := 0
	next := 0 // index of the next arrival in ordered

	var runErr error
serve:
	for {
		// Admit every arrival up to the current clock (the interrupt
		// handler runs even while a task occupies the CPU).
		for next < len(ordered) && ordered[next].Time*cfg.CyclesPerTick <= clock {
			k.Admit(ordered[next], ordered[next].Time*cfg.CyclesPerTick)
			next++
		}
		if k.Queue.Len() == 0 {
			if next >= len(ordered) {
				break
			}
			clock = ordered[next].Time * cfg.CyclesPerTick // CPU idles
			continue
		}
		qe, _ := k.Queue.Pop()
		ev := qe.Ev
		ti := prog.TaskBySource(ev.Source)
		if ti < 0 {
			return nil, fmt.Errorf("sim: no task for source %s", prog.Net.TransitionName(ev.Source))
		}
		if hooks.BeforeEvent != nil {
			hooks.BeforeEvent(ev)
		}
		if cfg.Jitter != nil {
			k.Cost = cfg.Jitter.Perturb(cost, dispatch)
		}
		dispatch++
		start := k.Cycles
		k.Activate(prog.Tasks[ti].Task.Name)
		beforeFired, beforeOps := totalFired(in), in.Stats.Ops
		if err := in.RunSource(ev.Source); err != nil {
			runErr = err
			break serve
		}
		if cfg.Modular {
			for {
				progress := false
				for mi := range prog.Tasks {
					bf, bo := totalFired(in), in.Stats.Ops
					fired, err := in.RunTask(mi)
					if err != nil {
						runErr = err
						break serve
					}
					if fired {
						k.Activate(prog.Tasks[mi].Task.Name)
						progress = true
					} else {
						k.Poll(prog.Tasks[mi].Task.Name)
					}
					k.ChargeFirings(totalFired(in) - bf)
					k.ChargeOps(int64(in.Stats.Ops - bo))
				}
				if !progress {
					break
				}
			}
		}
		k.ChargeFirings(totalFired(in) - beforeFired)
		k.ChargeOps(int64(in.Stats.Ops - beforeOps))
		served++
		service := k.Cycles - start
		lat.add(service)
		busy += service
		clock += service
		response := clock - qe.Arrival
		if response > respMax {
			respMax = response
		}
		respSum += response
		miss := k.Complete(response)
		if miss {
			mon.ObserveOverrun(response - cfg.Deadline)
		}
		mon.Observe(miss)
	}

	m := metricsFrom(k, in, served)
	lat.into(m)
	m.DroppedEvents = k.Queue.Lost()
	if k.Watch != nil {
		m.DeadlineMisses = k.Watch.Misses
	}
	rm := &RobustMetrics{
		Metrics:        *m,
		RejectedEvents: k.Queue.Rejected,
		ResponseMax:    respMax,
		CPUBusy:        busy,
		Makespan:       clock,
		PeakCounters:   append([]int(nil), in.Stats.MaxCounters...),
		Steps:          in.Stats.Ops,
	}
	if served > 0 {
		rm.ResponseAvg = respSum / int64(served)
	}
	if k.Watch != nil {
		rm.WorstOverrun = k.Watch.WorstOverrun
	}
	rm.Timing = mon.Verdict()
	rm.Violations = boundCheck(prog.Net, rm.PeakCounters, cfg.Limits)
	rm.BoundViolations = len(rm.Violations)
	rm.CycleExceedances = boundCheck(prog.Net, rm.PeakCounters, cfg.CycleLimits)

	if runErr != nil {
		if errors.Is(runErr, core.ErrBudgetExceeded) {
			rm.BudgetExhausted = true
			return rm, fmt.Errorf("sim: robust run stopped: %w", runErr)
		}
		return nil, runErr
	}
	return rm, nil
}

// diffStreams builds the seeded random workloads of the differential
// test over the net's sources: a time-ordered merge of bursty streams,
// that merge with burst copies, and the burst-expanded stream shuffled
// (unordered input, with equal timestamps to exercise the stable sort).
func diffStreams(t *testing.T, n *petri.Net, seed uint64) map[string][]rtos.Event {
	t.Helper()
	var streams [][]rtos.Event
	for i, src := range n.SourceTransitions() {
		streams = append(streams, rtos.Bursty(src, int64(3+i), 40+int(seed%7)*5, seed+uint64(i)))
	}
	sorted := rtos.Merge(streams...)
	burst := fault.Scenario{Seed: seed, Injectors: []fault.Injector{
		fault.Burst{Pct: 50, Extra: 3, Source: fault.AnySource},
	}}.Apply(sorted)
	shuffled := append([]rtos.Event(nil), burst...)
	r := fault.NewRand(seed)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	if sort.SliceIsSorted(shuffled, func(a, b int) bool { return shuffled[a].Time < shuffled[b].Time }) {
		t.Fatalf("seed %d: shuffled stream is still ordered", seed)
	}
	return map[string][]rtos.Event{"sorted": sorted, "burst": burst, "unsorted": shuffled}
}

// TestRunRobustMatchesReference checks RunRobust against the copying,
// queue-storing reference on seeded random streams: sorted, unsorted and
// burst-expanded input, the unbounded queue and a bounded one under each
// overflow policy, with and without deadline, overruns, the modular
// cascade and an exhausted step budget. Metrics (as JSON) and errors
// must match exactly, and the caller's stream must come back untouched.
func TestRunRobustMatchesReference(t *testing.T) {
	cost := rtos.DefaultCostModel()
	for _, n := range []*petri.Net{figures.Figure4(), figures.Figure5()} {
		prog := qssProgram(t, n)
		limits, err := StructuralLimits(n)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 6; seed++ {
			configs := map[string]RobustConfig{
				"plain": {},
				"timed": {
					CyclesPerTick: 200, Deadline: 2500, MK: timing.Constraint{M: 9, K: 10}, Limits: limits,
					Jitter: &fault.CostJitter{Seed: seed, MaxPct: 30},
				},
				"modular": {Modular: true, CyclesPerTick: 7, Deadline: 4000, MK: timing.Constraint{M: 2, K: 5}},
				"budget":  {StepBudget: 300, Deadline: 1000, MK: timing.Constraint{M: 9, K: 10}},
			}
			for _, pol := range []rtos.OverflowPolicy{rtos.DropNewest, rtos.DropOldest, rtos.Reject} {
				configs["cap4-"+pol.String()] = RobustConfig{
					Queue: rtos.QueueConfig{Capacity: 4, Policy: pol}, CyclesPerTick: 200, Deadline: 2500,
					MK: timing.Constraint{M: 9, K: 10}, Limits: limits,
				}
			}
			for sname, events := range diffStreams(t, n, seed) {
				for cname, cfg := range configs {
					name := fmt.Sprintf("%s/seed%d/%s/%s", n.Name(), seed, sname, cname)
					snapshot := append([]rtos.Event(nil), events...)
					got, gotErr := RunRobust(prog, events, cost, cfg, Hooks{Resolver: NewDecisionStream(n, seed).Resolver()})
					want, wantErr := referenceRunRobust(prog, events, cost, cfg, Hooks{Resolver: NewDecisionStream(n, seed).Resolver()})
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
					}
					// Plain data (nil on an error path): Marshal cannot fail.
					gj, _ := json.Marshal(got)
					wj, _ := json.Marshal(want)
					if !bytes.Equal(gj, wj) {
						t.Fatalf("%s: metrics differ from the reference\n got  %s\n want %s", name, gj, wj)
					}
					if !slices.Equal(events, snapshot) {
						t.Fatalf("%s: RunRobust modified its input stream", name)
					}
				}
			}
		}
	}
}

// runAlloc is the heap bytes one RunRobust call allocates.
func runAlloc(t *testing.T, prog *codegen.Program, events []rtos.Event, cfg RobustConfig) uint64 {
	t.Helper()
	hooks := Hooks{Resolver: NewDecisionStream(prog.Net, 1).Resolver()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RunRobust(prog, events, rtos.DefaultCostModel(), cfg, hooks)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunRobustUnboundedAllocFlat pins the zero-copy contract: with an
// unbounded queue and a time-ordered stream, RunRobust stores no event,
// so its allocation does not grow with the stream. Arrivals every 3
// cycles against a dispatch of hundreds keep nearly the whole stream
// waiting, which a stored queue would pay for per event.
func TestRunRobustUnboundedAllocFlat(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	cfg := RobustConfig{Deadline: 1 << 40, MK: timing.Constraint{M: 9, K: 10}}
	short, long := rtos.Periodic(t1, 3, 0, 64), rtos.Periodic(t1, 3, 0, 4096)
	runAlloc(t, prog, long, cfg) // warm up lazily built program state
	// Take the least of a few runs so a stray allocation elsewhere in the
	// process cannot fail the test.
	small, large := uint64(1<<62), uint64(1<<62)
	for i := 0; i < 3; i++ {
		small = min(small, runAlloc(t, prog, short, cfg))
		large = min(large, runAlloc(t, prog, long, cfg))
	}
	// The 4032 extra events would need 96 KiB in a stored queue.
	if large > small+4<<10 {
		t.Fatalf("RunRobust allocated %d B for 4096 events vs %d B for 64: the unbounded queue stores events", large, small)
	}
}

// BenchmarkMarginSearch is the timing pass's shape: one fault-free run
// on Figure 4 (calibrating the deadline) followed by the burst and
// overrun margin searches under (m,k) = (9,10).
func BenchmarkMarginSearch(b *testing.B) {
	n := figures.Figure4()
	s, err := core.Solve(n, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := codegen.Generate(s, tp)
	if err != nil {
		b.Fatal(err)
	}
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 3, 0, 32)
	cfg := MarginConfig{MK: timing.Constraint{M: 9, K: 10}, Seed: 1, Robust: RobustConfig{CyclesPerTick: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nom, err := RunNominal(prog, events, rtos.DefaultCostModel(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []OverloadKind{OverloadBurst, OverloadOverrun} {
			if _, err := nom.SearchMargin(kind, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}
