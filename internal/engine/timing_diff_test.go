package engine

import (
	"encoding/json"
	"testing"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/fault"
	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

// referenceTiming is the four-run timing sequence checkTiming replaced,
// kept as the simplest reference: a calibration run, a nominal run under
// the deadline, then per kind a bisection whose level 0 runs the
// unperturbed workload once more.
func referenceTiming(t *testing.T, prog *codegen.Program, events []rtos.Event, opts TimingOptions, hooks func() sim.Hooks) *TimingReport {
	t.Helper()
	cost := rtos.DefaultCostModel()
	deadline := opts.Deadline
	if deadline == 0 {
		var err error
		deadline, err = sim.CalibrateDeadline(prog, events, cost,
			sim.RobustConfig{CyclesPerTick: 1}, hooks(), sim.DefaultDeadlineFactor)
		if err != nil {
			t.Fatal(err)
		}
	}
	rm, err := sim.RunRobust(prog, events, cost,
		sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline, MK: opts.MK}, hooks())
	if err != nil {
		t.Fatal(err)
	}
	trep := &TimingReport{
		MK:              opts.MK.String(),
		Deadline:        deadline,
		EventsPerSource: opts.EventsPerSource,
		Seed:            opts.Seed,
		Verdict:         rm.Timing,
	}
	if !opts.Margin {
		return trep
	}
	ceilings := map[sim.OverloadKind]int{
		sim.OverloadBurst: 64, sim.OverloadJitter: 1 << 12, sim.OverloadDrop: 100, sim.OverloadOverrun: 700,
	}
	for _, kind := range opts.MarginKinds {
		ceiling := opts.MarginCeiling
		if ceiling <= 0 {
			ceiling = ceilings[kind]
		}
		if kind == sim.OverloadDrop && ceiling > 100 {
			ceiling = 100
		}
		res, err := timing.SearchMargin(ceiling, func(level int) (*timing.Verdict, error) {
			rcfg := sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline, MK: opts.MK}
			var inj []fault.Injector
			switch kind {
			case sim.OverloadBurst:
				inj = []fault.Injector{fault.Burst{Pct: 100, Extra: level, Source: fault.AnySource}}
			case sim.OverloadJitter:
				inj = []fault.Injector{fault.JitterTicks{Window: int64(level), Source: fault.AnySource}}
			case sim.OverloadDrop:
				inj = []fault.Injector{fault.Drop{Pct: level, Source: fault.AnySource}}
			case sim.OverloadOverrun:
				rcfg.Jitter = &fault.CostJitter{Seed: opts.Seed, MaxPct: level}
			}
			stream := events
			if level > 0 && inj != nil {
				stream = fault.Scenario{Name: "margin-" + kind.String(), Seed: opts.Seed, Injectors: inj}.Apply(events)
			}
			rm, err := sim.RunRobust(prog, stream, cost, rcfg, hooks())
			if err != nil {
				return nil, err
			}
			return rm.Timing, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		trep.Margins = append(trep.Margins, &sim.OverloadMargin{Kind: kind.String(), Deadline: deadline, Result: res})
	}
	return trep
}

// timedProgram synthesises n's program the way the engine's timing pass
// does.
func timedProgram(t *testing.T, n *petri.Net) *codegen.Program {
	t.Helper()
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(sched, tp)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCheckTimingMatchesReference requires checkTiming's report to be
// byte-identical to the four-run reference for a calibrated deadline, a
// configured deadline so tight that level 0 fails, and every overload
// kind, while taking 1 + Σ(Probes − 1) runs, counted through the hooks
// constructor: one fault-free run, and no second level-0 run per kind.
func TestCheckTimingMatchesReference(t *testing.T) {
	allKinds := []sim.OverloadKind{sim.OverloadBurst, sim.OverloadJitter, sim.OverloadDrop, sim.OverloadOverrun}
	cases := []struct {
		name string
		opts TimingOptions
	}{
		{"calibrated", TimingOptions{MK: timing.Constraint{M: 9, K: 10}, Margin: true}},
		{"tight-deadline", TimingOptions{MK: timing.Constraint{M: 9, K: 10}, Deadline: 1, Margin: true, MarginKinds: allKinds}},
		{"every-kind", TimingOptions{MK: timing.Constraint{M: 9, K: 10}, Margin: true, MarginKinds: allKinds}},
		{"no-margin", TimingOptions{MK: timing.Constraint{M: 2, K: 3}}},
	}
	nets := []*petri.Net{figures.Figure4(), figures.Figure5()}
	for seed := uint64(0); seed < 4; seed++ {
		nets = append(nets, netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
	}
	for _, n := range nets {
		prog := timedProgram(t, n)
		cf := n.CanonicalForm()
		for _, tc := range cases {
			opts := tc.opts.normalized()
			events := timingWorkload(n, cf, opts)
			runs := 0
			hooks := func() sim.Hooks {
				runs++
				return sim.Hooks{Resolver: canonResolver(n, cf, opts.Seed)}
			}
			toMargin := 0
			got, err := checkTiming(prog, events, opts, hooks, func() { toMargin++ }, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", n.Name(), tc.name, err)
			}
			wantRuns := 1
			for _, om := range got.Margins {
				wantRuns += om.Result.Probes - 1
			}
			if runs != wantRuns {
				t.Errorf("%s/%s: %d runs, want 1 + Σ(Probes − 1) = %d", n.Name(), tc.name, runs, wantRuns)
			}
			wantMargin := 0
			if opts.Margin {
				wantMargin = 1
			}
			if toMargin != wantMargin {
				t.Errorf("%s/%s: toMargin called %d times, want %d", n.Name(), tc.name, toMargin, wantMargin)
			}
			if tc.name == "tight-deadline" {
				for _, om := range got.Margins {
					if om.Result.Level != -1 || om.Result.Probes != 1 {
						t.Errorf("%s: %s margin %s, want level -1 after 1 probe", n.Name(), om.Kind, om.Result)
					}
				}
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(referenceTiming(t, prog, events, opts, hooks))
			if string(gb) != string(wb) {
				t.Fatalf("%s/%s: timing report differs from the four-run reference:\n%s\nvs\n%s", n.Name(), tc.name, gb, wb)
			}
		}
	}
}
