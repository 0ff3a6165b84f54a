package atm

import (
	"errors"
	"fmt"
	"strings"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/fault"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

// RobustnessConfig parameterises the ATM robustness experiment: the base
// workload, the fault scenarios applied to it, and the kernel's overload
// protections.
type RobustnessConfig struct {
	// Workload is the nominal testbench the scenarios perturb.
	Workload WorkloadConfig
	// CyclesPerTick converts workload time units to cycles (default 400,
	// which loads the server moderately: one event's service is a few
	// hundred to a few thousand cycles).
	CyclesPerTick int64
	// Scenarios is the number of seeded fault scenarios (default 10).
	Scenarios int
	// FaultSeed seeds the scenario generator.
	FaultSeed uint64
	// BurstPct/BurstExtra shape cell bursts; DupPct duplicates events;
	// DropPct loses events; TickJitter reorders ticks by +-TickJitter
	// time units. Zero disables an injector; if all are zero, the mixed
	// default catalogue is used.
	BurstPct, BurstExtra, DupPct, DropPct int
	TickJitter                            int64
	// QueueCapacity bounds the ingress queue (0 = unbounded); Policy
	// selects the overflow behaviour.
	QueueCapacity int
	Policy        rtos.OverflowPolicy
	// Deadline is the watchdog's per-event response budget in cycles
	// (0 disables); OverrunPct is the worst-case per-dispatch task
	// overrun in percent (0 disables cost jitter).
	Deadline   int64
	OverrunPct int
	// StepBudget caps interpreter ops per scenario (0 = package default).
	StepBudget int
	// MK, when enabled, checks each scenario's deadline hit/miss stream
	// against the weakly-hard (m,k) constraint; a zero Deadline is then
	// calibrated from the fault-free run (sim.DefaultDeadlineFactor x the
	// nominal worst response).
	MK timing.Constraint
	// MarginKinds, with MK enabled, lists the overload kinds to
	// binary-search for the harshest intensity the constraint survives.
	MarginKinds []sim.OverloadKind
}

// ScenarioResult is one scenario's robustness measurements.
type ScenarioResult struct {
	Name      string
	Seed      uint64
	Injected  int // events after injection
	Served    int
	Dropped   int64
	Rejected  int64
	Misses    int64
	MaxPeak   int // largest per-place peak counter
	Violated  int // sound structural bounds exceeded (must be 0)
	Backlog   int // per-cycle schedule bounds exceeded (overload signal)
	Exhausted bool
	// Timing is the scenario's weakly-hard verdict (nil unless cfg.MK).
	Timing *timing.Verdict `json:",omitempty"`
}

// TimingSafety is the report's weakly-hard block: the constraint and
// deadline the scenarios were judged against, plus one overload-margin
// frontier per configured kind, searched on the fault-free testbench.
type TimingSafety struct {
	MK       string
	Deadline int64
	Margins  []*sim.OverloadMargin `json:",omitempty"`
}

// RobustnessReport is the deterministic outcome of RunRobustness: the same
// configuration reproduces the identical report byte-for-byte.
type RobustnessReport struct {
	Net       string
	Queue     rtos.QueueConfig
	Scenarios []ScenarioResult
	// Timing is present when RobustnessConfig.MK was enabled.
	Timing *TimingSafety `json:",omitempty"`
}

// Format renders the report as a fixed-width table.
func (r *RobustnessReport) Format() string {
	var b strings.Builder
	queue := "unbounded"
	if r.Queue.Capacity > 0 {
		queue = fmt.Sprintf("%d (%s)", r.Queue.Capacity, r.Queue.Policy)
	}
	fmt.Fprintf(&b, "robustness of net %q (ingress queue: %s)\n", r.Net, queue)
	fmt.Fprintf(&b, "  %-16s %18s %8s %8s %8s %8s %8s %10s %8s\n",
		"scenario", "seed", "events", "served", "dropped", "missed", "peak", "violations", "backlog")
	for _, s := range r.Scenarios {
		status := fmt.Sprintf("%d", s.Violated)
		if s.Exhausted {
			status += "!"
		}
		fmt.Fprintf(&b, "  %-16s %#18x %8d %8d %8d %8d %8d %10s %8d\n",
			s.Name, s.Seed, s.Injected, s.Served, s.Dropped+s.Rejected, s.Misses, s.MaxPeak, status, s.Backlog)
	}
	if r.Timing != nil {
		fmt.Fprintf(&b, "\nweakly-hard timing safety %s, deadline %d cycles\n", r.Timing.MK, r.Timing.Deadline)
		for _, s := range r.Scenarios {
			if s.Timing != nil {
				fmt.Fprintf(&b, "  %-16s %s\n", s.Name, s.Timing)
			}
		}
		for _, om := range r.Timing.Margins {
			fmt.Fprintf(&b, "  margin %-8s %s\n", om.Kind+":", om.Result)
		}
	}
	return b.String()
}

// TotalViolations sums sound-bound violations over all scenarios (zero for
// a valid schedule).
func (r *RobustnessReport) TotalViolations() int {
	total := 0
	for _, s := range r.Scenarios {
		total += s.Violated
	}
	return total
}

// RunRobustness synthesises the QSS implementation of the ATM server and
// replays the testbench under cfg.Scenarios seeded fault scenarios with a
// bounded ingress queue, watchdog and cost jitter, checking the observed
// buffer peaks against the net's structural (P-invariant) bounds and the
// schedule's per-cycle bounds.
func RunRobustness(cfg RobustnessConfig, cost rtos.CostModel) (*RobustnessReport, error) {
	if cfg.Scenarios <= 0 {
		cfg.Scenarios = 10
	}
	if cfg.CyclesPerTick <= 0 {
		cfg.CyclesPerTick = 400
	}
	m := New()
	sched, err := core.Solve(m.Net, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("atm: schedule: %w", err)
	}
	tp, err := core.PartitionTasks(m.Net, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("atm: partition: %w", err)
	}
	prog, err := codegen.Generate(sched, tp)
	if err != nil {
		return nil, fmt.Errorf("atm: codegen: %w", err)
	}
	limits, err := sim.StructuralLimits(m.Net)
	if err != nil {
		return nil, err
	}
	cycleLimits, err := sim.ScheduleLimits(sched)
	if err != nil {
		return nil, err
	}

	scenarios := cfg.scenarioSet(m)
	report := &RobustnessReport{
		Net:   m.Net.Name(),
		Queue: rtos.QueueConfig{Capacity: cfg.QueueCapacity, Policy: cfg.Policy},
	}
	// hooks builds a fresh server+feeder per run: the margin search and
	// the deadline calibration replay the testbench several times, and the
	// cell pipeline's state must not leak between probes.
	hooks := func() sim.Hooks {
		w := NewWorkload(m, cfg.Workload)
		server := NewServer(m, DefaultConfig())
		return sim.Hooks{
			Resolver:    server.Resolver(),
			OnFire:      server.OnFire,
			BeforeEvent: w.CellFeeder(m, server),
		}
	}
	deadline := cfg.Deadline
	if cfg.MK.Enabled() {
		if err := cfg.MK.Validate(); err != nil {
			return nil, fmt.Errorf("atm: %w", err)
		}
		if deadline == 0 {
			// The calibrating run keeps the idealised unbounded queue, while
			// the margin probes below run the configured one, so it cannot
			// double as their level 0.
			nominal := NewWorkload(m, cfg.Workload).Events
			nom, err := sim.RunNominal(prog, nominal, cost, sim.MarginConfig{
				MK:     cfg.MK,
				Robust: sim.RobustConfig{CyclesPerTick: cfg.CyclesPerTick, StepBudget: cfg.StepBudget},
				Hooks:  hooks,
			})
			if err != nil {
				return nil, fmt.Errorf("atm: calibrating deadline: %w", err)
			}
			deadline = nom.Deadline
		}
		report.Timing = &TimingSafety{MK: cfg.MK.String(), Deadline: deadline}
	}
	for _, sc := range scenarios {
		w := NewWorkload(m, cfg.Workload)
		events := sc.Apply(w.Events)
		server := NewServer(m, DefaultConfig())
		var jitter sim.CostPerturber
		if cfg.OverrunPct > 0 {
			jitter = &fault.CostJitter{Seed: sc.Seed, MaxPct: cfg.OverrunPct}
		}
		rm, err := sim.RunRobust(prog, events, cost, sim.RobustConfig{
			CyclesPerTick: cfg.CyclesPerTick,
			Queue:         report.Queue,
			Deadline:      deadline,
			MK:            cfg.MK,
			Jitter:        jitter,
			StepBudget:    cfg.StepBudget,
			Limits:        limits,
			CycleLimits:   cycleLimits,
		}, sim.Hooks{
			Resolver:    server.Resolver(),
			OnFire:      server.OnFire,
			BeforeEvent: w.CellFeeder(m, server),
		})
		if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
			return nil, fmt.Errorf("atm: scenario %s: %w", sc.Name, err)
		}
		maxPeak := 0
		for _, p := range rm.PeakCounters {
			if p > maxPeak {
				maxPeak = p
			}
		}
		report.Scenarios = append(report.Scenarios, ScenarioResult{
			Name:      sc.Name,
			Seed:      sc.Seed,
			Injected:  len(events),
			Served:    rm.Events,
			Dropped:   rm.DroppedEvents - rm.RejectedEvents,
			Rejected:  rm.RejectedEvents,
			Misses:    rm.DeadlineMisses,
			MaxPeak:   maxPeak,
			Violated:  rm.BoundViolations,
			Backlog:   len(rm.CycleExceedances),
			Exhausted: rm.BudgetExhausted,
			Timing:    rm.Timing,
		})
	}
	if report.Timing != nil && len(cfg.MarginKinds) > 0 {
		nominal := NewWorkload(m, cfg.Workload).Events
		for _, kind := range cfg.MarginKinds {
			om, err := sim.SearchOverloadMargin(prog, nominal, cost, sim.MarginConfig{
				Kind: kind,
				MK:   cfg.MK,
				Seed: cfg.FaultSeed,
				Robust: sim.RobustConfig{
					CyclesPerTick: cfg.CyclesPerTick,
					Queue:         report.Queue,
					Deadline:      deadline,
					StepBudget:    cfg.StepBudget,
				},
				Hooks: hooks,
			})
			if err != nil {
				return nil, fmt.Errorf("atm: margin %s: %w", kind, err)
			}
			report.Timing.Margins = append(report.Timing.Margins, om)
		}
	}
	return report, nil
}

// scenarioSet builds the scenario list: explicitly configured injectors
// when any fault knob is set, the mixed default catalogue otherwise.
func (cfg RobustnessConfig) scenarioSet(m *Model) []fault.Scenario {
	custom := cfg.BurstPct > 0 || cfg.DupPct > 0 || cfg.DropPct > 0 || cfg.TickJitter > 0
	if !custom {
		return fault.DefaultScenarios(cfg.Scenarios, cfg.FaultSeed)
	}
	var injs []fault.Injector
	if cfg.BurstPct > 0 {
		extra := cfg.BurstExtra
		if extra <= 0 {
			extra = 3
		}
		injs = append(injs, fault.Burst{Pct: cfg.BurstPct, Extra: extra, Source: m.Cell})
	}
	if cfg.DupPct > 0 {
		injs = append(injs, fault.Duplicate{Pct: cfg.DupPct, Source: fault.AnySource})
	}
	if cfg.DropPct > 0 {
		injs = append(injs, fault.Drop{Pct: cfg.DropPct, Source: fault.AnySource})
	}
	if cfg.TickJitter > 0 {
		injs = append(injs, fault.JitterTicks{Window: cfg.TickJitter, Source: m.Tick})
	}
	out := make([]fault.Scenario, cfg.Scenarios)
	base := fault.DefaultScenarios(cfg.Scenarios, cfg.FaultSeed)
	for i := range out {
		out[i] = fault.Scenario{
			Name:      fmt.Sprintf("custom-%02d", i+1),
			Seed:      base[i].Seed,
			Injectors: injs,
		}
	}
	return out
}
