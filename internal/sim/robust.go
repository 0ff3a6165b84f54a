package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// CostPerturber perturbs the kernel cost model per dispatch (task
// overruns). fault.CostJitter is the standard implementation; the
// interface keeps sim decoupled from the fault package.
type CostPerturber interface {
	Perturb(base rtos.CostModel, dispatch int64) rtos.CostModel
}

// RobustConfig parameterises a robust (fault-tolerant) run: a bounded
// ingress queue, a deadline watchdog, per-dispatch cost jitter, a step
// budget, and static buffer bounds to verify at runtime.
type RobustConfig struct {
	// CyclesPerTick converts workload timestamps into cycles (default 1).
	CyclesPerTick int64
	// Queue bounds event ingress; Capacity <= 0 keeps the idealised
	// unbounded queue, which stores nothing: its contents are the
	// arrivals admitted but not yet served.
	Queue rtos.QueueConfig
	// Deadline, in cycles, is the watchdog's per-event response budget;
	// 0 disables deadline accounting.
	Deadline int64
	// Jitter, when set, perturbs the cost model per dispatch.
	Jitter CostPerturber
	// StepBudget caps total interpreter ops; exceeding it terminates the
	// run with an error wrapping core.ErrBudgetExceeded (default 1 << 26).
	StepBudget int
	// Limits are sound per-place token bounds (entries < 0 are
	// unchecked). Peaks above a limit count as BoundViolations. Use
	// StructuralLimits for bounds valid under any interleaving.
	Limits []int
	// CycleLimits are the schedule's per-cycle buffer bounds
	// (Schedule.BufferBounds). Peaks above them are reported as
	// CycleExceedances — expected under overload backlog, hence
	// informational, not violations.
	CycleLimits []int
	// Modular runs the functional baseline's dynamic scheduler cascade
	// after each event.
	Modular bool
	// MK, when enabled, checks the run's deadline hit/miss stream (the
	// watchdog's Observe outcomes) against the weakly-hard (m,k)
	// constraint; the verdict lands in RobustMetrics.Timing. With
	// Deadline == 0 the watchdog is disabled, every event counts as a
	// hit, and the verdict is trivially satisfied.
	MK timing.Constraint
}

// PlaceBound records one place whose observed peak counter passed a
// static bound.
type PlaceBound struct {
	Place    petri.Place
	Name     string
	Observed int
	Bound    int
}

func (b PlaceBound) String() string {
	return fmt.Sprintf("%s: observed %d > bound %d", b.Name, b.Observed, b.Bound)
}

// RobustMetrics extends Metrics with the robustness layer's observations.
type RobustMetrics struct {
	Metrics
	// RejectedEvents counts arrivals refused under the Reject policy
	// (DroppedEvents counts both kinds of loss).
	RejectedEvents int64
	// ResponseMax/ResponseAvg summarise response times (queueing delay +
	// service) in cycles; WorstOverrun is the largest excess past the
	// deadline.
	ResponseMax, ResponseAvg, WorstOverrun int64
	// CPUBusy and Makespan describe the timeline in cycles.
	CPUBusy, Makespan int64
	// PeakCounters[p] is the per-place peak token count observed.
	PeakCounters []int
	// Violations details every BoundViolations entry (sorted by place).
	Violations []PlaceBound
	// CycleExceedances lists places whose peak passed the per-cycle
	// schedule bound: backlog buffering beyond one cycle, the graceful
	// degradation signal under overload.
	CycleExceedances []PlaceBound
	// Steps is the interpreter op count; BudgetExhausted reports whether
	// the run was cut off by the step budget.
	Steps           int
	BudgetExhausted bool
	// Timing is the weakly-hard (m,k) verdict over the served events'
	// hit/miss stream; nil unless RobustConfig.MK is enabled.
	Timing *timing.Verdict
}

// StructuralLimits derives sound per-place token bounds from the net's
// P-invariants: for any reachable marking — under any event interleaving,
// duplication or loss — a place covered by an invariant cannot exceed its
// bound. Places with no invariant cover get -1 (unchecked). These are the
// bounds RunRobust verifies as BoundViolations: a violation disproves the
// schedulability theorem's bounded-memory claim (or reveals a broken
// implementation), so valid schedules must report zero.
func StructuralLimits(n *petri.Net) ([]int, error) {
	pis, err := invariant.PInvariants(n, invariant.Options{})
	if err != nil {
		return nil, fmt.Errorf("sim: structural limits: %w", err)
	}
	return invariant.StructuralBounds(n, pis), nil
}

// ScheduleLimits returns the schedule's per-cycle buffer bounds — the
// paper's statically allocatable buffer sizes. They are exact for
// single-cycle run-to-completion execution and are reported as
// CycleExceedances (not violations) when cross-event backlog passes them.
func ScheduleLimits(s *core.Schedule) ([]int, error) { return s.BufferBounds() }

const defaultStepBudget = 1 << 26

// RunRobust drives a program against a (possibly fault-injected) workload
// on a single CPU with real arrival times, a bounded ingress queue, an
// optional deadline watchdog and per-dispatch cost jitter, verifying
// observed per-place peaks against static buffer bounds.
//
// Events need not be time-ordered; an ordered stream is read in place
// and an unordered one is stably sorted into a copy. The caller's slice
// is never modified.
//
// When the step budget runs out, the metrics collected so far are
// returned together with an error wrapping core.ErrBudgetExceeded.
func RunRobust(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg RobustConfig, hooks Hooks) (*RobustMetrics, error) {
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

	// A time-ordered stream (rtos.Merge and every fault.Injector yield
	// one) is read in place; only an unordered one is copied and sorted.
	ordered := events
	byTime := func(a, b rtos.Event) int { return cmp.Compare(a.Time, b.Time) }
	if !slices.IsSortedFunc(events, byTime) {
		ordered = slices.Clone(events)
		slices.SortStableFunc(ordered, byTime)
	}

	in := codegen.NewInterp(prog, hooks.Resolver)
	in.MaxOps = cfg.StepBudget
	k := rtos.NewKernel(cost)
	in.OnFire = fireHook(k, hooks)
	// An unbounded queue admits every arrival in order and serves FIFO,
	// so its contents are always ordered[head:next]: the kernel gets no
	// queue (Admit still charges the interrupt) and nothing is stored.
	// Only a bounded queue, which holds at most Capacity events, is real.
	if cfg.Queue.Capacity > 0 {
		k.Queue = rtos.NewEventQueue(cfg.Queue)
	}
	head := 0 // unbounded queue: index of the oldest waiting arrival
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
		var qe rtos.QueuedEvent
		var waiting bool
		switch {
		case k.Queue != nil:
			qe, waiting = k.Queue.Pop()
		case head < next:
			qe = rtos.QueuedEvent{Ev: ordered[head], Arrival: ordered[head].Time * cfg.CyclesPerTick}
			head++
			waiting = true
		}
		if !waiting {
			if next >= len(ordered) {
				break
			}
			clock = ordered[next].Time * cfg.CyclesPerTick // CPU idles
			continue
		}
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
	if k.Watch != nil {
		m.DeadlineMisses = k.Watch.Misses
	}
	rm := &RobustMetrics{
		Metrics:      *m,
		ResponseMax:  respMax,
		CPUBusy:      busy,
		Makespan:     clock,
		PeakCounters: append([]int(nil), in.Stats.MaxCounters...),
		Steps:        in.Stats.Ops,
	}
	if k.Queue != nil {
		rm.DroppedEvents = k.Queue.Lost()
		rm.RejectedEvents = k.Queue.Rejected
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

// boundCheck compares per-place peaks against limits (entries < 0 are
// unchecked), returning the offenders sorted by place index.
func boundCheck(n *petri.Net, peaks, limits []int) []PlaceBound {
	if limits == nil {
		return nil
	}
	var out []PlaceBound
	for p := 0; p < n.NumPlaces() && p < len(limits) && p < len(peaks); p++ {
		if limits[p] < 0 {
			continue
		}
		if peaks[p] > limits[p] {
			out = append(out, PlaceBound{
				Place:    petri.Place(p),
				Name:     n.PlaceName(petri.Place(p)),
				Observed: peaks[p],
				Bound:    limits[p],
			})
		}
	}
	return out
}
