package core

import (
	"encoding/json"
	"fmt"

	"fcpn/internal/petri"
)

// ScheduleExport is the serialisable form of a valid schedule: everything
// a downstream tool needs to regenerate or audit the synthesis, with nodes
// referenced by name.
type ScheduleExport struct {
	Net         string `json:"net"`
	Allocations int    `json:"allocations"`
	// AllocationsSaturated marks Allocations as the math.MaxInt ceiling
	// (the true T-allocation product overflowed int), so downstream tools
	// never mistake the cap for a real count.
	AllocationsSaturated bool          `json:"allocation_count_saturated,omitempty"`
	Cycles               []CycleExport `json:"cycles"`
}

// CycleExport is one finite complete cycle in name form.
type CycleExport struct {
	// Choices maps each choice place to the transition the cycle's
	// T-allocation selected.
	Choices map[string]string `json:"choices"`
	// Sequence is the firing order.
	Sequence []string `json:"sequence"`
	// Counts is the firing-count vector, transitions with zero count
	// omitted.
	Counts map[string]int `json:"counts"`
}

// Export converts the schedule to its serialisable form.
func (s *Schedule) Export() *ScheduleExport {
	out := &ScheduleExport{
		Net:                  s.Net.Name(),
		Allocations:          s.AllocationCount,
		AllocationsSaturated: s.AllocationCountSaturated,
	}
	for _, c := range s.Cycles {
		alloc := c.Reduction.Allocation
		choices, fired := 0, 0
		for _, cluster := range alloc.Clusters {
			choices += len(cluster.Places)
		}
		for _, k := range c.Counts {
			if k > 0 {
				fired++
			}
		}
		ce := CycleExport{
			Choices:  make(map[string]string, choices),
			Sequence: s.Net.SequenceNames(c.Sequence),
			Counts:   make(map[string]int, fired),
		}
		for i, cluster := range alloc.Clusters {
			for _, p := range cluster.Places {
				ce.Choices[s.Net.PlaceName(p)] = s.Net.TransitionName(alloc.Chosen[i])
			}
		}
		for t, k := range c.Counts {
			if k > 0 {
				ce.Counts[s.Net.TransitionName(petri.Transition(t))] = k
			}
		}
		out.Cycles = append(out.Cycles, ce)
	}
	return out
}

// MarshalJSON serialises the schedule through its export form.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Export())
}

// ImportSchedule reconstructs a Schedule from its export form against the
// given net and validates it fully: every referenced node must exist,
// every cycle must be a finite complete cycle consistent with its declared
// choice resolutions, and the cycle set must cover every distinct
// T-reduction of the net (Theorem 3.1's completeness). It returns a
// descriptive error otherwise — the entry point for schedules produced by
// external tools.
func ImportSchedule(n *petri.Net, ex *ScheduleExport) (*Schedule, error) {
	if ex == nil {
		return nil, fmt.Errorf("core: nil schedule export")
	}
	clusters := n.FreeChoiceSets()
	count, saturated := CountAllocationsSat(n)
	sched := &Schedule{Net: n, AllocationCount: count, AllocationCountSaturated: saturated}
	seen := map[string]bool{}
	for ci, ce := range ex.Cycles {
		seq := make([]petri.Transition, len(ce.Sequence))
		for i, name := range ce.Sequence {
			t, ok := n.TransitionByName(name)
			if !ok {
				return nil, fmt.Errorf("core: cycle %d: unknown transition %q", ci, name)
			}
			seq[i] = t
		}
		if err := VerifyCompleteCycle(n, seq); err != nil {
			return nil, fmt.Errorf("core: cycle %d: %w", ci, err)
		}
		counts := n.FiringCount(seq)
		// Rebuild the allocation from the declared choices, defaulting
		// unnamed clusters to their first alternative.
		chosen := make([]petri.Transition, len(clusters))
		for i, c := range clusters {
			chosen[i] = c.Transitions[0]
			for _, p := range c.Places {
				if name, ok := ce.Choices[n.PlaceName(p)]; ok {
					t, tok := n.TransitionByName(name)
					if !tok {
						return nil, fmt.Errorf("core: cycle %d: unknown choice target %q", ci, name)
					}
					found := false
					for _, alt := range c.Transitions {
						if alt == t {
							found = true
						}
					}
					if !found {
						return nil, fmt.Errorf("core: cycle %d: %q is not an alternative of choice %q",
							ci, name, n.PlaceName(p))
					}
					chosen[i] = t
				}
			}
		}
		// The cycle must not fire any transition its allocation excludes.
		alloc := &Allocation{Clusters: clusters, Chosen: chosen}
		for t, k := range counts {
			if k > 0 && !alloc.Allocated(petri.Transition(t)) {
				return nil, fmt.Errorf("core: cycle %d fires %s, excluded by its declared choices",
					ci, n.TransitionName(petri.Transition(t)))
			}
		}
		red := Reduce(n, alloc)
		key := red.TransitionSetKey()
		if seen[key] {
			return nil, fmt.Errorf("core: cycle %d duplicates the T-reduction of an earlier cycle", ci)
		}
		seen[key] = true
		// Completeness per reduction: every kept transition fires.
		for _, pt := range red.KeptTransitions() {
			if counts[pt] == 0 {
				return nil, fmt.Errorf("core: cycle %d misses transition %s of its T-reduction",
					ci, n.TransitionName(pt))
			}
		}
		sched.Cycles = append(sched.Cycles, Cycle{Sequence: seq, Counts: counts, Reduction: red})
	}
	// Coverage: one cycle per distinct T-reduction of the net.
	want, err := EnumerateDistinctReductions(n, 0)
	if err != nil {
		return nil, err
	}
	if len(sched.Cycles) != len(want) {
		return nil, fmt.Errorf("core: schedule has %d cycles, net has %d distinct T-reductions",
			len(sched.Cycles), len(want))
	}
	return sched, nil
}
