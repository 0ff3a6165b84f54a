package main

import (
	"fmt"
	"sort"
	"strings"

	"fcpn/internal/engine"
	"fcpn/internal/petri"
)

// checkReport holds an engine report against what is known about the net
// without internal/core: the verdict the net has by construction or by the
// paper's figures, and, for a schedulable net, one schedule cycle per
// reported T-reduction. Each cycle fires from the initial marking under
// the petri firing rule and returns the net to it, fires every source
// transition, and fires exactly the transitions its T-reduction keeps;
// no two cycles cover the same T-reduction.
func checkReport(n *petri.Net, it item, rep *engine.NetReport, wantTiming bool) error {
	if rep == nil {
		return fmt.Errorf("%s: no report", it.Name)
	}
	if rep.Schedulable != it.Want {
		return fmt.Errorf("%s: schedulable = %v, want %v (%s)", it.Name, rep.Schedulable, it.Want, rep.ScheduleError)
	}
	if !it.Want {
		return nil
	}
	if rep.Schedule == nil || len(rep.Schedule.Cycles) == 0 {
		return fmt.Errorf("%s: schedulable without schedule cycles", it.Name)
	}
	if len(rep.Schedule.Cycles) != len(rep.Reductions) {
		return fmt.Errorf("%s: %d schedule cycles for %d T-reductions", it.Name, len(rep.Schedule.Cycles), len(rep.Reductions))
	}
	reduction := map[string]int{}
	for i, kept := range rep.Reductions {
		reduction[strings.Join(kept, "\x00")] = i
	}
	covered := make([]bool, len(rep.Reductions))
	init := n.InitialMarking()
	for c, cyc := range rep.Schedule.Cycles {
		if len(cyc.Sequence) == 0 {
			return fmt.Errorf("%s: cycle %d is empty", it.Name, c)
		}
		m := n.InitialMarking()
		fired := map[string]bool{}
		for k, name := range cyc.Sequence {
			t, ok := n.TransitionByName(name)
			if !ok {
				return fmt.Errorf("%s: cycle %d names unknown transition %q", it.Name, c, name)
			}
			if err := n.Fire(m, t); err != nil {
				return fmt.Errorf("%s: cycle %d step %d: %v", it.Name, c, k, err)
			}
			fired[name] = true
		}
		if !m.Equal(init) {
			return fmt.Errorf("%s: cycle %d ends at %s, not the initial marking %s", it.Name, c, m, init)
		}
		for _, src := range n.SourceTransitions() {
			if !fired[n.TransitionName(src)] {
				return fmt.Errorf("%s: cycle %d never fires source %s", it.Name, c, n.TransitionName(src))
			}
		}
		set := make([]string, 0, len(fired))
		for name := range fired {
			set = append(set, name)
		}
		sort.Strings(set)
		i, ok := reduction[strings.Join(set, "\x00")]
		switch {
		case !ok:
			return fmt.Errorf("%s: cycle %d fires %v, the kept transitions of no reported T-reduction", it.Name, c, set)
		case covered[i]:
			return fmt.Errorf("%s: cycle %d covers T-reduction %d a second time", it.Name, c, i)
		}
		covered[i] = true
	}
	if wantTiming && rep.Timing == nil {
		return fmt.Errorf("%s: schedulable net without timing verdict", it.Name)
	}
	return nil
}
