package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fcpn/internal/petri"
)

// ErrCycleDeadlock is returned when the firing-count vector cannot be
// realised from the initial marking: the reduction deadlocks (the
// executability failure of the paper's footnote 2).
var ErrCycleDeadlock = errors.New("core: deadlock while realising T-invariant")

// FindCompleteCycle searches a firing sequence of the (conflict-free) net
// that fires each transition t exactly counts[t] times starting and ending
// at the initial marking: a finite complete cycle (Section 2).
//
// Conflict-free nets are persistent — no two transitions share an input
// place, so firing an enabled transition never disables another. Greedy
// simulation is therefore complete: if any realising sequence exists, the
// greedy one succeeds, and getting stuck proves deadlock. Transitions are
// tried in index order, giving a deterministic sequence.
//
// maxLen bounds the sequence length defensively.
func FindCompleteCycle(n *petri.Net, counts []int, maxLen int) ([]petri.Transition, error) {
	all := petri.NewNodeSet(n.NumPlaces())
	for p := 0; p < n.NumPlaces(); p++ {
		all.Add(p)
	}
	return findCompleteCycle(nil, n, n.Transitions(), all, counts, maxLen)
}

// findCompleteCycle is the greedy search of FindCompleteCycle on the
// subnet of n induced by the transitions local (ascending, which is the
// subnet's transition order) and the places keptP, run on n itself: the
// arcs from dropped places are ignored, and dropped places are never
// read. counts and the remaining-firings vector are indexed like
// local, and the sequence comes out in parent transitions. The
// work is proportional to the kept transitions' arcs. Every error message
// names subnet-local markings and counts, exactly as the search on the
// materialised subnet would.
//
// ctx (nil never cancels) is checked once per greedy sweep so a deadline
// can interrupt a realisation of up to maxLen (default 2^20) firings.
func findCompleteCycle(ctx context.Context, n *petri.Net, local []petri.Transition, keptP petri.NodeSet, counts []int, maxLen int) ([]petri.Transition, error) {
	if len(counts) != len(local) {
		return nil, fmt.Errorf("core: counts length %d != %d transitions", len(counts), len(local))
	}
	// One pooled scratch vector holds the marking m and the
	// remaining-firings vector. m first counts each kept place's kept
	// consumers — conflict-free means at most one — and then holds the
	// marking.
	buf := cycleScratch.Get().(*[]int)
	defer cycleScratch.Put(buf)
	if size := n.NumPlaces() + len(counts); cap(*buf) < size {
		*buf = make([]int, size)
	} else {
		*buf = (*buf)[:size]
		clear(*buf)
	}
	m, remaining := petri.Marking((*buf)[:n.NumPlaces()]), (*buf)[n.NumPlaces():]
	// Firing updates every arc; a dropped place's count is never read
	// back, since the enabling test skips dropped input places and only
	// kept places are compared and reported. That test needs the bitset
	// only when some kept transition reads a dropped place; mask stays nil
	// otherwise, which is always so for a reduction of a free-choice net.
	var mask petri.NodeSet
	for _, t := range local {
		for _, a := range n.Pre(t) {
			if !keptP.Has(int(a.Place)) {
				mask = keptP
				continue
			}
			if m[a.Place]++; m[a.Place] > 1 {
				return nil, errors.New("core: FindCompleteCycle requires a conflict-free net")
			}
		}
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("core: negative firing count %v", counts)
		}
		total += c
	}
	if total > maxLen {
		return nil, fmt.Errorf("core: cycle of %d firings exceeds cap %d: %w", total, maxLen, ErrBudgetExceeded)
	}
	for p := range m {
		m[p] = n.InitialTokens(petri.Place(p))
	}
	copy(remaining, counts)
	seq := make([]petri.Transition, 0, total)
	for len(seq) < total {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("cycle search interrupted after %d of %d firings: %w", len(seq), total, err)
		}
		fired := false
		for i, t := range local {
			if remaining[i] == 0 || !maskedEnabled(n, mask, m, t) {
				continue
			}
			for _, a := range n.Pre(t) {
				m[a.Place] -= a.Weight
			}
			for _, a := range n.Post(t) {
				m[a.Place] += a.Weight
			}
			remaining[i]--
			seq = append(seq, t)
			fired = true
		}
		if !fired {
			return nil, fmt.Errorf("%w: %d of %d firings done, stuck at %s with remaining %v",
				ErrCycleDeadlock, len(seq), total, keptMarking(m, keptP), remaining)
		}
	}
	for p, k := range m {
		if k != n.InitialTokens(petri.Place(p)) && keptP.Has(p) {
			return nil, fmt.Errorf("core: firing vector is not a T-invariant: final marking %s != initial %s",
				keptMarking(m, keptP), keptMarking(n.InitialMarking(), keptP))
		}
	}
	return seq, nil
}

// cycleScratch pools findCompleteCycle's marking and remaining-count
// storage: a sweep runs one search per reduction, and neither vector
// outlives the search.
var cycleScratch = sync.Pool{New: func() any { return new([]int) }}

// maskedEnabled reports whether t is enabled at m once its input arcs from
// places outside mask are ignored; a nil mask ignores none.
func maskedEnabled(n *petri.Net, mask petri.NodeSet, m petri.Marking, t petri.Transition) bool {
	for _, a := range n.Pre(t) {
		if m[a.Place] < a.Weight && (mask == nil || mask.Has(int(a.Place))) {
			return false
		}
	}
	return true
}

// keptMarking is m restricted to keptP: the subnet's marking, for error
// messages only.
func keptMarking(m petri.Marking, keptP petri.NodeSet) petri.Marking {
	out := petri.Marking{}
	for p, k := range m {
		if keptP.Has(p) {
			out = append(out, k)
		}
	}
	return out
}

// VerifyCompleteCycle replays seq on the net from the initial marking and
// checks it is a finite complete cycle: every firing enabled, final
// marking equal to the initial one.
func VerifyCompleteCycle(n *petri.Net, seq []petri.Transition) error {
	m := n.InitialMarking()
	if _, err := n.FireSequence(m, seq); err != nil {
		return err
	}
	if !m.Equal(n.InitialMarking()) {
		return fmt.Errorf("core: sequence ends at %s, not the initial marking %s", m, n.InitialMarking())
	}
	return nil
}
