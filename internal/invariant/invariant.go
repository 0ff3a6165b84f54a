// Package invariant computes structural invariants of Petri nets:
// T-invariants (firing-count vectors f ≥ 0 with fᵀ·D = 0, the candidate
// periods of cyclic schedules) and P-invariants (weightings y ≥ 0 with
// D·y = 0, conserved token sums). It also answers the consistency and
// conservativeness questions built on them.
//
// Minimal-support invariants are computed exactly with the Farkas algorithm
// from internal/linalg; every result is reported as plain []int firing
// counts (invariants of practical nets are small even when intermediate
// arithmetic is not).
package invariant

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"fcpn/internal/linalg"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// ErrTooComplex is returned when the Farkas enumeration exceeds its row cap.
var ErrTooComplex = errors.New("invariant: semiflow enumeration exceeded size cap")

// TInvariant is one minimal-support T-semiflow: Counts[t] is the number of
// firings of transition t in the invariant.
type TInvariant struct {
	Counts []int
}

// Support returns the transitions with non-zero count, ascending.
func (ti TInvariant) Support() []petri.Transition {
	var out []petri.Transition
	for t, c := range ti.Counts {
		if c != 0 {
			out = append(out, petri.Transition(t))
		}
	}
	return out
}

// Contains reports whether transition t fires in the invariant.
func (ti TInvariant) Contains(t petri.Transition) bool {
	return int(t) < len(ti.Counts) && ti.Counts[t] > 0
}

// TotalFirings is the length of any firing sequence realising the invariant.
func (ti TInvariant) TotalFirings() int {
	sum := 0
	for _, c := range ti.Counts {
		sum += c
	}
	return sum
}

// String renders the invariant as a firing-count vector.
func (ti TInvariant) String() string { return fmt.Sprint(ti.Counts) }

// PInvariant is one minimal-support P-semiflow: Weights[p] is the weight of
// place p in the conserved sum Σ Weights[p]·μ(p).
type PInvariant struct {
	Weights []int
}

// Support returns the places with non-zero weight, ascending.
func (pi PInvariant) Support() []petri.Place {
	var out []petri.Place
	for p, w := range pi.Weights {
		if w != 0 {
			out = append(out, petri.Place(p))
		}
	}
	return out
}

// TokenSum evaluates the conserved weighted token sum at marking m.
func (pi PInvariant) TokenSum(m petri.Marking) int {
	sum := 0
	for p, w := range pi.Weights {
		sum += w * m[p]
	}
	return sum
}

// String renders the invariant as a weight vector.
func (pi PInvariant) String() string { return fmt.Sprint(pi.Weights) }

// Options bounds the exact enumeration.
type Options struct {
	// MaxRows caps intermediate Farkas rows; 0 means the package default.
	MaxRows int
	// Trace optionally records one "invariant/farkas" detail span per
	// Farkas enumeration. Nil disables collection.
	Trace *trace.Tracer
}

// TInvariants returns all minimal-support T-semiflows of the net, sorted by
// support then counts for determinism.
func TInvariants(n *petri.Net, opt Options) ([]TInvariant, error) {
	// Equations: one per place, variables are transitions.
	d := n.IncidenceMatrix()
	a := linalg.NewMat(n.NumPlaces(), n.NumTransitions())
	for t := 0; t < n.NumTransitions(); t++ {
		for p := 0; p < n.NumPlaces(); p++ {
			a.Data[p][t].SetInt64(int64(d[t][p]))
		}
	}
	sp := opt.Trace.StartDetail("invariant/farkas")
	vecs, ok := linalg.MinimalSemiflowsTraced(a, opt.MaxRows, opt.Trace)
	sp.End()
	if !ok {
		return nil, ErrTooComplex
	}
	out := make([]TInvariant, 0, len(vecs))
	for _, v := range vecs {
		counts, fits := v.Ints()
		if !fits {
			return nil, fmt.Errorf("invariant: T-semiflow does not fit in int: %v", v)
		}
		out = append(out, TInvariant{Counts: counts})
	}
	sortTInvariants(out)
	return out, nil
}

// PInvariants returns all minimal-support P-semiflows of the net, sorted
// deterministically.
func PInvariants(n *petri.Net, opt Options) ([]PInvariant, error) {
	// Equations: one per transition, variables are places.
	d := n.IncidenceMatrix()
	a := linalg.NewMat(n.NumTransitions(), n.NumPlaces())
	for t := 0; t < n.NumTransitions(); t++ {
		for p := 0; p < n.NumPlaces(); p++ {
			a.Data[t][p].SetInt64(int64(d[t][p]))
		}
	}
	sp := opt.Trace.StartDetail("invariant/farkas")
	vecs, ok := linalg.MinimalSemiflowsTraced(a, opt.MaxRows, opt.Trace)
	sp.End()
	if !ok {
		return nil, ErrTooComplex
	}
	out := make([]PInvariant, 0, len(vecs))
	for _, v := range vecs {
		weights, fits := v.Ints()
		if !fits {
			return nil, fmt.Errorf("invariant: P-semiflow does not fit in int: %v", v)
		}
		out = append(out, PInvariant{Weights: weights})
	}
	sort.Slice(out, func(i, j int) bool { return lessInts(out[i].Weights, out[j].Weights) })
	return out, nil
}

// Consistent reports whether the net is consistent (Definition 2.1): there
// exists f > 0 (strictly positive on every transition) with fᵀ·D = 0.
// A net is consistent iff the sum of its minimal T-semiflows has full
// support, so the provided invariants (from TInvariants) decide the
// question exactly.
func Consistent(n *petri.Net, tis []TInvariant) bool {
	covered := make([]bool, n.NumTransitions())
	for _, ti := range tis {
		for t, c := range ti.Counts {
			if c > 0 {
				covered[t] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return n.NumTransitions() > 0
}

// Conservative reports whether there exists y > 0 with D·y = 0 (every
// place in some P-semiflow), the P-side dual of consistency.
func Conservative(n *petri.Net, pis []PInvariant) bool {
	covered := make([]bool, n.NumPlaces())
	for _, pi := range pis {
		for p, w := range pi.Weights {
			if w > 0 {
				covered[p] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return n.NumPlaces() > 0
}

// UncoveredTransitions lists the transitions 0..numT-1 not contained in
// any of the given T-invariants over numT transitions: the witnesses of
// inconsistency.
func UncoveredTransitions(numT int, tis []TInvariant) []petri.Transition {
	covered := make([]bool, numT)
	for _, ti := range tis {
		for t, c := range ti.Counts {
			if c > 0 {
				covered[t] = true
			}
		}
	}
	var out []petri.Transition
	for t, c := range covered {
		if !c {
			out = append(out, petri.Transition(t))
		}
	}
	return out
}

// IsTInvariant verifies fᵀ·D = 0 directly for an arbitrary firing-count
// vector (not necessarily minimal).
func IsTInvariant(n *petri.Net, counts []int) bool {
	if len(counts) != n.NumTransitions() {
		return false
	}
	d := n.IncidenceMatrix()
	for p := 0; p < n.NumPlaces(); p++ {
		sum := 0
		for t := 0; t < n.NumTransitions(); t++ {
			sum += counts[t] * d[t][p]
		}
		if sum != 0 {
			return false
		}
	}
	return true
}

func sortTInvariants(tis []TInvariant) {
	slices.SortFunc(tis, func(a, b TInvariant) int {
		switch {
		case lessInts(a.Counts, b.Counts):
			return -1
		case lessInts(b.Counts, a.Counts):
			return 1
		}
		return 0
	})
}

func lessInts(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] > b[i] // put vectors with earlier support first
		}
	}
	return len(a) < len(b)
}
