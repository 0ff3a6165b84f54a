// Package petri implements the Petri-net kernel used throughout the
// repository: weighted place/transition nets, markings and the firing rule,
// structural queries (presets, postsets, clusters), the net subclasses that
// matter for quasi-static scheduling (marked graphs, conflict-free nets,
// free-choice nets, state machines) and incidence matrices.
//
// The model follows Murata's survey ("Petri nets: properties, analysis and
// applications", Proc. IEEE 1989) and the conventions of Sgroi et al.
// (DAC 1999): a net is a triple (P, T, F) with F : (T×P) ∪ (P×T) → ℕ the
// weighted flow relation. Source and sink transitions (empty preset or
// postset) model the environment and are first-class citizens.
package petri

import (
	"fmt"
	"sort"
	"sync"
)

// NodeKind distinguishes the two vertex classes of the bipartite net graph.
type NodeKind int

const (
	// PlaceNode identifies a place vertex.
	PlaceNode NodeKind = iota
	// TransitionNode identifies a transition vertex.
	TransitionNode
)

func (k NodeKind) String() string {
	switch k {
	case PlaceNode:
		return "place"
	case TransitionNode:
		return "transition"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Place is a typed index into a net's place set.
type Place int

// Transition is a typed index into a net's transition set.
type Transition int

// Arc is one weighted edge of the flow relation. Exactly one of the two
// directions is encoded by From/To kinds: place→transition (an input arc,
// consuming) or transition→place (an output arc, producing).
type Arc struct {
	FromKind NodeKind
	From     int
	To       int
	Weight   int
}

// Net is an immutable weighted place/transition net. Build one with a
// Builder; the zero Net is empty and valid.
//
// All per-node relations are precomputed at Build time so queries are O(1)
// or O(degree) and never allocate.
type Net struct {
	name        string
	placeNames  []string
	transNames  []string
	placeIndex  map[string]Place
	transIndex  map[string]Transition
	pre         [][]ArcRef // pre[t]: input arcs of transition t (place, weight)
	post        [][]ArcRef // post[t]: output arcs of transition t
	placeIn     [][]TArc   // placeIn[p]: producing transitions of p
	placeOut    [][]TArc   // placeOut[p]: consuming transitions of p
	initialMark Marking

	// canonOnce/canon memoise CanonicalForm: the net is immutable, so
	// the canonical relabelling is computed at most once per Net and
	// shared across goroutines (see hash.go).
	canonOnce sync.Once
	canon     *CanonicalForm
}

// ArcRef is a weighted reference from a transition to a place.
type ArcRef struct {
	Place  Place
	Weight int
}

// TArc is a weighted reference from a place to a transition.
type TArc struct {
	Transition Transition
	Weight     int
}

// Name reports the net's name (may be empty).
func (n *Net) Name() string { return n.name }

// NumPlaces reports |P|.
func (n *Net) NumPlaces() int { return len(n.placeNames) }

// NumTransitions reports |T|.
func (n *Net) NumTransitions() int { return len(n.transNames) }

// PlaceName reports the name of place p.
func (n *Net) PlaceName(p Place) string { return n.placeNames[p] }

// TransitionName reports the name of transition t.
func (n *Net) TransitionName(t Transition) string { return n.transNames[t] }

// PlaceByName looks a place up by name.
func (n *Net) PlaceByName(name string) (Place, bool) {
	p, ok := n.placeIndex[name]
	return p, ok
}

// TransitionByName looks a transition up by name.
func (n *Net) TransitionByName(name string) (Transition, bool) {
	t, ok := n.transIndex[name]
	return t, ok
}

// Pre returns the input arcs (preset with weights) of transition t.
// The returned slice must not be modified.
func (n *Net) Pre(t Transition) []ArcRef { return n.pre[t] }

// Post returns the output arcs (postset with weights) of transition t.
// The returned slice must not be modified.
func (n *Net) Post(t Transition) []ArcRef { return n.post[t] }

// Producers returns the transitions producing into place p, with weights.
func (n *Net) Producers(p Place) []TArc { return n.placeIn[p] }

// Consumers returns the transitions consuming from place p, with weights.
func (n *Net) Consumers(p Place) []TArc { return n.placeOut[p] }

// InitialMarking returns a copy of the net's initial marking μ0.
func (n *Net) InitialMarking() Marking { return n.initialMark.Clone() }

// InitialTokens returns μ0(p) without copying the marking.
func (n *Net) InitialTokens(p Place) int { return n.initialMark[p] }

// Weight reports F(p,t), the weight of the arc from place p to transition
// t, or zero when no such arc exists.
func (n *Net) Weight(p Place, t Transition) int {
	for _, a := range n.pre[t] {
		if a.Place == p {
			return a.Weight
		}
	}
	return 0
}

// WeightTP reports F(t,p), the weight of the arc from transition t to place
// p, or zero when no such arc exists.
func (n *Net) WeightTP(t Transition, p Place) int {
	for _, a := range n.post[t] {
		if a.Place == p {
			return a.Weight
		}
	}
	return 0
}

// Places returns all place indices in order. The slice is fresh.
func (n *Net) Places() []Place {
	ps := make([]Place, n.NumPlaces())
	for i := range ps {
		ps[i] = Place(i)
	}
	return ps
}

// Transitions returns all transition indices in order. The slice is fresh.
func (n *Net) Transitions() []Transition {
	ts := make([]Transition, n.NumTransitions())
	for i := range ts {
		ts[i] = Transition(i)
	}
	return ts
}

// SourceTransitions returns the transitions with empty preset. They model
// inputs from the environment (interrupts, periodic events).
func (n *Net) SourceTransitions() []Transition {
	var out []Transition
	for t := range n.pre {
		if len(n.pre[t]) == 0 {
			out = append(out, Transition(t))
		}
	}
	return out
}

// SinkTransitions returns the transitions with empty postset. They model
// outputs to the environment.
func (n *Net) SinkTransitions() []Transition {
	var out []Transition
	for t := range n.post {
		if len(n.post[t]) == 0 {
			out = append(out, Transition(t))
		}
	}
	return out
}

// SourcePlaces returns the places with empty preset.
func (n *Net) SourcePlaces() []Place {
	var out []Place
	for p := range n.placeIn {
		if len(n.placeIn[p]) == 0 {
			out = append(out, Place(p))
		}
	}
	return out
}

// SinkPlaces returns the places with empty postset.
func (n *Net) SinkPlaces() []Place {
	var out []Place
	for p := range n.placeOut {
		if len(n.placeOut[p]) == 0 {
			out = append(out, Place(p))
		}
	}
	return out
}

// ChoicePlaces returns the places with more than one output transition
// (called choices or conflicts in the paper).
func (n *Net) ChoicePlaces() []Place {
	var out []Place
	for p := range n.placeOut {
		if len(n.placeOut[p]) > 1 {
			out = append(out, Place(p))
		}
	}
	return out
}

// MergePlaces returns the places with more than one input transition.
func (n *Net) MergePlaces() []Place {
	var out []Place
	for p := range n.placeIn {
		if len(n.placeIn[p]) > 1 {
			out = append(out, Place(p))
		}
	}
	return out
}

// Arcs returns every arc of the flow relation in a deterministic order:
// first all place→transition arcs sorted by (place, transition), then all
// transition→place arcs sorted by (transition, place).
func (n *Net) Arcs() []Arc {
	var arcs []Arc
	for p := range n.placeOut {
		for _, ta := range n.placeOut[p] {
			arcs = append(arcs, Arc{PlaceNode, p, int(ta.Transition), ta.Weight})
		}
	}
	for t := range n.post {
		for _, pa := range n.post[t] {
			arcs = append(arcs, Arc{TransitionNode, t, int(pa.Place), pa.Weight})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].FromKind != arcs[j].FromKind {
			return arcs[i].FromKind == PlaceNode
		}
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return arcs
}

// String renders a compact multi-line description of the net, suitable for
// debugging and test failure messages.
func (n *Net) String() string {
	s := fmt.Sprintf("net %q: %d places, %d transitions\n", n.name, n.NumPlaces(), n.NumTransitions())
	for t := 0; t < n.NumTransitions(); t++ {
		s += "  " + n.transNames[t] + ":"
		for _, a := range n.pre[t] {
			s += fmt.Sprintf(" %s*%d ->", n.placeNames[a.Place], a.Weight)
		}
		if len(n.pre[t]) == 0 {
			s += " (source) ->"
		}
		for _, a := range n.post[t] {
			s += fmt.Sprintf(" -> %s*%d", n.placeNames[a.Place], a.Weight)
		}
		if len(n.post[t]) == 0 {
			s += " -> (sink)"
		}
		s += "\n"
	}
	return s
}
