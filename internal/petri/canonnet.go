package petri

import (
	"fmt"
	"sort"
)

// CanonicalNet materialises the canonical relabelling as a standalone
// net: places and transitions are created in canonical position order
// under position-derived names ("p3", "t0"), arcs are inserted per
// transition sorted by canonical place position, and the initial marking
// is carried over. Every member of an isomorphism class therefore
// materialises the exact same twin — identical structure in identical
// index order — so any computation whose result depends on index order
// (the schedule search above all: it explores allocations and firings in
// index order and may return any of several valid schedules) becomes
// isomorphism-invariant when run on the twin instead of the original.
//
// The twin's canonical form is set at build time to what refinement would
// compute: the identity relabelling under n's hash. Hash-keyed caches
// thus answer the twin from entries computed for n.
//
// The twin is rebuilt on each call; callers that need it repeatedly
// should keep the returned net.
func (n *Net) CanonicalNet() *Net {
	cf := n.CanonicalForm()
	tag := cf.Hash
	if len(tag) > 12 {
		tag = tag[:12]
	}
	b := NewBuilder("canonical_" + tag)
	mark := n.initialMark
	places := make([]Place, len(cf.PlaceAt))
	for pos, p := range cf.PlaceAt {
		places[pos] = b.MarkedPlace(fmt.Sprintf("p%d", pos), mark[p])
	}
	trans := make([]Transition, len(cf.TransAt))
	for pos := range cf.TransAt {
		trans[pos] = b.Transition(fmt.Sprintf("t%d", pos))
	}
	for pos, t := range cf.TransAt {
		pre := append([]ArcRef(nil), n.Pre(t)...)
		sort.Slice(pre, func(i, j int) bool {
			return cf.PlacePos[pre[i].Place] < cf.PlacePos[pre[j].Place]
		})
		for _, a := range pre {
			b.WeightedArc(places[cf.PlacePos[a.Place]], trans[pos], a.Weight)
		}
		post := append([]ArcRef(nil), n.Post(t)...)
		sort.Slice(post, func(i, j int) bool {
			return cf.PlacePos[post[i].Place] < cf.PlacePos[post[j].Place]
		})
		for _, a := range post {
			b.WeightedArcTP(trans[pos], places[cf.PlacePos[a.Place]], a.Weight)
		}
	}
	twin := b.Build()
	id := identityForm(len(cf.PlaceAt), len(cf.TransAt))
	id.Hash = cf.Hash
	twin.canonOnce.Do(func() { twin.canon = id })
	return twin
}
