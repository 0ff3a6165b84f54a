package invariant

import "fcpn/internal/petri"

// RestrictTInvariants derives the minimal T-semiflows of the subnet of
// parent induced by the kept transitions keptT and kept places keptP,
// without running Farkas again and without materialising the subnet.
// local lists the members of keptT in ascending parent order: the subnet's
// transition order, so local[i] is the parent transition of subnet
// transition i and the result's counts are indexed the same way.
//
// It is exact precisely when every place adjacent to a kept transition is
// kept. Under that condition extension-by-zero maps every subnet semiflow
// to a parent semiflow (the dropped places' equations only mention dropped
// transitions, so they hold trivially), and restriction maps every parent
// semiflow supported inside the kept transition set back; the two maps are
// inverse cone isomorphisms, minimal supports correspond, and the Farkas
// GCD normalisation is preserved because restriction keeps the non-zero
// entries unchanged. The result is therefore byte-identical — including
// the deterministic sort order — to a from-scratch TInvariants run on the
// induced subnet (pinned by FuzzRestrictTInvariants).
//
// When the condition fails — the subnet dropped a place some kept
// transition still reads or writes — a place equation disappears, the
// subnet's semiflow cone can strictly grow, and the restricted set may be
// both incomplete and non-minimal. ok is then false and the caller must
// fall back to the from-scratch computation. (The QSS Hack reduction can
// hit this through rule 2(c): removing a transition also removes its
// source input places, which may still feed a surviving consumer — on a
// net that is not free-choice; a free-choice consumer of a shared place
// has it as its only input and is removed with it.)
//
// A parent semiflow whose support leaves keptT is skipped before anything
// is allocated for it, so the cost in memory is that of the semiflows the
// subnet keeps: one slice header each and one array for all their counts.
func RestrictTInvariants(parent *petri.Net, keptT, keptP petri.NodeSet, local []petri.Transition, parentTIs []TInvariant) ([]TInvariant, bool) {
	for _, t := range local {
		for _, a := range parent.Pre(t) {
			if !keptP.Has(int(a.Place)) {
				return nil, false
			}
		}
		for _, a := range parent.Post(t) {
			if !keptP.Has(int(a.Place)) {
				return nil, false
			}
		}
	}
	var stack [64]int
	keep := stack[:0]
	for i, ti := range parentTIs {
		if supportedBy(ti.Counts, keptT) {
			keep = append(keep, i)
		}
	}
	// The kept vectors share one backing array, each capped at its own
	// length so an append to one cannot overwrite the next.
	out := make([]TInvariant, len(keep))
	slab := make([]int, len(keep)*len(local))
	for k, i := range keep {
		counts := slab[k*len(local) : (k+1)*len(local) : (k+1)*len(local)]
		for j, t := range local {
			counts[j] = parentTIs[i].Counts[t]
		}
		out[k] = TInvariant{Counts: counts}
	}
	sortTInvariants(out)
	return out, true
}

// supportedBy reports whether every transition with a non-zero count is
// in kept.
func supportedBy(counts []int, kept petri.NodeSet) bool {
	for t, c := range counts {
		if c != 0 && !kept.Has(t) {
			return false
		}
	}
	return true
}
