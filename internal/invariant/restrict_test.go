package invariant

import (
	"reflect"
	"testing"

	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// adjacentPlaces returns every place some kept transition reads or writes
// — the minimal place set under which RestrictTInvariants is exact.
func adjacentPlaces(n *petri.Net, keepT []petri.Transition) []petri.Place {
	seen := map[petri.Place]bool{}
	var out []petri.Place
	for _, t := range keepT {
		for _, a := range n.Pre(t) {
			if !seen[a.Place] {
				seen[a.Place] = true
				out = append(out, a.Place)
			}
		}
		for _, a := range n.Post(t) {
			if !seen[a.Place] {
				seen[a.Place] = true
				out = append(out, a.Place)
			}
		}
	}
	return out
}

// restrict runs RestrictTInvariants on the subnet of n induced by keepT
// (ascending) and keepP, handing it the kept-node bitsets and the local
// index table the way the schedulability check does.
func restrict(n *petri.Net, keepT []petri.Transition, keepP []petri.Place, parentTIs []TInvariant) ([]TInvariant, bool) {
	keptT, keptP := petri.NewNodeSet(n.NumTransitions()), petri.NewNodeSet(n.NumPlaces())
	for _, t := range keepT {
		keptT.Add(int(t))
	}
	for _, p := range keepP {
		keptP.Add(int(p))
	}
	return RestrictTInvariants(n, keptT, keptP, keepT, parentTIs)
}

// checkRestriction builds the induced subnet, derives its invariants by
// restriction and differentially compares against a from-scratch Farkas
// run whenever the restriction claims exactness.
func checkRestriction(t *testing.T, n *petri.Net, keepT []petri.Transition, keepP []petri.Place) (exercisedExact bool) {
	t.Helper()
	parentTIs, err := TInvariants(n, Options{})
	if err != nil {
		return false
	}
	got, ok := restrict(n, keepT, keepP, parentTIs)
	if !ok {
		return false
	}
	want, err := TInvariants(n.InducedSubnet("sub", keepT, keepP).Net, Options{})
	if err != nil {
		t.Fatalf("from-scratch invariants failed on restrictable subnet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restricted invariants diverge from Farkas:\nparent=%v keepT=%v keepP=%v\n got %v\nwant %v",
			parentTIs, keepT, keepP, got, want)
	}
	return true
}

func TestRestrictTInvariantsExactOnAdjacencyClosedSubnets(t *testing.T) {
	exact := 0
	for seed := uint64(1); seed <= 20; seed++ {
		n := netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		// Keep every other transition; keep exactly the adjacent places so
		// the exactness condition holds by construction.
		var keepT []petri.Transition
		for ti := 0; ti < n.NumTransitions(); ti++ {
			if ti%2 == 0 {
				keepT = append(keepT, petri.Transition(ti))
			}
		}
		if checkRestriction(t, n, keepT, adjacentPlaces(n, keepT)) {
			exact++
		}
	}
	if exact == 0 {
		t.Fatal("no seed exercised the exact path")
	}
}

func TestRestrictTInvariantsRefusesDroppedAdjacentPlace(t *testing.T) {
	// t1 -> p -> t2: keeping both transitions but dropping p removes p's
	// equation, so the subnet cone strictly grows (any vector becomes a
	// semiflow) and restriction must refuse.
	b := petri.NewBuilder("line")
	t1 := b.Transition("t1")
	p := b.Place("p")
	t2 := b.Transition("t2")
	b.ArcTP(t1, p)
	b.Arc(p, t2)
	n := b.Build()
	if _, ok := restrict(n, []petri.Transition{t1, t2}, nil, nil); ok {
		t.Fatal("restriction accepted a subnet that dropped an adjacent place")
	}
	// Keeping only the producer t1 without p: p is adjacent through t1's
	// postset alone, and the subnet gains the semiflow [1] that no parent
	// semiflow restricts to.
	if _, ok := restrict(n, []petri.Transition{t1}, nil, nil); ok {
		t.Fatal("restriction accepted a subnet that dropped an output place of a kept transition")
	}
}

func TestRestrictTInvariantsIdentity(t *testing.T) {
	// Keeping everything restricts to exactly the parent's invariants.
	n := netgen.RandomSchedulablePipeline(7, netgen.DefaultConfig())
	var keepT []petri.Transition
	for ti := 0; ti < n.NumTransitions(); ti++ {
		keepT = append(keepT, petri.Transition(ti))
	}
	var keepP []petri.Place
	for p := 0; p < n.NumPlaces(); p++ {
		keepP = append(keepP, petri.Place(p))
	}
	if !checkRestriction(t, n, keepT, keepP) {
		t.Fatal("identity subnet must be exactly restrictable")
	}
}

// FuzzRestrictTInvariants differentially fuzzes the incremental restriction
// against the from-scratch Farkas reference: whenever RestrictTInvariants
// claims exactness, its output must equal TInvariants on the subnet byte
// for byte (same vectors, same deterministic order). Transition and place
// subsets are driven by the fuzzed masks; the adjacency-closed variant
// guarantees the exact path stays exercised.
func FuzzRestrictTInvariants(f *testing.F) {
	f.Add(uint64(1), uint64(0x55), uint64(0))
	f.Add(uint64(2), uint64(0xff), uint64(0x3))
	f.Add(uint64(9), uint64(0x13), uint64(0x7f))
	f.Fuzz(func(t *testing.T, seed, tMask, pDrop uint64) {
		for _, gen := range []func(uint64, netgen.Config) *petri.Net{
			netgen.RandomSchedulablePipeline,
			netgen.RandomNet,
		} {
			n := gen(seed, netgen.DefaultConfig())
			if n.Validate() != nil {
				continue
			}
			var keepT []petri.Transition
			for ti := 0; ti < n.NumTransitions(); ti++ {
				if tMask&(1<<(uint(ti)%64)) != 0 {
					keepT = append(keepT, petri.Transition(ti))
				}
			}
			parentTIs, err := TInvariants(n, Options{})
			if err != nil {
				continue
			}
			// Variant 1: adjacency-closed place set — must be exact.
			adj := adjacentPlaces(n, keepT)
			got, ok := restrict(n, keepT, adj, parentTIs)
			if !ok {
				t.Fatalf("seed=%d: adjacency-closed subnet refused", seed)
			}
			want, err := TInvariants(n.InducedSubnet("adj", keepT, adj).Net, Options{})
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d tMask=%x: restricted %v != scratch %v", seed, tMask, got, want)
			}
			// Variant 2: drop some adjacent places — restriction must
			// refuse once any is dropped, and otherwise still agree with
			// the reference.
			var cut []petri.Place
			for i, p := range adj {
				if pDrop&(1<<(uint(i)%64)) == 0 {
					cut = append(cut, p)
				}
			}
			if got2, ok := restrict(n, keepT, cut, parentTIs); ok {
				if len(cut) < len(adj) {
					t.Fatalf("seed=%d pDrop=%x: restriction accepted a place set missing %d adjacent places",
						seed, pDrop, len(adj)-len(cut))
				}
				want2, err := TInvariants(n.InducedSubnet("cut", keepT, cut).Net, Options{})
				if err == nil && !reflect.DeepEqual(got2, want2) {
					t.Fatalf("seed=%d pDrop=%x: claimed-exact restriction diverges: %v != %v",
						seed, pDrop, got2, want2)
				}
			}
		}
	})
}
