package invariant

import (
	"reflect"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/petri"
)

func tinvs(t *testing.T, n *petri.Net) []TInvariant {
	t.Helper()
	tis, err := TInvariants(n, Options{})
	if err != nil {
		t.Fatalf("TInvariants(%s): %v", n.Name(), err)
	}
	return tis
}

func TestFigure2TInvariant(t *testing.T) {
	n := figures.Figure2()
	tis := tinvs(t, n)
	if len(tis) != 1 {
		t.Fatalf("got %d invariants, want 1: %v", len(tis), tis)
	}
	if want := []int{4, 2, 1}; !reflect.DeepEqual(tis[0].Counts, want) {
		t.Fatalf("f(σ) = %v, want %v (paper Figure 2)", tis[0].Counts, want)
	}
	if !Consistent(n, tis) {
		t.Fatal("figure 2 net is consistent")
	}
	if tis[0].TotalFirings() != 7 {
		t.Fatalf("TotalFirings = %d", tis[0].TotalFirings())
	}
}

func TestFigure3aTInvariants(t *testing.T) {
	n := figures.Figure3a()
	tis := tinvs(t, n)
	if len(tis) != 2 {
		t.Fatalf("got %d invariants: %v", len(tis), tis)
	}
	want := map[string]bool{"[1 1 0 1 0]": true, "[1 0 1 0 1]": true}
	for _, ti := range tis {
		if !want[ti.String()] {
			t.Fatalf("unexpected invariant %v (paper: a(1,1,0,1,0)+b(1,0,1,0,1))", ti)
		}
	}
	if !Consistent(n, tis) {
		t.Fatal("figure 3a is consistent")
	}
}

func TestFigure3bTInvariants(t *testing.T) {
	n := figures.Figure3b()
	tis := tinvs(t, n)
	if len(tis) != 1 {
		t.Fatalf("got %d invariants: %v", len(tis), tis)
	}
	if want := []int{2, 1, 1, 1}; !reflect.DeepEqual(tis[0].Counts, want) {
		t.Fatalf("f = %v, want %v (paper Figure 3b)", tis[0].Counts, want)
	}
	// Consistent as a whole — non-schedulability of 3b comes from the
	// reductions, not from inconsistency of the full net.
	if !Consistent(n, tis) {
		t.Fatal("figure 3b is consistent as a whole net")
	}
}

func TestFigure5TInvariants(t *testing.T) {
	n := figures.Figure5()
	tis := tinvs(t, n)
	// Paper (discussion of R1): (1,1,0,2,0,4,0,0,0) and (0,0,0,0,0,1,0,1,1)
	// are invariants of the reduction; both are also minimal invariants of
	// the full net, along with the t3-branch flow (1,0,1,0,1,0,2,0,0).
	want := map[string]bool{
		"[1 1 0 2 0 4 0 0 0]": true,
		"[0 0 0 0 0 1 0 1 1]": true,
		"[1 0 1 0 1 0 2 0 0]": true,
	}
	if len(tis) != len(want) {
		t.Fatalf("got %d invariants: %v", len(tis), tis)
	}
	for _, ti := range tis {
		if !want[ti.String()] {
			t.Fatalf("unexpected invariant %v", ti)
		}
	}
	if !Consistent(n, tis) {
		t.Fatal("figure 5 is consistent")
	}
}

func TestFigure7Inconsistency(t *testing.T) {
	n := figures.Figure7()
	tis := tinvs(t, n)
	// The full net IS consistent ((2,1,1,1,1,1,1) balances); the
	// inconsistency appears only in the reductions (tested in core).
	if !Consistent(n, tis) {
		t.Fatalf("figure 7 full net should be consistent, invariants: %v", tis)
	}
}

func TestInconsistentNet(t *testing.T) {
	// A chain place -> t with no producer: f(t) must be 0.
	b := petri.NewBuilder("inconsistent")
	p := b.Place("p")
	tr := b.Transition("t")
	b.Arc(p, tr)
	n := b.Build()
	tis := tinvs(t, n)
	if len(tis) != 0 {
		t.Fatalf("expected no invariants, got %v", tis)
	}
	if Consistent(n, tis) {
		t.Fatal("net must be inconsistent")
	}
	un := UncoveredTransitions(n.NumTransitions(), tis)
	if len(un) != 1 || un[0] != tr {
		t.Fatalf("UncoveredTransitions = %v", un)
	}
}

func TestTInvariantHelpers(t *testing.T) {
	ti := TInvariant{Counts: []int{2, 0, 1}}
	if got := ti.Support(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Support = %v", got)
	}
	if !ti.Contains(0) || ti.Contains(1) || ti.Contains(99) {
		t.Fatal("Contains wrong")
	}
}

func TestIsTInvariant(t *testing.T) {
	n := figures.Figure3a()
	if !IsTInvariant(n, []int{1, 1, 0, 1, 0}) {
		t.Fatal("(1,1,0,1,0) is an invariant of fig3a")
	}
	if !IsTInvariant(n, []int{2, 1, 1, 1, 1}) {
		t.Fatal("sums of invariants are invariants")
	}
	if IsTInvariant(n, []int{1, 0, 0, 0, 0}) {
		t.Fatal("(1,0,0,0,0) is not an invariant")
	}
	if IsTInvariant(n, []int{1}) {
		t.Fatal("length mismatch accepted")
	}
}

func TestPInvariants(t *testing.T) {
	// Closed cycle t1 -> p -> t2 -> q -> t1 conserves tokens: p+q const.
	b := petri.NewBuilder("cycle")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	p := b.MarkedPlace("p", 1)
	q := b.Place("q")
	b.Chain(t1, p, t2, q, t1)
	n := b.Build()
	pis, err := PInvariants(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pis) != 1 {
		t.Fatalf("PInvariants = %v", pis)
	}
	if want := []int{1, 1}; !reflect.DeepEqual(pis[0].Weights, want) {
		t.Fatalf("weights = %v", pis[0].Weights)
	}
	if !Conservative(n, pis) {
		t.Fatal("cycle is conservative")
	}
	if got := pis[0].TokenSum(n.InitialMarking()); got != 1 {
		t.Fatalf("TokenSum = %d", got)
	}
	if got := pis[0].Support(); len(got) != 2 {
		t.Fatalf("Support = %v", got)
	}

	// The conserved sum is invariant under firing.
	m := n.InitialMarking()
	n.MustFire(m, t2)
	if pis[0].TokenSum(m) != 1 {
		t.Fatalf("token sum changed by firing: %v", m)
	}
}

func TestOpenNetNotConservative(t *testing.T) {
	n := figures.Figure3a()
	pis, err := PInvariants(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Conservative(n, pis) {
		t.Fatal("net with sources and sinks cannot be conservative")
	}
}

func TestTooComplexPropagates(t *testing.T) {
	n := figures.Figure5()
	if _, err := TInvariants(n, Options{MaxRows: 1}); err == nil {
		t.Fatal("tiny cap must error")
	}
}
