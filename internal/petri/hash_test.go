package petri

import (
	"reflect"
	"testing"
)

// fig3aLike builds the Figure-3a shape with controllable declaration order
// and names so the canonical hash's invariance claims can be tested
// without depending on internal/figures (which would be an import cycle).
func fig3aLike(reversed bool, rename func(string) string) *Net {
	b := NewBuilder("h")
	if rename == nil {
		rename = func(s string) string { return s }
	}
	names := []string{"p1", "p2", "p3", "p4"}
	tnames := []string{"t1", "t2", "t3", "t4", "t5"}
	if reversed {
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
		for i, j := 0, len(tnames)-1; i < j; i, j = i+1, j-1 {
			tnames[i], tnames[j] = tnames[j], tnames[i]
		}
	}
	for _, s := range names {
		b.Place(rename(s))
	}
	for _, s := range tnames {
		b.Transition(rename(s))
	}
	place := func(s string) Place { return b.placeIndex[rename(s)] }
	trans := func(s string) Transition { return b.transIndex[rename(s)] }
	b.Arc(place("p1"), trans("t2"))
	b.Arc(place("p1"), trans("t3"))
	b.ArcTP(trans("t1"), place("p1"))
	b.ArcTP(trans("t2"), place("p2"))
	b.ArcTP(trans("t3"), place("p3"))
	b.Arc(place("p2"), trans("t4"))
	b.Arc(place("p3"), trans("t5"))
	b.ArcTP(trans("t4"), place("p4"))
	b.ArcTP(trans("t5"), place("p4"))
	return b.Build()
}

func TestCanonicalHashInvariantUnderRenamingAndReorder(t *testing.T) {
	base := fig3aLike(false, nil)
	renamed := fig3aLike(false, func(s string) string { return "node_" + s })
	reordered := fig3aLike(true, nil)

	h := base.CanonicalHash()
	if h == "" || len(h) != 64 {
		t.Fatalf("bad hash %q", h)
	}
	if got := renamed.CanonicalHash(); got != h {
		t.Errorf("renaming changed the hash: %s vs %s", got, h)
	}
	if got := reordered.CanonicalHash(); got != h {
		t.Errorf("declaration reorder changed the hash: %s vs %s", got, h)
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := fig3aLike(false, nil)
	h := base.CanonicalHash()

	// Changed marking.
	b := NewBuilder("h")
	p := b.MarkedPlace("p", 1)
	tr := b.Transition("t")
	b.Arc(p, tr)
	marked := b.Build()

	b2 := NewBuilder("h")
	p2 := b2.Place("p")
	tr2 := b2.Transition("t")
	b2.Arc(p2, tr2)
	unmarked := b2.Build()

	if marked.CanonicalHash() == unmarked.CanonicalHash() {
		t.Error("marking change must change the hash")
	}

	// Changed weight.
	b3 := NewBuilder("h")
	p3 := b3.Place("p")
	tr3 := b3.Transition("t")
	b3.WeightedArc(p3, tr3, 2)
	if b3.Build().CanonicalHash() == unmarked.CanonicalHash() {
		t.Error("weight change must change the hash")
	}

	// A different structure entirely.
	if unmarked.CanonicalHash() == h {
		t.Error("different structures must differ")
	}
}

func TestCanonicalFormPermutationRoundTrip(t *testing.T) {
	n := fig3aLike(true, nil)
	cf := n.CanonicalForm()
	if len(cf.PlaceAt) != n.NumPlaces() || len(cf.TransAt) != n.NumTransitions() {
		t.Fatal("permutation size mismatch")
	}
	for i, p := range cf.PlaceAt {
		if cf.PlacePos[p] != i {
			t.Fatalf("place permutation does not round-trip at %d", i)
		}
	}
	for i, tr := range cf.TransAt {
		if cf.TransPos[tr] != i {
			t.Fatalf("transition permutation does not round-trip at %d", i)
		}
	}
}

func TestCanonicalFormIsDeterministic(t *testing.T) {
	n := fig3aLike(false, nil)
	a, b := n.CanonicalForm(), n.CanonicalForm()
	if a.Hash != b.Hash {
		t.Fatal("hash not deterministic")
	}
	for i := range a.PlaceAt {
		if a.PlaceAt[i] != b.PlaceAt[i] {
			t.Fatal("place order not deterministic")
		}
	}
}

// TestCanonicalNetStampedForm pins the canonical form CanonicalNet stamps
// on its twin: the parent's hash, the identity permutation, and exactly
// what a from-scratch refinement of the twin computes.
func TestCanonicalNetStampedForm(t *testing.T) {
	for _, n := range []*Net{
		fig3aLike(false, nil),
		fig3aLike(true, func(s string) string { return "x_" + s }),
	} {
		twin := n.CanonicalNet()
		got := twin.CanonicalForm()
		if got.Hash != n.CanonicalHash() {
			t.Fatalf("twin hash %s, parent %s", got.Hash, n.CanonicalHash())
		}
		for i := range got.PlaceAt {
			if got.PlaceAt[i] != Place(i) || got.PlacePos[i] != i {
				t.Fatalf("place permutation not the identity at %d", i)
			}
		}
		for i := range got.TransAt {
			if got.TransAt[i] != Transition(i) || got.TransPos[i] != i {
				t.Fatalf("transition permutation not the identity at %d", i)
			}
		}
		want := twin.computeCanonicalForm()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stamped form %+v, refinement computes %+v", got, want)
		}
	}
}
