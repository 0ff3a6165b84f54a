package invariant

import (
	"reflect"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// mapCache is a minimal Cache for tests, counting hits and misses.
type mapCache struct {
	m            map[string][][]int
	hits, misses int
}

func newMapCache() *mapCache { return &mapCache{m: map[string][][]int{}} }

func (c *mapCache) GetSemiflows(key string) ([][]int, bool) {
	rows, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rows, ok
}

func (c *mapCache) PutSemiflows(key string, rows [][]int) { c.m[key] = rows }

// weightedLoop builds a small multirate net with non-trivial T- and
// P-semiflows, with a rename hook for isomorphism tests.
func weightedLoop(rename func(string) string) *petri.Net {
	if rename == nil {
		rename = func(s string) string { return s }
	}
	b := petri.NewBuilder("loop")
	p1 := b.MarkedPlace(rename("p1"), 2)
	p2 := b.Place(rename("p2"))
	t1 := b.Transition(rename("t1"))
	t2 := b.Transition(rename("t2"))
	b.WeightedArc(p1, t1, 2)
	b.ArcTP(t1, p2)
	b.Arc(p2, t2)
	b.WeightedArcTP(t2, p1, 2)
	return b.Build()
}

func TestTInvariantsCachedMatchesCold(t *testing.T) {
	n := weightedLoop(nil)
	cold, err := TInvariants(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := newMapCache()
	miss, err := TInvariantsCached(n, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := TInvariantsCached(n, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.hits, c.misses)
	}
	if !reflect.DeepEqual(cold, miss) || !reflect.DeepEqual(cold, hit) {
		t.Fatalf("cached results differ from cold:\ncold=%v\nmiss=%v\nhit=%v", cold, miss, hit)
	}
}

func TestPInvariantsCachedMatchesCold(t *testing.T) {
	n := weightedLoop(nil)
	cold, err := PInvariants(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := newMapCache()
	if _, err := PInvariantsCached(n, Options{}, c); err != nil {
		t.Fatal(err)
	}
	hit, err := PInvariantsCached(n, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, hit) {
		t.Fatalf("cached P-invariants differ from cold: %v vs %v", cold, hit)
	}
}

func TestTInvariantsCachedSharesAcrossRenamedNets(t *testing.T) {
	a := weightedLoop(nil)
	b := weightedLoop(func(s string) string { return "x_" + s })
	c := newMapCache()
	if _, err := TInvariantsCached(a, Options{}, c); err != nil {
		t.Fatal(err)
	}
	got, err := TInvariantsCached(b, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.hits != 1 {
		t.Fatalf("renamed net did not hit the cache (hits=%d)", c.hits)
	}
	// The hit-path result must be genuine invariants of b.
	want, err := TInvariants(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared entry produced wrong invariants: %v vs %v", got, want)
	}
	for _, ti := range got {
		if !IsTInvariant(b, ti.Counts) {
			t.Fatalf("not a T-invariant of the hitting net: %v", ti)
		}
	}
}

func TestCachedEntryPointsNilCache(t *testing.T) {
	n := weightedLoop(nil)
	if _, err := TInvariantsCached(n, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := PInvariantsCached(n, Options{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTInvariantsCachedTwinHitsParentEntry: the canonical twin carries
// the parent's hash with the identity relabelling, so after the parent
// fills the cache the twin's lookup hits the parent's entry, and the hit
// gives exactly the twin's own cold T-semiflows, in the same order.
func TestTInvariantsCachedTwinHitsParentEntry(t *testing.T) {
	nets := []*petri.Net{weightedLoop(nil)}
	for _, n := range figures.All() {
		nets = append(nets, n)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		nets = append(nets, netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
	}
	for _, n := range nets {
		c := newMapCache()
		if _, err := TInvariantsCached(n, Options{}, c); err != nil {
			t.Fatal(err)
		}
		twin := n.CanonicalNet()
		if h := twin.CanonicalForm().Hash; h != n.CanonicalHash() {
			t.Fatalf("%s: twin hash %s, parent %s", n.Name(), h, n.CanonicalHash())
		}
		got, err := TInvariantsCached(twin, Options{}, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.hits != 1 {
			t.Fatalf("%s: twin lookup did not hit the parent's entry (hits=%d)", n.Name(), c.hits)
		}
		want, err := TInvariants(twin, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached twin semiflows %v, cold %v", n.Name(), got, want)
		}
	}
}
