package fcpn_test

// Acceptance test of the exact-arithmetic ladder: the paper's standard
// nets — every figure, the ATM server and the modem — are small-weight
// systems that must be served entirely by the int64 tier. A single
// linalg/bigint phase hit on this corpus means the fast path regressed
// and every invariant computation is paying big.Int allocation again.

import (
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/modem"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

func TestStandardNetsStayInInt64Tier(t *testing.T) {
	nets := map[string]*petri.Net{
		"atm": atm.New().Net,
	}
	for name, n := range figures.All() {
		nets[name] = n
	}
	mm, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets["modem"] = mm.Net

	for name, n := range nets {
		tr := trace.New()
		opt := invariant.Options{Trace: tr}
		if _, err := invariant.TInvariants(n, opt); err != nil {
			t.Fatalf("%s: TInvariants: %v", name, err)
		}
		if _, err := invariant.PInvariants(n, opt); err != nil {
			t.Fatalf("%s: PInvariants: %v", name, err)
		}
		if _, err := invariant.RankTheoremFC(n, opt); err != nil {
			t.Fatalf("%s: RankTheoremFC: %v", name, err)
		}
		// Solve errors are fine (not every figure is schedulable); the
		// tier residency of the attempt is what is under test.
		core.Solve(n, core.Options{Trace: tr})

		rep := tr.Report()
		if ps, ok := rep.Phase("linalg/bigint"); ok && ps.Count > 0 {
			t.Errorf("%s: %d big.Int fallbacks on a standard net", name, ps.Count)
		}
		if ps, ok := rep.Phase("linalg/int64"); !ok || ps.Count == 0 {
			t.Errorf("%s: no linalg/int64 phase recorded; ladder not traced", name)
		}
	}
}
