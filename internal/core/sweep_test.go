package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// distillSolve runs Solve and flattens everything observable about the
// outcome — cycles, per-report verdicts, invariants, diagnosis — into a
// comparable string, so the equivalence tests below can assert that two
// solver configurations produce *identical* results, not merely equivalent
// ones.
func distillSolve(t *testing.T, n *petri.Net, opt Options) string {
	t.Helper()
	return distillOutcome(Solve(n, opt))
}

// distillOutcome flattens any (Schedule, error) solver outcome into the
// comparable string distillSolve uses.
func distillOutcome(s *Schedule, err error) string {
	if err != nil {
		var nse *NotSchedulableError
		if errors.As(err, &nse) {
			r := nse.Report
			return fmt.Sprintf("notsched consistent=%v uncovered=%v srcs=%v missing=%v reason=%q",
				r.Consistent, r.Uncovered, r.SourcesCovered, r.MissingSources, r.FailReason)
		}
		return "err " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "alloc=%d sat=%v\n", s.AllocationCount, s.AllocationCountSaturated)
	for i, c := range s.Cycles {
		r := s.Reports[i]
		fmt.Fprintf(&sb, "cycle %v counts=%v inv=%v cover=%v\n",
			s.Net.SequenceNames(c.Sequence), c.Counts, r.Invariants, r.CoveringCounts)
	}
	return sb.String()
}

// corpus returns the nets the equivalence tests sweep: every paper figure
// plus seeded netgen nets (both the schedulable-by-construction pipelines
// and the unconstrained generator, which yields non-schedulable nets too).
func equivalenceCorpus(t *testing.T) map[string]*petri.Net {
	t.Helper()
	nets := map[string]*petri.Net{}
	for name, n := range figures.All() {
		if n.Validate() == nil {
			nets[name] = n
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		nets[fmt.Sprintf("pipe%d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		if n := netgen.RandomNet(seed, netgen.DefaultConfig()); n.Validate() == nil {
			nets[fmt.Sprintf("rand%d", seed)] = n
		}
	}
	return nets
}

// sweepCorpus is equivalenceCorpus plus every free-choice net in
// examples/nets, which include the unschedulable figure3b and figure7 as
// parsed from text.
func sweepCorpus(t *testing.T) map[string]*petri.Net {
	t.Helper()
	nets := equivalenceCorpus(t)
	files, err := filepath.Glob("../../examples/nets/*.pn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example nets: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n, err := petri.ParseString(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if n.Validate() == nil {
			nets["file:"+filepath.Base(f)] = n
		}
	}
	return nets
}

// sweepCase is one row of the sweep table: a corpus net, the options the
// engine would pass, and the distinct reductions it would enumerate.
type sweepCase struct {
	name string
	n    *petri.Net
	opt  Options
	reds []*Reduction
}

// forEachSweep runs check on every net of sweepCorpus, serially and with
// four workers. The sweep has one path — Solve enumerates the distinct
// reductions and hands them to SolveReductions, which checks every one —
// and the tests below each pin one property of it over the same table.
// Their names predate the single sweep; each now checks what survives of
// the layer it once covered.
func forEachSweep(t *testing.T, check func(t *testing.T, c sweepCase)) {
	t.Helper()
	nets := sweepCorpus(t)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name, n := range nets {
				reds, err := EnumerateDistinctReductions(n, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(t, sweepCase{name: name, n: n, opt: Options{Workers: tc.workers}, reds: reds})
			}
		})
	}
}

func TestDedupMatchesFromScratch(t *testing.T) {
	// The engine calls EnumerateDistinctReductions and SolveReductions
	// itself, so Solve must match that call sequence byte for byte —
	// schedule or diagnosis — serially and in parallel. The deprecated
	// NoPrune switch must change nothing.
	forEachSweep(t, func(t *testing.T, c sweepCase) {
		engine := distillOutcome(SolveReductions(c.n, c.reds, c.opt))
		if direct := distillSolve(t, c.n, c.opt); direct != engine {
			t.Errorf("%s: Solve diverges from enumerate + SolveReductions:\n got: %s\nwant: %s", c.name, direct, engine)
		}
		noPrune := c.opt
		noPrune.NoPrune = true
		if got := distillSolve(t, c.n, noPrune); got != engine {
			t.Errorf("%s: NoPrune changed the outcome:\n got: %s\nwant: %s", c.name, got, engine)
		}
	})
}

func TestDedupCountersAndClasses(t *testing.T) {
	// Every distinct reduction is its own class: the sweep checks each one
	// exactly once (one core/check span apiece) and a schedule carries one
	// report per reduction. DedupClasses reports no grouping.
	forEachSweep(t, func(t *testing.T, c sweepCase) {
		tr := trace.New()
		traced := c.opt
		traced.Trace = tr
		s, err := SolveReductions(c.n, c.reds, traced)
		if ps, _ := tr.Report().Phase("core/check"); ps.Count != int64(len(c.reds)) {
			t.Errorf("%s: core/check count %d, want one per distinct reduction (%d)", c.name, ps.Count, len(c.reds))
		}
		var nse *NotSchedulableError
		switch {
		case err == nil:
			if len(s.Reports) != len(c.reds) {
				t.Errorf("%s: %d reports, want one per reduction (%d)", c.name, len(s.Reports), len(c.reds))
			}
		case !errors.As(err, &nse):
			t.Errorf("%s: sweep failed: %v", c.name, err)
		}
		if classOf, cerr := DedupClasses(c.n, c.reds, c.opt); classOf != nil || cerr != nil {
			t.Errorf("%s: DedupClasses = %v, %v; want nil, nil", c.name, classOf, cerr)
		}
	})
}

func TestDedupClassesCancelled(t *testing.T) {
	// A cancelled sweep must stop and surface the caller's cause rather
	// than run the batch to completion.
	forEachSweep(t, func(t *testing.T, c sweepCase) {
		cancelled := c.opt
		cancelled.Ctx = cancelledCtx(t)
		if _, err := SolveReductions(c.n, c.reds, cancelled); !errors.Is(err, errDeadline) {
			t.Errorf("%s: cancelled sweep lost the cause: %v", c.name, err)
		}
	})
}

func TestPruneMatchesUnprunedVerdict(t *testing.T) {
	// The paper's unoptimised sweep (KeepDuplicateReductions: one reduction
	// per allocation) must reach the same verdict as the distinct sweep.
	forEachSweep(t, func(t *testing.T, c sweepCase) {
		if CountAllocations(c.n) > 4096 {
			return
		}
		_, err := SolveReductions(c.n, c.reds, c.opt)
		keep := c.opt
		keep.KeepDuplicateReductions = true
		if _, kerr := Solve(c.n, keep); (kerr == nil) != (err == nil) {
			t.Errorf("%s: KeepDuplicateReductions verdict err=%v, sweep err=%v", c.name, kerr, err)
		}
	})
}

func TestPrunedEnumerationRecordsBranches(t *testing.T) {
	// Figures 3b and 7 are the paper's non-schedulable nets: parsed from
	// examples/nets, the sweep must diagnose a reduction that fails
	// Definition 3.5. Figure 3a keeps both of its reductions.
	unschedulable := map[string]bool{}
	forEachSweep(t, func(t *testing.T, c sweepCase) {
		_, err := SolveReductions(c.n, c.reds, c.opt)
		var nse *NotSchedulableError
		if errors.As(err, &nse) {
			if nse.Report.Schedulable {
				t.Errorf("%s: diagnosed reduction is schedulable", c.name)
			}
			unschedulable[c.name] = true
		}
	})
	for _, name := range []string{"file:figure3b.pn", "file:figure7.pn"} {
		if !unschedulable[name] {
			t.Errorf("%s: want a not-schedulable diagnosis", name)
		}
	}
	reds, err := EnumerateDistinctReductions(figures.Figure3a(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reds) != 2 {
		t.Fatalf("figure 3a: %d reductions, want 2", len(reds))
	}
}

func TestSweepPathsByteIdentical(t *testing.T) {
	// The schedulability sweep resolves each reduction's invariants either
	// by restricting the parent's semiflows (parent aids present, with a
	// Farkas fallback when restriction is inexact) or by from-scratch
	// Farkas runs (no aids), and the choice must be invisible in the
	// output. Running the same reduction set through the sweep with and
	// without parent aids must produce byte-identical schedules, including
	// every report's invariant set.
	for name, n := range equivalenceCorpus(t) {
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			continue
		}
		parentTIs, perr := invariant.TInvariants(n, invariant.Options{})
		if perr != nil {
			continue
		}
		noAids := distillOutcome(solveReductions(n, reds, Options{}, checkAids{}))
		withAids := distillOutcome(solveReductions(n, reds, Options{}, checkAids{parentTIs: parentTIs, haveParent: true}))
		if noAids != withAids {
			t.Errorf("%s: sweep output depends on the invariant path:\nno aids: %s\n   aids: %s", name, noAids, withAids)
		}
		parallel := distillOutcome(solveReductions(n, reds, Options{Workers: 4}, checkAids{parentTIs: parentTIs, haveParent: true}))
		if parallel != withAids {
			t.Errorf("%s: parallel sweep diverges from serial:\n got: %s\nwant: %s", name, parallel, withAids)
		}
	}
}

// chainOfChoices builds a net with k independent binary free-choice
// clusters (source → choice place → {a_i, b_i} → sink chains), so the
// allocation product and the distinct-reduction count are both exactly 2^k.
func chainOfChoices(k int) *petri.Net {
	b := petri.NewBuilder("choices")
	for i := 0; i < k; i++ {
		src := b.Transition(fmt.Sprintf("src%d", i))
		p := b.Place(fmt.Sprintf("p%d", i))
		b.ArcTP(src, p)
		for _, nm := range []string{"a", "b"} {
			alt := b.Transition(fmt.Sprintf("%s%d", nm, i))
			b.Arc(p, alt)
		}
	}
	return b.Build()
}

func TestEnumerateAllocationsExactBoundary(t *testing.T) {
	// 3 binary clusters: exactly 8 allocations. The cap must admit
	// max == 8 and reject max == 7 — the old guard's off-by-one
	// (max/len + 1) made the boundary imprecise.
	n := chainOfChoices(3)
	allocs, err := EnumerateAllocations(n, 8)
	if err != nil || len(allocs) != 8 {
		t.Fatalf("max=8: len=%d err=%v, want 8/nil", len(allocs), err)
	}
	if _, err := EnumerateAllocations(n, 7); !errors.Is(err, ErrTooManyAllocations) {
		t.Fatalf("max=7: err=%v, want ErrTooManyAllocations", err)
	}
}

func TestEnumerateDistinctReductionsExactBoundary(t *testing.T) {
	n := chainOfChoices(3)
	reds, err := EnumerateDistinctReductions(n, 8)
	if err != nil || len(reds) != 8 {
		t.Fatalf("max=8: len=%d err=%v, want 8/nil", len(reds), err)
	}
	if _, err := EnumerateDistinctReductions(n, 7); !errors.Is(err, ErrTooManyAllocations) {
		t.Fatalf("max=7: err=%v, want ErrTooManyAllocations", err)
	}
}

func TestCountAllocationsSaturates(t *testing.T) {
	// 63 binary clusters: 2^63 > math.MaxInt on 64-bit (and far beyond it
	// on 32-bit GOARCH, where the old 1<<62 constant did not even fit in
	// int). The count must saturate at math.MaxInt with the flag set.
	n := chainOfChoices(63)
	count, saturated := CountAllocationsSat(n)
	if !saturated || count != math.MaxInt {
		t.Fatalf("CountAllocationsSat = %d,%v, want math.MaxInt,true", count, saturated)
	}
	if CountAllocations(n) != math.MaxInt {
		t.Fatalf("CountAllocations must saturate at math.MaxInt")
	}
	small, sat := CountAllocationsSat(chainOfChoices(3))
	if sat || small != 8 {
		t.Fatalf("CountAllocationsSat(2^3) = %d,%v, want 8,false", small, sat)
	}
	// The saturation marker must survive serialisation so reports never
	// present the ceiling as a real count.
	ex := (&Schedule{Net: n, AllocationCount: count, AllocationCountSaturated: saturated}).Export()
	data, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"allocation_count_saturated":true`) {
		t.Fatalf("export JSON missing saturation marker: %s", data)
	}
	plain, err := json.Marshal((&Schedule{Net: chainOfChoices(1), AllocationCount: 2}).Export())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "allocation_count_saturated") {
		t.Fatalf("unsaturated export must omit the marker: %s", plain)
	}
}

func TestCoveringCombinationIncompleteCover(t *testing.T) {
	// Regression for the silent `break`: handed a non-covering invariant
	// set, the greedy cover used to return a partial count vector that the
	// cycle search could then "certify". It must now name the uncovered
	// transitions so checkReduction fails the reduction instead.
	tis := []invariant.TInvariant{{Counts: []int{2, 1, 0, 0}}}
	counts, uncovered := coveringCombination(tis, 4)
	if len(uncovered) != 2 || uncovered[0] != 2 || uncovered[1] != 3 {
		t.Fatalf("uncovered = %v, want [2 3]", uncovered)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v, want the covered prefix summed", counts)
	}
	// A covering set keeps the happy path: no uncovered transitions.
	tis = append(tis, invariant.TInvariant{Counts: []int{0, 0, 1, 3}})
	if _, uncovered := coveringCombination(tis, 4); uncovered != nil {
		t.Fatalf("covering set reported uncovered = %v", uncovered)
	}
	// An empty invariant set leaves everything uncovered.
	if _, uncovered := coveringCombination(nil, 2); len(uncovered) != 2 {
		t.Fatalf("empty set: uncovered = %v, want both transitions", uncovered)
	}
}
