package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// referenceCheckReduction is the Definition 3.5 check on the materialised
// subnet: invariants by restriction through the subnet's index maps (or
// Farkas on the subnet), consistency and sources through the subnet, and
// the greedy cycle search on the subnet, mapped back to the parent. The
// check on the parent plus kept-node bitsets must give the same report.
func referenceCheckReduction(n *petri.Net, red *Reduction, opt Options, aids checkAids) *ReductionReport {
	report := &ReductionReport{Reduction: red}
	if err := opt.cancelled(); err != nil {
		report.FailReason = err.Error()
		report.Cause = err
		return report
	}
	rsub := red.Subnet()
	sub := rsub.Net

	var tis []invariant.TInvariant
	var err error
	restricted := false
	if aids.haveParent {
		tis, restricted = referenceRestrict(n, rsub, aids.parentTIs)
	}
	if !restricted {
		tis, err = invariant.TInvariants(sub, invariant.Options{MaxRows: opt.MaxRows})
	}
	if err != nil {
		report.FailReason = fmt.Sprintf("invariant computation failed: %v", err)
		report.Cause = err
		return report
	}
	report.Invariants = tis

	for _, t := range invariant.UncoveredTransitions(sub.NumTransitions(), tis) {
		report.Uncovered = append(report.Uncovered, rsub.ToParentTransition(t))
	}
	report.Consistent = len(report.Uncovered) == 0 && sub.NumTransitions() > 0

	report.SourcesCovered = true
	for _, src := range n.SourceTransitions() {
		st, kept := rsub.FromParentTransition(src)
		if !kept || !inSomeInvariant(tis, st) {
			report.SourcesCovered = false
			report.MissingSources = append(report.MissingSources, src)
		}
	}

	if !report.Consistent {
		report.FailReason = fmt.Sprintf("T-reduction %q is not consistent: transitions %s are in no T-invariant",
			sub.Name(), transitionNames(n, report.Uncovered))
		return report
	}
	if !report.SourcesCovered {
		report.FailReason = fmt.Sprintf("T-reduction %q covers no T-invariant for source transitions %s",
			sub.Name(), transitionNames(n, report.MissingSources))
		return report
	}
	counts, uncoveredByGreedy := coveringCombination(tis, sub.NumTransitions())
	if len(uncoveredByGreedy) > 0 {
		for _, t := range uncoveredByGreedy {
			report.Uncovered = append(report.Uncovered, rsub.ToParentTransition(t))
		}
		report.FailReason = fmt.Sprintf("T-reduction %q has no covering T-invariant combination: transitions %s stay uncovered",
			sub.Name(), transitionNames(n, report.Uncovered))
		report.Cause = ErrIncompleteCover
		return report
	}
	report.CoveringCounts = counts
	seq, simErr := referenceFindCompleteCycle(opt.Ctx, sub, counts, opt.maxCycleLength())
	if simErr != nil {
		report.FailReason = fmt.Sprintf("T-reduction %q deadlocks: %v", sub.Name(), simErr)
		report.Cause = simErr
		return report
	}
	report.Cycle = rsub.MapSequenceToParent(seq)
	report.Schedulable = true
	return report
}

// referenceRestrict restricts the parent's semiflows through the subnet's
// index maps, allocating a vector for every parent semiflow.
func referenceRestrict(parent *petri.Net, sub *petri.Subnet, parentTIs []invariant.TInvariant) ([]invariant.TInvariant, bool) {
	for _, t := range sub.ParentTransition {
		for _, arcs := range [][]petri.ArcRef{parent.Pre(t), parent.Post(t)} {
			for _, a := range arcs {
				if _, ok := sub.FromParentPlace(a.Place); !ok {
					return nil, false
				}
			}
		}
	}
	out := make([]invariant.TInvariant, 0, len(parentTIs))
	for _, ti := range parentTIs {
		counts := make([]int, sub.Net.NumTransitions())
		kept := true
		for t, c := range ti.Counts {
			if c == 0 {
				continue
			}
			st, ok := sub.FromParentTransition(petri.Transition(t))
			if !ok {
				kept = false
				break
			}
			counts[st] = c
		}
		if kept {
			out = append(out, invariant.TInvariant{Counts: counts})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Counts, out[j].Counts
		for k := range a {
			if a[k] != b[k] {
				return a[k] > b[k]
			}
		}
		return false
	})
	return out, true
}

// referenceFindCompleteCycle is the greedy search on a materialised
// conflict-free net.
func referenceFindCompleteCycle(ctx context.Context, n *petri.Net, counts []int, maxLen int) ([]petri.Transition, error) {
	if len(counts) != n.NumTransitions() {
		return nil, fmt.Errorf("core: counts length %d != %d transitions", len(counts), n.NumTransitions())
	}
	if !n.IsConflictFree() {
		return nil, errors.New("core: FindCompleteCycle requires a conflict-free net")
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("core: negative firing count %v", counts)
		}
		total += c
	}
	if total > maxLen {
		return nil, fmt.Errorf("core: cycle of %d firings exceeds cap %d: %w", total, maxLen, ErrBudgetExceeded)
	}
	remaining := append([]int(nil), counts...)
	m := n.InitialMarking()
	seq := make([]petri.Transition, 0, total)
	for len(seq) < total {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("cycle search interrupted after %d of %d firings: %w", len(seq), total, err)
		}
		fired := false
		for t := petri.Transition(0); int(t) < n.NumTransitions(); t++ {
			if remaining[t] == 0 || !n.Enabled(m, t) {
				continue
			}
			n.MustFire(m, t)
			remaining[t]--
			seq = append(seq, t)
			fired = true
		}
		if !fired {
			return nil, fmt.Errorf("%w: %d of %d firings done, stuck at %s with remaining %v",
				ErrCycleDeadlock, len(seq), total, m, remaining)
		}
	}
	if !m.Equal(n.InitialMarking()) {
		return nil, fmt.Errorf("core: firing vector is not a T-invariant: final marking %s != initial %s",
			m, n.InitialMarking())
	}
	return seq, nil
}

// countdownCtx is live for its first `live` Done calls and cancelled with
// errDeadline after that, so a check can be cancelled at a chosen
// checkpoint: the first is checkReduction's own, the later ones are the
// cycle search's per-sweep checkpoints.
type countdownCtx struct {
	context.Context
	live int
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *countdownCtx) Done() <-chan struct{} {
	if c.live > 0 {
		c.live--
		return nil
	}
	return closedDone
}

func (c *countdownCtx) Err() error {
	if c.live > 0 {
		return nil
	}
	return errDeadline
}

// rule2cNet is a (non-free-choice) net whose reduction takes the inexact
// restriction path: dropping tr removes r, then tj, whose other input s
// is a source place, so rule 2(c) drops s too — while tk, which also reads
// s, survives on its non-source input q. s holds no token, so a cycle
// search that still read s would deadlock where the subnet's does not.
func rule2cNet() *petri.Net {
	b := petri.NewBuilder("rule2c")
	tc, c := b.Transition("tc"), b.Place("c")
	tr, tr2 := b.Transition("tr"), b.Transition("tr2")
	r, s, q := b.Place("r"), b.Place("s"), b.Place("q")
	tj, tk, tq := b.Transition("tj"), b.Transition("tk"), b.Transition("tq")
	b.ArcTP(tc, c)
	b.Arc(c, tr)
	b.Arc(c, tr2)
	b.ArcTP(tr, r)
	b.Arc(r, tj)
	b.Arc(s, tj)
	b.ArcTP(tq, q)
	b.Arc(q, tk)
	b.Arc(s, tk)
	return b.Build()
}

// deadlockNet is a token-free ring beside a marked two-way choice whose
// branches are private cycles: every reduction is consistent, has no
// sources and gets stuck once its branch has cycled, with places of the
// other branch dropped from the marking its deadlock message shows.
func deadlockNet() *petri.Net {
	b := petri.NewBuilder("ring")
	t1, t2 := b.Transition("t1"), b.Transition("t2")
	p1, p2 := b.Place("p1"), b.Place("p2")
	b.ArcTP(t1, p1)
	b.Arc(p1, t2)
	b.ArcTP(t2, p2)
	b.Arc(p2, t1)
	c := b.MarkedPlace("c", 1)
	for _, br := range []string{"x", "y"} {
		fwd, pb, back := b.Transition(br+"1"), b.Place("p"+br), b.Transition(br+"2")
		b.Arc(c, fwd)
		b.ArcTP(fwd, pb)
		b.Arc(pb, back)
		b.ArcTP(back, c)
	}
	return b.Build()
}

// checkDiffCorpus is every paper figure, every example net, the netgen
// RandomNet seeds 1–400 (non-schedulable ones included) and the two
// hand-built nets above, in a fixed order.
func checkDiffCorpus(t *testing.T) []*petri.Net {
	t.Helper()
	var nets []*petri.Net
	figs := figures.All()
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nets = append(nets, figs[name])
	}
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
		nets = append(nets, n)
	}
	for seed := uint64(1); seed <= 400; seed++ {
		nets = append(nets, netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	return append(nets, rule2cNet(), deadlockNet())
}

// sameReport compares two reports: Cause by message and by errors.Is
// against every typed cause, everything else with reflect.DeepEqual.
func sameReport(got, want *ReductionReport) error {
	for _, target := range []error{ErrCycleDeadlock, ErrBudgetExceeded, ErrIncompleteCover, errDeadline} {
		if errors.Is(got.Cause, target) != errors.Is(want.Cause, target) {
			return fmt.Errorf("errors.Is(Cause, %v): got %v, want %v", target, got.Cause, want.Cause)
		}
	}
	if (got.Cause == nil) != (want.Cause == nil) || (got.Cause != nil && got.Cause.Error() != want.Cause.Error()) {
		return fmt.Errorf("Cause: got %v, want %v", got.Cause, want.Cause)
	}
	g, w := *got, *want
	g.Reduction, w.Reduction, g.Cause, w.Cause = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("report:\n got %+v\nwant %+v", g, w)
	}
	return nil
}

// TestCheckReductionMatchesReference holds the check on the parent plus
// kept-node bitsets to the check on the materialised subnet, report for
// report, on both sweep paths (parent semiflows shared, and the
// from-scratch ablation over every allocation), under a tiny cycle budget
// and under cancellation before the check and inside the cycle search.
func TestCheckReductionMatchesReference(t *testing.T) {
	tr := trace.New()
	var checks, deadlocks, budget, cancelled, inconsistent, missing, schedulable int
	for _, n := range checkDiffCorpus(t) {
		parentTIs, err := invariant.TInvariants(n, invariant.Options{})
		if err != nil {
			t.Fatalf("%s: parent semiflows: %v", n.Name(), err)
		}
		// The shared variants check every distinct reduction, as Solve
		// does; the scratch variant checks allocations with duplicates
		// kept, as the ablation does (the first 64 of at most 4096, to
		// bound the run; past that, distinct ones).
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatalf("%s: reductions: %v", n.Name(), err)
		}
		distinct := make([]*Allocation, len(reds))
		for i, r := range reds {
			distinct[i] = r.Allocation
		}
		ablation, err := EnumerateAllocations(n, 4096)
		if errors.Is(err, ErrTooManyAllocations) {
			ablation = distinct
		} else if err != nil {
			t.Fatalf("%s: allocations: %v", n.Name(), err)
		}
		ablation = ablation[:min(len(ablation), 64)]
		type variant struct {
			name   string
			opt    func() Options
			aids   checkAids
			allocs []*Allocation
		}
		shared := checkAids{parentTIs: parentTIs, haveParent: true}
		variants := []variant{
			{"shared", func() Options { return Options{Trace: tr} }, shared, distinct},
			{"scratch", func() Options { return Options{} }, checkAids{}, ablation},
			{"budget", func() Options { return Options{MaxCycleLength: 2} }, shared, distinct},
			{"precancelled", func() Options { return Options{Ctx: &countdownCtx{Context: context.Background()}} }, shared, distinct},
			{"midcycle", func() Options { return Options{Ctx: &countdownCtx{Context: context.Background(), live: 2}} }, shared, distinct},
		}
		for _, v := range variants {
			for ai, alloc := range v.allocs {
				got := checkReduction(n, Reduce(n, alloc), v.opt(), v.aids)
				want := referenceCheckReduction(n, Reduce(n, alloc), v.opt(), v.aids)
				if err := sameReport(got, want); err != nil {
					t.Fatalf("%s %s allocation %d: %v", n.Name(), v.name, ai, err)
				}
				checks++
				switch {
				case got.Schedulable:
					schedulable++
				case errors.Is(got.Cause, errDeadline):
					cancelled++
				case errors.Is(got.Cause, ErrBudgetExceeded):
					budget++
				case errors.Is(got.Cause, ErrCycleDeadlock):
					deadlocks++
				case !got.Consistent:
					inconsistent++
				case !got.SourcesCovered:
					missing++
				}
			}
		}
	}
	t.Logf("%d checks: %d schedulable, %d inconsistent, %d missing sources, %d deadlocks, %d over budget, %d cancelled",
		checks, schedulable, inconsistent, missing, deadlocks, budget, cancelled)
	if full := tr.Report().Counter("core/semiflow/full"); full == 0 {
		t.Error("no reduction took the inexact restriction fallback")
	}
	for name, count := range map[string]int{"schedulable": schedulable, "inconsistent": inconsistent,
		"deadlock": deadlocks, "budget": budget, "cancelled": cancelled} {
		if count == 0 {
			t.Errorf("no %s report: the corpus no longer exercises that path", name)
		}
	}
}

// TestCheckReductionAllocFlat: the bytes one check allocates must not grow
// with the number of parent T-semiflows its reduction drops. The net is a
// source feeding one choice of m branches; the reduction that keeps the
// first branch keeps one of the parent's m semiflows whatever m is, so
// only the dropped ones differ between m = 8 and m = 512.
func TestCheckReductionAllocFlat(t *testing.T) {
	checkAlloc := func(m int) uint64 {
		n := fanNet(m)
		parentTIs, err := invariant.TInvariants(n, invariant.Options{})
		if err != nil || len(parentTIs) != m {
			t.Fatalf("fan %d: %d parent semiflows, err %v", m, len(parentTIs), err)
		}
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		red, aids := reds[0], checkAids{parentTIs: parentTIs, haveParent: true}
		if rep := checkReduction(n, red, Options{}, aids); !rep.Schedulable || len(rep.Invariants) != 1 {
			t.Fatalf("fan %d: %+v", m, rep)
		}
		// Take the least of a few runs so a stray allocation elsewhere in
		// the process cannot fail the test.
		least := uint64(1 << 62)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			checkReduction(n, red, Options{}, aids)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := checkAlloc(8), checkAlloc(512)
	t.Logf("one check: %d B with 7 dropped parent semiflows, %d B with 511", small, large)
	// The kept-transition bitset grows by a few words with the parent;
	// a vector per dropped semiflow would add at least 504 × 16 B.
	if large > small+256 {
		t.Fatalf("one check allocated %d B with 511 dropped parent semiflows vs %d B with 7", large, small)
	}
}

// fanNet is a source transition feeding a choice place with m branches.
func fanNet(m int) *petri.Net {
	b := petri.NewBuilder(fmt.Sprintf("fan%d", m))
	src, p := b.Transition("src"), b.Place("p")
	b.ArcTP(src, p)
	for i := 0; i < m; i++ {
		b.Arc(p, b.Transition(fmt.Sprintf("b%d", i)))
	}
	return b.Build()
}
