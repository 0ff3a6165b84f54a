package engine

import (
	"context"
	"testing"

	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// TestScheduleMissWithoutFreshReductions covers the schedule layer's miss
// when no fresh reduction set is handed over: the reductions layer hit
// while the schedule layer missed (LRU eviction), or a singleflight
// waiter on the reductions layer reached the schedule layer first. The
// schedule it caches must give the cold report's bytes. The netgen choice
// nets are where the twin's own enumeration order and the mapped local
// order disagree.
func TestScheduleMissWithoutFreshReductions(t *testing.T) {
	cfg := netgen.Config{MaxSources: 4, MaxDepth: 5, MaxBranch: 3, MaxWeight: 3, ChoicePct: 50, MultiratePct: 30}
	cold := New(Config{Workers: 1})
	defer cold.Close()
	mismatches := 0
	for seed := uint64(1000); seed < 1200; seed++ {
		n := netgen.RandomSchedulablePipeline(seed, cfg)
		want := reportJSON(t, analyze(t, cold, n))

		e := New(Config{Workers: 1})
		// Fill the schedule layer first, through the no-fresh-set path;
		// the report then takes its schedule from that entry.
		_, _ = e.schedule(context.Background(), n, n.CanonicalForm(), nil, nil)
		got := reportJSON(t, analyze(t, e, n))
		e.Close()
		if got != want {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("seed %d: report after a no-fresh-set schedule miss differs from the cold report:\n%s\nvs\n%s", seed, got, want)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of 200 nets differ", mismatches)
	}
}

// TestColdJobRunsParentFarkasOnce: the sweep reads the parent's
// T-semiflows from the entry the job's own invariant/tsemiflows phase
// stored (the twin shares the parent's hash), so a cold job runs Farkas
// once for the T-semiflows and once for the P-semiflows, plus once per
// reduction whose restriction was not exact.
func TestColdJobRunsParentFarkasOnce(t *testing.T) {
	for _, n := range corpus() {
		e := New(Config{Workers: 1})
		results, err := e.AnalyzeBatch([]*petri.Net{n})
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Err != nil || !r.Report.Schedulable {
			continue
		}
		farkas, _ := r.Trace.Phase("invariant/farkas")
		if want := 2 + r.Trace.Counter("core/semiflow/full"); farkas.Count != want {
			t.Errorf("net %q: %d Farkas runs in a cold job, want %d", n.Name(), farkas.Count, want)
		}
	}
}
