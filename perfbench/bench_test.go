package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fcpn/internal/core"
	"fcpn/internal/engine"
	"fcpn/internal/petri"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs and finds examples/nets.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// inputs renders everything a seed determines before any measurement:
// the corpus and the set-up, low-rate and high-rate request schedules.
func inputs(t *testing.T, w workload, seed uint64) string {
	t.Helper()
	corpus, plan, err := generate(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal([]any{corpus, plan.warm(), plan.rung(0, 1), plan.rung(w.HiRung, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := inputs(t, w, 7), inputs(t, w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two different corpora or schedules", w.Name)
		}
		if c := inputs(t, w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus and schedule", w.Name)
		}
	}
}

func TestPermutationIsTheSameNet(t *testing.T) {
	gen := newGenerator(3, []familyShare{{"choice", 50}, {"product", 50}})
	r := newRng(3, 9)
	for i := 0; i < 20; i++ {
		it := gen.next()
		n := parseItem(it)
		p := permute(n, r)
		if petri.Format(p) == it.Text && n.NumTransitions() > 2 {
			t.Errorf("%s: permutation kept the declaration order", it.Name)
		}
		if got, want := sortedArcs(p), sortedArcs(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: permutation changed the labelled net", it.Name)
		}
	}
}

func sortedArcs(n *petri.Net) []string {
	var out []string
	for _, line := range strings.Split(petri.Format(n), "\n") {
		if !strings.HasPrefix(line, "net ") {
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// TestCheckReportCatchesWrongAnswers feeds the correctness check reports
// that are wrong in each way it must notice.
func TestCheckReportCatchesWrongAnswers(t *testing.T) {
	it, err := readExample("figure3a")
	if err != nil {
		t.Fatal(err)
	}
	n := parseItem(it)
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	rep, err := eng.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(n, it, rep, false); err != nil {
		t.Fatalf("correct report refused: %v", err)
	}
	wrong := *rep
	wrong.Schedulable = false
	if checkReport(n, it, &wrong, false) == nil {
		t.Error("wrong verdict accepted")
	}
	cut := *rep
	sched := *rep.Schedule
	sched.Cycles = append(sched.Cycles[:0:0], sched.Cycles...)
	sched.Cycles[0].Sequence = sched.Cycles[0].Sequence[:len(sched.Cycles[0].Sequence)-1]
	cut.Schedule = &sched
	if checkReport(n, it, &cut, false) == nil {
		t.Error("a cycle that does not return to the initial marking was accepted")
	}
	if len(rep.Schedule.Cycles) < 2 {
		t.Fatalf("%s has %d schedule cycles; the cases below need two", it.Name, len(rep.Schedule.Cycles))
	}
	for _, c := range []struct {
		what   string
		cycles func([]core.CycleExport) []core.CycleExport
	}{
		{"an empty cycle", func(cs []core.CycleExport) []core.CycleExport {
			cs[0].Sequence = nil
			return cs
		}},
		{"a cycle repeated in place of another", func(cs []core.CycleExport) []core.CycleExport {
			cs[1] = cs[0]
			return cs
		}},
	} {
		bad := *rep
		sched := *rep.Schedule
		sched.Cycles = c.cycles(append(sched.Cycles[:0:0], sched.Cycles...))
		bad.Schedule = &sched
		if checkReport(n, it, &bad, false) == nil {
			t.Errorf("%s was accepted", c.what)
		}
	}
	if checkReport(n, it, rep, true) == nil {
		t.Error("a missing timing verdict was accepted")
	}
}

// TestSymmetricFamilyDedupRatio reports the isomorphism dedup's class
// ratio on the symmetric product family, next to the share of
// isomorphism classes among the reductions. The family is built so that
// isomorphic T-reductions exist (iso ratio below 1); the dedup ratio says
// how many of them DedupClasses merges.
func TestSymmetricFamilyDedupRatio(t *testing.T) {
	gen := newGenerator(11, []familyShare{{"product", 100}})
	var corpus []item
	reds, classes := 0, 0
	for i := 0; i < 12; i++ {
		it := gen.next()
		corpus = append(corpus, it)
		n := parseItem(it)
		rs, err := core.EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		classOf, err := core.DedupClasses(n, rs, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		reds += len(rs)
		classes += classCount(classOf, len(rs))
	}
	iso := isoClassRatio(corpus)
	dedup := float64(classes) / float64(reds)
	t.Logf("product family: %d reductions, dedup_class_ratio %.3f, iso_class_ratio %.3f", reds, dedup, iso)
	if iso >= 1 {
		t.Errorf("iso_class_ratio = %.3f: the product family has no isomorphic T-reductions", iso)
	}
	if dedup <= 0 || dedup > 1 {
		t.Errorf("dedup_class_ratio = %.3f, want a ratio in (0, 1]", dedup)
	}
}

func classCount(classOf []int, n int) int {
	if classOf == nil {
		return n
	}
	c := 0
	for i, r := range classOf {
		if r == i {
			c++
		}
	}
	return c
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{on: true, spans: []tspan{
		{name: "net", parent: -1, start: 0, end: 10},
		{name: "a", parent: 0, start: 1, end: 4},
		{name: "b", parent: 0, start: 5, end: 9},
		{name: "a", parent: 2, start: 6, end: 7},
	}}
	self, _, total := tr.selfTotals()
	want := map[string]float64{"net": 3e-6, "a": 4e-6, "b": 3e-6}
	for k, v := range want {
		if d := self[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %g, want %g", k, self[k], v)
		}
	}
	if total["net"] != 10e-6 {
		t.Errorf("total[net] = %g, want 1e-05", total["net"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the same
// workloads, each with its recorded rationale and measured layer shares.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
		if !strings.Contains(w.Why, "%") || len(w.Why) > 200 {
			t.Errorf("workload %q: why should state measured layer shares in at most 200 characters: %q", w.Name, w.Why)
		}
	}
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, gated) {
		t.Errorf("BENCHMARK.json end_to_end %v, the result line carries %v", names, gated)
	}
}
