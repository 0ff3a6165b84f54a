package fault

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fcpn/internal/petri"
	"fcpn/internal/rtos"
)

func stream(src petri.Transition, n int) []rtos.Event {
	return rtos.Periodic(src, 5, 0, n)
}

func TestScenarioDeterminism(t *testing.T) {
	src := petri.Transition(0)
	base := stream(src, 100)
	sc := Scenario{Name: "mix", Seed: 42, Injectors: []Injector{
		Burst{Pct: 30, Extra: 2, Source: AnySource},
		Drop{Pct: 20, Source: AnySource},
		JitterTicks{Window: 4, Source: AnySource},
	}}
	a := sc.Apply(base)
	b := sc.Apply(base)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	other := Scenario{Name: "mix", Seed: 43, Injectors: sc.Injectors}.Apply(base)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical streams (suspicious)")
	}
}

func TestScenarioApplyDoesNotMutateInput(t *testing.T) {
	src := petri.Transition(0)
	base := stream(src, 50)
	snapshot := append([]rtos.Event(nil), base...)
	Scenario{Seed: 7, Injectors: []Injector{
		JitterTicks{Window: 9, Source: AnySource},
		Drop{Pct: 50, Source: AnySource},
	}}.Apply(base)
	if !reflect.DeepEqual(base, snapshot) {
		t.Fatal("Apply mutated its input stream")
	}
}

// TestInjectorsDoNotMutateInput pins the Injector contract that
// Scenario.Apply relies on to skip its own copy: every injector, at
// full and partial rates, leaves its input untouched and returns a slice
// that shares no memory with it. Overwriting the whole result must not
// show through in the input; the same holds for Scenario.Apply with and
// without injectors.
func TestInjectorsDoNotMutateInput(t *testing.T) {
	a, b := petri.Transition(0), petri.Transition(1)
	base := rtos.Merge(stream(a, 60), rtos.Periodic(b, 7, 2, 40))
	snapshot := append([]rtos.Event(nil), base...)
	injectors := []Injector{
		Burst{Pct: 100, Extra: 2, Source: AnySource},
		Burst{Pct: 40, Extra: 3, Source: a},
		Burst{Pct: 0, Extra: 0, Source: AnySource},
		Duplicate{Pct: 100, Source: AnySource},
		Duplicate{Pct: 30, Source: b},
		Drop{Pct: 0, Source: AnySource},
		Drop{Pct: 50, Source: a},
		JitterTicks{Window: 0, Source: AnySource},
		JitterTicks{Window: 9, Source: AnySource},
		JitterTicks{Window: 4, Source: b},
	}
	check := func(name string, out []rtos.Event) {
		t.Helper()
		if !reflect.DeepEqual(base, snapshot) {
			t.Fatalf("%s mutated its input stream", name)
		}
		for i := range out {
			out[i] = rtos.Event{Time: -1, Source: -1}
		}
		if !reflect.DeepEqual(base, snapshot) {
			t.Fatalf("%s returned a slice sharing memory with its input", name)
		}
	}
	for _, inj := range injectors {
		check(fmt.Sprintf("%s %+v", inj.Name(), inj), inj.Apply(base, NewRand(17)))
		sc := Scenario{Seed: 17, Injectors: []Injector{inj}}
		check("scenario "+sc.Describe(), sc.Apply(base))
	}
	check("chained scenario", Scenario{Seed: 5, Injectors: injectors}.Apply(base))
	check("empty scenario", Scenario{Seed: 5}.Apply(base))
}

func TestBurstAddsCopiesAtSameTime(t *testing.T) {
	src := petri.Transition(0)
	base := stream(src, 40)
	out := Burst{Pct: 100, Extra: 3, Source: src}.Apply(base, NewRand(1))
	if len(out) != 4*len(base) {
		t.Fatalf("burst of 100%% with 3 extras: %d events, want %d", len(out), 4*len(base))
	}
	for i := 0; i < len(out); i += 4 {
		for j := 1; j < 4; j++ {
			if out[i+j] != out[i] {
				t.Fatalf("burst copy %d differs at %d: %v vs %v", j, i, out[i+j], out[i])
			}
		}
	}
}

func TestDropRemovesOnlyMatching(t *testing.T) {
	a, b := petri.Transition(0), petri.Transition(1)
	base := rtos.Merge(stream(a, 50), stream(b, 50))
	out := Drop{Pct: 100, Source: a}.Apply(base, NewRand(3))
	if len(out) != 50 {
		t.Fatalf("dropping all of source a left %d events, want 50", len(out))
	}
	for _, ev := range out {
		if ev.Source == a {
			t.Fatal("a drop-all filter let a matching event through")
		}
	}
}

func TestDuplicateRate(t *testing.T) {
	src := petri.Transition(0)
	base := stream(src, 1000)
	out := Duplicate{Pct: 25, Source: AnySource}.Apply(base, NewRand(9))
	extra := len(out) - len(base)
	if extra < 180 || extra > 320 {
		t.Fatalf("25%% duplication of 1000 events added %d copies", extra)
	}
}

func TestJitterTicksKeepsSortedAndCount(t *testing.T) {
	src := petri.Transition(0)
	base := stream(src, 200)
	out := JitterTicks{Window: 11, Source: AnySource}.Apply(base, NewRand(5))
	if len(out) != len(base) {
		t.Fatalf("jitter changed the event count: %d != %d", len(out), len(base))
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Time < out[j].Time }) {
		t.Fatal("jittered stream is not time-ordered")
	}
	for _, ev := range out {
		if ev.Time < 0 {
			t.Fatal("jitter produced a negative timestamp")
		}
	}
}

func TestCostJitterDeterministicAndBounded(t *testing.T) {
	base := rtos.DefaultCostModel()
	j := &CostJitter{Seed: 11, MaxPct: 40}
	for d := int64(0); d < 500; d++ {
		got := j.Perturb(base, d)
		if again := j.Perturb(base, d); !reflect.DeepEqual(got, again) {
			t.Fatalf("dispatch %d: non-deterministic perturbation", d)
		}
		if got.Fire < base.Fire || got.Fire > base.Fire*140/100 {
			t.Fatalf("dispatch %d: Fire=%d outside [%d, %d]", d, got.Fire, base.Fire, base.Fire*140/100)
		}
		if got.Interrupt != base.Interrupt || got.Poll != base.Poll {
			t.Fatalf("dispatch %d: kernel costs must not jitter", d)
		}
	}
	if !reflect.DeepEqual((&CostJitter{Seed: 1, MaxPct: 0}).Perturb(base, 3), base) {
		t.Fatal("MaxPct 0 must be the identity")
	}
	var nilJitter *CostJitter
	if !reflect.DeepEqual(nilJitter.Perturb(base, 3), base) {
		t.Fatal("nil jitter must be the identity")
	}
}

func TestDefaultScenariosStableNaming(t *testing.T) {
	got := DefaultScenarios(5, 0xFA117)
	wantNames := []string{"burst-01", "duplicate-02", "drop-03", "jitter-04", "burst+drop-05"}
	for i, sc := range got {
		if sc.Name != wantNames[i] {
			t.Fatalf("scenario %d named %q, want %q", i, sc.Name, wantNames[i])
		}
		if sc.Seed == 0 {
			t.Fatal("zero scenario seed")
		}
	}
	again := DefaultScenarios(5, 0xFA117)
	if !reflect.DeepEqual(got, again) {
		t.Fatal("DefaultScenarios is not deterministic")
	}
	if BurstScenarios(3, 1, AnySource, 50, 2)[2].Name != "burst-03" {
		t.Fatal("BurstScenarios naming changed")
	}
}
