package main

import (
	"fmt"
	"os"
	"path/filepath"

	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// rng is a splitmix64 stream: every input the benchmark generates is a
// pure function of the workload seed drawn through it.
type rng struct{ s uint64 }

func newRng(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// item is one net of a corpus: its source text exactly as sent to the
// program under test, and its verdict known without running the analysis.
type item struct {
	Name   string
	Text   string
	Family string
	Want   bool // schedulable
}

// exampleVerdicts are the schedulability verdicts of examples/nets as the
// paper's figures state them: Figure 1a has no T-invariant, Figure 1b is
// not free-choice, Figures 3b and 7 re-synchronise the branches of a
// choice; the rest have the valid schedules the paper lists.
var exampleVerdicts = map[string]bool{
	"atmserver": true,
	"figure1a":  false,
	"figure1b":  false,
	"figure2":   true,
	"figure3a":  true,
	"figure3b":  false,
	"figure4":   true,
	"figure5":   true,
	"figure7":   false,
}

// choiceConfig is the choice-heavy netgen setting of sweep-choice: wide,
// deep forests where half of the places are free choices.
var choiceConfig = netgen.Config{MaxSources: 4, MaxDepth: 5, MaxBranch: 3, MaxWeight: 3, ChoicePct: 50, MultiratePct: 30}

// band bounds one stratum of a generated family: the number of source
// transitions (0 for any) and a half-open range of the family's size
// measure.
type band struct{ sources, lo, hi int }

// pipelineStrata are the bands of the pipeline family, by sources and
// transitions, drawn in turn in the proportions netgen's default
// configuration produces them: of seeds 1000-2999, 34% of the nets have
// one source, 34% two (three in four of them under 16 transitions) and
// 31% three (41% under 16 transitions, 37% 16-23, 15% 24-31). The 2% of
// all nets with three sources and 32 or more transitions are left out.
// With timing on, the cost of a pipeline grows with its sources and
// transitions.
var pipelineStrata = []band{
	{1, 0, 1 << 30}, {2, 0, 16}, {3, 0, 16}, {1, 0, 1 << 30}, {2, 0, 16},
	{3, 16, 24}, {1, 0, 1 << 30}, {2, 16, 1 << 30}, {3, 0, 16}, {1, 0, 1 << 30},
	{2, 0, 16}, {3, 24, 32}, {1, 0, 1 << 30}, {2, 0, 16}, {3, 16, 24},
	{1, 0, 1 << 30}, {2, 16, 1 << 30}, {3, 0, 16}, {1, 0, 1 << 30}, {2, 0, 16},
}

// choiceStrata are the bands of the choice family, by distinct
// T-reductions, drawn in turn in the proportions choiceConfig produces
// them: of seeds 1000-2999, the nets with 4 to 511 reductions fall 41%
// into 4-15, 31% into 16-63, 22% into 64-255 and 7% into 256-511, so
// every ten nets hold four, three, two and one. Nets with fewer than 4
// reductions (20% of all) have next to no sweep, and the 7% with 512 or
// more would make a run's length depend on a few nets. The analysis cost
// of a choice-heavy net grows about fourfold per fourfold more reductions.
var choiceStrata = []band{
	{0, 4, 16}, {0, 16, 64}, {0, 64, 256}, {0, 4, 16}, {0, 16, 64},
	{0, 256, 512}, {0, 4, 16}, {0, 64, 256}, {0, 16, 64}, {0, 4, 16},
}

// families are the generated kinds of net, each drawn from its strata in
// turn: netgen's configuration, the size measure the strata bound, and the
// strata. The -mid families hold one middling stratum: the first-time nets
// of the served traffic, whose tail latency a wide cost range would drown.
var families = map[string]struct {
	cfg     netgen.Config
	measure func(*petri.Net) int
	strata  []band
}{
	"pipeline":     {netgen.DefaultConfig(), (*petri.Net).NumTransitions, pipelineStrata},
	"pipeline-mid": {netgen.DefaultConfig(), (*petri.Net).NumTransitions, []band{{2, 8, 16}}},
	"choice":       {choiceConfig, reductionCount, choiceStrata},
	"choice-mid":   {choiceConfig, reductionCount, []band{{0, 16, 64}}},
}

// channelConfig shapes one channel of a symmetric product net: a single
// source, a few choices, short chains.
var channelConfig = netgen.Config{MaxSources: 1, MaxDepth: 4, MaxBranch: 3, MaxWeight: 2, ChoicePct: 50, MultiratePct: 20}

// maxProductAllocations bounds the T-allocation count of a product net, so
// every product stays far below the solver's allocation cap.
const maxProductAllocations = 1024

// readExample loads examples/nets/<name>.pn from the checkout.
func readExample(name string) (item, error) {
	want, ok := exampleVerdicts[name]
	if !ok {
		return item{}, fmt.Errorf("no known verdict for example %q", name)
	}
	data, err := os.ReadFile(filepath.Join("examples", "nets", name+".pn"))
	if err != nil {
		return item{}, err
	}
	n, err := petri.ParseString(string(data))
	if err != nil {
		return item{}, fmt.Errorf("example %s: %w", name, err)
	}
	return item{Name: n.Name(), Text: petri.Format(n), Family: "example", Want: want}, nil
}

// allocations is the number of T-allocations of n: the product of the
// consumer counts of its choice places.
func allocations(n *petri.Net) int {
	total := 1
	for p := 0; p < n.NumPlaces(); p++ {
		if k := len(n.Consumers(petri.Place(p))); k > 1 {
			total *= k
		}
	}
	return total
}

// product builds the symmetric N-channel net: N renamed copies of one
// single-source channel glued at their source transition, the articulation
// of N identical systems in Devillers' sense. Swapping two channels maps
// the net onto itself, so every T-reduction that resolves the channels'
// choices differently has isomorphic siblings. Each channel is
// schedulable by construction and the shared source feeds every channel
// once per firing, so the product is schedulable too.
func product(channel *petri.Net, copies int, name string) *petri.Net {
	b := petri.NewBuilder(name)
	src := channel.SourceTransitions()[0]
	shared := b.Transition("src")
	init := channel.InitialMarking()
	for c := 0; c < copies; c++ {
		places := make([]petri.Place, channel.NumPlaces())
		for p := range places {
			places[p] = b.MarkedPlace(fmt.Sprintf("%s_c%d", channel.PlaceName(petri.Place(p)), c), init[p])
		}
		trans := make([]petri.Transition, channel.NumTransitions())
		for t := range trans {
			if petri.Transition(t) == src {
				trans[t] = shared
				continue
			}
			trans[t] = b.Transition(fmt.Sprintf("%s_c%d", channel.TransitionName(petri.Transition(t)), c))
		}
		for t := range trans {
			for _, a := range channel.Pre(petri.Transition(t)) {
				b.WeightedArc(places[a.Place], trans[t], a.Weight)
			}
			for _, a := range channel.Post(petri.Transition(t)) {
				b.WeightedArcTP(trans[t], places[a.Place], a.Weight)
			}
		}
	}
	return b.Build()
}

// family draws fresh nets of one kind from its own seeded stream.
type family struct {
	name  string
	r     *rng
	drawn int
}

// next returns the family's next net; every family is schedulable by
// construction.
func (f *family) next() *petri.Net {
	if f.name == "product" {
		for {
			s := f.r.next()
			ch := netgen.RandomSchedulablePipeline(s, channelConfig)
			a := allocations(ch)
			if a < 2 || a*a > maxProductAllocations {
				continue
			}
			copies := 2
			for copies < 4 && pow(a, copies+1) <= maxProductAllocations {
				copies++
			}
			return product(ch, copies, fmt.Sprintf("prod%d_x%d", s%1000000, copies))
		}
	}
	fam, ok := families[f.name]
	if !ok {
		panic("unknown family " + f.name)
	}
	b := fam.strata[f.drawn%len(fam.strata)]
	f.drawn++
	for {
		n := netgen.RandomSchedulablePipeline(f.r.next(), fam.cfg)
		if m := fam.measure(n); m >= b.lo && m < b.hi && (b.sources == 0 || len(n.SourceTransitions()) == b.sources) {
			return n
		}
	}
}

// reductionCount is the number of distinct T-reductions of a net whose
// choices branch into disjoint subtrees, as netgen's pipelines do: a
// choice place contributes the sum over its branches, every other node the
// product over its outputs.
func reductionCount(n *petri.Net) int {
	memo := map[petri.Place]int{}
	var place func(p petri.Place) int
	trans := func(t petri.Transition) int {
		r := 1
		for _, a := range n.Post(t) {
			r *= place(a.Place)
		}
		return r
	}
	place = func(p petri.Place) int {
		if v, ok := memo[p]; ok {
			return v
		}
		cons := n.Consumers(p)
		r := 1
		switch {
		case len(cons) == 1:
			r = trans(cons[0].Transition)
		case len(cons) > 1:
			r = 0
			for _, c := range cons {
				r += trans(c.Transition)
			}
		}
		memo[p] = r
		return r
	}
	total := 1
	for _, t := range n.SourceTransitions() {
		total *= trans(t)
	}
	return total
}

func pow(a, k int) int {
	out := 1
	for ; k > 0; k-- {
		out *= a
	}
	return out
}

// generator hands out structurally distinct nets across a workload's
// families: a net isomorphic to one already handed out is skipped, so a
// "first-time" net is a new structure for the program under test. The
// families take turns in proportion to their shares, so every seed has the
// same mix.
type generator struct {
	fams   []*family
	shares []int // percent per family
	drawn  []int
	seen   map[string]bool
}

func newGenerator(seed uint64, mix []familyShare) *generator {
	return newGeneratorAt(seed, mix, 100, map[string]bool{})
}

// newGeneratorAt draws the mix from the seed's streams from stream on,
// skipping every net whose canonical hash is in seen, which it shares.
func newGeneratorAt(seed uint64, mix []familyShare, stream uint64, seen map[string]bool) *generator {
	g := &generator{seen: seen, drawn: make([]int, len(mix))}
	for i, m := range mix {
		g.fams = append(g.fams, &family{name: m.Family, r: newRng(seed, stream+uint64(i))})
		g.shares = append(g.shares, m.Percent)
	}
	return g
}

// markSeen records a net handed out by other means (an example file).
func (g *generator) markSeen(text string) {
	n, err := petri.ParseString(text)
	if err == nil {
		g.seen[n.CanonicalHash()] = true
	}
}

func (g *generator) next() item {
	// The family furthest behind its share goes next.
	total := 1
	for _, d := range g.drawn {
		total += d
	}
	pick, lag := 0, -1<<62
	for i, s := range g.shares {
		if l := s*total - 100*g.drawn[i]; l > lag {
			pick, lag = i, l
		}
	}
	g.drawn[pick]++
	f := g.fams[pick]
	for {
		n := f.next()
		h := n.CanonicalHash()
		if g.seen[h] {
			continue
		}
		g.seen[h] = true
		return item{Name: n.Name(), Text: petri.Format(n), Family: f.name, Want: true}
	}
}

// permute re-declares n's places and transitions in a seeded order,
// keeping every name: a different text of the same net.
func permute(n *petri.Net, r *rng) *petri.Net {
	b := petri.NewBuilder(n.Name())
	init := n.InitialMarking()
	places := make([]petri.Place, n.NumPlaces())
	for _, p := range r.perm(n.NumPlaces()) {
		places[p] = b.MarkedPlace(n.PlaceName(petri.Place(p)), init[p])
	}
	trans := make([]petri.Transition, n.NumTransitions())
	order := r.perm(n.NumTransitions())
	for _, t := range order {
		trans[t] = b.Transition(n.TransitionName(petri.Transition(t)))
	}
	for _, t := range order {
		for _, a := range n.Pre(petri.Transition(t)) {
			b.WeightedArc(places[a.Place], trans[t], a.Weight)
		}
		for _, a := range n.Post(petri.Transition(t)) {
			b.WeightedArcTP(trans[t], places[a.Place], a.Weight)
		}
	}
	return b.Build()
}

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
