package engine

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fcpn/internal/core"
	"fcpn/internal/engine/stats"
	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

func TestSchedCodecRoundTrip(t *testing.T) {
	cases := []*cachedSchedule{
		{cycles: []cachedCycle{}},
		{cycles: []cachedCycle{{seq: []int{0, 3, 3, 7}, choices: [][2]int{{1, 3}, {4, 7}}}}},
		{cycles: []cachedCycle{
			{seq: []int{2, 2, 2, 5}},
			{seq: []int{0, 9, 0, 9, 9}, choices: [][2]int{{0, 9}}},
		}},
		// A chosen transition outside the firing sequence still round-trips.
		{cycles: []cachedCycle{{seq: []int{4}, choices: [][2]int{{2, 11}}}}},
	}
	for i, cs := range cases {
		got, err := decodeSchedule(encodeSchedule(cs))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, cs) {
			t.Fatalf("case %d: round trip\n got %+v\nwant %+v", i, got, cs)
		}
	}
}

func TestSchedCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		cs := &cachedSchedule{cycles: make([]cachedCycle, rng.Intn(5))}
		for i := range cs.cycles {
			kept := rng.Perm(40)[:rng.Intn(8)+1]
			cc := cachedCycle{seq: make([]int, rng.Intn(30))}
			for j := range cc.seq {
				cc.seq[j] = kept[rng.Intn(len(kept))]
			}
			places := rng.Perm(40)[:rng.Intn(4)]
			sort.Ints(places)
			for _, p := range places {
				cc.choices = append(cc.choices, [2]int{p, kept[rng.Intn(len(kept))]})
			}
			cs.cycles[i] = cc
		}
		got, err := decodeSchedule(encodeSchedule(cs))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(got, cs) {
			t.Fatalf("trial %d: round trip\n got %+v\nwant %+v", trial, got, cs)
		}
	}
}

func TestSchedCodecRejectsBadPayloads(t *testing.T) {
	good := encodeSchedule(&cachedSchedule{cycles: []cachedCycle{
		{seq: []int{1, 4, 1}, choices: [][2]int{{0, 4}}},
	}})
	if _, err := decodeSchedule(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = schedCacheVersion + 1
	if _, err := decodeSchedule(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeSchedule(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeSchedule(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A corrupt length prefix must be refused, not allocated: a huge
	// cycle count, and a huge choice count inside the good payload's cycle.
	huge := binary.AppendUvarint([]byte{schedCacheVersion}, 1<<40)
	if _, err := decodeSchedule(huge); err == nil {
		t.Fatal("cycle count beyond the payload accepted")
	}
	hugeChoices := binary.AppendUvarint(append([]byte(nil), good[:len(good)-3]...), 1<<40)
	if _, err := decodeSchedule(append(hugeChoices, good[len(good)-2:]...)); err == nil {
		t.Fatal("choice count beyond the payload accepted")
	}
}

// TestSchedKeyStaysInSchedLayer pins the versioned key to the "sched"
// layer prefix: the cache derives its per-layer counters from everything
// before the first ':', so the version segment must come after it.
func TestSchedKeyStaysInSchedLayer(t *testing.T) {
	tr := trace.New()
	c := newCache(4, &stats.Counters{}, tr)
	if _, err := c.getOrCompute(schedKey("abc"), func() (any, error) { return []byte{1}, nil }); err != nil {
		t.Fatal(err)
	}
	if got := tr.Report().Counter("cache/sched/miss"); got != 1 {
		t.Fatalf("cache/sched/miss = %d, want 1", got)
	}
}

// TestScheduleCodecGolden pins encodeSchedule's bytes for the schedules
// the cache's miss path stores: Figures 4 and 5 and one netgen choice net
// (six cycles, twelve choices). The hex strings were produced by the
// map-based encoder the current one replaced; any change to them is a
// wire-format change and must bump schedCacheVersion.
func TestScheduleCodecGolden(t *testing.T) {
	choice := netgen.Config{MaxSources: 4, MaxDepth: 5, MaxBranch: 3, MaxWeight: 3, ChoicePct: 50, MultiratePct: 30}
	for _, tc := range []struct {
		net  *petri.Net
		want string
	}{
		{figures.Figure4(), "020203000201050002000201010202030001030400020101010202"},
		{figures.Figure5(), "02020700030101010101080304060001020502010500060101030101010b0203050104000400040404010501"},
		{netgen.RandomSchedulablePipeline(1006, choice), "0206050001010203050001020403020102010305000101030205000102040302010201030500010104010500010204030201020103050001020103050001020403020102010305000102020205000102040302010201030500010203010500010204030201020103"},
	} {
		cf := tc.net.CanonicalForm()
		_, tw, err := twinReductions(context.Background(), tc.net, cf, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.SolveReductions(tw.net, tw.reds, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(encodeSchedule(toCachedSchedule(tw.net.CanonicalForm(), s))); got != tc.want {
			t.Errorf("%s: payload\n got %s\nwant %s", tc.net.Name(), got, tc.want)
		}
	}
}
