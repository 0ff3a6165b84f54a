package main

import (
	"fcpn/internal/engine"
	"fcpn/internal/timing"
)

// familyShare is one generated family's share of a workload's fresh nets.
type familyShare struct {
	Family  string
	Percent int
}

// workload fixes what differs between the workloads apart from the seed:
// which nets the corpus and the served traffic hold, whether the timing
// check runs, and which rung of the ladder is the high rate.
type workload struct {
	Name     string
	Examples []string
	Families []familyShare
	// ServeFamilies draws the first-time nets of the served traffic.
	ServeFamilies []familyShare
	// CorpusNets is the number of generated nets in the batch corpus,
	// besides the examples: enough that the corpus's allocation per net
	// varies little between seeds.
	CorpusNets int
	// Timing turns on the (m,k) = (9,10) check with margin search, as in
	// `qssd -mk 9,10 -margin`.
	Timing bool
	// HiRung is the rung of the ladder whose rate is the high rate of
	// serve_hi_p99_ms.
	HiRung int
}

// batchShare is the share of --seconds spent on batch rounds; the rest
// goes to the served ladder.
const batchShare = 0.5

// serveLadder holds the fixed absolute request rates, lowest first, 8%
// apart. Rung 0 is the low rate of serve_p50_ms and serve_p99_ms.
var serveLadder = ladder(100, 36)

// limitMS is the p99 latency limit a rung must meet to count towards
// serve_max_rps.
const limitMS = 250

// missPct and hitPct split the served requests into first-time nets and
// declaration-order permutations of nets already answered; the rest are
// GET /v1/report/{hash} lookups. The mix is assumed, not measured: no
// traffic record of the service says how often a net is new, re-sent
// under another declaration order or only looked up.
const missPct, hitPct = 5, 65

// warmNets are sent one by one during set-up, so the first rung already
// has nets to permute and look up. Their cost varies from net to net, so
// set-up sends enough of them that set-up time varies little between
// seeds.
const warmNets = 96

var allExamples = []string{"atmserver", "figure1a", "figure1b", "figure2", "figure3a", "figure3b", "figure4", "figure5", "figure7"}

var workloads = map[string]workload{
	"batch-pipeline": {
		Name:          "batch-pipeline",
		Examples:      allExamples,
		Families:      []familyShare{{"pipeline", 100}},
		ServeFamilies: []familyShare{{"pipeline-mid", 100}},
		CorpusNets:    300,
		Timing:        true,
		HiRung:        13,
	},
	"sweep-choice": {
		Name:          "sweep-choice",
		Examples:      []string{"atmserver"},
		Families:      []familyShare{{"choice", 70}, {"product", 30}},
		ServeFamilies: []familyShare{{"choice-mid", 100}},
		CorpusNets:    450,
		Timing:        false,
		HiRung:        4,
	},
}

// engineConfig is the analysis configuration every engine of the
// workload uses: the batch engines, the served backends and the
// in-process reference that served reports are compared against.
func (w workload) engineConfig(workers int) engine.Config {
	cfg := engine.Config{Workers: workers}
	if w.Timing {
		cfg.Timing = engine.TimingOptions{MK: timing.Constraint{M: 9, K: 10}, Margin: true}
	}
	return cfg
}

// ladder is count rates from low upwards, each 8% above the last.
func ladder(low float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = low
		low *= 1.08
	}
	return out
}
