package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/petri"
)

// pass is one measured pass of the corpus through an engine: every text
// parsed, then the nets analysed through AnalyzeEach with the default
// submit window.
type pass struct {
	wall    time.Duration
	rt      rtStats
	results []engine.Result
	nets    []*petri.Net
}

func runPass(eng *engine.Engine, corpus []item) (pass, error) {
	before := readRuntime()
	t0 := time.Now()
	nets := make([]*petri.Net, len(corpus))
	for i, it := range corpus {
		n, err := petri.ParseString(it.Text)
		if err != nil {
			return pass{}, fmt.Errorf("%s: %w", it.Name, err)
		}
		nets[i] = n
	}
	res := make([]engine.Result, len(nets))
	err := eng.AnalyzeEach(nets, func(i int, r engine.Result) { res[i] = r })
	wall := time.Since(t0)
	if err != nil {
		return pass{}, err
	}
	return pass{wall: wall, rt: before.delta(readRuntime()), results: res, nets: nets}, nil
}

// batchRound is one cold pass on a fresh nproc-worker engine, warm passes
// through the same engine, and a cold pass on a fresh 1-worker engine.
const warmPasses = 3

type batchRound struct {
	cold, warm, serial pass
	peakHeap           uint64
}

func runRound(w workload, corpus []item, workers int) (r batchRound, err error) {
	// The peak heap is the cold pass's: the engine's cache filling up
	// while the pass's reports accumulate, as in one `qssd` batch run.
	hp := startHeapPeak()
	eng := engine.New(w.engineConfig(workers))
	r.cold, err = runPass(eng, corpus)
	r.peakHeap = hp.end()
	if err != nil {
		eng.Close()
		return r, err
	}
	// A warm pass is short, so it runs warmPasses times and the round
	// keeps the median one.
	warm := make([]pass, warmPasses)
	for i := range warm {
		if warm[i], err = runPass(eng, corpus); err != nil {
			eng.Close()
			return r, err
		}
	}
	eng.Close()
	sort.Slice(warm, func(a, b int) bool { return warm[a].wall < warm[b].wall })
	r.warm = warm[warmPasses/2]
	one := engine.New(w.engineConfig(1))
	r.serial, err = runPass(one, corpus)
	one.Close()
	return r, err
}

// checkRound checks every report of the round: the cold pass against the
// known verdicts and schedule replay, the warm and serial passes byte for
// byte against the cold one.
func checkRound(w workload, corpus []item, r batchRound) []error {
	var errs []error
	for i, it := range corpus {
		res := r.cold.results[i]
		if res.Err != nil {
			errs = append(errs, fmt.Errorf("%s: cold job: %v", it.Name, res.Err))
			continue
		}
		if err := checkReport(r.cold.nets[i], it, res.Report, w.Timing); err != nil {
			errs = append(errs, err)
			continue
		}
		cold, err := json.Marshal(res.Report)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, other := range []struct {
			name string
			p    pass
		}{{"warm", r.warm}, {"serial", r.serial}} {
			o, err := json.Marshal(other.p.results[i].Report)
			if err != nil || other.p.results[i].Err != nil || !bytes.Equal(o, cold) {
				errs = append(errs, fmt.Errorf("%s: %s report differs from the cold one", it.Name, other.name))
			}
		}
	}
	return errs
}
