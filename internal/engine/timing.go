package engine

import (
	"encoding/json"
	"fmt"
	"sort"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
	"fcpn/internal/trace"
)

// TimingOptions configures the engine's weakly-hard timing-safety pass:
// every schedulable net's synthesised program is driven against a
// canonical periodic workload and its deadline hit/miss stream checked
// against the (m,k) constraint; optionally the overload margin (the
// harshest fault-injector intensity the constraint survives) is searched
// per overload kind. The zero value disables the pass.
type TimingOptions struct {
	// MK is the weakly-hard constraint; disabled (zero) turns the whole
	// pass off.
	MK timing.Constraint
	// Deadline is the per-event response budget in cycles; 0 calibrates
	// per net to sim.DefaultDeadlineFactor x the fault-free worst
	// response.
	Deadline int64
	// EventsPerSource sizes the synthetic workload (default 32): source
	// i (in canonical order) emits that many events with period 2i+3 and
	// phase i, mirroring qss -verify-bounds.
	EventsPerSource int
	// Seed drives choice resolution and the margin injectors (default 1).
	Seed uint64
	// Margin turns on the overload-margin search over MarginKinds
	// (default burst and overrun).
	Margin        bool
	MarginKinds   []sim.OverloadKind
	MarginCeiling int
}

// Enabled reports whether the timing pass runs.
func (o TimingOptions) Enabled() bool { return o.MK.Enabled() }

// normalized applies the documented defaults, so cache keys built from
// the options are stable however the caller spelled them.
func (o TimingOptions) normalized() TimingOptions {
	if o.EventsPerSource <= 0 {
		o.EventsPerSource = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Margin && len(o.MarginKinds) == 0 {
		o.MarginKinds = []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun}
	}
	return o
}

// TimingReport is the per-net outcome of the timing pass, attached to
// NetReport.Timing. Like every other report field it is decoded from a
// canonical cached payload, hit and miss alike, so warm results marshal
// byte-identically to cold ones; the verdict and margins carry no
// net-local identifiers.
type TimingReport struct {
	// MK restates the constraint ("(m,k)"); Deadline is the per-event
	// budget actually used (configured, or calibrated from the
	// fault-free run); EventsPerSource and Seed restate the workload.
	MK              string `json:"mk"`
	Deadline        int64  `json:"deadline"`
	EventsPerSource int    `json:"events_per_source"`
	Seed            uint64 `json:"seed"`
	// Verdict is the nominal run's weakly-hard verdict.
	Verdict *timing.Verdict `json:"verdict"`
	// Margins, when the margin search ran, hold one graceful-degradation
	// frontier per overload kind, in MarginKinds order.
	Margins []*sim.OverloadMargin `json:"margins,omitempty"`
}

// timingCacheVersion tags the timing layer's payload format (JSON of the
// whole TimingReport, margins included). Part of the key, like schedKey.
const timingCacheVersion = 2

// timingKey is the cache key of a net's timing report: every option field
// that shapes the report, then the canonical hash.
func timingKey(hash string, o TimingOptions) string {
	return fmt.Sprintf("timing:v%d:%d-%d:d%d:e%d:s%d:m%t%v:c%d:%s", timingCacheVersion, o.MK.M, o.MK.K,
		o.Deadline, o.EventsPerSource, o.Seed, o.Margin, o.MarginKinds, o.MarginCeiling, hash)
}

// timingWorkload builds the canonical periodic workload: sources ordered
// by canonical position, source i firing EventsPerSource times with
// period 2i+3 from phase i. Isomorphic nets get corresponding streams.
func timingWorkload(n *petri.Net, cf *petri.CanonicalForm, o TimingOptions) []rtos.Event {
	sources := append([]petri.Transition(nil), n.SourceTransitions()...)
	sort.Slice(sources, func(a, b int) bool {
		return cf.TransPos[sources[a]] < cf.TransPos[sources[b]]
	})
	streams := make([][]rtos.Event, len(sources))
	for i, src := range sources {
		streams[i] = rtos.Periodic(src, int64(2*i+3), int64(i), o.EventsPerSource)
	}
	return rtos.Merge(streams...)
}

// canonResolver resolves choices as a pure function of (canonical place
// position, occurrence index, seed): the target is drawn from the
// place's consumers ordered by canonical transition position, then
// located in the alternatives the interpreter offers. Isomorphic nets
// therefore resolve correspondingly, which is what lets the timing
// layer's cached verdicts be a function of the canonical structure alone
// (sim.DecisionStream hashes net-local indices and would not be).
func canonResolver(n *petri.Net, cf *petri.CanonicalForm, seed uint64) codegen.ChoiceResolver {
	// Dense place-indexed state: the resolver runs once per simulated
	// choice, so occurrence counters and the (static) canonical consumer
	// order are slice lookups, not map operations; the order is computed
	// lazily per place instead of sorted on every call.
	occ := make([]uint64, n.NumPlaces())
	order := make([][]petri.Transition, n.NumPlaces())
	return func(p petri.Place, alts []petri.Transition) int {
		k := occ[p]
		occ[p] = k + 1
		h := seed ^ (uint64(cf.PlacePos[p])+1)*0x9E3779B97F4A7C15 ^ (k+1)*0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
		ts := order[p]
		if ts == nil {
			cons := n.Consumers(p)
			ts = make([]petri.Transition, len(cons))
			for i, c := range cons {
				ts[i] = c.Transition
			}
			sort.Slice(ts, func(a, b int) bool { return cf.TransPos[ts[a]] < cf.TransPos[ts[b]] })
			order[p] = ts
		}
		target := ts[h%uint64(len(ts))]
		for i, t := range alts {
			if t == target {
				return i
			}
		}
		return -1
	}
}

// timingPass runs the whole pass for one schedulable net through one
// cache entry; the report is decoded from the stored payload on hit and
// miss alike. A miss times its fault-free run under "timing/monitor" and
// its margin searches under "timing/margin"; a hit or a singleflight wait
// books the lookup to "timing/monitor" and closes an empty
// "timing/margin", so every timed net records one of each.
func (e *Engine) timingPass(n *petri.Net, cf *petri.CanonicalForm, sched *core.Schedule, tp *core.TaskPartition, tr *trace.Tracer) (*TimingReport, error) {
	opts := e.cfg.Timing.normalized()
	sp := tr.Start("timing/monitor")
	inMargin := false
	toMargin := func() {
		sp.End()
		sp = tr.Start("timing/margin")
		inMargin = true
	}
	v, err := e.cache.getOrCompute(timingKey(cf.Hash, opts), func() (any, error) {
		prog, err := codegen.Generate(sched, tp)
		if err != nil {
			return nil, err
		}
		hooks := func() sim.Hooks {
			return sim.Hooks{Resolver: canonResolver(n, cf, opts.Seed)}
		}
		trep, err := checkTiming(prog, timingWorkload(n, cf, opts), opts, hooks, toMargin, tr)
		if err != nil {
			return nil, err
		}
		enc, err := json.Marshal(trep)
		if err != nil {
			return nil, err
		}
		tr.Add("cache/timing/bytes", int64(len(enc)))
		return enc, nil
	})
	if opts.Margin && !inMargin {
		toMargin()
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	trep := &TimingReport{}
	if err := json.Unmarshal(v.([]byte), trep); err != nil {
		return nil, fmt.Errorf("engine: timing payload: %w", err)
	}
	return trep, nil
}

// checkTiming simulates one program for the timing report: the one
// fault-free run (sim.RunNominal), then toMargin and, when opts.Margin
// is set, one search per kind. hooks builds each run's fresh hooks.
func checkTiming(prog *codegen.Program, events []rtos.Event, opts TimingOptions, hooks func() sim.Hooks, toMargin func(), tr *trace.Tracer) (*TimingReport, error) {
	nom, err := sim.RunNominal(prog, events, rtos.DefaultCostModel(), sim.MarginConfig{
		MK:     opts.MK,
		Seed:   opts.Seed,
		Robust: sim.RobustConfig{CyclesPerTick: 1, Deadline: opts.Deadline},
		Hooks:  hooks,
	})
	if err != nil {
		return nil, err
	}
	trep := &TimingReport{
		MK:              opts.MK.String(),
		Deadline:        nom.Deadline,
		EventsPerSource: opts.EventsPerSource,
		Seed:            opts.Seed,
		Verdict:         nom.Verdict,
	}
	if !opts.Margin {
		return trep, nil
	}
	toMargin()
	for _, kind := range opts.MarginKinds {
		om, err := nom.SearchMargin(kind, opts.MarginCeiling)
		if err != nil {
			return nil, err
		}
		tr.Add("timing/probes", int64(om.Result.Probes))
		trep.Margins = append(trep.Margins, om)
	}
	return trep, nil
}
