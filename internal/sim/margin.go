package sim

import (
	"errors"
	"fmt"
	"strings"

	"fcpn/internal/codegen"
	"fcpn/internal/fault"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// OverloadKind selects the fault-injection axis an overload-margin search
// scales. Each kind maps an integer intensity level to one seeded
// injector configuration; level 0 is always the unperturbed workload.
type OverloadKind int

const (
	// OverloadBurst scales burst length: every event arrives with level
	// extra back-to-back copies (an interrupt storm of growing depth).
	OverloadBurst OverloadKind = iota
	// OverloadJitter scales timer jitter: event timestamps move by up to
	// level ticks and the stream re-sorts (clock drift, deferred ISRs).
	OverloadJitter
	// OverloadDrop scales event loss: level percent of events vanish
	// (capped at 100).
	OverloadDrop
	// OverloadOverrun scales task overruns: each dispatch runs up to
	// level percent slower than the nominal cost model.
	OverloadOverrun
)

// overloadKinds holds each kind's name and default search ceiling:
// bursts deeper than 64 copies or overruns past 8x nominal are far
// outside any sensible operating envelope, and drop is a percentage by
// construction.
var overloadKinds = [...]struct {
	name    string
	ceiling int
}{
	OverloadBurst:   {"burst", 64},
	OverloadJitter:  {"jitter", 1 << 12},
	OverloadDrop:    {"drop", 100},
	OverloadOverrun: {"overrun", 700},
}

func (k OverloadKind) valid() bool { return k >= 0 && int(k) < len(overloadKinds) }

// String names the kind as accepted by ParseOverloadKind.
func (k OverloadKind) String() string {
	if k.valid() {
		return overloadKinds[k].name
	}
	return fmt.Sprintf("OverloadKind(%d)", int(k))
}

// ParseOverloadKind parses an overload kind name (burst, jitter, drop,
// overrun).
func ParseOverloadKind(s string) (OverloadKind, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for k := range overloadKinds {
		if overloadKinds[k].name == name {
			return OverloadKind(k), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown overload kind %q (want burst, jitter, drop or overrun)", s)
}

// DefaultDeadlineFactor is the calibration multiplier: when no deadline
// is configured, the per-event budget becomes this many times the
// fault-free worst response.
const DefaultDeadlineFactor = 2

// MarginConfig parameterises an overload-margin search.
type MarginConfig struct {
	// Kind is the overload axis to scale.
	Kind OverloadKind
	// MK is the weakly-hard constraint that defines "still safe". Must
	// be enabled.
	MK timing.Constraint
	// Seed drives the injectors and (absent custom Hooks) the decision
	// stream; the whole search is a pure function of it.
	Seed uint64
	// Ceiling bounds the intensity levels probed (0 = per-kind default).
	Ceiling int
	// Robust configures the underlying runs. Deadline == 0 auto-
	// calibrates to DefaultDeadlineFactor x the fault-free worst
	// response. The Jitter field is owned by the search under
	// OverloadOverrun and must be nil.
	Robust RobustConfig
	// Hooks, when set, builds fresh run hooks per probe (decision
	// streams are stateful, so each probe needs its own). Nil uses a
	// seeded DecisionStream.
	Hooks func() Hooks
}

func (cfg MarginConfig) hooks(prog *codegen.Program) Hooks {
	if cfg.Hooks != nil {
		return cfg.Hooks()
	}
	return Hooks{Resolver: NewDecisionStream(prog.Net, cfg.Seed).Resolver()}
}

// OverloadMargin is the outcome of one overload-margin search: the
// calibrated deadline and the bisection result (the highest intensity
// level at which the (m,k) constraint still holds).
type OverloadMargin struct {
	Kind     string               `json:"kind"`
	Deadline int64                `json:"deadline"`
	Result   *timing.MarginResult `json:"result"`
}

// String renders a one-line summary.
func (om *OverloadMargin) String() string {
	return fmt.Sprintf("%s deadline=%d %s", om.Kind, om.Deadline, om.Result)
}

// Nominal is the fault-free run a timing check starts from, run once:
// its worst response calibrates the deadline when none is configured,
// its verdict is the nominal (m,k) verdict, and it answers level 0 of
// every margin search, so searches taking p_i probes cost 1 + Σ(p_i − 1)
// runs in all.
type Nominal struct {
	// Deadline is the per-event budget every run is judged by: the
	// configured one, or DefaultDeadlineFactor x the worst response.
	Deadline int64
	// Verdict is the fault-free run's weakly-hard verdict.
	Verdict *timing.Verdict

	prog   *codegen.Program
	events []rtos.Event
	cost   rtos.CostModel
	cfg    MarginConfig
}

// RunNominal runs the unperturbed workload once under cfg (cfg.Kind and
// cfg.Ceiling are unused). With cfg.Robust.Deadline == 0 it runs without
// a watchdog and calibrates the deadline from the worst response; the
// verdict is still the calibrated budget's, since the watchdog only
// judges responses and none exceeds DefaultDeadlineFactor times the
// largest. A run that exhausts its step budget under a configured
// deadline returns its violated verdict together with the error.
func RunNominal(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg MarginConfig) (*Nominal, error) {
	if err := cfg.MK.Validate(); err != nil {
		return nil, fmt.Errorf("sim: margin search needs a valid (m,k) constraint: %w", err)
	}
	if cfg.Robust.Jitter != nil {
		return nil, fmt.Errorf("sim: margin search owns RobustConfig.Jitter; configure OverloadOverrun instead")
	}
	cfg.Robust.MK = cfg.MK
	rm, err := RunRobust(prog, events, cost, cfg.Robust, cfg.hooks(prog))
	if cfg.Robust.Deadline == 0 {
		if err != nil {
			return nil, fmt.Errorf("sim: deadline calibration: %w", err)
		}
		cfg.Robust.Deadline = max(DefaultDeadlineFactor*rm.ResponseMax, 1)
	}
	v := verdictOf(rm, err)
	if v == nil {
		return nil, err
	}
	return &Nominal{Deadline: cfg.Robust.Deadline, Verdict: v, prog: prog, events: events, cost: cost, cfg: cfg}, err
}

// verdictOf is a run's verdict. A run that exhausted its step budget is
// a system that cannot keep up: its verdict counts as violated. Nil for
// any other failure.
func verdictOf(rm *RobustMetrics, err error) *timing.Verdict {
	if err == nil {
		return rm.Timing
	}
	if !errors.Is(err, codegen.ErrBudgetExceeded) || rm == nil || rm.Timing == nil {
		return nil
	}
	v := *rm.Timing
	v.Satisfied = false
	return &v
}

// CalibrateDeadline derives a per-event response budget from one
// fault-free run: factor times the worst response, minimum one cycle.
//
// Deprecated: RunNominal calibrates in the run that yields the nominal
// verdict; this stays only so existing callers still compile.
func CalibrateDeadline(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg RobustConfig, hooks Hooks, factor int64) (int64, error) {
	cfg.Deadline, cfg.MK, cfg.Jitter = 0, timing.Constraint{}, nil
	rm, err := RunRobust(prog, events, cost, cfg, hooks)
	if err != nil {
		return 0, fmt.Errorf("sim: deadline calibration: %w", err)
	}
	return max(factor*rm.ResponseMax, 1), nil
}

// SearchOverloadMargin is the one-kind form of RunNominal followed by
// Nominal.SearchMargin. A nominal run that ran out of step budget is
// level 0 failed, not an error.
func SearchOverloadMargin(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg MarginConfig) (*OverloadMargin, error) {
	nom, err := RunNominal(prog, events, cost, cfg)
	if nom == nil {
		return nil, err
	}
	return nom.SearchMargin(cfg.Kind, cfg.Ceiling)
}

// SearchMargin binary-searches the fault-injector intensity of kind for
// the highest level at which the weakly-hard constraint still holds: the
// overload the implementation tolerates before its timing safety breaks.
// Level 0 is the nominal run; every other probe replays the same seeded
// injector at its intensity, so the search is deterministic for a given
// (workload, seed, config). ceiling <= 0 uses the kind's default.
func (nom *Nominal) SearchMargin(kind OverloadKind, ceiling int) (*OverloadMargin, error) {
	if !kind.valid() {
		return nil, fmt.Errorf("sim: unknown overload kind %v", kind)
	}
	if ceiling <= 0 {
		ceiling = overloadKinds[kind].ceiling
	}
	if kind == OverloadDrop && ceiling > 100 {
		ceiling = 100
	}
	cfg := nom.cfg
	probe := func(level int) (*timing.Verdict, error) {
		if level == 0 {
			return nom.Verdict, nil
		}
		rcfg := cfg.Robust
		var inj fault.Injector
		switch kind {
		case OverloadBurst:
			inj = fault.Burst{Pct: 100, Extra: level, Source: fault.AnySource}
		case OverloadJitter:
			inj = fault.JitterTicks{Window: int64(level), Source: fault.AnySource}
		case OverloadDrop:
			inj = fault.Drop{Pct: level, Source: fault.AnySource}
		case OverloadOverrun:
			rcfg.Jitter = &fault.CostJitter{Seed: cfg.Seed, MaxPct: level}
		}
		stream := nom.events
		if inj != nil {
			stream = fault.Scenario{
				Name: "margin-" + kind.String(), Seed: cfg.Seed, Injectors: []fault.Injector{inj},
			}.Apply(nom.events)
		}
		rm, err := RunRobust(nom.prog, stream, nom.cost, rcfg, cfg.hooks(nom.prog))
		if v := verdictOf(rm, err); v != nil {
			return v, nil
		}
		return nil, fmt.Errorf("sim: margin probe level %d: %w", level, err)
	}
	res, err := timing.SearchMargin(ceiling, probe)
	if err != nil {
		return nil, err
	}
	return &OverloadMargin{Kind: kind.String(), Deadline: nom.Deadline, Result: res}, nil
}
