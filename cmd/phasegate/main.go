// Command phasegate is the phase-level performance regression gate: it
// distils the engine-lifetime phase trace out of a qssd report into a
// small committed baseline (-write), and on later runs compares a fresh
// report against that baseline, failing when any phase's total time has
// regressed beyond the allowed factor.
//
// Usage:
//
//	qssd -gen 20 -gen-seed 1 -workers 4 -o run.json
//	phasegate -report run.json -baseline BENCH_phases.json -write   # refresh
//	phasegate -report run.json -baseline BENCH_phases.json          # gate
//
// The gate compares both total milliseconds and invocation counts per
// phase. Counts are deterministic for a fixed corpus, so the count gate
// (-max-count-regress) is tight: it catches algorithmic regressions —
// e.g. the distinct-reduction enumeration silently keeping duplicates so
// core/check runs once per allocation again — that a host-relative time
// factor could absorb, and it applies to every baseline phase: a detail
// phase whose total sits under -floor-ms (core/cycle, whose searches
// take microseconds) still has its count gated. Only the time comparison
// honours the floor — sub-millisecond totals are dominated by timer
// noise — and the default time factor of 2 leaves room for host-speed
// differences while still catching the order-of-magnitude slips the
// trace exists to expose. Plain JSON comparison, no external
// dependencies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"fcpn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "phasegate:", err)
		os.Exit(1)
	}
}

// qssdReport is the slice of the qssd JSON document the gate needs: the
// host's parallelism and the engine-lifetime trace.
type qssdReport struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Stats      struct {
		Trace *trace.Report `json:"trace"`
	} `json:"stats"`
}

// baseline is the committed BENCH_phases.json document.
type baseline struct {
	// GoMaxProcs records the host the baseline was taken on, for reading
	// the numbers; the gate itself is host-relative only through the
	// regression factor.
	GoMaxProcs int          `json:"gomaxprocs"`
	Phases     []phaseEntry `json:"phases"`
}

type phaseEntry struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	Detail  bool    `json:"detail,omitempty"`
}

// run is the testable core of the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("phasegate", flag.ContinueOnError)
	reportPath := fs.String("report", "", "qssd JSON report for the current run (required)")
	basePath := fs.String("baseline", "BENCH_phases.json", "committed phase baseline")
	write := fs.Bool("write", false, "write/refresh the baseline from -report instead of gating")
	factor := fs.Float64("max-regress", 2.0, "fail when a phase exceeds baseline total by this factor")
	countFactor := fs.Float64("max-count-regress", 1.25, "fail when a phase's count exceeds baseline by this factor (0 disables)")
	floorMS := fs.Float64("floor-ms", 5.0, "ignore phases whose baseline total is below this many ms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reportPath == "" {
		return fmt.Errorf("-report is required")
	}

	var rep qssdReport
	if err := readJSON(*reportPath, &rep); err != nil {
		return err
	}
	if rep.Stats.Trace == nil || len(rep.Stats.Trace.Phases) == 0 {
		return fmt.Errorf("%s: report has no stats.trace block (old qssd?)", *reportPath)
	}
	current := distill(&rep)

	if *write {
		f, err := os.Create(*basePath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(current); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %d phases (gomaxprocs %d)\n",
			*basePath, len(current.Phases), current.GoMaxProcs)
		return nil
	}

	var base baseline
	if err := readJSON(*basePath, &base); err != nil {
		return err
	}
	cur := make(map[string]phaseEntry, len(current.Phases))
	for _, p := range current.Phases {
		cur[p.Name] = p
	}

	// The time gate only applies above the floor — sub-millisecond phases
	// are timer noise. Counts are deterministic for a fixed corpus, so the
	// count gate applies to every baseline phase regardless of floor: a
	// detail phase like core/cycle can hold microseconds yet its count is
	// exactly the signal (how many reductions reached the cycle search)
	// the gate exists to pin.
	var failures []string
	checked := 0
	for _, b := range base.Phases {
		gateTime := b.TotalMS >= *floorMS
		gateCount := *countFactor > 0
		if !gateTime && !gateCount {
			continue
		}
		checked++
		c, ok := cur[b.Name]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("phase %s: in baseline (%.2f ms ×%d) but absent from this run", b.Name, b.TotalMS, b.Count))
			continue
		}
		status := "ok"
		if gateTime {
			limit := b.TotalMS * *factor
			if c.TotalMS > limit {
				status = "FAIL"
				failures = append(failures,
					fmt.Sprintf("phase %s: %.2f ms vs baseline %.2f ms (limit %.2f ms at %gx)",
						b.Name, c.TotalMS, b.TotalMS, limit, *factor))
			}
		}
		if gateCount && float64(c.Count) > float64(b.Count)**countFactor {
			status = "FAIL"
			failures = append(failures,
				fmt.Sprintf("phase %s: count %d vs baseline %d (limit %.0f at %gx)",
					b.Name, c.Count, b.Count, float64(b.Count)**countFactor, *countFactor))
		}
		fmt.Fprintf(stdout, "%-28s %10.2f ms ×%-6d  baseline %10.2f ms ×%-6d  %s\n",
			b.Name, c.TotalMS, c.Count, b.TotalMS, b.Count, status)
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s has no phases above the %.1f ms floor and the count gate is disabled", *basePath, *floorMS)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "regression:", f)
		}
		return fmt.Errorf("%d phase(s) regressed beyond the allowed factors", len(failures))
	}
	fmt.Fprintf(stdout, "phase gate passed: %d phase(s) within %gx time / %gx count of baseline\n",
		checked, *factor, *countFactor)
	return nil
}

func distill(rep *qssdReport) baseline {
	b := baseline{GoMaxProcs: rep.GoMaxProcs}
	for _, p := range rep.Stats.Trace.Phases {
		b.Phases = append(b.Phases, phaseEntry{
			Name:    p.Name,
			Count:   p.Count,
			TotalMS: p.TotalMS,
			Detail:  p.Detail,
		})
	}
	return b
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
